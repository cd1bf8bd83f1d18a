"""Optional numba jit for the sequential kernel in kernels.py.

``USING_NUMBA`` is true when numba can be imported. The jitted kernel is
compiled without fastmath, so it returns the same bits as plain Python.
"""

try:
    from numba import njit as _njit

    USING_NUMBA = True
except ImportError:
    USING_NUMBA = False


def jit_kernel(func):
    """Compile a kernel with strict IEEE semantics (no fastmath); needs USING_NUMBA."""
    return _njit(cache=True)(func)


def backend_name() -> str:
    return "numba" if USING_NUMBA else "numpy"
