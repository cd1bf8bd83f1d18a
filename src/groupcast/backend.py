"""Names the kernel backend for run provenance.

There is one implementation of every kernel in kernels.py: numpy, with
``var_recursion`` as a loop over Python floats.
"""


def backend_name() -> str:
    return "numpy"
