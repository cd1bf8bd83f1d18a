"""Hot numeric kernels, one numpy implementation each.

``var_recursion`` is the one inherently sequential kernel; it is
jit-compiled when numba is importable and runs as plain Python otherwise.
The jitted build is bit-identical: it runs the same per-element
expressions in the same order, without fastmath. A traced
``perfbench/run.py`` run times every kernel in its workloads (the
``kernels.*`` per-layer metrics).
"""

import numpy as np

from .backend import USING_NUMBA, jit_kernel

# SplitMix64 constants.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def mix64_stream(base: np.uint64, start: int, n: int) -> np.ndarray:
    """SplitMix64 outputs for counters start..start+n-1 (vectorized)."""
    with np.errstate(over="ignore"):
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        z = np.uint64(base) + idx * _GAMMA
        z = (z ^ (z >> _S30)) * _MIX1
        z = (z ^ (z >> _S27)) * _MIX2
        return z ^ (z >> _S31)


def var_recursion(coeffs: np.ndarray, innovations: np.ndarray) -> np.ndarray:
    """Lagged vector-autoregressive recursion.

    coeffs: (L, K, K) with coeffs[l, i, j] = effect of series j at lag l+1
    on series i. innovations: (T, K). Returns x with
    x[t, i] = sum_{l, j} coeffs[l, i, j] * x[t-1-l, j] + innovations[t, i],
    zero-initialized before t=0. The inner accumulation order (l outer,
    j inner) is fixed so the jitted build is bit-identical.
    """
    L, K, _ = coeffs.shape
    T = innovations.shape[0]
    x = np.zeros((T, K), dtype=np.float64)
    for t in range(T):
        for i in range(K):
            acc = innovations[t, i]
            for l in range(L):
                s = t - 1 - l
                if s < 0:
                    break
                for j in range(K):
                    acc = acc + coeffs[l, i, j] * x[s, j]
            x[t, i] = acc
    return x


if USING_NUMBA:
    var_recursion = jit_kernel(var_recursion)


def rotary_apply(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate channel pairs of x by position-dependent angles.

    x: (B, T, D) with D even; cos/sin: (T, D//2). Channel pair (2c, 2c+1)
    at position t is rotated by the angle whose cosine/sine is
    cos[t, c]/sin[t, c]. Pass -sin to invert the rotation.
    """
    xe = x[:, :, 0::2]
    xo = x[:, :, 1::2]
    out = np.empty_like(x)
    out[:, :, 0::2] = xe * cos - xo * sin
    out[:, :, 1::2] = xe * sin + xo * cos
    return out


def pinball_cells(
    target: np.ndarray, pred: np.ndarray, levels: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Per-cell quantile loss max(q*e, (q-1)*e), zeroed where mask is 0.

    target/mask: (N,), pred: (N, Q), levels: (Q,). Returns (N, Q).
    """
    e = target[:, None] - pred
    cells = np.maximum(levels * e, (levels - 1.0) * e)
    return cells * mask[:, None]


def pinball_grad(
    target: np.ndarray, pred: np.ndarray, levels: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """d(cell)/d(e) per cell: q where e > 0 else q - 1, zeroed by mask."""
    e = target[:, None] - pred
    g = np.where(e > 0.0, levels, levels - 1.0)
    return g * mask[:, None]
