"""Hot numeric kernels with numba and pure-numpy implementations.

Every kernel ships two implementations:

* ``<name>_numpy`` — vectorized numpy (or plain Python where the loop is
  inherently sequential);
* ``<name>_loop`` — the explicit-loop version, jit-compiled when numba is
  active.

The public name binds to the loop version under the numba backend and to
the numpy version otherwise. The two are bit-identical by construction:
loops use the same per-element expressions in the same order, integer ops
are exact, and no reduction whose float summation order matters lives in a
kernel. A traced ``perfbench/run.py`` run times the active backend's
kernels in their workloads (the ``kernels.*`` per-layer metrics).
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


def mix64_stream_numpy(base: np.uint64, start: int, n: int) -> np.ndarray:
    """SplitMix64 outputs for counters start..start+n-1 (vectorized)."""
    with np.errstate(over="ignore"):
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        z = np.uint64(base) + idx * _GAMMA
        z = (z ^ (z >> _S30)) * _MIX1
        z = (z ^ (z >> _S27)) * _MIX2
        return z ^ (z >> _S31)


def _mix64_stream_loop(base, start, n):
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        z = base + np.uint64(start + i + 1) * _GAMMA
        z = (z ^ (z >> _S30)) * _MIX1
        z = (z ^ (z >> _S27)) * _MIX2
        out[i] = z ^ (z >> _S31)
    return out


def var_recursion_numpy(coeffs: np.ndarray, innovations: np.ndarray) -> np.ndarray:
    """Lagged vector-autoregressive recursion, sequential reference.

    coeffs: (L, K, K) with coeffs[l, i, j] = effect of series j at lag l+1
    on series i. innovations: (T, K). Returns x with
    x[t, i] = sum_{l, j} coeffs[l, i, j] * x[t-1-l, j] + innovations[t, i],
    zero-initialized before t=0. The inner accumulation order (l outer,
    j inner) is fixed so the jitted twin is bit-identical.
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


_var_recursion_loop_src = var_recursion_numpy


def rotary_apply_numpy(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
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


def _rotary_apply_loop(x, cos, sin):
    B, T, D = x.shape
    H = D // 2
    out = np.empty_like(x)
    for b in range(B):
        for t in range(T):
            for c in range(H):
                xe = x[b, t, 2 * c]
                xo = x[b, t, 2 * c + 1]
                out[b, t, 2 * c] = xe * cos[t, c] - xo * sin[t, c]
                out[b, t, 2 * c + 1] = xe * sin[t, c] + xo * cos[t, c]
    return out


def pinball_cells_numpy(
    target: np.ndarray, pred: np.ndarray, levels: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Per-cell quantile loss max(q*e, (q-1)*e), zeroed where mask is 0.

    target/mask: (N,), pred: (N, Q), levels: (Q,). Returns (N, Q).
    """
    e = target[:, None] - pred
    cells = np.maximum(levels * e, (levels - 1.0) * e)
    return cells * mask[:, None]


def _pinball_cells_loop(target, pred, levels, mask):
    N, Q = pred.shape
    out = np.empty((N, Q), dtype=pred.dtype)
    for n in range(N):
        t = target[n]
        m = mask[n]
        for q in range(Q):
            e = t - pred[n, q]
            out[n, q] = max(levels[q] * e, (levels[q] - 1.0) * e) * m
    return out


def pinball_grad_numpy(
    target: np.ndarray, pred: np.ndarray, levels: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """d(cell)/d(e) per cell: q where e > 0 else q - 1, zeroed by mask."""
    e = target[:, None] - pred
    g = np.where(e > 0.0, levels, levels - 1.0)
    return g * mask[:, None]


def _pinball_grad_loop(target, pred, levels, mask):
    N, Q = pred.shape
    out = np.empty((N, Q), dtype=pred.dtype)
    for n in range(N):
        t = target[n]
        m = mask[n]
        for q in range(Q):
            e = t - pred[n, q]
            out[n, q] = (levels[q] if e > 0.0 else levels[q] - 1.0) * m
    return out


if USING_NUMBA:
    mix64_stream_loop = jit_kernel(_mix64_stream_loop)
    var_recursion_loop = jit_kernel(_var_recursion_loop_src)
    rotary_apply_loop = jit_kernel(_rotary_apply_loop)
    pinball_cells_loop = jit_kernel(_pinball_cells_loop)
    pinball_grad_loop = jit_kernel(_pinball_grad_loop)

    mix64_stream = mix64_stream_loop
    var_recursion = var_recursion_loop
    rotary_apply = rotary_apply_loop
    pinball_cells = pinball_cells_loop
    pinball_grad = pinball_grad_loop
else:
    mix64_stream_loop = _mix64_stream_loop
    var_recursion_loop = _var_recursion_loop_src
    rotary_apply_loop = _rotary_apply_loop
    pinball_cells_loop = _pinball_cells_loop
    pinball_grad_loop = _pinball_grad_loop

    mix64_stream = mix64_stream_numpy
    var_recursion = var_recursion_numpy
    rotary_apply = rotary_apply_numpy
    pinball_cells = pinball_cells_numpy
    pinball_grad = pinball_grad_numpy
