"""Dense tensors with reverse-mode differentiation on an explicit tape.

Define-by-run: while a Tape is active (``with record() as tape:``), every
operation whose inputs require gradients appends one entry, so the tape is
topologically ordered by construction and ``backward`` is a single reverse
sweep. Without an active tape, ops are plain numpy computations.

Computation runs in float32 by default (pass float64 arrays for the tight
gradient-test tolerances). Broadcasting is deliberately narrow: an operand
may broadcast across the other's leading batch dimensions (suffix-aligned,
singleton dims allowed), anything else raises ShapeError.
"""

import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

LAYER_NORM_EPS = 1e-5


class Tensor:
    """A shaped array plus an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        """Zero the accumulator in place, so views into it stay valid."""
        if self.grad is not None:
            self.grad.fill(0)


class Tape:
    """Ordered record of operations; every entry's inputs precede it."""

    __slots__ = ("entries",)

    def __init__(self):
        # entries: (inputs tuple, output, backward fn: g_out -> grads per input)
        self.entries: list[tuple[tuple[Tensor, ...], Tensor, object]] = []


_tls = threading.local()


def _active_tape() -> Tape | None:
    return getattr(_tls, "tape", None)


@contextmanager
def record():
    """Activate a fresh tape on this thread; yields the Tape."""
    prev = _active_tape()
    tape = Tape()
    _tls.tape = tape
    try:
        yield tape
    finally:
        _tls.tape = prev


def make_op(inputs, out_data, backward) -> Tensor:
    """Build an op output and record it if a tape is active.

    ``backward(g_out)`` must return one gradient array (or None) per input,
    each already reduced to that input's shape.
    """
    inputs = tuple(inputs)
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs
    out.grad = None
    if needs:
        tape.entries.append((inputs, out, backward))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse sweep: add dLoss/dLeaf into every leaf's accumulator.

    A leaf is a tensor with an accumulator (``grad is not None``): every
    ``parameter`` is born with one and op outputs never get one. Each
    gradient a leaf receives is added into its ``grad`` in place, in reverse
    tape order, so accumulation is additive across fan-out and across calls,
    the array keeps its identity and a leaf off the loss's path keeps what it
    held. Op outputs' gradients are summed out of place until their entry is
    reached. From a zeroed accumulator the bits equal those of adding a leaf's
    summed gradients once, since 0 + x == x in IEEE arithmetic.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    buffers: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for inputs, out, bwd in reversed(tape.entries):
        g = buffers.pop(id(out), None)
        if g is None:
            continue
        for inp, gi in zip(inputs, bwd(g)):
            if gi is None or not inp.requires_grad:
                continue
            key = id(inp)
            if inp.grad is not None:
                inp.grad += gi
            elif key in buffers:
                # out of place: closures may hand the same array to several inputs
                buffers[key] = buffers[key] + gi
            else:
                buffers[key] = gi


# ---------------------------------------------------------------------------
# broadcasting helpers (leading batch dims only)


def _broadcast_ok(sa: tuple, sb: tuple) -> bool:
    """True if one operand broadcasts into the other (no mutual expansion)."""
    try:
        out = np.broadcast_shapes(sa, sb)
    except ValueError:
        return False
    return out == sa or out == sb


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over the axes that were broadcast to reach its shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_elementwise(a: Tensor, b: Tensor, opname: str):
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not conform")


# ---------------------------------------------------------------------------
# primitive ops


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "add")
    out = a.data + b.data

    def bwd(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return make_op((a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "mul")
    out = a.data * b.data

    def bwd(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return make_op((a, b), out, bwd)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return make_op((a,), y, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading dims must match or be
    absent on one side."""
    sa, sb = a.shape, b.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {sa} x {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {sa} x {sb}")
    la, lb = sa[:-2], sb[:-2]
    if la != lb and la != () and lb != ():
        raise ShapeError(f"matmul leading batch dims disagree: {sa} x {sb}")
    out = a.data @ b.data

    def bwd(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _reduce_to(ga, a.shape), _reduce_to(gb, b.shape)

    return make_op((a, b), out, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one tape entry; bitwise equal to ``add(matmul(x, w), b)``.

    x is (..., n), w is (n, k) and b is (k,).
    """
    if x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs x (..., n), w (n, k), b (k,), got {x.shape}, {w.shape}, {b.shape}")
    out = x.data @ w.data + b.data

    def bwd(g):
        return _linear_bwd(g, x.data, w.data, b.data)

    return make_op((x, w, b), out, bwd)


def _linear_bwd(g: np.ndarray, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple:
    """Gradients (gx, gw, gb) of ``x @ w + b`` for the output gradient g."""
    return g @ w.T, _reduce_to(np.swapaxes(x, -1, -2) @ g, w.shape), _reduce_to(g, b.shape)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, max-shifted for stability."""
    y = _softmax(x.data)

    def bwd(g):
        return (_softmax_bwd(g, y),)

    return make_op((x,), y, bwd)


def _softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-shifted softmax of the last axis, in out (default a new array)."""
    y = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True)
    return y


def _softmax_bwd(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the softmax y for the output gradient g."""
    return y * (g - np.sum(g * y, axis=-1, keepdims=True))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(
            f"layer_norm affine params must be shape {x.shape[-1:]}, "
            f"got gain {gain.shape}, bias {bias.shape}"
        )
    xhat, inv = _normalize(x.data)
    y = xhat * gain.data + bias.data

    def bwd(g):
        return _layer_norm_bwd(g, xhat, inv, gain.data)

    return make_op((x, gain, bias), y, bwd)


def _normalize(x: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """(xhat, inv) of the last axis, xhat in out (default a new array)."""
    xhat = np.subtract(x, np.mean(x, axis=-1, keepdims=True), out=out)
    var = np.mean(xhat * xhat, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + xhat.dtype.type(LAYER_NORM_EPS))
    xhat *= inv
    return xhat, inv


def _layer_norm_bwd(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray) -> tuple:
    """Gradients (gx, g_gain, g_bias) of LayerNorm for the output gradient g."""
    lead = tuple(range(g.ndim - 1))
    g_gain = np.sum(g * xhat, axis=lead) if lead else g * xhat
    g_bias = np.sum(g, axis=lead) if lead else g
    gx_hat = g * gain
    m1 = np.mean(gx_hat, axis=-1, keepdims=True)
    m2 = np.mean(gx_hat * xhat, axis=-1, keepdims=True)
    return inv * (gx_hat - m1 - xhat * m2), g_gain, g_bias


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def bwd(g):
        return (g.reshape(x.shape),)

    return make_op((x,), out, bwd)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.transpose(x.data, axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return make_op((x,), out, bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = np.ascontiguousarray(x.data[idx])

    def bwd(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return make_op((x,), out, bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def bwd(g):
        grads = []
        offset = 0
        idx = [slice(None)] * g.ndim
        for s in sizes:
            idx[axis] = slice(offset, offset + s)
            grads.append(np.ascontiguousarray(g[tuple(idx)]))
            offset += s
        return tuple(grads)

    return make_op(tensors, out, bwd)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def bwd(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype),)

    return make_op((x,), out, bwd)
