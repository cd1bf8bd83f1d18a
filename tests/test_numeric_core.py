"""Tensor engine: op semantics, tape ordering, gradients vs finite differences."""

import zlib

import numpy as np
import pytest

from groupcast import model as M
from groupcast import tensor as T
from groupcast.errors import ContractError, ShapeError

from oracles import (
    finite_diff_grad,
    layer_norm_op,
    linear_op,
    matmul_triple_loop,
    rel_err,
    rope_rotate,
    scale,
    softmax_rows_op,
    softmax_three_temporaries,
)


def test_matmul_identity():
    m = np.arange(9.0).reshape(3, 3)
    out = T.matmul(T.constant(np.eye(3), dtype=np.float64), T.constant(m, dtype=np.float64))
    assert np.array_equal(out.data, m)


def test_matmul_forced_arithmetic():
    out = T.matmul(
        T.constant([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64),
        T.constant([[0.0], [1.0]], dtype=np.float64),
    )
    assert np.array_equal(out.data, [[2.0], [4.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    out = T.matmul(T.constant(a, dtype=np.float64), T.constant(b, dtype=np.float64))
    assert np.abs(out.data - matmul_triple_loop(a, b)).max() <= 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = T.constant(rng.normal(size=(4, 5)), dtype=np.float64)
        b = T.constant(rng.normal(size=(5, 6)), dtype=np.float64)
        c = T.constant(rng.normal(size=(6, 3)), dtype=np.float64)
        left = T.matmul(T.matmul(a, b), c).data
        right = T.matmul(a, T.matmul(b, c)).data
        assert np.abs(left - right).max() <= 1e-10


def test_softmax_uniform_on_equal_values():
    out = T.softmax_rows(T.constant(np.full((3, 5), 2.7), dtype=np.float64))
    assert np.allclose(out.data, 0.2, atol=1e-15)


def test_softmax_forced_arithmetic():
    out = T.softmax_rows(T.constant(np.array([[0.0, np.log(3.0)]]), dtype=np.float64))
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-14)


def test_softmax_large_values_stable():
    out = T.softmax_rows(T.constant(np.array([[1e4, 0.0]]), dtype=np.float64))
    assert np.isfinite(out.data).all()
    assert abs(out.data.sum() - 1.0) <= 1e-6


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 9)) * 10
    a = T.softmax_rows(T.constant(x, dtype=np.float64)).data
    assert np.abs(a.sum(axis=-1) - 1.0).max() <= 1e-6
    b = T.softmax_rows(T.constant(x + 123.456, dtype=np.float64)).data
    assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_in_place_matches_three_temporaries_bitwise(dtype):
    rng = np.random.default_rng(4)
    x = T.parameter(rng.normal(size=(2, 3, 5, 7)) * 10, dtype=dtype)
    probe = T.constant(rng.normal(size=(2, 3, 5, 7)), dtype=dtype)
    before = x.data.copy()
    with T.record() as tape:
        out = T.softmax_rows(x)
        loss = T.sum_all(T.mul(out, probe))
    T.backward(loss, tape)
    assert x.data.tobytes() == before.tobytes()
    y = softmax_three_temporaries(before)
    g = probe.data
    assert out.data.dtype == y.dtype and out.data.tobytes() == y.tobytes()
    assert x.grad.tobytes() == (y * (g - np.sum(g * y, axis=-1, keepdims=True))).tobytes()


def test_layer_norm_constant_row_is_zero():
    x = T.constant(np.full((2, 4), 9.0), dtype=np.float64)
    out = T.layer_norm(x, T.constant(np.ones(4)), T.constant(np.zeros(4)))
    assert np.abs(out.data).max() == 0.0


def test_layer_norm_mean_is_bias():
    rng = np.random.default_rng(3)
    x = T.constant(rng.normal(size=(5, 8)) * 3, dtype=np.float64)
    bias = rng.normal(size=8)
    out = T.layer_norm(x, T.constant(np.ones(8), dtype=np.float64), T.constant(bias, dtype=np.float64))
    assert np.abs(out.data.mean(axis=-1) - bias.mean()).max() <= 1e-5


def test_backward_sum_of_squares():
    x = T.parameter(np.array([1.0, -2.0, 3.0]), dtype=np.float64)
    with T.record() as tape:
        loss = T.sum_all(T.mul(x, x))
    T.backward(loss, tape)
    assert np.allclose(x.grad, 2 * x.data, atol=1e-15)


def test_backward_independent_leaf_gets_zero():
    x = T.parameter(np.ones(3), dtype=np.float64)
    y = T.parameter(np.ones(3), dtype=np.float64)
    x_grad = x.grad
    with T.record() as tape:
        unused = T.mul(y, y)
        square = T.mul(x, x)
        loss = T.sum_all(square)
    T.backward(loss, tape)
    assert np.array_equal(y.grad, np.zeros(3))
    # only leaves get gradients, accumulated into their own arrays
    assert unused.grad is None and square.grad is None and loss.grad is None
    assert x.grad is x_grad and np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_rejects_non_scalar_loss():
    x = T.parameter(np.ones(3), dtype=np.float64)
    with T.record() as tape:
        y = T.mul(x, x)
    with pytest.raises(ContractError):
        T.backward(y, tape)


def test_backward_accumulates_across_fanout():
    x = T.parameter(np.array([2.0]), dtype=np.float64)
    with T.record() as tape:
        loss = T.sum_all(T.add(T.mul(x, x), T.mul(x, x)))
    T.backward(loss, tape)
    assert np.allclose(x.grad, [8.0])


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(4)
    x = T.parameter(rng.normal(size=(4, 6)), dtype=np.float64)
    w = T.parameter(rng.normal(size=(6, 6)), dtype=np.float64)

    def run():
        x.zero_grad()
        w.zero_grad()
        with T.record() as tape:
            h = T.softmax_rows(T.matmul(x, w))
            loss = T.sum_all(T.mul(h, h))
        T.backward(loss, tape)
        return x.grad.copy(), w.grad.copy()

    g1 = run()
    g2 = run()
    assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])


def test_backward_rerun_on_same_tape_is_identical():
    rng = np.random.default_rng(5)
    x = T.parameter(rng.normal(size=(3, 3)), dtype=np.float64)
    with T.record() as tape:
        loss = T.sum_all(T.mul(T.tanh(x), T.tanh(x)))
    T.backward(loss, tape)
    g1 = x.grad.copy()
    x.zero_grad()
    T.backward(loss, tape)
    assert np.array_equal(g1, x.grad)


def test_tape_is_topologically_ordered():
    x = T.parameter(np.ones((2, 2)), dtype=np.float64)
    with T.record() as tape:
        a = T.mul(x, x)
        b = T.add(a, x)
        T.sum_all(T.matmul(b, a))
    seen = {id(x)}
    for inputs, out, _ in tape.entries:
        for inp in inputs:
            assert id(inp) in seen or not inp.requires_grad
        seen.add(id(out))


# ---------------------------------------------------------------------------
# finite-difference sweep over every differentiable op


def _fd_check(build, params, h=1e-4, tol=1e-5):
    """build() -> scalar loss Tensor; checks every entry of every param."""
    for p in params:
        p.zero_grad()
    with T.record() as tape:
        loss = build()
    T.backward(loss, tape)
    for p in params:
        fd = finite_diff_grad(lambda: build().data, p.data, h=h)
        assert rel_err(p.grad, fd, floor=1e-6) <= tol, rel_err(p.grad, fd, floor=1e-6)


def _p(rng, shape):
    return T.parameter(rng.normal(size=shape), dtype=np.float64)


def _attention_case(r):
    """The fused attention with rotary positions and a group mask, over
    (2, 3, 4) inputs with two heads; params x then M._ATTENTION_PARAMS.
    The weight matrices enter at init_weights' scale, 1/sqrt(fan_in)."""
    probe = T.constant(r.normal(size=(2, 3, 4)), dtype=np.float64)
    rope = M._rope_tables(3, 2, np.float64)
    mask = M.group_mask_bias(np.array([0, 0, 1]), np.float64)

    def build(x, *params):
        weights = {
            f"a.{name}": scale(p, 0.5) if name.startswith("w") else p
            for name, p in zip(M._ATTENTION_PARAMS, params)
        }
        out = M._attention(x, weights, "a", 2, rope=rope, mask_bias=mask)
        return T.sum_all(T.mul(out, probe))

    return build, [(2, 3, 4)] + [(4, 4) if n.startswith("w") else (4,) for n in M._ATTENTION_PARAMS]


OP_CASES = {
    "add": lambda r: (lambda a, b: T.sum_all(T.mul(T.add(a, b), T.add(a, b))), [(3, 4), (4,)]),
    "mul": lambda r: (lambda a, b: T.sum_all(T.mul(T.mul(a, b), T.mul(a, b))), [(2, 5), (2, 5)]),
    "tanh": lambda r: (lambda a: T.sum_all(T.mul(T.tanh(a), T.tanh(a))), [(3, 3)]),
    "scale": lambda r: (lambda a: T.sum_all(T.mul(scale(a, 1.7), scale(a, 1.7))), [(2, 6)]),
    "matmul": lambda r: (lambda a, b: T.sum_all(T.mul(T.matmul(a, b), T.matmul(a, b))), [(3, 4), (4, 2)]),
    "linear": lambda r: (
        lambda x, w, b: T.sum_all(T.mul(T.linear(x, w, b), T.linear(x, w, b))),
        [(2, 3, 4), (4, 5), (5,)],
    ),
    "matmul_batched": lambda r: (
        lambda a, b: T.sum_all(T.mul(T.matmul(a, b), T.matmul(a, b))),
        [(2, 3, 4), (4, 2)],
    ),
    "softmax": lambda r: (
        (lambda c: lambda a: T.sum_all(T.mul(T.softmax_rows(a), c)))(
            T.constant(r.normal(size=(3, 5)), dtype=np.float64)
        ),
        [(3, 5)],
    ),
    "layer_norm": lambda r: (
        (lambda c: lambda a, g, b: T.sum_all(T.mul(T.layer_norm(a, g, b), c)))(
            T.constant(r.normal(size=(4, 6)), dtype=np.float64)
        ),
        [(4, 6), (6,), (6,)],
    ),
    "rope": lambda r: (
        (lambda c, cos, sin: lambda a: T.sum_all(T.mul(rope_rotate(a, cos, sin), c)))(
            T.constant(r.normal(size=(2, 5, 4)), dtype=np.float64),
            np.cos(0.3 * np.arange(5))[:, None] * np.ones((5, 2)),
            np.sin(0.3 * np.arange(5))[:, None] * np.ones((5, 2)),
        ),
        [(2, 5, 4)],
    ),
    "attention": _attention_case,
    "concat_narrow": lambda r: (
        lambda a, b: T.sum_all(T.mul(T.narrow(T.concat([a, b], axis=1), 1, 1, 3),
                                     T.narrow(T.concat([a, b], axis=1), 1, 1, 3))),
        [(2, 2), (2, 3)],
    ),
    "reshape_transpose": lambda r: (
        (lambda c: lambda a: T.sum_all(T.mul(T.transpose(T.reshape(a, (2, 3, 2)), (1, 0, 2)), c)))(
            T.constant(r.normal(size=(3, 2, 2)), dtype=np.float64)
        ),
        [(6, 2)],
    ),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for trial in range(10):
        build_fn, shapes = OP_CASES[name](rng)
        params = [_p(rng, s) for s in shapes]
        _fd_check(lambda ps=params: build_fn(*ps), params)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_equals_add_matmul_bitwise(dtype):
    rng = np.random.default_rng(12)
    leaves = [T.parameter(rng.normal(size=s), dtype=dtype) for s in ((2, 7, 16), (16, 8), (8,))]
    probe = T.constant(rng.normal(size=(2, 7, 8)), dtype=dtype)

    def run(op):
        for p in leaves:
            p.zero_grad()
        with T.record() as tape:
            out = op(*leaves)
            loss = T.sum_all(T.mul(out, probe))
        T.backward(loss, tape)
        return [out.data.copy()] + [p.grad.copy() for p in leaves]

    fused = run(T.linear)
    split = run(lambda x, w, b: T.add(T.matmul(x, w), b))
    for a, b in zip(fused, split):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


SHARED_HELPER_OPS = {
    # name: (package op, oracle op, shapes of its leaves after x)
    "layer_norm": (T.layer_norm, layer_norm_op, lambda d: [(d,), (d,)]),
    "softmax_rows": (T.softmax_rows, softmax_rows_op, lambda d: []),
    "linear": (T.linear, linear_op, lambda d: [(d, 5), (5,)]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6, 9), (3, 7, 16), (2, 3, 5, 64)])
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("name", sorted(SHARED_HELPER_OPS))
def test_shared_helpers_match_oracle_ops_bitwise(name, shape, dtype, transposed):
    """Outputs and every gradient of the ops built on tensor.py's shared
    LayerNorm, softmax and linear helpers equal, byte for byte, those of
    the oracle ops that keep their own expressions."""
    op, oracle, rest = SHARED_HELPER_OPS[name]
    rng = np.random.default_rng(zlib.crc32(f"{name}{shape}".encode()))
    d = shape[-1]
    # transposed: x is a view whose last axis is strided in memory
    swap = tuple(range(len(shape) - 2)) + (len(shape) - 1, len(shape) - 2)
    raw = rng.normal(size=tuple(shape[i] for i in swap) if transposed else shape) * 3.0
    base = T.parameter(raw, dtype=dtype)
    leaves = [base] + [T.parameter(rng.normal(size=s), dtype=dtype) for s in rest(d)]
    out_shape = shape[:-1] + (5,) if name == "linear" else shape
    probe = T.constant(rng.normal(size=out_shape), dtype=dtype)

    def run(fn):
        for t in leaves:
            t.zero_grad()
        with T.record() as tape:
            out = fn(T.transpose(base, swap) if transposed else base, *leaves[1:])
            loss = T.sum_all(T.mul(out, probe))
        T.backward(loss, tape)
        return [out.data.copy()] + [t.grad.copy() for t in leaves]

    got, want = run(op), run(oracle)
    assert len(got) == len(want) == 1 + len(leaves)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape, i
        assert a.tobytes() == b.tobytes(), i


def test_gradient_single_precision_tolerance():
    rng = np.random.default_rng(9)
    a = T.parameter(rng.normal(size=(4, 4)), dtype=np.float32)

    def build():
        return T.sum_all(T.mul(T.tanh(a), T.tanh(a)))

    a.zero_grad()
    with T.record() as tape:
        loss = build()
    T.backward(loss, tape)
    fd = finite_diff_grad(lambda: float(build().data), a.data, h=1e-2)
    assert rel_err(a.grad, fd, floor=1e-3) <= 1e-3


def test_elementwise_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        T.add(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 4))))
    with pytest.raises(ShapeError):
        T.mul(T.constant(np.zeros((3, 1))), T.constant(np.zeros((1, 4))))
    with pytest.raises(ShapeError):
        T.linear(T.constant(np.zeros((2, 3))), T.constant(np.zeros((4, 5))), T.constant(np.zeros(5)))


def test_grad_present_iff_requires_grad():
    p = T.parameter(np.zeros(3))
    c = T.constant(np.zeros(3))
    assert p.grad is not None and c.grad is None
