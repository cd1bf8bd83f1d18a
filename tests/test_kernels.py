"""Kernels, the generated Python-float VAR step against its numpy-scalar
oracle, and the portable RNG stream contract."""

import numpy as np

from groupcast import kernels
from groupcast import synthdata as S
from groupcast.backend import backend_name
from groupcast.rng import PortableRng

from oracles import spawn_state_reference, splitmix64_reference, var_recursion_numpy_scalars


def test_backend_is_reported():
    assert backend_name() == "numpy"


def test_mix64_matches_pure_int_reference():
    for seed in (0, 1, 42, 2**63):
        ref = splitmix64_reference(seed, 32)
        got = kernels.mix64_stream(np.uint64(seed), 0, 32)
        assert [int(v) for v in got] == ref


def test_mix64_counter_offset():
    ref = splitmix64_reference(7, 50)
    got = kernels.mix64_stream(np.uint64(7), 20, 30)
    assert [int(v) for v in got] == ref[20:]


def test_var_recursion_bytes_match_numpy_scalar_loop():
    rng = np.random.default_rng(11)
    shapes = [(1, 1, 0), (2, 3, 0), (1, 1, 1), (3, 1, 2), (3, 4, 1), (2, 5, 2), (1, 1, 300)]
    shapes += [(2, 3, 1084), (1, 1, 1050)]  # the tcm and AR(1) shapes of `groupcast synth`
    shapes += [(2, 3, 2), (3, 2, 3), (2, 3, 3), (3, 2, 4)]  # T <= L and T = L + 1
    shapes += [(3, 100, 5)]  # 300 terms a row: the generated sum spans two statements
    shapes += [tuple(int(v) for v in rng.integers((1, 1, 0), (4, 6, 200))) for _ in range(60)]
    for L, K, T in shapes:
        # the long shapes take small coefficients, so that their rows stay finite
        coeffs = rng.normal(size=(L, K, K)) * (rng.choice([0.05, 0.3, 1.5]) if T <= 300 else 0.1)
        innov = rng.normal(size=(T, K)) * 10.0 ** rng.integers(-3, 4)
        signed_zeros = np.where(rng.random((T, K)) < 0.5, -0.0, 0.0)  # innovation_scale 0
        for e in (innov, signed_zeros):
            got = kernels.var_recursion(coeffs, e)
            want = var_recursion_numpy_scalars(coeffs, e)
            assert got.dtype == want.dtype and got.shape == want.shape == (T, K)
            assert got.tobytes() == want.tobytes(), (L, K, T)


def test_tcm_generate_matches_numpy_scalar_loop():
    spec = S.sample_tcm_spec(PortableRng(3), 200, seed=8, n_series_range=(3, 3), lag_range=(2, 2))
    burn = 10 * 2 * 3
    innov = PortableRng(spec.seed).spawn(11).normal((200 + burn) * 3) * spec.innovation_scale
    coeffs = np.transpose(spec.adjacency_array(), (2, 0, 1))
    want = var_recursion_numpy_scalars(coeffs, innov.reshape(-1, 3))[burn:].T
    assert S.tcm_generate(spec).tobytes() == np.ascontiguousarray(want).tobytes()


def test_var_recursion_matches_hand_sum():
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(2, 3, 3)) * 0.2
    innov = rng.normal(size=(50, 3))
    got = kernels.var_recursion(coeffs, innov)
    # x[t] = innov[t] + A1 x[t-1] + A2 x[t-2], summed in the kernel's order
    for t in (0, 1, 2, 49):
        for i in range(3):
            acc = innov[t, i]
            for lag in (1, 2):
                if t - lag >= 0:
                    for j in range(3):
                        acc = acc + coeffs[lag - 1, i, j] * got[t - lag, j]
            assert got[t, i] == acc


def test_rng_uniform_range_and_determinism():
    a = PortableRng(123).uniform(1000)
    b = PortableRng(123).uniform(1000)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() < 1.0
    assert abs(a.mean() - 0.5) < 0.05


def test_rng_normal_moments():
    z = PortableRng(5).normal(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_rng_student_t_heavier_tails():
    t = PortableRng(6).student_t(100_000, df=4)
    z = PortableRng(6).normal(100_000)
    assert np.abs(t).max() > np.abs(z).max()


def test_rng_spawn_streams_differ_and_are_stable():
    root = PortableRng(9)
    c1 = root.spawn(1).uniform(8)
    c2 = root.spawn(2).uniform(8)
    c1_again = root.spawn(1).uniform(8)
    assert np.array_equal(c1, c1_again)
    assert not np.array_equal(c1, c2)
    # spawning never consumes from the parent stream
    fresh = PortableRng(9).uniform(4)
    assert np.array_equal(fresh, root.uniform(4))


def test_rng_spawn_states_match_pure_int_reference():
    mask = (1 << 64) - 1
    for seed in (0, 1, 9, 2**63, mask):
        for key in (0, 1, 101, 30_000, 2**63, mask):
            child = PortableRng(seed).spawn(key)
            assert int(child.state) == spawn_state_reference(seed, key), (seed, key)
            assert child.counter == 0
            grandchild = child.spawn(key)
            assert int(grandchild.state) == spawn_state_reference(int(child.state), key)


def test_rng_integers_bounds():
    v = PortableRng(3).integers(10_000, 7)
    assert v.min() >= 0 and v.max() <= 6
    assert len(np.unique(v)) == 7

