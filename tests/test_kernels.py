"""Kernels, the optional jit of var_recursion, and the portable RNG stream contract."""

import types

import numpy as np

from groupcast import kernels
from groupcast.backend import USING_NUMBA, backend_name
from groupcast.rng import PortableRng

from oracles import splitmix64_reference


def test_backend_is_reported():
    assert backend_name() in ("numba", "numpy")


def test_mix64_matches_pure_int_reference():
    for seed in (0, 1, 42, 2**63):
        ref = splitmix64_reference(seed, 32)
        got = kernels.mix64_stream(np.uint64(seed), 0, 32)
        assert [int(v) for v in got] == ref


def test_mix64_counter_offset():
    ref = splitmix64_reference(7, 50)
    got = kernels.mix64_stream(np.uint64(7), 20, 30)
    assert [int(v) for v in got] == ref[20:]


def test_var_recursion_jit_matches_python():
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(2, 3, 3)) * 0.2
    innov = rng.normal(size=(50, 3))
    got = kernels.var_recursion(coeffs, innov)
    if USING_NUMBA:
        assert np.array_equal(got, kernels.var_recursion.py_func(coeffs, innov))
    else:
        assert isinstance(kernels.var_recursion, types.FunctionType)
        assert kernels.var_recursion.__module__ == "groupcast.kernels"
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


def test_rng_integers_bounds():
    v = PortableRng(3).integers(10_000, 7)
    assert v.min() >= 0 and v.max() <= 6
    assert len(np.unique(v)) == 7


def test_numba_backend_active_when_available():
    try:
        import numba  # noqa: F401

        expect = True
    except ImportError:
        expect = False
    assert USING_NUMBA == expect
