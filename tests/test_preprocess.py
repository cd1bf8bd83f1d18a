"""Scaling, categorical encoding, and patching contracts."""

import numpy as np
import pytest

from groupcast import preprocess as P
from groupcast.errors import ConfigError, DegenerateInputError
from groupcast.rng import PortableRng

from oracles import scaling_one_liner


def test_constant_series_scales_to_zeros():
    scaled, state = P.robust_scale(np.array([5.0, 5.0, 5.0, 5.0]), np.ones(4))
    assert np.array_equal(scaled, np.zeros(4))
    assert state.loc == 5.0 and state.scale == P.SCALE_FLOOR


def test_scaling_matches_one_line_oracle():
    series = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    scaled, state = P.robust_scale(series, np.ones(5))
    loc, scale, expect = scaling_one_liner(series)
    assert state.loc == loc
    assert state.scale == scale
    assert np.abs(scaled - expect).max() <= 1e-15
    # frozen values from the oracle
    assert abs(state.loc - 2.0) < 1e-15
    assert abs(state.scale - 1.4142135623730951) < 1e-15
    assert abs(scaled[0] - -1.1462158347805889) < 1e-12


def test_roundtrip_identity_on_random_series():
    rng = PortableRng(77)
    for i in range(1000):
        sub = rng.spawn(i)
        n = 5 + int(sub.integers(1, 60)[0])
        if i % 10 == 0:
            series = np.full(n, float(sub.normal(1)[0]) * 100)
        else:
            series = sub.normal(n) * (10 ** float(sub.uniform(1)[0] * 3)) + float(sub.normal(1)[0]) * 50
        mask = np.ones(n)
        if i % 2 == 1:
            mask[sub.uniform(n) < 0.5] = 0.0
            if mask.sum() == 0:
                mask[0] = 1.0
        scaled, state = P.robust_scale(series, mask)
        back = P.inverse_scale(scaled, state)
        obs = mask > 0
        scale_ref = max(1.0, np.abs(series[obs]).max())
        assert np.abs(back[obs] - series[obs]).max() <= 1e-9 * scale_ref


def test_all_missing_is_degenerate():
    with pytest.raises(DegenerateInputError):
        P.robust_scale(np.zeros(4), np.zeros(4))


def test_inverse_zero_gives_loc():
    state = P.ScalingState(loc=3.25, scale=2.0)
    assert P.inverse_scale(np.zeros(4), state).tolist() == [3.25] * 4


def test_inverse_is_monotone():
    state = P.ScalingState(loc=0.0, scale=1.5)
    s = np.linspace(-4, 4, 41)
    x = P.inverse_scale(s, state)
    assert np.all(np.diff(x) > 0)


def test_unobserved_positions_scale_to_exactly_zero():
    series = np.array([1.0, 2.0, 99.0, 3.0])
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    scaled, state = P.robust_scale(series, mask)
    assert scaled[2] == 0.0
    assert state.loc == 2.0  # 99 never entered the statistics


def test_scaling_is_odd_on_symmetric_inputs():
    rng = PortableRng(5)
    half = rng.normal(20)
    series = np.concatenate([half, -half]) + 7.0  # symmetric about 7
    scaled, state = P.robust_scale(series, np.ones(40))
    reflected, state2 = P.robust_scale(2 * state.loc - series, np.ones(40))
    assert abs(state.loc - state2.loc) <= 1e-12
    assert abs(state.scale - state2.scale) <= 1e-12
    assert np.abs(reflected + scaled).max() <= 1e-12


def _meta(n, horizon=0):
    return P.MetaFeatures(rel_time=P.make_rel_time(n, horizon)[:n], observed_mask=np.ones(n))


def test_patchify_exact_multiple():
    seq = P.patchify(np.arange(16.0), _meta(16), 8)
    assert seq.patches.shape == (2, 8, 3)
    assert seq.pad_count == 0


def test_patchify_left_pad_hand_enumeration():
    seq = P.patchify(np.arange(10.0), _meta(10), 8)
    assert seq.patches.shape == (2, 8, 3)
    assert seq.pad_count == 6
    flat_mask = seq.patches[:, :, 2].reshape(-1)
    assert flat_mask[:6].tolist() == [0.0] * 6
    assert flat_mask[6:].tolist() == [1.0] * 10
    flat_vals = seq.patches[:, :, 0].reshape(-1)
    assert flat_vals[:6].tolist() == [0.0] * 6
    assert np.array_equal(flat_vals[6:], np.arange(10.0))


def test_patchify_p1_identity():
    seq = P.patchify(np.array([3.0, 1.0, 4.0]), _meta(3), 1)
    assert seq.patches.shape == (3, 1, 3)
    assert np.array_equal(seq.patches[:, 0, 0], [3.0, 1.0, 4.0])


def test_patchify_rejects_bad_patch_len():
    with pytest.raises(ConfigError):
        P.patchify(np.zeros(4), _meta(4), 0)


def test_patchify_flatten_roundtrip():
    rng = PortableRng(8)
    for n in (1, 5, 8, 13, 31):
        x = rng.normal(n)
        seq = P.patchify(x, _meta(int(n)), 8)
        assert np.array_equal(seq.patches[:, :, 0].reshape(-1)[seq.pad_count :], x)


def test_rel_time_strictly_increasing_and_normalized():
    rel = P.make_rel_time(10, 6)
    assert np.all(np.diff(rel) > 0)
    assert rel[0] == 0.0 and rel[-1] == 1.0
    pad = P.pad_rel_time(rel, 3)
    assert np.all(np.diff(np.concatenate([pad, rel])) > 0)
    assert pad[0] < 0  # pad extrapolates below zero
