"""Generators: trend/seasonal blends, causal panels, derived mixtures."""

import json

import numpy as np
import pytest

from groupcast import kernels
from groupcast import panels as PN
from groupcast import synthdata as S
from groupcast.errors import ConfigError, DataError, StabilityError
from groupcast.rng import PortableRng

from oracles import save_panel_dataset_csv_writer, spectral_radius_two_products


def test_tsi_pure_sinusoid_exactly_periodic():
    x = S.tsi_generate(S.TsiSpec(length=48, seasonal=((12, 1.0, 0.0),)))
    assert np.array_equal(x[:12], x[12:24])
    assert np.array_equal(x[:12], x[36:48])


def test_tsi_all_zero_components():
    assert np.array_equal(S.tsi_generate(S.TsiSpec(length=7)), np.zeros(7))


def test_tsi_linear_trend_pointwise():
    x = S.tsi_generate(S.TsiSpec(length=10, trend_slope=0.5))
    assert np.array_equal(x, 0.5 * np.arange(10.0))


def test_tsi_invalid_specs():
    with pytest.raises(ConfigError):
        S.tsi_generate(S.TsiSpec(length=0))
    with pytest.raises(ConfigError):
        S.tsi_generate(S.TsiSpec(length=5, seasonal=((1, 1.0, 0.0),)))
    with pytest.raises(ConfigError):
        S.tsi_generate(S.TsiSpec(length=5, noise_scale=-1.0))
    with pytest.raises(ConfigError):
        S.tsi_generate(S.TsiSpec(length=5, noise_family="cauchy", noise_scale=1.0))


def test_tsi_student_t_noise_runs():
    x = S.tsi_generate(S.TsiSpec(length=500, noise_family="student_t", noise_scale=1.0, seed=4))
    assert np.isfinite(x).all() and x.std() > 0


def test_tcm_zero_adjacency_is_white_noise():
    K, T = 3, 400
    adj = tuple(tuple(tuple(0.0 for _ in range(1)) for _ in range(K)) for _ in range(K))
    spec = S.TcmSpec(n_series=K, lag_order=1, adjacency=adj, innovation_scale=1.0, length=T, seed=9)
    x = S.tcm_generate(spec)
    assert x.shape == (K, T)
    # with zero coefficients the output IS the innovation stream
    rng = PortableRng(9).spawn(11)
    innov = rng.normal((T + 10 * 1 * K) * K).reshape(-1, K)
    assert np.array_equal(x, innov[10 * K :].T)
    c01 = np.corrcoef(x[0], x[1])[0, 1]
    assert abs(c01) < 0.15


def test_tcm_ar1_autocorrelation_matches_theory():
    spec = S.TcmSpec(
        n_series=1, lag_order=1, adjacency=(((0.9,),),), innovation_scale=1.0,
        length=100_000, seed=3,
    )
    x = S.tcm_generate(spec)[0]
    ac = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(ac - 0.9) <= 0.02


def test_tcm_one_way_link_intervention():
    # series 1 depends on series 0; nothing flows back
    adj = np.zeros((2, 2, 1))
    adj[0, 0, 0] = 0.6
    adj[1, 0, 0] = 0.8
    coeffs = np.ascontiguousarray(np.transpose(adj, (2, 0, 1)))
    rng = np.random.default_rng(0)
    innov = rng.normal(size=(300, 2))
    base = kernels.var_recursion(coeffs, innov)
    # intervene on the sink's innovations: the source must not move
    innov_sink = innov.copy()
    innov_sink[:, 1] = rng.permutation(innov[:, 1])
    x_sink = kernels.var_recursion(coeffs, innov_sink)
    assert np.array_equal(x_sink[:, 0], base[:, 0])
    assert not np.array_equal(x_sink[:, 1], base[:, 1])
    # intervene on the source: the sink must move
    innov_src = innov.copy()
    innov_src[:, 0] = rng.permutation(innov[:, 0])
    x_src = kernels.var_recursion(coeffs, innov_src)
    assert not np.array_equal(x_src[:, 1], base[:, 1])


def test_tcm_unstable_spec_reports_radius():
    with pytest.raises(StabilityError) as exc:
        S.TcmSpec(n_series=1, lag_order=1, adjacency=(((1.05,),),), length=10)
    assert "1.05" in str(exc.value)


def test_spectral_radius_matches_eigvals_oracle():
    root = PortableRng(5)
    worst = 0.0
    for i in range(50):
        spec = S.sample_tcm_spec(root.spawn(i), length=10, seed=i)
        comp = S.companion_matrix(spec.adjacency_array())
        mine = S.spectral_radius(comp)
        ref = float(np.abs(np.linalg.eigvals(comp)).max())
        worst = max(worst, abs(mine - ref))
    assert worst <= 1e-6


def _companions():
    """Companion matrices of sampled specs (stationary and, scaled up,
    not), of lag matrices with complex-conjugate dominant pairs, and the
    edge cases n=1, nilpotent and overflowing."""
    root = PortableRng(8)
    rng = np.random.default_rng(8)
    out = []
    for i in range(20):
        adj = S.sample_tcm_spec(root.spawn(i), length=10, seed=i).adjacency_array()
        out.append(S.companion_matrix(adj))
        out.append(S.companion_matrix(adj * 3.0))  # non-stationary
    for radius in (0.3, 0.9, 0.999, 1.5):
        for theta in rng.uniform(0.1, 3.0, size=3):
            rot = radius * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            adj = np.zeros((3, 3, 2))
            adj[:2, :2, 0] = rot
            adj[2, 2, 0] = 0.1
            adj[:, :, 1] = rng.normal(size=(3, 3)) * 0.01
            out.append(S.companion_matrix(adj))
    for K, L in ((1, 1), (1, 3), (2, 2), (5, 2)):
        out.append(S.companion_matrix(rng.normal(size=(K, K, L)) * 0.4))
    out += [np.array([[0.7]]), np.array([[-1.3]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    return out


def test_spectral_radius_matches_two_product_oracle_bit_for_bit():
    radii = []
    for comp in _companions():
        mine, ref = S.spectral_radius(comp), spectral_radius_two_products(comp)
        assert np.float64(mine).tobytes() == np.float64(ref).tobytes(), (comp, mine, ref)
        radii.append(mine)
    assert min(radii) == 0.0 and any(1.0 < r < np.inf for r in radii)
    with np.errstate(over="ignore"):  # the first product overflows: the other early exit
        huge = np.full((2, 2), 1.7e308)
        assert S.spectral_radius(huge) == spectral_radius_two_products(huge) == np.inf


def test_sampled_tcm_specs_are_stationary_and_stable():
    root = PortableRng(31)
    for i in range(100):
        spec = S.sample_tcm_spec(root.spawn(i), length=1024, seed=1000 + i)
        x = S.tcm_generate(spec)
        v1 = x[:, : x.shape[1] // 2].var()
        v2 = x[:, x.shape[1] // 2 :].var()
        assert v2 <= 2.0 * v1 and v1 <= 2.0 * v2, (i, v1, v2)


def test_derive_identity_mixing_returns_bases():
    rng = PortableRng(2)
    bases = rng.normal(3 * 50).reshape(3, 50)
    out = S.derive_multivariate(bases, np.eye(3), np.zeros((3, 3), dtype=int), seed=0)
    assert np.array_equal(out, bases)


def test_derive_lag_shift_and_crosscorr_peak():
    base = S.make_ar1_base(7, 600, 0.9)
    out = S.derive_multivariate(
        base[None, :], np.array([[1.0], [1.0]]), np.array([[0], [5]]), seed=1
    )
    s1, s2 = out
    assert np.array_equal(s2[5:], s1[:-5])
    lags = range(-10, 11)
    cc = [np.corrcoef(s1[10:-10], np.roll(s2, -k)[10:-10])[0, 1] for k in lags]
    assert list(lags)[int(np.argmax(cc))] == 5


def test_derive_zero_mixing_row_is_pure_noise():
    rng = PortableRng(3)
    bases = rng.normal(100).reshape(1, 100)
    mixing = np.array([[1.0], [0.0]])
    out = S.derive_multivariate(bases, mixing, np.zeros((2, 1), dtype=int), seed=5, noise_scale=0.5)
    corr = np.corrcoef(out[1], bases[0])[0, 1]
    assert out[1].std() > 0 and abs(corr) < 0.35


def test_derive_rejects_out_of_range_lags():
    with pytest.raises(ConfigError):
        S.derive_multivariate(np.zeros((1, 10)), np.ones((1, 1)), np.array([[10]]), seed=0)
    with pytest.raises(ConfigError):
        S.derive_multivariate(np.zeros((1, 10)), np.ones((1, 1)), np.array([[-1]]), seed=0)


def test_generators_bitwise_deterministic():
    for make in (
        lambda: S.tsi_generate(S.TsiSpec(length=64, trend_slope=0.1,
                                         seasonal=((7, 1.0, 0.3),), noise_scale=0.5, seed=12)),
        lambda: S.tcm_generate(S.TcmSpec(1, 1, (((0.5,),),), 1.0, 64, 12)),
        lambda: S.make_cross_link_panel(PortableRng(4), 100)[0],
        lambda: S.make_independent_panel(PortableRng(4), 100)[0],
    ):
        assert np.array_equal(make(), make())


def test_dataset_csv_roundtrip_and_provenance(tmp_path):
    panel, prov = S.make_cross_link_panel(PortableRng(6), 40)
    csv_path = tmp_path / "d.csv"
    json_path = tmp_path / "d.json"
    S.save_panel_dataset(csv_path, panel)
    S.save_provenance(json_path, prov)
    ids, back = S.load_panel_dataset(csv_path)
    assert ids == ["s0", "s1", "s2"]
    assert np.array_equal(back, panel)
    assert json.loads(json_path.read_text())["kind"] == "derived"


SPECIAL_VALUES = (np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -1.7976931348623157e308)


def _random_panel(rng, K, T):
    panel = rng.normal(size=(K, T)) * 10.0 ** rng.integers(-300, 301, size=(K, T))
    hits = rng.random((K, T)) < 0.1
    panel[hits] = rng.choice(SPECIAL_VALUES, size=int(hits.sum()))
    return panel


def test_dataset_csv_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(5)
    shapes = [(1, 1), (1, 1100), (5, 1), (5, 1100)]
    shapes += [(int(rng.integers(1, 6)), int(rng.integers(1, 1101))) for _ in range(30)]
    for K, T in shapes:
        panel = _random_panel(rng, K, T)
        S.save_panel_dataset(tmp_path / "got.csv", panel)
        save_panel_dataset_csv_writer(tmp_path / "want.csv", panel)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), (K, T)
    series = _random_panel(rng, 1, 50)[0]
    S.save_panel_dataset(tmp_path / "got.csv", series)
    save_panel_dataset_csv_writer(tmp_path / "want.csv", series)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_every_written_panel_reads_back_with_default_ids_bit_for_bit(tmp_path):
    # a panel of no values writes the header alone, which the reader rejects
    # as empty, so every shape here holds at least one value
    rng = np.random.default_rng(13)
    path = tmp_path / "d.csv"
    shapes = [(1, 1), (5, 1), (1, 700)]
    shapes += [(int(rng.integers(1, 6)), int(rng.integers(1, 701))) for _ in range(20)]
    for K, T in shapes:
        panel = _random_panel(rng, K, T)
        # the reader rejects inf and nan, naming the first one's line (the
        # file is series-major), so the round trip takes -0.0 in their place
        S.save_panel_dataset(path, panel)
        bad = np.flatnonzero(~np.isfinite(panel))
        if bad.size:
            with pytest.raises(DataError, match=f"line {bad[0] + 2}, column value: non-finite value"):
                S.load_panel_dataset(path)
        finite = np.where(np.isfinite(panel), panel, -0.0)
        for written in (finite, finite[0]):  # and the 1-D path
            S.save_panel_dataset(path, written)
            ids, back = S.load_panel_dataset(path)
            want = np.atleast_2d(written)
            assert ids == [f"s{k}" for k in range(want.shape[0])]
            assert back.shape == want.shape and back.tobytes() == want.tobytes(), (K, T)


def test_dataset_write_failing_halfway_leaves_old_file(tmp_path, monkeypatch):
    old = tmp_path / "old.csv"
    S.save_panel_dataset(old, np.ones((2, 4)))
    before = old.read_bytes()

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    real_open = open
    monkeypatch.setattr(PN, "open", lambda *a, **kw: HalfWriter(real_open(*a, **kw)), raising=False)
    for name in ("old.csv", "new.csv"):
        with pytest.raises(OSError, match="disk full"):
            S.save_panel_dataset(tmp_path / name, np.full((3, 500), 2.5))
    with pytest.raises(OSError, match="disk full"):
        S.save_provenance(tmp_path / "new.json", {"kind": "tsi"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]
    assert old.read_bytes() == before


def test_dataset_csv_bytes_match_csv_writer_at_short_and_changing_lengths(tmp_path):
    rng = np.random.default_rng(9)
    # lengths 0, 1 and 2, then lengths alternating back to back so that each
    # write takes another length's template from the cache
    for T in (0, 1, 2, 3, 5, 3, 1024, 5, 0, 2):
        for K in (1, 2):
            panel = rng.normal(size=(K, T))
            S.save_panel_dataset(tmp_path / "got.csv", panel)
            save_panel_dataset_csv_writer(tmp_path / "want.csv", panel)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), (K, T)
        series = rng.normal(size=T)  # the 1-D path
        S.save_panel_dataset(tmp_path / "got.csv", series)
        save_panel_dataset_csv_writer(tmp_path / "want.csv", series)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), T


def test_dataset_csv_bytes_match_csv_writer_at_special_values(tmp_path):
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
              1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
    for panel in (np.array(values), np.array([values, values[::-1]])):
        S.save_panel_dataset(tmp_path / "got.csv", panel)
        save_panel_dataset_csv_writer(tmp_path / "want.csv", panel)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
    assert b",nan\r\n" in got and b",-0\r\n" in got and b",4.9406564584124654e-324\r\n" in got


def _write_rows(path, rows):
    path.write_text("series_id,t,value\r\n" + "".join(f"{r}\r\n" for r in rows), newline="")
    return path


def test_load_dataset_unparseable_value_names_file_and_line(tmp_path):
    path = _write_rows(tmp_path / "d.csv", ["s0,0,1.5", "s0,1,abc"])
    with pytest.raises(DataError, match=r"d\.csv, line 3: unparseable value 'abc'"):
        S.load_panel_dataset(path)


@pytest.mark.parametrize("rows,line", [
    (["s0,5,1.5", "s0,5,2.5", "s0,0,3.0"], 2),
    (["s0,0,1.5", "s0,0,2.5"], 3),
    (["s0,0,1.5", "s1,0,1.0", "s0,2,2.5"], 4),
    (["s0,0,1.5", "s0,01,2.5"], 3),
])
def test_load_dataset_rejects_t_out_of_order(tmp_path, rows, line):
    path = _write_rows(tmp_path / "d.csv", rows)
    with pytest.raises(DataError, match=rf"d\.csv, line {line}: series 's\d' has t="):
        S.load_panel_dataset(path)


def test_load_dataset_takes_interleaved_series_in_order(tmp_path):
    path = _write_rows(tmp_path / "d.csv", ["a,0,1", "b,0,2", "a,1,3", "b,1,4"])
    ids, values = S.load_panel_dataset(path)
    assert ids == ["a", "b"] and values.tolist() == [[1.0, 3.0], [2.0, 4.0]]
