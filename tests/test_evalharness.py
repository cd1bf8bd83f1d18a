"""Metrics, rolling origins, the grid, aggregation, artifact emission."""

from datetime import date

import numpy as np
import pytest

from groupcast import evalharness as E
from groupcast.errors import DataError, DegenerateInputError
from groupcast.panels import RATE_IDS, STOCK_IDS, SeriesPanel, build_combined

from conftest import make_price_panel, make_rate_panel, weekday_calendar
from oracles import brute_force_metrics, mape_loop, rmse_two_lines


def _spec(**kw):
    base = dict(panel="stocks", mode="UV", n=20, m=5)
    base.update(kw)
    return E.ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# metrics


def test_rmse_perfect_forecast():
    assert E.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_rmse_forced_arithmetic():
    assert E.rmse([1.0, 1.0], [0.0, 2.0]) == 1.0


def test_rmse_matches_two_line_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=63) * 10
    f = rng.normal(size=63) * 10
    assert abs(E.rmse(a, f) - rmse_two_lines(a, f)) <= 1e-12


def test_rmse_degenerate():
    with pytest.raises(DegenerateInputError):
        E.rmse([1.0], [1.0], mask=[0.0])
    with pytest.raises(DegenerateInputError):
        E.rmse([], [])


def test_mape_perfect():
    assert E.mape([3.0, 4.0], [3.0, 4.0]) == (0.0, 0)


def test_mape_hand_arithmetic():
    val, skipped = E.mape([100.0, 200.0], [110.0, 180.0])
    assert abs(val - 0.10) <= 1e-15
    assert skipped == 0


def test_mape_skip_rule():
    val, skipped = E.mape([0.0, 2.0], [1.0, 2.0])
    assert val == 0.0 and skipped == 1


def test_mape_matches_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=40) * 5
    a[7] = 1e-12  # near-zero actual
    f = rng.normal(size=40) * 5
    val, skipped = E.mape(a, f)
    ref_val, ref_skipped = mape_loop(a, f)
    assert abs(val - ref_val) <= 1e-12 and skipped == ref_skipped == 1


def test_mape_all_skipped_degenerate():
    with pytest.raises(DegenerateInputError):
        E.mape([0.0, 0.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# origins


def test_first_origin_three_years_after_start():
    panel = make_price_panel(["A"], date(2000, 1, 1), 26 * 261, seed=1)
    origins = E.rolling_origins(panel, _spec(n=10, m=5))
    assert origins[0].year == 2003 and origins[0].month == 1
    # exactly one origin per month from there on
    months = {(d.year, d.month) for d in origins}
    assert len(months) == len(origins)


def test_short_panel_has_no_origins():
    panel = make_price_panel(["A"], date(2020, 1, 1), 300, seed=2)
    assert E.rolling_origins(panel, _spec(n=10, m=5)) == []


def test_origins_match_calendar_enumeration_oracle():
    cal = weekday_calendar(date(2010, 7, 1), 4040)  # through ~December 2025
    panel = SeriesPanel(
        dates=cal, series_ids=["A"], values=np.zeros((1, len(cal))), mask=np.ones((1, len(cal)))
    )
    spec = _spec(n=756, m=63)
    got = E.rolling_origins(panel, spec)
    # independent enumeration: walk every month, apply the three rules
    expect = []
    seen = set()
    for i, d in enumerate(cal):
        if (d.year, d.month) in seen:
            continue
        seen.add((d.year, d.month))
        if (d.year, d.month) < (2013, 7):
            continue
        if i < 756 or i + 63 > len(cal):
            continue
        expect.append(d)
    assert got == expect
    assert len(got) > 100


# ---------------------------------------------------------------------------
# grid with stubs


@pytest.fixture()
def toy_panel():
    return make_price_panel(["s0", "s1", "s2"], date(2015, 1, 6), 200, seed=33)


def test_perfect_foresight_yields_zero(toy_panel):
    specs = [_spec(panel="toy", mode="UV", n=30, m=10, start_years_after=0)]
    records, skips = E.run_grid(specs, {"toy": toy_panel}, E.PerfectForesightStub())
    assert records and not skips
    assert all(r.rmse == 0.0 and r.mape == 0.0 for r in records)


def test_last_value_matches_brute_force(toy_panel):
    n, m = 30, 10
    specs = [_spec(panel="toy", mode="UV", n=n, m=m, start_years_after=0)]
    records, _ = E.run_grid(specs, {"toy": toy_panel}, E.LastValueStub())
    assert records
    idx = toy_panel.date_index()

    def stub_fn(ctx, cmask, m_):
        out = np.zeros((ctx.shape[0], m_))
        for k in range(ctx.shape[0]):
            out[k, :] = ctx[k, -1]
        return out

    origins_idx = sorted({idx[r.origin] for r in records})
    ref = brute_force_metrics(toy_panel.values, toy_panel.mask, stub_fn, origins_idx, n, m)
    sid_to_k = {sid: k for k, sid in enumerate(toy_panel.series_ids)}
    for r in records:
        ref_rmse, ref_mape, ref_skip = ref[(idx[r.origin], sid_to_k[r.series])]
        assert abs(r.rmse - ref_rmse) <= 1e-12
        assert abs(r.mape - ref_mape) <= 1e-12
        assert r.skipped == ref_skip


def test_record_count_contract(toy_panel):
    specs = [
        _spec(panel="toy", mode=mo, n=n, m=5, start_years_after=0)
        for mo in ("MV", "UV")
        for n in (30, 60)
    ]
    records, skips = E.run_grid(specs, {"toy": toy_panel}, E.LastValueStub())
    total = 0
    for spec in specs:
        total += len(E.rolling_origins(toy_panel, spec)) * toy_panel.n_series
    assert len(records) == total - len(skips)


def test_grid_contexts_never_peek(toy_panel):
    seen = {}

    class RecordingStub(E.LastValueStub):
        def forecast_panel(self, ctx, cmask, mode, m, realized=None):
            key = len(seen)
            seen[key] = ctx.copy()
            return super().forecast_panel(ctx, cmask, mode, m, realized)

    spec = _spec(panel="toy", mode="UV", n=30, m=10, start_years_after=0)
    stub = RecordingStub()
    E.run_grid([spec], {"toy": toy_panel}, stub)
    contexts_before = dict(seen)
    seen.clear()
    # perturb everything from the earliest origin onward
    first_origin = E.rolling_origins(toy_panel, spec)[0]
    oi = toy_panel.date_index()[first_origin]
    bumped = SeriesPanel(
        dates=toy_panel.dates,
        series_ids=toy_panel.series_ids,
        values=toy_panel.values.copy(),
        mask=toy_panel.mask.copy(),
    )
    bumped.values[:, oi] += 1e6
    E.run_grid([spec], {"toy": bumped}, stub)
    assert np.array_equal(contexts_before[0], seen[0])


def test_run_grid_streams_and_resumes(tmp_path, toy_panel):
    path = tmp_path / "records.csv"
    spec_a = _spec(panel="toy", mode="UV", n=30, m=5, start_years_after=0)
    spec_b = _spec(panel="toy", mode="MV", n=30, m=5, start_years_after=0)
    first, _ = E.run_grid([spec_a], {"toy": toy_panel}, E.LastValueStub(), records_path=path)
    both, _ = E.run_grid([spec_a, spec_b], {"toy": toy_panel}, E.LastValueStub(), records_path=path)
    assert len(both) == 2 * len(first)
    reloaded = E.read_records(path)
    assert len(reloaded) == len(both)
    # records round-trip through the CSV at 17 significant digits
    by_key = {(r.mode, r.series, r.origin): r for r in both}
    for r in reloaded:
        orig = by_key[(r.mode, r.series, r.origin)]
        assert r.rmse == orig.rmse and r.mape == orig.mape


def _toy_grid(toy_panel):
    specs = [_spec(panel="toy", mode=mo, n=30, m=5, start_years_after=0) for mo in ("MV", "UV")]
    return specs, {"toy": toy_panel}


@pytest.mark.parametrize("workers", [1, 2])
def test_run_grid_crash_then_resume_is_byte_identical(tmp_path, toy_panel, monkeypatch, workers):
    specs, panels = _toy_grid(toy_panel)
    whole = tmp_path / "whole.csv"
    E.run_grid(specs, panels, E.LastValueStub(), records_path=whole, workers=workers)

    crash_at = ("UV", E.rolling_origins(toy_panel, specs[1])[3])
    evaluate_cell = E.evaluate_cell

    def crashing(panel, spec, origin, forecaster):
        if (spec.mode, origin) == crash_at:
            raise RuntimeError("injected crash")
        return evaluate_cell(panel, spec, origin, forecaster)

    monkeypatch.setattr(E, "evaluate_cell", crashing)
    path = tmp_path / "records.csv"
    with pytest.raises(RuntimeError, match="injected crash"):
        E.run_grid(specs, panels, E.LastValueStub(), records_path=path, workers=workers)
    written = E.read_records(path)
    # the cells finished before the crash were streamed to the file
    assert 0 < len(written) < len(E.read_records(whole))
    assert all(r.mode == "MV" or r.origin < crash_at[1] for r in written)

    monkeypatch.setattr(E, "evaluate_cell", evaluate_cell)
    E.run_grid(specs, panels, E.LastValueStub(), records_path=path, workers=workers)
    assert path.read_bytes() == whole.read_bytes()


def test_torn_final_row_is_dropped_and_resume_completes(tmp_path, toy_panel, caplog):
    specs, panels = _toy_grid(toy_panel)
    whole = tmp_path / "whole.csv"
    E.run_grid(specs, panels, E.LastValueStub(), records_path=whole)
    lines = whole.read_bytes().splitlines(keepends=True)
    path = tmp_path / "records.csv"
    # header, cell 1 (3 series), one row of cell 2, then half a row of cell 2
    path.write_bytes(b"".join(lines[:5]) + lines[5][:20])
    with caplog.at_level("WARNING"):
        records = E.read_records(path)
    assert len(records) == 4
    assert "dropped unterminated final row" in caplog.text
    E.run_grid(specs, panels, E.LastValueStub(), records_path=path)
    assert path.read_bytes() == whole.read_bytes()


def test_complete_malformed_row_still_raises(tmp_path, toy_panel):
    specs, panels = _toy_grid(toy_panel)
    path = tmp_path / "records.csv"
    E.run_grid(specs, panels, E.LastValueStub(), records_path=path)
    with open(path, "ab") as fh:
        fh.write(b"toy,MV,s0,30\r\n")
    with pytest.raises(DataError, match="malformed"):
        E.read_records(path)
    with pytest.raises(DataError, match="malformed"):
        E.run_grid(specs, panels, E.LastValueStub(), records_path=path)


def test_workers_do_not_change_results(tmp_path, toy_panel):
    specs = [
        _spec(panel="toy", mode=mo, n=30, m=5, start_years_after=0) for mo in ("MV", "UV")
    ]
    p1 = tmp_path / "w1.csv"
    p2 = tmp_path / "w2.csv"
    E.run_grid(specs, {"toy": toy_panel}, E.LastValueStub(), records_path=p1, workers=1)
    E.run_grid(specs, {"toy": toy_panel}, E.LastValueStub(), records_path=p2, workers=3)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# aggregation


def _rec(panel="stocks", mode="MV", series="AAPL", n=126, m=21, origin=date(2020, 1, 2),
         rmse_=1.0, mape_=0.1, skipped=0, regime="pre"):
    return E.EvalRecord(panel, mode, series, n, m, origin, rmse_, mape_, skipped, regime)


def test_aggregate_single_record_flagged():
    rows = E.aggregate_mode([_rec()])
    assert rows[0]["mape_std"] == 0.0 and rows[0]["n_records"] == 1


def test_aggregate_identical_records_zero_std():
    rows = E.aggregate_mode([_rec(), _rec(), _rec()])
    assert rows[0]["mape_std"] == 0.0 and rows[0]["rmse_std"] == 0.0


def test_aggregate_matches_independent_script():
    rng = np.random.default_rng(7)
    records = [
        _rec(mode=("MV" if i % 2 else "UV"), rmse_=float(rng.uniform(0, 5)),
             mape_=float(rng.uniform(0, 1)), origin=date(2020, 1 + i % 12, 2))
        for i in range(100)
    ]
    rows = {(r["panel"], r["mode"]): r for r in E.aggregate_mode(records)}
    for mode in ("MV", "UV"):
        vals_mape = [r.mape for r in records if r.mode == mode]
        vals_rmse = [r.rmse for r in records if r.mode == mode]
        mean_m = sum(vals_mape) / len(vals_mape)
        std_m = (sum((v - mean_m) ** 2 for v in vals_mape) / (len(vals_mape) - 1)) ** 0.5
        mean_r = sum(vals_rmse) / len(vals_rmse)
        got = rows[("stocks", mode)]
        assert abs(got["mape_mean"] - mean_m) <= 1e-12
        assert abs(got["mape_std"] - std_m) <= 1e-12
        assert abs(got["rmse_mean"] - mean_r) <= 1e-12


def test_compare_series_equal_modes_zero_improvement():
    records = [_rec(mode="MV"), _rec(mode="UV")]
    rows = E.compare_series(records)
    assert rows[0]["mape_improvement"] == 0.0
    assert rows[0]["rmse_improvement"] == 0.0


def test_compare_series_paper_dgs10_row():
    # means reproduce the published DGS10 comparison: 0.0703 - 0.0114 = 0.0589
    records = [
        _rec(panel="rates", series="DGS10", mode="MV", mape_=0.0114, rmse_=0.0344),
        _rec(panel="rates", series="DGS10", mode="UV", mape_=0.0703, rmse_=0.2184),
    ]
    row = E.compare_series(records)[0]
    assert abs(row["mape_improvement"] - 0.0589) <= 1e-12
    assert abs(row["rmse_improvement"] - 0.1840) <= 1e-12


def test_compare_series_missing_mode_omitted(caplog):
    records = [_rec(mode="MV")]
    with caplog.at_level("WARNING"):
        rows = E.compare_series(records)
    assert rows == []
    assert "lacks one mode" in caplog.text


def test_compare_series_combined_label():
    records = [
        _rec(panel="combined", series="DGS10", mode="MV"),
        _rec(panel="combined", series="DGS10", mode="UV"),
    ]
    rows = E.compare_series(records)
    assert rows[0]["panel"] == "combined"
    assert set(rows[0]) == {
        "panel", "series", "mape_mv", "mape_uv", "rmse_mv", "rmse_uv",
        "mape_improvement", "rmse_improvement",
    }


def _regime_rows(records, out_dir, cutoff=E.DEFAULT_CUTOFF):
    paths = E.emit_artifacts(records, out_dir, cutoff=cutoff)
    rows = [ln.split(",") for ln in paths["regime"].read_text().splitlines()[1:]]
    return rows, paths


def test_regime_partition_and_boundaries(tmp_path):
    records = [
        _rec(origin=date(2022, 6, 1), regime="pre"),
        _rec(origin=date(2023, 6, 1), regime="post"),
        _rec(origin=date(2024, 6, 1), regime="post"),
    ]
    rows, _ = _regime_rows(records, tmp_path / "split")
    assert sum(int(r[-1]) for r in rows) == len(records)
    assert [r[0] for r in rows] == ["pre", "post"]
    only_pre, _ = _regime_rows([records[0]], tmp_path / "only_pre")
    assert [r[0] for r in only_pre] == ["pre"]
    # pushing the cutoff beyond the last origin reproduces the unsplit aggregate
    far, paths = _regime_rows(records, tmp_path / "far", cutoff=date(2030, 1, 1))
    assert {r[0] for r in far} == {"pre"}
    assert [",".join(r[1:]) for r in far] == paths["table1"].read_text().splitlines()[1:]


# ---------------------------------------------------------------------------
# artifacts


def _grid_records():
    rng = np.random.default_rng(11)
    records = []
    for n in (126, 252, 504, 756):
        for m in (21, 63):
            for mode in ("MV", "UV"):
                for month in (1, 4, 7):
                    records.append(
                        _rec(mode=mode, n=n, m=m, origin=date(2022 + month % 2, month, 3),
                             mape_=float(rng.uniform(0, 1)), rmse_=float(rng.uniform(0, 9)))
                    )
    return records


def test_heatmap_shape_and_cells(tmp_path):
    records = _grid_records()
    paths = E.emit_artifacts(records, tmp_path)
    lines = paths["heatmap"].read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["n", "MV_m21", "MV_m63", "UV_m21", "UV_m63"]
    assert len(lines) == 5  # 4 data rows, one per n
    # one cell vs an independent mean
    row252 = dict(zip(header, lines[2].split(",")))
    expect = np.mean([r.mape for r in records if r.n == 252 and r.m == 21 and r.mode == "MV"])
    assert abs(float(row252["MV_m21"]) - expect) <= 1e-12


def test_artifacts_rerun_byte_identical(tmp_path):
    records = _grid_records()
    a = tmp_path / "a"
    b = tmp_path / "b"
    pa = E.emit_artifacts(records, a)
    pb = E.emit_artifacts(list(reversed(records)), b)  # order must not matter
    for name in pa:
        assert pa[name].read_bytes() == pb[name].read_bytes(), name


def test_timeseries_monthly_rows(tmp_path):
    records = _grid_records()
    paths = E.emit_artifacts(records, tmp_path)
    lines = paths["timeseries"].read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "month"
    months = {f"{r.origin.year:04d}-{r.origin.month:02d}" for r in records}
    assert len(lines) - 1 == len(months)


def test_failed_artifact_write_keeps_previous_file(tmp_path):
    path = tmp_path / "table1.csv"
    path.write_text("previous\n")

    def rows():
        yield ["a", "1"]
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        E._write_csv(path, ["k", "v"], rows())
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table1.csv"]


def test_empty_records_write_headers(tmp_path):
    paths = E.emit_artifacts([], tmp_path)
    for name, p in paths.items():
        lines = p.read_text().strip().split("\n")
        assert len(lines) == 1, name


# ---------------------------------------------------------------------------
# UV forecasts identical inside the combined run (model semantics)


def test_uv_records_identical_in_single_and_combined_runs(tiny_model):
    weights, cfg = tiny_model
    stocks = make_price_panel(STOCK_IDS, date(2019, 1, 1), 320, seed=21)
    rates = make_rate_panel(RATE_IDS, date(2019, 1, 1), 320, seed=22)
    combined = build_combined(stocks, rates)
    assert combined.dates == stocks.dates  # same calendar by construction
    forecaster = E.ModelForecaster(weights, cfg)
    spec_s = _spec(panel="stocks", mode="UV", n=64, m=8, start_years_after=1)
    spec_c = _spec(panel="combined", mode="UV", n=64, m=8, start_years_after=1)
    recs_s, _ = E.run_grid([spec_s], {"stocks": stocks}, forecaster)
    recs_c, _ = E.run_grid([spec_c], {"combined": combined}, forecaster)
    by_key_c = {(r.series, r.origin): r for r in recs_c}
    assert recs_s
    for r in recs_s:
        rc = by_key_c[(r.series, r.origin)]
        assert r.rmse == rc.rmse and r.mape == rc.mape
