"""Metrics, rolling origins, the grid, aggregation, artifact emission."""

import os
import warnings
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from groupcast import evalharness as E
from groupcast import model as M
from groupcast.errors import DataError, DegenerateInputError
from groupcast.panels import RATE_IDS, STOCK_IDS, SeriesPanel, build_combined, slice_context

from conftest import crash_in_child, make_price_panel, make_rate_panel, tree_bytes, weekday_calendar
from oracles import (
    brute_force_metrics,
    emit_artifacts_scan,
    evaluate_cell_per_series,
    finish_unpruned,
    last_value_per_series,
    mape_loop,
    rmse_two_lines,
)


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


def test_start_from_feb_29_moves_to_march_1():
    cal = weekday_calendar(date(2016, 2, 29), 900)
    panel = SeriesPanel(dates=cal, series_ids=["A"], values=np.zeros((1, 900)), mask=np.ones((1, 900)))
    got = E.rolling_origins(panel, _spec(n=20, m=5, start_years_after=3))
    assert got[:2] == [date(2019, 3, 1), date(2019, 4, 1)]


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
    records, skips, _ = E.run_grid(
        E.grid_plan(specs, {"toy": toy_panel}), {"toy": toy_panel}, E.PerfectForesightStub()
    )
    assert records and not skips
    assert all(r.rmse == 0.0 and r.mape == 0.0 for r in records)


def test_last_value_matches_brute_force(toy_panel):
    n, m = 30, 10
    specs = [_spec(panel="toy", mode="UV", n=n, m=m, start_years_after=0)]
    records, _, _ = E.run_grid(E.grid_plan(specs, {"toy": toy_panel}), {"toy": toy_panel}, E.LastValueStub())
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
    records, skips, _ = E.run_grid(
        E.grid_plan(specs, {"toy": toy_panel}), {"toy": toy_panel}, E.LastValueStub()
    )
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
    E.run_grid(E.grid_plan([spec], {"toy": toy_panel}), {"toy": toy_panel}, stub)
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
    E.run_grid(E.grid_plan([spec], {"toy": bumped}), {"toy": bumped}, stub)
    assert np.array_equal(contexts_before[0], seen[0])


def test_run_grid_streams_and_resumes(tmp_path, toy_panel):
    path = tmp_path / "records.csv"
    spec_a = _spec(panel="toy", mode="UV", n=30, m=5, start_years_after=0)
    spec_b = _spec(panel="toy", mode="MV", n=30, m=5, start_years_after=0)
    first, _, _ = E.run_grid(
        E.grid_plan([spec_a], {"toy": toy_panel}), {"toy": toy_panel}, E.LastValueStub(), records_path=path
    )
    both, _, _ = E.run_grid(
        E.grid_plan([spec_a, spec_b], {"toy": toy_panel}), {"toy": toy_panel},
        E.LastValueStub(), records_path=path,
    )
    assert len(both) == 2 * len(first)
    reloaded = E.read_records(path)
    assert len(reloaded) == len(both)
    # records round-trip through the CSV at 17 significant digits
    by_key = {(r.mode, r.series, r.origin): r for r in both}
    for r in reloaded:
        orig = by_key[(r.mode, r.series, r.origin)]
        assert r.rmse == orig.rmse and r.mape == orig.mape
    # a grid of MV alone keeps the file's MV cells but the last, and drops the UV rows
    mv_only = tmp_path / "mv.csv"
    want, _, _ = E.run_grid(
        E.grid_plan([spec_b], {"toy": toy_panel}), {"toy": toy_panel}, E.LastValueStub(), records_path=mv_only
    )
    again, _, cells = E.run_grid(
        E.grid_plan([spec_b], {"toy": toy_panel}), {"toy": toy_panel}, E.LastValueStub(), records_path=path
    )
    assert cells == 1 and again == want and path.read_bytes() == mv_only.read_bytes()


def test_rerun_with_a_larger_grid_ends_as_one_run_of_it(tmp_path, toy_panel):
    specs, panels = _toy_grid(toy_panel)
    whole = tmp_path / "whole.csv"
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=whole)
    path = tmp_path / "records.csv"
    E.run_grid(E.grid_plan([specs[1]], panels), panels, E.LastValueStub(), records_path=path)  # UV alone
    records, _, _ = E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=path)
    assert path.read_bytes() == whole.read_bytes()
    assert records == E.read_records(whole)


def test_rerun_computes_again_from_the_cell_before_a_cell_without_rows(tmp_path, toy_panel, monkeypatch):
    specs, panels = _toy_grid(toy_panel)
    hole = E.rolling_origins(toy_panel, specs[0])[3]
    evaluate_cell = E.evaluate_cell

    def holed(panel, spec, origin, forecaster):  # the MV cell at the hole writes no rows
        records, skips = evaluate_cell(panel, spec, origin, forecaster)
        return ([], skips) if (spec.mode, origin) == ("MV", hole) else (records, skips)

    monkeypatch.setattr(E, "evaluate_cell", holed)
    path = tmp_path / "records.csv"
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=path)
    before = path.read_bytes()
    _, _, cells = E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=path)
    total = sum(len(E.rolling_origins(toy_panel, spec)) for spec in specs)
    assert cells == total - 2 and path.read_bytes() == before


def _toy_grid(toy_panel):
    specs = [_spec(panel="toy", mode=mo, n=30, m=5, start_years_after=0) for mo in ("MV", "UV")]
    return specs, {"toy": toy_panel}


@pytest.mark.parametrize("workers", [1, 2])
def test_run_grid_crash_then_resume_is_byte_identical(tmp_path, toy_panel, monkeypatch, workers):
    specs, panels = _toy_grid(toy_panel)
    whole = tmp_path / "whole.csv"
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=whole, workers=workers)

    crash_at = ("UV", E.rolling_origins(toy_panel, specs[1])[3])
    evaluate_cell = E.evaluate_cell

    def crashing(panel, spec, origin, forecaster):
        if (spec.mode, origin) == crash_at:
            raise RuntimeError("injected crash")
        return evaluate_cell(panel, spec, origin, forecaster)

    monkeypatch.setattr(E, "evaluate_cell", crashing)
    path = tmp_path / "records.csv"
    with pytest.raises(RuntimeError, match="injected crash"):
        E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=path, workers=workers)
    written = E.read_records(path)
    # the cells finished before the crash were streamed to the file
    assert 0 < len(written) < len(E.read_records(whole))
    assert all(r.mode == "MV" or r.origin < crash_at[1] for r in written)

    monkeypatch.setattr(E, "evaluate_cell", evaluate_cell)
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=path, workers=workers)
    assert path.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("torn", [20, 0], ids=["torn-row", "whole-row"])
def test_torn_final_row_is_dropped_and_resume_completes(tmp_path, toy_panel, caplog, torn):
    specs, panels = _toy_grid(toy_panel)
    whole = tmp_path / "whole.csv"
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=whole)
    lines = whole.read_bytes().splitlines(keepends=True)
    path = tmp_path / "records.csv"
    # header, cell 1 (3 series), one row of cell 2, then the first bytes of
    # its next row: a cut on a row boundary inside a cell tears no row
    path.write_bytes(b"".join(lines[:5]) + lines[5][:torn])
    with caplog.at_level("WARNING"):
        records = E.read_records(path)
    assert len(records) == 4
    assert ("dropped unterminated final row" in caplog.text) == (torn > 0)
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=path)
    assert path.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_hard_crash_after_each_cell_flush_resumes_to_the_same_tree(tmp_path, toy_panel, workers):
    specs, panels = _toy_grid(toy_panel)

    def evaluate(out):  # what `groupcast evaluate` writes: records, then artifacts
        out.mkdir(exist_ok=True)
        records, _, _ = E.run_grid(
            E.grid_plan(specs, panels), panels, E.LastValueStub(),
            records_path=out / "records.csv", workers=workers,
        )
        E.emit_artifacts(records, out)

    evaluate(tmp_path / "whole")
    want = tree_bytes(tmp_path / "whole")

    def job(seam, out):  # in the child: crash right after a cell's rows are flushed
        def opening(*args, **kwargs):
            fh = open(*args, **kwargs)
            flush = fh.flush

            def flushing():
                flush()
                seam()

            fh.flush = flushing
            return fh

        E.open = opening
        evaluate(out)

    cells = sum(len(E.rolling_origins(toy_panel, spec)) for spec in specs)
    for k in range(1, cells + 1):
        out = tmp_path / f"crash{k}"
        crash_in_child(lambda seam: job(seam, out), k)
        evaluate(out)
        assert tree_bytes(out) == want, k


def test_complete_malformed_row_still_raises(tmp_path, toy_panel):
    specs, panels = _toy_grid(toy_panel)
    path = tmp_path / "records.csv"
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=path)
    with open(path, "ab") as fh:
        fh.write(b"toy,MV,s0,30\r\n")
    with pytest.raises(DataError, match="malformed"):
        E.read_records(path)
    with pytest.raises(DataError, match="malformed"):
        E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=path)


def test_workers_do_not_change_results(tmp_path, toy_panel):
    specs = [
        _spec(panel="toy", mode=mo, n=30, m=5, start_years_after=0) for mo in ("MV", "UV")
    ]
    p1 = tmp_path / "w1.csv"
    p2 = tmp_path / "w2.csv"
    E.run_grid(
        E.grid_plan(specs, {"toy": toy_panel}), {"toy": toy_panel},
        E.LastValueStub(), records_path=p1, workers=1,
    )
    E.run_grid(
        E.grid_plan(specs, {"toy": toy_panel}), {"toy": toy_panel},
        E.LastValueStub(), records_path=p2, workers=3,
    )
    assert p1.read_bytes() == p2.read_bytes()


def _two_panel_grid():
    panels = {
        "stocks": make_price_panel(["s0", "s1", "s2"], date(2015, 1, 6), 200, seed=41),
        "rates": make_rate_panel(["r0", "r1"], date(2015, 1, 6), 200, seed=42),
    }
    specs = [
        _spec(panel=p, mode=mo, n=n, m=m, start_years_after=0)
        for p in ("rates", "stocks") for mo in ("UV", "MV") for n in (30, 60) for m in (5, 9)
    ]
    return specs, panels


def _canonical_row_key(line: str, panels):
    panel, mode, series, n, m, origin = line.split(",")[:6]
    return (E.PANEL_ORDER.index(panel), M.MODES.index(mode), int(n), int(m), origin,
            panels[panel].series_ids.index(series))


def test_modes_of_a_context_run_back_to_back_and_rows_stay_canonical(tmp_path, monkeypatch):
    specs, panels = _two_panel_grid()
    computed = []
    evaluate_cell = E.evaluate_cell

    def recording(panel, spec, origin, forecaster):
        computed.append((spec.panel, spec.n, spec.m, origin, spec.mode))
        return evaluate_cell(panel, spec, origin, forecaster)

    monkeypatch.setattr(E, "evaluate_cell", recording)
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=p1, workers=1)
    monkeypatch.setattr(E, "evaluate_cell", evaluate_cell)
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=p2, workers=2)

    assert computed and len(computed) == len(set(computed))
    # MV then UV of one (panel, n, m, origin), pair after pair
    for mv, uv in zip(computed[::2], computed[1::2]):
        assert mv[:4] == uv[:4] and (mv[4], uv[4]) == ("MV", "UV")
    assert computed[0][0] == "stocks"
    lines = p1.read_text().splitlines()[1:]
    assert lines == sorted(lines, key=lambda ln: _canonical_row_key(ln, panels))
    assert p1.read_bytes() == p2.read_bytes()


def test_pool_gets_each_context_whole(tmp_path, monkeypatch):
    specs, panels = _two_panel_grid()
    # 60 cells: chunks of 60 // (2 * 4) = 7 cells would split MV/UV pairs
    specs = [spec for spec in specs if spec.n == 30]
    seen = tmp_path / "seen.txt"
    evaluate_cell = E.evaluate_cell

    def recording(panel, spec, origin, forecaster):
        with open(seen, "a") as fh:
            fh.write(f"{os.getpid()},{spec.panel},{spec.n},{spec.m},{origin},{spec.mode}\n")
        return evaluate_cell(panel, spec, origin, forecaster)

    monkeypatch.setattr(E, "evaluate_cell", recording)
    _, _, cells = E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), workers=2)
    lines = [line.split(",") for line in seen.read_text().splitlines()]
    assert len(lines) == cells == 60
    by_pid = {}
    for pid, *cell in lines:
        by_pid.setdefault(pid, []).append(cell)
    for run in by_pid.values():
        for mv, uv in zip(run[::2], run[1::2]):
            assert mv[:4] == uv[:4] and (mv[4], uv[4]) == ("MV", "UV")


@pytest.mark.parametrize("workers", [1, 2])
def test_crash_at_uv_with_mv_pending_writes_no_uv_row_and_resumes(tmp_path, monkeypatch, workers):
    specs, panels = _two_panel_grid()
    whole = tmp_path / "whole.csv"
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=whole, workers=workers)

    crash_spec = _spec(panel="stocks", mode="UV", n=30, m=9, start_years_after=0)
    crash_at = ("stocks", "UV", 30, 9, E.rolling_origins(panels["stocks"], crash_spec)[2])
    evaluate_cell = E.evaluate_cell

    def crashing(panel, spec, origin, forecaster):
        if (spec.panel, spec.mode, spec.n, spec.m, origin) == crash_at:
            raise RuntimeError("injected crash")
        return evaluate_cell(panel, spec, origin, forecaster)

    monkeypatch.setattr(E, "evaluate_cell", crashing)
    path = tmp_path / "records.csv"
    with pytest.raises(RuntimeError, match="injected crash"):
        E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=path, workers=workers)
    written = E.read_records(path)
    # UV cells of stocks were computed, but stocks MV cells are still pending
    assert written and {r.mode for r in written} == {"MV"}
    assert {r.panel for r in written} == {"stocks"}

    monkeypatch.setattr(E, "evaluate_cell", evaluate_cell)
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=path, workers=workers)
    assert path.read_bytes() == whole.read_bytes()


def test_evaluate_cell_rejects_origin_off_the_calendar(toy_panel):
    saturday = date(2015, 9, 5)
    assert saturday not in toy_panel.dates and toy_panel.dates[0] < saturday < toy_panel.dates[-1]
    with pytest.raises(KeyError, match="2015-09-05"):
        E.evaluate_cell(toy_panel, _spec(panel="toy", n=5, m=3), saturday, E.LastValueStub())


def test_evaluate_cell_rejects_origin_with_fewer_than_n_dates_before_it(toy_panel):
    with pytest.raises(KeyError, match="with 5 dates before it"):
        E.evaluate_cell(toy_panel, _spec(panel="toy", n=5, m=3), toy_panel.dates[4], E.LastValueStub())


def test_grid_plan_orders_each_distinct_spec_once_and_keeps_specs_without_origins(toy_panel):
    specs = [
        _spec(panel="toy", mode=mo, n=n, m=m, start_years_after=0)
        for mo in ("UV", "MV", "UV") for n in (60, 30, 60) for m in (5, 500)
    ]
    plan = E.grid_plan(specs, {"toy": toy_panel})
    assert list(plan) == sorted(set(specs), key=lambda s: (M.MODES.index(s.mode), s.n, s.m))
    assert all(plan[s] == E.rolling_origins(toy_panel, s) for s in plan)
    assert [bool(origins) for origins in plan.values()] == [True, False] * 4  # m=500 has no window
    _, _, cells = E.run_grid(plan, {"toy": toy_panel}, E.LastValueStub())
    assert cells == sum(map(len, plan.values()))


# ---------------------------------------------------------------------------
# whole-array metrics against the per-series oracle


class FixedForecast:
    """Returns a preset point path whatever the context."""

    needs_truth = False
    max_context = np.inf

    def __init__(self, point):
        self.point = point

    def forecast_panel(self, context_values, context_mask, mode, m, realized=None):
        return self.point


N_CTX = 4


def _metric_cell(S, m, scale, seed):
    """A panel whose one origin has S series and m realized days, and a
    forecast near the realized values."""
    rng = np.random.default_rng(seed)
    T = N_CTX + m
    values = scale * rng.lognormal(0.0, 0.7, size=(S, T)) * rng.choice([-1.0, 1.0], size=(S, 1))
    panel = SeriesPanel(
        dates=weekday_calendar(date(2015, 1, 6), T), series_ids=[f"s{k}" for k in range(S)],
        values=values, mask=np.ones((S, T)),
    )
    point = values[:, N_CTX:] * (1.0 + 0.1 * rng.normal(size=(S, m)))
    return panel, point


def _cell_bytes(panel, m, point, evaluate):
    spec = _spec(panel="p", mode="MV", n=N_CTX, m=m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records, skips = evaluate(panel, spec, panel.dates[N_CTX], FixedForecast(point))
    return [E._record_row(r) for r in records], skips


def _assert_cell_matches_oracle(panel, m, point):
    got = _cell_bytes(panel, m, point, E.evaluate_cell)
    assert got == _cell_bytes(panel, m, point, evaluate_cell_per_series)
    return got


@pytest.mark.parametrize("m", [1, 7, 8, 9, 127, 128, 129, 257])
def test_whole_array_metrics_equal_per_series_bitwise(m):
    # m crosses the blocks of numpy's pairwise sum (8 and 128 elements)
    for S in (1, 7, 10, 17):
        for i, scale in enumerate((1e-2, 1.0, 1e2)):
            panel, point = _metric_cell(S, m, scale, seed=1000 * m + 10 * S + i)
            records, skips = _assert_cell_matches_oracle(panel, m, point)
            assert len(records) == S and skips == []


def test_irregular_rows_fall_back_and_match_per_series_bitwise():
    m = 9
    panel, point = _metric_cell(7, m, 1.0, seed=5)
    panel.mask[0, N_CTX + 3] = 0.0
    panel.values[0, N_CTX + 3] = np.nan  # a gap holds no value
    panel.values[1, N_CTX + 2] = 1e-9    # a near-zero actual
    panel.values[2, N_CTX + 5] = 0.0
    panel.mask[3, N_CTX:] = 0.0          # every realized day missing
    point[4, 1] = np.nan
    point[5, :] = np.inf
    point[6, 0] = -np.inf
    rows, skips = _assert_cell_matches_oracle(panel, m, point)
    finite = [(series, float(r) < np.inf, float(mp) < np.inf, skipped)
              for _, _, series, _, _, _, r, mp, skipped, _ in rows]
    assert finite == [
        ("s0", True, True, 0), ("s1", True, True, 1), ("s2", True, True, 1),
        ("s4", False, False, 0), ("s5", False, False, 0), ("s6", False, False, 0),
    ]
    assert [s["reason"] for s in skips] == ["rmse: no observed cells"]


@pytest.mark.parametrize("shape", [(7, 10), (7, 8)])
def test_wrong_forecast_shape_skips_every_series(shape):
    panel, point = _metric_cell(7, 9, 1.0, seed=6)
    wrong = np.ones(shape)
    records, skips = _assert_cell_matches_oracle(panel, 9, wrong)
    assert records == []
    reason = f"forecast error: forecast shape {shape}, expected (7, 9)"
    assert [s["reason"] for s in skips] == [reason] * 7


class LastValueLoop:
    """The per-series last-value loop of the oracles as a forecaster."""

    needs_truth = False
    max_context = np.inf

    def forecast_panel(self, context_values, context_mask, mode, m, realized=None):
        return last_value_per_series(context_values, context_mask, m)


def test_last_value_stub_equals_the_per_series_loop_on_gaps_and_a_late_listing():
    panel = make_price_panel(STOCK_IDS, date(2019, 1, 1), 320, seed=23)
    panel.mask[1, 100:180] = 0.0  # a publication gap
    panel.mask[4, :150] = 0.0  # listed late
    panel.mask[2, ::7] = 0.0  # scattered gaps, on some contexts' last day
    specs = [_spec(mode=mo, n=n, m=8, start_years_after=0) for mo in M.MODES for n in (20, 64)]
    plan = E.grid_plan(specs, {"stocks": panel})
    got = E.run_grid(plan, {"stocks": panel}, E.LastValueStub())
    assert got == E.run_grid(plan, {"stocks": panel}, LastValueLoop())
    # the gap and the late listing reach the skip rule; the scattered gaps do not
    assert {s["series"] for s in got[1] if s["reason"] == "no observed context"} == set(STOCK_IDS[1::3])
    for spec, origins in plan.items():
        for origin in origins:  # every row evaluate_cell hands the stub, bit for bit
            ctx, mask = slice_context(panel, origin, spec.n)
            seen = (mask > 0).any(axis=1)
            point = E.LastValueStub().forecast_panel(ctx[seen], mask[seen], spec.mode, spec.m)
            want = last_value_per_series(ctx[seen], mask[seen], spec.m)
            assert point.dtype == want.dtype and point.shape == want.shape
            assert point.tobytes() == want.tobytes()


class DropsARowInMV(E.LastValueStub):
    """The last-value forecast, one row short in MV mode."""

    def forecast_panel(self, context_values, context_mask, mode, m, realized=None):
        point = super().forecast_panel(context_values, context_mask, mode, m, realized)
        return point[:-1] if mode == "MV" else point


def test_forecast_with_too_few_rows_skips_its_cell_and_the_grid_finishes(toy_panel):
    specs = [
        _spec(panel="toy", mode=mo, n=30, m=m, start_years_after=0)
        for mo in ("MV", "UV") for m in (5, 10)
    ]
    records, skips, cells = E.run_grid(
        E.grid_plan(specs, {"toy": toy_panel}), {"toy": toy_panel}, DropsARowInMV()
    )
    n_origins = {spec: len(E.rolling_origins(toy_panel, spec)) for spec in specs}
    assert cells == sum(n_origins.values())
    assert {r.mode for r in records} == {"UV"}
    assert len(records) == 3 * sum(n for spec, n in n_origins.items() if spec.mode == "UV")
    assert len(skips) == 3 * sum(n for spec, n in n_origins.items() if spec.mode == "MV")
    assert {s["reason"] for s in skips} == {
        f"forecast error: forecast shape (2, {m}), expected (3, {m})" for m in (5, 10)
    }


@pytest.mark.parametrize("metric", [E.rmse, E.mape])
def test_metric_argument_errors_name_the_metric(metric):
    for actual, forecast in (([1.0, 2.0], [1.0, 2.0, 3.0]), ([], [])):
        with pytest.raises(DegenerateInputError) as err:
            metric(actual, forecast)
        shapes = f"({len(actual)},) vs ({len(forecast)},)"
        assert str(err.value) == f"{metric.__name__} needs equal non-empty shapes, got {shapes}"


def test_only_fallback_rows_call_the_per_series_metrics(monkeypatch):
    calls = {"rmse": 0, "mape": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(E, "rmse", counted("rmse", E.rmse))
    monkeypatch.setattr(E, "mape", counted("mape", E.mape))
    panel, point = _metric_cell(10, 21, 1.0, seed=7)
    _assert_cell_matches_oracle(panel, 21, point)
    assert calls == {"rmse": 10, "mape": 10}  # all of them from the oracle
    calls.update(rmse=0, mape=0)
    _cell_bytes(panel, 21, point, E.evaluate_cell)
    assert calls == {"rmse": 0, "mape": 0}
    panel.mask[2, N_CTX + 4] = 0.0
    panel.values[8, N_CTX] = 0.0
    _cell_bytes(panel, 21, point, E.evaluate_cell)
    assert calls == {"rmse": 2, "mape": 2}


def test_grid_records_equal_per_series_grid_bytes(tmp_path, monkeypatch):
    specs, panels = _two_panel_grid()
    panels["stocks"].mask[1, 60:75] = 0.0
    panels["rates"].values[0, 90:93] = 0.0
    fast = tmp_path / "fast.csv"
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=fast)
    monkeypatch.setattr(E, "evaluate_cell", evaluate_cell_per_series)
    oracle = tmp_path / "oracle.csv"
    E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), records_path=oracle)
    assert fast.read_bytes() == oracle.read_bytes()
    skipped = [line.split(",")[8] for line in fast.read_text().splitlines()[1:]]
    assert set(skipped) == {"0", "2"}  # the near-zero rates rows took the fallback


# ---------------------------------------------------------------------------
# the model forecaster's shared trunk


@pytest.fixture()
def counted_trunks(monkeypatch):
    calls = []
    trunk = M.trunk

    def counting(*args, **kwargs):
        calls.append(args)
        return trunk(*args, **kwargs)

    monkeypatch.setattr(M, "trunk", counting)
    return calls


def _fresh(ctx, mask, mode, m, weights, cfg):
    return M.predict(ctx, mask, mode, m, weights, cfg)[:, :, M.MEDIAN_INDEX]


def test_forecaster_shares_trunk_bitwise_and_misses_on_any_change(tiny_model, counted_trunks):
    weights, cfg = tiny_model
    rng = np.random.default_rng(7)
    ctx = rng.normal(50, 5, size=(4, 120))
    mask = np.ones_like(ctx)
    mask[2, 17] = 0.0
    f = E.ModelForecaster(weights, cfg)
    steps = [
        (ctx, mask, "MV", 21), (ctx, mask, "UV", 21),  # MV -> UV: one trunk
        (ctx, mask, "MV", 21),                        # UV -> MV: still that trunk
        (ctx, mask, "UV", 63), (ctx, mask, "MV", 63),  # a new horizon misses once
    ]
    bumped = ctx.copy()
    bumped[1, 60] = np.nextafter(bumped[1, 60], np.inf)
    flipped = mask.copy()
    flipped[0, 5] = 0.0
    steps += [(bumped, mask, "UV", 63), (bumped, flipped, "UV", 63)]
    built = []
    for c, k, mode, m in steps:
        n_before = len(counted_trunks)
        got = f.forecast_panel(c.copy(), k.copy(), mode, m)
        built.append(len(counted_trunks) - n_before)
        assert np.array_equal(got, _fresh(c, k, mode, m, weights, cfg)), (mode, m)
    assert built == [1, 0, 0, 1, 0, 1, 1]


def test_cached_trunk_is_not_mutated(tiny_model):
    weights, cfg = tiny_model
    ctx = np.random.default_rng(8).normal(10, 1, size=(3, 40))
    batch = M.trunk(ctx, np.ones_like(ctx), 8, weights, cfg)
    before = (batch.tokens.data.copy(), batch.block0_time.data.copy())
    mv = M.finish(batch, M.mode_group_ids("MV", 3), weights, cfg)
    uv = M.finish(batch, M.mode_group_ids("UV", 3), weights, cfg)
    assert np.array_equal(batch.tokens.data, before[0])
    assert np.array_equal(batch.block0_time.data, before[1])
    assert np.array_equal(mv, M.predict(ctx, np.ones_like(ctx), "MV", 8, weights, cfg))
    assert np.array_equal(uv, M.predict(ctx, np.ones_like(ctx), "UV", 8, weights, cfg))


def test_model_grid_builds_one_trunk_per_context(tiny_model, counted_trunks, tmp_path):
    # m=8 is one future patch, where the pruned last block keeps the
    # separator row, and m=21 three; with two blocks the last block's time
    # attention is pruned too
    _, cfg1 = tiny_model
    panel = make_price_panel(["s0", "s1", "s2"], date(2015, 1, 6), 200, seed=43)
    specs = [
        _spec(panel="toy", mode=mo, n=n, m=m, start_years_after=0)
        for mo in ("MV", "UV") for n in (30, 64) for m in (8, 21)
    ]
    predicted_unlike_unpruned = []

    class PredictEveryCell(E.ModelForecaster):
        """Returns the unpruned forecast; also predicts, which must equal it."""

        def forecast_panel(self, context_values, context_mask, mode, m, realized=None):
            fresh = _fresh(context_values, context_mask, mode, m, self.weights, self.config)
            gids = M.mode_group_ids(mode, len(context_values))
            batch = M.assemble_batch(context_values, context_mask, m, self.weights, self.config)
            unpruned = finish_unpruned(batch, gids, self.weights, self.config)[:, :, M.MEDIAN_INDEX]
            if fresh.tobytes() != unpruned.tobytes():
                predicted_unlike_unpruned.append((mode, m))
            return unpruned

    for n_blocks in (1, 2):
        cfg = replace(cfg1, n_blocks=n_blocks)
        weights = M.init_weights(cfg, seed=42)
        del counted_trunks[:]
        shared = tmp_path / f"shared{n_blocks}.csv"
        _, skips, cells = E.run_grid(
            E.grid_plan(specs, {"toy": panel}), {"toy": panel},
            E.ModelForecaster(weights, cfg), records_path=shared,
        )
        assert cells and len(counted_trunks) == cells // 2 and skips == []
        fresh = tmp_path / f"fresh{n_blocks}.csv"
        E.run_grid(
            E.grid_plan(specs, {"toy": panel}), {"toy": panel},
            PredictEveryCell(weights, cfg), records_path=fresh,
        )
        assert len(counted_trunks) == cells // 2 + cells
        assert shared.read_bytes() == fresh.read_bytes(), n_blocks
        assert predicted_unlike_unpruned == [], n_blocks


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


def _regime_rows(records, out_dir):
    paths, _, _ = E.emit_artifacts(records, out_dir)
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
    # records that an evaluate cutoff beyond the last origin labels all
    # "pre" reproduce the unsplit aggregate
    far, paths = _regime_rows([replace(r, regime="pre") for r in records], tmp_path / "far")
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
    paths, _, _ = E.emit_artifacts(records, tmp_path)
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
    pa, _, _ = E.emit_artifacts(records, a)
    pb, _, _ = E.emit_artifacts(list(reversed(records)), b)  # order must not matter
    for name in pa:
        assert pa[name].read_bytes() == pb[name].read_bytes(), name


def test_timeseries_monthly_rows(tmp_path):
    records = _grid_records()
    paths, _, _ = E.emit_artifacts(records, tmp_path)
    lines = paths["timeseries"].read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "month"
    months = {f"{r.origin.year:04d}-{r.origin.month:02d}" for r in records}
    assert len(lines) - 1 == len(months)


def _gapped_records():
    """Records with months missing per cell and across every cell, an empty
    heatmap cell, a series with one mode, an MV-only panel and a panel
    outside PANEL_ORDER that ends before the cutoff, in shuffled order."""
    rng = np.random.default_rng(23)
    layout = {
        ("stocks", "AAPL"): ("MV", "UV"),
        ("stocks", "MSFT"): ("UV",),
        ("rates", "DGS10"): ("MV", "UV"),
        ("combined", "AAPL"): ("MV",),
        ("combined", "DGS10"): ("MV",),
        ("desk", "X1"): ("UV", "MV"),
    }
    records = []
    for (panel, series), modes in layout.items():
        years = (2021, 2022) if panel == "desk" else (2021, 2022, 2023, 2024)
        for mode in modes:
            for n in (126, 504):
                for m in (21, 63):
                    if (n, mode, m) == (504, "UV", 63):
                        continue
                    for year in years:
                        for month in range(1, 13):
                            if (year, month) == (2022, 5) or rng.uniform() < 0.2:
                                continue
                            origin = date(year, month, 1 + month % 3)
                            records.append(_rec(
                                panel=panel, mode=mode, series=series, n=n, m=m, origin=origin,
                                rmse_=float(rng.uniform(0, 9)), mape_=float(rng.uniform(0, 1)),
                                regime="pre" if origin < E.DEFAULT_CUTOFF else "post",
                            ))
    return [records[i] for i in rng.permutation(len(records))]


def test_artifacts_equal_scan_oracle_on_gapped_records(tmp_path):
    records = _gapped_records()
    paths, rows1, rows2 = E.emit_artifacts(records, tmp_path / "got")
    want_paths, want1, want2 = emit_artifacts_scan(records, tmp_path / "want")
    assert rows1 == want1 and rows2 == want2
    assert sorted(paths) == sorted(want_paths)
    for name in want_paths:
        assert paths[name].read_bytes() == want_paths[name].read_bytes(), name
    # the record set reaches the empty-cell paths it is built for
    for name in ("heatmap", "timeseries"):
        lines = paths[name].read_text().splitlines()
        assert any("" in line.split(",") for line in lines), name


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
    paths, _, _ = E.emit_artifacts([], tmp_path)
    for name, p in paths.items():
        lines = p.read_text().strip().split("\n")
        assert len(lines) == 1, name


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["model", "last-value"])
def test_a_series_with_no_observed_context_is_skipped_and_the_rest_are_forecast_without_it(tiny_model, kind):
    weights, cfg = tiny_model
    forecaster = E.ModelForecaster(weights, cfg) if kind == "model" else E.LastValueStub()
    full = make_price_panel(STOCK_IDS, date(2019, 1, 1), 320, seed=21)
    full.mask[3, :200] = 0.0  # listed late: observed from its 201st day on
    ids = full.series_ids
    rest = SeriesPanel(dates=full.dates, series_ids=ids[:3] + ids[4:],
                       values=np.delete(full.values, 3, 0), mask=np.delete(full.mask, 3, 0))
    plan = E.grid_plan([_spec(mode=mode, n=64, m=8, start_years_after=0) for mode in M.MODES], {"stocks": full})
    records, skips, _ = E.run_grid(plan, {"stocks": full}, forecaster)
    cells = [(spec, origin) for spec, origins in plan.items() for origin in origins]
    unseen = [(spec, origin) for spec, origin in cells if origin <= full.dates[200]]
    assert 0 < len(unseen) < len(cells)
    assert skips == [
        {"panel": "stocks", "mode": spec.mode, "series": ids[3], "n": 64, "m": 8,
         "origin": origin.isoformat(), "reason": "no observed context"}
        for spec, origin in unseen
    ]
    for spec, origin in cells:
        got = [r for r in records if (r.mode, r.origin) == (spec.mode, origin)]
        if (spec, origin) in unseen:  # the other six, in MV as one group: the panel without it
            assert got == E.evaluate_cell(rest, spec, origin, forecaster)[0]
        else:
            assert [r.series for r in got] == ids


def test_a_series_observed_only_before_the_models_window_is_skipped_and_the_rest_are_forecast_without_it(
    tiny_model,
):
    weights, cfg = tiny_model
    forecaster = E.ModelForecaster(weights, cfg)
    n = cfg.max_context + 44  # the model reads the last max_context days of each n-day context
    full = make_price_panel(STOCK_IDS, date(2019, 1, 1), 420, seed=21)
    full.mask[3, 40:] = 0.0  # observed on its first 40 days only
    ids = full.series_ids
    rest = SeriesPanel(dates=full.dates, series_ids=ids[:3] + ids[4:],
                       values=np.delete(full.values, 3, 0), mask=np.delete(full.mask, 3, 0))
    specs = [_spec(mode=mode, n=n, m=8, start_years_after=0) for mode in M.MODES]
    plan = E.grid_plan(specs, {"stocks": full})
    records, skips, _ = E.run_grid(plan, {"stocks": full}, forecaster)
    cells = [(spec, origin) for spec, origins in plan.items() for origin in origins]
    # some n-day contexts observe it; no model window does
    assert any(full.dates.index(origin) - n < 40 for _, origin in cells)
    assert skips == [
        {"panel": "stocks", "mode": spec.mode, "series": ids[3], "n": n, "m": 8,
         "origin": origin.isoformat(), "reason": "no observed context"}
        for spec, origin in cells
    ]
    assert (records, []) == E.run_grid(E.grid_plan(specs, {"stocks": rest}), {"stocks": rest}, forecaster)[:2]
    for spec, origin in cells:  # the other six get records in MV and in UV
        assert [r.series for r in records if (r.mode, r.origin) == (spec.mode, origin)] == rest.series_ids


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
    recs_s, _, _ = E.run_grid(E.grid_plan([spec_s], {"stocks": stocks}), {"stocks": stocks}, forecaster)
    recs_c, _, _ = E.run_grid(
        E.grid_plan([spec_c], {"combined": combined}), {"combined": combined}, forecaster
    )
    by_key_c = {(r.series, r.origin): r for r in recs_c}
    assert recs_s
    for r in recs_s:
        rc = by_key_c[(r.series, r.origin)]
        assert r.rmse == rc.rmse and r.mape == rc.mape
