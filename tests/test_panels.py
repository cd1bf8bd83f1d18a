"""Panel CSV ingestion, combined-panel construction, context slicing."""

from datetime import date

import numpy as np
import pytest

from groupcast import panels as PN
from groupcast.errors import DataError, SchemaError

from conftest import make_price_panel, make_rate_panel, weekday_calendar


def _write(tmp_path, text, name="p.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_blank_cell_becomes_mask_zero(tmp_path):
    p = _write(tmp_path, "date,A,B\n2024-01-02,1.5,\n2024-01-03,2.5,3.5\n")
    panel = PN.load_csv_panel(p)
    assert panel.mask.sum() == 3
    assert panel.mask[1, 0] == 0
    assert panel.values[1, 0] == 0.0


def test_duplicate_date_rejected(tmp_path):
    p = _write(tmp_path, "date,A\n2024-01-02,1\n2024-01-02,2\n")
    with pytest.raises(DataError, match="duplicate"):
        PN.load_csv_panel(p)


def test_non_monotone_dates_rejected(tmp_path):
    p = _write(tmp_path, "date,A\n2024-01-03,1\n2024-01-02,2\n")
    with pytest.raises(DataError, match="not increasing"):
        PN.load_csv_panel(p)


def test_unparseable_number_names_row(tmp_path):
    p = _write(tmp_path, "date,A\n2024-01-02,1\n2024-01-03,oops\n")
    with pytest.raises(DataError, match="row 3"):
        PN.load_csv_panel(p)


def test_unknown_column_is_schema_error(tmp_path):
    p = _write(tmp_path, "date,A,B\n2024-01-02,1,2\n")
    with pytest.raises(SchemaError):
        PN.load_csv_panel(p, expected_ids=("A", "C"))


def test_expected_ids_reorder_columns(tmp_path):
    p = _write(tmp_path, "date,B,A\n2024-01-02,2,1\n")
    panel = PN.load_csv_panel(p, expected_ids=("A", "B"))
    assert panel.series_ids == ["A", "B"]
    assert panel.values[:, 0].tolist() == [1.0, 2.0]


def test_save_load_roundtrip_value_identical(tmp_path):
    panel = make_price_panel(["A", "B", "C"], date(2020, 1, 1), 50, seed=4)
    panel.mask[1, 7] = 0
    path = tmp_path / "rt.csv"
    PN.save_csv_panel(path, panel)
    back = PN.load_csv_panel(path)
    assert back.dates == panel.dates
    assert back.series_ids == panel.series_ids
    assert np.array_equal(back.mask, panel.mask)
    obs = panel.mask > 0
    assert np.array_equal(back.values[obs], panel.values[obs])


def test_save_csv_panel_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "p.csv"
    PN.save_csv_panel(path, make_price_panel(["A", "B"], date(2020, 1, 1), 20, seed=4))
    before = path.read_bytes()
    bad = make_price_panel(["A", "B"], date(2020, 1, 1), 20, seed=5)
    bad.values = bad.values.astype(object)
    bad.values[1, 12] = "not a float"  # the format fails mid-file
    with pytest.raises(TypeError):
        PN.save_csv_panel(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]


def test_combined_disjoint_ranges_error():
    stocks = make_price_panel(PN.STOCK_IDS, date(2019, 1, 1), 30, seed=1)
    rates = make_rate_panel(PN.RATE_IDS, date(2021, 6, 1), 30, seed=2)
    with pytest.raises(DataError):
        PN.build_combined(stocks, rates)


def test_combined_identical_calendars():
    stocks = make_price_panel(PN.STOCK_IDS, date(2019, 1, 1), 120, seed=1)
    rates = make_rate_panel(PN.RATE_IDS, date(2019, 1, 1), 120, seed=2)
    combined = PN.build_combined(stocks, rates)
    assert combined.n_series == 17
    assert combined.dates == stocks.dates
    assert combined.series_ids[:7] == list(PN.STOCK_IDS)
    assert combined.series_ids[7:] == list(PN.RATE_IDS)


def test_combined_start_respects_study_window():
    # panels reaching back before July 2010 are clipped to the window
    stocks = make_price_panel(PN.STOCK_IDS, date(2009, 1, 1), 900, seed=3)
    rates = make_rate_panel(PN.RATE_IDS, date(2009, 1, 1), 900, seed=4)
    combined = PN.build_combined(stocks, rates)
    assert combined.dates[0] >= date(2010, 7, 1)


def test_combined_values_equal_sources_exactly():
    stocks = make_price_panel(PN.STOCK_IDS, date(2019, 1, 1), 80, seed=5)
    rates = make_rate_panel(PN.RATE_IDS, date(2019, 3, 1), 80, seed=6)
    combined = PN.build_combined(stocks, rates)
    si = stocks.date_index()
    ri = rates.date_index()
    for j, d in enumerate(combined.dates):
        assert np.array_equal(combined.values[:7, j], stocks.values[:, si[d]])
        assert np.array_equal(combined.values[7:, j], rates.values[:, ri[d]])


def test_slice_context_exact_window():
    panel = make_price_panel(["A"], date(2020, 1, 1), 40, seed=7)
    origin = panel.dates[30]
    out = PN.slice_context(panel, origin, 10)
    assert out is not None
    values, mask = out
    assert values.shape == (1, 10)
    assert np.array_equal(values[0], panel.values[0, 20:30])
    # no-peek: the last context day strictly precedes the origin
    assert panel.dates[29] < origin


def test_slice_context_insufficient_history_is_skip():
    panel = make_price_panel(["A"], date(2020, 1, 1), 40, seed=8)
    assert PN.slice_context(panel, panel.dates[5], 10) is None


def test_slice_context_ignores_future_edits():
    panel = make_price_panel(["A", "B"], date(2020, 1, 1), 60, seed=9)
    origin = panel.dates[40]
    before = PN.slice_context(panel, origin, 20)
    panel.values[:, 40:] += 1e9
    after = PN.slice_context(panel, origin, 20)
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])


@pytest.mark.parametrize("where", ["before first", "trading day", "between days", "after last"])
def test_slice_context_equals_searchsorted_form(where):
    panel = make_price_panel(["A", "B"], date(2020, 1, 6), 60, seed=10)  # 2020-01-06 is a Monday
    origin = {
        "before first": date(2019, 12, 1),
        "trading day": panel.dates[37],
        "between days": date(2020, 1, 11),  # a Saturday
        "after last": date(2021, 1, 1),
    }[where]
    assert (origin in panel.dates) == (where == "trading day")
    for n in (1, 4, 60):
        idx = np.searchsorted(np.array(panel.dates, dtype="O"), origin, side="left")
        got = PN.slice_context(panel, origin, n)
        if idx < n:
            assert got is None
            continue
        assert np.array_equal(got[0], panel.values[:, idx - n : idx])
        assert np.array_equal(got[1], panel.mask[:, idx - n : idx])


def test_panel_summary_counts():
    panel = make_price_panel(["A", "B"], date(2020, 1, 1), 10, seed=10)
    panel.mask[0, 3] = 0
    info = PN.panel_summary(panel)
    assert info["n_series"] == 2 and info["n_dates"] == 10
    assert info["missing_cells"] == 1
    assert info["missing_by_series"]["A"] == 1


def test_weekday_calendar_has_no_weekends():
    cal = weekday_calendar(date(2024, 1, 1), 50)
    assert all(d.weekday() < 5 for d in cal)
    assert len(cal) == 50
