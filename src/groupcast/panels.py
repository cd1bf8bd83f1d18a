"""Market panel ingestion from local CSV snapshots.

A panel CSV has header ``date,<id>,<id>,...`` with ISO dates and empty
cells for missing observations. Values stay in their published units
(prices in currency, rates in percent); any transformation is the model's
own scaling at forecast time.

The module also holds what every file writer in the package shares: the
CSV float format, ``atomic_open`` and ``resume_log``, the one rule by which
a rerun cuts an append-only log back after a crash.
"""

import csv
import os
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError, SchemaError

STOCK_IDS = ("AAPL", "AMZN", "GOOGL", "MSFT", "NFLX", "NVDA", "TSLA")
RATE_IDS = (
    "DGS3MO",
    "DGS6MO",
    "DGS1",
    "DGS2",
    "DGS3",
    "DGS5",
    "DGS7",
    "DGS10",
    "DGS20",
    "DGS30",
)
PANEL_IDS = {"stocks": STOCK_IDS, "rates": RATE_IDS}

# Joint study window for the combined panel (both markets covered).
COMBINED_WINDOW = (date(2010, 7, 1), date(2025, 12, 31))

# Every float the package writes to a CSV: round-trips float64 exactly.
FLOAT_FMT = "%.17g"


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary sibling of ``path`` for writing and rename it over
    ``path`` when the block exits cleanly. The file appears whole or not at
    all: a failed write removes the temporary and leaves any old file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def resume_log(path, header: str, keep) -> list[str]:
    """Cut an append-only CSV log back to where a rerun resumes and return
    the rows kept, each with its line end. A missing or empty file, or one
    torn inside ``header``, restarts with the header alone; a file that does
    not start with it raises DataError. Otherwise one truncate keeps the
    header and the first ``keep(rows)`` whole rows, so a torn last line is
    never kept. A ValueError from ``keep`` is raised as DataError."""
    head = header.encode()
    with open(path, "a+b") as fh:
        fh.seek(0)
        data = fh.read()
        if len(data) < len(head) and head.startswith(data):
            fh.truncate(0)
            fh.write(head)
            return []
        if not data.startswith(head):
            raise DataError(f"{path}: does not start with the header {header.rstrip()!r}")
        whole = data[len(head) :].split(b"\n")[:-1]
        try:
            rows = [row.decode() + "\n" for row in whole]
            n = keep(rows)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc
        fh.truncate(len(head) + sum(len(row) + 1 for row in whole[:n]))
    return rows[:n]


@dataclass
class SeriesPanel:
    """Date-aligned series matrix with an observation mask.

    values: (K, T) float64 in original units; mask: (K, T) with 1 observed.
    dates are strictly increasing trading days.
    """

    dates: list[date]
    series_ids: list[str]
    values: np.ndarray
    mask: np.ndarray

    @property
    def n_series(self) -> int:
        return len(self.series_ids)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    def date_index(self) -> dict[date, int]:
        return {d: i for i, d in enumerate(self.dates)}


def load_csv_panel(path, expected_ids=None) -> SeriesPanel:
    """Load and validate a panel snapshot.

    expected_ids, when given, must match the header columns exactly (same
    set and order is not required in the file; columns are reordered). A
    non-finite value raises DataError naming the file, the row's date and
    the column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "date" or len(header) < 2:
            raise SchemaError(f"{path}: header must be date,<id>,... got {header}")
        ids = header[1:]
        if len(set(ids)) != len(ids):
            raise SchemaError(f"{path}: duplicate series columns in header")
        if expected_ids is not None:
            missing = [i for i in expected_ids if i not in ids]
            unknown = [i for i in ids if i not in expected_ids]
            if missing or unknown:
                raise SchemaError(
                    f"{path}: columns do not match expectation "
                    f"(missing {missing}, unknown {unknown})"
                )
        dates: list[date] = []
        rows: list[list[float]] = []
        mrows: list[list[float]] = []
        for li, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {li} has {len(row)} cells, expected {len(header)}")
            try:
                d = date.fromisoformat(row[0])
            except ValueError as exc:
                raise DataError(f"{path}: row {li}: bad date {row[0]!r}") from exc
            if dates:
                if d == dates[-1]:
                    raise DataError(f"{path}: row {li}: duplicate date {d}")
                if d < dates[-1]:
                    raise DataError(f"{path}: row {li}: dates not increasing at {d}")
            vals, msk = [], []
            for ci, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell == "":
                    vals.append(0.0)
                    msk.append(0.0)
                else:
                    try:
                        vals.append(float(cell))
                    except ValueError as exc:
                        raise DataError(
                            f"{path}: row {li}, column {ids[ci]}: unparseable value {cell!r}"
                        ) from exc
                    msk.append(1.0)
            dates.append(d)
            rows.append(vals)
            mrows.append(msk)
    if not dates:
        raise DataError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64).T
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values.T))[0]  # the first in file order
        raise DataError(f"{path}: row dated {dates[r]}, column {ids[c]}: non-finite value {rows[r][c]!r}")
    mask = np.asarray(mrows, dtype=np.float64).T
    if expected_ids is not None and list(ids) != list(expected_ids):
        order = [ids.index(i) for i in expected_ids]
        values = values[order]
        mask = mask[order]
        ids = list(expected_ids)
    return SeriesPanel(dates=dates, series_ids=list(ids), values=values, mask=mask)


def save_csv_panel(path, panel: SeriesPanel) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(panel.series_ids))
        for t, d in enumerate(panel.dates):
            row = [d.isoformat()]
            for k in range(panel.n_series):
                row.append(FLOAT_FMT % panel.values[k, t] if panel.mask[k, t] > 0 else "")
            writer.writerow(row)


def build_combined(stocks: SeriesPanel, rates: SeriesPanel) -> SeriesPanel:
    """Join two panels on the intersection of their trading calendars,
    restricted to the combined study window; values copied exactly."""
    lo, hi = COMBINED_WINDOW
    shared = sorted(set(stocks.dates) & set(rates.dates))
    shared = [d for d in shared if lo <= d <= hi]
    if not shared:
        raise DataError("panels share no trading days inside the combined window")
    si = stocks.date_index()
    ri = rates.date_index()
    s_cols = [si[d] for d in shared]
    r_cols = [ri[d] for d in shared]
    values = np.concatenate([stocks.values[:, s_cols], rates.values[:, r_cols]], axis=0)
    mask = np.concatenate([stocks.mask[:, s_cols], rates.mask[:, r_cols]], axis=0)
    return SeriesPanel(
        dates=list(shared),
        series_ids=list(stocks.series_ids) + list(rates.series_ids),
        values=values,
        mask=mask,
    )


def slice_context(panel: SeriesPanel, origin: date, n: int):
    """The n trading days strictly before origin, or None (skip signal).

    Returns (values (K, n), mask (K, n)) copies; never includes the origin
    date or anything after it.
    """
    idx = bisect_left(panel.dates, origin)
    if idx < n:
        return None
    sl = slice(idx - n, idx)
    return panel.values[:, sl].copy(), panel.mask[:, sl].copy()


def panel_summary(panel: SeriesPanel) -> dict:
    """Shape/coverage facts for the `panel validate` subcommand."""
    return {
        "n_series": panel.n_series,
        "n_dates": panel.n_dates,
        "first_date": panel.dates[0].isoformat(),
        "last_date": panel.dates[-1].isoformat(),
        "missing_cells": int((panel.mask == 0).sum()),
        "missing_by_series": {
            sid: int((panel.mask[k] == 0).sum()) for k, sid in enumerate(panel.series_ids)
        },
    }
