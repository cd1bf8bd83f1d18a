"""Rolling-origin evaluation: forecast grids, metrics, tables, artifacts.

Forecasts launch on the first trading day of each calendar month, starting
three years after the panel begins, provided the origin admits n prior and
m subsequent trading days. The context never includes the origin date;
realized values are the m trading days starting at the origin. One
EvalRecord is written per (panel, mode, series, n, m, origin), averaging
within the origin first.

A cell scores all its series at once: the rows that are fully observed and
have no near-zero actual get their RMSE and MAPE from whole-array ops over
the (S, m) arrays, bit for bit what rmse and mape give on each row. Rows
with gaps or near-zero actuals are scored by rmse and mape one at a time
and keep their skip counts and reasons. A forecast that fails, or whose
shape is not the realized (S, m), is a forecast error for every series.

Grid cells are independent. They are computed in pairing order, with the
modes of one context back to back, so a model forecaster can share the
mode-independent trunk between them. With workers > 1 they run on a fork
pool in the same order, each task a whole run of one context's cells. Rows
are written in canonical order as soon as every earlier cell is done, so
worker count never changes the output bytes. A rerun over records.csv cuts
it back to every cell but the last one in the file (panels.resume_log) and
computes the rest, so a crash loses only that cell and the computed cells
still waiting to be written.
"""

import csv
import logging
import multiprocessing
from bisect import bisect_left
from contextlib import ExitStack
from dataclasses import dataclass
from datetime import date
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from . import model as M
from .errors import ConfigError, DataError, DegenerateInputError, ShapeError
from .panels import FLOAT_FMT, SeriesPanel, atomic_open, resume_log, slice_context

logger = logging.getLogger(__name__)

MAPE_SKIP_THRESHOLD = 1e-8
DEFAULT_CUTOFF = date(2023, 1, 1)
DEFAULT_CONTEXTS = (126, 252, 504, 756)
DEFAULT_HORIZONS = (21, 63)
PANEL_ORDER = ("stocks", "rates", "combined")
MODE_ORDER = ("MV", "UV")

RECORD_FIELDS = ("panel", "mode", "series", "n", "m", "origin", "rmse", "mape", "skipped", "regime")
RECORDS_HEADER = ",".join(RECORD_FIELDS) + "\r\n"  # as csv.writer writes it
TABLE1_COLUMNS = ("panel", "mode", "mape_mean", "mape_std", "rmse_mean", "rmse_std", "n_records")
TABLE2_COLUMNS = (
    "panel", "series", "mape_mv", "mape_uv", "rmse_mv", "rmse_uv",
    "mape_improvement", "rmse_improvement",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One (panel, mode, n, m) slice of the evaluation grid."""

    panel: str
    mode: str
    n: int
    m: int
    start_years_after: int = 3
    cutoff: date = DEFAULT_CUTOFF

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigError(f"n and m must be positive, got n={self.n}, m={self.m}")
        if self.mode not in MODE_ORDER:
            raise ConfigError(f"mode must be one of {MODE_ORDER}, got {self.mode!r}")


@dataclass(frozen=True)
class EvalRecord:
    panel: str
    mode: str
    series: str
    n: int
    m: int
    origin: date
    rmse: float
    mape: float
    skipped: int
    regime: str


# ---------------------------------------------------------------------------
# metrics


def _metric_args(name: str, actual, forecast, mask) -> tuple:
    """(actual, forecast, keep mask) of one non-empty shape, as rmse and mape need."""
    actual = np.asarray(actual, dtype=np.float64)
    forecast = np.asarray(forecast, dtype=np.float64)
    if actual.shape != forecast.shape or actual.size == 0:
        raise DegenerateInputError(
            f"{name} needs equal non-empty shapes, got {actual.shape} vs {forecast.shape}"
        )
    keep = np.ones(actual.shape, dtype=bool) if mask is None else np.asarray(mask) > 0
    return actual, forecast, keep


def rmse(actual: np.ndarray, forecast: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Root mean squared error over observed cells."""
    actual, forecast, keep = _metric_args("rmse", actual, forecast, mask)
    if not keep.any():
        raise DegenerateInputError("rmse: no observed cells")
    err = actual[keep] - forecast[keep]
    return float(np.sqrt(np.mean(err * err)))


def mape(
    actual: np.ndarray, forecast: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, int]:
    """Mean |(a - f) / a| over observed cells; near-zero actuals are
    skipped and counted rather than epsilon-floored."""
    actual, forecast, keep = _metric_args("mape", actual, forecast, mask)
    near_zero = np.abs(actual) < MAPE_SKIP_THRESHOLD
    skipped = int((keep & near_zero).sum())
    keep = keep & ~near_zero
    if not keep.any():
        raise DegenerateInputError("mape: every cell skipped or unobserved")
    return float(np.mean(np.abs((actual[keep] - forecast[keep]) / actual[keep]))), skipped


# ---------------------------------------------------------------------------
# origins


def _add_years(d: date, years: int) -> date:
    try:
        return date(d.year + years, d.month, d.day)
    except ValueError:  # Feb 29
        return date(d.year + years, 3, 1)


def rolling_origins(panel: SeriesPanel, spec: ExperimentSpec) -> list[date]:
    """First trading day of each month admitting the full (n, m) window.

    Eligibility starts with the month that lies start_years_after years
    after the panel's first date (month granularity).
    """
    earliest = _add_years(panel.dates[0], spec.start_years_after)
    earliest_month = (earliest.year, earliest.month)
    firsts: list[tuple[int, date]] = []
    seen: set[tuple[int, int]] = set()
    for i, d in enumerate(panel.dates):
        key = (d.year, d.month)
        if key not in seen:
            seen.add(key)
            firsts.append((i, d))
    out = []
    T = panel.n_dates
    for idx, d in firsts:
        if (d.year, d.month) < earliest_month:
            continue
        if idx < spec.n:
            continue
        if idx + spec.m > T:
            continue
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# forecasters


class ModelForecaster:
    """Wraps the trained model; the point forecast is the middle of the 21
    quantile levels (M.MEDIAN_INDEX, the median at the default levels).

    It keeps the trunk of the last context it forecast (see model.trunk),
    keyed on the bytes of the context values and mask and on the horizon,
    so the MV and UV forecasts of one context, computed back to back,
    build it once. The weights must not change while it is in use.
    """

    needs_truth = False

    def __init__(self, weights: dict, config: M.ModelConfig):
        self.weights = weights
        self.config = config
        self._trunk_key = None
        self._trunk = None

    def forecast_panel(self, context_values, context_mask, mode, m, realized=None):
        values = np.asarray(context_values)
        mask = np.asarray(context_mask)
        gids = M.mode_group_ids(mode, values.shape[0])
        key = (_array_key(values), _array_key(mask), m)
        if key != self._trunk_key:
            self._trunk = M.trunk(values, mask, m, self.weights, self.config)
            self._trunk_key = key
        fc = M.finish(self._trunk, gids, self.weights, self.config)
        return fc.values[:, :, M.MEDIAN_INDEX]


def _array_key(a: np.ndarray) -> tuple:
    """A copy of everything that identifies an array's value, bit for bit."""
    return a.shape, a.dtype.str, a.tobytes()


class LastValueStub:
    """Repeats each series' last observed context value; harness self-test."""

    needs_truth = False

    def forecast_panel(self, context_values, context_mask, mode, m, realized=None):
        ctx = np.asarray(context_values, dtype=np.float64)
        msk = np.asarray(context_mask)
        K = ctx.shape[0]
        out = np.zeros((K, m))
        for k in range(K):
            obs = np.nonzero(msk[k] > 0)[0]
            last = ctx[k, obs[-1]] if obs.size else 0.0
            out[k, :] = last
        return out


class PerfectForesightStub:
    """Replays the realized future; yields exactly zero error."""

    needs_truth = True

    def forecast_panel(self, context_values, context_mask, mode, m, realized=None):
        values, _mask = realized
        return np.asarray(values, dtype=np.float64).copy()


STUB_FORECASTERS = {
    "last-value": LastValueStub,
    "perfect-foresight": PerfectForesightStub,
}


# ---------------------------------------------------------------------------
# the grid


def _canonical_spec_key(spec: ExperimentSpec):
    return panel_sort_key(spec.panel) + (MODE_ORDER.index(spec.mode), spec.n, spec.m)


_POOL_STATE: dict = {}


def _init_pool(panels, forecaster):
    _POOL_STATE["panels"] = panels
    _POOL_STATE["forecaster"] = forecaster


def _eval_run(run):
    """The results of one run of cells that share a context, in order."""
    panels, forecaster = _POOL_STATE["panels"], _POOL_STATE["forecaster"]
    return [evaluate_cell(panels[spec.panel], spec, origin, forecaster) for spec, origin in run]


def evaluate_cell(
    panel: SeriesPanel, spec: ExperimentSpec, origin: date, forecaster
) -> tuple[list[EvalRecord], list[dict]]:
    """All per-series records for one (spec, origin) grid cell, and a skip
    for each series that has none.

    A forecast that raises or has another shape than the realized values
    skips every series as a forecast error. Otherwise fully observed rows
    with no actual below MAPE_SKIP_THRESHOLD are scored together in
    whole-array ops (see _whole_array_scores); the other rows fall back to
    rmse and mape one at a time. The records and skip reasons are those of
    calling rmse and mape on every row.
    """
    records: list[EvalRecord] = []
    skips: list[dict] = []

    def skip(sid, reason):
        skips.append(
            {"panel": spec.panel, "mode": spec.mode, "series": sid, "n": spec.n,
             "m": spec.m, "origin": origin.isoformat(), "reason": reason}
        )

    def skip_all(reason):
        for sid in panel.series_ids:
            skip(sid, reason)

    ctx = slice_context(panel, origin, spec.n)
    if ctx is None:
        skip_all("insufficient history")
        return records, skips
    ctx_values, ctx_mask = ctx
    oi = bisect_left(panel.dates, origin)
    if oi == panel.n_dates or panel.dates[oi] != origin:
        raise KeyError(f"origin {origin} is not a date of panel {spec.panel}")
    realized = panel.values[:, oi : oi + spec.m]
    realized_mask = panel.mask[:, oi : oi + spec.m]
    regime = "pre" if origin < spec.cutoff else "post"
    try:
        point = forecaster.forecast_panel(
            ctx_values,
            ctx_mask,
            spec.mode,
            spec.m,
            realized=(realized, realized_mask) if forecaster.needs_truth else None,
        )
        if np.shape(point) != realized.shape:
            raise ShapeError(f"forecast shape {np.shape(point)}, expected {realized.shape}")
    except Exception as exc:  # per-origin failures never kill the grid
        logger.warning("forecast failed at %s %s n=%d m=%d %s: %s",
                       spec.panel, spec.mode, spec.n, spec.m, origin, exc)
        skip_all(f"forecast error: {exc}")
        return records, skips
    whole = _whole_array_scores(realized, realized_mask, point)
    for k, sid in enumerate(panel.series_ids):
        if k in whole:
            (r, mp), nskip = whole[k], 0
        else:
            try:
                r = rmse(realized[k], point[k], realized_mask[k])
                mp, nskip = mape(realized[k], point[k], realized_mask[k])
            except DegenerateInputError as exc:
                skip(sid, str(exc))
                continue
        records.append(
            EvalRecord(
                panel=spec.panel, mode=spec.mode, series=sid, n=spec.n, m=spec.m,
                origin=origin, rmse=r, mape=mp, skipped=nskip, regime=regime,
            )
        )
    return records, skips


def _whole_array_scores(realized: np.ndarray, realized_mask: np.ndarray, point) -> dict:
    """(rmse, mape) by row index for the rows that need neither a mask nor a
    MAPE skip: fully observed and no actual below MAPE_SKIP_THRESHOLD. The
    forecast has the realized shape (evaluate_cell checks it).

    The rows are copied out contiguous, so numpy reduces each with the same
    pairwise sum it uses on the 1-D row that rmse and mape reduce: the bits
    are theirs. A near-zero row is never divided, so it raises no warning.
    """
    near_zero = np.abs(realized) < MAPE_SKIP_THRESHOLD
    rows = np.flatnonzero((realized_mask > 0).all(axis=1) & ~near_zero.any(axis=1))
    actual = realized[rows]
    err = actual - np.asarray(point, dtype=np.float64)[rows]
    rmses = np.sqrt(np.mean(err * err, axis=1))
    mapes = np.mean(np.abs(err / actual), axis=1)
    return dict(zip(rows.tolist(), zip(rmses.tolist(), mapes.tolist())))


def _pairing_key(cell):
    spec, origin = cell
    p, panel, mo, n, m = _canonical_spec_key(spec)
    return (p, panel, n, m, origin, mo)


def run_grid(
    specs: list[ExperimentSpec],
    panels: dict[str, SeriesPanel],
    forecaster,
    records_path=None,
    workers: int = 1,
) -> tuple[list[EvalRecord], list[dict], int]:
    """Evaluate every (spec, origin) cell; stream records incrementally.

    Returns every record in canonical order (those already in records_path
    first), the skips of the cells computed in this run, and their number.
    A spec given more than once is evaluated once.

    Cells are computed in pairing order (panel, n, m, origin, mode), so the
    modes of one context run back to back and ModelForecaster builds its
    trunk once. A pool is handed whole runs of the cells of one context, so
    the modes of a context never land on different workers. Rows are
    written in canonical order (panel, mode, n, m, origin), whatever the
    worker count: a cell's rows are written and flushed as soon as every
    cell before it in that order is done, and computed cells wait in memory
    until then. A rerun keeps the rows of every cell in records_path but
    the last one in the file, which it computes again whether or not a
    crash cut its rows short (see panels.resume_log); a last cell outside
    this grid is kept as it is. So a rerun after a crash writes the same
    bytes as an uninterrupted run, and a crash loses only that cell and the
    cells still waiting. A records_path that does not start with the
    records header, or that holds a malformed whole row, raises DataError.
    """
    specs = sorted(dict.fromkeys(specs), key=_canonical_spec_key)
    cells = [(spec, origin) for spec in specs for origin in rolling_origins(panels[spec.panel], spec)]
    grid = {(s.panel, s.mode, s.n, s.m, o) for s, o in cells}
    existing: list[EvalRecord] = []
    path = None if records_path is None else Path(records_path)
    if path is not None:

        def keep(rows):
            # every cell but the last in the file, whose rows may be
            # incomplete, unless this grid cannot compute that cell again
            existing.extend(_parse_records(rows, path))
            last = _cell_key(existing[-1]) if existing else None
            while existing and last in grid and _cell_key(existing[-1]) == last:
                existing.pop()
            return len(existing)

        resume_log(path, RECORDS_HEADER, keep)
    done = {_cell_key(r) for r in existing}
    cells = [(s, o) for s, o in cells if (s.panel, s.mode, s.n, s.m, o) not in done]
    order = sorted(range(len(cells)), key=lambda i: _pairing_key(cells[i]))
    paired = [cells[i] for i in order]

    records: list[EvalRecord] = list(existing)
    skips: list[dict] = []
    with ExitStack() as stack:
        writer = None
        if path is not None:
            fh = stack.enter_context(open(path, "a", newline=""))
            writer = csv.writer(fh)
        if workers > 1 and len(cells) > 1:
            ctx = multiprocessing.get_context("fork")
            pool = stack.enter_context(
                ctx.Pool(workers, initializer=_init_pool, initargs=(panels, forecaster))
            )
            runs = [list(run) for _, run in groupby(paired, key=lambda c: _pairing_key(c)[:-1])]
            chunks = pool.imap(_eval_run, runs, chunksize=max(1, len(runs) // (workers * 4)))
            results = chain.from_iterable(chunks)
        else:
            results = (evaluate_cell(panels[s.panel], s, o, forecaster) for s, o in paired)
        waiting: dict[int, tuple] = {}
        next_out = 0
        for index, result in zip(order, results):
            waiting[index] = result
            while next_out in waiting:
                cell_records, cell_skips = waiting.pop(next_out)
                next_out += 1
                records.extend(cell_records)
                skips.extend(cell_skips)
                if writer is not None:
                    writer.writerows(_record_row(r) for r in cell_records)
                    fh.flush()
    return records, skips, len(cells)


def _record_row(r: EvalRecord) -> list:
    return [
        r.panel, r.mode, r.series, r.n, r.m, r.origin.isoformat(),
        FLOAT_FMT % r.rmse, FLOAT_FMT % r.mape, r.skipped, r.regime,
    ]


def _cell_key(r: EvalRecord) -> tuple:
    return r.panel, r.mode, r.n, r.m, r.origin


def read_records(path) -> list[EvalRecord]:
    """Parse records.csv; an unterminated final row is dropped and logged."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        logger.warning("%s: dropped unterminated final row %r", path, lines.pop())
    header = next(csv.reader(lines[:1]), None)
    if header != list(RECORD_FIELDS):
        raise DataError(f"{path}: unexpected records header {header}")
    return _parse_records(lines[1:], path)


def _parse_records(lines: list[str], path) -> list[EvalRecord]:
    """The records of the whole rows that follow the header of records.csv;
    a malformed row raises DataError naming its line."""
    out = []
    for li, row in enumerate(csv.reader(lines), start=2):
        if len(row) != len(RECORD_FIELDS):
            raise DataError(f"{path}: row {li} malformed")
        try:
            out.append(
                EvalRecord(
                    panel=row[0], mode=row[1], series=row[2], n=int(row[3]),
                    m=int(row[4]), origin=date.fromisoformat(row[5]),
                    rmse=float(row[6]), mape=float(row[7]), skipped=int(row[8]),
                    regime=row[9],
                )
            )
        except ValueError as exc:
            raise DataError(f"{path}: row {li}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# aggregation


def group_by(records: list[EvalRecord], key) -> dict:
    """Records grouped by key(record), each list in record order: every
    aggregate over canonical records sums the same values in the same order."""
    groups: dict = {}
    for r in records:
        groups.setdefault(key(r), []).append(r)
    return groups


def _mean_std(vals: list[float]) -> tuple[float, float]:
    arr = np.asarray(vals, dtype=np.float64)
    if arr.size == 1 or arr.max() == arr.min():
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))


def panel_sort_key(panel: str):
    return (PANEL_ORDER.index(panel) if panel in PANEL_ORDER else len(PANEL_ORDER), panel)


def aggregate_mode(records: list[EvalRecord]) -> list[dict]:
    """Per (panel, mode) mean/std of MAPE and RMSE (sample std, N-1)."""
    groups = group_by(records, lambda r: (r.panel, r.mode))
    rows = []
    for (panel, mode) in sorted(groups, key=lambda k: (panel_sort_key(k[0]), k[1])):
        rs = groups[(panel, mode)]
        mp_mean, mp_std = _mean_std([r.mape for r in rs])
        rm_mean, rm_std = _mean_std([r.rmse for r in rs])
        rows.append(
            {"panel": panel, "mode": mode, "mape_mean": mp_mean, "mape_std": mp_std,
             "rmse_mean": rm_mean, "rmse_std": rm_std, "n_records": len(rs)}
        )
    return rows


def compare_series(records: list[EvalRecord]) -> list[dict]:
    """Per-series MV vs UV table; improvements are UV mean minus MV mean."""
    groups = group_by(records, lambda r: (r.panel, r.series))
    rows = []
    for (panel, series) in sorted(groups, key=lambda k: (panel_sort_key(k[0]), k[1])):
        by_mode = group_by(groups[(panel, series)], lambda r: r.mode)
        if "MV" not in by_mode or "UV" not in by_mode:
            logger.warning("series %s/%s lacks one mode; omitted from comparison", panel, series)
            continue
        mape_mv = float(np.mean([r.mape for r in by_mode["MV"]]))
        mape_uv = float(np.mean([r.mape for r in by_mode["UV"]]))
        rmse_mv = float(np.mean([r.rmse for r in by_mode["MV"]]))
        rmse_uv = float(np.mean([r.rmse for r in by_mode["UV"]]))
        rows.append(
            {"panel": panel, "series": series,
             "mape_mv": mape_mv, "mape_uv": mape_uv,
             "rmse_mv": rmse_mv, "rmse_uv": rmse_uv,
             "mape_improvement": mape_uv - mape_mv,
             "rmse_improvement": rmse_uv - rmse_mv}
        )
    return rows


# ---------------------------------------------------------------------------
# artifacts


def _canonical_records(records: list[EvalRecord]) -> list[EvalRecord]:
    return sorted(
        records,
        key=lambda r: (panel_sort_key(r.panel), r.mode, r.n, r.m, r.origin, r.series),
    )


def _write_csv(path: Path, header: list[str] | tuple[str, ...], rows: list[list]) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return FLOAT_FMT % x if isinstance(x, float) else str(x)


def _cells(rows: list[dict], columns: tuple[str, ...]) -> list[list[str]]:
    return [[_fmt(r[c]) for c in columns] for r in rows]


def _mean_mape(groups: dict, key) -> str:
    """The formatted mean MAPE of one group; empty when the group is absent."""
    rs = groups.get(key)
    return FLOAT_FMT % float(np.mean([r.mape for r in rs])) if rs else ""


def emit_artifacts(
    records: list[EvalRecord], out_dir, cutoff: date = DEFAULT_CUTOFF
) -> tuple[dict[str, Path], list[dict], list[dict]]:
    """Write the table/figure-feed CSVs; deterministic bytes per input.

    Files: table1.csv (per panel x mode aggregates), table2.csv (per-series
    MV/UV with improvements; the combined panel's rows are its own dataset
    label), heatmap.csv (n rows x mode-by-horizon mean MAPE, pooled over
    panels), timeseries.csv (monthly mean MAPE per panel x mode),
    regime.csv (pre/post cutoff aggregates). Returns the paths and the rows
    of table1 and table2, all taken over the records in canonical order,
    each from one group_by pass.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = _canonical_records(records)
    rows1 = aggregate_mode(records)
    rows2 = compare_series(records)

    heat = group_by(records, lambda r: (r.n, r.mode, r.m))
    ns = sorted({n for n, _, _ in heat})
    ms = sorted({m for _, _, m in heat})
    modes = [mo for mo in MODE_ORDER if any(mode == mo for _, mode, _ in heat)]
    heat_rows = [
        [str(n)] + [_mean_mape(heat, (n, mo, m)) for mo in modes for m in ms]
        for n in ns
    ]

    monthly = group_by(records, lambda r: (r.origin.year, r.origin.month, r.panel, r.mode))
    months = sorted({(y, mth) for y, mth, _, _ in monthly})
    panels_present = sorted({p for _, _, p, _ in monthly}, key=panel_sort_key)
    ts_rows = [
        [f"{y:04d}-{mth:02d}"]
        + [_mean_mape(monthly, (y, mth, p, mo)) for p in panels_present for mo in modes]
        for (y, mth) in months
    ]

    sides = group_by(records, lambda r: "pre" if r.origin < cutoff else "post")
    reg_rows = [
        [side] + cells
        for side in ("pre", "post")
        for cells in _cells(aggregate_mode(sides.get(side, [])), TABLE1_COLUMNS)
    ]

    tables = {
        "table1": (TABLE1_COLUMNS, _cells(rows1, TABLE1_COLUMNS)),
        "table2": (TABLE2_COLUMNS, _cells(rows2, TABLE2_COLUMNS)),
        "heatmap": (["n"] + [f"{mo}_m{m}" for mo in modes for m in ms], heat_rows),
        "timeseries": (["month"] + [f"{p}_{mo}" for p in panels_present for mo in modes], ts_rows),
        "regime": (("regime",) + TABLE1_COLUMNS, reg_rows),
    }
    paths: dict[str, Path] = {}
    for name, (header, rows) in tables.items():
        paths[name] = out_dir / f"{name}.csv"
        _write_csv(paths[name], header, rows)
    return paths, rows1, rows2
