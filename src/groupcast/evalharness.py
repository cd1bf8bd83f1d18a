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
it back to the cells at its head that run in this grid's canonical order
with this grid's regimes, all but the last of them (panels.resume_log), and
computes the rest, so the file ends as one run of this grid and a crash
loses only that cell and the computed cells still waiting to be written.
"""

import csv
import logging
import multiprocessing
from bisect import bisect_left
from contextlib import ExitStack
from dataclasses import dataclass, fields
from datetime import date
from itertools import chain, compress, groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import model as M
from .errors import ConfigError, DataError, DegenerateInputError, ShapeError
from .panels import FLOAT_FMT, SeriesPanel, atomic_open, open_text, resume_log, slice_context

logger = logging.getLogger(__name__)

MAPE_SKIP_THRESHOLD = 1e-8
DEFAULT_CUTOFF = date(2023, 1, 1)
DEFAULT_CONTEXTS = (126, 252, 504, 756)
DEFAULT_HORIZONS = (21, 63)
PANEL_ORDER = ("stocks", "rates", "combined")

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
        if self.mode not in M.MODES:
            raise ConfigError(f"mode must be one of {M.MODES}, got {self.mode!r}")
        if self.start_years_after < 0:
            raise ConfigError(f"start_years_after must be >= 0, got {self.start_years_after}")


@dataclass(frozen=True)
class EvalRecord:
    """One row of records.csv: its fields, in order, are the file's columns.
    A float is written at FLOAT_FMT and a date in ISO form; each column is
    read back with its field's type."""

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


RECORD_FIELDS = tuple(f.name for f in fields(EvalRecord))
RECORDS_HEADER = ",".join(RECORD_FIELDS) + "\r\n"  # as csv.writer writes it
_record_values = attrgetter(*RECORD_FIELDS)
# per column: how a value is written (None: as it is) and how it is read
_WRITE = tuple({float: FLOAT_FMT.__mod__, date: date.isoformat}.get(f.type) for f in fields(EvalRecord))
_READ = tuple({date: date.fromisoformat}.get(f.type, f.type) for f in fields(EvalRecord))
_MODE_COLUMN, _REGIME_COLUMN = RECORD_FIELDS.index("mode"), RECORD_FIELDS.index("regime")
REGIMES = ("pre", "post")  # a record's regime: its origin before the cutoff, or on or after it


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

    A date opens its month when the date before it lies in another month.
    Eligibility starts with the month that lies start_years_after years
    after the panel's first date (month granularity); a start past the
    calendar's last year leaves no origin.
    """
    if panel.dates[0].year + spec.start_years_after > date.max.year:
        return []
    earliest = _add_years(panel.dates[0], spec.start_years_after)
    start_month = (earliest.year, earliest.month)
    last = panel.n_dates - spec.m
    out = []
    prev = None
    for i, d in enumerate(panel.dates):
        month = (d.year, d.month)
        if month != prev and month >= start_month and spec.n <= i <= last:
            out.append(d)
        prev = month
    return out


# ---------------------------------------------------------------------------
# forecasters


class ModelForecaster:
    """Wraps the trained model; the point forecast is the middle of the 21
    quantile levels (M.MEDIAN_INDEX, the median at the default levels),
    read from the last config.max_context days of a context.

    It keeps the trunk of the last context it forecast (see model.trunk),
    keyed on the bytes of the context values and mask and on the horizon,
    so the MV and UV forecasts of one context, computed back to back,
    build it once. The weights must not change while it is in use.
    """

    needs_truth = False

    def __init__(self, weights: dict, config: M.ModelConfig):
        self.weights = weights
        self.config = config
        self.max_context = config.max_context
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
        return M.finish(self._trunk, gids, self.weights, self.config)[:, :, M.MEDIAN_INDEX]


def _array_key(a: np.ndarray) -> tuple:
    """A copy of everything that identifies an array's value, bit for bit."""
    return a.shape, a.dtype.str, a.tobytes()


class LastValueStub:
    """Repeats each series' last observed value in the whole context (a
    series with none is skipped by evaluate_cell); harness self-test."""

    needs_truth = False
    max_context = np.inf

    def forecast_panel(self, context_values, context_mask, mode, m, realized=None):
        ctx = np.asarray(context_values, dtype=np.float64)
        last = ctx.shape[1] - 1 - np.argmax(np.asarray(context_mask)[:, ::-1] > 0, axis=1)
        return np.repeat(ctx[np.arange(ctx.shape[0]), last][:, None], m, axis=1)


class PerfectForesightStub:
    """Replays the realized future; yields exactly zero error."""

    needs_truth = True
    max_context = np.inf

    def forecast_panel(self, context_values, context_mask, mode, m, realized=None):
        values, _mask = realized
        return np.asarray(values, dtype=np.float64).copy()


STUB_FORECASTERS = {
    "last-value": LastValueStub,
    "perfect-foresight": PerfectForesightStub,
}


# ---------------------------------------------------------------------------
# the grid


def _canonical_key(x) -> tuple:
    """The canonical order of specs, cells and records (anything with a
    panel, mode, n and m): panel as panel_sort_key, mode as in M.MODES, n, m."""
    return panel_sort_key(x.panel) + (M.MODES.index(x.mode), x.n, x.m)


_POOL_STATE: dict = {}  # run_grid's panels and forecaster while it runs


def _eval_run(run):
    """The results of one run of cells that share a context, in order."""
    panels, forecaster = _POOL_STATE["panels"], _POOL_STATE["forecaster"]
    return [evaluate_cell(panels[spec.panel], spec, origin, forecaster) for spec, origin in run]


def evaluate_cell(
    panel: SeriesPanel, spec: ExperimentSpec, origin: date, forecaster
) -> tuple[list[EvalRecord], list[dict]]:
    """All per-series records for one (spec, origin) grid cell, and a skip
    for each series that has none.

    A series with no observed value in the window the forecaster reads,
    the last min(spec.n, forecaster.max_context) days before the origin,
    is skipped ("no observed context") and the others are forecast
    without it, in MV as one group.
    A forecast that raises or is not of the realized shape skips every
    series it covers as a forecast error. Otherwise fully observed rows
    with no actual below MAPE_SKIP_THRESHOLD are scored together in
    whole-array ops (see _whole_array_scores); the other rows fall back to
    rmse and mape one at a time. The records and skip reasons are those of
    calling rmse and mape on every row. An origin that is not a panel date
    with spec.n dates before it (grid_plan plans none) raises KeyError.
    """
    records: list[EvalRecord] = []
    skips: list[dict] = []

    def skip(sid, reason):
        skips.append(
            {"panel": spec.panel, "mode": spec.mode, "series": sid, "n": spec.n,
             "m": spec.m, "origin": origin.isoformat(), "reason": reason}
        )

    oi = bisect_left(panel.dates, origin)
    if oi < spec.n or oi == panel.n_dates or panel.dates[oi] != origin:
        raise KeyError(f"origin {origin} is not a date of panel {spec.panel} with {spec.n} dates before it")
    ctx_values, ctx_mask = slice_context(panel, origin, min(spec.n, forecaster.max_context))
    realized = panel.values[:, oi : oi + spec.m]
    realized_mask = panel.mask[:, oi : oi + spec.m]
    regime = regime_of(spec, origin)
    ids = panel.series_ids
    seen = (ctx_mask > 0).any(axis=1)
    if not seen.all():  # only then a copy: a fully observed cell passes the arrays it always did
        for sid in compress(ids, ~seen):
            skip(sid, "no observed context")
        ids = list(compress(ids, seen))
        ctx_values, ctx_mask = ctx_values[seen], ctx_mask[seen]
        realized, realized_mask = realized[seen], realized_mask[seen]
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
        for sid in ids:
            skip(sid, f"forecast error: {exc}")
        return records, skips
    whole = _whole_array_scores(realized, realized_mask, point)
    for k, sid in enumerate(ids):
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


def regime_of(spec: ExperimentSpec, origin: date) -> str:
    """The regime of a cell's records: "pre" before spec.cutoff, else "post"."""
    return "pre" if origin < spec.cutoff else "post"


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
    p, panel, mo, n, m = _canonical_key(spec)
    return (p, panel, n, m, origin, mo)


def grid_plan(specs: list[ExperimentSpec], panels: dict[str, SeriesPanel]) -> dict[ExperimentSpec, list[date]]:
    """The grid: each distinct spec in canonical order, mapped to its rolling
    origins on its panel. A spec given more than once is evaluated once; a
    spec with no origin maps to an empty list. Its (spec, origin) pairs, in
    order, are the grid's cells in canonical order."""
    specs = sorted(dict.fromkeys(specs), key=_canonical_key)
    return {spec: rolling_origins(panels[spec.panel], spec) for spec in specs}


def run_grid(
    plan: dict[ExperimentSpec, list[date]],
    panels: dict[str, SeriesPanel],
    forecaster,
    records_path=None,
    workers: int = 1,
) -> tuple[list[EvalRecord], list[dict], int]:
    """Evaluate every (spec, origin) cell of a grid_plan; stream records incrementally.

    Returns every record in canonical order (those already in records_path
    first), the skips of the cells computed in this run, and their number.

    Cells are computed in pairing order (panel, n, m, origin, mode), one run
    of cells per context, so the modes of one context run back to back and
    ModelForecaster builds its trunk once. With workers above 1 a pool is
    handed whole runs, so the modes of a context never land on different
    workers. Rows are written in canonical order (panel, mode, n, m,
    origin), whatever the worker count: a cell's rows are written and
    flushed as soon as every cell before it in that order is done, and
    computed cells wait in memory until then. A rerun keeps the cells at the
    head of records_path while they are this grid's cells in canonical
    order, one after another, with the regime this grid gives them
    (regime_of), drops the rows after them (see panels.resume_log), and
    computes the last one kept, whose rows a crash may have cut short, and
    every cell after it. A cell with no rows ends the kept run. So a rerun
    writes the bytes of one uninterrupted run of this grid, whatever the
    file held, and a crash loses only that cell and the cells still
    waiting. A records_path that does not start with the records header,
    or that holds a malformed whole row, raises DataError.
    """
    cells = [(spec, origin) for spec, origins in plan.items() for origin in origins]
    existing: list[EvalRecord] = []
    start = 0  # the first cell this run computes
    path = None if records_path is None else Path(records_path)
    if path is not None:

        def keep(rows):
            nonlocal start
            runs = [list(run) for _, run in groupby(_parse_records(rows, path), key=_cell_key)]
            for run, (s, o) in zip(runs, cells):
                if _cell_key(run[0]) != (s.panel, s.mode, s.n, s.m, o) or run[0].regime != regime_of(s, o):
                    break
                start += 1
            start = max(start - 1, 0)
            existing.extend(chain.from_iterable(runs[:start]))
            return len(existing)

        resume_log(path, RECORDS_HEADER, keep)
    cells = cells[start:]
    order = sorted(range(len(cells)), key=lambda i: _pairing_key(cells[i]))
    runs = [list(run) for _, run in groupby((cells[i] for i in order), key=lambda c: _pairing_key(c)[:-1])]

    records: list[EvalRecord] = list(existing)
    skips: list[dict] = []
    with ExitStack() as stack:
        writer = None
        if path is not None:
            fh = stack.enter_context(open(path, "a", newline=""))
            writer = csv.writer(fh)
        _POOL_STATE.update(panels=panels, forecaster=forecaster)  # forked workers inherit it
        stack.callback(_POOL_STATE.clear)
        if workers > 1 and len(runs) > 1:
            pool = stack.enter_context(multiprocessing.get_context("fork").Pool(workers))
            chunks = pool.imap(_eval_run, runs, chunksize=max(1, len(runs) // (workers * 4)))
        else:
            chunks = map(_eval_run, runs)
        results = chain.from_iterable(chunks)
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
    return [v if write is None else write(v) for write, v in zip(_WRITE, _record_values(r))]


def _cell_key(r: EvalRecord) -> tuple:
    return r.panel, r.mode, r.n, r.m, r.origin


def read_records(path) -> list[EvalRecord]:
    """Parse records.csv; an unterminated final row is dropped and logged."""
    with open_text(path) as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        logger.warning("%s: dropped unterminated final row %r", path, lines.pop())
    header = next(csv.reader(lines[:1]), None)
    if header != list(RECORD_FIELDS):
        raise DataError(f"{path}: unexpected records header {header}")
    return _parse_records(lines[1:], path)


def _parse_records(lines: list[str], path) -> list[EvalRecord]:
    """The records of the whole rows that follow the header of records.csv;
    a malformed row, one with a mode not in M.MODES or a regime not in
    REGIMES included, raises DataError naming its line."""
    out = []
    for li, row in enumerate(csv.reader(lines), start=2):
        if len(row) != len(RECORD_FIELDS) or row[_MODE_COLUMN] not in M.MODES or row[_REGIME_COLUMN] not in REGIMES:
            raise DataError(f"{path}: row {li} malformed")
        try:
            out.append(EvalRecord(*(read(v) for read, v in zip(_READ, row))))
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
    for (panel, mode) in sorted(groups, key=lambda k: panel_sort_key(k[0]) + (M.MODES.index(k[1]),)):
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
    return sorted(records, key=lambda r: _canonical_key(r) + (r.origin, r.series))


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


def emit_artifacts(records: list[EvalRecord], out_dir) -> tuple[dict[str, Path], list[dict], list[dict]]:
    """Write the table/figure-feed CSVs; deterministic bytes per input.

    Files: table1.csv (per panel x mode aggregates), table2.csv (per-series
    MV/UV with improvements; the combined panel's rows are its own dataset
    label), heatmap.csv (n rows x mode-by-horizon mean MAPE, pooled over
    panels), timeseries.csv (monthly mean MAPE per panel x mode),
    regime.csv (per panel x mode aggregates by each record's regime, which
    evaluate_cell set from the evaluate cutoff). Returns the paths and the rows
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
    modes = [mo for mo in M.MODES if any(mode == mo for _, mode, _ in heat)]
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

    sides = group_by(records, lambda r: r.regime)
    reg_rows = [
        [side] + cells
        for side in REGIMES
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
