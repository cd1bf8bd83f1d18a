"""Rolling-origin evaluation: forecast grids, metrics, tables, artifacts.

Forecasts launch on the first trading day of each calendar month, starting
three years after the panel begins, provided the origin admits n prior and
m subsequent trading days. The context never includes the origin date;
realized values are the m trading days starting at the origin. One
EvalRecord is written per (panel, mode, series, n, m, origin), averaging
within the origin first.

Grid cells are independent; with workers > 1 they run on a fork pool and
results come back in canonical order, so worker count never changes the
output bytes.
"""

import csv
import logging
import multiprocessing
import os
from contextlib import ExitStack
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from . import model as M
from .errors import DataError, DegenerateInputError
from .panels import SeriesPanel, slice_context

logger = logging.getLogger(__name__)

MAPE_SKIP_THRESHOLD = 1e-8
DEFAULT_CUTOFF = date(2023, 1, 1)
DEFAULT_CONTEXTS = (126, 252, 504, 756)
DEFAULT_HORIZONS = (21, 63)
PANEL_ORDER = ("stocks", "rates", "combined")
MODE_ORDER = ("MV", "UV")

FLOAT_FMT = "%.17g"

RECORD_FIELDS = ("panel", "mode", "series", "n", "m", "origin", "rmse", "mape", "skipped", "regime")


@dataclass(frozen=True)
class ExperimentSpec:
    """One (panel, mode, n, m) slice of the evaluation grid."""

    panel: str
    mode: str
    n: int
    m: int
    start_years_after: int = 3
    cadence: str = "monthly"
    cutoff: date = DEFAULT_CUTOFF

    def __post_init__(self):
        if self.cadence != "monthly":
            raise ValueError(f"only monthly cadence is supported, got {self.cadence!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError(f"n and m must be positive, got n={self.n}, m={self.m}")


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


def rmse(actual: np.ndarray, forecast: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Root mean squared error over observed cells."""
    actual = np.asarray(actual, dtype=np.float64)
    forecast = np.asarray(forecast, dtype=np.float64)
    if actual.shape != forecast.shape or actual.size == 0:
        raise DegenerateInputError(
            f"rmse needs equal non-empty shapes, got {actual.shape} vs {forecast.shape}"
        )
    keep = np.ones(actual.shape, dtype=bool) if mask is None else np.asarray(mask) > 0
    if not keep.any():
        raise DegenerateInputError("rmse: no observed cells")
    err = actual[keep] - forecast[keep]
    return float(np.sqrt(np.mean(err * err)))


def mape(
    actual: np.ndarray, forecast: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, int]:
    """Mean |(a - f) / a| over observed cells; near-zero actuals are
    skipped and counted rather than epsilon-floored."""
    actual = np.asarray(actual, dtype=np.float64)
    forecast = np.asarray(forecast, dtype=np.float64)
    if actual.shape != forecast.shape or actual.size == 0:
        raise DegenerateInputError(
            f"mape needs equal non-empty shapes, got {actual.shape} vs {forecast.shape}"
        )
    keep = np.ones(actual.shape, dtype=bool) if mask is None else np.asarray(mask) > 0
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
    """Wraps the trained model; point path is one quantile level."""

    needs_truth = False

    def __init__(self, weights: dict, config: M.ModelConfig, point_quantile: float = 0.5):
        self.weights = weights
        self.config = config
        levels = np.asarray(config.quantile_levels)
        self.level_index = int(np.argmin(np.abs(levels - point_quantile)))

    def forecast_panel(self, context_values, context_mask, mode, m, realized=None):
        fc = M.predict(context_values, context_mask, mode, m, self.weights, self.config)
        return fc.values[:, :, self.level_index]


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
    p = PANEL_ORDER.index(spec.panel) if spec.panel in PANEL_ORDER else len(PANEL_ORDER)
    mo = MODE_ORDER.index(spec.mode) if spec.mode in MODE_ORDER else len(MODE_ORDER)
    return (p, spec.panel, mo, spec.n, spec.m)


_POOL_STATE: dict = {}


def _init_pool(panels, forecaster):
    _POOL_STATE["panels"] = panels
    _POOL_STATE["forecaster"] = forecaster


def _eval_cell(args):
    spec, origin = args
    return evaluate_cell(_POOL_STATE["panels"][spec.panel], spec, origin, _POOL_STATE["forecaster"])


def evaluate_cell(
    panel: SeriesPanel, spec: ExperimentSpec, origin: date, forecaster
) -> tuple[list[EvalRecord], list[dict]]:
    """All per-series records for one (spec, origin) grid cell."""
    records: list[EvalRecord] = []
    skips: list[dict] = []

    def skip_all(reason):
        for sid in panel.series_ids:
            skips.append(
                {"panel": spec.panel, "mode": spec.mode, "series": sid, "n": spec.n,
                 "m": spec.m, "origin": origin.isoformat(), "reason": reason}
            )

    ctx = slice_context(panel, origin, spec.n)
    if ctx is None:
        skip_all("insufficient history")
        return records, skips
    ctx_values, ctx_mask = ctx
    oi = panel.date_index()[origin]
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
    except Exception as exc:  # per-origin failures never kill the grid
        logger.warning("forecast failed at %s %s n=%d m=%d %s: %s",
                       spec.panel, spec.mode, spec.n, spec.m, origin, exc)
        skip_all(f"forecast error: {exc}")
        return records, skips
    for k, sid in enumerate(panel.series_ids):
        try:
            r = rmse(realized[k], point[k], realized_mask[k])
            mp, nskip = mape(realized[k], point[k], realized_mask[k])
        except DegenerateInputError as exc:
            skips.append(
                {"panel": spec.panel, "mode": spec.mode, "series": sid, "n": spec.n,
                 "m": spec.m, "origin": origin.isoformat(), "reason": str(exc)}
            )
            continue
        records.append(
            EvalRecord(
                panel=spec.panel, mode=spec.mode, series=sid, n=spec.n, m=spec.m,
                origin=origin, rmse=r, mape=mp, skipped=nskip, regime=regime,
            )
        )
    return records, skips


def run_grid(
    specs: list[ExperimentSpec],
    panels: dict[str, SeriesPanel],
    forecaster,
    records_path=None,
    workers: int = 1,
) -> tuple[list[EvalRecord], list[dict]]:
    """Evaluate every (spec, origin) cell; stream records incrementally.

    Each cell's rows are written and flushed as soon as the cell completes,
    in canonical order regardless of workers. Cells already present in
    records_path are skipped, so a rerun after a crash resumes where the
    file ends and writes the same bytes as an uninterrupted run.
    """
    specs = sorted(specs, key=_canonical_spec_key)
    done: set = set()
    existing: list[EvalRecord] = []
    path = None if records_path is None else Path(records_path)
    if path is not None and path.exists():
        _cut_torn_cell(path)
    new_file = path is not None and (not path.exists() or path.stat().st_size == 0)
    if path is not None and not new_file:
        existing = read_records(path)
        done = {(r.panel, r.mode, r.n, r.m, r.origin) for r in existing}
    cells = []
    for spec in specs:
        panel = panels[spec.panel]
        for origin in rolling_origins(panel, spec):
            if (spec.panel, spec.mode, spec.n, spec.m, origin) in done:
                continue
            cells.append((spec, origin))

    records: list[EvalRecord] = list(existing)
    skips: list[dict] = []
    with ExitStack() as stack:
        writer = None
        if path is not None:
            fh = stack.enter_context(open(path, "a", newline=""))
            writer = csv.writer(fh)
            if new_file:
                writer.writerow(RECORD_FIELDS)
                fh.flush()
        if workers > 1 and len(cells) > 1:
            ctx = multiprocessing.get_context("fork")
            pool = stack.enter_context(
                ctx.Pool(workers, initializer=_init_pool, initargs=(panels, forecaster))
            )
            results = pool.imap(_eval_cell, cells, chunksize=max(1, len(cells) // (workers * 4)))
        else:
            results = (evaluate_cell(panels[s.panel], s, o, forecaster) for s, o in cells)
        for cell_records, cell_skips in results:
            records.extend(cell_records)
            skips.extend(cell_skips)
            if writer is not None:
                writer.writerows(_record_row(r) for r in cell_records)
                fh.flush()
    return records, skips


def _record_row(r: EvalRecord) -> list:
    return [
        r.panel, r.mode, r.series, r.n, r.m, r.origin.isoformat(),
        FLOAT_FMT % r.rmse, FLOAT_FMT % r.mape, r.skipped, r.regime,
    ]


def _cell_of(line: bytes) -> list[bytes]:
    fields = line.split(b",")
    return fields[:2] + fields[3:6]  # panel, mode, n, m, origin


def _cut_torn_cell(path: Path) -> None:
    """Cut an unterminated final row together with the rows of the last cell.

    A crash can tear the row being written. Rows are written a cell at a
    time, so the torn row's cell may be incomplete; the rerun computes the
    last cell again.
    """
    with open(path, "r+b") as fh:
        lines = fh.read().splitlines(keepends=True)
        if not lines or lines[-1].endswith(b"\n"):
            return
        torn = lines.pop()
        keep = len(lines)
        while keep > 1 and _cell_of(lines[keep - 1]) == _cell_of(lines[-1]):
            keep -= 1
        fh.truncate(sum(map(len, lines[:keep])))
    logger.warning(
        "%s: cut unterminated final row %r and the %d rows of the last cell",
        path, torn, len(lines) - keep,
    )


def read_records(path) -> list[EvalRecord]:
    """Parse records.csv; an unterminated final row is dropped and logged."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        logger.warning("%s: dropped unterminated final row %r", path, lines.pop())
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != list(RECORD_FIELDS):
        raise DataError(f"{path}: unexpected records header {header}")
    out = []
    for li, row in enumerate(reader, start=2):
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


def _mean_std(vals: list[float]) -> tuple[float, float]:
    arr = np.asarray(vals, dtype=np.float64)
    if arr.size == 1 or arr.max() == arr.min():
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))


def panel_sort_key(panel: str):
    return (PANEL_ORDER.index(panel) if panel in PANEL_ORDER else len(PANEL_ORDER), panel)


def aggregate_mode(records: list[EvalRecord]) -> list[dict]:
    """Per (panel, mode) mean/std of MAPE and RMSE (sample std, N-1)."""
    groups: dict[tuple, list[EvalRecord]] = {}
    for r in records:
        groups.setdefault((r.panel, r.mode), []).append(r)
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
    groups: dict[tuple, dict[str, list[EvalRecord]]] = {}
    for r in records:
        groups.setdefault((r.panel, r.series), {}).setdefault(r.mode, []).append(r)
    rows = []
    for (panel, series) in sorted(groups, key=lambda k: (panel_sort_key(k[0]), k[1])):
        by_mode = groups[(panel, series)]
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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write beside the target, then rename: a failed write leaves the old file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x) -> str:
    return FLOAT_FMT % x if isinstance(x, float) else str(x)


def emit_artifacts(
    records: list[EvalRecord], out_dir, cutoff: date = DEFAULT_CUTOFF
) -> dict[str, Path]:
    """Write the table/figure-feed CSVs; deterministic bytes per input.

    Files: table1.csv (per panel x mode aggregates), table2.csv (per-series
    MV/UV with improvements; the combined panel's rows are its own dataset
    label), heatmap.csv (n rows x mode-by-horizon mean MAPE, pooled over
    panels), timeseries.csv (monthly mean MAPE per panel x mode),
    regime.csv (pre/post cutoff aggregates).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = _canonical_records(records)
    paths: dict[str, Path] = {}

    rows1 = aggregate_mode(records)
    paths["table1"] = out_dir / "table1.csv"
    _write_csv(
        paths["table1"],
        ["panel", "mode", "mape_mean", "mape_std", "rmse_mean", "rmse_std", "n_records"],
        [[_fmt(r[c]) for c in ("panel", "mode", "mape_mean", "mape_std", "rmse_mean", "rmse_std", "n_records")] for r in rows1],
    )

    rows2 = compare_series(records)
    paths["table2"] = out_dir / "table2.csv"
    _write_csv(
        paths["table2"],
        ["panel", "series", "mape_mv", "mape_uv", "rmse_mv", "rmse_uv", "mape_improvement", "rmse_improvement"],
        [[_fmt(r[c]) for c in ("panel", "series", "mape_mv", "mape_uv", "rmse_mv", "rmse_uv", "mape_improvement", "rmse_improvement")] for r in rows2],
    )

    ns = sorted({r.n for r in records})
    ms = sorted({r.m for r in records})
    modes = [mo for mo in MODE_ORDER if any(r.mode == mo for r in records)]
    header = ["n"] + [f"{mo}_m{m}" for mo in modes for m in ms]
    heat_rows = []
    for n in ns:
        row = [str(n)]
        for mo in modes:
            for m in ms:
                vals = [r.mape for r in records if r.n == n and r.m == m and r.mode == mo]
                row.append(FLOAT_FMT % float(np.mean(vals)) if vals else "")
        heat_rows.append(row)
    paths["heatmap"] = out_dir / "heatmap.csv"
    _write_csv(paths["heatmap"], header, heat_rows)

    months = sorted({(r.origin.year, r.origin.month) for r in records})
    panels_present = sorted({r.panel for r in records}, key=panel_sort_key)
    ts_header = ["month"] + [f"{p}_{mo}" for p in panels_present for mo in modes]
    ts_rows = []
    for (y, mth) in months:
        row = [f"{y:04d}-{mth:02d}"]
        for p in panels_present:
            for mo in modes:
                vals = [
                    r.mape
                    for r in records
                    if r.panel == p and r.mode == mo and (r.origin.year, r.origin.month) == (y, mth)
                ]
                row.append(FLOAT_FMT % float(np.mean(vals)) if vals else "")
        ts_rows.append(row)
    paths["timeseries"] = out_dir / "timeseries.csv"
    _write_csv(paths["timeseries"], ts_header, ts_rows)

    reg_rows = []
    for side in ("pre", "post"):
        side_records = [
            r for r in records if (r.origin < cutoff) == (side == "pre")
        ]
        for row in aggregate_mode(side_records):
            reg_rows.append(
                [side, row["panel"], row["mode"], _fmt(row["mape_mean"]), _fmt(row["mape_std"]),
                 _fmt(row["rmse_mean"]), _fmt(row["rmse_std"]), str(row["n_records"])]
            )
    paths["regime"] = out_dir / "regime.csv"
    _write_csv(
        paths["regime"],
        ["regime", "panel", "mode", "mape_mean", "mape_std", "rmse_mean", "rmse_std", "n_records"],
        reg_rows,
    )
    return paths
