"""Command-line entry point.

Subcommands wire the library into the full workflow:

    groupcast synth    --config synth.json            # datasets + provenance
    groupcast train    --config train.json            # curriculum -> checkpoint
    groupcast evaluate --config eval.json             # rolling grid -> records + tables
    groupcast report   --records records.csv          # regenerate artifact CSVs
    groupcast panel validate --path stocks.csv --ids stocks

Each command's config keys and their defaults are one table below
(SYNTH_KEYS, TRAIN_CMD_KEYS, EVAL_KEYS, REPORT_KEYS). Later layers win:
the defaults, a JSON ``--config`` file, each ``--set dotted.key=value``
(value parsed as JSON, falling back to string), then the flags. Each value
is checked once, as its layer assigns it (_assign): an unknown key or a
malformed value is a config error. GROUPCAST_OUT provides the
default output directory. Exit codes, which ``main`` alone maps: 0 ok,
2 config error, 3 training abort, 4 load failure (a file that cannot be
opened, read or written, or a corrupt checkpoint), 5 malformed data.
"""

import argparse
import copy
import json
import os
import sys
import time
from collections import Counter
from collections.abc import Callable
from datetime import date
from functools import partial
from pathlib import Path

import numpy as np

from . import evalharness as E
from . import model as M
from . import synthdata as S
from . import train as TR
from .checkpoint import load_checkpoint
from .config import same_kind
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    GroupcastError,
    TrainingAbort,
)
from .panels import PANEL_IDS, build_combined, load_csv_panel, panel_summary
from .rng import PortableRng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAIN_ABORT = 3
EXIT_LOAD = 4
EXIT_MALFORMED = 5


def _default_out() -> str:
    return os.environ.get("GROUPCAST_OUT", "groupcast_out")


def _load_config(args, table: dict) -> dict:
    """The command's config, built in layers: the table's defaults, then the
    --config file, then each --set, then each flag given (a flag's dest is
    the dotted key it sets). An object given for a section replaces what
    earlier layers put there; the keys it omits keep their defaults."""
    cfg = copy.deepcopy(table)
    layers: list[tuple[str, object]] = []
    if args.config:
        try:  # an OSError is a load failure; see main
            from_file = json.loads(Path(args.config).read_text())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(from_file, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        layers += from_file.items()
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        layers.append((key, value))
    layers += [(k, v) for k, v in vars(args).items() if v is not None and k.split(".")[0] in table]
    for key, value in layers:
        _assign(cfg, table, key, value)
    return cfg


# The kind of each key whose default is None ("not set"). A None field of
# the model or train section is its config class's to check.
UNSET_KINDS = dict.fromkeys(
    ("out_dir", "data_dir", "resume", "checkpoint", "panels.stocks", "panels.rates", "records", "stub"), str | None
) | {"workers": int | None, "seed": int | None}


def _assign(cfg: dict, table: dict, key: str, value) -> None:
    """Set the dotted key of cfg, checked against the key table: the key must
    exist, a section takes an object, and a leaf a value of one kind by
    config.same_kind (a bool only for a bool, any number for a float): its
    default's kind, or UNSET_KINDS' for a None default. A list whose
    default has elements takes elements of their kind."""
    node, known = cfg, table
    *path, leaf = key.split(".")
    for part in path:
        known = known.get(part)
        if not isinstance(known, dict):
            raise ConfigError(f"unknown config key {key!r}")
        node = node[part]
    if leaf not in known:
        raise ConfigError(f"unknown config key {key!r}")
    default = known[leaf]
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {key!r} takes an object, got {value!r}")
        node[leaf] = copy.deepcopy(default)
        for sub, v in value.items():
            _assign(cfg, table, f"{key}.{sub}", v)
        return
    kind = UNSET_KINDS.get(key, object) if default is None else type(default)
    if not same_kind(value, kind):
        raise ConfigError(f"config key {key!r} must be of type {getattr(kind, '__name__', kind)}, got {value!r}")
    if isinstance(default, list) and default and not all(same_kind(v, type(default[0])) for v in value):
        kind = type(default[0]).__name__
        raise ConfigError(f"config key {key!r} takes a list of {kind}, got {value!r}")
    node[leaf] = value


# Each command's keys and their defaults; None means "not set".
SYNTH_KEYS = {
    "out_dir": None,
    "seed": 0,
    "tsi": {"count": 0, "length": 1024},
    "tcm": {
        "count": 0, "length": 1024, "n_series_range": [2, 5],
        "lag_range": [1, 2], "edge_prob": 0.4,
    },
    "derived": {"count": 0, "length": 1024, "lag_choices": [8, 16]},
    "independent": {"count": 0, "length": 1024},
    "explicit_tsi": [],  # TsiSpec dicts
    "explicit_tcm": [],  # TcmSpec dicts
}

TRAIN_CMD_KEYS = {
    "out_dir": None,
    "data_dir": None,
    "resume": None,
    "model": M.ModelConfig().to_dict(),
    "train": TR.TrainConfig().to_dict(),
}

EVAL_KEYS = {
    "out_dir": None,
    "checkpoint": None,
    "panels": {"stocks": None, "rates": None},
    "include_combined": True,
    "modes": list(M.MODES),
    "contexts": list(E.DEFAULT_CONTEXTS),
    "horizons": list(E.DEFAULT_HORIZONS),
    "cutoff": E.DEFAULT_CUTOFF.isoformat(),
    "start_years_after": 3,
    "workers": None,  # all cores
    "seed": None,  # accepted and unused: a forward pass draws no randomness
    "stub": None,
}

REPORT_KEYS = {"records": None, "out_dir": None}


def _summary(command: str, start: float, count: int, unit: str, before: str = "", after: str = "") -> None:
    """Print one stderr line: the wall time since start (a perf_counter
    reading), the units done and their rate, with the command's own detail
    before and after them."""
    wall = time.perf_counter() - start
    rate = count / wall if wall > 0 else 0.0
    line = f"{command}: {wall:.2f} s wall, {before}{count} {unit} ({rate:.1f} {unit}/s){after}"
    print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    cfg = _load_config(args, SYNTH_KEYS)
    start = time.perf_counter()
    out_dir = Path(cfg["out_dir"] or _default_out())
    seed = cfg["seed"]
    # every input is checked before the first file is written: the family
    # sections here, each spec (sampled or explicit) when it is built
    for family in ("tsi", "tcm", "derived", "independent"):
        count, length = cfg[family]["count"], cfg[family]["length"]
        if count < 0 or length < 1:
            raise ConfigError(f"{family} needs count >= 0 and length >= 1, got {count} and {length}")
    der = cfg["derived"]
    if not der["lag_choices"] or min(der["lag_choices"]) < 0:
        raise ConfigError(f"derived.lag_choices needs one or more lags >= 0, got {der['lag_choices']}")
    root = PortableRng(seed)
    tsi, tcm, ind = cfg["tsi"], cfg["tcm"], cfg["independent"]
    tsi_specs = [
        S.sample_tsi_spec(root.spawn(10_000 + i), tsi["length"], seed=seed * 1_000_003 + i)
        for i in range(tsi["count"])
    ]
    tsi_specs += [S.TsiSpec.from_dict(d) for d in cfg["explicit_tsi"]]
    tcm_args = {k: v for k, v in tcm.items() if k != "count"}
    tcm_specs = [
        S.sample_tcm_spec(root.spawn(20_000 + i), seed=seed * 2_000_003 + i, **tcm_args)
        for i in range(tcm["count"])
    ]
    tcm_specs += [S.TcmSpec.from_dict(d) for d in cfg["explicit_tcm"]]
    # each family's makers in output order; make() returns (panel, provenance)
    makers: dict[str, list[Callable[[], tuple]]] = {
        "tsi": [lambda spec=spec: (S.tsi_generate(spec), spec.to_dict()) for spec in tsi_specs],
        "tcm": [lambda spec=spec: (S.tcm_generate(spec), spec.to_dict()) for spec in tcm_specs],
        "derived": [
            partial(S.make_cross_link_panel, root.spawn(30_000 + i), der["length"],
                    lag_choices=tuple(der["lag_choices"]))
            for i in range(der["count"])
        ],
        "independent": [
            partial(S.make_independent_panel, root.spawn(40_000 + i), ind["length"]) for i in range(ind["count"])
        ],
    }
    jobs = [(f"{kind}_{i:04d}", make) for kind, makes in makers.items() for i, make in enumerate(makes)]

    if jobs:
        out_dir.mkdir(parents=True, exist_ok=True)
    points = 0
    for name, make in jobs:
        stem = out_dir / name
        with np.errstate(all="ignore"):  # an overflow is caught below; files written so far stay
            panel, prov = make()
        if not np.isfinite(panel).all():
            raise ConfigError(f"{name}: the generated series are not all finite")
        S.save_panel_dataset(f"{stem}.csv", panel)
        S.save_provenance(f"{stem}.json", prov)
        points += panel.size
    _summary("synth", start, points, "points", before=f"{len(jobs)} datasets, ")
    print(f"wrote {len(jobs)} datasets to {out_dir}" if jobs else "no generator specs; nothing to do")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = _load_config(args, TRAIN_CMD_KEYS)
    out_dir = Path(cfg["out_dir"] or _default_out())
    if not cfg["data_dir"]:
        raise ConfigError("train needs data_dir (datasets from `groupcast synth`)")
    model_cfg = M.ModelConfig.from_dict(cfg["model"])
    train_cfg = TR.TrainConfig.from_dict(cfg["train"])
    corpus = TR.Corpus.from_dir(cfg["data_dir"])
    start = time.perf_counter()
    steps = TR.run_curriculum(model_cfg, train_cfg, corpus, out_dir, resume_from=cfg["resume"])
    _summary("train", start, steps, "steps")
    print(f"checkpoint: {out_dir / 'model.ckpt'}")
    print(f"training log: {out_dir / 'train_log.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _print_table(rows: list[dict], columns: tuple[str, ...], title: str) -> None:
    print(f"\n== {title}")
    if not rows:
        print("(no rows)")
        return
    widths = {c: max(len(c), *(len(_cell(r[c])) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        print("  ".join(_cell(r[c]).ljust(widths[c]) for c in columns))


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def cmd_evaluate(args) -> int:
    cfg = _load_config(args, EVAL_KEYS)
    stub, workers, ckpt = cfg["stub"], cfg["workers"], cfg["checkpoint"]
    if stub and stub not in E.STUB_FORECASTERS:
        raise ConfigError(f"unknown stub {stub!r}; choose from {sorted(E.STUB_FORECASTERS)}")
    if not stub and not ckpt:
        raise ConfigError("evaluate needs a checkpoint (or --stub for harness self-test)")
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be an integer >= 1 (null for all cores), got {workers!r}")
    try:
        cutoff = date.fromisoformat(cfg["cutoff"])
    except ValueError as exc:
        raise ConfigError(f"cutoff must be an ISO date: {exc}") from exc
    out_dir = Path(cfg["out_dir"] or _default_out())
    panels = {k: load_csv_panel(p, expected_ids=PANEL_IDS[k]) for k, p in cfg["panels"].items() if p}
    if not panels:
        raise ConfigError("evaluate needs at least one of panels.stocks / panels.rates")
    if cfg["include_combined"] and "stocks" in panels and "rates" in panels:
        panels["combined"] = build_combined(panels["stocks"], panels["rates"])

    if stub:
        forecaster = E.STUB_FORECASTERS[stub]()
    else:
        weights, model_cfg, _extra, _m = load_checkpoint(ckpt)
        horizon = max(cfg["horizons"], default=0)
        if horizon > model_cfg.horizon_capacity:
            raise ConfigError(f"horizon {horizon} exceeds the checkpoint's capacity {model_cfg.horizon_capacity}")
        forecaster = E.ModelForecaster(weights, model_cfg)

    specs = [
        E.ExperimentSpec(
            panel=p, mode=mo.upper(), n=n, m=m,
            start_years_after=cfg["start_years_after"],
            cutoff=cutoff,
        )
        for p in sorted(panels, key=E.panel_sort_key)
        for mo in cfg["modes"]
        for n in cfg["contexts"]
        for m in cfg["horizons"]
    ]

    plan = E.grid_plan(specs, panels)
    if not any(plan.values()):
        raise ConfigError(f"the grid has no cell: none of its {len(plan)} specs has an origin on its panel")
    if args.dry_run:
        print("dry run: grid summary")
        for spec, origins in plan.items():
            used = f" ({forecaster.max_context} used)" if spec.n > forecaster.max_context else ""
            print(f"  {spec.panel:9s} {spec.mode} n={spec.n:4d}{used} m={spec.m:3d} origins={len(origins)}")
        print(f"total cells: {sum(map(len, plan.values()))}")
        return EXIT_OK

    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    workers = workers or os.cpu_count() or 1
    start = time.perf_counter()
    records, skips, cells = E.run_grid(
        plan, panels, forecaster, records_path=records_path, workers=workers
    )
    by_reason = sorted(Counter(s["reason"] for s in skips).items(), key=lambda kv: (-kv[1], kv[0]))
    detail = "; ".join(f"{n} {reason}" for reason, n in by_reason)  # largest first
    # the planned cells whose context evaluate_cell cuts to the window the forecaster reads
    cut = sum(len(origins) for spec, origins in plan.items() if spec.n > forecaster.max_context)
    cut_note = f", {cut} planned cells truncated to max_context {forecaster.max_context}" if cut else ""
    _summary("grid", start, cells, "cells", after=f", {len(skips)} skips" + (detail and f" ({detail})") + cut_note)
    paths, table1, table2 = E.emit_artifacts(records, out_dir)
    print(f"records: {records_path} ({len(records)} rows, {len(skips)} skips)")
    for name, p in sorted(paths.items()):
        print(f"{name}: {p}")
    _print_table(table1, E.TABLE1_COLUMNS, "Average performance by panel and mode")
    _print_table(table2, E.TABLE2_COLUMNS, "UV vs MV comparison by series")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    cfg = _load_config(args, REPORT_KEYS)
    records_path = cfg["records"]
    if not records_path:
        raise ConfigError("report needs a records path")
    records = E.read_records(records_path)
    out_dir = Path(cfg["out_dir"] or _default_out())
    paths, _, _ = E.emit_artifacts(records, out_dir)
    for name, p in sorted(paths.items()):
        print(f"{name}: {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# panel validate


def cmd_panel_validate(args) -> int:
    panel = load_csv_panel(args.path, expected_ids=PANEL_IDS.get(args.ids))
    info = panel_summary(panel)
    print(f"series (K):      {info['n_series']}")
    print(f"dates (T):       {info['n_dates']}")
    print(f"span:            {info['first_date']} .. {info['last_date']}")
    print(f"missing cells:   {info['missing_cells']}")
    for sid, cnt in info["missing_by_series"].items():
        print(f"  {sid:8s} missing {cnt}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--out", dest="out_dir", metavar="DIR",
                   help="output directory (default: $GROUPCAST_OUT)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI. A config flag's dest is the dotted config key it sets."""
    parser = argparse.ArgumentParser(prog="groupcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate synthetic pretraining datasets")
    _add_common(ps)
    ps.add_argument("--seed", type=int, help="run seed")
    ps.set_defaults(func=cmd_synth)

    pt = sub.add_parser("train", help="run the two-stage training curriculum")
    _add_common(pt)
    pt.add_argument("--seed", dest="train.seed", metavar="SEED", type=int, help="training seed")
    pt.add_argument("--data", dest="data_dir", metavar="DIR",
                    help="dataset directory from `groupcast synth`")
    pt.add_argument("--resume", help="checkpoint to continue from")
    pt.set_defaults(func=cmd_train)

    pe = sub.add_parser("evaluate", help="rolling-origin evaluation grid")
    _add_common(pe)
    pe.add_argument("--seed", type=int, help="accepted and unused: evaluation draws no randomness")
    pe.add_argument("--checkpoint", help="model checkpoint")
    pe.add_argument("--stocks", dest="panels.stocks", metavar="CSV", help="stocks panel CSV")
    pe.add_argument("--rates", dest="panels.rates", metavar="CSV", help="rates panel CSV")
    pe.add_argument("--mode", dest="modes", action="append", type=str.upper, choices=M.MODES,
                    help="repeatable")
    pe.add_argument("--n", dest="contexts", action="append", type=int, help="context length; repeatable")
    pe.add_argument("--m", dest="horizons", action="append", type=int, help="horizon; repeatable")
    pe.add_argument("--stub", help=f"bypass the model: one of {', '.join(sorted(E.STUB_FORECASTERS))}")
    pe.add_argument("--dry-run", action="store_true", help="print grid size and origin counts")
    pe.add_argument("--workers", type=int, help="evaluation pool size")
    pe.set_defaults(func=cmd_evaluate)

    pr = sub.add_parser("report", help="regenerate artifact CSVs from records")
    _add_common(pr)
    pr.add_argument("--records", help="records.csv from evaluate")
    pr.set_defaults(func=cmd_report)

    pp = sub.add_parser("panel", help="panel utilities")
    ppsub = pp.add_subparsers(dest="panel_command", required=True)
    ppv = ppsub.add_parser("validate", help="check a panel CSV and print its shape")
    ppv.add_argument("--path", required=True)
    ppv.add_argument("--ids", choices=["stocks", "rates", "any"], default="any")
    ppv.set_defaults(func=cmd_panel_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingAbort as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_TRAIN_ABORT
    except (CheckpointError, OSError) as exc:  # an OSError names its path
        print(f"load failure: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except DataError as exc:
        print(f"malformed data: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except GroupcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
