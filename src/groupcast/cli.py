"""Command-line entry point.

Subcommands wire the library into the full workflow:

    groupcast synth    --config synth.json            # datasets + provenance
    groupcast train    --config train.json            # curriculum -> checkpoint
    groupcast evaluate --config eval.json             # rolling grid -> records + tables
    groupcast report   --records records.csv          # regenerate artifact CSVs
    groupcast panel validate --path stocks.csv --ids stocks

Configuration lives in a JSON file; any key can be overridden with
``--set dotted.key=value`` (value parsed as JSON, falling back to string).
Unknown keys are rejected. GROUPCAST_OUT provides the default output
directory. Exit codes: 0 ok, 2 config, 3 training abort, 4 load failure,
5 malformed data.
"""

import argparse
import json
import os
import sys
from collections.abc import Callable
from datetime import date
from functools import partial
from pathlib import Path


from . import evalharness as E
from . import model as M
from . import synthdata as S
from . import train as TR
from .checkpoint import load_checkpoint
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    GroupcastError,
    TrainingAbort,
)
from .panels import RATE_IDS, STOCK_IDS, build_combined, load_csv_panel, panel_summary
from .rng import PortableRng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAIN_ABORT = 3
EXIT_LOAD = 4
EXIT_MALFORMED = 5


def _default_out() -> str:
    return os.environ.get("GROUPCAST_OUT", "groupcast_out")


def _load_config(path, overrides, known_keys: dict) -> dict:
    cfg: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key} collides with a non-object value")
        node[parts[-1]] = value
    _check_keys(cfg, known_keys, prefix="")
    return cfg


def _check_keys(cfg: dict, known: dict, prefix: str) -> None:
    for key, value in cfg.items():
        if key not in known:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        sub = known[key]
        if isinstance(sub, dict) and isinstance(value, dict):
            _check_keys(value, sub, prefix=f"{prefix}{key}.")


_MODEL_KEYS = {k: None for k in (
    "d_model", "n_blocks", "n_heads", "patch_len", "quantile_levels",
    "max_context", "horizon_patches",
)}
_TRAIN_KEYS = {k: None for k in (
    "stage_contexts", "stage_steps", "batch_groups", "learning_rate", "beta1",
    "beta2", "eps", "task_mix", "seed", "checkpoint_every",
    "min_context_patches", "max_horizon_patches", "cosine_decay",
)}

SYNTH_KEYS = {
    "out_dir": None,
    "seed": None,
    "tsi": {"count": None, "length": None},
    "tcm": {
        "count": None, "length": None, "n_series_range": None,
        "lag_range": None, "edge_prob": None, "radius_range": None,
    },
    "derived": {
        "count": None, "length": None, "n_followers": None,
        "lag_choices": None, "noise_scale": None,
    },
    "independent": {"count": None, "length": None, "n_series": None},
    "explicit_tsi": None,
    "explicit_tcm": None,
}

TRAIN_CMD_KEYS = {
    "out_dir": None,
    "data_dir": None,
    "seed": None,
    "resume": None,
    "model": _MODEL_KEYS,
    "train": _TRAIN_KEYS,
}

EVAL_KEYS = {
    "out_dir": None,
    "checkpoint": None,
    "panels": {"stocks": None, "rates": None},
    "include_combined": None,
    "modes": None,
    "contexts": None,
    "horizons": None,
    "cutoff": None,
    "point_quantile": None,
    "start_years_after": None,
    "workers": None,
    "seed": None,
    "stub": None,
}

REPORT_KEYS = {"records": None, "out_dir": None, "cutoff": None}


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    cfg = _load_config(args.config, args.set, SYNTH_KEYS)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out:
        cfg["out_dir"] = args.out
    out_dir = Path(cfg.get("out_dir") or _default_out())
    seed = int(cfg.get("seed", 0))
    root = PortableRng(seed)
    # (kind, make) in output order; make() returns (panel, provenance)
    jobs: list[tuple[str, Callable[[], tuple]]] = []

    tsi_cfg = cfg.get("tsi") or {}
    tsi_specs = [
        S.sample_tsi_spec(root.spawn(10_000 + i), int(tsi_cfg.get("length", 1024)), seed=seed * 1_000_003 + i)
        for i in range(int(tsi_cfg.get("count", 0)))
    ]
    for d in cfg.get("explicit_tsi") or []:
        d = dict(d)
        d.pop("kind", None)
        d["seasonal"] = tuple(tuple(s) for s in d.get("seasonal", ()))
        tsi_specs.append(S.TsiSpec(**d))
    jobs += [("tsi", lambda spec=spec: (S.tsi_generate(spec), spec.to_dict())) for spec in tsi_specs]

    tcm_cfg = cfg.get("tcm") or {}
    tcm_specs = [
        S.sample_tcm_spec(
            root.spawn(20_000 + i),
            int(tcm_cfg.get("length", 1024)),
            seed=seed * 2_000_003 + i,
            n_series_range=tuple(tcm_cfg.get("n_series_range", (2, 5))),
            lag_range=tuple(tcm_cfg.get("lag_range", (1, 2))),
            edge_prob=float(tcm_cfg.get("edge_prob", 0.4)),
            radius_range=tuple(tcm_cfg.get("radius_range", (0.5, 0.95))),
        )
        for i in range(int(tcm_cfg.get("count", 0)))
    ]
    for d in cfg.get("explicit_tcm") or []:
        d = dict(d)
        d.pop("kind", None)
        d["adjacency"] = tuple(tuple(tuple(r) for r in m) for m in d["adjacency"])
        tcm_specs.append(S.TcmSpec(**d))
    jobs += [("tcm", lambda spec=spec: (S.tcm_generate(spec), spec.to_dict())) for spec in tcm_specs]

    der_cfg = cfg.get("derived") or {}

    def derived(rng):
        return S.make_cross_link_panel(
            rng,
            int(der_cfg.get("length", 1024)),
            n_followers=int(der_cfg.get("n_followers", 2)),
            lag_choices=tuple(der_cfg.get("lag_choices", (8, 16))),
            noise_scale=float(der_cfg.get("noise_scale", 0.05)),
        )

    jobs += [
        ("derived", partial(derived, root.spawn(30_000 + i)))
        for i in range(int(der_cfg.get("count", 0)))
    ]

    ind_cfg = cfg.get("independent") or {}

    def independent(rng):
        return S.make_independent_panel(
            rng, int(ind_cfg.get("length", 1024)), n_series=int(ind_cfg.get("n_series", 3))
        )

    jobs += [
        ("independent", partial(independent, root.spawn(40_000 + i)))
        for i in range(int(ind_cfg.get("count", 0)))
    ]

    if jobs:
        out_dir.mkdir(parents=True, exist_ok=True)
    counters: dict[str, int] = {}
    for kind, make in jobs:
        idx = counters.get(kind, 0)
        counters[kind] = idx + 1
        stem = out_dir / f"{kind}_{idx:04d}"
        panel, prov = make()
        S.save_panel_dataset(f"{stem}.csv", panel)
        S.save_provenance(f"{stem}.json", prov)
    print(f"wrote {len(jobs)} datasets to {out_dir}" if jobs else "no generator specs; nothing to do")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.set, TRAIN_CMD_KEYS)
    if args.seed is not None:
        cfg.setdefault("train", {})["seed"] = args.seed
    if args.out:
        cfg["out_dir"] = args.out
    if args.data:
        cfg["data_dir"] = args.data
    if args.resume:
        cfg["resume"] = args.resume
    out_dir = Path(cfg.get("out_dir") or _default_out())
    data_dir = cfg.get("data_dir")
    if not data_dir:
        raise ConfigError("train needs data_dir (datasets from `groupcast synth`)")
    corpus = TR.Corpus.from_dir(data_dir)
    model_cfg = M.ModelConfig.from_dict(cfg.get("model", {}))
    train_cfg = TR.TrainConfig.from_dict(cfg.get("train", {}))
    path = TR.run_curriculum(
        model_cfg, train_cfg, corpus, out_dir, resume_from=cfg.get("resume")
    )
    print(f"checkpoint: {path}")
    print(f"training log: {Path(out_dir) / 'train_log.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _print_table(rows: list[dict], columns: list[str], title: str) -> None:
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
    cfg = _load_config(args.config, args.set, EVAL_KEYS)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out:
        cfg["out_dir"] = args.out
    if args.checkpoint:
        cfg["checkpoint"] = args.checkpoint
    if args.stocks:
        cfg.setdefault("panels", {})["stocks"] = args.stocks
    if args.rates:
        cfg.setdefault("panels", {})["rates"] = args.rates
    if args.mode:
        cfg["modes"] = [m.upper() for m in args.mode]
    if args.n:
        cfg["contexts"] = args.n
    if args.m:
        cfg["horizons"] = args.m
    if args.stub:
        cfg["stub"] = args.stub
    if args.workers is not None:
        cfg["workers"] = args.workers

    out_dir = Path(cfg.get("out_dir") or _default_out())
    panel_paths = cfg.get("panels") or {}
    panels = {}
    try:
        if "stocks" in panel_paths:
            panels["stocks"] = load_csv_panel(panel_paths["stocks"], expected_ids=STOCK_IDS)
        if "rates" in panel_paths:
            panels["rates"] = load_csv_panel(panel_paths["rates"], expected_ids=RATE_IDS)
    except (DataError, OSError) as exc:
        print(f"panel load failure: {exc}", file=sys.stderr)
        return EXIT_LOAD
    if not panels:
        raise ConfigError("evaluate needs at least one of panels.stocks / panels.rates")
    if cfg.get("include_combined", True) and "stocks" in panels and "rates" in panels:
        try:
            panels["combined"] = build_combined(panels["stocks"], panels["rates"])
        except DataError as exc:
            print(f"combined panel failure: {exc}", file=sys.stderr)
            return EXIT_LOAD

    stub = cfg.get("stub")
    if stub:
        if stub not in E.STUB_FORECASTERS:
            raise ConfigError(f"unknown stub {stub!r}; choose from {sorted(E.STUB_FORECASTERS)}")
        forecaster = E.STUB_FORECASTERS[stub]()
    else:
        ckpt = cfg.get("checkpoint")
        if not ckpt:
            raise ConfigError("evaluate needs a checkpoint (or --stub for harness self-test)")
        try:
            weights, model_cfg, _extra, _m = load_checkpoint(ckpt)
        except CheckpointError as exc:
            print(f"checkpoint load failure: {exc}", file=sys.stderr)
            return EXIT_LOAD
        forecaster = E.ModelForecaster(
            weights, model_cfg, point_quantile=float(cfg.get("point_quantile", 0.5))
        )

    modes = [m.upper() for m in cfg.get("modes", ["MV", "UV"])]
    contexts = [int(n) for n in cfg.get("contexts", E.DEFAULT_CONTEXTS)]
    horizons = [int(m) for m in cfg.get("horizons", E.DEFAULT_HORIZONS)]
    cutoff = date.fromisoformat(cfg.get("cutoff", E.DEFAULT_CUTOFF.isoformat()))
    specs = [
        E.ExperimentSpec(
            panel=p, mode=mo, n=n, m=m,
            start_years_after=int(cfg.get("start_years_after", 3)),
            cutoff=cutoff,
        )
        for p in sorted(panels, key=E.panel_sort_key)
        for mo in modes
        for n in contexts
        for m in horizons
    ]

    if args.dry_run:
        total = 0
        print("dry run: grid summary")
        for spec in specs:
            origins = E.rolling_origins(panels[spec.panel], spec)
            total += len(origins)
            print(
                f"  {spec.panel:9s} {spec.mode} n={spec.n:4d} m={spec.m:3d} "
                f"origins={len(origins)}"
            )
        print(f"total cells: {total}")
        return EXIT_OK

    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    workers = int(cfg.get("workers") or os.cpu_count() or 1)
    records, skips = E.run_grid(specs, panels, forecaster, records_path=records_path, workers=workers)
    paths = E.emit_artifacts(records, out_dir, cutoff=cutoff)
    print(f"records: {records_path} ({len(records)} rows, {len(skips)} skips)")
    for name, p in sorted(paths.items()):
        print(f"{name}: {p}")
    _print_table(
        E.aggregate_mode(records),
        ["panel", "mode", "mape_mean", "mape_std", "rmse_mean", "rmse_std", "n_records"],
        "Average performance by panel and mode",
    )
    _print_table(
        E.compare_series(records),
        ["panel", "series", "mape_mv", "mape_uv", "rmse_mv", "rmse_uv", "mape_improvement", "rmse_improvement"],
        "UV vs MV comparison by series",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    cfg = _load_config(args.config, args.set, REPORT_KEYS)
    if args.records:
        cfg["records"] = args.records
    if args.out:
        cfg["out_dir"] = args.out
    records_path = cfg.get("records")
    if not records_path:
        raise ConfigError("report needs a records path")
    if not Path(records_path).exists():
        print(f"records file not found: {records_path}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        records = E.read_records(records_path)
    except DataError as exc:
        print(f"malformed records: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    cutoff = date.fromisoformat(cfg.get("cutoff", E.DEFAULT_CUTOFF.isoformat()))
    out_dir = Path(cfg.get("out_dir") or _default_out())
    paths = E.emit_artifacts(records, out_dir, cutoff=cutoff)
    for name, p in sorted(paths.items()):
        print(f"{name}: {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# panel validate


def cmd_panel_validate(args) -> int:
    expected = None
    if args.ids == "stocks":
        expected = STOCK_IDS
    elif args.ids == "rates":
        expected = RATE_IDS
    try:
        panel = load_csv_panel(args.path, expected_ids=expected)
    except (DataError, OSError) as exc:
        print(f"invalid panel: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
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
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--out", help="output directory (default: $GROUPCAST_OUT)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="groupcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate synthetic pretraining datasets")
    _add_common(ps)
    ps.set_defaults(func=cmd_synth)

    pt = sub.add_parser("train", help="run the two-stage training curriculum")
    _add_common(pt)
    pt.add_argument("--data", help="dataset directory from `groupcast synth`")
    pt.add_argument("--resume", help="checkpoint to continue from")
    pt.set_defaults(func=cmd_train)

    pe = sub.add_parser("evaluate", help="rolling-origin evaluation grid")
    _add_common(pe)
    pe.add_argument("--checkpoint", help="model checkpoint")
    pe.add_argument("--stocks", help="stocks panel CSV")
    pe.add_argument("--rates", help="rates panel CSV")
    pe.add_argument("--mode", action="append", choices=["uv", "mv", "UV", "MV"], help="repeatable")
    pe.add_argument("--n", action="append", type=int, help="context length; repeatable")
    pe.add_argument("--m", action="append", type=int, help="horizon; repeatable")
    pe.add_argument("--stub", choices=sorted(E.STUB_FORECASTERS), help="bypass the model")
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
    except CheckpointError as exc:
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
