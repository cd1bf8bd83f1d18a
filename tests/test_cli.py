"""CLI subcommands, config handling, exit codes."""

import json
import multiprocessing.pool
import os
import re
import subprocess
import sys
from datetime import date
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from groupcast import cli
from groupcast import evalharness as E
from groupcast.checkpoint import load_checkpoint, save_checkpoint
from groupcast import model as M
from groupcast import synthdata as S
from groupcast.panels import RATE_IDS, STOCK_IDS, save_csv_panel

from conftest import crash_in_child, make_price_panel, make_rate_panel, tree_bytes


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(path).glob("*")) if p.is_file()}


@pytest.fixture()
def market_csvs(tmp_path):
    stocks = make_price_panel(STOCK_IDS, date(2019, 1, 1), 400, seed=31)
    rates = make_rate_panel(RATE_IDS, date(2019, 1, 1), 400, seed=32)
    sp = tmp_path / "stocks.csv"
    rp = tmp_path / "rates.csv"
    save_csv_panel(sp, stocks)
    save_csv_panel(rp, rates)
    return sp, rp


@pytest.fixture()
def tiny_ckpt(tmp_path):
    cfg = M.ModelConfig(
        d_model=16, n_blocks=1, n_heads=2, patch_len=8, max_context=128, horizon_patches=8
    )
    w = M.init_weights(cfg, seed=9)
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(path, w, cfg, extra={"step": 0})
    return path


def test_synth_empty_config_writes_nothing(tmp_path, capsys):
    out = tmp_path / "data"
    code = cli.main(["synth", "--out", str(out), "--seed", "1"])
    assert code == 0
    assert not out.exists() or not list(out.glob("*"))


def test_synth_counts_and_determinism(tmp_path):
    cfg = {"tsi": {"count": 2, "length": 64}, "tcm": {"count": 3, "length": 64},
           "derived": {"count": 2, "length": 64}, "independent": {"count": 1, "length": 64}}
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "d1"
    out2 = tmp_path / "d2"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out1), "--seed", "5"]) == 0
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out2), "--seed", "5"]) == 0
    files1 = _dir_bytes(out1)
    assert len([f for f in files1 if f.endswith(".csv")]) == 8
    assert len([f for f in files1 if f.endswith(".json")]) == 8
    assert files1 == _dir_bytes(out2)


def test_synth_prints_wall_datasets_and_points_to_stderr(tmp_path, capsys):
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps({"tsi": {"count": 2, "length": 64}, "tcm": {"count": 3, "length": 40},
                                    "independent": {"count": 1, "length": 32}}))
    out = tmp_path / "data"
    capsys.readouterr()
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out), "--seed", "5"]) == 0
    run = capsys.readouterr()
    lines = [ln for ln in run.err.splitlines() if ln.startswith("synth: ")]
    assert len(lines) == 1 and "synth: " not in run.out, run
    hit = re.fullmatch(r"synth: \d+\.\d\d s wall, (\d+) datasets, (\d+) points \(\d+\.\d points/s\)", lines[0])
    assert hit, lines[0]
    rows = sum(len(p.read_text().splitlines()) - 1 for p in out.glob("*.csv"))
    assert (int(hit[1]), int(hit[2])) == (6, rows)


def test_synth_non_finite_dataset_exits_2_and_writes_no_file_of_it(tmp_path, capsys):
    out = tmp_path / "data"
    capsys.readouterr()
    assert cli.main(["synth", "--out", str(out), "--set", 'tsi={"count": 2, "length": 32}',
                     "--set", 'explicit_tsi=[{"length": 300, "trend_slope": 1e306}]']) == 2
    assert "config error: tsi_0002" in capsys.readouterr().err
    # the datasets written before it stay, as after a crash
    assert sorted(p.name for p in out.iterdir()) == [f"tsi_000{i}.{ext}" for i in (0, 1) for ext in ("csv", "json")]


def test_synth_explicit_tcm_specs(tmp_path):
    cfg = {"explicit_tcm": [
        {"n_series": 1, "lag_order": 1, "adjacency": [[[0.5]]], "length": 32, "seed": 3},
        {"n_series": 1, "lag_order": 1, "adjacency": [[[0.7]]], "length": 32, "seed": 4},
    ]}
    cfg_path = tmp_path / "s.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(list(out.glob("tcm_*.csv"))) == 2
    assert len(list(out.glob("tcm_*.json"))) == 2


def test_synth_hard_crash_after_each_file_reruns_to_the_same_tree(tmp_path):
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps({"tsi": {"count": 2, "length": 32}, "tcm": {"count": 2, "length": 32},
                                    "derived": {"count": 1, "length": 32},
                                    "independent": {"count": 1, "length": 32}}))

    def synth(out):
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out), "--seed", "3"]) == 0

    synth(tmp_path / "whole")
    want = tree_bytes(tmp_path / "whole")
    assert len(want) == 12

    def job(seam, out):  # in the child: crash right after a dataset or provenance file is written
        for name in ("save_panel_dataset", "save_provenance"):
            def saving(*args, save=getattr(S, name), **kwargs):
                save(*args, **kwargs)
                seam()

            setattr(S, name, saving)
        synth(out)

    for k in range(1, len(want) + 1):
        out = tmp_path / f"crash{k}"
        crash_in_child(lambda seam: job(seam, out), k)
        synth(out)
        assert tree_bytes(out) == want, k


def test_report_hard_crash_around_each_artifact_rename_reruns_to_the_same_tree(tmp_path):
    assert cli.main(["evaluate", "--out", str(tmp_path / "eval")] + _eval_inputs(tmp_path)) == 0
    records = tmp_path / "eval" / "records.csv"

    def report(out):
        assert cli.main(["report", "--records", str(records), "--out", str(out)]) == 0

    report(tmp_path / "whole")
    want = tree_bytes(tmp_path / "whole")
    assert len(want) == 5

    def job(seam, out):  # in the child: crash just before or just after an artifact is renamed
        replace = os.replace

        def replacing(*args, **kwargs):
            seam()
            replace(*args, **kwargs)
            seam()

        os.replace = replacing
        report(out)

    for k in range(1, 2 * len(want) + 1):
        out = tmp_path / f"crash{k}"
        crash_in_child(lambda seam: job(seam, out), k)
        report(out)
        assert tree_bytes(out) == want, k


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_hard_crash_after_each_cell_and_around_each_artifact_rename_reruns_to_the_same_tree(
    tmp_path, workers
):
    # two origins, each an MV and a UV cell
    inputs = _eval_inputs(tmp_path, n_days=300) + ["--mode", "MV", "--workers", str(workers)]

    def evaluate(out):
        assert cli.main(["evaluate", "--out", str(out)] + inputs) == 0

    evaluate(tmp_path / "whole")
    want = tree_bytes(tmp_path / "whole")
    assert len(want) == 6
    cells = len({E._cell_key(r) for r in E.read_records(tmp_path / "whole" / "records.csv")})
    assert cells == 4

    def job(seam, out):  # in the child: crash once a cell reaches the writer, or around a rename
        if workers == 1:
            evaluate_cell = E.evaluate_cell

            def computing(*args, **kwargs):
                result = evaluate_cell(*args, **kwargs)
                seam()
                return result

            E.evaluate_cell = computing
        else:  # the pool hands the writer each context's cells together
            imap = multiprocessing.pool.Pool.imap

            def receiving(*args, **kwargs):
                for run in imap(*args, **kwargs):
                    for _ in run:
                        seam()
                    yield run

            multiprocessing.pool.Pool.imap = receiving
        replace = os.replace

        def replacing(*args, **kwargs):
            seam()
            replace(*args, **kwargs)
            seam()

        os.replace = replacing
        evaluate(out)

    renames = len(want) - 1  # every artifact; records.csv is appended to
    for k in range(1, cells + 2 * renames + 1):
        out = tmp_path / f"crash{k}"
        crash_in_child(lambda seam: job(seam, out), k)
        evaluate(out)
        assert tree_bytes(out) == want, k


@pytest.fixture()
def no_open(monkeypatch, tmp_path):
    """Fail any open() while the test runs, in an empty working directory."""
    def no_open(*args, **kwargs):
        raise AssertionError(f"opened {args[0]!r} before the config error")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("builtins.open", no_open)


@pytest.mark.parametrize("command,key", [
    ("synth", "out_dir"), ("train", "out_dir"), ("evaluate", "out_dir"), ("report", "out_dir"),
    ("train", "data_dir"), ("train", "resume"), ("evaluate", "checkpoint"),
    ("evaluate", "panels.stocks"), ("evaluate", "panels.rates"), ("report", "records"),
])
@pytest.mark.parametrize("value", ["5", "true", "[1]", '{"path": "x"}'])
def test_path_key_takes_only_a_string_or_null(no_open, tmp_path, capsys, command, key, value):
    capsys.readouterr()
    assert cli.main([command, "--set", f"{key}={value}"]) == 2
    assert f"config error: config key {key!r} must be of type str | None" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    if key.startswith("panels."):  # through the section's object, too
        sub = key.split(".")[1]
        assert cli.main([command, "--set", f'panels={{"{sub}": {value}}}']) == 2


@pytest.mark.parametrize("flags", [["--stub", "bogus"], ["--set", "stub=bogus"]], ids=["flag", "set"])
def test_unknown_stub_exits_2_in_one_line_before_any_file_is_opened(no_open, tmp_path, capsys, flags):
    capsys.readouterr()
    argv = ["evaluate", "--stocks", "stocks.csv", "--checkpoint", "model.ckpt", *flags]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: unknown stub 'bogus'; choose from ['last-value', 'perfect-foresight']\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags,message", [
    (["--stub", "last-value", "--set", "cutoff=not-a-date"], "cutoff must be an ISO date: "),
    ([], "evaluate needs a checkpoint (or --stub for harness self-test)\n"),
    (["--stub", "last-value", "--set", 'modes=["XX"]'], "mode must be one of ('MV', 'UV'), got 'XX'\n"),
    (["--stub", "last-value", "--mode", "xx"], "mode must be one of ('MV', 'UV'), got 'XX'\n"),
    (["--stub", "last-value", "--m", "5", "--set", "contexts=[0]"], "n and m must be positive, got n=0, m=5\n"),
    (["--stub", "last-value", "--n", "30", "--set", "horizons=[0]"], "n and m must be positive, got n=30, m=0\n"),
    (["--stub", "last-value", "--set", "start_years_after=-5"], "start_years_after must be >= 0, got -5\n"),
], ids=["cutoff", "no-forecaster", "modes", "mode-flag", "contexts", "horizons", "start-years-after"])
def test_evaluate_config_error_exits_2_in_one_line_before_any_file_is_opened(no_open, tmp_path, capsys, flags, message):
    capsys.readouterr()
    assert cli.main(["evaluate", "--stocks", "missing.csv", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err
    assert not list(tmp_path.iterdir())


def test_unset_kinds_name_each_none_default_outside_the_model_and_train_sections():
    def none_leaves(table, prefix=""):
        for key, default in table.items():
            if isinstance(default, dict) and prefix + key not in ("model", "train"):
                yield from none_leaves(default, f"{prefix}{key}.")
            elif default is None:
                yield prefix + key

    tables = (cli.SYNTH_KEYS, cli.TRAIN_CMD_KEYS, cli.EVAL_KEYS, cli.REPORT_KEYS)
    assert set(cli.UNSET_KINDS) == {key for table in tables for key in none_leaves(table)}


def test_unknown_config_key_exits_2(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"tsii": {"count": 1}}')
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("argv", [
    ["synth", "--set", "tsi=3"],
    ["synth", "--set", "tsi.count=abc"],
    ["synth", "--set", 'explicit_tsi=[{"lenght": 5}]'],
    ["synth", "--set", 'explicit_tcm=[{"n_series": 1}]'],
    ["synth", "--set", 'tsi={"count": 1, "length": 32}', "--set", 'explicit_tsi=[{"length": 0}]'],
    ["synth", "--set", 'tsi={"count": 1, "length": 32}', "--set",
     'explicit_tcm=[{"n_series": 1, "lag_order": 1, "adjacency": [[[0.5, 0.1]]], "length": 32}]'],
    ["synth", "--set", 'tsi={"count": 1, "length": 32}', "--set",
     'explicit_tcm=[{"n_series": 1, "lag_order": 1, "adjacency": [[[1.5]]], "length": 32}]'],
    ["train", "--set", "model=5"],
    ["train", "--set", 'model.d_model="abc"'],
    ["train", "--set", "seed=4"],
    ["evaluate", "--workers", "0"],
    ["evaluate", "--workers", "-3"],
    ["evaluate", "--set", "stub=[1]"],
    ["evaluate", "--set", "stub=0"],
    ["evaluate", "--set", 'seed="x"'],
    # train configs that failed mid-curriculum, after files were written
    ["train", "--set", "train.stage_contexts=[64]", "--set", "train.stage_steps=[2,2]"],
    ["train", "--set", "train.stage_contexts=[16,32,32]"],
    ["train", "--set", "train.batch_groups=0"],
    ["train", "--set", "train.checkpoint_every=0"],
    ["train", "--set", "train.max_horizon_patches=-1"],
    ["train", "--set", "train.max_horizon_patches=0"],
    ["train", "--set", "train.max_horizon_patches=3"],  # past the model's horizon_patches=2
    ["train", "--set", "train.max_horizon_patches=1.5"],
    ["train", "--set", "train.max_horizon_patches=true"],
    # list keys: each element takes the JSON kind of the default's elements
    ["evaluate", "--set", 'contexts=["a"]'],
    ["evaluate", "--set", "contexts=[1.5]"],
    ["evaluate", "--set", "horizons=[true]"],
    ["evaluate", "--set", 'horizons=[5, "5"]'],
    ["evaluate", "--set", "modes=[1]"],
    ["evaluate", "--set", "modes=[null]"],
    ["synth", "--set", "tcm.lag_range=[1, 2.5]"],
    ["synth", "--set", 'tcm.lag_range=["1", 2]'],
    ["synth", "--set", "derived.lag_choices=[8, false]"],
    ["synth", "--set", "derived.lag_choices=[[8]]"],
    # synth inputs that were written, in part, before they failed, or not checked at all
    ["synth", "--set", 'independent={"count": 1, "length": 0}'],
    ["synth", "--set", 'tsi={"count": 2, "length": 10}', "--set", 'tcm={"count": 1, "length": 0}'],
    ["synth", "--set", 'tcm={"count": 1, "length": 10, "n_series_range": [5, 2]}'],
    ["synth", "--set", 'derived={"count": 1, "length": 10, "lag_choices": []}'],
    ["synth", "--set", 'tsi={"count": 2, "length": 10}', "--set",
     'tcm={"count": 1, "length": 10, "radius_range": [0.5, 1.5]}'],
    ["synth", "--set", "tsi.count=-1"],
    ["synth", "--set", 'tsi={"count": 2, "length": 10}', "--set", 'tcm={"count": 2, "length": 10, "edge_prob": 5}'],
    ["synth", "--set", "derived.length=0"],
    ["synth", "--set", 'tsi={"count": 1, "length": 32}', "--set", 'tcm={"count": 0, "n_series_range": [5, 2]}'],
    ["synth", "--set", 'tsi={"count": 1, "length": 32}', "--set", 'tcm={"count": 0, "edge_prob": 7}'],
    ["synth", "--set", 'tsi={"count": 1, "length": 32}', "--set", 'tcm={"count": 0, "lag_range": [0, 2]}'],
    ["synth", "--set", 'tsi={"count": 1, "length": 10}', "--set",
     'explicit_tsi=[{"length": 5, "noise_family": "student_t", "noise_scale": 1.0, "noise_df": 0}]'],
    ["synth", "--set", 'tsi={"count": 1, "length": 10}', "--set", 'explicit_tsi=[{"length": 5, "trend_slope": "a"}]'],
    ["synth", "--set", 'tsi={"count": 1, "length": 10}', "--set",
     'explicit_tcm=[{"n_series": 1.0, "lag_order": 1, "adjacency": [[[0.5]]], "length": 5}]'],
], ids=["tsi-int", "count-str", "tsi-key", "tcm-missing", "tsi-length0", "tcm-adjacency",
        "tcm-unstable", "model-int", "d_model-str", "top-seed", "workers-0", "workers-negative",
        "stub-list", "stub-int", "eval-seed-str",
        "one-context-two-stages", "three-contexts-two-stages", "batch_groups-0", "checkpoint_every-0",
        "max_horizon_patches-negative", "max_horizon_patches-0", "max_horizon_patches-past-model",
        "max_horizon_patches-float", "max_horizon_patches-bool",
        "contexts-str", "contexts-float", "horizons-bool", "horizons-mixed", "modes-int", "modes-null",
        "lag_range-float", "lag_range-str", "lag_choices-bool", "lag_choices-list",
        "independent-length0", "tcm-length0-after-tsi", "n_series_range-reversed", "lag_choices-empty",
        "tcm-radius_range-unstable", "tsi-count-negative", "tcm-edge_prob-above-1-after-tsi",
        "derived-length0-count0", "tcm-count0-n_series_range-reversed", "tcm-count0-edge_prob-above-1",
        "tcm-count0-lag_range-from-0",
        "explicit-tsi-noise_df0", "explicit-tsi-slope-str", "explicit-tcm-n_series-float"])
def test_malformed_config_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    inputs = {
        "train": lambda: ["--data", str(_synth_small(tmp_path))] + TRAIN_OVERRIDES,
        "evaluate": lambda: _eval_inputs(tmp_path),
    }.get(argv[0], list)()
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(argv[:1] + inputs + ["--out", str(out)] + argv[1:]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_seed_flag(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text(",".join(E.RECORD_FIELDS) + "\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--records", str(records), "--out", str(out), "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_config_layers_file_then_set_then_flags(tmp_path, market_csvs, capsys):
    sp, rp = market_csvs
    cfg_path = tmp_path / "eval.json"
    cfg_path.write_text(json.dumps({
        "panels": {"stocks": str(sp), "rates": str(rp)}, "modes": ["UV"], "contexts": [20],
        "horizons": [3], "start_years_after": 1, "stub": "last-value",
    }))
    assert cli.main([
        "evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--dry-run",
        "--set", "contexts=[25]", "--set", "horizons=[4]",
        "--set", "panels=" + json.dumps({"stocks": str(sp)}),  # an object replaces the section
        "--n", "30",
    ]) == 0
    grid = re.findall(r"^ +(\w+) +(MV|UV) n= *(\d+) m= *(\d+)", capsys.readouterr().out, re.M)
    assert grid == [("stocks", "UV", "30", "4")]


def _synth_small(tmp_path, seed=5) -> Path:
    data = tmp_path / "data"
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps({
        "tsi": {"count": 4, "length": 96},
        "derived": {"count": 4, "length": 96, "lag_choices": [4]},
        "independent": {"count": 2, "length": 96},
    }))
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(data), "--seed", str(seed)]) == 0
    return data


def _eval_inputs(tmp_path, n_days=400, stub=True) -> list[str]:
    """Flags for a small stub grid that evaluates cleanly (without the stub,
    it needs a checkpoint)."""
    sp = tmp_path / "stocks.csv"
    save_csv_panel(sp, make_price_panel(STOCK_IDS, date(2019, 1, 1), n_days, seed=31))
    return ["--stocks", str(sp), "--mode", "UV", "--n", "30", "--m", "5", "--set", "start_years_after=1"] + (
        ["--stub", "last-value"] if stub else [])


TRAIN_OVERRIDES = [
    "--set", 'model={"d_model":8,"n_blocks":1,"n_heads":2,"patch_len":4,"max_context":32,"horizon_patches":2}',
    "--set", 'train={"stage_contexts":[16,32],"stage_steps":[4,3],"batch_groups":2,"learning_rate":0.001,"checkpoint_every":100,"seed":3}',
]


def test_train_and_log_rows(tmp_path):
    data = _synth_small(tmp_path)
    out = tmp_path / "run"
    code = cli.main(["train", "--data", str(data), "--out", str(out)] + TRAIN_OVERRIDES)
    assert code == 0
    log = (out / "train_log.csv").read_text().strip().split("\n")
    assert len(log) - 1 == 7  # one row per step
    assert (out / "model.ckpt").exists()


def _train_line_steps(err: str) -> int:
    lines = [ln for ln in err.splitlines() if ln.startswith("train: ")]
    assert len(lines) == 1, err
    hit = re.fullmatch(r"train: \d+\.\d\d s wall, (\d+) steps \(\d+\.\d steps/s\)", lines[0])
    assert hit, lines[0]
    return int(hit[1])


def _without_wallclock(files: dict[str, bytes]) -> dict[str, bytes]:
    """The training log's last column, wallclock_ms, is the one output
    expected to differ between runs."""
    log = files["train_log.csv"].decode().splitlines()
    return {**files, "train_log.csv": "\n".join(ln.rsplit(",", 1)[0] for ln in log).encode()}


def test_train_prints_wall_and_steps_to_stderr(tmp_path, capsys):
    data = _synth_small(tmp_path)
    out = tmp_path / "run"
    runs, trees = [], []
    for _ in range(2):
        capsys.readouterr()
        assert cli.main(["train", "--data", str(data), "--out", str(out)] + TRAIN_OVERRIDES) == 0
        runs.append(capsys.readouterr())
        trees.append(_without_wallclock(_dir_bytes(out)))
    assert [_train_line_steps(r.err) for r in runs] == [4 + 3, 4 + 3]  # sum(stage_steps)
    assert "train: " not in runs[0].out
    assert runs[0].out == runs[1].out
    assert trees[0] == trees[1]
    assert (out / "train_log.csv").read_text().splitlines()[0] == "step,stage,loss,lr,wallclock_ms"


def test_train_resumed_run_counts_only_new_steps(tmp_path, capsys):
    data = _synth_small(tmp_path)
    first = tmp_path / "first"
    assert cli.main(["train", "--data", str(data), "--out", str(first)] + TRAIN_OVERRIDES) == 0
    for ckpt, steps in (("ckpt_step000004.ckpt", 3), ("model.ckpt", 0)):
        capsys.readouterr()
        code = cli.main(
            ["train", "--data", str(data), "--out", str(tmp_path / ckpt), "--resume", str(first / ckpt)]
            + TRAIN_OVERRIDES
        )
        assert code == 0
        assert _train_line_steps(capsys.readouterr().err) == steps


def test_train_zero_steps_checkpoint_equals_init(tmp_path):
    data = _synth_small(tmp_path)
    out = tmp_path / "run0"
    overrides = [
        "--set", 'model={"d_model":8,"n_blocks":1,"n_heads":2,"patch_len":4,"max_context":32,"horizon_patches":2}',
        "--set", 'train={"stage_steps":[0,0],"seed":3}',
    ]
    assert cli.main(["train", "--data", str(data), "--out", str(out)] + overrides) == 0
    w, cfg, extra, _ = load_checkpoint(out / "model.ckpt")
    assert extra["step"] == 0
    init = M.init_weights(cfg, seed=3)
    for k in w:
        assert np.array_equal(w[k].data, np.asarray(init[k].data, dtype=np.float32)), k


def test_train_seed_flag_sets_the_training_seed(tmp_path):
    data = _synth_small(tmp_path)
    out = tmp_path / "run0"
    assert cli.main([
        "train", "--data", str(data), "--out", str(out), "--seed", "4",
        "--set", 'model={"d_model":8,"n_blocks":1,"n_heads":2,"patch_len":4,"max_context":32,"horizon_patches":2}',
        "--set", 'train={"stage_steps":[0,0],"seed":3}',
    ]) == 0
    _, _, extra, _ = load_checkpoint(out / "model.ckpt")
    assert extra["train"]["seed"] == 4


def test_train_resume_continues(tmp_path):
    data = _synth_small(tmp_path)
    out1 = tmp_path / "first"
    assert cli.main(["train", "--data", str(data), "--out", str(out1)] + TRAIN_OVERRIDES) == 0
    out2 = tmp_path / "second"
    code = cli.main(
        ["train", "--data", str(data), "--out", str(out2), "--resume", str(out1 / "model.ckpt")]
        + TRAIN_OVERRIDES
    )
    assert code == 0
    _, _, extra, _ = load_checkpoint(out2 / "model.ckpt")
    assert extra["step"] == 7  # already complete; counter preserved


def test_train_resume_into_a_foreign_log_exits_5(tmp_path, capsys):
    data = _synth_small(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(out)] + TRAIN_OVERRIDES) == 0
    (out / "train_log.csv").write_text("date,AAPL\n2020-01-02,1.5\n")
    code = cli.main(["train", "--data", str(data), "--out", str(out),
                     "--resume", str(out / "ckpt_step000004.ckpt")] + TRAIN_OVERRIDES)
    assert code == 5
    assert "train_log.csv: does not start with the header" in capsys.readouterr().err
    assert (out / "train_log.csv").read_text() == "date,AAPL\n2020-01-02,1.5\n"


@pytest.mark.parametrize("override", ["train.seed=9", "model.d_model=16"])
def test_train_resume_with_another_config_exits_2_before_writing(tmp_path, capsys, override):
    data = _synth_small(tmp_path)
    first = tmp_path / "first"
    assert cli.main(["train", "--data", str(data), "--out", str(first)] + TRAIN_OVERRIDES) == 0
    out = tmp_path / "resumed"
    capsys.readouterr()
    code = cli.main(["train", "--data", str(data), "--out", str(out), "--resume",
                     str(first / "ckpt_step000004.ckpt")] + TRAIN_OVERRIDES + ["--set", override])
    assert code == 2
    err = capsys.readouterr().err
    key = override.split("=")[0].split(".")[1]
    assert err.startswith("config error:") and f"differs in {key} " in err and err.count("\n") == 1, err
    assert not out.exists()


def test_train_resume_from_corrupt_checkpoint_exits_4(tmp_path):
    data = _synth_small(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    code = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "x"),
                     "--resume", str(bad)] + TRAIN_OVERRIDES)
    assert code == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf weights make NaNs on purpose
def test_train_non_finite_loss_exits_3(tmp_path):
    data = _synth_small(tmp_path)
    cfg = M.ModelConfig(d_model=8, n_blocks=1, n_heads=2, patch_len=4,
                        max_context=32, horizon_patches=2)
    w = M.init_weights(cfg, seed=3)
    w["head.w"].data[:] = np.float32(np.inf)
    poisoned = tmp_path / "poisoned.ckpt"
    save_checkpoint(poisoned, w, cfg, extra={"step": 0})
    code = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "x3"),
                     "--resume", str(poisoned)] + TRAIN_OVERRIDES)
    assert code == 3


def test_groupcast_out_env_default(tmp_path, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("GROUPCAST_OUT", str(out))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"tsi": {"count": 1, "length": 32}}')
    assert cli.main(["synth", "--config", str(cfg_path), "--seed", "1"]) == 0
    assert len(list(out.glob("tsi_*.csv"))) == 1


def test_evaluate_stub_and_modes(tmp_path, market_csvs, capsys):
    sp, rp = market_csvs
    out = tmp_path / "eval"
    code = cli.main([
        "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(out),
        "--stub", "last-value", "--mode", "uv", "--mode", "mv",
        "--n", "30", "--m", "5", "--set", "start_years_after=1",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "UV" in text and "MV" in text
    recs = (out / "records.csv").read_text().strip().split("\n")
    assert len(recs) > 1
    for name in ("table1.csv", "table2.csv", "heatmap.csv", "timeseries.csv", "regime.csv"):
        assert (out / name).exists()


def test_evaluate_dry_run_writes_nothing(tmp_path, market_csvs, capsys):
    sp, rp = market_csvs
    out = tmp_path / "dry"
    code = cli.main([
        "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(out),
        "--stub", "last-value", "--n", "30", "--m", "5", "--dry-run",
        "--set", "start_years_after=1",
    ])
    assert code == 0
    assert "total cells" in capsys.readouterr().out
    assert not (out / "records.csv").exists()


def test_evaluate_with_model_checkpoint(tmp_path, market_csvs, tiny_ckpt):
    sp, rp = market_csvs
    out = tmp_path / "eval_model"
    code = cli.main([
        "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(out),
        "--checkpoint", str(tiny_ckpt), "--mode", "mv", "--n", "64", "--m", "8",
        "--set", "start_years_after=1", "--set", "include_combined=false",
    ])
    assert code == 0
    assert (out / "records.csv").exists()


def test_evaluate_prints_grid_time_and_skips_by_reason_to_stderr(tmp_path, market_csvs, tiny_ckpt, capsys):
    _, rp = market_csvs
    stocks = make_price_panel(STOCK_IDS, date(2019, 1, 1), 400, seed=31)
    stocks.mask[0] = 0.0  # AAPL is never observed: each stocks cell forecasts the other six
    sp = tmp_path / "stocks_no_aapl.csv"
    save_csv_panel(sp, stocks)

    def run(out, *extra):
        code = cli.main([
            "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(out),
            "--checkpoint", str(tiny_ckpt), "--mode", "mv", "--n", "64", "--m", "8", "--m", "16",
            "--set", "start_years_after=1", "--set", "include_combined=false", *extra,
        ])
        assert code == 0
        return capsys.readouterr()

    dry = run(tmp_path / "dry", "--dry-run").out
    total = re.search(r"total cells: (\d+)", dry)[1]
    stocks_cells = sum(int(n) for n in re.findall(r"stocks .* origins=(\d+)", dry))

    first = run(tmp_path / "a")
    lines = [ln for ln in first.err.splitlines() if ln.startswith("grid: ")]
    assert len(lines) == 1 and "grid: " not in first.out
    # AAPL is skipped in every stocks cell, and no other series is
    hit = re.fullmatch(
        r"grid: \d+\.\d\d s wall, (\d+) cells \(\d+\.\d cells/s\), "
        r"(\d+) skips \((\d+) no observed context\)",
        lines[0],
    )
    assert hit and hit[2] == hit[3] == str(stocks_cells) != "0"
    records = E.read_records(tmp_path / "a" / "records.csv")
    assert {r.series for r in records if r.panel == "stocks"} == set(STOCK_IDS[1:])
    assert f"{hit[2]} skips)" in first.out
    assert hit[1] == total  # a fresh output directory computes every cell
    run(tmp_path / "b")
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_evaluate_missing_panel_exits_4(tmp_path, tiny_ckpt):
    code = cli.main([
        "evaluate", "--stocks", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x"),
        "--checkpoint", str(tiny_ckpt),
    ])
    assert code == 4


def test_evaluate_non_finite_panel_value_exits_5_before_any_record(tmp_path, capsys):
    stocks = make_price_panel(STOCK_IDS, date(2019, 1, 1), 400, seed=31)
    stocks.values[1, 50] = np.nan
    stocks.values[3, 70] = np.inf
    sp = tmp_path / "stocks.csv"
    save_csv_panel(sp, stocks)
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--stocks", str(sp), "--out", str(out), "--stub", "last-value",
                     "--n", "30", "--m", "5", "--set", "start_years_after=1"])
    assert code == 5
    err = capsys.readouterr().err
    assert f"malformed data: {sp}: row dated {stocks.dates[50]}, column AMZN: non-finite value nan" in err
    assert not out.exists()


def test_evaluate_bad_checkpoint_exits_4(tmp_path, market_csvs):
    sp, rp = market_csvs
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    code = cli.main([
        "evaluate", "--stocks", str(sp), "--rates", str(rp),
        "--out", str(tmp_path / "x"), "--checkpoint", str(bad),
    ])
    assert code == 4


def test_evaluate_without_checkpoint_or_stub_exits_2(tmp_path, market_csvs):
    sp, rp = market_csvs
    code = cli.main(["evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["evaluate", "--n", "0"],
    ["evaluate", "--m", "0"],
    ["evaluate", "--set", 'modes=["XV"]'],
    ["evaluate", "--set", "cutoff=2023-13-01"],
    ["report", "--set", "cutoff=2023-13-01"],
    ["evaluate", "--set", "point_quantile=0.5"],
    ["evaluate", "--set", "start_years_after=99"],
], ids=["n0", "m0", "mode-XV", "evaluate-cutoff", "report-cutoff", "point-quantile", "no-origin"])
def test_bad_grid_config_exits_2(tmp_path, market_csvs, capsys, argv):
    sp, rp = market_csvs
    records = tmp_path / "records.csv"
    records.write_text(",".join(E.RECORD_FIELDS) + "\n")
    inputs = {
        "evaluate": ["--stocks", str(sp), "--rates", str(rp), "--stub", "last-value",
                     "--n", "30", "--m", "5", "--set", "start_years_after=1"],
        "report": ["--records", str(records)],
    }[argv[0]]
    out = tmp_path / "out"
    assert cli.main(argv[:1] + inputs + ["--out", str(out)] + argv[1:]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "records.csv").exists()
    assert not out.exists()


def test_evaluate_repeated_grid_values_computed_once(tmp_path, market_csvs, capsys):
    sp, rp = market_csvs

    def run(out, *grid):
        assert cli.main([
            "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(tmp_path / out),
            "--stub", "last-value", "--set", "start_years_after=1", *grid,
        ]) == 0
        return capsys.readouterr()

    once = ("--n", "30", "--m", "5")
    repeated = ("--set", "contexts=[30, 30]", "--m", "5", "--m", "5",
                "--mode", "uv", "--mode", "mv", "--mode", "uv")
    dry = [re.search(r"total cells: (\d+)", run("dry", *g, "--dry-run").out)[1] for g in (once, repeated)]
    assert dry[0] == dry[1]
    cells = [re.search(r"grid: \S+ s wall, (\d+) cells", run(name, *g).err)[1]
             for name, g in (("once", once), ("repeated", repeated))]
    assert cells == [dry[0]] * 2
    assert _dir_bytes(tmp_path / "once") == _dir_bytes(tmp_path / "repeated")


def test_empty_grid_rerun_exits_2_and_keeps_the_output_directory(tmp_path, market_csvs, capsys):
    sp, rp = market_csvs
    out = tmp_path / "eval"
    base = ["evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(out),
            "--stub", "last-value", "--set", "start_years_after=1"]
    assert cli.main(base + ["--n", "30", "--m", "5"]) == 0
    before = _dir_bytes(out)
    assert len(before["records.csv"].splitlines()) > 1
    capsys.readouterr()
    empty_grids = (["--n", "30", "--m", "5000"], ["--set", "contexts=[]"], ["--set", "modes=[]"])
    for empty in empty_grids:
        assert cli.main(base + empty) == 2, empty
        err = capsys.readouterr().err
        assert err.startswith("config error: the grid has no cell") and err.count("\n") == 1, err
        assert _dir_bytes(out) == before


def _dry_run_lines(out: str) -> list[tuple]:
    return re.findall(r"^  (\w+) +(MV|UV) n= *(\d+)( \(\d+ used\))? m= *(\d+) origins=(\d+)$", out, re.M)


def test_dry_run_lists_the_plan_in_canonical_order(tmp_path, market_csvs, capsys):
    sp, rp = market_csvs
    assert cli.main([
        "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(tmp_path / "dry"),
        "--stub", "last-value", "--set", "start_years_after=1", "--dry-run",
        "--mode", "uv", "--mode", "mv", "--mode", "uv", "--n", "60", "--n", "30", "--n", "60",
        "--m", "9", "--m", "5", "--m", "9",
    ]) == 0
    out = capsys.readouterr().out
    lines = _dry_run_lines(out)
    assert [ln[:5] for ln in lines] == [
        (p, mo, str(n), "", str(m))
        for p in ("stocks", "rates", "combined") for mo in M.MODES for n in (30, 60) for m in (5, 9)
    ]
    assert int(re.search(r"total cells: (\d+)", out)[1]) == sum(int(ln[5]) for ln in lines) > 0
    assert not (tmp_path / "dry").exists()


def _truncating_grid(tmp_path, sp, ckpt, *extra) -> list[str]:
    return ["evaluate", "--stocks", str(sp), "--checkpoint", str(ckpt), "--out", str(tmp_path),
            "--n", "64", "--n", "150", "--m", "8", "--set", "start_years_after=1", *extra]


def test_dry_run_and_grid_line_report_the_truncated_cells_alike_at_any_worker_count(
    tmp_path, market_csvs, tiny_ckpt, capsys
):
    sp, _ = market_csvs
    assert cli.main(_truncating_grid(tmp_path / "dry", sp, tiny_ckpt, "--dry-run")) == 0
    lines = _dry_run_lines(capsys.readouterr().out)
    assert [(mo, n, used) for _, mo, n, used, _, _ in lines] == [
        ("MV", "64", ""), ("MV", "150", " (128 used)"), ("UV", "64", ""), ("UV", "150", " (128 used)"),
    ]  # tiny_ckpt's max_context is 128
    truncated = sum(int(ln[5]) for ln in lines if ln[3])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for workers in (1, 2):
        argv = _truncating_grid(tmp_path / f"w{workers}", sp, tiny_ckpt, "--workers", str(workers))
        proc = subprocess.run([sys.executable, "-m", "groupcast.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # the grid line is all of stderr: no process logs a truncation of its own
        assert re.fullmatch(
            rf"grid: \S+ s wall, \d+ cells \(\S+ cells/s\), 0 skips, "
            rf"{truncated} planned cells truncated to max_context 128\n",
            proc.stderr,
        ), proc.stderr
    assert _dir_bytes(tmp_path / "w1") == _dir_bytes(tmp_path / "w2")


def test_report_empty_records(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("panel,mode,series,n,m,origin,rmse,mape,skipped,regime\n")
    out = tmp_path / "rep"
    assert cli.main(["report", "--records", str(records), "--out", str(out)]) == 0
    for name in ("table1.csv", "table2.csv", "heatmap.csv", "timeseries.csv", "regime.csv"):
        assert len((out / name).read_text().strip().split("\n")) == 1


def test_report_idempotent(tmp_path, market_csvs):
    sp, rp = market_csvs
    out = tmp_path / "eval"
    cli.main([
        "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(out),
        "--stub", "last-value", "--n", "30", "--m", "5", "--set", "start_years_after=1",
    ])
    rep1 = tmp_path / "r1"
    rep2 = tmp_path / "r2"
    assert cli.main(["report", "--records", str(out / "records.csv"), "--out", str(rep1)]) == 0
    assert cli.main(["report", "--records", str(out / "records.csv"), "--out", str(rep2)]) == 0
    assert _dir_bytes(rep1) == _dir_bytes(rep2)


def test_report_single_mode_omits_improvements(tmp_path, market_csvs, caplog):
    sp, rp = market_csvs
    out = tmp_path / "eval_uv"
    cli.main([
        "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(out),
        "--stub", "last-value", "--mode", "uv", "--n", "30", "--m", "5",
        "--set", "start_years_after=1",
    ])
    rep = tmp_path / "rep"
    with caplog.at_level("WARNING"):
        assert cli.main(["report", "--records", str(out / "records.csv"), "--out", str(rep)]) == 0
    assert len((rep / "table2.csv").read_text().strip().split("\n")) == 1
    assert "lacks one mode" in caplog.text


def test_evaluate_single_mode_warns_once_per_series(tmp_path, market_csvs, caplog, capsys):
    sp, rp = market_csvs
    with caplog.at_level("WARNING", logger="groupcast.evalharness"):
        assert cli.main([
            "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(tmp_path / "mv"),
            "--stub", "last-value", "--mode", "mv", "--n", "30", "--m", "5",
            "--set", "start_years_after=1",
        ]) == 0
    warned = [r.getMessage() for r in caplog.records if "lacks one mode" in r.getMessage()]
    expected = {
        f"series {panel}/{sid} lacks one mode; omitted from comparison"
        for panel, ids in (("stocks", STOCK_IDS), ("rates", RATE_IDS), ("combined", STOCK_IDS + RATE_IDS))
        for sid in ids
    }
    assert sorted(warned) == sorted(expected)
    assert "(no rows)" in capsys.readouterr().out  # the comparison table printed from the same rows


def test_report_malformed_records_exits_5(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("wrong,header\n1,2\n")
    assert cli.main(["report", "--records", str(records), "--out", str(tmp_path / "x")]) == 5
    # a complete row with missing fields is malformed, not torn
    records.write_text(",".join(E.RECORD_FIELDS) + "\nstocks,MV,AAPL,30\n")
    assert cli.main(["report", "--records", str(records), "--out", str(tmp_path / "y")]) == 5
    # so is a row whose mode is not one of model.MODES
    row = "stocks,{},AAPL,30,5,2020-01-02,1.5,0.01,0,pre\n"
    records.write_text(",".join(E.RECORD_FIELDS) + "\n" + row.format("MV") + row.format("XX"))
    capsys.readouterr()
    assert cli.main(["report", "--records", str(records), "--out", str(tmp_path / "z")]) == 5
    assert "row 3 malformed" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def test_report_and_resumed_evaluate_reject_a_regime_other_than_pre_or_post(tmp_path, capsys):
    records = tmp_path / "records.csv"
    row = "stocks,MV,AAPL,30,5,{},1.5,0.01,0,{}\n"
    records.write_text(",".join(E.RECORD_FIELDS) + "\n" + row.format("2020-01-02", "pre")
                       + row.format("2024-01-02", "later"))
    capsys.readouterr()
    assert cli.main(["report", "--records", str(records), "--out", str(tmp_path / "z")]) == 5
    assert "row 3 malformed" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()
    out = tmp_path / "eval"
    argv = ["evaluate", "--out", str(out)] + _eval_inputs(tmp_path, n_days=600)
    assert cli.main(argv) == 0
    lines = (out / "records.csv").read_bytes().splitlines(keepends=True)
    lines[-1] = lines[-1].rsplit(b",", 1)[0] + b",later\r\n"
    (out / "records.csv").write_bytes(b"".join(lines))
    capsys.readouterr()
    assert cli.main(argv) == 5
    assert f"row {len(lines)} malformed" in capsys.readouterr().err


def test_evaluate_rerun_with_another_cutoff_writes_the_fresh_run_tree(tmp_path):
    sp = tmp_path / "stocks.csv"
    save_csv_panel(sp, make_price_panel(STOCK_IDS, date(2018, 1, 2), 600, seed=31))
    grid = ["--stocks", str(sp), "--stub", "last-value", "--mode", "UV", "--n", "30", "--m", "5",
            "--set", "start_years_after=1"]
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert cli.main(["evaluate", "--out", str(rerun), "--set", "cutoff=2019-06-01"] + grid) == 0
    assert cli.main(["evaluate", "--out", str(rerun), "--set", "cutoff=2020-01-01"] + grid) == 0
    assert cli.main(["evaluate", "--out", str(fresh), "--set", "cutoff=2020-01-01"] + grid) == 0
    assert tree_bytes(rerun) == tree_bytes(fresh)


def test_report_drops_torn_final_row(tmp_path, market_csvs):
    sp, rp = market_csvs
    out = tmp_path / "eval"
    cli.main([
        "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(out),
        "--stub", "last-value", "--n", "30", "--m", "5", "--set", "start_years_after=1",
    ])
    records = out / "records.csv"
    with open(records, "ab") as fh:
        fh.write(b"stocks,MV,AAPL,30,5,20")
    rep = tmp_path / "rep"
    assert cli.main(["report", "--records", str(records), "--out", str(rep)]) == 0
    assert _dir_bytes(rep)["table1.csv"] == (out / "table1.csv").read_bytes()


@pytest.mark.parametrize("rows,message", [
    (["s0,0,1.5", "s0,1,abc"], "line 3: unparseable value 'abc'"),
    (["s0,5,1.5", "s0,5,2.5", "s0,0,3.0"], "line 2: series 's0' has t='5', expected 0"),
    (["s0,0,1.5", "s0,1,inf"], "line 3, column value: non-finite value 'inf'"),
    (["s0,0,-inf", "s0,1,1.5"], "line 2, column value: non-finite value '-inf'"),
    (["s0,0,1.5", "s0,1,2.5", "s0,2,nan"], "line 4, column value: non-finite value 'nan'"),
], ids=["value-abc", "t-out-of-order", "value-inf", "value-minus-inf", "value-nan"])
def test_train_malformed_dataset_exits_5(tmp_path, capsys, rows, message):
    data = _synth_small(tmp_path)
    bad = data / "zz_bad.csv"
    bad.write_text("series_id,t,value\r\n" + "".join(f"{r}\r\n" for r in rows), newline="")
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["train", "--data", str(data), "--out", str(out)] + TRAIN_OVERRIDES) == 5
    assert f"malformed data: {bad}, {message}" in capsys.readouterr().err
    assert not out.exists()


def test_panel_validate_prints_summary(tmp_path, market_csvs, capsys):
    sp, _ = market_csvs
    assert cli.main(["panel", "validate", "--path", str(sp), "--ids", "stocks"]) == 0
    text = capsys.readouterr().out
    assert "series (K):      7" in text
    assert "span:" in text


def test_panel_validate_malformed_exits_5(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,A\n2024-01-02,1\n2024-01-02,2\n")
    assert cli.main(["panel", "validate", "--path", str(p)]) == 5


def _evaluate(t: Path, *flags: str) -> list[str]:
    return ["evaluate", "--out", str(t / "out"), *_eval_inputs(t, stub=False), *flags]


def _train(t: Path, *flags: str) -> list[str]:
    return ["train", "--out", str(t / "out"), *flags] + TRAIN_OVERRIDES


def _synth(t: Path, *flags: str) -> list[str]:
    return ["synth", "--out", str(t / "out"), *flags]


def _report(t: Path, *flags: str) -> list[str]:
    return ["report", "--out", str(t / "out"), *flags]


def _validate(path) -> list[str]:
    return ["panel", "validate", "--path", str(path)]


def _not_utf8(path: Path, header: str) -> str:
    """A file whose second line holds a byte that is not UTF-8."""
    path.write_bytes(header.encode() + b"\n\xe9\n")
    return str(path)


def _data(t: Path, subdir: str = "", bad: bytes = b"") -> str:
    """t/data holding one small dataset, a directory named subdir (if given)
    and a b.csv holding bad (if given)."""
    data = t / "data"
    data.mkdir()
    S.save_panel_dataset(data / "a.csv", np.arange(40.0).reshape(1, 40))
    if subdir:
        (data / subdir).mkdir()
    if bad:
        (data / "b.csv").write_bytes(bad)
    return str(data)


def _empty_dir(path: Path) -> str:
    path.mkdir()
    return str(path)


def _file(path: Path, text: str = "x\n") -> str:
    path.write_text(text)
    return str(path)


def _records(t: Path) -> str:
    path = t / "records.csv"
    path.write_text(",".join(E.RECORD_FIELDS) + "\n")
    return str(path)


def _bad_ckpt(t: Path, extra=None, **model) -> str:
    """t/bad.ckpt: tiny.ckpt's weights under a header whose model config has
    the given fields replaced and whose extra is extra (default {"step": 0})."""
    weights, cfg, _, _ = load_checkpoint(t / "tiny.ckpt")
    header = SimpleNamespace(to_dict=lambda: {**cfg.to_dict(), **model})
    save_checkpoint(t / "bad.ckpt", weights, header, extra={"step": 0} if extra is None else extra)
    return str(t / "bad.ckpt")


def _no_common_day(t: Path) -> list[str]:
    rp = t / "rates.csv"
    save_csv_panel(rp, make_rate_panel(RATE_IDS, date(2022, 1, 3), 400, seed=32))
    return _evaluate(t, "--rates", str(rp), "--stub", "last-value")


EXIT_PREFIX = {2: "config error:", 4: "load failure:", 5: "malformed data:"}

# (code, argv built in a fresh directory t that holds tiny.ckpt, a d16
# checkpoint of capacity 64, and optionally a phrase the message holds);
# t/out is where a command that writes would write
EXIT_CASES = {
    # a file that cannot be opened, read or written
    "evaluate-panel-missing": (4, lambda t: _evaluate(t, "--stub", "last-value", "--rates", str(t / "no.csv"))),
    "evaluate-panel-directory": (4, lambda t: _evaluate(t, "--stub", "last-value", "--rates", str(t))),
    "evaluate-checkpoint-missing": (4, lambda t: _evaluate(t, "--checkpoint", str(t / "no"))),
    "evaluate-checkpoint-directory": (4, lambda t: _evaluate(t, "--checkpoint", str(t))),
    "train-dataset-directory": (4, lambda t: _train(t, "--data", _data(t, subdir="x.csv"))),
    "train-data-missing": (4, lambda t: _train(t, "--data", str(t / "no"))),
    "train-data-file": (4, lambda t: _train(t, "--data", _file(t / "data"))),
    "train-resume-missing": (4, lambda t: _train(t, "--data", _data(t), "--resume", str(t / "no"))),
    "report-records-missing": (4, lambda t: _report(t, "--records", str(t / "no.csv"))),
    "report-records-directory": (4, lambda t: _report(t, "--records", str(t))),
    "config-missing": (4, lambda t: _synth(t, "--config", str(t / "no.json"))),
    "config-directory": (4, lambda t: _synth(t, "--config", str(t))),
    "validate-missing": (4, lambda t: _validate(t / "no.csv")),
    "validate-directory": (4, lambda t: _validate(t)),
    "synth-out-file": (4, lambda t: _synth(t, "--set", 'tsi={"count": 1, "length": 16}', "--out", _file(t / "out"))),
    "evaluate-out-file": (4, lambda t: _evaluate(t, "--stub", "last-value", "--out", _file(t / "out"))),
    "report-out-file": (4, lambda t: _report(t, "--records", _records(t), "--out", _file(t / "out"))),
    "train-out-file": (4, lambda t: _train(t, "--data", _data(t), "--out", _file(t / "out"))),
    # a corrupt checkpoint: a header the model cannot run
    "evaluate-checkpoint-header-kind": (4, lambda t: _evaluate(t, "--checkpoint", _bad_ckpt(t, n_heads=2.0))),
    "evaluate-checkpoint-misfit": (4, lambda t: _evaluate(t, "--checkpoint", _bad_ckpt(t, patch_len=4))),
    "train-resume-header-kind": (4, lambda t: _train(t, "--data", _data(t), "--resume", _bad_ckpt(t, n_heads=2.0))),
    "train-resume-extra-not-object": (4, lambda t: _train(t, "--data", _data(t), "--resume", _bad_ckpt(t, extra=5))),
    "train-resume-step-not-int": (4, lambda t: _train(
        t, "--data", _data(t), "--resume", _bad_ckpt(t, extra={"step": "x"}))),
    # malformed content
    "evaluate-panel-not-utf8": (5, lambda t: _evaluate(
        t, "--stub", "last-value", "--stocks", _not_utf8(t / "bad.csv", "date," + ",".join(STOCK_IDS)))),
    "validate-not-utf8": (5, lambda t: _validate(_not_utf8(t / "bad.csv", "date,A"))),
    "train-dataset-not-utf8": (5, lambda t: _train(t, "--data", _data(t, bad=b"series_id,t,value\r\ns0,0,\xe9\r\n"))),
    "report-records-not-utf8": (5, lambda t: _report(
        t, "--records", _not_utf8(t / "records.csv", ",".join(E.RECORD_FIELDS)))),
    "evaluate-combined-no-common-day": (5, _no_common_day),
    "report-records-malformed": (5, lambda t: _report(t, "--records", _file(t / "records.csv"))),
    "validate-malformed": (5, lambda t: _validate(_file(t / "p.csv"))),
    "validate-duplicate-column": (5, lambda t: _validate(_file(t / "p.csv", "date,A,A\n2020-01-02,1,2\n")),
                                  "duplicate series columns"),
    "validate-row-too-long": (5, lambda t: _validate(_file(t / "p.csv", "date,A\n2020-01-02,1,2\n")),
                              "row 2 has 3 cells, expected 2"),
    "validate-bad-date": (5, lambda t: _validate(_file(t / "p.csv", "date,A\n2020-13-02,1\n")), "bad date"),
    "validate-no-rows": (5, lambda t: _validate(_file(t / "p.csv", "date,A\n")), "no data rows"),
    "train-dataset-wrong-header": (5, lambda t: _train(t, "--data", _data(t, bad=b"id,t,value\r\ns0,0,1\r\n")),
                                   "expected header series_id,t,value"),
    "train-dataset-two-cell-row": (5, lambda t: _train(t, "--data", _data(t, bad=b"series_id,t,value\r\ns0,0\r\n")),
                                   "malformed row"),
    "train-dataset-no-rows": (5, lambda t: _train(t, "--data", _data(t, bad=b"series_id,t,value\r\n")),
                              "empty dataset"),
    "train-dataset-unequal-series": (5, lambda t: _train(
        t, "--data", _data(t, bad=b"series_id,t,value\r\na,0,1\r\na,1,2\r\nb,0,3\r\n")), "series lengths differ"),
    # config errors
    "config-not-utf8": (2, lambda t: _synth(t, "--config", _not_utf8(t / "c.json", "{"))),
    "config-not-object": (2, lambda t: _synth(t, "--config", _file(t / "c.json", "[1]")), "must hold a JSON object"),
    "set-without-value": (2, lambda t: _synth(t, "--set", "seed"), "--set expects key=value"),
    "evaluate-unknown-panel-key": (2, lambda t: _evaluate(t, "--stub", "last-value", "--set", "panels.stocks.x=1"),
                                   "unknown config key 'panels.stocks.x'"),
    "train-no-data": (2, lambda t: _train(t), "train needs data_dir"),
    "evaluate-no-panel": (2, lambda t: ["evaluate", "--out", str(t / "out"), "--stub", "last-value"],
                          "needs at least one of panels.stocks / panels.rates"),
    "report-no-records": (2, lambda t: _report(t), "report needs a records path"),
    "train-data-empty": (2, lambda t: _train(t, "--data", _empty_dir(t / "data")), "no dataset CSVs under"),
    "synth-tsi-not-object": (2, lambda t: _synth(t, "--set", "explicit_tsi=[5]"), "TsiSpec needs an object"),
    "synth-tsi-kind-tcm": (2, lambda t: _synth(t, "--set", 'explicit_tsi=[{"kind":"tcm","length":5}]'),
                           "TsiSpec needs kind 'tsi'"),
    "synth-tcm-lag-order-0": (2, lambda t: _synth(
        t, "--set", 'explicit_tcm=[{"n_series":1,"lag_order":0,"adjacency":[],"length":8}]'), "lag order must be >= 1"),
    "train-head-width-odd": (2, lambda t: _train(t, "--data", _data(t)) + ["--set", "model.d_model=6"],
                             "head width must be even"),
    "train-patch-len-0": (2, lambda t: _train(t, "--data", _data(t)) + ["--set", "model.patch_len=0"],
                          "patch_len out of range"),
    "train-stage-steps-negative": (2, lambda t: _train(t, "--data", _data(t)) + [
        "--set", "train.stage_steps=[-1, 5]"], "stage_steps must be >= 0"),
    "evaluate-stub-list": (2, lambda t: _evaluate(t, "--set", "stub=[1]")),
    "evaluate-horizon-past-capacity": (2, lambda t: _evaluate(t, "--checkpoint", str(t / "tiny.ckpt"), "--m", "100")),
    "synth-tcm-bool-coefficient": (2, lambda t: _synth(
        t, "--set", 'explicit_tcm=[{"n_series":1,"lag_order":1,"adjacency":[[[false]]],"length":8}]')),
    "synth-tcm-string-coefficient": (2, lambda t: _synth(
        t, "--set", 'explicit_tcm=[{"n_series":1,"lag_order":1,"adjacency":[[["0.5"]]],"length":8}]')),
    "evaluate-start-past-calendar": (2, lambda t: _evaluate(t, "--stub", "last-value", "--set", "start_years_after=10000")),
    "evaluate-start-negative": (2, lambda t: _evaluate(t, "--stub", "last-value", "--set", "start_years_after=-5")),
    "train-min-context-patches-negative": (2, lambda t: _train(t, "--data", _data(t)) + [
        "--set", "train.min_context_patches=-3"]),
    "train-series-shorter-than-window": (2, lambda t: _train(t, "--data", _data(t)) + [
        "--set", "train.stage_contexts=[16,48]"]),
    "synth-tcm-edge-prob-above-1": (2, lambda t: _synth(t, "--set", "tcm.count=2", "--set", "tcm.edge_prob=5")),
    "synth-tcm-edge-prob-negative": (2, lambda t: _synth(t, "--set", "tcm.count=2", "--set", "tcm.edge_prob=-3")),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_bad_input_exits_with_its_code_in_one_line(tmp_path, tiny_ckpt, capsys, case):
    code, argv, *phrase = EXIT_CASES[case]
    argv = argv(tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(EXIT_PREFIX[code]) and err.count("\n") == 1, err
    assert all(p in err for p in phrase), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").is_dir()


def test_entry_point_maps_a_missing_file_to_4(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "groupcast.cli", "report", "--records", str(tmp_path / "no.csv"),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("load failure:") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "out").exists()


# a locale whose preferred encoding is ASCII: text opened without an
# explicit encoding cannot hold a byte past 0x7f
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": "utf-8"}


def _run_ascii(argv, *python_flags):
    """groupcast argv in a subprocess under ASCII_LOCALE."""
    env = {**os.environ, **ASCII_LOCALE, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, *python_flags, "-m", "groupcast.cli", *argv],
                          env=env, capture_output=True, text=True, encoding="utf-8", timeout=120)


def test_panel_validate_reads_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,CAF\u00c9\n2020-01-02,1.5\n2020-01-03,1.6\n", encoding="utf-8")
    proc = _run_ascii(_validate(path))
    assert proc.returncode == 0, proc.stderr
    assert "CAF\u00c9" in proc.stdout


def test_no_command_opens_text_in_the_locale_encoding(tmp_path):
    """Every command in a subprocess that turns EncodingWarning, which an
    open() without an encoding gives under -X warn_default_encoding, into
    an error."""
    sp = tmp_path / "stocks.csv"
    save_csv_panel(sp, make_price_panel(STOCK_IDS, date(2019, 1, 1), 400, seed=31))
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"tsi": {"count": 2, "length": 96}, "independent": {"count": 2, "length": 96}}))
    evaluate = ["evaluate", "--checkpoint", str(tmp_path / "run" / "model.ckpt"), *_eval_inputs(tmp_path, stub=False)]
    commands = [
        ["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "data")],
        ["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run"), *TRAIN_OVERRIDES,
         "--set", "train.stage_steps=[2, 1]"],
        evaluate + ["--workers", "1", "--out", str(tmp_path / "ev1")],
        evaluate + ["--workers", "2", "--out", str(tmp_path / "ev2")],
        ["report", "--records", str(tmp_path / "ev1" / "records.csv"), "--out", str(tmp_path / "rep")],
        _validate(sp),
    ]
    for argv in commands:
        proc = _run_ascii(argv, "-X", "warn_default_encoding", "-W", "error::EncodingWarning")
        assert proc.returncode == 0 and "Warning" not in proc.stderr, (argv[0], proc.stderr)


def test_set_override_parsing(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"tsi": {"count": 1, "length": 32}}')
    out = tmp_path / "d"
    assert cli.main([
        "synth", "--config", str(cfg_path), "--out", str(out), "--seed", "2",
        "--set", "tsi.count=3",
    ]) == 0
    assert len(list(out.glob("tsi_*.csv"))) == 3
