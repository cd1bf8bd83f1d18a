"""CLI subcommands, config handling, exit codes."""

import json
import os
import re
from datetime import date
from pathlib import Path

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


@pytest.mark.parametrize("command,key", [
    ("synth", "out_dir"), ("train", "out_dir"), ("evaluate", "out_dir"), ("report", "out_dir"),
    ("train", "data_dir"), ("train", "resume"), ("evaluate", "checkpoint"),
    ("evaluate", "panels.stocks"), ("evaluate", "panels.rates"), ("report", "records"),
])
@pytest.mark.parametrize("value", ["5", "true", "[1]", '{"path": "x"}'])
def test_path_key_takes_only_a_string_or_null(monkeypatch, tmp_path, capsys, command, key, value):
    def no_open(*args, **kwargs):
        raise AssertionError(f"opened {args[0]!r} before the config error")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("builtins.open", no_open)
    capsys.readouterr()
    assert cli.main([command, "--set", f"{key}={value}"]) == 2
    assert f"config error: config key {key!r} takes a path string or null" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    if key.startswith("panels."):  # through the section's object, too
        sub = key.split(".")[1]
        assert cli.main([command, "--set", f'panels={{"{sub}": {value}}}']) == 2


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
    # train configs that failed mid-curriculum, after files were written
    ["train", "--set", "train.stage_contexts=[64]", "--set", "train.stage_steps=[2,2]"],
    ["train", "--set", "train.stage_contexts=[16,32,32]"],
    ["train", "--set", "train.batch_groups=0"],
    ["train", "--set", "train.checkpoint_every=0"],
    ["train", "--set", "train.max_horizon_patches=-1"],
    ["train", "--set", "train.max_horizon_patches=0"],
    ["train", "--set", "train.max_horizon_patches=3"],  # past the model's horizon_patches=2
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
    ["synth", "--set", "derived.length=0"],
    ["synth", "--set", 'tsi={"count": 1, "length": 10}', "--set",
     'explicit_tsi=[{"length": 5, "noise_family": "student_t", "noise_scale": 1.0, "noise_df": 0}]'],
    ["synth", "--set", 'tsi={"count": 1, "length": 10}', "--set", 'explicit_tsi=[{"length": 5, "trend_slope": "a"}]'],
    ["synth", "--set", 'tsi={"count": 1, "length": 10}', "--set",
     'explicit_tcm=[{"n_series": 1.0, "lag_order": 1, "adjacency": [[[0.5]]], "length": 5}]'],
], ids=["tsi-int", "count-str", "tsi-key", "tcm-missing", "tsi-length0", "tcm-adjacency",
        "tcm-unstable", "model-int", "d_model-str", "top-seed", "workers-0", "workers-negative",
        "one-context-two-stages", "three-contexts-two-stages", "batch_groups-0", "checkpoint_every-0",
        "max_horizon_patches-negative", "max_horizon_patches-0", "max_horizon_patches-past-model",
        "contexts-str", "contexts-float", "horizons-bool", "horizons-mixed", "modes-int", "modes-null",
        "lag_range-float", "lag_range-str", "lag_choices-bool", "lag_choices-list",
        "independent-length0", "tcm-length0-after-tsi", "n_series_range-reversed", "lag_choices-empty",
        "tcm-radius_range-unstable", "tsi-count-negative", "derived-length0-count0",
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


def _eval_inputs(tmp_path) -> list[str]:
    """Flags for a small stub grid that evaluates cleanly."""
    sp = tmp_path / "stocks.csv"
    save_csv_panel(sp, make_price_panel(STOCK_IDS, date(2019, 1, 1), 400, seed=31))
    return ["--stocks", str(sp), "--stub", "last-value", "--mode", "UV", "--n", "30", "--m", "5",
            "--set", "start_years_after=1"]


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
    sp, rp = market_csvs

    def run(out, *extra):
        code = cli.main([
            "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(out),
            "--checkpoint", str(tiny_ckpt), "--mode", "mv", "--n", "64", "--m", "8", "--m", "70",
            "--set", "start_years_after=1", "--set", "include_combined=false", *extra,
        ])
        assert code == 0
        return capsys.readouterr()

    total = re.search(r"total cells: (\d+)", run(tmp_path / "dry", "--dry-run").out)[1]

    first = run(tmp_path / "a")
    lines = [ln for ln in first.err.splitlines() if ln.startswith("grid: ")]
    assert len(lines) == 1 and "grid: " not in first.out
    # m=70 exceeds the checkpoint's 64-step capacity, so every m=70 series is skipped
    hit = re.fullmatch(
        r"grid: \d+\.\d\d s wall, (\d+) cells \(\d+\.\d cells/s\), "
        r"(\d+) skips \((\d+) forecast error: horizon 70 [^;]*\)",
        lines[0],
    )
    assert hit and hit[2] == hit[3] != "0"
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
], ids=["n0", "m0", "mode-XV", "evaluate-cutoff", "report-cutoff", "point-quantile"])
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


def test_report_malformed_records_exits_5(tmp_path):
    records = tmp_path / "records.csv"
    records.write_text("wrong,header\n1,2\n")
    assert cli.main(["report", "--records", str(records), "--out", str(tmp_path / "x")]) == 5
    # a complete row with missing fields is malformed, not torn
    records.write_text(",".join(E.RECORD_FIELDS) + "\nstocks,MV,AAPL,30\n")
    assert cli.main(["report", "--records", str(records), "--out", str(tmp_path / "y")]) == 5


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


def test_set_override_parsing(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"tsi": {"count": 1, "length": 32}}')
    out = tmp_path / "d"
    assert cli.main([
        "synth", "--config", str(cfg_path), "--out", str(out), "--seed", "2",
        "--set", "tsi.count=3",
    ]) == 0
    assert len(list(out.glob("tsi_*.csv"))) == 3
