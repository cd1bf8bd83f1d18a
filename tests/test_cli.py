"""CLI subcommands, config handling, exit codes."""

import json
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from groupcast import cli
from groupcast import evalharness as E
from groupcast.checkpoint import load_checkpoint, save_checkpoint
from groupcast import model as M
from groupcast.panels import RATE_IDS, STOCK_IDS, save_csv_panel

from conftest import make_price_panel, make_rate_panel


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


def test_unknown_config_key_exits_2(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"tsii": {"count": 1}}')
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2


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


def test_train_resume_from_corrupt_checkpoint_exits_4(tmp_path):
    data = _synth_small(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    code = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "x"),
                     "--resume", str(bad)] + TRAIN_OVERRIDES)
    assert code == 4


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


def test_evaluate_missing_panel_exits_4(tmp_path, tiny_ckpt):
    code = cli.main([
        "evaluate", "--stocks", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x"),
        "--checkpoint", str(tiny_ckpt),
    ])
    assert code == 4


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
