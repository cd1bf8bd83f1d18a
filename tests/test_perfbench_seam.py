"""The benchmark still finds every program name and option it uses.

perfbench/layers.py replaces module attributes of the package to time
them, and perfbench/workloads.py passes fixed argv to the CLI and calls the
config classes' to_dict; deleting or renaming one of those breaks the
benchmark, so these run its code against the current source. One pass of
each workload must also give the output hashes perfbench/reference.json
recorded, so a change of bits fails here and not only in the benchmark.
"""

import json
from datetime import date
from pathlib import Path

import pytest

from groupcast import cli
from groupcast import evalharness as E
from groupcast import model as M
from groupcast import train as TR

from conftest import make_price_panel, make_rate_panel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_instrument_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    owners = (layers.cli, layers.E, layers.K, layers.M, layers.P, layers.S, layers.T, layers.TR)
    before = [dict(vars(m)) for m in owners]
    with spans.Patcher() as patcher:
        layers.instrument(spans.Tracer(), patcher)  # AttributeError on a missing name
        assert patcher._saved
        assert any(vars(m)[k] is not v for m, saved in zip(owners, before) for k, v in saved.items())
    for m, saved in zip(owners, before):
        assert vars(m).keys() == saved.keys(), m.__name__
        changed = [k for k, v in saved.items() if vars(m)[k] is not v]
        assert not changed, (m.__name__, changed)


def test_perfbench_cli_argv_and_configs_still_parse(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    grid = workloads.EvalGrid(0)
    grid.setup(tmp_path)
    argv = ["evaluate", "--out", str(tmp_path / "eval")] + grid.argv_inputs
    args = cli.build_parser().parse_args(argv)
    assert cli._load_config(args, cli.EVAL_KEYS)["seed"] == 0  # accepted, unused
    assert cli.main(argv + ["--dry-run"]) == 0
    assert "total cells" in capsys.readouterr().out

    synth = workloads.SynthCorpus(0)
    synth.setup(tmp_path)
    argv = ["synth", "--config", str(synth.config_path), "--out", str(tmp_path / "synth"), "--seed", "0"]
    cfg = cli._load_config(cli.build_parser().parse_args(argv), cli.SYNTH_KEYS)
    assert cfg["tcm"]["n_series_range"] == [3, 3] and cfg["seed"] == 0

    desk = workloads.TrainDesk(0)
    recorded = desk.config()  # calls both configs' to_dict
    assert M.ModelConfig.from_dict(recorded["model"]) == desk.model_config
    assert TR.TrainConfig.from_dict(recorded["train"]) == desk.train_config


@pytest.mark.parametrize("workers", [1, 2])
def test_timing_patch_sees_every_grid_cell_with_its_spec(monkeypatch, tmp_path, workers):
    """workloads.EvalGrid times each cell by replacing E.evaluate_cell, and
    layers names its span from the spec at argument 1: run_grid must reach
    every cell through that attribute, on the pool's workers too."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    panels = {
        "stocks": make_price_panel(["s0", "s1", "s2"], date(2015, 1, 6), 160, seed=51),
        "rates": make_rate_panel(["r0", "r1"], date(2015, 1, 6), 160, seed=52),
    }
    specs = [
        E.ExperimentSpec(panel=p, mode=mo, n=n, m=5, start_years_after=0)
        for p in panels for mo in ("MV", "UV") for n in (30, 60)
    ]
    expected = sorted(
        f"{spec.panel},{spec.mode},{spec.n},{spec.m},{origin}"
        for spec in specs for origin in E.rolling_origins(panels[spec.panel], spec)
    )
    seen = tmp_path / "seen.txt"  # appended from whichever process ran the cell
    evaluate_cell = E.evaluate_cell

    def timed_cell(*args, **kwargs):
        spec = layers._arg(args, kwargs, 1, "spec")
        with open(seen, "a") as fh:
            fh.write(f"{spec.panel},{spec.mode},{spec.n},{spec.m},{args[2]}\n")
        return evaluate_cell(*args, **kwargs)

    with spans.Patcher() as patcher:
        patcher.set(E, "evaluate_cell", timed_cell)
        _, _, cells = E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), workers=workers)
    assert cells == len(expected)
    assert sorted(seen.read_text().splitlines()) == expected

    if workers == 1:  # spans live in this process
        tracer = spans.Tracer()
        with spans.Patcher() as patcher:
            layers.instrument(tracer, patcher)
            E.run_grid(E.grid_plan(specs, panels), panels, E.LastValueStub(), workers=workers)
        per_mode = {mo: tracer.calls[f"evalharness.evaluate_cell.{mo}"] for mo in ("MV", "UV")}
        assert per_mode == {mo: sum(line.split(",")[1] == mo for line in expected) for mo in per_mode}


def test_train_desk_setup_builds_its_corpus_pools(monkeypatch, tmp_path):
    """workloads.TrainDesk builds its corpus from the synthdata generators
    with the keyword arguments it passes: a changed signature fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    desk = workloads.TrainDesk(0)
    desk.setup(tmp_path)
    corpus = desk.corpus
    assert (len(corpus.univariate), len(corpus.panels), len(corpus.covariate_panels)) == (260, 240, 60)


def test_synth_pass_saves_each_dataset_once_through_the_module_attributes(monkeypatch, tmp_path):
    """workloads.SynthCorpus counts points by replacing S.save_panel_dataset
    and times each dataset by replacing S.save_provenance: cmd_synth must
    call both through the module, once per dataset."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import hostspeed
    import workloads

    monkeypatch.setattr(workloads.SynthCorpus, "CONFIG", {
        "tsi": {"count": 2, "length": 48},
        "tcm": {"count": 2, "length": 40, "n_series_range": [3, 3], "lag_range": [2, 2]},
        "derived": {"count": 1, "length": 32, "lag_choices": [4]},
        "independent": {"count": 1, "length": 24},
    })
    synth = workloads.SynthCorpus(3)
    synth.setup(tmp_path)
    out = tmp_path / "out"
    result = synth.run_pass(out, hostspeed.HostSpeed(None))
    csvs, jsons = sorted(out.glob("*.csv")), sorted(out.glob("*.json"))
    assert result.error is None and (result.ops, result.failed) == (6, 0)
    assert len(csvs) == len(jsons) == 6
    assert result.work == sum(len(p.read_text().splitlines()) - 1 for p in csvs)  # one row per point
    assert len(result.latencies_ms) == len(result.op_ends) == 5  # the first interval is dropped


@pytest.mark.parametrize("name", ["train-desk", "eval-grid", "synth-corpus"])
def test_one_pass_of_each_workload_gives_the_recorded_seed_0_hashes(monkeypatch, tmp_path, name):
    """The benchmark runs every pass against perfbench/reference.json; one
    seed-0 pass here catches a change of output bits in tier-1. Hashes are
    recorded for one numpy/BLAS build, so another build skips."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import hostspeed
    import run
    import workloads

    reference = json.loads((PERFBENCH / "reference.json").read_text())
    if reference["build"] != run.build_fingerprint():
        pytest.skip("perfbench/reference.json holds no hashes for this numpy/BLAS build")
    workload = workloads.WORKLOADS[name](0)
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    workload.setup(inputs)
    result = workload.run_pass(out, hostspeed.HostSpeed(None))
    assert result.error is None and result.failed == 0
    assert workload.pass_hashes(out) == reference["hashes"][name]["0"]
