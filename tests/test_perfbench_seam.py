"""The benchmark still finds every program name and option it uses.

perfbench/layers.py replaces module attributes of the package to time
them, and perfbench/workloads.py passes fixed argv to the CLI and calls the
config classes' to_dict; deleting or renaming one of those breaks the
benchmark, so these run its code against the current source.
"""

from pathlib import Path

from groupcast import cli
from groupcast import model as M
from groupcast import train as TR

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
