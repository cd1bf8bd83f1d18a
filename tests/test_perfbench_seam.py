"""The benchmark's layer spans still find every program name they wrap.

perfbench/layers.py replaces module attributes of the package to time
them; deleting or renaming one of those names breaks the benchmark, so
this runs its instrumentation against the current source.
"""

from pathlib import Path

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
