"""The benchmark's exact per-layer counts repeat bit for bit, and neither
tracing nor the host-speed probes change a single output bit.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from hostspeed import HostSpeed  # noqa: E402
from layers import EXACT_COUNTS, instrument, layer_metrics  # noqa: E402
from spans import Patcher, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def _pass(workload, out_dir: Path, traced: bool):
    # as in run.py: untraced passes probe the host speed, traced ones do not
    tracer = Tracer()
    speed = HostSpeed(None if traced else workload.probe)
    with Patcher() as patcher:
        if traced:
            instrument(tracer, patcher)
        frame = tracer.enter(workload.entry)
        result = workload.run_pass(out_dir, speed)
        tracer.exit(frame)
    assert result.error is None and result.failed == 0
    assert len(result.op_ends) == len(result.latencies_ms) > 0
    assert not traced or speed.probe_s == []
    values = layer_metrics(tracer, result.ops, 1)
    return {k: values[k] for k in EXACT_COUNTS}, workload.pass_hashes(out_dir)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request, tmp_path_factory):
    base = tmp_path_factory.mktemp(request.param)
    workload = WORKLOADS[request.param](SEED)
    (base / "inputs").mkdir()
    workload.setup(base / "inputs")
    _counts, plain_hashes = _pass(workload, base / "plain", traced=False)
    first = _pass(workload, base / "traced1", traced=True)
    second = _pass(workload, base / "traced2", traced=True)
    return request.param, plain_hashes, first, second


def test_exact_counts_repeat_bit_for_bit(passes):
    _name, _plain, (counts1, _h1), (counts2, _h2) = passes
    assert counts1 == counts2


def test_traced_outputs_equal_untraced(passes):
    _name, plain, (_c1, hashes1), (_c2, hashes2) = passes
    assert plain and hashes1 == plain and hashes2 == plain


def test_counts_land_on_the_layers_each_workload_exercises(passes):
    name, _plain, (counts, _h), _second = passes
    if name == "train-desk":
        assert counts["tensor.tape_entries"] > counts["tensor.backward.intermediate_grads"] > 0
        assert 0.0 < counts["model.group_attention.useful_pair_frac"] < 1.0
        assert counts["evalharness.cells"] == 0
    elif name == "eval-grid":
        # forward only: predict never records a tape
        assert counts["tensor.tape_entries"] == 0
        assert counts["evalharness.cells"] > 0 and counts["evalharness.records"] > 0
        assert counts["evalharness.skips"] == 0
        assert 0.0 < counts["model.group_attention.useful_pair_frac"] < 1.0
    else:
        assert counts["kernels.var_recursion.madds"] > 0
        assert counts["tensor.tape_entries"] == 0
        assert counts["model.group_attention.useful_pair_frac"] == 0.0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable] + cmd[1:] + ["--workload", "synth-corpus", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
