#!/usr/bin/env python3
"""groupcast benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 20 --trace 0

Run from the repository root (the program is imported from ./src). The
run builds the workload's inputs from the seed (timed as set-up, several
times), runs one untimed warm-up pass, then repeats passes for --seconds:

* --trace 0: no layer spans; prints the end-to-end metrics, with every
  time scaled to an uncontended core by probes timed between ops
  (hostspeed.py).
* --trace 1: untraced passes alternate with passes that have a span
  around every layer function; prints the per-layer metrics, the tracing
  overhead and how much of the traced wall the layer spans account for.

Every pass's deterministic outputs are hashed and must equal the warm-up
pass's; the warm-up hashes must equal the reference recorded for this
numpy/BLAS build and seed, where one is recorded (reference.json). The
last line of stdout is one JSON object: correct, attempted, failed,
metrics. The full result with provenance is written under .perfbench/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 7
COVERAGE_MIN = 0.9  # layer spans must cover this share of the traced wall

# workload-specific names of the generic end-to-end metrics, printed beside them
ALIASES = {
    "train-desk": {"throughput": "train.steps_per_s", "op_ms.p50": "train.step_ms.p50",
                   "op_ms.p90": "train.step_ms.p90"},
    "eval-grid": {"throughput": "eval.cells_per_s", "op_ms.p50": "eval.cell_ms.p50",
                  "op_ms.p90": "eval.cell_ms.p90"},
    "synth-corpus": {"throughput": "synth.points_per_s", "op_ms.p50": "synth.dataset_ms.p50",
                     "op_ms.p90": "synth.dataset_ms.p90"},
}


# import time of the program in a fresh interpreter: what every `groupcast`
# invocation pays before it does any work. The interpreter then times the
# host-speed probe, so that the import can be scaled like the rest. It is
# a single reading for the whole import, so it takes more repetitions.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
t = time.perf_counter()
import groupcast.cli
import_s = time.perf_counter() - t
import hostspeed
probe = hostspeed.PROBES[sys.argv[3]][0]
hostspeed.time_probe(probe)  # warm-up
print(import_s, hostspeed.time_probe(probe, reps=15))
"""


def program_import_s(kind: str) -> tuple[float, float]:
    """Seconds to import groupcast.cli afresh, and the probe time just after."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE), kind],
        capture_output=True, text=True, timeout=120, check=True,
    )
    import_s, probe_s = proc.stdout.split()
    return float(import_s), float(probe_s)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def build_fingerprint() -> dict:
    """What decides the output bits besides the code: interpreter, numpy, BLAS, CPU features."""
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    simd = cfg.get("SIMD Extensions", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "simd": sorted(simd.get("found", [])),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(workload, trace: int) -> dict:
    from groupcast.backend import backend_name

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "build": build_fingerprint(),
        "backend": backend_name(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": workload.seed,
        "trace": trace,
        "config": workload.config(),
    }


def reference_status(workload, hashes: dict) -> str:
    if not REFERENCE.exists():
        return "no reference file"
    ref = json.loads(REFERENCE.read_text())
    if ref.get("build") != build_fingerprint():
        return "not recorded for this build"
    expected = ref.get("hashes", {}).get(workload.name, {}).get(str(workload.seed))
    if expected is None:
        return "not recorded for this seed"
    return "match" if expected == hashes else "mismatch"


class Pass(NamedTuple):
    result: object  # workloads.PassResult
    wall: float  # seconds, probes excluded
    scaled: float  # wall at the reference speed (= wall when not probing)
    hashes: dict


class Runner:
    def __init__(self, workload, work_dir: Path, probe: bool):
        self.workload = workload
        self.work_dir = work_dir
        self.n_passes = 0
        self.speed = HostSpeed(workload.probe if probe else None)

    def setup(self, reps: int) -> tuple[list[float], list[float]]:
        """Set-up seconds per repetition, program import plus the workload's
        inputs: as measured, and at the reference speed."""
        speed = self.speed
        times, scaled = [], []
        for i in range(reps):
            startup, startup_probe = program_import_s(self.workload.probe)
            d = self.work_dir / f"inputs{i}"
            d.mkdir(parents=True)
            speed.sample()
            t0 = speed.now()
            self.workload.setup(d)
            t1 = speed.now()
            speed.sample()
            times.append(startup + t1 - t0)
            startup_scale = speed.ref_s / startup_probe if speed.probe else 1.0
            scaled.append(startup * startup_scale + speed.scaled(t0, t1))
        return times, scaled

    def one_pass(self, tracer=None) -> Pass:
        out = self.work_dir / f"pass{self.n_passes}"
        self.n_passes += 1
        speed = self.speed
        frame = tracer.enter(self.workload.entry) if tracer is not None else None
        speed.sample()
        t0 = speed.now()
        result = self.workload.run_pass(out, speed)
        t1 = speed.now()
        speed.sample()
        if tracer is not None:
            tracer.exit(frame)
        hashes = self.workload.pass_hashes(out)
        shutil.rmtree(out, ignore_errors=True)
        return Pass(result, t1 - t0, speed.scaled(t0, t1), hashes)

    def passes_for(self, seconds: float) -> list[Pass]:
        runs = []
        deadline = time.perf_counter() + seconds
        while not runs or time.perf_counter() < deadline:
            runs.append(self.one_pass())
        return runs


def tally(runs, expected_hashes: dict, reference_ok: bool):
    """(attempted, failed, hash mismatches) over timed passes."""
    attempted = failed = mismatches = 0
    for result, _wall, _scaled, hashes in runs:
        attempted += result.ops
        if hashes != expected_hashes or not reference_ok:
            mismatches += hashes != expected_hashes
            failed += result.ops
        else:
            failed += result.failed
    return attempted, failed, mismatches


def end_to_end(runner, seconds: float):
    setup_times, setup_scaled = runner.setup(SETUP_REPS)
    warm = runner.one_pass()
    runs = runner.passes_for(seconds)
    speed = runner.speed
    work = sum(p.result.work for p in runs)
    latencies = [ms for p in runs for ms in p.result.latencies_ms]
    scaled_latencies = [
        speed.scaled(end - ms / 1e3, end) * 1e3
        for p in runs for ms, end in zip(p.result.latencies_ms, p.result.op_ends)
    ]
    # Every figure pools the whole measured window, at the reference speed.
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "throughput": (work / sum(p.scaled for p in runs), "1/s"),
        "op_ms.p50": (statistics.median(scaled_latencies), "ms"),
        "op_ms.p90": (_p90(scaled_latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    scale = [speed.ref_s / s for s in speed.probe_s]
    detail = {
        "as_measured": {
            "setup_s": statistics.median(setup_times),
            "throughput": work / sum(p.wall for p in runs),
            "op_ms.p50": statistics.median(latencies),
            "op_ms.p90": _p90(latencies),
        },
        "speed_scale": {"probes": len(scale), "min": min(scale), "median": statistics.median(scale),
                        "max": max(scale)},
        "setup_s_samples": setup_times,
        "setup_s_scaled_samples": setup_scaled,
        "pass_walls_s": [p.wall for p in runs],
        "pass_scaled_s": [p.scaled for p in runs],
        "work_per_pass": [p.result.work for p in runs],
        "latency_samples": len(latencies),
    }
    return warm, runs, metrics, detail


def per_layer(runner, seconds: float):
    from layers import instrument, layer_metrics, metric_units
    from spans import Patcher, Tracer

    runner.setup(1)
    warm = runner.one_pass()
    tracer = Tracer()
    plain_runs, traced = [], []
    # Untraced and traced passes alternate, so the host's drift in speed
    # falls on both alike and each pair's difference is the cost of tracing.
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain_runs.append(runner.one_pass())
        with Patcher() as patcher:
            instrument(tracer, patcher)
            traced.append(runner.one_pass(tracer))
    ops = sum(p.result.ops for p in traced)
    per_pass_ops = ops / len(traced)
    traced_wall = sum(p.wall for p in traced)
    unattributed = tracer.self_time[runner.workload.entry]
    pairs = [(p.wall, t.wall) for p, t in zip(plain_runs, traced)]
    values = layer_metrics(tracer, ops, len(traced))
    units = metric_units()
    metrics = {name: (values[name], units[name]) for name in values}
    metrics["trace.coverage"] = ((traced_wall - unattributed) / traced_wall, "ratio")
    metrics["trace.unattributed_ms"] = (unattributed * 1e3 / ops, "ms")
    metrics["trace.overhead_ms"] = (
        statistics.median(t - p for p, t in pairs) * 1e3 / per_pass_ops, "ms")
    metrics["trace.overhead_frac"] = (statistics.median(t / p for p, t in pairs) - 1.0, "ratio")
    detail = {
        "untraced_pass_walls_s": [p.wall for p in plain_runs],
        "traced_pass_walls_s": [p.wall for p in traced],
        "spans": {
            name: {"calls": tracer.calls[name], "total_ms": tracer.total[name] * 1e3,
                   "self_ms": tracer.self_time[name] * 1e3}
            for name in sorted(tracer.total)
        },
    }
    return warm, plain_runs + traced, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "groupcast" / "__init__.py").is_file():
        print(f"error: no groupcast sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / "work" / f"{tag}-{os.getpid()}"
    results_dir = OUT / "results"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, work_dir, probe=not args.trace)
    try:
        if args.trace:
            warm, runs, metrics, detail = per_layer(runner, args.seconds)
        else:
            warm, runs, metrics, detail = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    warm_hashes = warm.hashes
    ref = reference_status(workload, warm_hashes)
    reference_ok = ref != "mismatch"
    attempted, failed, mismatches = tally(runs, warm_hashes, reference_ok)
    problems = []
    if warm.result.error or warm.result.failed:
        problems.append(f"warm-up pass failed: {warm.result.error or f'{warm.result.failed} ops'}")
    if not reference_ok:
        problems.append("warm-up output hashes differ from the recorded reference")
    if mismatches:
        problems.append(f"{mismatches} passes produced different output hashes")
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    if args.trace and metrics["trace.coverage"][0] < COVERAGE_MIN:
        problems.append(f"layer spans cover only {metrics['trace.coverage'][0]:.3f} of the traced wall")
    correct = not problems

    aliases = ALIASES[workload.name]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(runs)}  ({workload.work_label}; one op = one {workload.op_label})")
    for name, (value, unit) in metrics.items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"  {name:48s} {value:14.6g} {unit}{alias}")
    print(f"reference: {ref}")
    for p in problems:
        print(f"problem: {p}")

    prov = provenance(workload, args.trace)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reference": ref,
        "output_hashes": warm_hashes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "provenance": prov,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
