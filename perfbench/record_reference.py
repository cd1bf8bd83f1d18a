#!/usr/bin/env python3
"""Record reference output hashes for this numpy/BLAS build.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload for each of seeds 0-19 and
stores its output hashes in perfbench/reference.json, together with the
build fingerprint (interpreter, numpy, BLAS configuration, CPU features)
that decides the output bits. run.py compares each run's warm-up pass
with these hashes when its build fingerprint matches. Every recording
replaces the whole file, so all workloads and seeds come from one build.
"""

import json
import os
import shutil
import sys

import run

SEEDS = range(20)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    ref = {"build": run.build_fingerprint(), "hashes": {}}
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            work_dir = run.OUT / "work" / f"reference-{name}-{seed}-{os.getpid()}"
            shutil.rmtree(work_dir, ignore_errors=True)
            runner = run.Runner(WORKLOADS[name](seed), work_dir, probe=False)
            try:
                runner.setup(1)
                result, _wall, _scaled, hashes = runner.one_pass()
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if result.error or result.failed:
                print(f"{name} seed {seed}: pass failed ({result.error}); not recorded", file=sys.stderr)
                return 1
            ref["hashes"].setdefault(name, {})[str(seed)] = hashes
            print(f"{name} seed {seed}: {hashes}")
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
