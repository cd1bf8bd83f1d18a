"""Scale timings to the speed of an uncontended core.

The benchmark runs on a few vCPUs of a shared host. A vCPU's speed moves
between an uncontended and a contended state, in phases of a few seconds
to minutes, and the contended state is 1.3x to 2.3x slower depending on
the code. A run can fall entirely into one state, so neither a median nor a
minimum over passes steadies a figure across runs.

``HostSpeed`` measures the state directly. Between ops, at most every
``INTERVAL_S`` seconds, it times a fixed probe on the thread that runs the
workload. A probe is the benchmark's own code, so a change to the program
does not change it. A contended core slows interpreter-bound code more than
numpy-bound code, so each workload takes the probe whose timings tracked
its own in trials:

* ``numpy`` (eval-grid): small attention-shaped matmuls, softmax and
  normalisation;
* ``mixed`` (train-desk, synth-corpus): the numpy probe followed by
  interpreter-bound work, CSV rows of ``%.17g`` floats and a scalar
  VAR-style loop. The numpy probe alone under-scaled train-desk by about
  10% on a contended core; the mixed one over-scales eval-grid.

Workload time is read on a clock that excludes the probes. ``scaled(a, b)``
gives the seconds that the interval [a, b) of that clock would take at the
reference speed: each stretch between two probes is multiplied by
``ref_s / mean(the two probe times)``. ``ref_s`` (in ``PROBES``) is the
probe's time on an uncontended core of the machine the benchmark was
defined on, so a scaled figure reads as the run would on such a core.
"""

import bisect
import csv
import io
import time

import numpy as np

INTERVAL_S = 0.25
PROBE_REPS = 3  # a probe is the median of this many timings

_rng = np.random.default_rng(20240601)
_Q, _K, _V = (_rng.standard_normal((8, 24, 32)) for _ in range(3))
_W = _rng.standard_normal((32, 32)) * 0.1
_ROWS = _rng.standard_normal((3, 120))
_COEF = _rng.standard_normal((2, 3, 3)) * 0.2


def numpy_probe() -> None:
    x = _Q
    for _ in range(6):
        a = x @ _K.transpose(0, 2, 1) * (1.0 / np.sqrt(32.0))
        a = np.exp(a - a.max(axis=-1, keepdims=True))
        a /= a.sum(axis=-1, keepdims=True)
        h = a @ _V @ _W
        mu = h.mean(axis=-1, keepdims=True)
        x = (h - mu) / np.sqrt(((h - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)


def mixed_probe() -> None:
    numpy_probe()
    writer = csv.writer(io.StringIO())
    for i, row in enumerate(_ROWS):
        for t in range(row.shape[0]):
            writer.writerow([f"s{i}", t, "%.17g" % row[t]])
    y = np.zeros((60, 3))
    for t in range(2, 60):
        for i in range(3):
            acc = _ROWS[i, t]
            for lag in range(2):
                for j in range(3):
                    acc = acc + _COEF[lag, i, j] * y[t - 1 - lag, j]
            y[t, i] = acc


# probe, and its time on an uncontended core (the 5th percentile of its
# timings) of a 2-vCPU Intel Xeon (Sapphire Rapids) VM, Python 3.11 with
# numpy 2.4.6 / OpenBLAS 0.3.31
PROBES = {
    "numpy": (numpy_probe, 0.00085),
    "mixed": (mixed_probe, 0.00195),
}


def time_probe(probe, reps: int = PROBE_REPS) -> float:
    """Median seconds of reps calls of probe."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2]


class HostSpeed:
    """Probe samples on a workload clock that excludes the probes' own time.

    ``HostSpeed(None)`` never probes, and its ``scaled`` is plain seconds.
    """

    def __init__(self, kind: str | None):
        self.probe, self.ref_s = PROBES[kind] if kind else (None, 0.0)
        self.spent = 0.0  # probe seconds so far
        self.times: list[float] = []  # workload clock at each probe
        self.probe_s: list[float] = []
        self._next = 0.0

    def now(self) -> float:
        """Workload clock: perf_counter minus every probe so far."""
        return time.perf_counter() - self.spent

    def sample(self) -> float:
        """Probe now; returns the seconds the probe took, all reps included."""
        if self.probe is None:
            return 0.0
        at = self.now()
        t0 = time.perf_counter()
        self.probe_s.append(time_probe(self.probe))
        spent = time.perf_counter() - t0
        self.spent += spent
        self.times.append(at)
        self._next = t0 + spent + INTERVAL_S
        return spent

    def tick(self) -> float:
        """Probe if INTERVAL_S has passed since the last probe; seconds spent."""
        if self.probe is None or time.perf_counter() < self._next:
            return 0.0
        return self.sample()

    def scaled(self, a: float, b: float) -> float:
        """Seconds [a, b) of the workload clock would take at the reference speed."""
        times, probe_s = self.times, self.probe_s
        if not times:
            return b - a
        total = 0.0
        j = bisect.bisect_right(times, a)
        lo = a
        while lo < b:
            hi = min(b, times[j]) if j < len(times) else b
            # stretch between probes j-1 and j (one of them, at either end)
            near = probe_s[max(j - 1, 0)] + probe_s[min(j, len(times) - 1)]
            total += (hi - lo) * self.ref_s / (near / 2.0)
            lo = hi
            j += 1
        return total
