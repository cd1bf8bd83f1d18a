"""The three benchmark workloads.

Each workload builds its inputs from the workload seed (``setup``), then
runs *passes*: one pass is one complete invocation of a public entry point
(``train.run_curriculum`` or ``groupcast.cli.main``) into a fresh output
directory. ``pass_hashes`` digests the pass's deterministic outputs so that
every pass, traced or not, can be compared with the first one and with the
recorded reference.

``run_pass`` gets a ``HostSpeed`` and probes it between ops; op latencies
and their end times are read on its clock, which excludes the probes.

* ``train-desk`` - the acceptance fixture's desk curriculum (both stages,
  fewer steps): autodiff tape, backward, Adam and task sampling.
* ``eval-grid`` - ``groupcast evaluate`` over stocks/rates/combined panels,
  MV and UV, n in {126, 504}, m in {21, 63}: forward passes only.
* ``synth-corpus`` - ``groupcast synth`` with the README generator mix:
  synthetic data, the VAR recursion and dataset CSV writes.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from groupcast import checkpoint as CK
from groupcast import cli
from groupcast import evalharness as E
from groupcast import model as M
from groupcast import synthdata as S
from groupcast import train as TR
from groupcast.errors import GroupcastError
from groupcast.panels import RATE_IDS, STOCK_IDS, SeriesPanel, save_csv_panel
from groupcast.rng import PortableRng

from spans import Patcher


@dataclass
class PassResult:
    ops: int  # operations attempted: train steps, grid cells, datasets
    failed: int  # operations that failed
    work: int  # throughput units: train steps, grid cells, series points
    latencies_ms: list[float] = field(default_factory=list)
    op_ends: list[float] = field(default_factory=list)  # HostSpeed clock at each op's end
    error: str | None = None


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# train-desk


def build_training_corpus(seed: int) -> TR.Corpus:
    """Cross-linked + independent panels plus a balanced univariate pool
    (the acceptance fixture's recipe)."""
    root = PortableRng(seed)
    uni = [S.tsi_generate(S.sample_tsi_spec(root.spawn(i), 400, seed=i)) for i in range(40)]
    uni += [
        S.make_ar1_base(500 + i, 400, 0.88 + 0.08 * float(root.spawn(999 + i).uniform(1)[0]))
        for i in range(40)
    ]
    cross = [
        S.make_cross_link_panel(root.spawn(10_000 + i), 420, lag_choices=(8,), noise_scale=0.05)[0]
        for i in range(120)
    ]
    indep = [S.make_independent_panel(root.spawn(20_000 + i), 420)[0] for i in range(120)]
    for p in indep[:60]:
        uni.extend([p[0], p[1], p[2]])
    cov = [np.stack([p[1], p[0]]) for p in cross[:60]]
    return TR.Corpus(univariate=uni, panels=cross + indep, covariate_panels=cov)


class TrainDesk:
    name = "train-desk"
    entry = "train.run_curriculum"
    probe = "mixed"  # hostspeed probe
    op_label = "train step"
    work_label = "train steps"
    # The fixture trains 1500 + 1000 steps; a pass keeps the 3:2 stage split.
    # Step cost depends on the sampled context and horizon, so a pass holds
    # enough steps for its mean cost to vary little from seed to seed.
    STAGE_STEPS = (180, 120)

    def __init__(self, seed: int):
        self.seed = seed
        self.model_config = M.ModelConfig()
        self.train_config = TR.TrainConfig(
            stage_contexts=(64, 128),
            stage_steps=self.STAGE_STEPS,
            batch_groups=8,
            learning_rate=1e-3,
            task_mix=(0.35, 0.5, 0.15),
            seed=7 + seed,
            checkpoint_every=100_000,
            max_horizon_patches=4,
        )
        self.corpus_seed = 2024 + seed
        self.corpus = None

    def config(self) -> dict:
        return {
            "model": self.model_config.to_dict(),
            "train": self.train_config.to_dict(),
            "corpus": f"acceptance-fixture recipe, seed {self.corpus_seed}",
        }

    def setup(self, input_dir: Path) -> None:
        self.corpus = build_training_corpus(self.corpus_seed)

    def run_pass(self, out_dir: Path, speed) -> PassResult:
        steps = sum(self.train_config.stage_steps)
        error = None
        # sample_task opens every step: probe there, and take the probe's
        # time back out of that step's wallclock_ms
        starts: list[float] = []
        probe_ms: list[float] = []
        sample_task = TR.sample_task

        def probed_sample_task(*args, **kwargs):
            probe_ms.append(speed.tick() * 1e3)
            starts.append(speed.now())
            return sample_task(*args, **kwargs)

        with Patcher() as patcher:
            patcher.set(TR, "sample_task", probed_sample_task)
            try:
                TR.run_curriculum(self.model_config, self.train_config, self.corpus, out_dir)
            except GroupcastError as exc:
                error = f"{type(exc).__name__}: {exc}"
        latencies = []
        log = out_dir / "train_log.csv"
        if log.exists():
            rows = log.read_text().splitlines()[1:]
            latencies = [float(r.rsplit(",", 1)[1]) - p for r, p in zip(rows, probe_ms)]
        done = len(latencies)
        return PassResult(ops=steps, failed=steps - done, work=done, latencies_ms=latencies,
                          op_ends=[t + ms / 1e3 for t, ms in zip(starts, latencies)], error=error)

    def pass_hashes(self, out_dir: Path) -> dict[str, str]:
        out = {}
        ckpt = out_dir / "model.ckpt"
        if ckpt.exists():
            out["model.ckpt"] = _digest(ckpt.read_bytes())
        log = out_dir / "train_log.csv"
        if log.exists():
            # the wallclock column is the one intentionally nondeterministic output
            lines = [line.rsplit(",", 1)[0] for line in log.read_text().splitlines()]
            out["train_log.csv (without wallclock_ms)"] = _digest("\n".join(lines).encode())
        return out


# ---------------------------------------------------------------------------
# eval-grid


def weekday_calendar(start: date, n_days: int) -> list[date]:
    out = []
    d = start
    while len(out) < n_days:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def make_price_panel(ids, start: date, n_days: int, seed: int, base=100.0) -> SeriesPanel:
    """Positive random-walk price paths on a weekday calendar."""
    dates = weekday_calendar(start, n_days)
    rng = PortableRng(seed).spawn(3)
    k = len(ids)
    steps = rng.normal(k * n_days).reshape(k, n_days) * 0.01
    levels = base * np.exp(np.cumsum(steps, axis=1))
    return SeriesPanel(dates=dates, series_ids=list(ids), values=levels, mask=np.ones((k, n_days)))


def make_rate_panel(ids, start: date, n_days: int, seed: int) -> SeriesPanel:
    """Mean-reverting positive rate paths around a few percent."""
    dates = weekday_calendar(start, n_days)
    rng = PortableRng(seed).spawn(5)
    k_series = len(ids)
    vals = np.empty((k_series, n_days))
    for k in range(k_series):
        level = 1.0 + 0.4 * k
        x = level
        eps = rng.normal(n_days) * 0.03
        for t in range(n_days):
            x = x + 0.02 * (level - x) + eps[t]
            vals[k, t] = max(x, 0.05)
    return SeriesPanel(dates=dates, series_ids=list(ids), values=vals, mask=np.ones((k_series, n_days)))


class EvalGrid:
    name = "eval-grid"
    entry = "cli.main"
    probe = "numpy"
    op_label = "grid cell"
    work_label = "grid cells"
    START = date(2019, 1, 1)
    N_DAYS = 960  # about 3.7 trading years: origins in the 8 months after year 3
    CONTEXTS = (126, 504)
    HORIZONS = (21, 63)
    MODES = ("MV", "UV")
    ARTIFACTS = ("records.csv", "table1.csv", "table2.csv", "heatmap.csv", "timeseries.csv", "regime.csv")

    def __init__(self, seed: int):
        self.seed = seed
        self.panel_seeds = (11 + 2 * seed, 12 + 2 * seed)
        self.argv_inputs: list[str] = []

    def config(self) -> dict:
        return {
            "panels": {
                "stocks": f"{len(STOCK_IDS)} random-walk series, seed {self.panel_seeds[0]}",
                "rates": f"{len(RATE_IDS)} mean-reverting series, seed {self.panel_seeds[1]}",
                "combined": "stocks + rates",
                "start": self.START.isoformat(),
                "trading_days": self.N_DAYS,
            },
            "checkpoint": f"init_weights(ModelConfig(), seed={self.seed})",
            "modes": list(self.MODES),
            "contexts": list(self.CONTEXTS),
            "horizons": list(self.HORIZONS),
            "workers": 1,
        }

    def setup(self, input_dir: Path) -> None:
        stocks = make_price_panel(STOCK_IDS, self.START, self.N_DAYS, seed=self.panel_seeds[0])
        rates = make_rate_panel(RATE_IDS, self.START, self.N_DAYS, seed=self.panel_seeds[1])
        save_csv_panel(input_dir / "stocks.csv", stocks)
        save_csv_panel(input_dir / "rates.csv", rates)
        cfg = M.ModelConfig()
        # forward cost does not depend on weight values, so untrained weights do
        CK.save_checkpoint(input_dir / "model.ckpt", M.init_weights(cfg, seed=self.seed), cfg)
        self.argv_inputs = [
            "--checkpoint", str(input_dir / "model.ckpt"),
            "--stocks", str(input_dir / "stocks.csv"),
            "--rates", str(input_dir / "rates.csv"),
            "--workers", "1",
            "--seed", str(self.seed),
        ]
        for mode in self.MODES:
            self.argv_inputs += ["--mode", mode]
        for n in self.CONTEXTS:
            self.argv_inputs += ["--n", str(n)]
        for m in self.HORIZONS:
            self.argv_inputs += ["--m", str(m)]

    def run_pass(self, out_dir: Path, speed) -> PassResult:
        latencies: list[float] = []
        ends: list[float] = []
        failed = 0
        evaluate_cell = E.evaluate_cell

        def timed_cell(*args, **kwargs):
            nonlocal failed
            t0 = speed.now()
            records, skips = evaluate_cell(*args, **kwargs)
            ends.append(speed.now())
            latencies.append((ends[-1] - t0) * 1e3)
            speed.tick()
            if any(s["reason"].startswith("forecast error") for s in skips):
                failed += 1
            return records, skips

        with Patcher() as patcher:
            patcher.set(E, "evaluate_cell", timed_cell)
            rc = _run_cli(["evaluate", "--out", str(out_dir)] + self.argv_inputs)
        cells = len(latencies)
        if rc != 0:  # the grid did not finish: count the whole pass as failed
            ops = max(cells, 1)
            return PassResult(ops=ops, failed=ops, work=cells, latencies_ms=latencies, op_ends=ends,
                              error=f"groupcast evaluate exited {rc}")
        return PassResult(ops=cells, failed=failed, work=cells, latencies_ms=latencies, op_ends=ends)

    def pass_hashes(self, out_dir: Path) -> dict[str, str]:
        return {
            name: _digest((out_dir / name).read_bytes())
            for name in self.ARTIFACTS
            if (out_dir / name).exists()
        }


# ---------------------------------------------------------------------------
# synth-corpus


class SynthCorpus:
    name = "synth-corpus"
    entry = "cli.main"
    probe = "mixed"
    op_label = "dataset"
    work_label = "series points"
    # README's example config: the four generator families at length 1024.
    # The causal panels are pinned to 3 series and 2 lags (README leaves the
    # defaults, 2-5 series and 1-2 lags) so that every seed generates the
    # same number of points and recursion steps: a seed changes values only.
    CONFIG = {
        "tsi": {"count": 60, "length": 1024},
        "tcm": {"count": 40, "length": 1024, "edge_prob": 0.4, "n_series_range": [3, 3],
                "lag_range": [2, 2]},
        "derived": {"count": 60, "length": 1024, "lag_choices": [8, 16]},
        "independent": {"count": 40, "length": 1024},
    }

    def __init__(self, seed: int):
        self.seed = seed
        self.config_path = None

    def config(self) -> dict:
        return {"synth": self.CONFIG, "seed": self.seed}

    @property
    def n_jobs(self) -> int:
        return sum(v["count"] for v in self.CONFIG.values())

    def setup(self, input_dir: Path) -> None:
        self.config_path = input_dir / "synth.json"
        self.config_path.write_text(json.dumps(self.CONFIG, sort_keys=True))

    def run_pass(self, out_dir: Path, speed) -> PassResult:
        # a dataset is done when its provenance file is written; latency is
        # the time between consecutive completions (all specs are sampled
        # before the first dataset, so the first interval is dropped)
        done_at: list[float] = []
        points = 0
        save_provenance = S.save_provenance
        save_panel_dataset = S.save_panel_dataset

        def timed_save(*args, **kwargs):
            save_provenance(*args, **kwargs)
            done_at.append(speed.now())
            speed.tick()

        def counted_save(path, panel, *args, **kwargs):
            # one CSV row per value: the points are the size of the panel written
            nonlocal points
            save_panel_dataset(path, panel, *args, **kwargs)
            points += np.size(panel)

        with Patcher() as patcher:
            patcher.set(S, "save_provenance", timed_save)
            patcher.set(S, "save_panel_dataset", counted_save)
            rc = _run_cli(["synth", "--config", str(self.config_path), "--out", str(out_dir),
                           "--seed", str(self.seed)])
        latencies = [(b - a) * 1e3 for a, b in zip(done_at, done_at[1:])]
        return PassResult(
            ops=self.n_jobs, failed=self.n_jobs - len(done_at), work=points, latencies_ms=latencies,
            op_ends=done_at[1:], error=None if rc == 0 else f"groupcast synth exited {rc}",
        )

    def pass_hashes(self, out_dir: Path) -> dict[str, str]:
        h = hashlib.sha256()
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        for p in files:
            h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
        return {f"synth tree ({len(files)} files)": h.hexdigest()}


WORKLOADS = {w.name: w for w in (TrainDesk, EvalGrid, SynthCorpus)}
