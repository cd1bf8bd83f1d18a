"""Shared fixtures: toy market panels and the trained desk-scale model."""

import multiprocessing
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from groupcast import model as M
from groupcast import synthdata as S
from groupcast import train as TR
from groupcast.panels import RATE_IDS, STOCK_IDS, SeriesPanel
from groupcast.rng import PortableRng


def weekday_calendar(start: date, n_days: int) -> list[date]:
    out = []
    d = start
    while len(out) < n_days:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


CRASH_EXIT = 9


def crash_in_child(job, k: int) -> None:
    """Run job(seam) in a forked child that ends with os._exit at seam's
    k-th call, as a kill would: no buffer is flushed and no handler runs.
    The job calls seam after each call of the seam it sweeps. Fails unless
    the child crashed there."""
    calls = 0

    def seam():
        nonlocal calls
        calls += 1
        if calls == k:
            os._exit(CRASH_EXIT)

    child = multiprocessing.get_context("fork").Process(target=job, args=(seam,))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == CRASH_EXIT, f"no crash at call {k}: exit code {child.exitcode}"


def tree_bytes(root) -> dict[str, bytes]:
    """Every file under root by relative path, a leftover <name>.tmp included."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def make_price_panel(ids, start: date, n_days: int, seed: int, base=100.0) -> SeriesPanel:
    """Positive random-walk price paths on a weekday calendar."""
    dates = weekday_calendar(start, n_days)
    rng = PortableRng(seed).spawn(3)
    K = len(ids)
    steps = rng.normal(K * n_days).reshape(K, n_days) * 0.01
    levels = base * np.exp(np.cumsum(steps, axis=1))
    mask = np.ones((K, n_days))
    return SeriesPanel(dates=dates, series_ids=list(ids), values=levels, mask=mask)


def make_rate_panel(ids, start: date, n_days: int, seed: int) -> SeriesPanel:
    """Mean-reverting positive rate paths around a few percent."""
    dates = weekday_calendar(start, n_days)
    rng = PortableRng(seed).spawn(5)
    K = len(ids)
    vals = np.empty((K, n_days))
    for k in range(K):
        level = 1.0 + 0.4 * k
        x = level
        eps = rng.normal(n_days) * 0.03
        for t in range(n_days):
            x = x + 0.02 * (level - x) + eps[t]
            vals[k, t] = max(x, 0.05)
    return SeriesPanel(dates=dates, series_ids=list(ids), values=vals, mask=np.ones((K, n_days)))


@pytest.fixture(scope="session")
def market_panels():
    """Stocks + rates panels on one 2019-2025 weekday calendar."""
    n_days = 1680  # ~6.4 trading years
    stocks = make_price_panel(STOCK_IDS, date(2019, 1, 1), n_days, seed=11)
    rates = make_rate_panel(RATE_IDS, date(2019, 1, 1), n_days, seed=12)
    return stocks, rates


@pytest.fixture(scope="session")
def tiny_model():
    cfg = M.ModelConfig(
        d_model=16, n_blocks=1, n_heads=2, patch_len=8, max_context=256, horizon_patches=8
    )
    weights = M.init_weights(cfg, seed=42)
    return weights, cfg


def build_training_corpus(seed: int = 2024) -> TR.Corpus:
    """Cross-linked + independent panels plus a balanced univariate pool."""
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


DESK_TRAIN_CONFIG = TR.TrainConfig(
    stage_contexts=(64, 128),
    stage_steps=(1500, 1000),
    batch_groups=8,
    learning_rate=1e-3,
    task_mix=(0.35, 0.5, 0.15),
    seed=7,
    checkpoint_every=100_000,
    max_horizon_patches=4,
)


def pytest_collection_modifyitems(items):
    """Run the tests that use trained_desk last, so the rest of the suite
    runs while a child process trains it (see _desk_training)."""
    items.sort(key=lambda item: "trained_desk" in item.fixturenames)  # stable: keeps each side's order


# The child's program: the desk curriculum into the directory argv[1] names.
DESK_TRAIN_SCRIPT = """
import sys
from conftest import DESK_TRAIN_CONFIG, build_training_corpus
from groupcast import model as M, train as TR
TR.run_curriculum(M.ModelConfig(), DESK_TRAIN_CONFIG, build_training_corpus(), sys.argv[1])
"""


@pytest.fixture(scope="session", autouse=True)
def _desk_training(request, tmp_path_factory):
    """The desk training run for trained_desk, started in a child process on
    the session's first test when a selected test uses trained_desk (the
    child takes the second core while the other tests run), else None.
    A child still running at the end of the session is killed."""
    if not any("trained_desk" in item.fixturenames for item in request.session.items):
        yield None
        return
    out = tmp_path_factory.mktemp("desk_train")
    paths = [str(Path(__file__).parent), str(Path(M.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    with subprocess.Popen(  # on exit: closes the pipe and waits
        [sys.executable, "-W", "error::RuntimeWarning", "-c", DESK_TRAIN_SCRIPT, str(out)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    ) as child:
        yield child, out
        child.kill()  # a no-op once it has exited


@pytest.fixture(scope="session")
def trained_desk(_desk_training):
    """Desk-default model trained on the synthetic corpus (about 20 s, in a
    child process); shared by the acceptance tests."""
    from groupcast.checkpoint import load_checkpoint

    child, out = _desk_training
    _, err = child.communicate()
    assert child.returncode == 0, err
    path = out / "model.ckpt"
    weights, cfg, _, _ = load_checkpoint(path)
    return weights, cfg, path
