"""Shared fixtures: toy market panels and the trained desk-scale model.

The synthetic panel and corpus recipe is perfbench/workloads.py's, the one
the train-desk workload runs, re-exported here. workloads.py imports its
sibling modules by name, so the perfbench/ directory goes on sys.path.
"""

import multiprocessing
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from groupcast import model as M
from groupcast import train as TR
from groupcast.panels import RATE_IDS, STOCK_IDS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import build_training_corpus, make_price_panel, make_rate_panel, weekday_calendar  # noqa: E402,F401


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
TR.run_curriculum(M.ModelConfig(), DESK_TRAIN_CONFIG, build_training_corpus(2024), sys.argv[1])
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
