"""Quantile-regression training: loss, task sampling, optimizer, curriculum.

Training is deterministic given the seed: the task for step k is drawn
from a stream derived only from (seed, k), so resuming from a checkpoint
replays exactly the batches a fresh run would produce.
"""

import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from . import model as M
from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .config import DictConfig
from .errors import ConfigError, ContractError, DegenerateInputError, TrainingAbort
from .panels import resume_log
from .preprocess import scale_rows
from .rng import PortableRng, uniform_to_category, uniform_to_int

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig(DictConfig):
    stage_contexts: tuple[int, ...] = (256, 512)
    stage_steps: tuple[int, ...] = (5000, 5000)
    batch_groups: int = 32
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    task_mix: tuple[float, float, float] = (0.4, 0.4, 0.2)  # UV, MV, covariate
    seed: int = 0
    checkpoint_every: int = 1000
    min_context_patches: int = 2
    max_horizon_patches: int | None = None
    cosine_decay: bool = False

    def __post_init__(self):
        super().__post_init__()
        mix = self.task_mix
        if any(r < 0 for r in mix) or abs(sum(mix) - 1.0) > 1e-9:
            raise ConfigError(f"task_mix must be 3 nonnegative ratios summing to 1, got {mix}")
        if any(s < 0 for s in self.stage_steps):
            raise ConfigError("stage_steps must be >= 0")
        if len(self.stage_contexts) != len(self.stage_steps):
            stages = f"stage_contexts {self.stage_contexts} and stage_steps {self.stage_steps}"
            raise ConfigError(f"{stages} differ in length")
        for name in ("batch_groups", "checkpoint_every", "min_context_patches"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        mhp = self.max_horizon_patches
        if mhp is not None and mhp < 1:
            raise ConfigError(f"max_horizon_patches must be null or an integer >= 1, got {mhp!r}")


@dataclass
class TrainState:
    """Step counter, weights and Adam moments of one training run.

    ``moments`` is keyed as a checkpoint names the moments: "m.<weight>"
    and "v.<weight>". ``fresh`` makes every weight's ``data`` and ``grad``
    and its two moments views into one flat array per role (``flat`` keys
    "data", "grad", "m" and "v"), so ``adam_update`` is a few whole-array
    calls. Write through the views (``state.moments["m.<weight>"][...] =
    ...``): a rebound array is no longer updated.
    """

    step: int
    weights: dict[str, T.Tensor]
    moments: dict[str, np.ndarray]
    flat: dict[str, np.ndarray]

    @classmethod
    def fresh(cls, weights: dict[str, T.Tensor]) -> "TrainState":
        """Zero moments; rebinds each weight's data and grad to flat views."""
        dtypes = {t.data.dtype for t in weights.values()}
        if len(dtypes) != 1:
            raise ContractError(f"training needs weights of one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop()
        n = sum(t.data.size for t in weights.values())
        flat = {role: np.zeros(n, dtype=dtype) for role in ("data", "grad", "m", "v")}
        moments = {}
        off = 0
        for name, t in weights.items():
            shape, end = t.data.shape, off + t.data.size
            data = flat["data"][off:end].reshape(shape)
            data[...] = t.data
            t.data, t.grad = data, flat["grad"][off:end].reshape(shape)
            for role in ("m", "v"):
                moments[f"{role}.{name}"] = flat[role][off:end].reshape(shape)
            off = end
        return cls(step=0, weights=weights, moments=moments, flat=flat)


@dataclass
class TaskSample:
    """One training batch before embedding: raw windows plus task framing.

    Rows are series; group_ids partition them into jointly-attending tasks.
    target_values (S, m) is each row's future; future_known_mask marks the
    cells fed as known inputs (covariate rows), and the loss takes the rest.
    """

    context_values: np.ndarray
    group_ids: np.ndarray
    target_values: np.ndarray
    future_known_mask: np.ndarray


class Corpus:
    """Pools of synthetic series for the three task kinds."""

    def __init__(self, univariate=None, panels=None, covariate_panels=None):
        self.univariate = list(univariate or [])
        self.panels = list(panels or [])
        self.covariate_panels = list(covariate_panels if covariate_panels is not None else self.panels)
        if not (self.univariate or self.panels):
            raise ConfigError("corpus is empty")

    @classmethod
    def from_dir(cls, path) -> "Corpus":
        from .synthdata import load_panel_dataset

        uni, panels = [], []
        # iterdir, unlike glob, raises on a missing directory
        files = sorted(f for f in Path(path).iterdir() if f.name.endswith(".csv"))
        if not files:
            raise ConfigError(f"no dataset CSVs under {path}")
        for f in files:
            _ids, arr = load_panel_dataset(f)
            if arr.shape[0] == 1:
                uni.append(arr[0])
            else:
                panels.append(arr)
        return cls(univariate=uni, panels=panels)


# ---------------------------------------------------------------------------
# loss


def pinball_loss(pred: T.Tensor, target: np.ndarray, mask: np.ndarray, levels) -> T.Tensor:
    """Mean quantile loss over observed cells and all levels.

    pred: (S, N, Q) scaled-space grid; target/mask: (S, N). Cells with
    mask 0 are excluded exactly (their target values never enter).
    """
    S, N, Q = pred.shape
    target = np.asarray(target, dtype=np.float64).reshape(S * N)
    mask = np.asarray(mask, dtype=np.float64).reshape(S * N)
    levels_arr = np.asarray(levels, dtype=np.float64)
    if levels_arr.shape[0] != Q:
        raise ConfigError(f"got {levels_arr.shape[0]} levels for {Q} prediction columns")
    n_obs = float(mask.sum())
    if n_obs == 0:
        raise DegenerateInputError("pinball loss needs at least one observed cell")
    flat = T.reshape(pred, (S * N, Q))
    # loss math runs in float64 whatever the model dtype
    pred64 = flat.data.astype(np.float64, copy=False)
    cells = kernels.pinball_cells(target, pred64, levels_arr, mask)
    denom = n_obs * Q
    out = np.asarray(cells.sum() / denom, dtype=pred.dtype)

    def bwd(g):
        gfac = kernels.pinball_grad(target, pred64, levels_arr, mask)
        dpred = gfac * (-(np.float64(g) / denom))
        return (dpred.reshape(S, N, Q).astype(pred.dtype),)

    return T.make_op((pred,), out, bwd)


# ---------------------------------------------------------------------------
# task sampling


def sample_task(
    corpus: Corpus,
    mix: tuple[float, float, float],
    rng: PortableRng,
    n_groups: int,
    ctx_len: int,
    horizon_len: int,
) -> TaskSample:
    """Draw a batch of n_groups tasks (UV / MV / covariate per mix ratios).

    UV groups are singleton rows; MV groups share one ID across a panel;
    covariate groups mark rows past the first as known-future inputs
    (future_known_mask 1) and keep the loss on the target row only.

    Every task takes three uniforms, in order: its kind (a categorical draw
    over mix), its index in the kind's pool and its window start (each
    floor(u * high)). All 3 * n_groups come from one rng.uniform call, so
    task g reads the stream at 3g, 3g + 1 and 3g + 2 past rng's counter.
    A kind whose pool is empty falls back to the other pool: UV to MV
    without univariate series, MV and covariate to UV without panels.
    """
    need = ctx_len + horizon_len
    u = rng.uniform(3 * n_groups).reshape(n_groups, 3)
    kinds = uniform_to_category(u[:, 0], mix)
    if not corpus.univariate:
        kinds[kinds == 0] = 1
    if not corpus.panels:
        kinds[kinds > 0] = 0
    if not corpus.covariate_panels and np.any(kinds == 2):
        raise ConfigError("covariate task drawn but the corpus has no covariate panels")
    pools = (corpus.univariate, corpus.panels, corpus.covariate_panels)
    picks = uniform_to_int(u[:, 1], np.array([len(p) for p in pools])[kinds])
    series = [pools[k][i] for k, i in zip(kinds.tolist(), picks.tolist())]
    lengths = np.array([x.shape[-1] for x in series])
    short = lengths < need
    if short.any():
        raise ConfigError(f"series of length {lengths[short][0]} too short for window {need}")
    starts = uniform_to_int(u[:, 2], lengths - need + 1)
    windows = [np.atleast_2d(x)[:, a : a + need] for x, a in zip(series, starts.tolist())]
    sizes = np.array([w.shape[0] for w in windows])
    rows = np.concatenate(windows)
    # covariate rows: every row of a covariate task but its first
    covariate = np.repeat(kinds == 2, sizes)
    covariate[np.cumsum(sizes) - sizes] = False
    known = np.zeros((rows.shape[0], horizon_len))
    known[covariate] = 1.0
    return TaskSample(
        context_values=rows[:, :ctx_len].copy(),
        group_ids=np.repeat(np.arange(n_groups, dtype=np.int64), sizes),
        target_values=rows[:, ctx_len:].copy(),
        future_known_mask=known,
    )


def _scaled_targets(target_values, target_mask, loc, scale, n_positions: int):
    """(S, m) targets in the model's scaled space under the (S,) loc and
    scale of their rows, padded to the patch grid."""
    S, m = target_values.shape
    tv = np.zeros((S, n_positions))
    tm = np.zeros((S, n_positions))
    tv[:, :m] = scale_rows(np.asarray(target_values, dtype=np.float64), loc, scale)
    tm[:, :m] = target_mask
    return tv, tm


def _loss(weights: dict, model_config: M.ModelConfig, sample: TaskSample) -> T.Tensor:
    """Scaled-space pinball loss of one forward pass over sample: assemble
    the batch (context mask all ones, horizon target_values' width, known
    future read from target_values' known cells), run the model and score
    the cells that are not known inputs; recorded when a tape is active.
    train_step and evaluate_pinball both call it."""
    known = sample.future_known_mask
    batch = M.assemble_batch(
        sample.context_values, np.ones_like(sample.context_values), sample.group_ids,
        sample.target_values.shape[1], weights, model_config,
        future_values=sample.target_values, future_known_mask=known,
    )
    pred = M.forward(batch, weights, model_config)
    tv, tm = _scaled_targets(sample.target_values, 1.0 - known, batch.loc, batch.scale, pred.shape[1])
    return pinball_loss(pred, tv, tm, model_config.quantile_levels)


# ---------------------------------------------------------------------------
# optimizer and steps


def _lr_at(config: TrainConfig, step: int, total_steps: int) -> float:
    if not config.cosine_decay:
        return config.learning_rate
    frac = min(step / max(total_steps, 1), 1.0)
    return config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * frac))


def adam_update(state: TrainState, config: TrainConfig, lr: float) -> None:
    """Bias-corrected Adam over the flat arrays, in place.

    Per element this is ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``
    and ``w = w - lr*mh / (sqrt(vh)+eps)``, each product and sum rounded
    in the same order as the per-parameter formula.
    """
    t = state.step
    w, g, m, v = (state.flat[role] for role in ("data", "grad", "m", "v"))
    dt = w.dtype.type
    b1, b2, eps = dt(config.beta1), dt(config.beta2), dt(config.eps)
    m *= b1
    mh = np.multiply(g, dt(1.0) - b1)
    m += mh
    v *= b2
    vh = np.multiply(g, g)
    vh *= dt(1.0) - b2
    v += vh
    np.divide(m, dt(1.0) - b1**t, out=mh)
    np.divide(v, dt(1.0) - b2**t, out=vh)
    np.sqrt(vh, out=vh)
    vh += eps
    mh *= dt(lr)
    mh /= vh
    w -= mh


def train_step(
    state: TrainState,
    sample: TaskSample,
    model_config: M.ModelConfig,
    train_config: TrainConfig,
    lr: float | None = None,
) -> float:
    """One forward/backward/update pass; returns the (float) loss."""
    with T.record() as tape:
        loss = _loss(state.weights, model_config, sample)
    loss_val = float(loss.data)
    if not np.isfinite(loss_val):
        raise TrainingAbort(
            f"non-finite loss {loss_val} at step {state.step + 1} "
            f"(batch: {sample.context_values.shape[0]} rows, ctx {sample.context_values.shape[1]}, "
            f"horizon {sample.target_values.shape[1]})"
        )
    state.flat["grad"].fill(0)
    T.backward(loss, tape)
    state.step += 1
    adam_update(state, train_config, train_config.learning_rate if lr is None else lr)
    return loss_val


def evaluate_pinball(
    weights: dict,
    model_config: M.ModelConfig,
    panel: np.ndarray,
    mode: str,
    ctx_len: int,
    horizon_len: int,
) -> float:
    """Scaled-space pinball loss of a forward pass on one panel window.

    Context is the first ctx_len columns; targets the next horizon_len,
    all of them scored, with no known-future input. Comparable across
    modes because scaling depends only on the context.
    """
    panel = np.asarray(panel, dtype=np.float64)
    fut = panel[:, ctx_len : ctx_len + horizon_len]
    sample = TaskSample(panel[:, :ctx_len], M.mode_group_ids(mode, panel.shape[0]), fut, np.zeros_like(fut))
    return float(_loss(weights, model_config, sample).data)


# ---------------------------------------------------------------------------
# curriculum


LOG_HEADER = "step,stage,loss,lr,wallclock_ms\n"


def _check_resumed(path, name: str, saved, given: dict) -> None:
    """ConfigError naming each key where the name config given to a resumed
    run differs from the one its checkpoint saved."""
    if saved != given:
        saved = saved if isinstance(saved, dict) else {}
        keys = sorted(k for k in saved.keys() | given.keys() if saved.get(k) != given.get(k))
        differ = ", ".join(f"{k} {saved.get(k)!r} -> {given.get(k)!r}" for k in keys)
        raise ConfigError(f"{path}: a resume takes the checkpoint's {name} config; it differs in {differ}")


def run_curriculum(
    model_config: M.ModelConfig,
    train_config: TrainConfig,
    corpus: Corpus,
    out_dir,
    resume_from=None,
) -> int:
    """Two-stage training over increasing context limits; returns the
    number of steps this call ran.

    Stage 2 continues from stage-1 weights. Writes checkpoints at the
    configured cadence plus stage boundaries, the last as
    <out_dir>/model.ckpt, and a CSV log train_log.csv (step, stage, loss,
    lr, wallclock_ms). Each step's row is flushed before any checkpoint can
    be saved, and resuming cuts the log back to the checkpoint's step
    (panels.resume_log), so a run resumed in place after a hard crash logs
    every step once; a log that does not start with the header raises
    DataError. A fresh run replaces the log. ConfigError is raised before
    out_dir is created for a max_horizon_patches above the model's, a
    corpus series shorter than the longest window a running stage draws
    ((context patches + max future patches) * patch_len), and a resume
    whose model_config is not the checkpoint's or whose train_config is
    not the one the checkpoint records (if it records one). A context past
    the model's max_context in a running stage logs one warning first.
    """
    if resume_from is not None:
        weights, saved_model, extra, moments = load_checkpoint(resume_from)
        _check_resumed(resume_from, "model", saved_model.to_dict(), model_config.to_dict())
        if "train" in extra:
            _check_resumed(resume_from, "train", extra["train"], train_config.to_dict())
    else:
        weights, extra, moments = M.init_weights(model_config, seed=train_config.seed), {}, {}
    state = TrainState.fresh(weights)
    first_step = state.step = extra.get("step", 0)
    for name, arr in moments.items():  # load_checkpoint checked that each fits its weight
        state.moments[name][...] = arr
    max_fut = train_config.max_horizon_patches or model_config.horizon_patches
    if max_fut > model_config.horizon_patches:
        raise ConfigError(
            f"max_horizon_patches {max_fut} exceeds the model's horizon_patches "
            f"{model_config.horizon_patches}"
        )
    P = model_config.patch_len
    stage_patches = [max(c // P, train_config.min_context_patches) for c in train_config.stage_contexts]
    boundaries = np.cumsum([0] + list(train_config.stage_steps))
    running = [p for p, start, end in zip(stage_patches, boundaries, boundaries[1:]) if end > max(start, first_step)]
    window = (max(running) + max_fut) * P if running else 0  # the longest window a step draws
    shortest = min(x.shape[-1] for pool in (corpus.univariate, corpus.panels, corpus.covariate_panels) for x in pool)
    if shortest < window:
        raise ConfigError(f"series of length {shortest} too short for window {window}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train_log.csv"
    if resume_from is None:
        log_path.unlink(missing_ok=True)

    total_steps = sum(train_config.stage_steps)

    def save(path):
        save_checkpoint(
            path,
            state.weights,
            model_config,
            extra={"step": state.step, "train": train_config.to_dict()},
            moments=state.moments,
        )

    # rows are logged in step order, so those of steps <= state.step are a prefix
    resume_log(
        log_path, LOG_HEADER, lambda rows: sum(int(r.split(",", 1)[0]) <= state.step for r in rows)
    )
    longest = max(running, default=0) * P  # the longest context a step samples
    if longest > model_config.max_context:
        logger.warning("contexts of up to %d positions are cut to max_context=%d", longest, model_config.max_context)
    with open(log_path, "a") as log:
        for step in range(first_step, total_steps):
            stage = int(np.searchsorted(boundaries[1:], step, side="right"))
            t0 = time.monotonic()
            task_rng = PortableRng(train_config.seed).spawn(2_000_000 + step)
            span = stage_patches[stage] - train_config.min_context_patches + 1
            ctx_patches = train_config.min_context_patches + int(task_rng.integers(1, span)[0])
            fut_patches = 1 + int(task_rng.integers(1, max_fut)[0])
            sample = sample_task(
                corpus,
                train_config.task_mix,
                task_rng,
                train_config.batch_groups,
                ctx_patches * P,
                fut_patches * P,
            )
            lr = _lr_at(train_config, step, total_steps)
            loss = train_step(state, sample, model_config, train_config, lr=lr)
            ms = (time.monotonic() - t0) * 1000.0
            log.write(f"{state.step},{stage + 1},{loss:.17g},{lr:.17g},{ms:.3f}\n")
            log.flush()
            if state.step % train_config.checkpoint_every == 0 or state.step in boundaries[1:]:
                save(out_dir / f"ckpt_step{state.step:06d}.ckpt")
    save(out_dir / "model.ckpt")
    return state.step - first_step
