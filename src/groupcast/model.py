"""Encoder-only forecaster with alternating time and group attention.

Per series row the pipeline is: scale -> patch -> embed through a residual
feed-forward block -> insert a learned separator token between context and
future patch slots -> n_blocks of (time attention with rotary positions,
then group attention masked to equal group IDs) -> linear head emitting 21
quantiles per future position.

Group attention runs across the series axis at each fixed patch index, so
series in different groups exchange no information; the separator token is
passed through group attention untouched.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import preprocess
from . import tensor as T
from .errors import ConfigError, ShapeError
from .preprocess import MetaFeatures, ScalingState
from .rng import PortableRng

logger = logging.getLogger(__name__)

# 0.01, 0.05, 0.10, ..., 0.90, 0.95, 0.99
QUANTILE_LEVELS = tuple(
    round(q, 2) for q in ([0.01] + [0.05 * i for i in range(1, 20)] + [0.99])
)
MEDIAN_INDEX = QUANTILE_LEVELS.index(0.5)

ROPE_BASE = 10000.0
GROUP_MASK_PENALTY = -1e9

N_CHANNELS = 3  # value, rel_time, mask


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_blocks: int = 2
    n_heads: int = 4
    patch_len: int = 8
    quantile_levels: tuple = QUANTILE_LEVELS
    max_context: int = 512
    horizon_patches: int = 8

    def __post_init__(self):
        q = self.quantile_levels
        if len(q) != 21 or any(not (0.0 < x < 1.0) for x in q) or list(q) != sorted(set(q)):
            raise ConfigError("quantile_levels must be 21 strictly increasing values in (0, 1)")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head width must be even for rotary positions")
        for name in ("d_model", "n_blocks", "n_heads", "patch_len", "max_context", "horizon_patches"):
            if getattr(self, name) < (0 if name == "n_blocks" else 1):
                raise ConfigError(f"{name} out of range: {getattr(self, name)}")

    @property
    def horizon_capacity(self) -> int:
        return self.horizon_patches * self.patch_len

    def to_dict(self) -> dict:
        return {
            "d_model": self.d_model,
            "n_blocks": self.n_blocks,
            "n_heads": self.n_heads,
            "patch_len": self.patch_len,
            "quantile_levels": list(self.quantile_levels),
            "max_context": self.max_context,
            "horizon_patches": self.horizon_patches,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if "quantile_levels" in d:
            d["quantile_levels"] = tuple(d["quantile_levels"])
        return cls(**d)


@dataclass
class GroupBatch:
    """Embedded model input for one joint forward pass.

    tokens: (S, T, d_model) Tensor with the separator at reg_position;
    future_inputs holds the scaled known-future covariate values (exactly 0
    where future_known_mask is 0).
    """

    tokens: T.Tensor
    group_ids: np.ndarray
    rel_time: np.ndarray
    reg_position: int
    future_inputs: np.ndarray
    future_known_mask: np.ndarray
    scaling: list[ScalingState] = field(default_factory=list)
    horizon_len: int = 0


@dataclass(frozen=True)
class QuantileForecast:
    """Per-series quantile grid in original units, monotone across levels."""

    values: np.ndarray  # (S, m, 21)
    levels: tuple


# ---------------------------------------------------------------------------
# weights


def init_weights(config: ModelConfig, seed: int, dtype=np.float32) -> dict[str, T.Tensor]:
    """Gaussian-initialized parameter dict keyed by dotted names."""
    rng = PortableRng(seed).spawn(101)
    d = config.d_model
    in_w = config.patch_len * N_CHANNELS
    out_w = config.patch_len * len(config.quantile_levels)

    def gauss(shape, fan_in):
        n = int(np.prod(shape))
        return (rng.normal(n) * (1.0 / math.sqrt(fan_in))).reshape(shape)

    w: dict[str, T.Tensor] = {}

    def par(name, arr):
        w[name] = T.parameter(arr, dtype=dtype)

    par("embed.w1", gauss((in_w, d), in_w))
    par("embed.b1", np.zeros(d))
    par("embed.w2", gauss((d, d), d))
    par("embed.b2", np.zeros(d))
    par("embed.skip", gauss((in_w, d), in_w))
    par("reg", rng.normal(d) * 0.1)
    for i in range(config.n_blocks):
        for kind in ("time", "group"):
            p = f"block{i}.{kind}"
            for m in ("wq", "wk", "wv", "wo"):
                par(f"{p}.{m}", gauss((d, d), d))
            for b in ("bq", "bk", "bv", "bo"):
                par(f"{p}.{b}", np.zeros(d))
            par(f"{p}.ln_gain", np.ones(d))
            par(f"{p}.ln_bias", np.zeros(d))
    par("head.w", gauss((d, out_w), d))
    par("head.b", np.zeros(out_w))
    return w


# ---------------------------------------------------------------------------
# building blocks


def embed_patches(patches: T.Tensor, weights: dict) -> T.Tensor:
    """Map (.., patch_len * channels) patch vectors to d_model embeddings.

    Two-layer feed-forward with tanh, plus a linear skip projection of the
    raw patch added to the output.
    """
    if patches.shape[-1] != weights["embed.w1"].shape[0]:
        raise ShapeError(
            f"patch width {patches.shape[-1]} does not match embedding input "
            f"width {weights['embed.w1'].shape[0]}"
        )
    h = T.tanh(T.linear(patches, weights["embed.w1"], weights["embed.b1"]))
    out = T.linear(h, weights["embed.w2"], weights["embed.b2"])
    return T.add(out, T.matmul(patches, weights["embed.skip"]))


def insert_reg(context_tokens: T.Tensor, future_tokens: T.Tensor, reg_param: T.Tensor):
    """Place the shared separator embedding between context and future.

    Returns (tokens, reg_position) with one separator per series row.
    """
    S = context_tokens.shape[0]
    d = reg_param.shape[0]
    reg_row = T.reshape(reg_param, (1, 1, d))
    zeros = T.constant(np.zeros((S, 1, d)), dtype=context_tokens.dtype)
    reg_tile = T.add(zeros, reg_row)
    tokens = T.concat([context_tokens, reg_tile, future_tokens], axis=1)
    return tokens, context_tokens.shape[1]


_rope_cache: dict = {}


def _rope_tables_at(positions: np.ndarray, d_head: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) rotary tables, (len(positions), d_head // 2), in dtype."""
    half = d_head // 2
    inv_freq = ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / d_head)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


def _rope_tables(n_pos: int, d_head: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Cached tables for positions 0..n_pos-1."""
    key = (n_pos, d_head, np.dtype(dtype).str)
    hit = _rope_cache.get(key)
    if hit is not None:
        return hit
    tables = _rope_tables_at(np.arange(n_pos), d_head, dtype)
    if len(_rope_cache) > 256:
        _rope_cache.clear()
    _rope_cache[key] = tables
    return tables


def _split_heads(x: T.Tensor, n_heads: int) -> T.Tensor:
    S, L, D = x.shape
    dh = D // n_heads
    return T.transpose(T.reshape(x, (S, L, n_heads, dh)), (0, 2, 1, 3))


def _merge_heads(x: T.Tensor) -> T.Tensor:
    S, H, L, dh = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), (S, L, H * dh))


def _attention(
    x: T.Tensor,
    weights: dict,
    prefix: str,
    n_heads: int,
    rope: tuple[np.ndarray, np.ndarray] | None = None,
    mask_bias: np.ndarray | None = None,
) -> T.Tensor:
    """Multi-head attention over axis 1 of (B, L, D), with residual + norm."""
    D = x.shape[-1]
    dh = D // n_heads
    q = T.linear(x, weights[f"{prefix}.wq"], weights[f"{prefix}.bq"])
    k = T.linear(x, weights[f"{prefix}.wk"], weights[f"{prefix}.bk"])
    v = T.linear(x, weights[f"{prefix}.wv"], weights[f"{prefix}.bv"])
    q, k, v = (_split_heads(t, n_heads) for t in (q, k, v))
    if rope is not None:
        cos, sin = rope
        q = T.rope_rotate(q, cos, sin)
        k = T.rope_rotate(k, cos, sin)
    logits = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    if mask_bias is not None:
        logits = T.add(logits, T.constant(mask_bias, dtype=x.dtype))
    attn = T.softmax_rows(logits)
    ctx = _merge_heads(T.matmul(attn, v))
    out = T.linear(ctx, weights[f"{prefix}.wo"], weights[f"{prefix}.bo"])
    return T.layer_norm(
        T.add(x, out), weights[f"{prefix}.ln_gain"], weights[f"{prefix}.ln_bias"]
    )


def attention_logits(
    x: T.Tensor, weights: dict, prefix: str, n_heads: int, positions: np.ndarray
) -> np.ndarray:
    """Rotary-rotated attention logits (probe hook for position tests)."""
    D = x.shape[-1]
    dh = D // n_heads
    q = T.linear(x, weights[f"{prefix}.wq"], weights[f"{prefix}.bq"])
    k = T.linear(x, weights[f"{prefix}.wk"], weights[f"{prefix}.bk"])
    q, k = (_split_heads(t, n_heads) for t in (q, k))
    cos, sin = _rope_tables_at(positions, dh, x.dtype)
    q = T.rope_rotate(q, cos, sin)
    k = T.rope_rotate(k, cos, sin)
    logits = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    return logits.data


def time_attention(tokens: T.Tensor, weights: dict, prefix: str, n_heads: int) -> T.Tensor:
    """Bidirectional attention along each series row's patch axis."""
    rope = _rope_tables(tokens.shape[1], tokens.shape[-1] // n_heads, tokens.dtype)
    return _attention(tokens, weights, prefix, n_heads, rope=rope)


def group_mask_bias(group_ids: np.ndarray, dtype) -> np.ndarray:
    """(S, S) additive bias: 0 for equal group IDs, a large penalty else.

    exp(penalty) underflows to exactly 0, so cross-group attention weights
    are exactly zero and isolation is bitwise.
    """
    g = np.asarray(group_ids)
    same = g[:, None] == g[None, :]
    return np.where(same, 0.0, GROUP_MASK_PENALTY).astype(dtype)


def group_attention(
    tokens: T.Tensor,
    group_ids: np.ndarray,
    weights: dict,
    prefix: str,
    n_heads: int,
    reg_position: int | None = None,
) -> T.Tensor:
    """Attention across series at each patch index, masked by group ID.

    The separator token (at reg_position) is excluded: it neither updates
    nor contributes, and is copied through unchanged.
    """
    if reg_position is None:
        sub = tokens
    else:
        L = tokens.shape[1]
        before = T.narrow(tokens, 1, 0, reg_position)
        reg_tok = T.narrow(tokens, 1, reg_position, 1)
        after = T.narrow(tokens, 1, reg_position + 1, L - reg_position - 1)
        sub = T.concat([before, after], axis=1)
    flipped = T.transpose(sub, (1, 0, 2))  # (L', S, D)
    bias = group_mask_bias(group_ids, tokens.dtype)
    out = _attention(flipped, weights, prefix, n_heads, mask_bias=bias)
    out = T.transpose(out, (1, 0, 2))
    if reg_position is None:
        return out
    out_before = T.narrow(out, 1, 0, reg_position)
    out_after = T.narrow(out, 1, reg_position, out.shape[1] - reg_position)
    return T.concat([out_before, reg_tok, out_after], axis=1)


def forward(batch: GroupBatch, weights: dict, config: ModelConfig) -> T.Tensor:
    """Run the attention blocks and head; returns (S, F*P, 21) scaled grid."""
    x = batch.tokens
    L = x.shape[1]
    for i in range(config.n_blocks):
        x = time_attention(x, weights, f"block{i}.time", config.n_heads)
        x = group_attention(
            x, batch.group_ids, weights, f"block{i}.group", config.n_heads, batch.reg_position
        )
    n_future = L - batch.reg_position - 1
    fut = T.narrow(x, 1, batch.reg_position + 1, n_future)
    out = T.linear(fut, weights["head.w"], weights["head.b"])
    S = out.shape[0]
    return T.reshape(out, (S, n_future * config.patch_len, len(config.quantile_levels)))


# ---------------------------------------------------------------------------
# batch assembly and prediction


_trunc_warned: set = set()


def assemble_batch(
    context_values: np.ndarray,
    context_mask: np.ndarray,
    group_ids: np.ndarray,
    horizon_len: int,
    weights: dict,
    config: ModelConfig,
    future_values: np.ndarray | None = None,
    future_known_mask: np.ndarray | None = None,
) -> GroupBatch:
    """Scale, patch, embed and separator-tag a panel of context windows.

    context_values/context_mask: (S, Lc) in original units. future_values,
    when given, are known-future covariate inputs (S, m) in original units;
    cells with future_known_mask 0 are ignored and enter the grid as 0.
    """
    ctx = np.asarray(context_values, dtype=np.float64)
    msk = np.asarray(context_mask, dtype=np.float64)
    if ctx.ndim != 2 or ctx.shape != msk.shape:
        raise ShapeError(f"context values {ctx.shape} and mask {msk.shape} must be equal 2-D shapes")
    S, Lc = ctx.shape
    if horizon_len < 1:
        raise ConfigError(f"horizon_len must be >= 1, got {horizon_len}")
    if horizon_len > config.horizon_capacity:
        raise ConfigError(
            f"horizon {horizon_len} exceeds model capacity "
            f"{config.horizon_capacity} (= horizon_patches * patch_len)"
        )
    if Lc > config.max_context:
        key = (Lc, config.max_context)
        if key not in _trunc_warned:
            _trunc_warned.add(key)
            logger.warning(
                "context of %d positions truncated from the left to max_context=%d",
                Lc,
                config.max_context,
            )
        ctx = ctx[:, -config.max_context :]
        msk = msk[:, -config.max_context :]
        Lc = config.max_context

    P = config.patch_len
    F = -(-horizon_len // P)  # ceil
    Lh = F * P
    dtype = weights["embed.w1"].dtype

    known = np.zeros((S, Lh), dtype=np.float64)
    if future_known_mask is not None:
        fm = np.asarray(future_known_mask, dtype=np.float64)
        known[:, : fm.shape[1]] = fm

    states: list[ScalingState] = []
    ctx_patch_list = []
    fut_patch_list = []
    w_scaled = np.zeros((S, Lh), dtype=np.float64)
    pad = (-Lc) % P
    rel_full = preprocess.make_rel_time(Lc, Lh, pad_count=pad)
    for s in range(S):
        scaled, state = preprocess.robust_scale(ctx[s], msk[s])
        states.append(state)
        meta = MetaFeatures(rel_time=rel_full[pad : pad + Lc], observed_mask=msk[s])
        seq = preprocess.patchify(scaled, meta, P)
        ctx_patch_list.append(seq.patches)
        fvals = np.zeros(Lh, dtype=np.float64)
        if future_values is not None and np.any(known[s] > 0):
            raw = np.zeros(Lh, dtype=np.float64)
            fv = np.asarray(future_values[s], dtype=np.float64)
            raw[: fv.shape[0]] = fv
            fvals = np.where(known[s] > 0, preprocess.apply_scaling(raw, known[s], state), 0.0)
        w_scaled[s] = fvals
        fut_chans = np.stack([fvals, rel_full[pad + Lc :], known[s]], axis=-1)
        fut_patch_list.append(fut_chans.reshape(F, P, N_CHANNELS))

    Tc = ctx_patch_list[0].shape[0]
    ctx_patches = np.stack(ctx_patch_list).reshape(S, Tc, P * N_CHANNELS)
    fut_patches = np.stack(fut_patch_list).reshape(S, F, P * N_CHANNELS)

    ctx_tokens = embed_patches(T.constant(ctx_patches, dtype=dtype), weights)
    fut_tokens = embed_patches(T.constant(fut_patches, dtype=dtype), weights)
    tokens, reg_pos = insert_reg(ctx_tokens, fut_tokens, weights["reg"])

    patch_rel = rel_full[pad + P - 1 :: P]  # last position of each patch
    return GroupBatch(
        tokens=tokens,
        group_ids=np.asarray(group_ids),
        rel_time=patch_rel,
        reg_position=reg_pos,
        future_inputs=w_scaled,
        future_known_mask=known,
        scaling=states,
        horizon_len=horizon_len,
    )


def uv_group_ids(n_series: int) -> np.ndarray:
    return np.arange(n_series, dtype=np.int64)


def mv_group_ids(n_series: int) -> np.ndarray:
    return np.zeros(n_series, dtype=np.int64)


def predict(
    context_values: np.ndarray,
    context_mask: np.ndarray,
    mode: str,
    horizon_len: int,
    weights: dict,
    config: ModelConfig,
) -> QuantileForecast:
    """Forecast horizon_len steps for every series of a panel context.

    mode "UV" isolates each series in its own group; "MV" shares one group
    across the panel. Output quantiles are sorted per position (monotone
    rearrangement) and mapped back to original units.
    """
    mode = mode.upper()
    if mode not in ("UV", "MV"):
        raise ConfigError(f"mode must be UV or MV, got {mode!r}")
    S = np.asarray(context_values).shape[0]
    gids = uv_group_ids(S) if mode == "UV" else mv_group_ids(S)
    batch = assemble_batch(context_values, context_mask, gids, horizon_len, weights, config)
    grid = forward(batch, weights, config).data.astype(np.float64)
    grid = grid[:, :horizon_len, :]
    grid = np.sort(grid, axis=-1)
    out = np.empty_like(grid)
    for s in range(S):
        out[s] = preprocess.inverse_scale(grid[s], batch.scaling[s])
    return QuantileForecast(values=out, levels=tuple(config.quantile_levels))
