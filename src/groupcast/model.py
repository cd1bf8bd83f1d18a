"""Encoder-only forecaster with alternating time and group attention.

Per series row the pipeline is: scale -> patch -> embed through a residual
feed-forward block -> insert a learned separator token between context and
future patch slots -> n_blocks of (time attention with rotary positions,
then group attention among series with equal group IDs) -> linear head
emitting 21 quantiles per future position.

Group attention runs across the series axis at each fixed patch index, so
series in different groups exchange no information; the separator token is
passed through group attention untouched. Its computation follows the
structure of the group IDs: all singletons (UV) take the closed form of
attention to oneself, one shared group (MV) takes plain attention, and a
mix of groups takes dense attention under an additive -1e9 mask. The three
give the same bits as the masked form would.

Each attention with q and k (time attention, MV and masked group
attention) is one tape entry, `_attention`: its forward runs the numpy
expressions of the op-by-op chain (projections, head split, rotary,
scaled logits, mask, softmax, context, output projection, residual and
LayerNorm) and its hand-written backward runs that chain's gradients in
reverse. The softmax, the LayerNorm and the linear gradients are
tensor.py's own helpers, the ones its ops call, so outputs and gradients
keep the chain's bits (the chain is the reference in tests/oracles.py). The input's gradient is
summed in the tape's order, ((g_residual + g_v) + g_k) + g_q. That is
bitwise only because the attention's input has no other consumer: the
tape would add a second consumer's gradient to the op's sum, not inside it.

Only group attention reads the group IDs. Everything before block 0's
group attention (scaling, patching, embedding, block 0's time attention)
is the mode-independent trunk: `trunk` builds it once per context and
`finish` completes it for one mode, so MV and UV forecasts of the same
context can share it. `predict` is the two in sequence.

The head reads only the future patch tokens, so at inference (`finish`)
the last block computes only the future rows, with at least two: time
attention forms queries, the residual and the norm for those rows alone,
with keys and values from every row, and group attention runs on those
rows alone. With one future patch the separator row stays too, because a
single query row would take BLAS's matrix-vector path, which sums in
another order. The forecasts keep the bits of the full block. Training
keeps the full last block, whose weight gradients would otherwise reduce
over fewer rows and change bits, so pruned rows have no backward:
`_attention` raises ContractError for them while a tape records.
"""

import functools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels, preprocess
from . import tensor as T
from .config import DictConfig
from .errors import ConfigError, ContractError, ShapeError
from .preprocess import ScalingState
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
class ModelConfig(DictConfig):
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


@dataclass
class GroupBatch:
    """Embedded model input for one joint forward pass.

    tokens: (S, T, d_model) Tensor with the separator at reg_position.
    block0_time, when set, is block 0's time attention of tokens, which
    forward then does not compute again; group_ids is None only in a trunk,
    before finish sets it.
    """

    tokens: T.Tensor
    group_ids: np.ndarray | None
    reg_position: int
    scaling: list[ScalingState] = field(default_factory=list)
    horizon_len: int = 0
    block0_time: T.Tensor | None = None


@dataclass(frozen=True)
class QuantileForecast:
    """Per-series quantile grid in original units, monotone across levels."""

    values: np.ndarray  # (S, m, 21)


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


def _rope_tables_at(positions: np.ndarray, d_head: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) rotary tables, (len(positions), d_head // 2), in dtype."""
    half = d_head // 2
    inv_freq = ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / d_head)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


@functools.lru_cache(maxsize=256)
def _rope_tables(n_pos: int, d_head: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Cached tables for positions 0..n_pos-1."""
    return _rope_tables_at(np.arange(n_pos), d_head, dtype)


_ATTENTION_PARAMS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln_gain", "ln_bias")


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, L, D) -> (B, H, L, D // H) view; head h holds channels h*dh:(h+1)*dh."""
    B, L, D = a.shape
    return np.transpose(a.reshape(B, L, n_heads, D // n_heads), (0, 2, 1, 3))


def _rotate(a: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary positions on (B, H, L, dh) heads by (L, dh // 2) tables; the
    rotation is orthogonal, so -sin undoes it."""
    sh = a.shape
    flat = np.ascontiguousarray(a.reshape(-1, sh[-2], sh[-1]))
    return kernels.rotary_apply(flat, cos, sin).reshape(sh)


def _rotated_logits(xq, x, wq, bq, wk, bk, n_heads, rope_q=None, rope_k=None):
    """Scaled attention logits (B, H, Lq, L): queries from the rows xq,
    keys from the rows x, both rotated by their (cos, sin) tables when
    given. Also returns the rotated q heads and the k^T view, which the
    attention backward reads."""
    q = _heads(xq @ wq + bq, n_heads)
    k = _heads(x @ wk + bk, n_heads)
    if rope_q is not None:
        q = _rotate(q, *rope_q)
        k = _rotate(k, *rope_k)
    kt = np.transpose(k, (0, 1, 3, 2))
    s = q @ kt
    s *= s.dtype.type(1.0 / math.sqrt(q.shape[-1]))
    return q, kt, s


def _attention(
    x: T.Tensor,
    weights: dict,
    prefix: str,
    n_heads: int,
    rope: tuple[np.ndarray, np.ndarray] | None = None,
    mask_bias: np.ndarray | None = None,
    rows_from: int = 0,
) -> T.Tensor:
    """Multi-head attention over axis 1 of (B, L, D), with residual + norm,
    as one tape entry with inputs (x, wq, bq, wk, bk, wv, bv, wo, bo,
    ln_gain, ln_bias).

    Forward: q, k, v = x W + b, split into heads; q and k rotated by rope
    when given; logits q k^T / sqrt(dh), plus mask_bias when given (a
    constant: it gets no gradient); max-shifted softmax; the heads' context
    merged and projected by wo, bo; then LN(x + out). The logits buffer
    becomes the softmax in place and the residual buffer becomes the
    normalized rows in place. Only rows rows_from: are computed: they form
    the queries, the residual and the norm, while keys and values come from
    all L rows. Returns (B, L - rows_from, D), the same bits as those rows
    of the full output when at least two rows remain. Only inference prunes
    rows, so rows_from > 0 under an active tape raises ContractError.

    Backward runs, op by op in reverse, the gradients of the unfused chain
    of tensor ops (layer_norm, add, linear, reshape/transpose, matmul,
    softmax_rows, the scale, the inverse rotation), with tensor.py's
    LayerNorm, softmax and linear gradients, so every gradient has its
    bits. x's gradient is summed in the order the tape summed it,
    ((g_residual + g_v) + g_k) + g_q. That is bitwise only because the
    attention is the sole consumer of x in forward; a second consumer
    would add its gradient to this sum, not in the middle of it.
    """
    if rows_from and T._active_tape() is not None:
        raise ContractError(f"{prefix}: rows_from={rows_from} prunes rows, which has no backward")
    wq, bq, wk, bk, wv, bv, wo, bo, gain, bias = (
        weights[f"{prefix}.{name}"] for name in _ATTENTION_PARAMS
    )
    xd = x.data
    B, L, D = xd.shape
    dh = D // n_heads
    xq = xd if rows_from == 0 else np.ascontiguousarray(xd[:, rows_from:])
    Lq = xq.shape[1]
    rope_q = rope
    if rope is not None:
        cos, sin = rope
        rope_q = (cos[rows_from:], sin[rows_from:])
    q, kt, attn = _rotated_logits(xq, xd, wq.data, bq.data, wk.data, bk.data, n_heads, rope_q, rope)
    v = _heads(xd @ wv.data + bv.data, n_heads)
    if mask_bias is not None:
        attn += mask_bias.astype(xd.dtype, copy=False)
    T._softmax(attn, out=attn)
    ctx = np.transpose(attn @ v, (0, 2, 1, 3)).reshape(B, Lq, D)
    xhat = ctx @ wo.data + bo.data
    xhat += xq  # the residual: IEEE addition commutes, so xq + out
    xhat, inv = T._normalize(xhat, out=xhat)
    out = xhat * gain.data + bias.data

    def merge_heads(g):
        return np.transpose(g, (0, 2, 1, 3)).reshape(B, L, D)

    def bwd(g):
        # Each temporary is dropped once used, as the tape sweep drops it:
        # freed all at once at the end, their pages go back to the OS and
        # every step faults them in again.
        # layer_norm, then the residual add hands its gradient to both terms
        g_res, g_gain, g_bias = T._layer_norm_bwd(g, xhat, inv, gain.data)
        g, g_wo, g_bo = T._linear_bwd(g_res, ctx, wo.data, bo.data)
        # merge heads, attn @ v
        g = np.transpose(g.reshape(B, L, n_heads, dh), (0, 2, 1, 3))
        g_v = np.swapaxes(attn, -1, -2) @ g
        g = g @ np.swapaxes(v, -1, -2)
        # softmax, the scale, q @ k^T
        g = T._softmax_bwd(g, attn)
        g *= attn.dtype.type(1.0 / math.sqrt(dh))
        g_q = g @ np.swapaxes(kt, -1, -2)
        g_k = np.transpose(np.swapaxes(q, -1, -2) @ g, (0, 1, 3, 2))
        del g
        # split heads, then the v/k/q projections in the tape's order
        g_xv, g_wv, g_bv = T._linear_bwd(merge_heads(g_v), xd, wv.data, bv.data)
        del g_v
        gx = g_res + g_xv
        del g_xv
        if rope is not None:
            g_k = _rotate(g_k, cos, -sin)
        g_xk, g_wk, g_bk = T._linear_bwd(merge_heads(g_k), xd, wk.data, bk.data)
        del g_k
        gx += g_xk
        del g_xk
        if rope is not None:
            g_q = _rotate(g_q, cos, -sin)
        g_xq, g_wq, g_bq = T._linear_bwd(merge_heads(g_q), xd, wq.data, bq.data)
        del g_q
        gx += g_xq
        return gx, g_wq, g_bq, g_wk, g_bk, g_wv, g_bv, g_wo, g_bo, g_gain, g_bias

    return T.make_op((x, wq, bq, wk, bk, wv, bv, wo, bo, gain, bias), out, bwd)


def attention_logits(
    x: T.Tensor, weights: dict, prefix: str, n_heads: int, positions: np.ndarray
) -> np.ndarray:
    """Rotary-rotated attention logits (probe hook for position tests), by
    the expressions of the attention forward."""
    rope = _rope_tables_at(positions, x.shape[-1] // n_heads, x.dtype)
    wq, bq, wk, bk = (weights[f"{prefix}.{name}"].data for name in ("wq", "bq", "wk", "bk"))
    return _rotated_logits(x.data, x.data, wq, bq, wk, bk, n_heads, rope, rope)[2]


def time_attention(
    tokens: T.Tensor, weights: dict, prefix: str, n_heads: int, rows_from: int = 0
) -> T.Tensor:
    """Bidirectional attention along each series row's patch axis, for the
    patches rows_from: of each row (see _attention)."""
    rope = _rope_tables(tokens.shape[1], tokens.shape[-1] // n_heads, tokens.dtype)
    return _attention(tokens, weights, prefix, n_heads, rope=rope, rows_from=rows_from)


def group_mask_bias(group_ids: np.ndarray, dtype) -> np.ndarray:
    """(S, S) additive bias: 0 for equal group IDs, a large penalty else.

    exp(penalty) underflows to exactly 0, so cross-group attention weights
    are exactly zero and isolation is bitwise. Only batches with several
    groups, not all of them singletons, use it; group_attention needs no
    mask for all-singleton (UV) and single-group (MV) batches.
    """
    g = np.asarray(group_ids)
    same = g[:, None] == g[None, :]
    return np.where(same, 0.0, GROUP_MASK_PENALTY).astype(dtype)


def _self_attention(x: T.Tensor, weights: dict, prefix: str) -> T.Tensor:
    """Attention of every row to itself alone: LN(x + (x Wv + bv) Wo + bo).

    A softmax over one logit is exactly 1, so the value projection passes
    through unchanged; q, k, the logits and the softmax are never formed.
    """
    v = T.linear(x, weights[f"{prefix}.wv"], weights[f"{prefix}.bv"])
    out = T.linear(v, weights[f"{prefix}.wo"], weights[f"{prefix}.bo"])
    return T.layer_norm(
        T.add(x, out), weights[f"{prefix}.ln_gain"], weights[f"{prefix}.ln_bias"]
    )


def group_attention(
    tokens: T.Tensor,
    group_ids: np.ndarray,
    weights: dict,
    prefix: str,
    n_heads: int,
    reg_position: int | None = None,
) -> T.Tensor:
    """Attention across series at each patch index, within equal group IDs.

    The computation depends on the structure of group_ids: every series
    its own group (UV) takes the closed form of attention to oneself, one
    group for all series (MV) takes unmasked attention, and anything else
    takes attention masked by group_mask_bias. Each gives the bits of the
    masked form, gradients included (the UV form leaves the q/k weights off
    the tape; the masked form gives them exactly zero gradient). MV and
    masked attention are one fused tape entry (_attention), whose input,
    the series-major view of the tokens, feeds nothing else.

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
    g = np.asarray(group_ids)
    n_groups = len(set(g.tolist()))
    if n_groups == g.size:
        out = _self_attention(flipped, weights, prefix)
    elif n_groups == 1:
        out = _attention(flipped, weights, prefix, n_heads)
    else:
        bias = group_mask_bias(g, tokens.dtype)
        out = _attention(flipped, weights, prefix, n_heads, mask_bias=bias)
    out = T.transpose(out, (1, 0, 2))
    if reg_position is None:
        return out
    out_before = T.narrow(out, 1, 0, reg_position)
    out_after = T.narrow(out, 1, reg_position, out.shape[1] - reg_position)
    return T.concat([out_before, reg_tok, out_after], axis=1)


def forward(
    batch: GroupBatch, weights: dict, config: ModelConfig, future_only: bool = False
) -> T.Tensor:
    """Run the attention blocks and head; returns (S, F*P, 21) scaled grid.

    With future_only, the last block computes only the rows the head reads,
    the future patches, with at least two: with one future patch the
    separator row stays too, since a single query row would take BLAS's
    matrix-vector path, which sums in another order. The grid has the same
    bits as without it. Inference sets it; training does not.
    """
    x = batch.tokens
    L = x.shape[1]
    start = min(batch.reg_position + 1, L - 2) if future_only and config.n_blocks else 0
    for i in range(config.n_blocks):
        rows_from = start if i == config.n_blocks - 1 else 0
        if i == 0 and batch.block0_time is not None:
            x = batch.block0_time
            if rows_from:
                x = T.narrow(x, 1, rows_from, L - rows_from)
        else:
            x = time_attention(x, weights, f"block{i}.time", config.n_heads, rows_from=rows_from)
        reg_position = batch.reg_position - rows_from
        x = group_attention(
            x, batch.group_ids, weights, f"block{i}.group", config.n_heads,
            reg_position if reg_position >= 0 else None,
        )
    n_future = L - batch.reg_position - 1
    fut = T.narrow(x, 1, batch.reg_position + 1 - start, n_future)
    out = T.linear(fut, weights["head.w"], weights["head.b"])
    S = out.shape[0]
    return T.reshape(out, (S, n_future * config.patch_len, len(config.quantile_levels)))


# ---------------------------------------------------------------------------
# batch assembly and prediction


_trunc_warned: set = set()


def assemble_batch(
    context_values: np.ndarray,
    context_mask: np.ndarray,
    group_ids: np.ndarray | None,
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
    Every row is scaled and patched in whole-array operations that give
    the bits of preprocess.robust_scale and patchify row by row.
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
    pad = (-Lc) % P
    dtype = weights["embed.w1"].dtype

    # (mean, std) of fully observed rows in one pass; rows with gaps one by one
    full = np.all(msk > 0, axis=1) & (Lc > 0)
    loc, scale = np.empty(S), np.empty(S)
    if full.any():
        obs = ctx if full.all() else ctx[full]
        loc[full] = np.mean(obs, axis=1)
        scale[full] = np.maximum(np.std(obs, axis=1), preprocess.SCALE_FLOOR)
    for s in np.flatnonzero(~full):
        state = preprocess.fit_scaling(ctx[s], msk[s])
        loc[s], scale[s] = state.loc, state.scale
    states = [ScalingState(lo, sc) for lo, sc in zip(loc.tolist(), scale.tolist())]

    # channels [value, rel_time, mask] of the left-padded context, as patchify
    rel = preprocess.make_rel_time(Lc, Lh, pad_count=pad)
    rel_ctx = rel[pad : pad + Lc]
    chans = np.zeros((S, pad + Lc, N_CHANNELS))
    chans[:, pad:, 0] = np.where(msk > 0, preprocess.scale_rows(ctx, loc, scale), 0.0)
    if pad:
        chans[:, :pad, 1] = preprocess.pad_rel_time(rel_ctx, pad)
    chans[:, pad:, 1] = rel_ctx
    chans[:, pad:, 2] = msk
    ctx_patches = chans.reshape(S, (pad + Lc) // P, P * N_CHANNELS)

    fut = np.zeros((S, Lh, N_CHANNELS))
    fut[:, :, 1] = rel[pad + Lc :]
    if future_known_mask is not None:
        fm = np.asarray(future_known_mask, dtype=np.float64)
        fut[:, : fm.shape[1], 2] = fm
        known = fut[:, :, 2] > 0
        rows = np.flatnonzero(known.any(axis=1))
        if future_values is not None and rows.size:
            fv = np.asarray(future_values, dtype=np.float64)[rows]
            raw = np.zeros((rows.size, Lh))
            raw[:, : fv.shape[1]] = fv
            scaled = preprocess.scale_rows(raw, loc[rows], scale[rows])
            fut[rows, :, 0] = np.where(known[rows], scaled, 0.0)
    fut_patches = fut.reshape(S, F, P * N_CHANNELS)

    ctx_tokens = embed_patches(T.constant(ctx_patches, dtype=dtype), weights)
    fut_tokens = embed_patches(T.constant(fut_patches, dtype=dtype), weights)
    tokens, reg_pos = insert_reg(ctx_tokens, fut_tokens, weights["reg"])

    return GroupBatch(
        tokens=tokens,
        group_ids=None if group_ids is None else np.asarray(group_ids),
        reg_position=reg_pos,
        scaling=states,
        horizon_len=horizon_len,
    )


def uv_group_ids(n_series: int) -> np.ndarray:
    return np.arange(n_series, dtype=np.int64)


def mv_group_ids(n_series: int) -> np.ndarray:
    return np.zeros(n_series, dtype=np.int64)


def mode_group_ids(mode: str, n_series: int) -> np.ndarray:
    """Group IDs of a forecast mode: "UV" isolates each series in its own
    group, "MV" shares one group across the panel."""
    mode = mode.upper()
    if mode == "UV":
        return uv_group_ids(n_series)
    if mode == "MV":
        return mv_group_ids(n_series)
    raise ConfigError(f"mode must be UV or MV, got {mode!r}")


def trunk(
    context_values: np.ndarray,
    context_mask: np.ndarray,
    horizon_len: int,
    weights: dict,
    config: ModelConfig,
) -> GroupBatch:
    """The mode-independent part of a forecast of one panel context.

    The batch of assemble_batch with block0_time set and no group IDs;
    finish sets the IDs on a copy, so one trunk serves every mode.
    """
    batch = assemble_batch(context_values, context_mask, None, horizon_len, weights, config)
    if config.n_blocks == 0:
        return batch
    block0_time = time_attention(batch.tokens, weights, "block0.time", config.n_heads)
    return replace(batch, block0_time=block0_time)


def finish(
    batch: GroupBatch, group_ids: np.ndarray, weights: dict, config: ModelConfig
) -> QuantileForecast:
    """Complete a trunk under group_ids: block 0's group attention, the
    remaining blocks and the head, the last block computing only the future
    rows, at least two (forward's future_only). Then the quantiles are
    sorted per position (monotone rearrangement) and mapped back to
    original units, all series in one expression. The trunk itself is left
    as it was."""
    batch = replace(batch, group_ids=group_ids)
    grid = forward(batch, weights, config, future_only=True).data.astype(np.float64)
    grid = np.sort(grid[:, : batch.horizon_len, :], axis=-1)
    loc = np.array([st.loc for st in batch.scaling])
    scale = np.array([st.scale for st in batch.scaling])
    return QuantileForecast(values=np.sinh(grid) * scale[:, None, None] + loc[:, None, None])


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
    across the panel. The trunk and finish in sequence.
    """
    gids = mode_group_ids(mode, np.asarray(context_values).shape[0])
    batch = trunk(context_values, context_mask, horizon_len, weights, config)
    return finish(batch, gids, weights, config)
