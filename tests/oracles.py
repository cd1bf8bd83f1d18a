"""Independent reference implementations used as test oracles.

Everything here is deliberately written the dumb way (explicit loops,
no shared code with the package) so a disagreement means a real bug. The
exceptions are the dense masked group attention, which is built from
``groupcast.tensor`` primitives so that its gradients can be compared too;
the unpruned finish, which runs the package's full forward so that the
pruned last block of ``model.finish`` can be compared with it bit for bit;
and the per-row batch assembly, which runs the package's per-row
preprocessing functions one series at a time, the reference for the
whole-array ``model.assemble_batch``; and the scan-based artifact writer,
which rescans the records for every table cell and shares the package's
formatting, sorting and file-writing helpers, the reference for the
group-by ``evalharness.emit_artifacts``; and the attention as a chain of
tape ops (with the ``scale`` and ``rope_rotate`` ops it alone uses), the
reference for the fused ``model._attention``; and LayerNorm, softmax and
linear as tape ops with their own forward and backward expressions, the
byte references for the helpers of ``groupcast.tensor`` that
``T.layer_norm``, ``T.softmax_rows``, ``T.linear`` and the fused attention
share (the masked group attention and the attention chain use them, so
no LayerNorm, softmax or linear code is shared with what they check). The ``csv.writer`` dataset
writer and the numpy-scalar VAR loop are the byte references for the
%-template ``synthdata.save_panel_dataset`` and ``kernels.var_recursion``,
whose step over Python floats is generated once per (K, L) shape; the power iteration with two products by M per
step is the byte reference for ``synthdata.spectral_radius``. The general
mixing formula of derived panels, summed one element at a time over a
(K, B) mixing matrix (it draws the same noise from ``PortableRng``), is the
byte reference for the lag-shifted copies of ``synthdata.derive_multivariate``
and ``synthdata.make_cross_link_panel``. The per-series scoring loop, which calls the
package's ``rmse`` and ``mape`` once per series, is the byte reference for
the whole-array metrics of ``evalharness.evaluate_cell``; the per-series
last-value loop is the byte reference for ``evalharness.LastValueStub``. The two-phase
reverse sweep, which sums every gradient before it touches a leaf, is the
byte reference for ``tensor.backward``.
"""

import csv
import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from groupcast import evalharness as E
from groupcast import kernels as K
from groupcast import model as M
from groupcast import preprocess as P
from groupcast import tensor as T
from groupcast.errors import DegenerateInputError, ShapeError
from groupcast.panels import slice_context
from groupcast.rng import PortableRng

LAYER_NORM_EPS = 1e-5


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def finite_diff_grad(f, arr: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Five-point central differences of scalar f with respect to arr entries:
    (f(x - 2h) - 8 f(x - h) + 8 f(x + h) - f(x + 2h)) / 12h, whose
    truncation error falls as h**4."""
    g = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        fs = []
        for step in (-2.0, -1.0, 1.0, 2.0):
            flat[i] = orig + step * h
            fs.append(float(f()))
        flat[i] = orig
        g.reshape(-1)[i] = (fs[0] - 8.0 * fs[1] + 8.0 * fs[2] - fs[3]) / (12.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def scaling_one_liner(series):
    """Mean/std/asinh in one obvious pass."""
    x = np.asarray(series, dtype=np.float64)
    loc = sum(x) / len(x)
    scale = (sum((v - loc) ** 2 for v in x) / len(x)) ** 0.5
    scale = max(scale, 1e-6)
    return loc, scale, np.arcsinh((x - loc) / scale)


def rmse_two_lines(actual, forecast):
    errs = [(a - f) ** 2 for a, f in zip(actual, forecast)]
    return (sum(errs) / len(errs)) ** 0.5


def mape_loop(actual, forecast, threshold=1e-8):
    total, count, skipped = 0.0, 0, 0
    for a, f in zip(actual, forecast):
        if abs(a) < threshold:
            skipped += 1
            continue
        total += abs((a - f) / a)
        count += 1
    if count == 0:
        raise ZeroDivisionError("all skipped")
    return total / count, skipped


def adam_per_parameter(params, grads, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected Adam step, parameter by parameter, out of place.

    Every dict maps a name to an array of one float dtype; the scalars are
    cast to that dtype first. Returns the new (params, m, v) dicts.
    """
    new_p, new_m, new_v = {}, {}, {}
    for name, w in params.items():
        dt = w.dtype.type
        g = grads[name]
        b1, b2, e = dt(beta1), dt(beta2), dt(eps)
        new_m[name] = b1 * m[name] + (dt(1.0) - b1) * g
        new_v[name] = b2 * v[name] + (dt(1.0) - b2) * (g * g)
        mh = new_m[name] / (dt(1.0) - b1**t)
        vh = new_v[name] / (dt(1.0) - b2**t)
        new_p[name] = w - dt(lr) * mh / (np.sqrt(vh) + e)
    return new_p, new_m, new_v


def splitmix64_reference(seed: int, n: int) -> list[int]:
    """Pure-int SplitMix64 in counter form; the documented algorithm."""
    mask = (1 << 64) - 1
    out = []
    for i in range(n):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def spawn_state_reference(state: int, key: int) -> int:
    """Pure-int child state of PortableRng.spawn; the documented algorithm."""
    mask = (1 << 64) - 1
    z = (state + ((key + 1) & mask) * 0xD1B54A32D192ED03) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def var_recursion_numpy_scalars(coeffs: np.ndarray, innovations: np.ndarray) -> np.ndarray:
    """The VAR loop indexing numpy arrays, one numpy scalar per operation."""
    L, K, _ = coeffs.shape
    T = innovations.shape[0]
    x = np.zeros((T, K), dtype=np.float64)
    for t in range(T):
        for i in range(K):
            acc = innovations[t, i]
            for l in range(L):
                s = t - 1 - l
                if s < 0:
                    break
                for j in range(K):
                    acc = acc + coeffs[l, i, j] * x[s, j]
            x[t, i] = acc
    return x


def save_panel_dataset_csv_writer(path, panel: np.ndarray) -> None:
    """One csv.writer row per value, formatting each numpy scalar."""
    panel = np.asarray(panel, dtype=np.float64)
    if panel.ndim == 1:
        panel = panel[None, :]
    K, T = panel.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "t", "value"])
        for i in range(K):
            for t in range(T):
                writer.writerow([f"s{i}", t, "%.17g" % panel[i, t]])


def spectral_radius_two_products(M: np.ndarray, tol: float = 1e-8, max_iter: int = 5000) -> float:
    """Block power iteration that multiplies by M twice per step: once for
    the next iterate and again for the 2x2 projection."""
    n = M.shape[0]
    if n == 1:
        return float(abs(M[0, 0]))
    p = min(2, n)
    q = np.stack([np.ones(n), np.arange(1, n + 1, dtype=np.float64)], axis=1)[:, :p]
    q, _ = np.linalg.qr(q)
    prev = None
    stable = 0
    est = 0.0
    for _ in range(max_iter):
        z = M @ q
        if not np.isfinite(z).all() or float(np.abs(z).max()) == 0.0:
            return 0.0 if float(np.abs(z).max()) == 0.0 else float("inf")
        q, _ = np.linalg.qr(z)
        t = q.T @ (M @ q)
        tr = t[0, 0] + t[1, 1]
        det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
        disc = tr * tr - 4.0 * det
        if disc >= 0:
            r = math.sqrt(disc)
            est = max(abs((tr + r) / 2.0), abs((tr - r) / 2.0))
        else:
            est = math.sqrt(det)
        if prev is not None and abs(est - prev) <= tol * max(abs(est), 1.0):
            stable += 1
            if stable >= 3:
                return float(est)
        else:
            stable = 0
        prev = est
    return float(est)


def derive_mixing_loop(bases, mixing, lags, seed: int, noise_scale: float = 0.0) -> np.ndarray:
    """out[i, t] = sum over b of mixing[i][b] * bases[b][t + max_lag - lags[i][b]],
    summed from 0.0 with zero coefficients skipped, plus noise_scale times the
    normal draw of PortableRng(seed).spawn(13), one Python float at a time."""
    K, B = len(mixing), len(bases)
    max_lag = max(max(row) for row in lags)
    To = len(bases[0]) - max_lag
    noise = PortableRng(seed).spawn(13).normal(K * To).tolist() if noise_scale > 0 else None
    out = np.zeros((K, To), dtype=np.float64)
    for i in range(K):
        for t in range(To):
            acc = 0.0
            for b in range(B):
                c = float(mixing[i][b])
                if c != 0.0:
                    acc += c * float(bases[b][t + max_lag - lags[i][b]])
            if noise is not None:
                acc = acc + noise_scale * noise[i * To + t]
            out[i, t] = acc
    return out


def pinball_cell(level: float, err: float) -> float:
    return max(level * err, (level - 1.0) * err)


def brute_force_metrics(panel_values, panel_mask, forecast_fn, origins_idx, n, m, threshold=1e-8):
    """Recompute per-series rmse/mape for a stub forecaster the slow way.

    forecast_fn(context_values, context_mask, m) -> (K, m) point path.
    Returns {(origin_idx, series_idx): (rmse, mape, skipped)}.
    """
    K = panel_values.shape[0]
    out = {}
    for oi in origins_idx:
        ctx = panel_values[:, oi - n : oi]
        cmask = panel_mask[:, oi - n : oi]
        point = forecast_fn(ctx, cmask, m)
        for k in range(K):
            sq, nsq = 0.0, 0
            tot, cnt, skipped = 0.0, 0, 0
            for j in range(m):
                if panel_mask[k, oi + j] == 0:
                    continue
                a = panel_values[k, oi + j]
                f = point[k, j]
                sq += (a - f) ** 2
                nsq += 1
                if abs(a) < threshold:
                    skipped += 1
                    continue
                tot += abs((a - f) / a)
                cnt += 1
            out[(oi, k)] = ((sq / nsq) ** 0.5, tot / cnt, skipped)
    return out


def last_value_per_series(context_values, context_mask, m):
    """Each series' last observed context value repeated m times, one series
    at a time; 0.0 for a series with none."""
    ctx = np.asarray(context_values, dtype=np.float64)
    msk = np.asarray(context_mask)
    K = ctx.shape[0]
    out = np.zeros((K, m))
    for k in range(K):
        obs = np.nonzero(msk[k] > 0)[0]
        last = ctx[k, obs[-1]] if obs.size else 0.0
        out[k, :] = last
    return out


def evaluate_cell_per_series(panel, spec, origin, forecaster):
    """evaluate_cell with each series scored by its own rmse and mape call."""
    records, skips = [], []

    def skip(sid, reason):
        skips.append(
            {"panel": spec.panel, "mode": spec.mode, "series": sid, "n": spec.n,
             "m": spec.m, "origin": origin.isoformat(), "reason": reason}
        )

    ctx = slice_context(panel, origin, spec.n)
    if ctx is None:
        for sid in panel.series_ids:
            skip(sid, "insufficient history")
        return records, skips
    oi = panel.dates.index(origin)
    realized = panel.values[:, oi : oi + spec.m]
    realized_mask = panel.mask[:, oi : oi + spec.m]
    regime = "pre" if origin < spec.cutoff else "post"
    try:
        point = forecaster.forecast_panel(
            ctx[0], ctx[1], spec.mode, spec.m,
            realized=(realized, realized_mask) if forecaster.needs_truth else None,
        )
        if np.shape(point) != realized.shape:
            raise ShapeError(f"forecast shape {np.shape(point)}, expected {realized.shape}")
    except Exception as exc:
        for sid in panel.series_ids:
            skip(sid, f"forecast error: {exc}")
        return records, skips
    for k, sid in enumerate(panel.series_ids):
        try:
            r = E.rmse(realized[k], point[k], realized_mask[k])
            mp, nskip = E.mape(realized[k], point[k], realized_mask[k])
        except DegenerateInputError as exc:
            skip(sid, str(exc))
            continue
        records.append(
            E.EvalRecord(
                panel=spec.panel, mode=spec.mode, series=sid, n=spec.n, m=spec.m,
                origin=origin, rmse=r, mape=mp, skipped=nskip, regime=regime,
            )
        )
    return records, skips


def group_attention_dense_masked(tokens, group_ids, weights, prefix, n_heads, reg_position=None):
    """Group attention as one dense S x S attention under a -1e9 mask.

    Every row pair is scored at every patch index; pairs from different
    groups get the penalty added to their logits, so their softmax weights
    underflow to 0. The separator at reg_position is copied through.
    """
    if reg_position is None:
        sub = tokens
    else:
        L = tokens.shape[1]
        before = T.narrow(tokens, 1, 0, reg_position)
        reg_tok = T.narrow(tokens, 1, reg_position, 1)
        after = T.narrow(tokens, 1, reg_position + 1, L - reg_position - 1)
        sub = T.concat([before, after], axis=1)
    x = T.transpose(sub, (1, 0, 2))  # (L', S, D)
    B, S, D = x.shape
    dh = D // n_heads

    def heads(t):
        return T.transpose(T.reshape(t, (B, S, n_heads, dh)), (0, 2, 1, 3))

    q = heads(linear_op(x, weights[f"{prefix}.wq"], weights[f"{prefix}.bq"]))
    k = heads(linear_op(x, weights[f"{prefix}.wk"], weights[f"{prefix}.bk"]))
    v = heads(linear_op(x, weights[f"{prefix}.wv"], weights[f"{prefix}.bv"]))
    logits = scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    g = np.asarray(group_ids)
    bias = np.where(g[:, None] == g[None, :], 0.0, -1e9).astype(tokens.dtype)
    logits = T.add(logits, T.constant(bias, dtype=tokens.dtype))
    ctx = T.matmul(softmax_rows_op(logits), v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (B, S, D))
    out = linear_op(ctx, weights[f"{prefix}.wo"], weights[f"{prefix}.bo"])
    out = layer_norm_op(T.add(x, out), weights[f"{prefix}.ln_gain"], weights[f"{prefix}.ln_bias"])
    out = T.transpose(out, (1, 0, 2))
    if reg_position is None:
        return out
    out_before = T.narrow(out, 1, 0, reg_position)
    out_after = T.narrow(out, 1, reg_position, out.shape[1] - reg_position)
    return T.concat([out_before, reg_tok, out_after], axis=1)


# ---------------------------------------------------------------------------
# the tape's reverse sweep in two phases: the byte reference for
# tensor.backward, which adds each leaf's gradients into its accumulator
# as the sweep reaches them.


def backward_two_phase(loss: T.Tensor, tape: T.Tape) -> None:
    """Sum every gradient out of place, leaves' too, through the whole
    sweep; then add each leaf's sum into its accumulator, and give leaves
    on the tape with no path to the loss a zero accumulator."""
    buffers: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, T.Tensor] = {id(loss): loss}
    outputs: set[int] = set()
    for inputs, out, bwd in reversed(tape.entries):
        outputs.add(id(out))
        g = buffers.pop(id(out), None)
        holders.pop(id(out), None)
        if g is None:
            continue
        grads = bwd(g)
        for inp, gi in zip(inputs, grads):
            if gi is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in buffers:
                buffers[key] = buffers[key] + gi
            else:
                buffers[key] = gi
                holders[key] = inp
    for key, t in holders.items():
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += buffers[key]
    for inputs, _, _ in tape.entries:
        for inp in inputs:
            if inp.requires_grad and inp.grad is None and id(inp) not in outputs:
                inp.grad = np.zeros_like(inp.data)


# ---------------------------------------------------------------------------
# LayerNorm, softmax and linear as self-contained tape ops, each with its
# own forward and backward expressions: the byte references for the shared
# helpers of groupcast.tensor, which T.layer_norm, T.softmax_rows, T.linear
# and the fused model._attention all call.


def linear_op(x: T.Tensor, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    """``x @ w + b`` as one tape entry; bitwise equal to ``add(matmul(x, w), b)``.

    x is (..., n), w is (n, k) and b is (k,).
    """
    if x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs x (..., n), w (n, k), b (k,), got {x.shape}, {w.shape}, {b.shape}")
    out = x.data @ w.data + b.data

    def bwd(g):
        gx = g @ w.data.T
        gw = T._reduce_to(np.swapaxes(x.data, -1, -2) @ g, w.shape)
        return gx, gw, T._reduce_to(g, b.shape)

    return T.make_op((x, w, b), out, bwd)


def softmax_rows_op(x: T.Tensor) -> T.Tensor:
    """Row-wise softmax over the last axis, max-shifted for stability.

    The shift makes the one new array; exp and the division run in place.
    """
    y = x.data - np.max(x.data, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True)

    def bwd(g):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        return (y * (g - dot),)

    return T.make_op((x,), y, bwd)


def layer_norm_op(x: T.Tensor, gain: T.Tensor, bias: T.Tensor) -> T.Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(
            f"layer_norm affine params must be shape {x.shape[-1:]}, "
            f"got gain {gain.shape}, bias {bias.shape}"
        )
    mu = np.mean(x.data, axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(LAYER_NORM_EPS))
    xhat = xc * inv
    y = xhat * gain.data + bias.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        g_gain = np.sum(g * xhat, axis=lead) if lead else g * xhat
        g_bias = np.sum(g, axis=lead) if lead else g
        gx_hat = g * gain.data
        m1 = np.mean(gx_hat, axis=-1, keepdims=True)
        m2 = np.mean(gx_hat * xhat, axis=-1, keepdims=True)
        gx = inv * (gx_hat - m1 - xhat * m2)
        return gx, g_gain, g_bias

    return T.make_op((x, gain, bias), y, bwd)


# ---------------------------------------------------------------------------
# attention as a chain of tensor ops: the bitwise reference for the fused
# model._attention. scale and rope_rotate are the tape ops only this chain
# uses.


def scale(a: T.Tensor, c: float) -> T.Tensor:
    c = a.data.dtype.type(c)
    out = a.data * c

    def bwd(g):
        return (g * c,)

    return T.make_op((a,), out, bwd)


def rope_rotate(x: T.Tensor, cos: np.ndarray, sin: np.ndarray) -> T.Tensor:
    """Rotate channel pairs of x (..., T, D) by per-position angles.

    cos/sin are plain (T, D//2) arrays; the rotation is orthogonal, so the
    backward pass is the inverse rotation of the incoming gradient.
    """
    sh = x.shape
    if sh[-1] % 2 != 0:
        raise ShapeError(f"rope_rotate needs an even last dim, got {sh}")
    flat = x.data.reshape(-1, sh[-2], sh[-1])
    out = K.rotary_apply(flat, cos, sin).reshape(sh)

    def bwd(g):
        gf = np.ascontiguousarray(g.reshape(-1, sh[-2], sh[-1]))
        return (K.rotary_apply(gf, cos, -sin).reshape(sh),)

    return T.make_op((x,), out, bwd)


def _split_heads(x: T.Tensor, n_heads: int) -> T.Tensor:
    S, L, D = x.shape
    dh = D // n_heads
    return T.transpose(T.reshape(x, (S, L, n_heads, dh)), (0, 2, 1, 3))


def _merge_heads(x: T.Tensor) -> T.Tensor:
    S, H, L, dh = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), (S, L, H * dh))


def attention_op_chain(
    x: T.Tensor,
    weights: dict,
    prefix: str,
    n_heads: int,
    rope: tuple[np.ndarray, np.ndarray] | None = None,
    mask_bias: np.ndarray | None = None,
    rows_from: int = 0,
) -> T.Tensor:
    """Multi-head attention over axis 1 of (B, L, D), with residual + norm,
    one tape entry per op; model._attention's signature and result.

    Only rows rows_from: are computed: they form the queries, the residual
    and the norm, while keys and values come from all L rows. Returns
    (B, L - rows_from, D).
    """
    D = x.shape[-1]
    dh = D // n_heads
    xq = x if rows_from == 0 else T.narrow(x, 1, rows_from, x.shape[1] - rows_from)
    q = linear_op(xq, weights[f"{prefix}.wq"], weights[f"{prefix}.bq"])
    k = linear_op(x, weights[f"{prefix}.wk"], weights[f"{prefix}.bk"])
    v = linear_op(x, weights[f"{prefix}.wv"], weights[f"{prefix}.bv"])
    q, k, v = (_split_heads(t, n_heads) for t in (q, k, v))
    if rope is not None:
        cos, sin = rope
        q = rope_rotate(q, cos[rows_from:], sin[rows_from:])
        k = rope_rotate(k, cos, sin)
    logits = scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    if mask_bias is not None:
        logits = T.add(logits, T.constant(mask_bias, dtype=x.dtype))
    attn = softmax_rows_op(logits)
    ctx = _merge_heads(T.matmul(attn, v))
    out = linear_op(ctx, weights[f"{prefix}.wo"], weights[f"{prefix}.bo"])
    return layer_norm_op(
        T.add(xq, out), weights[f"{prefix}.ln_gain"], weights[f"{prefix}.ln_bias"]
    )


def softmax_three_temporaries(x):
    """Max-shifted softmax over the last axis, one temporary per step."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def finish_unpruned(batch, group_ids, weights, config):
    """model.finish without pruning: the full forward of a batch under
    group_ids, then the per-position sort and the per-series inverse
    scaling. Returns the (S, horizon_len, 21) grid. A trunk's block0_time
    is dropped, since forward prunes the last block of a trunk."""
    grid = M.forward(replace(batch, block0_time=None), group_ids, weights, config).data.astype(np.float64)
    grid = np.sort(grid[:, : batch.horizon_len, :], axis=-1)
    scaling = zip(batch.loc.tolist(), batch.scale.tolist())
    return np.stack([P.inverse_scale(grid[s], P.ScalingState(lo, sc)) for s, (lo, sc) in enumerate(scaling)])


def assemble_batch_per_row(
    context_values, context_mask, horizon_len, weights, config,
    future_values=None, future_known_mask=None,
):
    """model.assemble_batch one series row at a time: robust_scale, patchify
    and the known-future channel per row, then the same embedding and
    separator. Returns the GroupBatch, which like assemble_batch's holds no
    group IDs."""
    ctx = np.asarray(context_values, dtype=np.float64)
    msk = np.asarray(context_mask, dtype=np.float64)
    ctx = ctx[:, -config.max_context :]
    msk = msk[:, -config.max_context :]
    S, Lc = ctx.shape
    Pl = config.patch_len
    F = -(-horizon_len // Pl)
    Lh = F * Pl
    known = np.zeros((S, Lh))
    if future_known_mask is not None:
        fm = np.asarray(future_known_mask, dtype=np.float64)
        known[:, : fm.shape[1]] = fm
    rel_full = P.make_rel_time(Lc, Lh)
    states, ctx_patches, fut_patches = [], [], []
    for s in range(S):
        scaled, state = P.robust_scale(ctx[s], msk[s])
        states.append(state)
        ctx_patches.append(P.patchify(scaled, rel_full[:Lc], msk[s], Pl))
        fvals = np.zeros(Lh)
        if future_values is not None and np.any(known[s] > 0):
            raw = np.zeros(Lh)
            fv = np.asarray(future_values[s], dtype=np.float64)
            raw[: fv.shape[0]] = fv
            fvals = np.where(known[s] > 0, P.apply_scaling(raw, known[s], state), 0.0)
        chans = np.stack([fvals, rel_full[Lc:], known[s]], axis=-1)
        fut_patches.append(chans.reshape(F, Pl, 3))
    dtype = weights["embed.w1"].dtype
    ctx_arr = np.stack(ctx_patches).reshape(S, -1, Pl * 3)
    fut_arr = np.stack(fut_patches).reshape(S, F, Pl * 3)
    ctx_tokens = M.embed_patches(T.constant(ctx_arr, dtype=dtype), weights)
    fut_tokens = M.embed_patches(T.constant(fut_arr, dtype=dtype), weights)
    tokens, reg_pos = M.insert_reg(ctx_tokens, fut_tokens, weights["reg"])
    return M.GroupBatch(
        tokens=tokens,
        reg_position=reg_pos,
        loc=np.array([st.loc for st in states]),
        scale=np.array([st.scale for st in states]),
        horizon_len=horizon_len,
    )


def scaled_targets_per_row(target_values, target_mask, scaling, n_positions):
    """train._scaled_targets with apply_scaling called once per row."""
    S, m = target_values.shape
    tv = np.zeros((S, n_positions))
    tm = np.zeros((S, n_positions))
    for s in range(S):
        tv[s, :m] = P.apply_scaling(target_values[s], np.ones(m), scaling[s])
        tm[s, :m] = target_mask[s]
    return tv, tm


def sample_task_per_draw(corpus, mix, rng, n_groups, ctx_len, horizon_len):
    """train.sample_task with one rng.uniform(1) call per draw: kind (a
    running-sum categorical over mix), pool index and window start (each
    floor(u * high), capped at high - 1), task by task. Returns a dict of
    the four TaskSample fields."""

    def draw_int(high):
        return min(int(math.floor(float(rng.uniform(1)[0]) * high)), high - 1)

    def draw_kind():
        u = float(rng.uniform(1)[0]) * float(sum(float(w) for w in mix))
        acc = 0.0
        for i, w in enumerate(mix):
            acc += float(w)
            if u < acc:
                return i
        return len(mix) - 1

    out = {k: [] for k in ("ctx", "fm", "tv")}
    gids = []
    need = ctx_len + horizon_len
    for g in range(n_groups):
        kind = draw_kind()
        if kind == 0 and not corpus.univariate:
            kind = 1
        if kind in (1, 2) and not corpus.panels:
            kind = 0
        pool = (corpus.univariate, corpus.panels, corpus.covariate_panels)[kind]
        series = np.atleast_2d(pool[draw_int(len(pool))])
        start = draw_int(series.shape[1] - need + 1)
        rows = series[:, start : start + need]
        K = rows.shape[0]
        fut = rows[:, ctx_len:]
        known = np.zeros((K, horizon_len))
        if kind == 2 and K > 1:
            known[1:, :] = 1.0
        out["ctx"].append(rows[:, :ctx_len])
        out["fm"].append(known)
        out["tv"].append(fut)
        gids.extend([g] * K)
    cat = {k: np.concatenate(v) for k, v in out.items()}
    return {
        "context_values": cat["ctx"],
        "group_ids": np.asarray(gids, dtype=np.int64),
        "target_values": cat["tv"],
        "future_known_mask": cat["fm"],
    }


def aggregate_mode_scan(records):
    """Per (panel, mode) mean/std of MAPE and RMSE (sample std, N-1)."""
    groups = {}
    for r in records:
        groups.setdefault((r.panel, r.mode), []).append(r)
    rows = []
    for (panel, mode) in sorted(groups, key=lambda k: (E.panel_sort_key(k[0]), k[1])):
        rs = groups[(panel, mode)]
        mp_mean, mp_std = E._mean_std([r.mape for r in rs])
        rm_mean, rm_std = E._mean_std([r.rmse for r in rs])
        rows.append(
            {"panel": panel, "mode": mode, "mape_mean": mp_mean, "mape_std": mp_std,
             "rmse_mean": rm_mean, "rmse_std": rm_std, "n_records": len(rs)}
        )
    return rows


def compare_series_scan(records):
    """Per-series MV vs UV table; improvements are UV mean minus MV mean."""
    groups = {}
    for r in records:
        groups.setdefault((r.panel, r.series), {}).setdefault(r.mode, []).append(r)
    rows = []
    for (panel, series) in sorted(groups, key=lambda k: (E.panel_sort_key(k[0]), k[1])):
        by_mode = groups[(panel, series)]
        if "MV" not in by_mode or "UV" not in by_mode:
            logging.getLogger(__name__).warning(
                "series %s/%s lacks one mode; omitted from comparison", panel, series
            )
            continue
        mape_mv = float(np.mean([r.mape for r in by_mode["MV"]]))
        mape_uv = float(np.mean([r.mape for r in by_mode["UV"]]))
        rmse_mv = float(np.mean([r.rmse for r in by_mode["MV"]]))
        rmse_uv = float(np.mean([r.rmse for r in by_mode["UV"]]))
        rows.append(
            {"panel": panel, "series": series,
             "mape_mv": mape_mv, "mape_uv": mape_uv,
             "rmse_mv": rmse_mv, "rmse_uv": rmse_uv,
             "mape_improvement": mape_uv - mape_mv,
             "rmse_improvement": rmse_uv - rmse_mv}
        )
    return rows


def emit_artifacts_scan(records, out_dir):
    """The artifact CSVs with one scan of the records per heatmap cell, per
    (month, panel, mode) and per regime side. Returns what
    evalharness.emit_artifacts returns."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = E._canonical_records(records)
    paths = {}

    rows1 = aggregate_mode_scan(records)
    paths["table1"] = out_dir / "table1.csv"
    E._write_csv(
        paths["table1"],
        ["panel", "mode", "mape_mean", "mape_std", "rmse_mean", "rmse_std", "n_records"],
        [[E._fmt(r[c]) for c in ("panel", "mode", "mape_mean", "mape_std", "rmse_mean", "rmse_std", "n_records")] for r in rows1],
    )

    rows2 = compare_series_scan(records)
    paths["table2"] = out_dir / "table2.csv"
    E._write_csv(
        paths["table2"],
        ["panel", "series", "mape_mv", "mape_uv", "rmse_mv", "rmse_uv", "mape_improvement", "rmse_improvement"],
        [[E._fmt(r[c]) for c in ("panel", "series", "mape_mv", "mape_uv", "rmse_mv", "rmse_uv", "mape_improvement", "rmse_improvement")] for r in rows2],
    )

    ns = sorted({r.n for r in records})
    ms = sorted({r.m for r in records})
    modes = [mo for mo in M.MODES if any(r.mode == mo for r in records)]
    header = ["n"] + [f"{mo}_m{m}" for mo in modes for m in ms]
    heat_rows = []
    for n in ns:
        row = [str(n)]
        for mo in modes:
            for m in ms:
                vals = [r.mape for r in records if r.n == n and r.m == m and r.mode == mo]
                row.append(E.FLOAT_FMT % float(np.mean(vals)) if vals else "")
        heat_rows.append(row)
    paths["heatmap"] = out_dir / "heatmap.csv"
    E._write_csv(paths["heatmap"], header, heat_rows)

    months = sorted({(r.origin.year, r.origin.month) for r in records})
    panels_present = sorted({r.panel for r in records}, key=E.panel_sort_key)
    ts_header = ["month"] + [f"{p}_{mo}" for p in panels_present for mo in modes]
    ts_rows = []
    for (y, mth) in months:
        row = [f"{y:04d}-{mth:02d}"]
        for p in panels_present:
            for mo in modes:
                vals = [
                    r.mape
                    for r in records
                    if r.panel == p and r.mode == mo and (r.origin.year, r.origin.month) == (y, mth)
                ]
                row.append(E.FLOAT_FMT % float(np.mean(vals)) if vals else "")
        ts_rows.append(row)
    paths["timeseries"] = out_dir / "timeseries.csv"
    E._write_csv(paths["timeseries"], ts_header, ts_rows)

    reg_rows = []
    for side in ("pre", "post"):
        side_records = [r for r in records if r.regime == side]
        for row in aggregate_mode_scan(side_records):
            reg_rows.append(
                [side, row["panel"], row["mode"], E._fmt(row["mape_mean"]), E._fmt(row["mape_std"]),
                 E._fmt(row["rmse_mean"]), E._fmt(row["rmse_std"]), str(row["n_records"])]
            )
    paths["regime"] = out_dir / "regime.csv"
    E._write_csv(
        paths["regime"],
        ["regime", "panel", "mode", "mape_mean", "mape_std", "rmse_mean", "rmse_std", "n_records"],
        reg_rows,
    )
    return paths, rows1, rows2
