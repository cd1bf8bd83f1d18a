"""Model mechanics: embedding, separator, both attentions, forward, predict."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from groupcast import model as M
from groupcast import preprocess as P
from groupcast import tensor as T
from groupcast.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from groupcast.errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DegenerateInputError,
    ShapeError,
)

from oracles import (
    assemble_batch_per_row,
    attention_op_chain,
    finish_unpruned,
    finite_diff_grad,
    group_attention_dense_masked,
    rel_err,
)

CFG = M.ModelConfig(d_model=16, n_blocks=2, n_heads=2, patch_len=4, max_context=64, horizon_patches=4)


def _weights(seed=3, dtype=np.float64, cfg=CFG):
    return M.init_weights(cfg, seed=seed, dtype=dtype)


def _random_forward(rng, weights, cfg=CFG, S=3, Lc=16, m=4, group_ids=None, ctx=None):
    """forward's scaled grid of a random (or the given) context under
    group_ids, MV by default."""
    if ctx is None:
        ctx = rng.normal(10, 3, size=(S, Lc))
    if group_ids is None:
        group_ids = M.mode_group_ids("MV", S)
    return M.forward(M.assemble_batch(ctx, np.ones_like(ctx), m, weights, cfg), group_ids, weights, cfg)


def test_config_invariants():
    with pytest.raises(ConfigError):
        M.ModelConfig(d_model=10, n_heads=4)
    with pytest.raises(ConfigError):
        M.ModelConfig(quantile_levels=tuple([0.5] * 21))
    with pytest.raises(ConfigError):
        M.ModelConfig(quantile_levels=(0.1, 0.5, 0.9))
    assert len(M.QUANTILE_LEVELS) == 21
    assert M.QUANTILE_LEVELS[0] == 0.01 and M.QUANTILE_LEVELS[-1] == 0.99
    assert M.QUANTILE_LEVELS[M.MEDIAN_INDEX] == 0.5


@pytest.mark.parametrize("kw", [{"n_heads": 2.0}, {"max_context": 512.0}, {"patch_len": True}],
                         ids=["n_heads-float", "max_context-float", "patch_len-bool"])
def test_model_config_rejects_a_field_of_the_wrong_kind(kw):
    with pytest.raises(ConfigError, match=f"{next(iter(kw))} must be int"):
        M.ModelConfig(**kw)


def test_embed_zero_patch_is_bias_pathway():
    w = _weights()
    zero = T.constant(np.zeros((1, 1, CFG.patch_len * 3)), dtype=np.float64)
    out = M.embed_patches(zero, w)
    expect = np.tanh(w["embed.b1"].data) @ w["embed.w2"].data + w["embed.b2"].data
    assert np.abs(out.data[0, 0] - expect).max() <= 1e-12


def test_embed_identical_patches_identical_embeddings():
    w = _weights()
    rng = np.random.default_rng(0)
    patch = rng.normal(size=CFG.patch_len * 3)
    x = T.constant(np.stack([patch, patch])[None], dtype=np.float64)
    out = M.embed_patches(x, w)
    assert np.array_equal(out.data[0, 0], out.data[0, 1])


def test_embed_width_mismatch():
    w = _weights()
    with pytest.raises(ShapeError):
        M.embed_patches(T.constant(np.zeros((1, 2, 5)), dtype=np.float64), w)


def test_embed_gradient_matches_finite_differences():
    w = _weights()
    rng = np.random.default_rng(1)
    x = T.constant(rng.normal(size=(2, 3, CFG.patch_len * 3)), dtype=np.float64)
    probe = T.constant(rng.normal(size=(2, 3, CFG.d_model)), dtype=np.float64)

    def build():
        return T.sum_all(T.mul(M.embed_patches(x, w), probe))

    for name in ("embed.w1", "embed.b1", "embed.w2", "embed.b2", "embed.skip"):
        w[name].zero_grad()
    with T.record() as tape:
        loss = build()
    T.backward(loss, tape)
    for name in ("embed.w1", "embed.b2", "embed.skip"):
        fd = finite_diff_grad(lambda: build().data, w[name].data)
        assert rel_err(w[name].grad, fd, floor=1e-6) <= 1e-5


def test_insert_reg_position_and_sharing():
    w = _weights()
    rng = np.random.default_rng(2)
    ctx = T.constant(rng.normal(size=(3, 4, CFG.d_model)), dtype=np.float64)
    fut = T.constant(rng.normal(size=(3, 2, CFG.d_model)), dtype=np.float64)
    tokens, pos = M.insert_reg(ctx, fut, w["reg"])
    assert tokens.shape == (3, 7, CFG.d_model)
    assert pos == 4
    for s in range(3):
        assert np.array_equal(tokens.data[s, 4], w["reg"].data)


def test_reg_ablation_changes_outputs():
    w = _weights()
    rng = np.random.default_rng(3)
    out1 = _random_forward(rng, w).data
    w2 = _weights()
    w2["reg"].data = np.zeros_like(w2["reg"].data)
    out2 = _random_forward(np.random.default_rng(3), w2).data
    assert np.abs(out1 - out2).max() > 0


def test_time_attention_single_token_hand_composition():
    w = _weights()
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 1, CFG.d_model))
    out = M.time_attention(T.constant(x, dtype=np.float64), w, "block0.time", CFG.n_heads)
    # attention over one position is the value path, then residual + norm
    v = x @ w["block0.time.wv"].data + w["block0.time.bv"].data
    o = v @ w["block0.time.wo"].data + w["block0.time.bo"].data
    pre = (x + o)[0, 0]
    mu, var = pre.mean(), pre.var()
    expect = (pre - mu) / np.sqrt(var + 1e-5)
    expect = expect * w["block0.time.ln_gain"].data + w["block0.time.ln_bias"].data
    assert np.abs(out.data[0, 0] - expect).max() <= 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B,L", [(1, 5), (3, 8)])
@pytest.mark.parametrize(
    "kind,rows_from",
    [("time", 0), ("time", 3), ("MV", 0), ("MV", 2), ("mixed", 0)],
)
def test_fused_attention_equals_op_chain_bitwise(kind, rows_from, B, L, dtype):
    rng = np.random.default_rng(21)
    D, H = CFG.d_model, CFG.n_heads
    weights = {
        f"a.{name}": T.parameter(rng.normal(size=(D, D) if name.startswith("w") else D) * 0.5, dtype=dtype)
        for name in M._ATTENTION_PARAMS
    }
    # group attention reads the series-major view of (S, L', D) tokens
    base = T.parameter(rng.normal(size=(B, L, D) if kind == "time" else (L, B, D)), dtype=dtype)
    probe = T.constant(rng.normal(size=(B, L - rows_from, D)), dtype=dtype)
    rope = M._rope_tables(L, D // H, dtype) if kind == "time" else None
    mask = M.group_mask_bias(np.arange(L) % 3 // 2, dtype) if kind == "mixed" else None
    leaves = [base] + list(weights.values())

    def attend(fn):
        x = base if kind == "time" else T.transpose(base, (1, 0, 2))
        return fn(x, weights, "a", H, rope=rope, mask_bias=mask, rows_from=rows_from)

    def run(fn):
        if rows_from:  # pruned rows are inference only: the forward, untaped
            return [attend(fn).data.copy()]
        for t in leaves:
            t.zero_grad()
        with T.record() as tape:
            out = attend(fn)
            loss = T.sum_all(T.mul(out, probe))
        T.backward(loss, tape)
        return [out.data.copy()] + [t.grad.copy() for t in leaves]

    fused = run(M._attention)
    chain = run(attention_op_chain)
    assert len(fused) == len(chain) == (1 if rows_from else 2 + len(M._ATTENTION_PARAMS))
    for name, a, b in zip(["out", "x"] + list(M._ATTENTION_PARAMS), fused, chain):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_pruned_attention_under_a_tape_raises():
    w = _weights()
    rng = np.random.default_rng(23)
    x = T.parameter(rng.normal(size=(2, 6, CFG.d_model)), dtype=np.float64)
    with T.record() as tape:
        with pytest.raises(ContractError, match="rows_from=2"):
            M.time_attention(x, w, "block0.time", CFG.n_heads, rows_from=2)
        assert M.time_attention(x, w, "block0.time", CFG.n_heads).shape == (2, 6, CFG.d_model)
    assert len(tape.entries) == 1
    assert M.time_attention(x, w, "block0.time", CFG.n_heads, rows_from=2).shape == (2, 4, CFG.d_model)


def test_fused_attention_is_one_tape_entry():
    w = _weights()
    rng = np.random.default_rng(22)
    x = T.parameter(rng.normal(size=(2, 6, CFG.d_model)), dtype=np.float64)
    with T.record() as tape:
        M.time_attention(x, w, "block0.time", CFG.n_heads)
    assert len(tape.entries) == 1


def test_rotary_logits_shift_invariant():
    w = _weights()
    rng = np.random.default_rng(5)
    x = T.constant(rng.normal(size=(2, 6, CFG.d_model)), dtype=np.float64)
    base = M.attention_logits(x, w, "block0.time", CFG.n_heads, np.arange(6))
    for shift in (1, 17, 300):
        shifted = M.attention_logits(x, w, "block0.time", CFG.n_heads, np.arange(6) + shift)
        assert np.abs(base - shifted).max() <= 1e-5


def test_rotary_equal_content_probe():
    w = _weights()
    rng = np.random.default_rng(6)
    q_tok = rng.normal(size=CFG.d_model)
    k_tok = rng.normal(size=CFG.d_model)
    content = np.zeros((1, 13, CFG.d_model))
    content[0, 3] = q_tok
    content[0, 5] = k_tok
    content[0, 10] = q_tok
    content[0, 12] = k_tok
    logits = M.attention_logits(
        T.constant(content, dtype=np.float64), w, "block0.time", CFG.n_heads, np.arange(13)
    )
    # same content at offset +2: logits (3 -> 5) equal logits (10 -> 12)
    assert np.abs(logits[0, :, 3, 5] - logits[0, :, 10, 12]).max() <= 1e-10


def test_group_attention_distinct_ids_is_self_attention():
    w = _weights()
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5, CFG.d_model))
    out = M.group_attention(
        T.constant(x, dtype=np.float64), np.array([0, 1, 2]), w, "block0.group", CFG.n_heads
    )
    # each series only sees itself: value path + residual + norm per token
    v = x @ w["block0.group.wv"].data + w["block0.group.bv"].data
    o = v @ w["block0.group.wo"].data + w["block0.group.bo"].data
    pre = x + o
    mu = pre.mean(axis=-1, keepdims=True)
    var = pre.var(axis=-1, keepdims=True)
    expect = (pre - mu) / np.sqrt(var + 1e-5)
    expect = expect * w["block0.group.ln_gain"].data + w["block0.group.ln_bias"].data
    assert np.abs(out.data - expect).max() <= 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reg_position", [None, 0, 2, 4])
@pytest.mark.parametrize(
    "gids", [[0, 1, 2, 3, 4, 5], [0, 0, 0, 0, 0, 0], [0, 0, 1, 2, 2, 2]], ids=["UV", "MV", "mixed"]
)
def test_group_attention_matches_dense_masked_oracle_bitwise(gids, reg_position, dtype):
    w = _weights(seed=12, dtype=dtype)
    rng = np.random.default_rng(12)
    x = T.parameter(rng.normal(size=(6, 5, CFG.d_model)), dtype=dtype)
    probe = T.constant(rng.normal(size=(6, 5, CFG.d_model)), dtype=dtype)
    group = sorted(k for k in w if k.startswith("block0.group."))

    def run(fn):
        for t in [x] + [w[k] for k in group]:
            t.zero_grad()
        with T.record() as tape:
            out = fn(x, np.array(gids), w, "block0.group", CFG.n_heads, reg_position)
            loss = T.sum_all(T.mul(out, probe))
        T.backward(loss, tape)
        return [out.data.copy(), x.grad.copy()] + [w[k].grad.copy() for k in group]

    got = run(M.group_attention)
    want = run(group_attention_dense_masked)
    for name, a, b in zip(["out", "x"] + group, got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_group_attention_reg_token_passthrough():
    w = _weights()
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 5, CFG.d_model))
    out = M.group_attention(
        T.constant(x, dtype=np.float64), np.zeros(3, dtype=int), w, "block0.group",
        CFG.n_heads, reg_position=2,
    )
    assert np.array_equal(out.data[:, 2, :], x[:, 2, :])
    assert np.abs(out.data[:, 0, :] - x[:, 0, :]).max() > 0


def test_cross_group_isolation_is_bitwise():
    w = _weights()
    rng = np.random.default_rng(9)
    gids = np.array([0, 0, 1, 1])
    ctx = rng.normal(5, 2, size=(4, 16))
    out1 = _random_forward(rng, w, S=4, group_ids=gids, ctx=ctx).data
    ctx2 = ctx.copy()
    ctx2[2:] = rng.normal(50, 9, size=(2, 16))  # rewrite group 1 entirely
    out2 = _random_forward(rng, w, S=4, group_ids=gids, ctx=ctx2).data
    assert np.array_equal(out1[:2], out2[:2])


def test_within_group_permutation_equivariance():
    w = _weights()
    rng = np.random.default_rng(10)
    ctx = rng.normal(0, 1, size=(4, 16))
    gids = np.zeros(4, dtype=int)
    out = _random_forward(rng, w, S=4, group_ids=gids, ctx=ctx).data
    perm = np.array([2, 0, 3, 1])
    out_p = _random_forward(rng, w, S=4, group_ids=gids, ctx=ctx[perm]).data
    assert np.abs(out_p - out[perm]).max() <= 1e-6


def test_forward_shape_and_determinism():
    w = _weights()
    rng = np.random.default_rng(11)
    out = _random_forward(rng, w, S=3, m=7)
    assert out.shape == (3, 2 * CFG.patch_len, 21)  # ceil(7/4)=2 future patches
    assert np.array_equal(out.data, _random_forward(np.random.default_rng(11), w, S=3, m=7).data)


def test_forward_zero_blocks_is_embed_then_head():
    cfg0 = M.ModelConfig(
        d_model=16, n_blocks=0, n_heads=2, patch_len=4, max_context=64, horizon_patches=4
    )
    w = M.init_weights(cfg0, seed=5, dtype=np.float64)
    rng = np.random.default_rng(12)
    ctx = rng.normal(size=(2, 8))
    batch = M.assemble_batch(ctx, np.ones_like(ctx), 4, w, cfg0)
    out = M.forward(batch, M.mode_group_ids("UV", 2), w, cfg0).data
    # hand-composed pipeline: take the future token embeddings through the head
    fut_tokens = batch.tokens.data[:, batch.reg_position + 1 :, :]
    expect = fut_tokens @ w["head.w"].data + w["head.b"].data
    expect = expect.reshape(2, 4, 21)
    assert np.abs(out - expect).max() <= 1e-12


def test_predict_uv_invariant_to_other_series():
    w = _weights()
    rng = np.random.default_rng(13)
    ctx = rng.normal(10, 2, size=(3, 20))
    mask = np.ones_like(ctx)
    a = M.predict(ctx, mask, "UV", 5, w, CFG)
    ctx2 = ctx.copy()
    ctx2[1:] = rng.normal(99, 30, size=(2, 20))
    b = M.predict(ctx2, mask, "UV", 5, w, CFG)
    assert np.array_equal(a[0], b[0])


def test_predict_monotone_and_median_between_extremes():
    w = _weights()
    rng = np.random.default_rng(14)
    ctx = rng.normal(25, 4, size=(2, 18))
    fc = M.predict(ctx, np.ones_like(ctx), "MV", 6, w, CFG)
    assert np.all(np.diff(fc, axis=-1) >= 0)
    med = fc[:, :, M.MEDIAN_INDEX]
    assert np.all(med >= fc[:, :, 0]) and np.all(med <= fc[:, :, -1])


def test_predict_rejects_over_capacity_horizon():
    w = _weights()
    with pytest.raises(ConfigError):
        M.predict(np.ones((1, 8)), np.ones((1, 8)), "UV", CFG.horizon_capacity + 1, w, CFG)
    with pytest.raises(ConfigError):
        M.predict(np.ones((1, 8)), np.ones((1, 8)), "sideways", 4, w, CFG)


def test_context_truncation_from_left(caplog):
    w = _weights()
    rng = np.random.default_rng(15)
    long_ctx = rng.normal(10, 2, size=(2, CFG.max_context + 24))
    with caplog.at_level("WARNING", logger="groupcast.model"):
        a = M.predict(long_ctx, np.ones_like(long_ctx), "MV", 4, w, CFG)
    b = M.predict(
        long_ctx[:, -CFG.max_context :],
        np.ones((2, CFG.max_context)),
        "MV", 4, w, CFG,
    )
    assert np.array_equal(a, b)


def test_inverse_of_zero_grid_is_loc():
    state = P.ScalingState(loc=12.5, scale=3.0)
    grid = np.zeros((4, 21))
    assert np.all(P.inverse_scale(grid, state) == 12.5)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = CFG
    w = M.init_weights(cfg, seed=20, dtype=np.float32)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, w, cfg, extra={"step": 17})
    w2, cfg2, extra, _ = load_checkpoint(p1)
    assert extra["step"] == 17
    assert cfg2 == cfg
    for k in w:
        assert np.array_equal(w[k].data, w2[k].data)
    save_checkpoint(p2, w2, cfg2, extra=extra)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    from groupcast import panels as PN  # save_checkpoint opens through PN.atomic_open

    w = M.init_weights(CFG, seed=20, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, w, CFG, extra={"step": 1})
    before = path.read_bytes()

    class TornFile:
        """Writes half of what it is given, then fails like a full disk."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(bytes(data[: len(data) // 2]))
            raise OSError("no space left on device")

    monkeypatch.setattr(PN, "open", lambda p, mode, **kw: TornFile(open(p, mode, **kw)), raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, M.init_weights(CFG, seed=21), CFG, extra={"step": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    w2, _, extra, _ = load_checkpoint(path)
    assert extra["step"] == 1
    for k in w:
        assert np.array_equal(w[k].data, w2[k].data)


def _flip_first_header_byte(buf: bytes) -> bytes:
    at = len(MAGIC) + 8  # after the version and the header length
    return buf[:at] + bytes([buf[at] ^ 1]) + buf[at + 1 :]


def _edit_header(edit):
    """A corruption that rewrites the JSON header through edit(header),
    with its length prefix."""
    def corrupt(buf: bytes) -> bytes:
        at = len(MAGIC) + 4  # the header length
        (n,) = struct.unpack("<I", buf[at : at + 4])
        header = json.loads(buf[at + 4 : at + 4 + n])
        edit(header)
        blob = json.dumps(header, sort_keys=True).encode()
        return buf[:at] + struct.pack("<I", len(blob)) + blob + buf[at + 4 + n :]
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _flip_first_header_byte,
    lambda buf: buf.replace(b'"model":', b'"modex":', 1),
    lambda buf: buf.replace(b'"d_model":', b'"d_modex":', 1),
    _edit_header(lambda h: h["model"].update(n_heads=2.0)),
    _edit_header(lambda h: h["model"].update(patch_len=8)),  # weights built for 4
    _edit_header(lambda h: h.update(extra=5)),
    _edit_header(lambda h: h["extra"].update(step="x")),
    _edit_header(lambda h: h["extra"].update(step=-1)),
], ids=["not-json", "no-model", "renamed-key", "header-kind", "weights-misfit", "extra-not-object",
        "step-not-int", "step-negative"])
def test_checkpoint_corrupt_header_raises_checkpoint_error(tmp_path, corrupt):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, M.init_weights(CFG, seed=20), CFG, extra={"step": 1})
    buf = path.read_bytes()
    path.write_bytes(corrupt(buf))
    assert path.read_bytes() != buf
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(path)


@pytest.mark.parametrize("corrupt, message", [
    (lambda buf: buf[: len(MAGIC)] + struct.pack("<I", 2) + buf[len(MAGIC) + 4 :], "unsupported checkpoint version 2"),
    (lambda buf: buf + b"\0", "trailing bytes in checkpoint"),
], ids=["version-2", "trailing-byte"])
def test_checkpoint_bad_framing_raises_checkpoint_error(tmp_path, corrupt, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, M.init_weights(CFG, seed=20), CFG, extra={"step": 1})
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("moments, corrupt", [
    ({}, lambda buf: buf.replace(b"embed.b1", b"\xffmbed.b1", 1)),
    ({"m.head.b": np.zeros(3)}, lambda buf: buf),
    ({"x.head.b": np.zeros(4 * 21)}, lambda buf: buf),
], ids=["name-not-utf8", "moment-shape", "moment-role"])
def test_checkpoint_record_that_fits_no_weight_raises_checkpoint_error(tmp_path, moments, corrupt):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, M.init_weights(CFG, seed=20), CFG, moments=moments)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(CheckpointError, match="fit"):
        load_checkpoint(path)


def test_scaling_never_uses_horizon_values():
    w = _weights()
    rng = np.random.default_rng(16)
    full = rng.normal(10, 2, size=(2, 30))
    ctx = full[:, :20]
    b1 = M.assemble_batch(ctx, np.ones_like(ctx), 8, w, CFG)
    full2 = full.copy()
    full2[:, 20:] += 1e6  # future perturbation must be invisible
    b2 = M.assemble_batch(full2[:, :20], np.ones((2, 20)), 8, w, CFG)
    assert b1.loc.tolist() == b2.loc.tolist() and b1.scale.tolist() == b2.scale.tolist()


def test_group_batch_w_zeros_where_unknown(monkeypatch):
    w = _weights()
    rng = np.random.default_rng(17)
    ctx = rng.normal(5, 1, size=(2, 16))
    fut = rng.normal(5, 1, size=(2, 4))
    known = np.zeros((2, 4))
    known[1, :] = 1.0
    embedded = []
    embed = M.embed_patches

    def capture(patches, weights):
        embedded.append(patches.data.copy())
        return embed(patches, weights)

    monkeypatch.setattr(M, "embed_patches", capture)
    batch = M.assemble_batch(
        ctx, np.ones_like(ctx), 4, w, CFG,
        future_values=fut, future_known_mask=known,
    )
    _ctx_patches, fut_patches = embedded
    chans = fut_patches.reshape(2, -1, M.N_CHANNELS)  # (S, F*P, [value, rel_time, mask])
    assert np.all(chans[0, :, 0] == 0.0)
    expect = P.apply_scaling(fut[1], known[1], P.ScalingState(batch.loc[1], batch.scale[1]))
    assert np.all(expect != 0.0)
    assert np.array_equal(chans[1, :4, 0], expect)
    assert np.array_equal(chans[:, :4, 2], known)


PRUNE_CFG = M.ModelConfig(d_model=16, n_blocks=2, n_heads=2, patch_len=8, max_context=64, horizon_patches=8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_blocks", [0, 1, 2])
def test_finish_prunes_last_block_bitwise(n_blocks, dtype):
    # horizons of one future patch (1, 8) are where the pruned block keeps
    # the separator row so that two query rows remain
    cfg = replace(PRUNE_CFG, n_blocks=n_blocks)
    w = M.init_weights(cfg, seed=30 + n_blocks, dtype=dtype)
    rng = np.random.default_rng(n_blocks)
    horizons = (1, 8, 9, 21, 63, cfg.horizon_capacity)
    for S in (1, 7, 17):
        for m in horizons:
            for gaps in (False, True):
                ctx = rng.normal(20, 4, size=(S, 45))
                mask = np.ones_like(ctx)
                if gaps:
                    mask[rng.random(mask.shape) < 0.2] = 0.0
                    mask[:, -1] = 1.0
                ctx = ctx * mask
                batch = M.trunk(ctx, mask, m, w, cfg)
                for mode in ("MV", "UV"):
                    gids = M.mode_group_ids(mode, S)
                    got = M.finish(batch, gids, w, cfg)
                    expect = finish_unpruned(batch, gids, w, cfg)
                    assert got.tobytes() == expect.tobytes(), (S, m, gaps, mode)


def test_finish_inverse_scaling_matches_per_row_inverse_scale(monkeypatch):
    rng = np.random.default_rng(24)
    for _ in range(200):
        S, m = int(rng.integers(1, 20)), int(rng.integers(1, 65))
        raw = rng.normal(0, 3, size=(S, m + int(rng.integers(0, 8)), 21))
        states = [
            P.ScalingState(loc=float(rng.normal(0, 1e3)), scale=float(rng.lognormal(0, 4)))
            for _ in range(S)
        ]
        monkeypatch.setattr(M, "forward", lambda *args, **kwargs: T.constant(raw))
        loc, scale = np.array([st.loc for st in states]), np.array([st.scale for st in states])
        batch = M.GroupBatch(tokens=None, reg_position=0, loc=loc, scale=scale, horizon_len=m)
        got = M.finish(batch, M.mode_group_ids("UV", S), {}, CFG)
        grid = np.sort(raw[:, :m], axis=-1)
        expect = np.stack([P.inverse_scale(grid[s], st) for s, st in enumerate(states)])
        assert got.tobytes() == expect.tobytes()


def _oracle_case(rng, trial):
    """A random batch for the per-row oracle; trial picks which features
    it has, so every feature is covered by a fixed share of the trials."""
    P_len = int(rng.integers(1, 9))
    cfg = M.ModelConfig(
        d_model=8, n_blocks=1, n_heads=2, patch_len=P_len,
        max_context=int(rng.integers(8, 72)), horizon_patches=int(rng.integers(1, 5)),
    )
    S = 1 if trial % 5 == 0 else int(rng.integers(2, 12))
    Lc = int(rng.integers(2, cfg.max_context + 1))
    if trial % 6 == 2:  # one position: pad rel_time steps by 1, not by the future's step
        Lc = 1
    if trial % 4 == 1:  # longer than max_context: truncated from the left
        Lc = cfg.max_context + int(rng.integers(1, 40))
    m = int(rng.integers(1, cfg.horizon_capacity + 1))
    # a window of a wider panel, as the harness slices them: rows not contiguous
    wide = rng.normal(rng.uniform(-100, 100), rng.lognormal(0, 2), size=(S, Lc + 5))
    ctx = wide[:, 2 : 2 + Lc]
    mask = np.ones((S, Lc))
    if trial % 3 == 0:
        mask[rng.random(mask.shape) < 0.3] = 0.0
        mask[:, -1] = 1.0
        ctx = ctx * mask
    if trial % 7 == 0:
        ctx[0] = 5.0  # constant row: scale takes the floor
    future = {}
    if trial % 2 == 1:  # covariate rows with partly known futures
        known = (rng.random((S, m)) < 0.5).astype(float)
        known[0] = 0.0
        future = dict(future_values=rng.normal(0, 50, size=(S, m)), future_known_mask=known)
    return cfg, ctx, mask, m, future


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_assemble_batch_matches_per_row_oracle(monkeypatch, dtype):
    embedded = []
    embed = M.embed_patches

    def capture(patches, weights):
        embedded.append(patches.data.copy())
        return embed(patches, weights)

    monkeypatch.setattr(M, "embed_patches", capture)
    rng = np.random.default_rng(41)
    padded = 0
    for trial in range(120):
        cfg, ctx, mask, m, future = _oracle_case(rng, trial)
        w = M.init_weights(cfg, seed=trial, dtype=dtype)
        got = M.assemble_batch(ctx, mask, m, w, cfg, **future)
        got_patches, embedded[:] = embedded[:], []
        expect = assemble_batch_per_row(ctx, mask, m, w, cfg, **future)
        expect_patches, embedded[:] = embedded[:], []
        case = (trial, ctx.shape, cfg.patch_len, cfg.max_context, m)
        assert got.tokens.data.dtype == dtype
        assert got.tokens.data.tobytes() == expect.tokens.data.tobytes(), case
        assert got.loc.tolist() == expect.loc.tolist() and got.scale.tolist() == expect.scale.tolist(), case
        assert got.reg_position == expect.reg_position and got.horizon_len == m
        assert [p.tobytes() for p in got_patches] == [p.tobytes() for p in expect_patches], case
        padded += min(ctx.shape[1], cfg.max_context) % cfg.patch_len != 0
    assert padded >= 40  # context lengths off the patch grid are well covered


def test_assemble_batch_all_missing_row_still_raises():
    w = _weights()
    rng = np.random.default_rng(42)
    ctx = rng.normal(10, 3, size=(3, 16))
    mask = np.ones_like(ctx)
    mask[1] = 0.0
    with pytest.raises(DegenerateInputError):
        M.assemble_batch(ctx * mask, mask, 4, w, CFG)
