"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The trained-model criteria share one session-scoped training run.
"""

import json
import time
from datetime import date
from pathlib import Path

import numpy as np

from groupcast import evalharness as E
from groupcast import model as M
from groupcast import preprocess as P
from groupcast import synthdata as S
from groupcast import tensor as T
from groupcast import train as TR
from groupcast.cli import main as cli_main
from groupcast.panels import RATE_IDS, STOCK_IDS, save_csv_panel
from groupcast.rng import PortableRng

from conftest import make_price_panel, make_rate_panel
from oracles import brute_force_metrics, finite_diff_grad, rel_err


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} ({name}): PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)

    # every differentiable op at 10 random points
    def check(build, params, tol=1e-5):
        for p in params:
            p.zero_grad()
        with T.record() as tape:
            loss = build()
        T.backward(loss, tape)
        worst = 0.0
        for p in params:
            fd = finite_diff_grad(lambda: float(build().data), p.data, h=1e-4)
            worst = max(worst, rel_err(p.grad, fd, floor=1e-6))
        assert worst <= tol, worst
        return worst

    worst_op = 0.0
    for _ in range(10):
        a = T.parameter(rng.normal(size=(3, 4)), dtype=np.float64)
        b = T.parameter(rng.normal(size=(4, 5)), dtype=np.float64)
        g = T.parameter(rng.normal(size=(5,)), dtype=np.float64)
        bias = T.parameter(rng.normal(size=(5,)), dtype=np.float64)
        probe = T.constant(rng.normal(size=(3, 5)), dtype=np.float64)

        def build():
            h = T.layer_norm(T.tanh(T.matmul(a, b)), g, bias)
            return T.sum_all(T.mul(T.softmax_rows(h), probe))

        worst_op = max(worst_op, check(build, [a, b, g, bias]))

    # full 2-block model: pinball loss vs finite differences at every parameter
    cfg = M.ModelConfig(
        d_model=8, n_blocks=2, n_heads=2, patch_len=2, max_context=16, horizon_patches=2
    )
    weights = M.init_weights(cfg, seed=31, dtype=np.float64)
    ctx = rng.normal(5.0, 2.0, size=(2, 8))
    mask = np.ones_like(ctx)
    gids = np.array([0, 0])
    horizon = 4
    target = rng.normal(5.0, 2.0, size=(2, horizon))

    def model_loss():
        batch = M.assemble_batch(ctx, mask, horizon, weights, cfg)
        pred = M.forward(batch, gids, weights, cfg)
        tv = np.zeros((2, pred.shape[1]))
        tm = np.zeros((2, pred.shape[1]))
        for s in range(2):
            tv[s, :horizon] = P.apply_scaling(target[s], np.ones(horizon), P.ScalingState(batch.loc[s], batch.scale[s]))
            tm[s, :horizon] = 1.0
        return TR.pinball_loss(pred, tv, tm, cfg.quantile_levels)

    with T.record() as tape:
        batch = M.assemble_batch(ctx, mask, horizon, weights, cfg)
        pred = M.forward(batch, gids, weights, cfg)
        tv = np.zeros((2, pred.shape[1]))
        tm = np.zeros((2, pred.shape[1]))
        for s in range(2):
            tv[s, :horizon] = P.apply_scaling(target[s], np.ones(horizon), P.ScalingState(batch.loc[s], batch.scale[s]))
            tm[s, :horizon] = 1.0
        loss = TR.pinball_loss(pred, tv, tm, cfg.quantile_levels)
    # quantile-loss kinks would poison finite differences; this seed keeps
    # every error cell well away from zero
    errs = np.abs(tv[:, :horizon][:, :, None] - pred.data[:, :horizon, :])
    assert errs.min() > 1e-2
    for t in weights.values():
        t.zero_grad()
    T.backward(loss, tape)

    n_params = 0
    worst_model = 0.0
    for name, t in weights.items():
        fd = finite_diff_grad(lambda: float(model_loss().data), t.data, h=1e-4)
        worst_model = max(worst_model, rel_err(t.grad, fd, floor=1e-6))
        n_params += t.data.size
    assert worst_model <= 1e-5, worst_model

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(
        1, "gradient suite",
        f"op sweep worst rel err {worst_op:.2e}; full 2-block model "
        f"({n_params} params) worst rel err {worst_model:.2e}; {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# 2. preprocessing roundtrip


def test_criterion_2_roundtrip():
    rng = PortableRng(202)
    worst = 0.0
    for i in range(1000):
        sub = rng.spawn(i)
        n = 4 + int(sub.integers(1, 80)[0])
        if i % 10 == 0:
            series = np.full(n, float(sub.normal(1)[0]) * 50)
        else:
            series = sub.normal(n) * float(10 ** (sub.uniform(1)[0] * 3)) + float(sub.normal(1)[0]) * 20
        mask = np.ones(n)
        if i % 2 == 1:
            mask[sub.uniform(n) < 0.5] = 0.0
            if mask.sum() == 0:
                mask[0] = 1.0
        scaled, state = P.robust_scale(series, mask)
        back = P.inverse_scale(scaled, state)
        obs = mask > 0
        scale_ref = max(1.0, float(np.abs(series[obs]).max()))
        worst = max(worst, float(np.abs(back[obs] - series[obs]).max()) / scale_ref)
    assert worst <= 1e-9
    _report(2, "preprocessing roundtrip", f"1000 series (constants, 50%-missing); worst {worst:.2e} <= 1e-9")


# ---------------------------------------------------------------------------
# 3. group semantics


def test_criterion_3_group_semantics():
    worst_iso = 0.0
    worst_perm = 0.0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        cfg = M.ModelConfig(
            d_model=8, n_blocks=2, n_heads=2, patch_len=4, max_context=64, horizon_patches=2
        )
        weights = M.init_weights(cfg, seed=trial, dtype=np.float64)
        S_count = int(rng.integers(4, 7))
        gids = rng.integers(0, 3, size=S_count)
        ctx = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4), size=(S_count, 16))
        mask = np.ones_like(ctx)

        out = M.forward(M.assemble_batch(ctx, mask, 4, weights, cfg), gids, weights, cfg).data
        # randomize every series of group A (the first group present)
        target_group = gids[0]
        others = gids != target_group
        ctx2 = ctx.copy()
        ctx2[~others] = rng.normal(20, 9, size=ctx[~others].shape)
        out2 = M.forward(M.assemble_batch(ctx2, mask, 4, weights, cfg), gids, weights, cfg).data
        if others.any():
            worst_iso = max(worst_iso, float(np.abs(out[others] - out2[others]).max()))

        # permute the rows of one multi-member group
        counts = {g: int((gids == g).sum()) for g in set(gids.tolist())}
        multi = [g for g, c in counts.items() if c >= 2]
        if multi:
            g = multi[0]
            rows = np.nonzero(gids == g)[0]
            perm_rows = np.roll(rows, 1)
            order = np.arange(S_count)
            order[rows] = perm_rows
            out_p = M.forward(
                M.assemble_batch(ctx[order], mask, 4, weights, cfg), gids[order], weights, cfg
            ).data
            worst_perm = max(worst_perm, float(np.abs(out_p - out[order]).max()))
    assert worst_iso <= 1e-6
    assert worst_perm <= 1e-6
    _report(
        3, "group semantics",
        f"100 batches: isolation worst {worst_iso:.2e}, permutation worst {worst_perm:.2e} (<= 1e-6)",
    )


# ---------------------------------------------------------------------------
# 4. rotary property


def test_criterion_4_rotary_shift_invariance():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(4000 + trial)
        cfg = M.ModelConfig(
            d_model=16, n_blocks=1, n_heads=2, patch_len=4, max_context=64, horizon_patches=2
        )
        weights = M.init_weights(cfg, seed=trial, dtype=np.float64)
        L = int(rng.integers(2, 12))
        x = T.constant(rng.normal(size=(2, L, 16)), dtype=np.float64)
        shift = int(rng.integers(1, 500))
        base = M.attention_logits(x, weights, "block0.time", 2, np.arange(L))
        moved = M.attention_logits(x, weights, "block0.time", 2, np.arange(L) + shift)
        worst = max(worst, float(np.abs(base - moved).max()))
    assert worst <= 1e-5
    _report(4, "rotary property", f"100 probes, shifts up to 500: worst logit drift {worst:.2e} <= 1e-5")


# ---------------------------------------------------------------------------
# 5. quantile monotonicity


def test_criterion_5_quantile_monotonicity(trained_desk):
    weights_t, cfg_t, _ = trained_desk
    checked = 0
    rng_root = PortableRng(505)
    for trial in range(40):
        rng = np.random.default_rng(trial)
        cfg = M.ModelConfig(
            d_model=16, n_blocks=1, n_heads=2, patch_len=4, max_context=64, horizon_patches=3
        )
        weights = M.init_weights(cfg, seed=trial)
        K = int(rng.integers(1, 5))
        ctx = rng.normal(rng.uniform(-10, 10), rng.uniform(0.1, 9), size=(K, 20))
        fc = M.predict(ctx, np.ones_like(ctx), "MV" if trial % 2 else "UV", 9, weights, cfg)
        assert np.all(np.diff(fc, axis=-1) >= 0)
        checked += 1
    for trial in range(10):
        panel, _ = S.make_cross_link_panel(rng_root.spawn(trial), 160)
        fc = M.predict(panel[:, :128], np.ones((3, 128)), "MV", 16, weights_t, cfg_t)
        assert np.all(np.diff(fc, axis=-1) >= 0)
        checked += 1
    _report(5, "quantile monotonicity", f"{checked} forecast grids, 100% non-decreasing across 21 levels")


# ---------------------------------------------------------------------------
# 6. MV beats UV on cross-linked panels; parity on independent noise


def test_criterion_6_mv_beats_uv(trained_desk):
    weights, cfg, _ = trained_desk
    ev = PortableRng(777)
    mv_c, uv_c, mv_i, uv_i = [], [], [], []
    for i in range(200):
        panel, _ = S.make_cross_link_panel(ev.spawn(i), 160, lag_choices=(8,), noise_scale=0.05)
        mv_c.append(TR.evaluate_pinball(weights, cfg, panel, "MV", 128, 8))
        uv_c.append(TR.evaluate_pinball(weights, cfg, panel, "UV", 128, 8))
        panel, _ = S.make_independent_panel(ev.spawn(10_000 + i), 160)
        mv_i.append(TR.evaluate_pinball(weights, cfg, panel, "MV", 128, 8))
        uv_i.append(TR.evaluate_pinball(weights, cfg, panel, "UV", 128, 8))
    cross_ratio = float(np.mean(mv_c) / np.mean(uv_c))
    indep_ratio = float(np.mean(mv_i) / np.mean(uv_i))
    assert cross_ratio <= 0.95, cross_ratio
    assert abs(indep_ratio - 1.0) <= 0.02, indep_ratio
    _report(
        6, "MV beats UV",
        f"200 cross-linked panels: MV/UV pinball ratio {cross_ratio:.4f} <= 0.95; "
        f"200 independent panels: ratio {indep_ratio:.4f} within ±2%",
    )


def test_trained_model_longer_horizons_are_harder(trained_desk):
    weights, cfg, _ = trained_desk
    ev = PortableRng(888)
    short, long_ = [], []
    for i in range(40):
        panel, _ = S.make_cross_link_panel(ev.spawn(i), 300, lag_choices=(8, 16), noise_scale=0.05)
        short.append(TR.evaluate_pinball(weights, cfg, panel, "UV", 128, 21))
        long_.append(TR.evaluate_pinball(weights, cfg, panel, "UV", 128, 63))
    assert np.mean(long_) >= np.mean(short)


# ---------------------------------------------------------------------------
# 7. harness oracle equivalence


def test_criterion_7_harness_oracle_equivalence():
    panel = make_price_panel(["s0", "s1", "s2"], date(2015, 1, 6), 200, seed=71)
    n, m = 30, 10
    spec = E.ExperimentSpec(panel="toy", mode="UV", n=n, m=m, start_years_after=0)

    records_pf, skips_pf, _ = E.run_grid(
        E.grid_plan([spec], {"toy": panel}), {"toy": panel}, E.PerfectForesightStub()
    )
    assert records_pf and not skips_pf
    assert all(r.rmse == 0.0 and r.mape == 0.0 for r in records_pf)

    records_lv, _, _ = E.run_grid(E.grid_plan([spec], {"toy": panel}), {"toy": panel}, E.LastValueStub())
    idx = panel.date_index()

    def stub_fn(ctx, cmask, m_):
        out = np.zeros((ctx.shape[0], m_))
        for k in range(ctx.shape[0]):
            out[k, :] = ctx[k, -1]
        return out

    origins_idx = sorted({idx[r.origin] for r in records_lv})
    ref = brute_force_metrics(panel.values, panel.mask, stub_fn, origins_idx, n, m)
    sid_to_k = {sid: k for k, sid in enumerate(panel.series_ids)}
    worst = 0.0
    for r in records_lv:
        ref_rmse, ref_mape, _ = ref[(idx[r.origin], sid_to_k[r.series])]
        worst = max(worst, abs(r.rmse - ref_rmse), abs(r.mape - ref_mape))
    assert worst <= 1e-12
    _report(
        7, "harness oracle equivalence",
        f"{len(records_lv)} last-value records match brute force within {worst:.1e}; "
        f"perfect foresight exactly 0",
    )


# ---------------------------------------------------------------------------
# 8. structural reproduction of the tables and figure feeds


def test_criterion_8_structural_reproduction(tmp_path):
    stocks = make_price_panel(STOCK_IDS, date(2019, 1, 1), 1680, seed=81)
    rates = make_rate_panel(RATE_IDS, date(2019, 1, 1), 1680, seed=82)
    sp = tmp_path / "stocks.csv"
    rp = tmp_path / "rates.csv"
    save_csv_panel(sp, stocks)
    save_csv_panel(rp, rates)

    cfg = M.ModelConfig(
        d_model=16, n_blocks=1, n_heads=2, patch_len=8, max_context=256, horizon_patches=8
    )
    from groupcast.checkpoint import save_checkpoint

    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, M.init_weights(cfg, seed=80), cfg)

    out = tmp_path / "eval"
    code = cli_main([
        "evaluate", "--stocks", str(sp), "--rates", str(rp),
        "--checkpoint", str(ckpt), "--out", str(out),
    ])
    assert code == 0

    records = E.read_records(out / "records.csv")
    assert records

    # Table 1 shape: per (panel, mode) aggregate rows for all three panels
    t1 = (out / "table1.csv").read_text().strip().split("\n")
    assert t1[0] == "panel,mode,mape_mean,mape_std,rmse_mean,rmse_std,n_records"
    t1_keys = {tuple(line.split(",")[:2]) for line in t1[1:]}
    assert t1_keys == {(p, mo) for p in ("stocks", "rates", "combined") for mo in ("MV", "UV")}

    # Table 2/3 shape: per-series rows with improvement columns, incl. combined
    t2 = (out / "table2.csv").read_text().strip().split("\n")
    assert t2[0] == "panel,series,mape_mv,mape_uv,rmse_mv,rmse_uv,mape_improvement,rmse_improvement"
    by_panel = {}
    for line in t2[1:]:
        by_panel.setdefault(line.split(",")[0], []).append(line)
    assert len(by_panel["stocks"]) == 7
    assert len(by_panel["rates"]) == 10
    assert len(by_panel["combined"]) == 17
    # improvements really are UV - MV
    for line in t2[1:]:
        cells = line.split(",")
        assert abs(float(cells[7]) - (float(cells[5]) - float(cells[4]))) <= 1e-12

    # Figure 1 heatmap: 4 rows (one per n), 4 value columns (2 modes x 2 m)
    heat = (out / "heatmap.csv").read_text().strip().split("\n")
    assert heat[0] == "n,MV_m21,MV_m63,UV_m21,UV_m63"
    assert len(heat) == 5
    assert [line.split(",")[0] for line in heat[1:]] == ["126", "252", "504", "756"]

    # Figure 2 monthly time series columns per panel x mode
    ts = (out / "timeseries.csv").read_text().strip().split("\n")
    assert ts[0] == "month,stocks_MV,stocks_UV,rates_MV,rates_UV,combined_MV,combined_UV"
    months = {f"{r.origin.year:04d}-{r.origin.month:02d}" for r in records}
    assert len(ts) - 1 == len(months)

    # Figure 3 regime split partitions the records
    reg = (out / "regime.csv").read_text().strip().split("\n")
    assert reg[0] == "regime,panel,mode,mape_mean,mape_std,rmse_mean,rmse_std,n_records"
    pre_n = sum(int(line.split(",")[-1]) for line in reg[1:] if line.startswith("pre,"))
    post_n = sum(int(line.split(",")[-1]) for line in reg[1:] if line.startswith("post,"))
    assert pre_n > 0 and post_n > 0
    assert pre_n + post_n == len(records)
    assert pre_n == sum(1 for r in records if r.origin < date(2023, 1, 1))

    _report(
        8, "structural reproduction",
        f"{len(records)} records -> table1 (6 rows), table2 ({len(t2) - 1} series rows incl. "
        f"combined), 4x(2x2) heatmap, {len(ts) - 1} monthly rows, regime split {pre_n}+{post_n}",
    )


# ---------------------------------------------------------------------------
# 9. end-to-end reproducibility


def _pipeline(base: Path, seed: int, workers: int) -> dict[str, bytes]:
    base.mkdir(parents=True, exist_ok=True)
    data = base / "data"
    run = base / "run"
    ev = base / "eval"
    rep = base / "report"
    synth_cfg = base / "synth.json"
    synth_cfg.write_text(json.dumps({
        "tsi": {"count": 3, "length": 96},
        "derived": {"count": 3, "length": 96, "lag_choices": [4]},
        "independent": {"count": 2, "length": 96},
    }))
    assert cli_main(["synth", "--config", str(synth_cfg), "--out", str(data), "--seed", str(seed)]) == 0

    stocks = make_price_panel(STOCK_IDS, date(2019, 1, 1), 380, seed=91)
    rates = make_rate_panel(RATE_IDS, date(2019, 1, 1), 380, seed=92)
    sp = base / "stocks.csv"
    rp = base / "rates.csv"
    save_csv_panel(sp, stocks)
    save_csv_panel(rp, rates)

    assert cli_main([
        "train", "--data", str(data), "--out", str(run), "--seed", str(seed),
        "--set", 'model={"d_model":8,"n_blocks":1,"n_heads":2,"patch_len":4,"max_context":64,"horizon_patches":2}',
        "--set", 'train={"stage_contexts":[16,32],"stage_steps":[6,4],"batch_groups":2,"learning_rate":0.001,"checkpoint_every":100}',
    ]) == 0
    assert cli_main([
        "evaluate", "--stocks", str(sp), "--rates", str(rp), "--out", str(ev),
        "--checkpoint", str(run / "model.ckpt"), "--n", "32", "--m", "6",
        "--seed", str(seed), "--workers", str(workers), "--set", "start_years_after=1",
    ]) == 0
    assert cli_main(["report", "--records", str(ev / "records.csv"), "--out", str(rep)]) == 0

    out: dict[str, bytes] = {}
    for sub in (data, ev, rep):
        for p in sorted(sub.rglob("*")):
            if p.is_file():
                out[f"{sub.name}/{p.relative_to(sub)}"] = p.read_bytes()
    out["run/model.ckpt"] = (run / "model.ckpt").read_bytes()
    return out


def test_criterion_9_reproducibility(tmp_path):
    a = _pipeline(tmp_path / "a", seed=5, workers=1)
    b = _pipeline(tmp_path / "b", seed=5, workers=2)
    assert a.keys() == b.keys()
    diff = [k for k in a if a[k] != b[k]]
    assert not diff, diff
    _report(
        9, "reproducibility",
        f"synth→train→evaluate→report twice (workers 1 vs 2): "
        f"{len(a)} artifact files byte-identical (training log excluded: wallclock column)",
    )
