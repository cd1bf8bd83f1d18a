"""Loss, task sampling, optimizer steps, and the two-stage curriculum."""


from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from groupcast import model as M
from groupcast import preprocess as P
from groupcast import tensor as T
from groupcast import train as TR
from groupcast.checkpoint import load_checkpoint
from groupcast.errors import ConfigError, ContractError, DegenerateInputError, TrainingAbort
from groupcast.rng import PortableRng

from conftest import DESK_TRAIN_CONFIG, build_training_corpus, crash_in_child, tree_bytes
from oracles import (
    adam_per_parameter,
    backward_two_phase,
    group_attention_dense_masked,
    sample_task_per_draw,
    scaled_targets_per_row,
)

CFG = M.ModelConfig(d_model=16, n_blocks=1, n_heads=2, patch_len=4, max_context=64, horizon_patches=2)


@pytest.fixture(scope="module")
def corpus():
    return build_training_corpus(seed=555)


def _loss(pred, target, mask, levels=(0.5,)):
    return float(TR.pinball_loss(T.constant(pred, dtype=np.float64), target, mask, levels).data)


def test_pinball_zero_on_perfect_prediction():
    pred = np.full((2, 3, 1), 1.5)
    target = np.full((2, 3), 1.5)
    assert _loss(pred, target, np.ones((2, 3))) == 0.0


def test_pinball_median_is_half_absolute_error():
    assert abs(_loss(np.zeros((1, 1, 1)), np.array([[2.0]]), np.ones((1, 1))) - 1.0) <= 1e-15


def test_pinball_asymmetric_levels():
    val_neg = _loss(np.array([[[1.0]]]), np.array([[0.0]]), np.ones((1, 1)), levels=(0.9,))
    val_pos = _loss(np.array([[[0.0]]]), np.array([[1.0]]), np.ones((1, 1)), levels=(0.9,))
    assert abs(val_neg - 0.1) <= 1e-12
    assert abs(val_pos - 0.9) <= 1e-12


def test_pinball_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(2, 4, 3))
    target = rng.normal(size=(2, 4))
    levels = (0.1, 0.5, 0.9)
    v = _loss(pred, target, np.ones((2, 4)), levels)
    assert v > 0
    exact = np.repeat(target[:, :, None], 3, axis=2)
    assert _loss(exact, target, np.ones((2, 4)), levels) == 0.0


def test_pinball_masking_is_exact():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(2, 4, 3))
    target = rng.normal(size=(2, 4))
    mask = np.ones((2, 4))
    mask[0, 1] = 0.0
    mask[1, 3] = 0.0
    base = _loss(pred, target, mask, (0.1, 0.5, 0.9))
    target2 = target.copy()
    target2[0, 1] = 1e9
    target2[1, 3] = -77.0
    assert _loss(pred, target2, mask, (0.1, 0.5, 0.9)) == base


def test_pinball_all_masked_is_degenerate():
    with pytest.raises(DegenerateInputError):
        _loss(np.zeros((1, 2, 1)), np.zeros((1, 2)), np.zeros((1, 2)))


def test_pinball_gradient_matches_finite_differences():
    from oracles import finite_diff_grad, rel_err

    rng = np.random.default_rng(2)
    pred = T.parameter(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    target = rng.normal(size=(2, 3)) + 3.0  # keep errors away from the kink
    mask = np.ones((2, 3))
    levels = (0.05, 0.3, 0.7, 0.95)

    def build():
        return TR.pinball_loss(pred, target, mask, levels)

    with T.record() as tape:
        loss = build()
    T.backward(loss, tape)
    fd = finite_diff_grad(lambda: float(build().data), pred.data)
    assert rel_err(pred.grad, fd, floor=1e-7) <= 1e-6


def test_task_mix_validation():
    with pytest.raises(ConfigError):
        TR.TrainConfig(task_mix=(0.5, 0.2, 0.2))
    with pytest.raises(ConfigError):
        TR.TrainConfig(task_mix=(1.2, -0.2, 0.0))


@pytest.mark.parametrize("kw", [
    {"batch_groups": True}, {"seed": 1.5}, {"learning_rate": "0.1"}, {"cosine_decay": 1},
    {"stage_steps": [5, 5]}, {"max_horizon_patches": 2.0}, {"stage_contexts": (16.5, 32)},
    {"stage_steps": (5, True)}, {"task_mix": (0.5, 0.5)}, {"task_mix": (0.5, "0.3", 0.2)},
], ids=["batch_groups-bool", "seed-float", "learning_rate-str", "cosine_decay-int", "stage_steps-list",
        "max_horizon_patches-float", "stage_contexts-float-element", "stage_steps-bool-element",
        "task_mix-two-ratios", "task_mix-str-element"])
def test_train_config_rejects_a_field_of_the_wrong_kind(kw):
    with pytest.raises(ConfigError, match=f"{next(iter(kw))} must be "):
        TR.TrainConfig(**kw)


def test_train_config_takes_any_number_of_stages():
    tc = TR.TrainConfig(stage_contexts=(16, 32, 64), stage_steps=(1, 2, 3))
    assert TR.TrainConfig.from_dict(tc.to_dict()) == tc


@pytest.mark.parametrize("value", [0, -3])
def test_train_config_needs_a_context_patch(value):
    with pytest.raises(ConfigError, match="min_context_patches must be >= 1"):
        TR.TrainConfig(min_context_patches=value)


def test_sample_task_uv_all_distinct_groups(corpus):
    for i in range(100):
        s = TR.sample_task(corpus, (1, 0, 0), PortableRng(1).spawn(i), 4, 16, 4)
        assert len(set(s.group_ids.tolist())) == s.group_ids.shape[0]
        assert np.all(s.future_known_mask == 0)


def test_sample_task_mv_one_group_per_panel(corpus):
    for i in range(100):
        s = TR.sample_task(corpus, (0, 1, 0), PortableRng(2).spawn(i), 3, 16, 4)
        ids, counts = np.unique(s.group_ids, return_counts=True)
        assert len(ids) == 3
        assert np.all(counts >= 2)  # panels are multivariate


def test_sample_task_covariate_w_cells(corpus):
    windows = [np.lib.stride_tricks.sliding_window_view(p, 20, axis=1) for p in corpus.covariate_panels]
    for i in range(100):
        s = TR.sample_task(corpus, (0, 0, 1), PortableRng(3).spawn(i), 3, 16, 4)
        assert s.target_values.shape == s.future_known_mask.shape == (s.group_ids.size, 4)
        for g in np.unique(s.group_ids):
            rows = np.nonzero(s.group_ids == g)[0]
            assert np.all(s.future_known_mask[rows[0]] == 0)  # the target row: every cell in the loss
            assert np.all(s.future_known_mask[rows[1:]] == 1)  # covariate rows: every cell a known input
            # each row's target_values is the future of the group's one drawn window
            drawn = np.hstack([s.context_values[rows], s.target_values[rows]])
            assert any(
                (w == drawn[:, None, :]).all(axis=(0, 2)).any() for w in windows if w.shape[0] == rows.size
            ), (i, g)


TASK_FIELDS = ("context_values", "group_ids", "target_values", "future_known_mask")


def test_sample_task_matches_per_draw_oracle(corpus):
    rng = np.random.default_rng(8)
    uni = [rng.normal(size=int(rng.integers(30, 60))) for _ in range(5)]
    panels = [rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(30, 60)))) for _ in range(4)]
    corpora = [
        corpus,
        TR.Corpus(univariate=uni, panels=panels),
        TR.Corpus(univariate=[], panels=panels),  # UV draws fall back to MV
        TR.Corpus(univariate=uni, panels=[]),  # MV and covariate draws fall back to UV
    ]
    mixes = [(0.4, 0.4, 0.2), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0.35, 0.5, 0.15), (0.1, 0.2, 0.7)]
    for ci, c in enumerate(corpora):
        for mix in mixes:
            for seed in range(25):
                n_groups = 1 + seed % 9
                got_rng, ref_rng = PortableRng(seed).spawn(ci), PortableRng(seed).spawn(ci)
                got_rng.uniform(seed % 3)
                ref_rng.uniform(seed % 3)
                got = TR.sample_task(c, mix, got_rng, n_groups, 20, 8)
                expect = sample_task_per_draw(c, mix, ref_rng, n_groups, 20, 8)
                case = (ci, mix, seed)
                assert got_rng.counter == ref_rng.counter == seed % 3 + 3 * n_groups, case
                assert got.target_values.shape[1] == 8
                for name in TASK_FIELDS:
                    a, b = getattr(got, name), expect[name]
                    assert a.dtype == b.dtype and a.shape == b.shape, (case, name)
                    assert a.tobytes() == b.tobytes(), (case, name)


def test_sample_task_empty_covariate_pool_raises_config_error():
    rng = np.random.default_rng(9)
    c = TR.Corpus(
        univariate=[rng.normal(size=40)], panels=[rng.normal(size=(3, 40))], covariate_panels=[]
    )
    with pytest.raises(ConfigError, match="covariate"):
        TR.sample_task(c, (0, 0, 1), PortableRng(0), 2, 16, 4)
    s = TR.sample_task(c, (0.5, 0.5, 0), PortableRng(0), 4, 16, 4)  # no covariate draw: fine
    assert s.context_values.shape[1] == 16


def test_sample_task_short_series_raises_config_error():
    c = TR.Corpus(univariate=[np.arange(10.0)])
    with pytest.raises(ConfigError, match="too short"):
        TR.sample_task(c, (1, 0, 0), PortableRng(0), 2, 16, 4)


def test_scaled_targets_match_per_row_oracle():
    rng = np.random.default_rng(10)
    for _ in range(100):
        S, m = int(rng.integers(1, 20)), int(rng.integers(1, 40))
        n_positions = m + int(rng.integers(0, 8))
        target = rng.normal(rng.uniform(-50, 50), rng.lognormal(0, 2), size=(S, m))
        tmask = (rng.random((S, m)) < 0.7).astype(float)
        states = [
            P.ScalingState(loc=float(rng.normal(0, 1e3)), scale=float(rng.lognormal(0, 4)))
            for _ in range(S)
        ]
        loc, scale = np.array([st.loc for st in states]), np.array([st.scale for st in states])
        got = TR._scaled_targets(target, tmask, loc, scale, n_positions)
        expect = scaled_targets_per_row(target, tmask, states, n_positions)
        for a, b in zip(got, expect):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mix", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], ids=["UV", "MV", "covariate"])
def test_loss_and_grads_equal_the_spelled_out_batch_bitwise(corpus, mix):
    """_loss derives the context mask, the horizon, the target mask and the
    known-future values from the four TaskSample fields. Its loss and every
    leaf gradient have the bytes of the batch built with them spelled out:
    future values zero but on known cells, a ones context mask, the horizon
    given, and 1 - known as the target mask."""

    def loss_and_grads(loss_of):
        weights = M.init_weights(CFG, seed=6)
        with T.record() as tape:
            loss = loss_of(weights)
        T.backward(loss, tape)
        return loss.data.tobytes(), {k: t.grad.tobytes() for k, t in weights.items()}

    for i in range(4):
        s = TR.sample_task(corpus, mix, PortableRng(6).spawn(i), 3, 16, 4)
        known = s.future_known_mask
        assert known.any() == (mix == (0, 0, 1))
        covariate = known[:, 0] > 0
        future_values = np.zeros_like(known)
        future_values[covariate] = s.target_values[covariate]

        def spelled_out(weights):
            batch = M.assemble_batch(
                s.context_values, np.ones_like(s.context_values), s.group_ids, 4, weights, CFG,
                future_values=future_values, future_known_mask=known,
            )
            pred = M.forward(batch, weights, CFG)
            tv, tm = TR._scaled_targets(s.target_values, 1 - known, batch.loc, batch.scale, pred.shape[1])
            return TR.pinball_loss(pred, tv, tm, CFG.quantile_levels)

        got = loss_and_grads(lambda weights: TR._loss(weights, CFG, s))
        assert got == loss_and_grads(spelled_out), (mix, i)


def test_adam_zero_gradient_leaves_weights(corpus):
    w = M.init_weights(CFG, seed=1)
    state = TR.TrainState.fresh(w)
    state.step = 1
    before = {k: t.data.copy() for k, t in w.items()}
    for t in w.values():
        t.zero_grad()
    TR.adam_update(state, TR.TrainConfig(), lr=0.1)
    for k in w:
        assert np.array_equal(before[k], w[k].data)


def test_flat_adam_matches_per_parameter_oracle_bitwise(corpus):
    tc = TR.TrainConfig(learning_rate=3e-3, seed=4)
    state = TR.TrainState.fresh(M.init_weights(CFG, seed=4))
    params = {k: t.data.copy() for k, t in state.weights.items()}
    m = {k: np.zeros_like(a) for k, a in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}
    for step in range(6):
        sample = TR.sample_task(corpus, tc.task_mix, PortableRng(4).spawn(step), 3, 16, 4)
        TR.train_step(state, sample, CFG, tc)
        grads = {k: t.grad.copy() for k, t in state.weights.items()}
        params, m, v = adam_per_parameter(
            params, grads, m, v, state.step, tc.learning_rate, tc.beta1, tc.beta2, tc.eps
        )
        for k, t in state.weights.items():
            assert t.data.tobytes() == params[k].tobytes(), (step, k)
            assert state.moments[f"m.{k}"].tobytes() == m[k].tobytes(), (step, k)
            assert state.moments[f"v.{k}"].tobytes() == v[k].tobytes(), (step, k)
            assert np.shares_memory(t.data, state.flat["data"]), k


def test_sweep_into_leaves_matches_two_phase_oracle_bitwise(corpus, monkeypatch):
    """The tape of one desk-config train_step, swept by T.backward (each
    gradient added into its leaf as the sweep reaches it) and by the
    two-phase oracle (leaf gradients summed first, added once): every
    parameter gradient has the same bytes, in TrainState's flat view."""
    tc, cfg = DESK_TRAIN_CONFIG, M.ModelConfig()
    rng = PortableRng(tc.seed).spawn(2_000_001)
    sample = TR.sample_task(corpus, tc.task_mix, rng, tc.batch_groups, 128, 32)
    sizes = np.unique(sample.group_ids, return_counts=True)[1]
    assert sizes.min() == 1 and sizes.max() > 1 and sample.future_known_mask.any()
    state = TR.TrainState.fresh(M.init_weights(cfg, seed=tc.seed))
    sweep, oracle = T.backward, {}

    def both(loss, tape):
        backward_two_phase(loss, tape)
        oracle.update((k, t.grad.copy()) for k, t in state.weights.items())
        state.flat["grad"].fill(0)
        sweep(loss, tape)

    monkeypatch.setattr(T, "backward", both)
    TR.train_step(state, sample, cfg, tc)
    assert oracle.keys() == state.weights.keys()
    for k, t in state.weights.items():
        assert np.shares_memory(t.grad, state.flat["grad"]), k
        assert t.grad.tobytes() == oracle[k].tobytes(), k
    assert all(oracle[f"embed.{k}"].any() for k in ("w1", "b1", "w2", "b2", "skip"))


def test_uv_closed_form_trains_like_dense_masked_oracle(corpus, monkeypatch):
    tc = TR.TrainConfig(learning_rate=3e-3, seed=5)
    samples = [TR.sample_task(corpus, (1, 0, 0), PortableRng(5).spawn(i), 3, 16, 4) for i in range(5)]
    assert all(len(set(s.group_ids.tolist())) == s.group_ids.size > 1 for s in samples)

    def run():
        state = TR.TrainState.fresh(M.init_weights(CFG, seed=5))
        for sample in samples:
            TR.train_step(state, sample, CFG, tc)
            for name in ("wq", "bq", "wk", "bk"):
                assert not state.weights[f"block0.group.{name}"].grad.any(), name
        return {role: a.copy() for role, a in state.flat.items()}

    closed = run()
    monkeypatch.setattr(M, "group_attention", group_attention_dense_masked)
    dense = run()
    for role in ("data", "grad", "m", "v"):
        assert closed[role].tobytes() == dense[role].tobytes(), role


def test_fresh_state_rejects_mixed_dtypes():
    w = M.init_weights(CFG, seed=1)
    w["reg"] = T.parameter(w["reg"].data, dtype=np.float64)
    with pytest.raises(ContractError):
        TR.TrainState.fresh(w)


def test_zero_learning_rate_is_identity(corpus):
    w = M.init_weights(CFG, seed=2)
    state = TR.TrainState.fresh(w)
    before = {k: t.data.copy() for k, t in w.items()}
    sample = TR.sample_task(corpus, (1, 0, 0), PortableRng(0).spawn(1), 2, 16, 4)
    TR.train_step(state, sample, CFG, TR.TrainConfig(), lr=0.0)
    for k in w:
        assert np.array_equal(before[k], w[k].data)
    assert state.step == 1


def test_loss_decreases_over_windows(corpus):
    tc = TR.TrainConfig(
        stage_contexts=(32, 32), stage_steps=(100, 100), batch_groups=4,
        learning_rate=3e-3, task_mix=(0.4, 0.5, 0.1), seed=11, checkpoint_every=10_000,
        max_horizon_patches=1,
    )
    w = M.init_weights(CFG, seed=11)
    state = TR.TrainState.fresh(w)
    losses = []
    for step in range(200):
        rng = PortableRng(tc.seed).spawn(2_000_000 + step)
        sample = TR.sample_task(corpus, tc.task_mix, rng, tc.batch_groups, 32, 4)
        losses.append(TR.train_step(state, sample, CFG, tc))
    windows = [np.mean(losses[i : i + 50]) for i in range(0, 200, 50)]
    assert all(windows[i + 1] < windows[i] for i in range(3)), windows


def test_two_runs_same_seed_bitwise_identical(tmp_path, corpus):
    tc = TR.TrainConfig(
        stage_contexts=(16, 32), stage_steps=(60, 40), batch_groups=3,
        learning_rate=1e-3, seed=21, checkpoint_every=10_000,
    )
    assert TR.run_curriculum(CFG, tc, corpus, tmp_path / "a") == 100  # the steps it ran
    assert TR.run_curriculum(CFG, tc, corpus, tmp_path / "b") == 100
    w1, _, e1, m1 = load_checkpoint(tmp_path / "a" / "model.ckpt")
    w2, _, e2, m2 = load_checkpoint(tmp_path / "b" / "model.ckpt")
    assert e1["step"] == e2["step"] == 100
    for k in w1:
        assert np.array_equal(w1[k].data, w2[k].data), k
    for k in m1:
        assert np.array_equal(m1[k], m2[k]), k


def test_a_stage_context_past_max_context_warns_once_before_the_first_step(tmp_path, corpus, caplog):
    long_stage = TR.TrainConfig(
        stage_contexts=(16, 80), stage_steps=(2, 2), batch_groups=2, seed=5, checkpoint_every=100,
    )
    desk = replace(DESK_TRAIN_CONFIG, stage_steps=(1, 1), batch_groups=2)
    warned = []
    for name, model_cfg, train_cfg in (("long", CFG, long_stage), ("desk", M.ModelConfig(), desk)):
        caplog.clear()
        with caplog.at_level("WARNING", logger="groupcast.train"):
            TR.run_curriculum(model_cfg, train_cfg, corpus, tmp_path / name)
        warned.append([r.getMessage() for r in caplog.records if r.name == "groupcast.train"])
    assert warned == [["contexts of up to 80 positions are cut to max_context=64"], []]


@pytest.mark.parametrize("stage_steps", [(2, 2), (2, 0)])
def test_a_series_shorter_than_a_running_stage_window_raises_before_out_dir_exists(tmp_path, stage_steps):
    # stage 2 draws windows of up to (48 // 4 + 2) * 4 = 56 positions, stage 1 of up to 24
    tc = TR.TrainConfig(stage_contexts=(16, 48), stage_steps=stage_steps, batch_groups=2, seed=3)
    corpus = TR.Corpus(univariate=[np.arange(40.0)], panels=[np.ones((2, 60))])
    if stage_steps[1]:
        with pytest.raises(ConfigError, match="series of length 40 too short for window 56"):
            TR.run_curriculum(CFG, tc, corpus, tmp_path / "out")
        assert not (tmp_path / "out").exists()
    else:  # stage 2 does not run
        assert TR.run_curriculum(CFG, tc, corpus, tmp_path / "out") == 2


def test_curriculum_stages_and_boundary(tmp_path, corpus):
    tc = TR.TrainConfig(
        stage_contexts=(16, 32), stage_steps=(30, 20), batch_groups=2,
        learning_rate=1e-3, seed=5, checkpoint_every=30,
    )
    TR.run_curriculum(CFG, tc, corpus, tmp_path)
    final = tmp_path / "model.ckpt"
    log_lines = (tmp_path / "train_log.csv").read_text().strip().split("\n")
    assert log_lines[0] == "step,stage,loss,lr,wallclock_ms"
    rows = [line.split(",") for line in log_lines[1:]]
    assert len(rows) == 50
    stages = [int(r[1]) for r in rows]
    assert stages[:30] == [1] * 30
    assert stages[30:] == [2] * 20
    # boundary checkpoint holds stage-1 final weights; stage 2 starts there
    wb, _, eb, _ = load_checkpoint(tmp_path / "ckpt_step000030.ckpt")
    assert eb["step"] == 30
    wf, _, ef, _ = load_checkpoint(final)
    assert ef["step"] == 50
    # reload of the final file is bit-identical
    wf2, _, _, _ = load_checkpoint(final)
    for k in wf:
        assert np.array_equal(wf[k].data, wf2[k].data)


def test_resume_continues_step_counter(tmp_path, corpus):
    tc_full = TR.TrainConfig(
        stage_contexts=(16, 32), stage_steps=(20, 20), batch_groups=2,
        learning_rate=1e-3, seed=8, checkpoint_every=20,
    )
    TR.run_curriculum(CFG, tc_full, corpus, tmp_path / "full")
    TR.run_curriculum(CFG, tc_full, corpus, tmp_path / "half")
    # redo the second half from the boundary checkpoint
    ran = TR.run_curriculum(
        CFG, tc_full, corpus, tmp_path / "resumed",
        resume_from=tmp_path / "half" / "ckpt_step000020.ckpt",
    )
    assert ran == 20
    wf, _, ef, _ = load_checkpoint(tmp_path / "full" / "model.ckpt")
    wr, _, er, _ = load_checkpoint(tmp_path / "resumed" / "model.ckpt")
    assert ef["step"] == er["step"] == 40
    for k in wf:
        assert np.array_equal(wf[k].data, wr[k].data), k


def test_resume_in_place_matches_uninterrupted_run(tmp_path, corpus, monkeypatch):
    tc = TR.TrainConfig(
        stage_contexts=(16, 32), stage_steps=(20, 20), batch_groups=2,
        learning_rate=1e-3, seed=9, checkpoint_every=20,
    )
    TR.run_curriculum(CFG, tc, corpus, tmp_path / "full")
    TR.run_curriculum(CFG, tc, corpus, tmp_path / "run")
    with open(tmp_path / "run" / "train_log.csv", "a") as fh:
        fh.write("41,2,0.5")  # a row torn by a crash

    def no_rewrite(self, *args, **kwargs):
        raise OSError("a rewrite of the log could be cut short")

    # the log is cut in place, never rewritten
    monkeypatch.setattr(Path, "write_text", no_rewrite)
    TR.run_curriculum(
        CFG, tc, corpus, tmp_path / "run", resume_from=tmp_path / "run" / "ckpt_step000020.ckpt"
    )
    assert (tmp_path / "run" / "model.ckpt").read_bytes() == (tmp_path / "full" / "model.ckpt").read_bytes()
    logged = _log_without_wallclock(tmp_path / "run")
    assert logged == _log_without_wallclock(tmp_path / "full")
    assert len(logged) == 41


def _log_without_wallclock(run_dir):
    lines = (run_dir / "train_log.csv").read_text().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


def test_hard_crash_after_each_checkpoint_resumes_to_the_same_tree(tmp_path, corpus):
    tc = TR.TrainConfig(
        stage_contexts=(16, 32), stage_steps=(20, 20), batch_groups=2,
        learning_rate=1e-3, seed=9, checkpoint_every=20,
    )
    TR.run_curriculum(CFG, tc, corpus, tmp_path / "full")
    want = _tree_without_wallclock(tmp_path / "full")
    save_checkpoint = TR.save_checkpoint

    def job(seam, run):  # in the child: crash right after a checkpoint is in place
        def saving(*args, **kwargs):
            save_checkpoint(*args, **kwargs)
            seam()

        TR.save_checkpoint = saving
        TR.run_curriculum(CFG, tc, corpus, run)

    for k in (1, 2, 3):  # ckpt_step000020, ckpt_step000040, model.ckpt
        run = tmp_path / f"crash{k}"
        crash_in_child(lambda seam: job(seam, run), k)
        newest = max(run.glob("ckpt_step*.ckpt"), default=None)
        TR.run_curriculum(CFG, tc, corpus, run, resume_from=newest)
        assert _tree_without_wallclock(run) == want, k


def test_hard_crash_after_a_step_between_checkpoints_resumes_to_the_same_tree(tmp_path, corpus):
    tc = TR.TrainConfig(
        stage_contexts=(16, 32), stage_steps=(20, 20), batch_groups=2,
        learning_rate=1e-3, seed=9, checkpoint_every=20,
    )
    TR.run_curriculum(CFG, tc, corpus, tmp_path / "full")
    want = _tree_without_wallclock(tmp_path / "full")
    train_step = TR.train_step

    def job(seam, run):  # in the child: crash right after a step, before its row is written
        def stepping(*args, **kwargs):
            loss = train_step(*args, **kwargs)
            seam()
            return loss

        TR.train_step = stepping
        TR.run_curriculum(CFG, tc, corpus, run)

    for k in (3, 27, 40):  # before the first checkpoint, between two, before the last
        run = tmp_path / f"crash{k}"
        crash_in_child(lambda seam: job(seam, run), k)
        newest = max(run.glob("ckpt_step*.ckpt"), default=None)
        TR.run_curriculum(CFG, tc, corpus, run, resume_from=newest)
        assert _tree_without_wallclock(run) == want, k


def _tree_without_wallclock(run_dir):
    return {**tree_bytes(run_dir), "train_log.csv": _log_without_wallclock(run_dir)}


@pytest.mark.parametrize("log", [b"", b"step,stage,lo"], ids=["empty", "torn-header"])
def test_resume_writes_a_lost_log_header(tmp_path, corpus, log):
    tc = TR.TrainConfig(
        stage_contexts=(16, 32), stage_steps=(4, 4), batch_groups=2,
        learning_rate=1e-3, seed=9, checkpoint_every=4,
    )
    TR.run_curriculum(CFG, tc, corpus, tmp_path / "full")
    TR.run_curriculum(CFG, tc, corpus, tmp_path / "run")
    (tmp_path / "run" / "train_log.csv").write_bytes(log)  # a crash while the header was written
    TR.run_curriculum(
        CFG, tc, corpus, tmp_path / "run", resume_from=tmp_path / "run" / "ckpt_step000004.ckpt"
    )
    full = _log_without_wallclock(tmp_path / "full")
    assert _log_without_wallclock(tmp_path / "run") == full[:1] + full[5:]  # header, steps 5-8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf weights make NaNs on purpose
def test_non_finite_loss_aborts(corpus):
    w = M.init_weights(CFG, seed=3)
    w["head.w"].data[:] = np.inf
    state = TR.TrainState.fresh(w)
    sample = TR.sample_task(corpus, (1, 0, 0), PortableRng(0).spawn(2), 2, 16, 4)
    with pytest.raises(TrainingAbort) as exc:
        TR.train_step(state, sample, CFG, TR.TrainConfig())
    assert "step" in str(exc.value)
