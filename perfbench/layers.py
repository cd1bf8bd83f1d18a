"""Which program functions get a span, and the per-layer metrics they give.

Every wrapped function is reached by its callers as a module attribute or
module global, so replacing that attribute routes every call through the
span. Where a module imported a function by name (``from .checkpoint
import load_checkpoint``), the importing module's copy is replaced too.

Autodiff backward closures are timed per model scope: the ``tensor.make_op``
replacement wraps each recorded op's closure in a span named after the
scope active when the op was recorded (embed, block{i}.time,
block{i}.group, head_loss).
"""

import os
import statistics

import numpy as np

from groupcast import cli
from groupcast import evalharness as E
from groupcast import kernels as K
from groupcast import model as M
from groupcast import preprocess as P
from groupcast import synthdata as S
from groupcast import tensor as T
from groupcast import train as TR

N_BLOCKS = M.ModelConfig().n_blocks
BACKWARD_SCOPES = ("embed",) + tuple(
    f"block{i}.{kind}" for i in range(N_BLOCKS) for kind in ("time", "group")
) + ("head_loss",)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _block(prefix: str) -> str:
    return prefix.split(".")[0]


def _group_kind(n_series: int, n_groups: int) -> str:
    if n_series > 1 and n_groups == 1:
        return "MV"
    if n_series > 1 and n_groups == n_series:
        return "UV"
    return "mixed"


def instrument(tracer, patcher) -> None:
    """Route every traced layer function through a span."""
    span = tracer.wrap
    counts = tracer.counts

    def plain(owner, attr, name, **kw):
        patcher.set(owner, attr, span(name, getattr(owner, attr), **kw))

    # train and checkpoint
    plain(TR, "sample_task", "train.sample_task")
    plain(TR, "train_step", "train.train_step")
    plain(TR, "pinball_loss", "train.pinball_loss", scope="head_loss")
    plain(TR, "adam_update", "train.adam_update")

    def ckpt_size(args, kwargs, result, dur):
        counts["checkpoint.save_checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    plain(TR, "save_checkpoint", "checkpoint.save_checkpoint", after=ckpt_size)
    plain(cli, "load_checkpoint", "checkpoint.load_checkpoint")

    # tensor: backward sweep plus per-scope op closures
    def tape_counts(args, kwargs, result, dur):
        entries = _arg(args, kwargs, 1, "tape").entries
        counts["tensor.backward.sweeps"] += 1
        counts["tensor.tape_entries"] += len(entries)
        counts["tensor.backward.intermediate_grads"] += sum(
            1 for _inputs, out, _bwd in entries if out.grad is not None
        )

    plain(T, "backward", "tensor.backward", after=tape_counts)
    make_op = T.make_op
    active_tape = T._active_tape

    def traced_make_op(inputs, out_data, backward):
        if active_tape() is not None:
            backward = span(f"tensor.backward.{tracer.scope() or 'head_loss'}", backward)
        return make_op(inputs, out_data, backward)

    patcher.set(T, "make_op", traced_make_op)

    # model
    plain(M, "assemble_batch", "model.assemble_batch", scope="embed")
    plain(M, "embed_patches", "model.embed_patches")
    plain(M, "init_weights", "model.init_weights")
    plain(M, "predict", "model.predict")

    def count_tokens(args, kwargs, result, dur):
        tokens = _arg(args, kwargs, 0, "batch").tokens
        counts["model.tokens"] += tokens.shape[0] * tokens.shape[1]

    plain(M, "forward", "model.forward", scope="head_loss", after=count_tokens)
    time_attention = M.time_attention

    def traced_time_attention(tokens, weights, prefix, n_heads, *rest, **kw):
        block = _block(prefix)
        frame = tracer.enter(f"model.time_attention.{block}", f"{block}.time")
        try:
            return time_attention(tokens, weights, prefix, n_heads, *rest, **kw)
        finally:
            tracer.exit(frame)

    patcher.set(M, "time_attention", traced_time_attention)
    group_attention = M.group_attention

    def traced_group_attention(tokens, group_ids, weights, prefix, n_heads, reg_position=None):
        block = _block(prefix)
        g = np.asarray(group_ids)
        _ids, sizes = np.unique(g, return_counts=True)
        positions = tokens.shape[1] - (0 if reg_position is None else 1)
        counts["model.group_attention.useful_pairs"] += int((sizes * sizes).sum()) * positions
        counts["model.group_attention.scored_pairs"] += g.size * g.size * positions
        kind = _group_kind(g.size, sizes.size)
        frame = tracer.enter(f"model.group_attention.{block}.{kind}", f"{block}.group")
        try:
            return group_attention(tokens, group_ids, weights, prefix, n_heads, reg_position)
        finally:
            tracer.exit(frame)

    patcher.set(M, "group_attention", traced_group_attention)

    # preprocess
    for fn in ("robust_scale", "patchify", "inverse_scale"):
        plain(P, fn, f"preprocess.{fn}")

    # kernels
    def rotary_bytes(args, kwargs, result, dur):
        x, cos, sin = args[:3]
        counts["kernels.rotary_apply.bytes"] += x.nbytes + cos.nbytes + sin.nbytes + result.nbytes

    def var_madds(args, kwargs, result, dur):
        coeffs, innovations = args[:2]
        lags, k, _ = coeffs.shape
        steps = innovations.shape[0]
        # inner loop runs min(t, lags) lags of k*k multiply-adds at step t
        per_series = sum(min(t, lags) for t in range(steps))
        counts["kernels.var_recursion.madds"] += per_series * k * k

    plain(K, "rotary_apply", "kernels.rotary_apply", after=rotary_bytes)
    plain(K, "pinball_cells", "kernels.pinball_cells")
    plain(K, "pinball_grad", "kernels.pinball_grad")
    plain(K, "var_recursion", "kernels.var_recursion", after=var_madds)
    plain(K, "mix64_stream", "kernels.mix64_stream")

    # evaluation harness and panels
    plain(cli, "load_csv_panel", "panels.load_csv_panel")
    plain(cli, "build_combined", "panels.build_combined")
    plain(E, "slice_context", "panels.slice_context")
    plain(E, "run_grid", "evalharness.run_grid")
    plain(E, "emit_artifacts", "evalharness.emit_artifacts")
    plain(E, "aggregate_mode", "evalharness.aggregate_mode")
    plain(E, "compare_series", "evalharness.compare_series")

    def cell_counts(args, kwargs, result, dur):
        records, skips = result
        counts["evalharness.records"] += len(records)
        counts["evalharness.skips"] += len(skips)

    plain(
        E, "evaluate_cell",
        lambda a, kw: f"evalharness.evaluate_cell.{_arg(a, kw, 1, 'spec').mode}",
        after=cell_counts, keep_samples=True,
    )

    # synthetic data
    def dataset_bytes(args, kwargs, result, dur):
        counts["synthdata.save_panel_dataset.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    plain(S, "save_panel_dataset", "synthdata.save_panel_dataset", after=dataset_bytes)
    for fn in (
        "sample_tsi_spec", "sample_tcm_spec", "tsi_generate", "tcm_generate",
        "spectral_radius", "derive_multivariate", "make_cross_link_panel",
        "make_independent_panel", "save_provenance",
    ):
        plain(S, fn, f"synthdata.{fn}")


def _per(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def _pct(samples: list[float], which: str) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1e3
    if which == "p50":
        return statistics.median(samples) * 1e3
    return statistics.quantiles(samples, n=10)[8] * 1e3


# (metric, unit, how) for every per-layer metric. how is one of
#   ("ms", span): total span ms per op      ("self_ms", span): self ms per op
#   ("calls", span): calls per pass          ("count", key): counter per pass
# with span a name or a tuple of names that are summed.
def _layer_table():
    rows = [
        ("tensor.backward.self_ms", "ms", ("self_ms", "tensor.backward")),
    ]
    rows += [
        (f"tensor.backward.{s}.ms", "ms", ("ms", f"tensor.backward.{s}")) for s in BACKWARD_SCOPES
    ]
    rows += [
        ("model.assemble_batch.self_ms", "ms", ("self_ms", "model.assemble_batch")),
        ("model.embed_patches.ms", "ms", ("ms", "model.embed_patches")),
    ]
    for i in range(N_BLOCKS):
        rows.append((f"model.time_attention.block{i}.ms", "ms", ("ms", f"model.time_attention.block{i}")))
    for i in range(N_BLOCKS):
        kinds = tuple(f"model.group_attention.block{i}.{k}" for k in ("MV", "UV", "mixed"))
        rows.append((f"model.group_attention.block{i}.ms", "ms", ("ms", kinds)))
        for mode in ("MV", "UV"):
            rows.append((
                f"model.group_attention.block{i}.{mode}.ms", "ms",
                ("ms", f"model.group_attention.block{i}.{mode}"),
            ))
    rows += [
        ("model.forward.self_ms", "ms", ("self_ms", "model.forward")),
        ("model.predict.self_ms", "ms", ("self_ms", "model.predict")),
        ("model.tokens", "count", ("count", "model.tokens")),
    ]
    for fn in ("robust_scale", "patchify", "inverse_scale"):
        rows.append((f"preprocess.{fn}.ms", "ms", ("ms", f"preprocess.{fn}")))
        rows.append((f"preprocess.{fn}.calls", "count", ("calls", f"preprocess.{fn}")))
    rows += [
        ("kernels.rotary_apply.ms", "ms", ("ms", "kernels.rotary_apply")),
        ("kernels.rotary_apply.calls", "count", ("calls", "kernels.rotary_apply")),
        ("kernels.pinball_cells.ms", "ms", ("ms", "kernels.pinball_cells")),
        ("kernels.pinball_grad.ms", "ms", ("ms", "kernels.pinball_grad")),
        ("kernels.var_recursion.ms", "ms", ("ms", "kernels.var_recursion")),
        ("kernels.var_recursion.calls", "count", ("calls", "kernels.var_recursion")),
        ("kernels.var_recursion.madds", "count", ("count", "kernels.var_recursion.madds")),
        ("kernels.mix64_stream.ms", "ms", ("ms", "kernels.mix64_stream")),
        ("train.sample_task.ms", "ms", ("ms", "train.sample_task")),
        ("train.pinball_loss.ms", "ms", ("ms", "train.pinball_loss")),
        ("train.adam_update.ms", "ms", ("ms", "train.adam_update")),
        ("train.train_step.self_ms", "ms", ("self_ms", "train.train_step")),
        ("checkpoint.save_checkpoint.ms", "ms", ("ms", "checkpoint.save_checkpoint")),
        ("checkpoint.load_checkpoint.ms", "ms", ("ms", "checkpoint.load_checkpoint")),
        ("evalharness.cells", "count", ("calls", ("evalharness.evaluate_cell.MV", "evalharness.evaluate_cell.UV"))),
        ("evalharness.records", "count", ("count", "evalharness.records")),
        ("evalharness.skips", "count", ("count", "evalharness.skips")),
        ("evalharness.evaluate_cell.self_ms", "ms",
         ("self_ms", ("evalharness.evaluate_cell.MV", "evalharness.evaluate_cell.UV"))),
        ("evalharness.run_grid.self_ms", "ms", ("self_ms", "evalharness.run_grid")),
        ("evalharness.emit_artifacts.ms", "ms", ("ms", "evalharness.emit_artifacts")),
        ("panels.slice_context.ms", "ms", ("ms", "panels.slice_context")),
        ("panels.load_csv_panel.ms", "ms", ("ms", "panels.load_csv_panel")),
        ("panels.build_combined.ms", "ms", ("ms", "panels.build_combined")),
        ("synthdata.tsi_generate.ms", "ms", ("ms", "synthdata.tsi_generate")),
        ("synthdata.tcm_generate.self_ms", "ms", ("self_ms", "synthdata.tcm_generate")),
        ("synthdata.spectral_radius.ms", "ms", ("ms", "synthdata.spectral_radius")),
        ("synthdata.make_cross_link_panel.self_ms", "ms", ("self_ms", "synthdata.make_cross_link_panel")),
        ("synthdata.make_independent_panel.ms", "ms", ("ms", "synthdata.make_independent_panel")),
        ("synthdata.save_panel_dataset.ms", "ms", ("ms", "synthdata.save_panel_dataset")),
        ("synthdata.save_provenance.ms", "ms", ("ms", "synthdata.save_provenance")),
    ]
    return rows


LAYER_TABLE = _layer_table()

# Metrics computed from several sources rather than one table row.
DERIVED = (
    ("tensor.tape_entries", "count"),
    ("tensor.backward.intermediate_grads", "count"),
    ("model.group_attention.useful_pair_frac", "ratio"),
    ("kernels.rotary_apply.mb", "MB"),
    ("checkpoint.save_checkpoint.mb", "MB"),
    ("synthdata.save_panel_dataset.mb", "MB"),
    ("evalharness.cell_ms.MV.p50", "ms"),
    ("evalharness.cell_ms.MV.p90", "ms"),
    ("evalharness.cell_ms.UV.p50", "ms"),
    ("evalharness.cell_ms.UV.p90", "ms"),
)

# Exact counts that must repeat bit for bit for a given seed.
EXACT_COUNTS = (
    "tensor.tape_entries",
    "tensor.backward.intermediate_grads",
    "model.group_attention.useful_pair_frac",
    "kernels.var_recursion.madds",
    "evalharness.cells",
    "evalharness.records",
    "evalharness.skips",
)


def metric_units() -> dict[str, str]:
    units = {name: unit for name, unit, _how in LAYER_TABLE}
    units.update(dict(DERIVED))
    return units


def layer_metrics(tracer, ops: int, passes: int) -> dict[str, float]:
    """Per-layer values: times in ms per op, counts per pass.

    ops is the number of workload operations (train steps, grid cells,
    synthetic datasets) covered by the tracer; passes the number of passes.
    """
    def names(spec):
        return spec if isinstance(spec, tuple) else (spec,)

    out: dict[str, float] = {}
    for metric, _unit, (how, spec) in LAYER_TABLE:
        keys = names(spec)
        if how == "ms":
            out[metric] = _per(sum(tracer.total.get(k, 0.0) for k in keys) * 1e3, ops)
        elif how == "self_ms":
            out[metric] = _per(sum(tracer.self_time.get(k, 0.0) for k in keys) * 1e3, ops)
        elif how == "calls":
            out[metric] = _per(sum(tracer.calls.get(k, 0) for k in keys), passes)
        else:
            out[metric] = _per(tracer.counts.get(spec, 0), passes)
    c = tracer.counts
    sweeps = c.get("tensor.backward.sweeps", 0)
    out["tensor.tape_entries"] = _per(c.get("tensor.tape_entries", 0), sweeps)
    out["tensor.backward.intermediate_grads"] = _per(c.get("tensor.backward.intermediate_grads", 0), sweeps)
    out["model.group_attention.useful_pair_frac"] = _per(
        c.get("model.group_attention.useful_pairs", 0), c.get("model.group_attention.scored_pairs", 0)
    )
    out["kernels.rotary_apply.mb"] = _per(c.get("kernels.rotary_apply.bytes", 0) / 1e6, passes)
    out["checkpoint.save_checkpoint.mb"] = _per(c.get("checkpoint.save_checkpoint.bytes", 0) / 1e6, passes)
    out["synthdata.save_panel_dataset.mb"] = _per(c.get("synthdata.save_panel_dataset.bytes", 0) / 1e6, passes)
    for mode in ("MV", "UV"):
        samples = tracer.samples.get(f"evalharness.evaluate_cell.{mode}", [])
        out[f"evalharness.cell_ms.{mode}.p50"] = _pct(samples, "p50")
        out[f"evalharness.cell_ms.{mode}.p90"] = _pct(samples, "p90")
    return out
