"""Which library names the traced run wraps, and the per-layer metrics.

Each Target names a module-level binding that library code looks up at call
time. Functions imported by name into another module (the CLI imports most
of them) are bound once per importing module, so each binding is listed.
"""

from __future__ import annotations

import numpy as np

from tracing import Target

# Exact counts over one pass of the image set; names as in BENCHMARK.json.
COUNT_METRICS = (
    "geometry.iou_one_vs_many.calls",
    "geometry.iou_one_vs_many.rows",
    "geometry.stripe_spans.calls",
    "pipeline.nms_select.picks",
    "pipeline.mwcs.nodes",
    "pipeline.mwcs.fallbacks",
    "pipeline.relation.zero_rows",
    "pipeline.relation.warnings",
    "metrics.stripe_iou.calls",
    "metrics.greedy_ne_optimal",
)


def _iou(tracer, args, kwargs, result):
    span = args[0] if args else kwargs["span"]
    many = args[1] if len(args) > 1 else kwargs["many"]
    tracer.counts["geometry.iou_one_vs_many.rows"] += int(many[0].shape[0])
    tracer.counts["geometry.iou_one_vs_many.bytes"] += int(
        sum(a.nbytes for a in (*span, *many))
    )


def _span_stack(tracer, args, kwargs, result):
    tracer.counts["candidates.span_stack.bytes"] += int(sum(a.nbytes for a in result))


def _nms(tracer, args, kwargs, result):
    tracer.counts["pipeline.nms_select.picks"] += len(result)
    tracer.sets["pipeline.nms_select.picks"].update(int(p) for p in result)


def _relation(tracer, args, kwargs, result):
    features = np.asarray(args[0] if args else kwargs["features"])
    tracer.counts["pipeline.relation.zero_rows"] += int(
        np.count_nonzero(~np.any(features != 0, axis=1))
    )


def _mwcs(tracer, args, kwargs, result):
    relation = np.asarray(args[0] if args else kwargs["relation"])
    kappa = args[2] if len(args) > 2 else kwargs["kappa"]
    t = relation.shape[0]
    tracer.counts["pipeline.mwcs.nodes"] += t
    if t >= 2:
        w = 0.5 * (relation + relation.T)
        upper = w[np.triu_indices(t, 1)]
        tracer.counts["pipeline.mwcs.edges"] += int(np.count_nonzero(upper > kappa))
        tracer.counts["pipeline.mwcs.pairs"] += int(upper.size)
    if len(result.member_indices) == 1:
        tracer.counts["pipeline.mwcs.fallbacks"] += 1


def _match(tracer, args, kwargs, result):
    if not result.greedy_equals_optimal:
        tracer.counts["metrics.greedy_ne_optimal"] += 1


TARGETS = [
    Target("lanespace.synth.generate_synthetic", "synth.generate_synthetic"),
    Target("lanespace.datasets.DatasetRecord.resampled", "datasets.resampled"),
    Target("lanespace.cli.load_dataset", "datasets.load_dataset"),
    Target("lanespace.eigenspace.build_basis", "eigenspace.build_basis"),
    Target("lanespace.candidates.cluster_lanes", "candidates.cluster_lanes"),
    Target("lanespace.candidates.straight_anchor_grid", "candidates.straight_anchor_grid"),
    Target("lanespace.candidates.batch_stripe_spans", "candidates.span_stack", _span_stack),
    Target("lanespace.candidates.mean_best_iou", "candidates.mean_best_iou"),
    Target("lanespace.cli.mean_best_iou", "candidates.mean_best_iou"),
    Target("lanespace.geometry.stripe_spans", "geometry.stripe_spans", span=False),
    Target("lanespace.oracle.stripe_spans", "geometry.stripe_spans", span=False),
    Target("lanespace.candidates.stripe_spans", "geometry.stripe_spans", span=False),
    Target("lanespace.pipeline.batch_iou_one_vs_many", "geometry.iou_one_vs_many", _iou),
    Target("lanespace.oracle.batch_iou_one_vs_many", "geometry.iou_one_vs_many", _iou),
    Target("lanespace.candidates.batch_iou_one_vs_many", "geometry.iou_one_vs_many", _iou),
    Target("lanespace.oracle.oracle_scores", "oracle.oracle_scores"),
    Target("lanespace.cli.oracle_scores", "oracle.oracle_scores"),
    Target("lanespace.pipeline.detect_image", "pipeline.detect_image"),
    Target("lanespace.cli.detect_image", "pipeline.detect_image"),
    Target("lanespace.pipeline.nms_select", "pipeline.nms_select", _nms),
    Target(
        "lanespace.pipeline.relation_from_features",
        "pipeline.relation",
        _relation,
        catch_warnings=True,
    ),
    Target("lanespace.pipeline.mwcs", "pipeline.mwcs", _mwcs),
    Target("lanespace.pipeline.finalize", "pipeline.finalize"),
    Target("lanespace.metrics.match_lanes", "metrics.match_lanes", _match),
    Target("lanespace.cli.match_lanes", "metrics.match_lanes", _match),
    Target("lanespace.metrics.stripe_iou", "metrics.stripe_iou", span=False),
    Target("lanespace.cli.save_image_scores", "serialize.save_image_scores"),
    Target("lanespace.cli.load_image_scores", "serialize.load_image_scores"),
    Target("lanespace.cli.save_detections", "serialize.save_detections"),
    Target("lanespace.cli.load_detections", "serialize.load_detections"),
    Target("lanespace.cli.load_candidates", "serialize.load_candidates"),
    Target("lanespace.cli.load_basis", "serialize.load_basis"),
]

# Layers whose spans happen during set-up: reported as total seconds of the
# (single, traced) set-up.
SETUP_LAYERS = {
    "candidates.cluster_lanes.s": "candidates.cluster_lanes",
    "candidates.straight_anchor_grid.s": "candidates.straight_anchor_grid",
    "candidates.span_stack.s": "candidates.span_stack",
    "eigenspace.build_basis.s": "eigenspace.build_basis",
    "synth.generate_synthetic.s": "synth.generate_synthetic",
}

# Layers called during the timed loop: reported as the median per call.
CALL_MEDIANS_MS = {
    "geometry.iou_one_vs_many.ms_p50": "geometry.iou_one_vs_many",
    "oracle.oracle_scores.ms": "oracle.oracle_scores",
    "pipeline.nms_select.ms": "pipeline.nms_select",
    "pipeline.mwcs.ms_p50": "pipeline.mwcs",
    "pipeline.relation.ms": "pipeline.relation",
    "pipeline.finalize.ms": "pipeline.finalize",
    "pipeline.detect_image.ms": "pipeline.detect_image",
    "metrics.match_lanes.ms": "metrics.match_lanes",
    "datasets.resampled.ms": "datasets.resampled",
}
CALL_MEDIANS_S = {
    "serialize.save_image_scores.s": "serialize.save_image_scores",
    "serialize.load_image_scores.s": "serialize.load_image_scores",
    "serialize.save_detections.s": "serialize.save_detections",
    "serialize.load_detections.s": "serialize.load_detections",
    "serialize.load_candidates.s": "serialize.load_candidates",
    "serialize.load_basis.s": "serialize.load_basis",
    "datasets.load_dataset.s": "datasets.load_dataset",
    "candidates.mean_best_iou.s": "candidates.mean_best_iou",
    "cli.eval_candidates.s": "cli.eval_candidates",
    "cli.score_oracle.s": "cli.score_oracle",
    "cli.detect.s": "cli.detect",
    "cli.eval.s": "cli.eval",
}

# Self-time shares of the traced loop, the figures that say which layer a
# workload stresses.
SELF_SHARES = {
    "self_pct.geometry.iou_one_vs_many": ("geometry.iou_one_vs_many",),
    "self_pct.oracle.oracle_scores": ("oracle.oracle_scores",),
    "self_pct.pipeline.nms_select": ("pipeline.nms_select",),
    "self_pct.pipeline.mwcs": ("pipeline.mwcs",),
    "self_pct.metrics.match_lanes": ("metrics.match_lanes",),
    "self_pct.serialize": (
        "serialize.save_image_scores",
        "serialize.load_image_scores",
        "serialize.save_detections",
        "serialize.load_detections",
        "serialize.load_candidates",
        "serialize.load_basis",
    ),
}


def _median(values) -> float:
    return float(np.median(values)) if values else 0.0


def layer_metrics(tracer, setup_window, loop_window, counts, distinct_picks) -> dict:
    """Per-layer values from the spans and the first-pass counts.

    counts are the exact counts of one pass over the workload's fixed image
    set; timings come from every span of the traced loop. A layer that was
    never reached reads 0.
    """
    out = {}
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    picks = counts.get("pipeline.nms_select.picks", 0)
    out["pipeline.nms_select.distinct_pick_frac"] = distinct_picks / picks if picks else 0.0
    out["geometry.iou_one_vs_many.computed_mb"] = (
        counts.get("geometry.iou_one_vs_many.bytes", 0) / 1e6
    )
    pairs = counts.get("pipeline.mwcs.pairs", 0)
    out["pipeline.mwcs.edge_density"] = (
        counts.get("pipeline.mwcs.edges", 0) / pairs if pairs else 0.0
    )
    for name, layer in SETUP_LAYERS.items():
        out[name] = sum(tracer.durations_ms(layer, setup_window)) / 1e3
    out["candidates.span_stack.computed_mb"] = tracer.setup_counts.get(
        "candidates.span_stack.bytes", 0
    ) / 1e6
    for name, layer in CALL_MEDIANS_MS.items():
        out[name] = _median(tracer.durations_ms(layer, loop_window))
    for name, layer in CALL_MEDIANS_S.items():
        out[name] = _median(tracer.durations_ms(layer, loop_window)) / 1e3
    mwcs = tracer.durations_ms("pipeline.mwcs", loop_window)
    out["pipeline.mwcs.ms_max"] = max(mwcs) if mwcs else 0.0
    own = tracer.self_ms_by_name(loop_window)
    out["oracle.oracle_scores.self_ms"] = _median(own.get("oracle.oracle_scores", []))
    total = sum(sum(v) for v in own.values())
    for name, layers in SELF_SHARES.items():
        part = sum(sum(own.get(layer, [])) for layer in layers)
        out[name] = 100.0 * part / total if total else 0.0
    return out


def self_time_table(tracer, loop_window) -> list[tuple[str, float, float]]:
    """(span name, total self ms, share %) for the traced loop, largest first."""
    own = tracer.self_ms_by_name(loop_window)
    totals = {name: sum(v) for name, v in own.items()}
    grand = sum(totals.values()) or 1.0
    return sorted(
        ((name, ms, 100.0 * ms / grand) for name, ms in totals.items()),
        key=lambda row: -row[1],
    )
