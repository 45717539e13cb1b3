"""Which library calls the traced run wraps, and the per-layer metrics
derived from the spans they record.

Span names are `<module>.<function>`, so a span's layer is the part of
its name before the first dot. `ssa.ssa_forward` is named by stage
(`ssa.stage0`, ...), the order of the calls under one parent.
"""

from __future__ import annotations

import statistics

from spans import Recorder, counted, timed

MODULES = ("geometry", "ssa", "tensor", "detector", "losses", "harness", "data")


def _span(name, counter=None):
    return lambda rec, fn: timed(rec, fn, name, counter)


def _table_counts(args, kwargs, table):
    return {
        "geometry.ball_query.centers": table.valid.shape[0],
        "geometry.ball_query.valid": int(table.valid.sum()),
        "geometry.ball_query.slots": table.valid.size,
    }


def _nms_counts(args, kwargs, kept):
    return {"detector.nms3d.in": len(args[0]), "detector.nms3d.kept": len(kept)}


def _loss_counts(args, kwargs, result):
    return {"losses.positives": int(result[2].positive.sum())}


def plan(G, S, T, D, L, H, DT) -> list:
    """(owner, attribute, wrapper factory) for every traced boundary."""
    stage = lambda rec: f"ssa.stage{rec.ordinal('ssa_forward')}"  # noqa: E731
    return [
        (G, "ball_query", _span("geometry.ball_query", _table_counts)),
        (G, "dfps", _span("geometry.dfps")),
        (G, "pairing_from_table", _span("geometry.pairing_from_table")),
        (S, "ssa_forward", _span(stage)),
        (S, "set_feature_abstraction", _span("ssa.set_feature_abstraction")),
        (S, "selection_variant", _span("ssa.selection_variant")),
        (S, "exchange_variant", _span("ssa.exchange_variant")),
        (S, "aggregate_scales", _span("ssa.aggregate_scales")),
        (T, "mlp_forward", _span("tensor.mlp_forward")),
        (T, "reduce_max", _span("tensor.reduce_max")),
        (T, "gather_rows", _span("tensor.gather_rows")),
        (T.Tensor, "backward", _span("tensor.Tensor.backward")),
        (T.Tensor, "__init__", lambda rec, fn: counted(rec, fn, "tensor.nodes")),
        (D, "detect", _span("detector.detect")),
        (D, "model_forward", _span("detector.model_forward")),
        (D, "backbone_forward", _span("detector.backbone_forward")),
        (D, "vote_layer", _span("detector.vote_layer")),
        (D, "candidate_aggregation", _span("detector.candidate_aggregation")),
        (D, "prediction_heads", _span("detector.prediction_heads")),
        (D, "decode_boxes", _span("detector.decode_boxes")),
        (D, "nms3d", _span("detector.nms3d", _nms_counts)),
        (D, "iou3d", _span("detector.iou3d")),
        (L, "compute_loss", _span("losses.compute_loss", _loss_counts)),
        (L, "assign_targets", _span("losses.assign_targets")),
        (H.Adam, "step", _span("harness.Adam.step")),
        (H, "receptive_field_probe", _span("harness.receptive_field_probe")),
        (DT, "read_cloud", _span("data.read_cloud")),
        (DT, "write_detections", _span("data.write_detections")),
        (DT, "generate_scene", _span("data.generate_scene")),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better, value from the per-op rows)


def _median(key, scale=1.0):
    return lambda rows: statistics.median(row[key] for row in rows) * scale


def _self_ms(span):
    return _median(span + ".self_ns", 1e-6)


def _total_ms(span):
    return _median(span + ".total_ns", 1e-6)


def _ratio(num, den):
    def value(rows):
        bottom = sum(den(row) for row in rows)
        return sum(num(row) for row in rows) / bottom if bottom else 0.0

    return value


def _module_self_ns(module):
    prefix = module + "."
    return lambda row: sum(v for k, v in row.items() if k.startswith(prefix) and k.endswith(".self_ns"))


def _get(key):
    return lambda row: row[key]


PER_LAYER = [
    ("geometry.ball_query.self_ms", "ms", "lower", _self_ms("geometry.ball_query")),
    ("geometry.ball_query.calls", "count", "lower", _median("geometry.ball_query.calls")),
    ("geometry.ball_query.centers", "count", "lower", _median("geometry.ball_query.centers")),
    ("geometry.ball_query.fill", "ratio", "higher",
     _ratio(_get("geometry.ball_query.valid"), _get("geometry.ball_query.slots"))),
    ("geometry.dfps.self_ms", "ms", "lower", _self_ms("geometry.dfps")),
    ("geometry.pairing_from_table.self_ms", "ms", "lower", _self_ms("geometry.pairing_from_table")),
    *[(f"ssa.stage{t}.total_ms", "ms", "lower", _total_ms(f"ssa.stage{t}")) for t in range(4)],
    ("ssa.set_feature_abstraction.self_ms", "ms", "lower", _self_ms("ssa.set_feature_abstraction")),
    ("ssa.selection_variant.total_ms", "ms", "lower", _total_ms("ssa.selection_variant")),
    ("ssa.exchange_variant.total_ms", "ms", "lower", _total_ms("ssa.exchange_variant")),
    ("ssa.aggregate_scales.total_ms", "ms", "lower", _total_ms("ssa.aggregate_scales")),
    ("ssa.exchange_share", "ratio", "lower",
     _ratio(_get("ssa.exchange_variant.total_ns"), _get("detector.backbone_forward.total_ns"))),
    ("tensor.mlp_forward.self_ms", "ms", "lower", _self_ms("tensor.mlp_forward")),
    ("tensor.reduce_max.self_ms", "ms", "lower", _self_ms("tensor.reduce_max")),
    ("tensor.gather_rows.self_ms", "ms", "lower", _self_ms("tensor.gather_rows")),
    ("tensor.Tensor.backward.self_ms", "ms", "lower", _self_ms("tensor.Tensor.backward")),
    ("tensor.nodes", "count", "lower", _median("tensor.nodes")),
    ("detector.backbone_forward.total_ms", "ms", "lower", _total_ms("detector.backbone_forward")),
    ("detector.vote_layer.total_ms", "ms", "lower", _total_ms("detector.vote_layer")),
    ("detector.candidate_aggregation.total_ms", "ms", "lower",
     _total_ms("detector.candidate_aggregation")),
    ("detector.prediction_heads.total_ms", "ms", "lower", _total_ms("detector.prediction_heads")),
    ("detector.decode_boxes.self_ms", "ms", "lower", _self_ms("detector.decode_boxes")),
    ("detector.nms3d.total_ms", "ms", "lower", _total_ms("detector.nms3d")),
    ("detector.nms3d.in", "count", "lower", _median("detector.nms3d.in")),
    ("detector.nms3d.kept", "count", "higher", _median("detector.nms3d.kept")),
    ("detector.iou3d.calls", "count", "lower", _median("detector.iou3d.calls")),
    ("losses.compute_loss.self_ms", "ms", "lower", _self_ms("losses.compute_loss")),
    ("losses.assign_targets.self_ms", "ms", "lower", _self_ms("losses.assign_targets")),
    ("losses.positives", "count", "higher", _median("losses.positives")),
    ("harness.Adam.step.self_ms", "ms", "lower", _self_ms("harness.Adam.step")),
    ("harness.probe.replays", "count", "lower", _median("detector.backbone_forward.calls")),
    ("data.read_cloud.self_ms", "ms", "lower", _self_ms("data.read_cloud")),
    ("data.write_detections.self_ms", "ms", "lower", _self_ms("data.write_detections")),
    *[(f"{m}.self_share", "ratio", "lower", _ratio(_module_self_ns(m), _get("op_ns"))) for m in MODULES],
    ("trace.coverage", "ratio", "higher", _ratio(_get("covered_ns"), _get("op_ns"))),
]


def per_layer(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric except the two that need the untraced run
    (`trace.overhead`) or set-up spans (`data.generate_scene.total_ms`)."""
    rows = list(rec.per_op().values())
    out = {name: float(value(rows)) if rows else 0.0 for name, _, _, value in PER_LAYER}
    out["data.generate_scene.total_ms"] = 1e-6 * sum(
        span[2] - span[1] for span in rec.spans if span[0] == "data.generate_scene" and span[4] is None
    )
    return out


UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
UNITS["data.generate_scene.total_ms"] = "ms"
UNITS["trace.overhead"] = "ratio"
