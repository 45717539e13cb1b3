"""The perfbench trace plan against the library it wraps: every traced
name must exist where the plan looks for it, and the library must reach
it through that attribute, or `--trace 1` fails or records nothing."""

import sys
from pathlib import Path

from shiftssd import data as DT
from shiftssd import detector as D
from shiftssd import geometry as G
from shiftssd import harness as H
from shiftssd import losses as L
from shiftssd import ssa as S
from shiftssd import tensor as T

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402

MODULES = (G, S, T, D, L, H, DT)


def test_every_traced_name_is_an_own_attribute():
    for owner, attr, _ in layers.plan(*MODULES):
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_pipeline_calls_reach_the_traced_attributes(tmp_path, monkeypatch):
    rec = spans.Recorder()
    for owner, attr, make in layers.plan(*MODULES):
        monkeypatch.setattr(owner, attr, make(rec, owner.__dict__[attr]))
    synth = DT.SynthConfig(points_per_scene=96, noise_points=48, objects_min=1, objects_max=2)
    model = D.ModelConfig(
        stage_points=(24, 8),
        stage_ssa=[
            S.SsaConfig(scales=[S.ScaleConfig(1.0, 4, [8]), S.ScaleConfig(2.0, 8, [8])], aggregation=[12]),
            S.SsaConfig(scales=[S.ScaleConfig(2.0, 4, [12])], aggregation=[16], selection="nearest"),
        ],
        num_classes=len(synth.classes),
        anchors=[tuple(c.mean_size) for c in synth.classes],
        agg_radius=3.0, agg_k=8, agg_f=[16], agg_a=[16], head_hidden=[12], score_threshold=0.0,
    )
    scene = DT.generate_scene(synth, seed=3)
    DT.write_cloud(tmp_path / "scene.bin", scene.cloud)
    cloud = DT.read_cloud(tmp_path / "scene.bin")
    params = D.init_model_params(model, seed=4)
    DT.write_detections(tmp_path / "dets.jsonl", "scene", D.detect(cloud, model, params, seed=5))
    out = D.model_forward(cloud, model, params, seed=5)
    _, total, _ = L.compute_loss(out, scene.objects, model)
    total.backward()
    H.Adam(params.tensors()).step(1e-3)

    # iou3d runs only for overlapping boxes, and the probe is a workload of its own
    called = {span[0] for span in rec.spans} - {"detector.iou3d"}
    assert called == {
        "geometry.ball_query", "geometry.dfps", "geometry.pairing_from_table",
        "ssa.stage0", "ssa.stage1", "ssa.set_feature_abstraction", "ssa.selection_variant",
        "ssa.exchange_variant", "ssa.aggregate_scales",
        "tensor.mlp_forward", "tensor.reduce_max", "tensor.gather_rows", "tensor.Tensor.backward",
        "detector.detect", "detector.model_forward", "detector.backbone_forward", "detector.vote_layer",
        "detector.candidate_aggregation", "detector.prediction_heads", "detector.decode_boxes",
        "detector.nms3d", "losses.compute_loss", "losses.assign_targets", "harness.Adam.step",
        "data.generate_scene", "data.read_cloud", "data.write_detections",
    }
    assert any((span[5] or {}).get("tensor.nodes") for span in rec.spans)
