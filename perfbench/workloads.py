"""The three closed-loop workloads: inputs made from a seed, one op at a
time, and the checks each op's output must pass.

Why these three (each later optimisation needs one workload that
exercises its mechanism and one that bypasses it):

- detect: the user's inference path (read a cloud, detect, write the
  detections). Geometry dominates it (ball query, D-FPS, pairing), and
  untrained scores all clear the threshold, so NMS sees every
  candidate: the worst case for suppression.
- train: one epoch of criterion 6's overfit run per op. Once the
  per-scene decision cache is full, autodiff does the work and
  geometry falls to about 1%: the bypass case for kernel changes and
  the exercise case for autodiff changes.
- probe: one receptive-field probe per op, the paper's central claim.
  It replays a small frozen backbone hundreds of times with no
  backward pass, so per-op overhead in tensor and ssa dominates and
  exchange is a large share of the backbone.

A workload's constructor does its set-up; `run(timer)` calls `timer.ready()` just
before the first timed op, then brackets every op with `timer.begin()`
and `timer.end()` until `timer.expired()`. Checks run outside the timed
op with tracing paused.
"""

from __future__ import annotations

import logging
import math
from pathlib import Path

import numpy as np

from shiftssd import data as DT
from shiftssd import detector as D
from shiftssd import geometry as G
from shiftssd import harness as H
from shiftssd import ssa as S

DETECT_SCENES = 24
TRAIN_SCENES = 8  # criterion 6
TRAIN_EPOCHS = 300  # criterion 6's schedule; the run stops when its time is up
PROBE_SCENES = 20  # criterion 4
PROBE_EPS, PROBE_TOL = 1e-3, 1e-9  # criterion 4


def closed_loop(timer, op, check):
    """Warm up with op 0, then time ops 1, 2, ... until the time is up."""
    failure = check(0, op(0))
    if failure:
        raise RuntimeError(f"warm-up op failed its check: {failure}")
    timer.ready()
    i = 1
    while not timer.expired():
        timer.begin()
        try:
            out = op(i)
        except Exception as err:  # an op that raises is a failed op, not a crash
            timer.end(f"{type(err).__name__}: {err}")
        else:
            timer.end()
            with timer.untraced():
                failure = check(i, out)
            if failure:
                timer.fail(failure)
        i += 1


class Detect:
    def __init__(self, seed: int, workdir: Path):
        self.config = D.default_model_config()
        self.params = D.init_model_params(self.config, seed=G.derive_seed(seed, 1))
        synth = DT.SynthConfig()
        workdir.mkdir(parents=True, exist_ok=True)
        self.clouds, self.outs, self.seeds = [], [], []
        for k in range(DETECT_SCENES):
            scene = DT.generate_scene(synth, seed=G.derive_seed(seed, 2, k))
            path = workdir / f"scene_{k:04d}.bin"
            DT.write_cloud(path, scene.cloud)
            self.clouds.append(path)
            self.outs.append(workdir / f"scene_{k:04d}.jsonl")
            self.seeds.append(G.derive_seed(seed, 3, k))
        self.first_bytes: dict[int, bytes] = {}

    def op(self, i: int) -> int:
        k = i % DETECT_SCENES
        cloud = DT.read_cloud(self.clouds[k])
        dets = D.detect(cloud, self.config, self.params, self.seeds[k])
        DT.write_detections(self.outs[k], f"scene_{k:04d}", dets)
        return k

    def check(self, i: int, k: int) -> str | None:
        blob = self.outs[k].read_bytes()
        if blob != self.first_bytes.setdefault(k, blob):
            return f"scene {k}: detections differ from its first run"
        try:
            dets = [det for _, det in DT.read_detections(self.outs[k])]
        except ValueError as err:  # includes a score outside [0, 1]
            return f"scene {k}: {err}"
        for a in range(len(dets)):
            for b in range(a + 1, len(dets)):
                iou = D.iou3d(dets[a].box, dets[b].box)
                if iou > self.config.nms_iou:
                    return f"scene {k}: kept pair ({a}, {b}) has IoU {iou:.4f} > {self.config.nms_iou}"
        return None

    def run(self, timer) -> None:
        closed_loop(timer, self.op, self.check)

    def details(self) -> dict:
        return {"scenes": DETECT_SCENES}


class _StopTraining(Exception):
    """Raised from the epoch log record to end train_toy when time is up."""


class _EpochClock(logging.Handler):
    """Turns train_toy's per-epoch INFO record into op boundaries."""

    def __init__(self, timer, losses: list[float]):
        super().__init__(logging.INFO)
        self.timer = timer
        self.losses = losses

    def emit(self, record):
        if not (isinstance(record.msg, str) and record.msg.startswith("epoch ")):
            return
        epoch, total, _lr = record.args
        self.losses.append(float(total))
        if epoch == 0:
            self.timer.ready()
        else:
            self.timer.end(None if math.isfinite(total) else f"epoch {epoch}: loss {total}")
        if self.timer.expired():
            raise _StopTraining
        self.timer.begin()


class Train:
    def __init__(self, seed: int, workdir: Path):
        synth = DT.SynthConfig()
        self.scenes = [
            (DT.generate_scene(synth, seed=G.derive_seed(seed, 50, i)), f"scene_{i:04d}")
            for i in range(TRAIN_SCENES)
        ]
        self.model = D.default_model_config(anchors=[tuple(c.mean_size) for c in synth.classes])
        self.train = H.TrainConfig(epochs=TRAIN_EPOCHS, peak_lr=0.01, seed=seed)
        self.losses: list[float] = []  # mean total loss per epoch, epoch 0 first

    def run(self, timer) -> None:
        log = logging.getLogger("shiftssd")
        clock = _EpochClock(timer, self.losses)
        log.addHandler(clock)
        log.setLevel(logging.INFO)
        log.propagate = False
        try:
            H.train_toy(self.scenes, self.model, self.train)
        except _StopTraining:
            pass
        except RuntimeError as err:  # train_toy's non-finite-loss abort
            timer.end(str(err))
        finally:
            log.removeHandler(clock)

    def details(self) -> dict:
        return {
            "epochs_run": len(self.losses),
            "first_loss": self.losses[0] if self.losses else None,
            "final_loss": self.losses[-1] if self.losses else None,
            "losses": self.losses,
        }


def probe_model() -> D.ModelConfig:
    """Criterion 4's two-stage probe model."""

    def stage(radii, width, agg):
        return S.SsaConfig(
            scales=[
                S.ScaleConfig(radius=radii[0], k=4, mlp=[width]),
                S.ScaleConfig(radius=radii[1], k=8, mlp=[width]),
            ],
            shift_ratio=1.0 / 8.0,
            aggregation=[agg],
            exchange_op="cs",
        )

    return D.ModelConfig(
        stage_points=(24, 8),
        stage_ssa=[stage((1.2, 2.4), 16, 16), stage((2.0, 4.0), 16, 16)],
        num_classes=2,
        anchors=[(2.0, 1.2, 1.0), (0.8, 0.8, 1.6)],
        vote_hidden=[12],
        agg_radius=3.0,
        agg_k=8,
        agg_f=[16],
        agg_a=[16],
        head_hidden=[12],
        angle_bins=4,
    )


class Probe:
    """Criterion 4's probe: its model and parameters and its 20 scenes
    with their probe seeds, visited in an order drawn from the seed.

    The scenes are criterion 4's rather than fresh draws because its
    expansion oracle is not a theorem: on about 1 in 80 fresh scenes a
    qualifying cluster does not expand, since the partner reaches the
    far points only through channels that are not donated.
    """

    def __init__(self, seed: int, workdir: Path):
        synth = DT.SynthConfig(
            extent=10.0,
            points_per_scene=96,
            noise_points=40,
            objects_min=1,
            objects_max=2,
            classes=[
                DT.ClassSpec("crate", (2.0, 1.2, 1.0), (0.2, 0.1, 0.1)),
                DT.ClassSpec("post", (0.8, 0.8, 1.6), (0.05, 0.05, 0.1)),
            ],
        )
        self.config = probe_model()
        self.params = D.init_model_params(self.config, seed=3)
        order = np.random.default_rng(seed).permutation(PROBE_SCENES)
        self.clouds = [DT.generate_scene(synth, seed=G.derive_seed(4, 60, int(k))).cloud for k in order]
        self.seeds = [G.derive_seed(4, 61, int(k)) for k in order]
        self.qualifying = 0

    def op(self, i: int):
        k = i % PROBE_SCENES
        report = H.receptive_field_probe(
            self.config, self.params, self.clouds[k], eps=PROBE_EPS, tol=PROBE_TOL, seed=self.seeds[k]
        )
        return k, report

    def check(self, i: int, out) -> str | None:
        k, report = out
        violations = report.plain_containment_violations(self.clouds[k].positions)
        if violations:
            return f"scene {k}: {violations} containment violations without shifting"
        if not report.expanded()[report.qualifying].all():
            return f"scene {k}: a qualifying cluster did not expand"
        self.qualifying += int(report.qualifying.sum())
        return None

    def run(self, timer) -> None:
        closed_loop(timer, self.op, self.check)

    def details(self) -> dict:
        return {"scenes": PROBE_SCENES, "qualifying_clusters": self.qualifying}


WORKLOADS = {"detect": Detect, "train": Train, "probe": Probe}
