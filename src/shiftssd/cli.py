"""Command-line entry point.

Subcommands: `gen` (synthetic dataset), `train`, `detect`, `probe`,
`bench`, `ablate`, and `gradcheck`. Every run requires --seed, resolves
its configuration as flags over config file over built-in defaults, and
writes a JSON manifest recording the resolved configuration, seed, git
revision, output paths, and wall time. Exit codes: 0 success, 1 usage
error, 2 runtime failure. The SHIFTSSD_LOG environment variable
(error / info / debug) controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import subprocess
import sys
import time
import types
import typing
from pathlib import Path

from . import data as DT
from . import detector as D
from . import geometry as G
from . import harness as H
from . import ssa as S
from . import tensor as T

log = logging.getLogger("shiftssd")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config serialization (JSON keys are exactly the dataclass field names)


def config_to_dict(obj) -> dict:
    """JSON-ready dict of a config dataclass, nested ones included; tuples become lists."""

    def plain(value):
        if dataclasses.is_dataclass(value):
            return config_to_dict(value)
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        return value

    return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def config_from_dict(cls, d, path: str | None = None):
    """Inverse of config_to_dict; also decodes the field types nested in it.
    A missing key takes the field default. An unknown key, a wrong type or a
    value the dataclass rejects raises ValueError naming its dotted path,
    which starts at `path` (default: the class name)."""
    path = path or cls.__name__
    if dataclasses.is_dataclass(cls):
        if not isinstance(d, dict):
            raise ValueError(f"{path}: expected an object, got {type(d).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - set(fields))
        if unknown:
            raise ValueError(f"{path}.{unknown[0]}: unknown key")
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for name, f in fields.items():
            if name in d:
                kwargs[name] = config_from_dict(hints[name], d[name], f"{path}.{name}")
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"{path}.{name}: missing key")
        try:
            return cls(**kwargs)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin in (typing.Union, types.UnionType):
        if d is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return config_from_dict(inner, d, path)
    if origin in (list, tuple):
        if not isinstance(d, (list, tuple)):
            raise ValueError(f"{path}: expected a list, got {type(d).__name__}")
        if origin is list or args[-1] is Ellipsis:
            args = [args[0]] * len(d)
        elif len(d) != len(args):
            raise ValueError(f"{path}: expected {len(args)} items, got {len(d)}")
        items = [config_from_dict(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, d))]
        return items if origin is list else tuple(items)
    if cls is float and type(d) in (int, float):
        return float(d)
    if cls in (int, str) and type(d) is cls:
        return d
    raise ValueError(f"{path}: expected {cls.__name__}, got {type(d).__name__}")


def _load_config_file(path: str | None) -> tuple[D.ModelConfig | None, DT.SynthConfig, H.TrainConfig]:
    """(model, synth, train) from a --config file. An absent model is None;
    absent synth and train sections take the dataclass defaults."""
    payload = {}
    if path:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read config file {path}: {err}") from err
        if not isinstance(payload, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
    try:
        unknown = sorted(set(payload) - {"model", "synth", "train"})
        if unknown:
            raise ValueError(f"{unknown[0]}: unknown key")
        model = config_from_dict(D.ModelConfig, payload["model"], "model") if "model" in payload else None
        synth = config_from_dict(DT.SynthConfig, payload.get("synth", {}), "synth")
        train = config_from_dict(H.TrainConfig, payload.get("train", {}), "train")
    except ValueError as err:
        raise UsageError(f"config file {path}: {err}") from err
    return model, synth, train


def anchors_from_synth(synth: DT.SynthConfig) -> list[tuple[float, float, float]]:
    return [tuple(spec.mean_size) for spec in synth.classes]


# ---------------------------------------------------------------------------
# manifests


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _atomic_write(path, write) -> None:
    """Run write(tmp) on a sibling temp file, then move it over path, so
    path holds either its old bytes or the complete new file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path, payload: dict) -> None:
    _atomic_write(path, lambda tmp: tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n"))


class ManifestWriter:
    """Collects run metadata and writes it atomically on success or
    handled failure."""

    def __init__(self, subcommand: str, seed: int, resolved_config: dict, path: Path):
        self.path = Path(path)
        self.record = {
            "subcommand": subcommand,
            "seed": seed,
            "config": resolved_config,
            "git": _git_describe(),
            "outputs": [],
            "status": "running",
        }
        self._start = time.perf_counter()

    def add_output(self, path) -> None:
        self.record["outputs"].append(str(path))

    def finish(self, status: str, error: str | None = None) -> None:
        self.record["status"] = status
        if error:
            self.record["error"] = error
        self.record["wall_time_s"] = round(time.perf_counter() - self._start, 6)
        _write_json(self.path, self.record)


def _run_with_manifest(subcommand, seed, resolved, manifest_path, body) -> None:
    writer = ManifestWriter(subcommand, seed, resolved, manifest_path)
    try:
        body(writer)
    except Exception as err:
        writer.finish("failed", error=str(err))
        raise
    writer.finish("ok")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    _, synth, _ = _load_config_file(args.config)
    for flag, attr in (
        ("points", "points_per_scene"),
        ("noise", "noise_points"),
        ("extent", "extent"),
        ("objects_min", "objects_min"),
        ("objects_max", "objects_max"),
    ):
        value = getattr(args, flag)
        if value is not None:
            setattr(synth, attr, value)
    synth.__post_init__()
    out_dir = Path(args.out)
    resolved = {"synth": config_to_dict(synth), "scenes": args.scenes}

    def body(writer):
        out_dir.mkdir(parents=True, exist_ok=True)
        for i in range(args.scenes):
            sid = f"scene_{i:04d}"
            scene = DT.generate_scene(synth, seed=G.derive_seed(args.seed, 50, i))
            DT.write_scene(out_dir, sid, scene)
            writer.add_output(out_dir / f"{sid}.bin")
            writer.add_output(out_dir / f"{sid}.json")
        log.info("wrote %d scenes to %s", args.scenes, out_dir)

    _run_with_manifest("gen", args.seed, resolved, out_dir / "manifest.json", body)
    return 0


def cmd_train(args) -> int:
    model, synth, train = _load_config_file(args.config)
    scenes = DT.dataset(args.data)
    if model is None:
        # anchors default to the class mean sizes of the generator config
        anchors = anchors_from_synth(synth)
        model = D.default_model_config(num_classes=len(anchors), anchors=anchors)
    train.seed = args.seed
    if args.epochs is not None:
        train.epochs = args.epochs
    if args.lr is not None:
        train.peak_lr = args.lr

    out_dir = Path(args.out)
    ckpt = out_dir / "model.ckpt"
    loss_csv = out_dir / "loss.csv"
    resolved = {"model": config_to_dict(model), "train": config_to_dict(train)}

    def body(writer):
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            result = H.train_toy(scenes, model, train)
        except H.TrainingAborted as err:
            dump = out_dir / "model.ckpt.failure.json"
            _write_json(dump, {
                "reason": err.reason, "epoch": err.epoch,
                "scene_id": err.scene_id, "last_rows": err.last_rows,
            })
            log.error("training aborted; diagnostics in %s", dump)
            raise
        meta = {"model_config": resolved["model"], "train_config": resolved["train"]}
        _atomic_write(ckpt, lambda tmp: T.save_checkpoint(tmp, result.params.named(), meta=meta))
        _atomic_write(loss_csv, lambda tmp: H.write_history_csv(tmp, result.history))
        writer.add_output(ckpt)
        writer.add_output(loss_csv)
        ratio = result.final_loss / max(result.first_epoch_loss, 1e-12)
        print(
            f"trained {train.epochs} epochs on {len(scenes)} scenes: "
            f"loss {result.first_epoch_loss:.4f} -> {result.final_loss:.4f} "
            f"(x{ratio:.3f})"
        )

    _run_with_manifest("train", args.seed, resolved, out_dir / "manifest.json", body)
    return 0


def _load_model(path) -> tuple[D.ModelConfig, D.ModelParams]:
    arrays, meta = T.load_checkpoint(path)
    if "model_config" not in meta:
        raise ValueError(f"checkpoint {path} carries no model config")
    config = config_from_dict(D.ModelConfig, meta["model_config"], "model_config")
    params = D.init_model_params(config, seed=0)
    T.load_into(params.named(), arrays)
    return config, params


def cmd_detect(args) -> int:
    config, params = _load_model(args.model)
    if args.score_threshold is not None:
        config.score_threshold = args.score_threshold
    if args.nms_iou is not None:
        config.nms_iou = args.nms_iou
    cloud = DT.read_cloud(args.input)
    out_path = Path(args.out)
    resolved = {"model": config_to_dict(config)}

    def body(writer):
        dets = D.detect(cloud, config, params, args.seed)
        scene_id = Path(args.input).stem
        _atomic_write(out_path, lambda tmp: DT.write_detections(tmp, scene_id, dets))
        writer.add_output(out_path)
        print(f"{len(dets)} detections -> {out_path}")

    _run_with_manifest(
        "detect", args.seed, resolved,
        out_path.with_name(out_path.name + ".manifest.json"), body,
    )
    return 0


def cmd_probe(args) -> int:
    config, params = _load_model(args.model)
    scenes = DT.dataset(args.data)
    if args.scenes is not None:
        scenes = scenes[: args.scenes]
    out_path = Path(args.out)
    resolved = {
        "model": config_to_dict(config),
        "eps": args.eps,
        "tol": args.tol,
        "scenes": len(scenes),
    }

    def body(writer):
        rows = []
        for idx, (scene, sid) in enumerate(scenes):
            report = H.receptive_field_probe(
                config, params, scene.cloud, eps=args.eps, tol=args.tol,
                seed=H.scene_seed(args.seed, idx),
            )
            violations = report.plain_containment_violations(scene.cloud.positions)
            for c in range(report.cluster_positions.shape[0]):
                rows.append(
                    [
                        sid, c,
                        f"{report.radius_shift[c]:.6f}",
                        f"{report.radius_plain[c]:.6f}",
                        int(report.pairing[c]),
                        int(report.qualifying[c]),
                        int(report.expanded()[c]),
                        f"{report.composed_reach:.6f}",
                        violations,
                    ]
                )
            log.info("probe %s: %s", sid, report.summary())

        def write(tmp):
            with open(tmp, "w", newline="") as fh:
                writer_csv = csv.writer(fh)
                writer_csv.writerow(
                    [
                        "scene_id", "cluster", "radius_shift", "radius_plain",
                        "pairing", "qualifying", "expanded", "composed_reach",
                        "plain_violations",
                    ]
                )
                writer_csv.writerows(rows)

        _atomic_write(out_path, write)
        writer.add_output(out_path)
        print(f"probed {len(scenes)} scenes -> {out_path}")

    _run_with_manifest(
        "probe", args.seed, resolved,
        out_path.with_name(out_path.name + ".manifest.json"), body,
    )
    return 0


def cmd_bench(args) -> int:
    model, _, _ = _load_config_file(args.config)
    scenes = DT.dataset(args.data)
    clouds = [scene.cloud for scene, _ in scenes]
    cs_cfg = model or D.default_model_config()
    none_cfg = H._strip_exchange(cs_cfg)
    out_path = Path(args.out)
    resolved = {"model": config_to_dict(cs_cfg), "repetitions": args.reps}

    def body(writer):
        variants = [
            ("cs", cs_cfg, D.init_model_params(cs_cfg, seed=args.seed)),
            ("none", none_cfg, D.init_model_params(none_cfg, seed=args.seed)),
        ]
        report = H.latency_bench(variants, clouds, repetitions=args.reps, seed=args.seed)
        _atomic_write(out_path, lambda tmp: H.write_bench_csv(tmp, report))
        writer.add_output(out_path)
        for row in report.rows:
            print(
                f"{row.name}: median {row.median_ms:.2f} ms, "
                f"mean {row.mean_ms:.2f} ms, {row.param_count} params"
            )

    _run_with_manifest(
        "bench", args.seed, resolved,
        out_path.with_name(out_path.name + ".manifest.json"), body,
    )
    return 0


def cmd_ablate(args) -> int:
    _, synth, train = _load_config_file(args.config)
    scenes = DT.dataset(args.data)
    train.seed = args.seed
    if args.epochs is not None:
        train.epochs = args.epochs
    axes = None if args.axis == "all" else [args.axis]
    out_path = Path(args.out)
    anchors = anchors_from_synth(synth)

    def factory(ratio, selection, exchange):
        return D.default_model_config(
            num_classes=len(anchors),
            anchors=anchors,
            exchange_op=exchange,
            selection=selection,
            shift_ratio=ratio,
        )

    resolved = {"train": config_to_dict(train), "axes": axes or ["ratio", "selection", "exchange"]}

    def body(writer):
        report = H.run_ablation(scenes, factory, train, axes=axes)
        _atomic_write(out_path, lambda tmp: H.write_ablation_csv(tmp, report))
        writer.add_output(out_path)
        for cell in report.cells:
            metric = f"recall {cell.recall:.3f} loss {cell.mean_loss:.4f}" if cell.status == "ok" else cell.detail
            print(f"{cell.axis}={cell.value}: {cell.status} {metric}")

    _run_with_manifest(
        "ablate", args.seed, resolved,
        out_path.with_name(out_path.name + ".manifest.json"), body,
    )
    return 0


def cmd_gradcheck(args) -> int:
    resolved = {"eps": args.eps, "tol": args.tol}
    worst_holder = {}

    def body(writer):
        errors = H.gradcheck_suite(args.seed, eps=args.eps)
        for name, err in errors.items():
            print(f"{name}: {err:.3e}")
        worst = max(errors.values())
        worst_holder["worst"] = worst
        print(f"worst relative error: {worst:.3e} (tolerance {args.tol:.1e})")

    manifest_path = Path(args.manifest) if args.manifest else Path("gradcheck.manifest.json")
    _run_with_manifest("gradcheck", args.seed, resolved, manifest_path, body)
    if worst_holder["worst"] >= args.tol:
        print("gradcheck FAILED", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="shiftssd", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, required=True, help="master random seed")
        p.add_argument("--config", type=str, default=None, help="JSON config file")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    add_common(p)
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--noise", type=int, default=None)
    p.add_argument("--extent", type=float, default=None)
    p.add_argument("--objects-min", dest="objects_min", type=int, default=None)
    p.add_argument("--objects-max", dest="objects_max", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="overfit the toy detector on a dataset")
    add_common(p)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run detection on one scene file")
    add_common(p)
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--in", dest="input", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--score-threshold", dest="score_threshold", type=float, default=None)
    p.add_argument("--nms-iou", dest="nms_iou", type=float, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("probe", help="measure receptive radii by perturbation")
    add_common(p)
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--scenes", type=int, default=None)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("bench", help="forward latency and parameter counts")
    add_common(p)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--reps", type=int, default=20)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", help="one-axis-at-a-time ablation sweep")
    add_common(p)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--axis", choices=["ratio", "selection", "exchange", "all"], default="all")
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    add_common(p)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--manifest", type=str, default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("SHIFTSSD_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        level_name = "error"
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.handlers.clear()
    log.addHandler(handler)
    log.setLevel(levels[level_name])


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        log.debug("runtime failure", exc_info=True)
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
