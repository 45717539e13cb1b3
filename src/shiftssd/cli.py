"""Command-line entry point.

Subcommands: `gen` (synthetic dataset), `train`, `detect`, `probe`,
`bench`, `ablate`, and `gradcheck`. Every run requires --seed, resolves
its configuration as flags (only --epochs, --lr and --score-threshold)
over config file or checkpoint over built-in defaults, each validated by
its config dataclass, and writes a JSON manifest recording the resolved
configuration, seed, git revision, machine facts (core count, Python and
numpy versions), output paths, and wall time. Exit codes: 0 success, 1
usage error, 2 runtime failure. The SHIFTSSD_LOG environment variable (error / info / debug) controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import platform
import subprocess
import sys
import time
import types
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import data as DT
from . import detector as D
from . import geometry as G
from . import harness as H
from . import losses as L
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


def config_from_dict(cls, d, path: str | None = None):
    """Inverse of dataclasses.asdict; also decodes the field types nested in it.
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
        try:
            return float(d)
        except OverflowError as err:  # an int beyond the float range
            raise ValueError(f"{path}: {err}") from err
    if cls in (int, str) and type(d) is cls:
        return d
    raise ValueError(f"{path}: expected {cls.__name__}, got {type(d).__name__}")


def _load_config_file(path: str | None) -> tuple[D.ModelConfig, DT.SynthConfig, H.TrainConfig]:
    """(model, synth, train) from a --config file. Absent synth and train
    sections take the dataclass defaults, and an absent model is the default
    model anchored at the synth class mean sizes. A `train.seed` key is
    rejected: --seed sets the seed."""
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
        train = payload.get("train", {})
        if isinstance(train, dict) and "seed" in train:
            raise ValueError("train.seed: not a config key; the seed comes only from --seed")
        train = config_from_dict(H.TrainConfig, train, "train")
    except ValueError as err:
        raise UsageError(f"config file {path}: {err}") from err
    if model is None:
        model = D.default_model_config([tuple(spec.mean_size) for spec in synth.classes])
    return model, synth, train


def _override(config, args, fields: dict[str, str]):
    """A copy of config with each flag in fields ({dest: field name}) that
    was given replacing its field, one flag at a time. The dataclass
    validates each as it does a --config value; the first it rejects is a
    UsageError naming that flag."""
    for dest, name in fields.items():
        value = getattr(args, dest, None)
        if value is not None:
            try:
                config = dataclasses.replace(config, **{name: value})
            except ValueError as err:
                raise UsageError(f"--{dest.replace('_', '-')}: {err}") from err
    return config


def _train_setup(args) -> tuple[D.ModelConfig, H.TrainConfig]:
    """The --config model and the --config TrainConfig under --seed/--epochs/--lr."""
    model, _, train = _load_config_file(args.config)
    return model, _override(train, args, {"seed": "seed", "epochs": "epochs", "lr": "peak_lr"})


def _training_scenes(data_dir, model: D.ModelConfig) -> list[tuple[DT.Scene, str]]:
    """The dataset under data_dir, checked before any output is written: a
    label whose class the model lacks is an error naming its label file."""
    scenes = DT.dataset(data_dir)
    for scene, sid in scenes:
        try:
            H.check_label_classes(scene.objects, model.num_classes)
        except ValueError as err:
            raise ValueError(f"{Path(data_dir) / f'{sid}.json'}: {err}") from err
    return scenes


# ---------------------------------------------------------------------------
# manifests


def _git_describe() -> str:
    """The revision of the checkout this package runs from, whatever the
    working directory; "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, cwd=Path(__file__).resolve().parent,
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
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


@contextmanager
def _manifest(args, resolved: dict, path=None):
    """Run the block under a manifest of args.subcommand and args.seed. The
    block writes each output through the yielded write(path, write_fn),
    which writes path atomically and then lists it as an output. The
    manifest goes to path (default <args.out>.manifest.json), atomically,
    when the block ends and when it raises an Exception, which is re-raised."""
    if path is None:
        out = Path(args.out)
        path = out.with_name(out.name + ".manifest.json")
    record = {
        "subcommand": args.subcommand,
        "seed": args.seed,
        "config": resolved,
        "git": _git_describe(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "outputs": [],
    }
    start = time.perf_counter()

    def write(out_path, write_fn) -> None:
        _atomic_write(out_path, write_fn)
        record["outputs"].append(str(out_path))

    def finish(status: str, error: str = "") -> None:
        record["status"] = status
        if error:
            record["error"] = error
        record["wall_time_s"] = round(time.perf_counter() - start, 6)
        _atomic_write(path, lambda tmp: _write_json(tmp, record))

    try:
        yield write
    except Exception as err:
        finish("failed", str(err))
        raise
    finish("ok")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    _, synth, _ = _load_config_file(args.config)
    out_dir = Path(args.out)
    resolved = {"synth": dataclasses.asdict(synth), "scenes": args.scenes}
    with _manifest(args, resolved, out_dir / "manifest.json") as write:
        for i in range(args.scenes):
            sid = f"scene_{i:04d}"
            scene = DT.generate_scene(synth, seed=G.derive_seed(args.seed, 50, i))
            write(out_dir / f"{sid}.bin", lambda tmp: DT.write_cloud(tmp, scene.cloud))
            write(out_dir / f"{sid}.json", lambda tmp: DT.write_labels(tmp, scene.objects))
        log.info("wrote %d scenes to %s", args.scenes, out_dir)
    return 0


def cmd_train(args) -> int:
    model, train = _train_setup(args)
    scenes = _training_scenes(args.data, model)
    out_dir = Path(args.out)
    resolved = {"model": dataclasses.asdict(model), "train": dataclasses.asdict(train)}
    with _manifest(args, resolved, out_dir / "manifest.json") as write:
        try:
            result = H.train_toy(scenes, model, train)
        except H.TrainingAborted as err:
            dump = out_dir / "model.ckpt.failure.json"
            write(dump, lambda tmp: _write_json(tmp, {
                "reason": err.reason, "epoch": err.epoch,
                "scene_id": err.scene_id, "last_rows": err.last_rows,
            }))
            log.error("training aborted; diagnostics in %s", dump)
            raise
        meta = {"model_config": resolved["model"], "train_config": resolved["train"]}
        write(out_dir / "model.ckpt", lambda tmp: T.save_checkpoint(tmp, result.params.named(), meta=meta))
        write(out_dir / "loss.csv", lambda tmp: H.write_history_csv(tmp, result.history))
        ratio = result.final_loss / max(result.first_epoch_loss, 1e-12)
        print(
            f"trained {train.epochs} epochs on {len(scenes)} scenes: "
            f"loss {result.first_epoch_loss:.4f} -> {result.final_loss:.4f} "
            f"(x{ratio:.3f})"
        )
    return 0


# model_config keys that older checkpoints record, each with the one value the code now fixes
RETIRED_MODEL_KEYS = {"in_channels": D.CLOUD_CHANNELS, "assign_margin": L.ASSIGN_MARGIN}


def _load_model(path) -> tuple[D.ModelConfig, D.ModelParams]:
    """The model a checkpoint records. A retired key holding its fixed
    value (of the same JSON type) is dropped; any other value stays an
    unknown key. A config or tensor the model rejects names the file."""
    arrays, meta = T.load_checkpoint(path)
    if "model_config" not in meta:
        raise ValueError(f"checkpoint {path} carries no model config")
    recorded = meta["model_config"]
    if isinstance(recorded, dict):
        recorded = {
            k: v for k, v in recorded.items()
            if not (k in RETIRED_MODEL_KEYS and type(v) is type(RETIRED_MODEL_KEYS[k]) and v == RETIRED_MODEL_KEYS[k])
        }
    try:
        config = config_from_dict(D.ModelConfig, recorded, "model_config")
        params = D.init_model_params(config, seed=0)
        T.load_into(params.named(), arrays)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    return config, params


def cmd_detect(args) -> int:
    config, params = _load_model(args.model)
    config = _override(config, args, {"score_threshold": "score_threshold"})
    cloud = DT.read_cloud(args.input)
    out_path = Path(args.out)
    with _manifest(args, {"model": dataclasses.asdict(config)}) as write:
        dets = D.detect(cloud, config, params, args.seed)
        scene_id = Path(args.input).stem
        write(out_path, lambda tmp: DT.write_detections(tmp, scene_id, dets))
        print(f"{len(dets)} detections -> {out_path}")
    return 0


def cmd_probe(args) -> int:
    config, params = _load_model(args.model)
    scenes = DT.dataset(args.data)
    if args.scenes is not None:
        scenes = scenes[: args.scenes]
    out_path = Path(args.out)
    with _manifest(args, {"model": dataclasses.asdict(config), "scenes": len(scenes)}) as write:
        rows = []
        for idx, (scene, sid) in enumerate(scenes):
            report = H.receptive_field_probe(
                config, params, scene.cloud, eps=H.PROBE_EPS, tol=H.PROBE_TOL,
                seed=H.scene_seed(args.seed, idx),
            )
            violations = report.plain_containment_violations(scene.cloud.positions)
            expanded = report.expanded()
            for c in range(report.cluster_positions.shape[0]):
                rows.append(
                    [
                        sid, c,
                        f"{report.radius_shift[c]:.6f}",
                        f"{report.radius_plain[c]:.6f}",
                        int(report.pairing[c]),
                        int(report.qualifying[c]),
                        int(expanded[c]),
                        f"{report.composed_reach:.6f}",
                        violations,
                    ]
                )
            log.info("probe %s: %s", sid, report.summary())
        header = [
            "scene_id", "cluster", "radius_shift", "radius_plain", "pairing",
            "qualifying", "expanded", "composed_reach", "plain_violations",
        ]
        write(out_path, lambda tmp: H.write_csv(tmp, header, rows))
        print(f"probed {len(scenes)} scenes -> {out_path}")
    return 0


def cmd_bench(args) -> int:
    cs_cfg, _, _ = _load_config_file(args.config)
    scenes = DT.dataset(args.data)
    clouds = [scene.cloud for scene, _ in scenes]
    none_cfg = D.with_stage_fields(cs_cfg, exchange_op="none")
    out_path = Path(args.out)
    with _manifest(args, {"model": dataclasses.asdict(cs_cfg), "repetitions": args.reps}) as write:
        variants = [
            ("cs", cs_cfg, D.init_model_params(cs_cfg, seed=args.seed)),
            ("none", none_cfg, D.init_model_params(none_cfg, seed=args.seed)),
        ]
        report = H.latency_bench(variants, clouds, repetitions=args.reps, seed=args.seed)
        write(out_path, lambda tmp: H.write_bench_csv(tmp, report))
        for row in report.rows:
            print(
                f"{row.name}: median {row.median_ms:.2f} ms, "
                f"mean {row.mean_ms:.2f} ms, {row.param_count} params"
            )
    return 0


def cmd_ablate(args) -> int:
    base, train = _train_setup(args)
    scenes = _training_scenes(args.data, base)
    axes = None if args.axis == "all" else [args.axis]
    out_path = Path(args.out)
    resolved = {
        "model": dataclasses.asdict(base),
        "train": dataclasses.asdict(train),
        "axes": axes or list(H.ABLATION_AXES),
    }
    with _manifest(args, resolved) as write:
        report = H.run_ablation(scenes, base, train, axes=axes)
        write(out_path, lambda tmp: H.write_ablation_csv(tmp, report))
        for cell in report.cells:
            metric = f"recall {cell.recall:.3f} loss {cell.mean_loss:.4f}" if cell.status == "ok" else cell.detail
            print(f"{cell.axis}={cell.value}: {cell.status} {metric}")
    return 0


def cmd_gradcheck(args) -> int:
    with _manifest(args, {}, args.manifest or "gradcheck.manifest.json"):
        errors = H.gradcheck_suite(args.seed)
        for name, err in errors.items():
            print(f"{name}: {err:.3e}")
        worst = max(errors.values())
        print(f"worst relative error: {worst:.3e} (tolerance {H.GRADCHECK_TOL:.1e})")
    if worst >= H.GRADCHECK_TOL:
        print("gradcheck FAILED", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


def _int_at_least(low: int):
    """An argparse type for an int of at least `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="shiftssd", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, config: bool = False):
        p.add_argument("--seed", type=int, required=True, help="master random seed")
        if config:
            p.add_argument("--config", type=str, default=None, help="JSON config file")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    add_common(p, config=True)
    p.add_argument("--scenes", type=_int_at_least(1), required=True)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="overfit the toy detector on a dataset")
    add_common(p, config=True)
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
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("probe", help="measure receptive radii by perturbation")
    add_common(p)
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--scenes", type=_int_at_least(1), default=None)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("bench", help="forward latency and parameter counts")
    add_common(p, config=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--reps", type=_int_at_least(H.MIN_REPETITIONS), default=20)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", help="one-axis-at-a-time ablation sweep")
    add_common(p, config=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--axis", choices=[*H.ABLATION_AXES, "all"], default="all")
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    add_common(p)
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
