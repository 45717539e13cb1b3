"""Benchmark for shiftssd: three closed-loop workloads, end-to-end
metrics from untraced runs, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload detect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout; it imports the library from `src/`
there and starts its workers (`worker.py`) one at a time. The last line
of standard output is a JSON object with every end-to-end metric
(`--trace 0`) or every per-layer metric (`--trace 1`); the lines before
it print the same metrics by name and unit with the machine facts.
README.md defines each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("detect", "train", "probe")
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured per run
TAIL_BEYOND = 10  # ops that must lie beyond the tail percentile
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREADS = "1"  # at most nproc; one op at a time leaves no work for a second
END_TO_END_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop; recorded, never used to rescale."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def machine_facts() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        revision = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shiftssd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
    }


class Run:
    """Starts workers for one workload and seed, one at a time."""

    def __init__(self, workload: str, seed: int, seconds: float, deadline: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = deadline
        self.work = ROOT / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
        self.n = 0

    def worker(self, trace: int, setup_only: int, seconds: float | None = None) -> dict:
        self.n += 1
        out = self.work / f"worker{self.n}.json"
        workdir = self.work / f"worker{self.n}"
        self.work.mkdir(parents=True, exist_ok=True)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(seconds or self.seconds), "--trace", str(trace),
            "--setup-only", str(setup_only), "--workdir", str(workdir), "--out", str(out),
        ]
        t0 = time.monotonic()
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0)], cwd=ROOT, stdout=subprocess.DEVNULL,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
        result = json.loads(out.read_text())
        spans = out.with_suffix(".spans.json.gz")
        if spans.exists():
            results = ROOT / ".bench_work" / "results"
            results.mkdir(parents=True, exist_ok=True)
            spans.replace(results / f"{self.workload}-seed{self.seed}-spans.json.gz")
        shutil.rmtree(workdir, ignore_errors=True)
        return result


def latency_metrics(result: dict) -> dict:
    """Op percentiles over every attempted op, failed ones as infinitely slow."""
    failed = {op for op, _ in result["failures"]}
    ms = sorted(math.inf if i in failed else ns / 1e6 for i, ns in enumerate(result["op_ns"]))
    n = len(ms)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    op_s = sum(result["op_ns"]) / 1e9
    return {
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": ms[tail_index],
        "tail_percentile": 100.0 * tail_index / n if n else 0.0,
        "ops_per_s": (n - len(failed)) / op_s if op_s else 0.0,
        "attempted": n,
        "failed": len(failed),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    run = Run(workload, seed, seconds, deadline)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    record["facts"] = machine_facts()
    record["calibration_ms_start"] = calibration_ms()
    problems = []
    try:
        if trace:  # half the time each, so a traced run takes no longer than an untraced one
            untraced = run.worker(trace=0, setup_only=0, seconds=seconds / 2)
            traced = run.worker(trace=1, setup_only=0, seconds=seconds / 2)
            base, mine = latency_metrics(untraced), latency_metrics(traced)
            metrics = dict(traced["per_layer"])
            metrics["trace.overhead"] = mine["op_ms_p50"] / base["op_ms_p50"]
            record["untraced"], record["traced"] = untraced, traced
            record["facts"]["blas_threads"] = traced["blas_threads"]
            counts = mine
            for result in (untraced, traced):
                problems += [f"op {op}: {why}" for op, why in result["failures"]]
        else:
            # set-up samples before and after the timed worker, so a slow
            # spell of the host does not cover all of them
            setups = [run.worker(trace=0, setup_only=1) for _ in range(SETUP_SAMPLES // 2)]
            timed = run.worker(trace=0, setup_only=0)
            setups += [run.worker(trace=0, setup_only=1) for _ in range((SETUP_SAMPLES - 1) // 2)]
            counts = latency_metrics(timed)
            metrics = {key: counts[key] for key in ("op_ms_p50", "op_ms_tail", "ops_per_s")}
            metrics["peak_rss_mb"] = timed["peak_rss_mb"]
            record["setup_samples_s"] = [w["setup_s"] for w in (*setups, timed)]
            metrics["setup_s"] = statistics.median(record["setup_samples_s"])
            record["main"], record["tail_percentile"] = timed, counts["tail_percentile"]
            record["facts"]["blas_threads"] = timed["blas_threads"]
            problems += [f"op {op}: {why}" for op, why in timed["failures"]]
            if workload == "train":  # the loss trajectory is a pure function of the seed
                firsts = {w["details"]["first_loss"] for w in (*setups, timed)}
                if len(firsts) > 1:
                    problems.append(f"epoch-0 loss differs between processes: {sorted(firsts)}")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    record["calibration_ms_end"] = calibration_ms()
    record["metrics"] = metrics
    record["problems"] = problems
    record["attempted"], record["failed"] = counts["attempted"], counts["failed"]
    record["correct"] = not problems and counts["attempted"] >= 1
    return record


def print_record(record: dict) -> None:
    facts = record["facts"]
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']:g}  "
          f"trace {record['trace']}")
    units = layers.UNITS if record["trace"] else END_TO_END_UNITS
    for name, value in record["metrics"].items():
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{record['tail_percentile']:.1f} of {record['attempted']} ops)"
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_samples_s'])} fresh processes)"
        print(f"  {name:<40} {value:>14.6g} {units[name]}{note}")
    share = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  {'failed_share':<40} {share:>14.6g} ratio  ({record['failed']} of {record['attempted']} ops)")
    if record["workload"] == "train" and not record["trace"]:
        details = record["main"]["details"]
        print(f"  loss: epoch 0 {details['first_loss']!r}, epoch {details['epochs_run'] - 1} "
              f"{details['final_loss']!r}")
    print(f"  machine: nproc {facts['nproc']}, python {facts['python']}, numpy {facts['numpy']}, "
          f"{facts['blas']}, blas threads {facts['blas_threads']}, "
          f"git {facts['git_revision'] or 'n/a'}, src {facts['src_sha256'][:12]}, "
          f"load {' '.join(f'{x:.2f}' for x in facts['loadavg_start'])}, "
          f"calibration {record['calibration_ms_start']:.2f} -> {record['calibration_ms_end']:.2f} ms")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "shiftssd" / "__init__.py").is_file():
        print(f"no shiftssd sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads, here and in every worker
    os.environ["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every worker
    start = time.monotonic()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        limit = RUN_LIMIT_S if args.workload != "all" else RUN_LIMIT_S * len(WORKLOADS)
        record = run_workload(name, args.seed, args.seconds, args.trace, start + limit)
        results = ROOT / ".bench_work" / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        print_record(record)
        records.append(record)
    prefix = len(records) > 1
    metrics = {}
    units = layers.UNITS if args.trace else END_TO_END_UNITS
    for record in records:
        for name, value in record["metrics"].items():
            key = f"{record['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
