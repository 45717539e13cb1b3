"""One fresh process that sets up one workload and, unless it only
measures set-up, runs its timed ops. `run.py` starts it and reads the
JSON it writes to `--out`.

    python3 perfbench/worker.py --workload detect --seed 1 --seconds 20 \\
        --trace 0 --setup-only 0 --t0 <time.monotonic() at spawn> \\
        --workdir <dir> --out <file>

BLAS threads are set by the parent through the environment before
numpy loads here. Nothing between ops collects garbage or otherwise
tidies up: each op's autodiff graph is a reference cycle that only the
cyclic collector frees, and peak memory should show that.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import json
import resource
import sys
import time
from pathlib import Path

import layers
from spans import Recorder, install

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class SetupDone(Exception):
    """Ends a set-up-only process at the first timed op."""


class Timer:
    """Op clock shared by the closed loop and the training epoch hook.

    Op durations come from perf_counter_ns; set-up is measured on the
    monotonic clock against the parent's spawn time, which is the same
    clock in every process.
    """

    def __init__(self, t0: float, seconds: float, setup_only: bool, rec=None):
        self.t0 = t0
        self.seconds = seconds
        self.setup_only = setup_only
        self.rec = rec
        self.setup_s = None
        self.deadline = None
        self.op_ns: list[int] = []
        self.failures: list[tuple[int, str]] = []
        self._start = None

    def ready(self) -> None:
        self.setup_s = time.monotonic() - self.t0
        if self.setup_only:
            raise SetupDone
        self.deadline = time.perf_counter_ns() + int(self.seconds * 1e9)

    def expired(self) -> bool:
        return time.perf_counter_ns() >= self.deadline

    def begin(self) -> None:
        self._start = time.perf_counter_ns()
        if self.rec is not None:
            self.rec.begin_op(len(self.op_ns), self._start)

    def end(self, failure: str | None = None) -> None:
        if self._start is None:
            raise RuntimeError(f"op ended before it began: {failure}")
        now = time.perf_counter_ns()
        if self.rec is not None:
            self.rec.end_op(now)
        self.op_ns.append(now - self._start)
        self._start = None
        if failure:
            self.fail(failure)

    def fail(self, reason: str) -> None:
        """Mark the op that ended last as failed."""
        self.failures.append((len(self.op_ns) - 1, reason))

    @contextlib.contextmanager
    def untraced(self):
        if self.rec is None:
            yield
            return
        self.rec.enabled = False
        try:
            yield
        finally:
            self.rec.enabled = True


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    import shiftssd
    from shiftssd import data as DT
    from shiftssd import detector as D
    from shiftssd import geometry as G
    from shiftssd import harness as H
    from shiftssd import losses as L
    from shiftssd import ssa as S
    from shiftssd import tensor as T

    if Path(shiftssd.__file__).resolve().parent != ROOT / "src" / "shiftssd":
        raise SystemExit(f"imported shiftssd from {shiftssd.__file__}, not from this checkout")

    rec = None
    if args.trace:
        rec = Recorder()
        install(rec, layers.plan(G, S, T, D, L, H, DT))

    from workloads import WORKLOADS

    timer = Timer(args.t0, args.seconds, bool(args.setup_only), rec)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        workload.run(timer)
    except SetupDone:
        pass
    result = {
        "setup_s": timer.setup_s,
        "op_ns": timer.op_ns,
        "failures": timer.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "details": workload.details(),
    }
    if rec is not None and not args.setup_only:
        result["per_layer"] = layers.per_layer(rec)
        with gzip.open(args.out.with_suffix(".spans.json.gz"), "wt") as fh:
            json.dump(rec.dump(), fh)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
