"""In-memory span recorder and the attribute wrappers that feed it.

A span is one call into a layer's public function: its name, start and
end (perf_counter_ns), the index of the span that was open when it
started (its parent), the op it belongs to, and any counts measured at
that boundary. Spans stay in a list until the run ends; nothing is
written while ops are timed.

Layers are timed from outside: `install` replaces module attributes
(`geometry.ball_query`, `tensor.Tensor.backward`, ...) with wrappers.
The library's modules reach each other through those attributes and
reach their own functions through their module globals, which are the
same attributes, so every call goes through a wrapper.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Recorder:
    """Spans of one process, grouped into ops.

    `spans` holds `[name, start, end, parent, op, counts]` lists; parent
    is an index into `spans` or None for a span opened at op level, and
    op is None for spans recorded outside any op (set-up). `ops` maps
    an op id to its (start, end).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.ops: dict[int, tuple[int, int]] = {}
        self.enabled = True
        self._stack: list[int] = []
        self._ordinals: list[dict[str, int]] = [{}]
        self._op: int | None = None
        self._op_start = 0
        self._loose: dict[int | None, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id: int, start_ns: int | None = None) -> None:
        self._op = op_id
        self._op_start = _now() if start_ns is None else start_ns
        self._ordinals[0] = {}

    def end_op(self, end_ns: int | None = None) -> None:
        self.ops[self._op] = (self._op_start, _now() if end_ns is None else end_ns)
        self._op = None

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _now(), 0, parent, self._op, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._ordinals.append({})
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack.pop()
        self._ordinals.pop()

    def add(self, key: str, n: int = 1) -> None:
        """Add n to a count on the innermost open span (or the op itself)."""
        if self._stack:
            span = self.spans[self._stack[-1]]
            if span[5] is None:
                span[5] = {}
            span[5][key] = span[5].get(key, 0) + n
        else:
            self._loose[self._op][key] += n

    def ordinal(self, key: str) -> int:
        """How many earlier calls of `key` the innermost open span has
        made (or the current op, at its top level); counts this one."""
        seen = self._ordinals[-1]
        n = seen.get(key, 0)
        seen[key] = n + 1
        return n

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the part of it that child spans cover."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        out = []
        for i, span in enumerate(self.spans):
            out.append(span[2] - span[1] - _covered(span[1], span[2], children.get(i, ())))
        return out

    def per_op(self) -> dict[int, dict[str, float]]:
        """For each op: per span name its total_ns, self_ns and calls,
        every count summed over the op's spans, and the op's own
        duration (`op_ns`) and the part root spans cover (`covered_ns`)."""
        selfs = self.self_times()
        table: dict[int, dict[str, float]] = {
            op: defaultdict(float, op_ns=end - start) for op, (start, end) in self.ops.items()
        }
        roots: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span, self_ns in zip(self.spans, selfs):
            name, start, end, parent, op, counts = span
            if op not in table:
                continue
            row = table[op]
            row[name + ".total_ns"] += end - start
            row[name + ".self_ns"] += self_ns
            row[name + ".calls"] += 1
            for key, n in (counts or {}).items():
                row[key] += n
            if parent is None:
                roots[op].append((start, end))
        for op, row in table.items():
            start, end = self.ops[op]
            row["covered_ns"] = _covered(start, end, roots.get(op, ()))
            for key, n in self._loose.get(op, {}).items():
                row[key] += n
        return table

    def dump(self) -> dict:
        """Plain-data form of every span and op, for writing out at the end."""
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "op", "counts"],
            "spans": self.spans,
            "ops": {str(op): list(bounds) for op, bounds in self.ops.items()},
        }


def _merged(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, n in b.items():
        out[key] = out.get(key, 0) + n
    return out


def _covered(start: int, end: int, intervals) -> int:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


# ---------------------------------------------------------------------------
# attribute wrappers


def timed(rec: Recorder, fn, name, counter=None):
    """Wrap fn in a span. `name` is a string or a callable(rec) giving
    one; `counter(args, kwargs, result)` returns counts to attach, measured after
    the span has closed so the counting is not timed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        index = rec.open(name if isinstance(name, str) else name(rec))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if counter is not None:
            counts = counter(args, kwargs, result)
            span = rec.spans[index]
            span[5] = counts if span[5] is None else _merged(span[5], counts)
        return result

    return wrapper


def counted(rec: Recorder, fn, key: str):
    """Wrap fn so each call adds 1 to `key` on the innermost open span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.enabled:
            rec.add(key)
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder, plan) -> None:
    """Apply (owner, attr, make_wrapper) entries: owner.attr becomes
    make_wrapper(rec, owner.attr)."""
    for owner, attr, make in plan:
        setattr(owner, attr, make(rec, owner.__dict__[attr]))
