"""Span bookkeeping on a synthetic nested call, with a fake clock.

    python3 -m pytest perfbench/test_spans.py
"""

import itertools
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


@pytest.fixture
def clock(monkeypatch):
    """perf_counter_ns that advances by 10 ns each time it is read."""
    ticks = itertools.count(0, 10)
    monkeypatch.setattr(spans, "_now", lambda: next(ticks))


def _module(rec):
    """outer -> inner, inner through module attributes, as the library calls."""
    mod = types.SimpleNamespace()
    mod.inner = lambda n: n
    mod.outer = lambda n: mod.inner(n) + mod.inner(n + 1)
    spans.install(rec, [
        (mod, "inner", lambda r, fn: spans.timed(r, fn, "m.inner", lambda a, k, out: {"m.items": a[0]})),
        (mod, "outer", lambda r, fn: spans.timed(r, fn, "m.outer")),
    ])
    return mod


def test_self_time_parents_and_counts(clock):
    rec = spans.Recorder()
    mod = _module(rec)
    for op in range(2):
        rec.begin_op(op)
        assert mod.outer(op) == 2 * op + 1
        rec.end_op()

    names = [s[0] for s in rec.spans]
    assert names == ["m.outer", "m.inner", "m.inner"] * 2
    for base in (0, 3):
        outer, first, second = rec.spans[base: base + 3]
        assert outer[3] is None
        assert first[3] == base and second[3] == base
        assert {s[4] for s in (outer, first, second)} == {base // 3}

    selfs = rec.self_times()
    for i, span in enumerate(rec.spans):
        duration = span[2] - span[1]
        children = sum(c[2] - c[1] for c in rec.spans if c[3] == i)
        assert selfs[i] == duration - children
    assert selfs[1] == selfs[2] == 10  # a leaf is read twice: open, close
    assert selfs[0] == (rec.spans[0][2] - rec.spans[0][1]) - 20

    table = rec.per_op()
    assert table[0]["m.items"] == 0 + 1 and table[1]["m.items"] == 1 + 2
    for op in (0, 1):
        row = table[op]
        assert row["m.inner.calls"] == 2 and row["m.outer.calls"] == 1
        assert row["m.inner.self_ns"] == 20
        assert row["m.outer.total_ns"] == row["m.outer.self_ns"] + row["m.inner.total_ns"]
        start, end = rec.ops[op]
        assert row["op_ns"] == end - start
        assert row["covered_ns"] == row["m.outer.total_ns"] < row["op_ns"]


def test_overlapping_children_count_once():
    assert spans._covered(0, 100, [(10, 40), (30, 50), (90, 120)]) == 40 + 10


def test_set_up_spans_belong_to_no_op_and_disabled_records_nothing(clock):
    rec = spans.Recorder()
    mod = _module(rec)
    mod.outer(0)
    assert all(s[4] is None for s in rec.spans) and rec.per_op() == {}
    rec.enabled = False
    before = len(rec.spans)
    mod.outer(0)
    assert len(rec.spans) == before


def test_ordinal_counts_calls_per_parent(clock):
    rec = spans.Recorder()
    mod = types.SimpleNamespace(step=lambda: None)
    mod.chain = lambda: [mod.step() for _ in range(3)]
    spans.install(rec, [
        (mod, "step", lambda r, fn: spans.timed(r, fn, lambda rr: f"stage{rr.ordinal('step')}")),
        (mod, "chain", lambda r, fn: spans.timed(r, fn, "chain")),
    ])
    rec.begin_op(0)
    mod.chain()
    mod.chain()
    rec.end_op()
    assert [s[0] for s in rec.spans] == ["chain", "stage0", "stage1", "stage2"] * 2


def test_counted_adds_to_innermost_span_or_op(clock):
    rec = spans.Recorder()
    mod = types.SimpleNamespace(make=lambda: None)
    spans.install(rec, [(mod, "make", lambda r, fn: spans.counted(r, fn, "nodes"))])
    mod.wrap = spans.timed(rec, lambda: [mod.make() for _ in range(4)], "outer")
    rec.begin_op(0)
    mod.wrap()
    mod.make()
    rec.end_op()
    assert rec.spans[0][5] == {"nodes": 4}
    assert rec.per_op()[0]["nodes"] == 5
