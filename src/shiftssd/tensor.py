"""Minimal reverse-mode autodiff over dense 2-D float64 matrices.

Every operation allocates a fresh node holding its values, a gradient
buffer, and a closure that scatters the upstream gradient into the
node's parents. ``Tensor.backward()`` replays the closures in reverse
topological order, calling each with its node's gradient and skipping
nodes that received none.

A gradient buffer starts unset. The first full-shape gradient a node
receives becomes its buffer as is (adopted, not copied into zeros), so
one array may be the buffer of several nodes: ``add`` hands the same
``g`` to both parents. A node therefore writes in place only into a
buffer it allocated itself, and adds into an adopted one out of place.
``gather_rows`` scatters by a plan memoised per index array (see
``_scatter_plan``) that adds each row's gradients in index order.
Shapes are strictly 2-D (vectors are lifted to a single row); there is
no general broadcasting, only the explicit helpers ``repeat_rows`` and
``scale_rows``.

A backward closure gets the upstream gradient as its argument and never
references its own output node (an op builds the closure first and
hands it to the node's constructor). Nodes point only at their parents,
so a graph is acyclic and reference counting frees it the moment its
last reference drops, with no help from the cyclic garbage collector.

Under ``no_grad()`` nodes are still checked for non-finite values but keep
no parents or closure, so each input is freed once the caller drops it;
``detector.detect``, ``harness.evaluate``, ``harness.receptive_field_probe``
and ``grad_check``'s central differences run under it, training never does.
"""

from __future__ import annotations

import contextvars
import json
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NonFiniteError(ValueError):
    """A value that must be finite (a tensor entry, a loss) is NaN or infinite."""


_RECORDING = contextvars.ContextVar("shiftssd_tensor_recording", default=True)


@contextmanager
def no_grad():
    """Block (or decorator) in which nodes record no graph. The flag is a
    context variable, so other threads keep recording."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


class Tensor:
    """Dense 2-D float64 value paired with a same-shape gradient buffer."""

    __slots__ = ("values", "_grad", "_owns_grad", "_parents", "_backprop")

    def __init__(self, values, parents=(), backprop=None):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"tensor must be at most 2-D, got shape {arr.shape}")
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteError("non-finite values in tensor")
        if not _RECORDING.get():
            parents, backprop = (), None
        self.values = arr
        self._grad = None
        self._owns_grad = False
        self._parents = tuple(parents)
        self._backprop = backprop

    @property
    def grad(self) -> np.ndarray:
        """Same-shape gradient buffer; zeros if no gradient reached this node.
        It may be shared with other nodes: read it, and reset it with
        ``zero_grads`` rather than writing into it."""
        return self._own_grad() if self._grad is None else self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad, self._owns_grad = value, False

    def add_grad(self, g: np.ndarray) -> None:
        """Accumulate a full-shape gradient. While the buffer is unset, g
        becomes the buffer; the caller must not write into g afterwards."""
        if self._grad is None:
            self._grad = g
        elif self._owns_grad:
            self._grad += g
        else:
            self._grad, self._owns_grad = self._grad + g, True

    def _own_grad(self) -> np.ndarray:
        """The buffer, made one this node may write in place: zeros while
        unset, a private copy of an adopted array."""
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        elif not self._owns_grad:
            self._grad = self._grad.copy()
        self._owns_grad = True
        return self._grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def backward(self, seed=None) -> None:
        """Accumulate d(self)/d(leaf) into every reachable node's grad.

        Without an explicit seed the output must be a scalar (1x1).
        """
        if seed is None:
            if self.values.size != 1:
                raise ValueError("backward() without a seed requires a scalar output")
            seed = np.ones_like(self.values)
        self.add_grad(np.array(seed, dtype=np.float64).reshape(self.values.shape))
        for node in _topo_from(self):
            g = node._grad
            if node._backprop is not None and g is not None:
                node._owns_grad = False  # the closure may hand g on to a parent
                node._backprop(g)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape})"


def _topo_from(root: Tensor) -> list[Tensor]:
    """Nodes in an order where every node precedes its parents."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    order.reverse()
    return order


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def _bp(g):
        a.add_grad(g)
        b.add_grad(g)

    return Tensor(a.values + b.values, parents=(a, b), backprop=_bp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def _bp(g):
        a.add_grad(g)
        b.add_grad(-g)

    return Tensor(a.values - b.values, parents=(a, b), backprop=_bp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def _bp(g):
        a.add_grad(g * b.values)
        b.add_grad(g * a.values)

    return Tensor(a.values * b.values, parents=(a, b), backprop=_bp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def _bp(g):
        a.add_grad(g * c)

    return Tensor(a.values * c, parents=(a,), backprop=_bp)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.values)

    def _bp(g):
        a.add_grad(g * y)

    return Tensor(y, parents=(a,), backprop=_bp)


def absolute(a: Tensor) -> Tensor:
    """|a| elementwise; subgradient at 0 is 0."""

    def _bp(g):
        a.add_grad(g * np.sign(a.values))

    return Tensor(np.abs(a.values), parents=(a,), backprop=_bp)


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.values))

    def _bp(g):
        a.add_grad(g * y * (1.0 - y))

    return Tensor(y, parents=(a,), backprop=_bp)


def relu(a: Tensor) -> Tensor:
    """max(0, a) elementwise; subgradient at 0 is 0."""

    def _bp(g):
        a.add_grad(g * (a.values > 0.0))

    return Tensor(np.maximum(a.values, 0.0), parents=(a,), backprop=_bp)


def avg2(a: Tensor, b: Tensor) -> Tensor:
    """(a + b) / 2; backward sends half the gradient to each input."""
    _check_same_shape(a, b, "avg2")

    def _bp(g):
        half = 0.5 * g
        a.add_grad(half)
        b.add_grad(half)

    return Tensor(0.5 * (a.values + b.values), parents=(a, b), backprop=_bp)


def min2(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; gradient routes to the smaller input, ties to a."""
    _check_same_shape(a, b, "min2")
    take_a = a.values <= b.values

    def _bp(g):
        a.add_grad(g * take_a)
        b.add_grad(g * ~take_a)

    return Tensor(np.where(take_a, a.values, b.values), parents=(a, b), backprop=_bp)


# ---------------------------------------------------------------------------
# structural ops


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ValueError("concat_cols: empty input")
    rows = parts[0].shape[0]
    for p in parts[1:]:
        if p.shape[0] != rows:
            raise ValueError(f"concat_cols: row-count mismatch {p.shape[0]} vs {rows}")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def _bp(g):
        for p, j0, j1 in zip(parts, offsets[:-1], offsets[1:]):
            p.add_grad(g[:, j0:j1])

    return Tensor(np.concatenate([p.values for p in parts], axis=1), tuple(parts), backprop=_bp)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[1]):
        raise ValueError(f"slice_cols: [{start}:{stop}] out of range for width {a.shape[1]}")

    def _bp(g):
        a._own_grad()[:, start:stop] += g

    return Tensor(a.values[:, start:stop].copy(), parents=(a,), backprop=_bp)


# id(index array) -> its scatter plan; weakref.finalize drops an entry when
# its array dies, before the id can be reused
_SCATTER_PLANS: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}


def _scatter_plan(indices: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The scatter plan of an index array: one (rows, positions) pair per
    rank r, where rows are the distinct targets occurring more than r times
    and positions the flat index of each one's r-th occurrence.

    ``buf[rows] += g[positions]`` rank by rank adds every row's gradients
    in index order, the order of an unbuffered in-order scatter-add, with
    no target repeated within one add. The plan is built once per array
    and kept while the array lives (a training scene's cached neighbour
    tables reuse theirs every epoch); the array is made read-only so the
    plan stays valid.
    """
    key = id(indices)
    plan = _SCATTER_PLANS.get(key)
    if plan is None:
        plan = _build_scatter_plan(indices.reshape(-1))
        _SCATTER_PLANS[key] = plan
        weakref.finalize(indices, _SCATTER_PLANS.pop, key, None)
        indices.flags.writeable = False
    return plan


def _build_scatter_plan(flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    order = np.argsort(flat, kind="stable")  # each target's occurrences, in index order
    ranked = flat[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    counts = np.diff(starts, append=flat.size)
    by_count = np.argsort(-counts, kind="stable")
    starts, counts = starts[by_count], counts[by_count]
    rows = ranked[starts]
    # how many targets occur more than r times, for r = 0 .. max count - 1
    live = np.searchsorted(-counts, -np.arange(counts.max(initial=0)), side="left")
    return [(rows[:k], order[starts[:k] + r]) for r, k in enumerate(live)]


def gather_rows(a: Tensor, indices) -> Tensor:
    """Row gather by an index array of any shape, read in flat order;
    backward scatter-adds into the source rows.

    Pass a stored int64 index array as is rather than a fresh view or
    copy of it: the backward's scatter plan is memoised on the array's
    identity.
    """
    idx = np.asarray(indices, dtype=np.int64)
    flat = idx.reshape(-1)
    n = a.shape[0]
    if flat.size and (flat.min() < 0 or flat.max() >= n):
        raise ValueError(f"gather_rows: index out of range for {n} rows")

    def _bp(g):
        buf = a._own_grad()
        for rows, positions in _scatter_plan(idx):
            buf[rows] += g[positions]

    return Tensor(a.values[flat], parents=(a,), backprop=_bp)


def repeat_rows(a: Tensor, k: int) -> Tensor:
    """Each row repeated k times in place: row i maps to rows i*k..i*k+k-1."""
    if k < 1:
        raise ValueError("repeat_rows: k must be >= 1")
    m, c = a.shape

    def _bp(g):
        a.add_grad(g.reshape(m, k, c).sum(axis=1))

    return Tensor(np.repeat(a.values, k, axis=0), parents=(a,), backprop=_bp)


def row_sum(a: Tensor) -> Tensor:
    """Sum over columns, keeping an Mx1 shape."""

    def _bp(g):
        a.add_grad(np.repeat(g, a.shape[1], axis=1))

    return Tensor(a.values.sum(axis=1, keepdims=True), parents=(a,), backprop=_bp)


def sum_all(a: Tensor) -> Tensor:
    def _bp(g):
        a.add_grad(np.full_like(a.values, g[0, 0]))

    return Tensor([[a.values.sum()]], parents=(a,), backprop=_bp)


def mean_all(a: Tensor) -> Tensor:
    if a.values.size == 0:
        raise ValueError("mean_all: empty tensor")

    def _bp(g):
        a.add_grad(np.full_like(a.values, g[0, 0] / a.values.size))

    return Tensor([[a.values.mean()]], parents=(a,), backprop=_bp)


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of a (MxC) by scalar s[i] (Mx1)."""
    if s.shape != (a.shape[0], 1):
        raise ValueError(f"scale_rows: scales must be {(a.shape[0], 1)}, got {s.shape}")

    def _bp(g):
        a.add_grad(g * s.values)
        s.add_grad((g * a.values).sum(axis=1, keepdims=True))

    return Tensor(a.values * s.values, parents=(a, s), backprop=_bp)


def reduce_max(x: Tensor, group_size: int, valid) -> Tensor:
    """Masked max over fixed-size row groups.

    x is (M*K)xC with rows grouped in blocks of K; valid is an MxK mask
    with at least one true entry per group. Gradient routes to the
    argmax row of each (group, channel); ties go to the smallest row
    index inside the group. Invalid rows never win. Under no_grad() the
    masked max skips the argmax; it can differ only in a tied zero's sign.
    """
    rows, c = x.shape
    if group_size < 1 or rows % group_size:
        raise ValueError(f"reduce_max: {rows} rows not divisible into groups of {group_size}")
    m = rows // group_size
    mask = np.asarray(valid, dtype=bool)
    if mask.shape != (m, group_size):
        raise ValueError(f"reduce_max: valid mask must be {(m, group_size)}, got {mask.shape}")
    if not mask.any(axis=1).all():
        raise ValueError("reduce_max: fully-invalid group")
    grouped = x.values.reshape(m, group_size, c)
    masked = np.where(mask[:, :, None], grouped, -np.inf)
    if not _RECORDING.get():
        return Tensor(masked.max(axis=1))
    arg = masked.argmax(axis=1)  # (m, c); argmax picks the smallest index on ties
    out_vals = np.take_along_axis(grouped, arg[:, None, :], axis=1)[:, 0, :]

    def _bp(g):
        flat_rows = (np.arange(m)[:, None] * group_size + arg).ravel()
        flat_cols = np.tile(np.arange(c), m)
        # one argmax per (group, channel) and disjoint groups: no target repeats
        x._own_grad()[flat_rows, flat_cols] += g.ravel()

    return Tensor(out_vals, parents=(x,), backprop=_bp)


# ---------------------------------------------------------------------------
# parameterized layers


@dataclass
class LinearParams:
    """Affine map parameters: weight is C_out x C_in, bias 1 x C_out."""

    weight: Tensor
    bias: Tensor

    @property
    def in_width(self) -> int:
        return self.weight.shape[1]

    @property
    def out_width(self) -> int:
        return self.weight.shape[0]

    def tensors(self) -> list[Tensor]:
        return [self.weight, self.bias]


@dataclass
class MlpParams:
    """Stack of linear layers with ReLU after each, optionally skipping the last."""

    layers: list[LinearParams]
    final_relu: bool = True

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_width != nxt.in_width:
                raise ValueError(
                    f"mlp widths do not chain: {prev.out_width} -> {nxt.in_width}"
                )

    @property
    def in_width(self) -> int:
        return self.layers[0].in_width

    @property
    def out_width(self) -> int:
        return self.layers[-1].out_width

    def tensors(self) -> list[Tensor]:
        return [t for layer in self.layers for t in layer.tensors()]


def init_linear(c_in: int, c_out: int, rng: np.random.Generator) -> LinearParams:
    """Uniform fan-in init: all entries drawn from +-sqrt(1/C_in)."""
    bound = float(np.sqrt(1.0 / c_in))
    w = rng.uniform(-bound, bound, size=(c_out, c_in))
    b = rng.uniform(-bound, bound, size=(1, c_out))
    return LinearParams(weight=Tensor(w), bias=Tensor(b))


def init_mlp(widths: Sequence[int], rng: np.random.Generator, final_relu: bool = True) -> MlpParams:
    if len(widths) < 2:
        raise ValueError("mlp needs at least input and output widths")
    layers = [init_linear(a, b, rng) for a, b in zip(widths, widths[1:])]
    return MlpParams(layers=layers, final_relu=final_relu)


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """x @ W^T + b for x of shape NxC_in."""
    if x.shape[1] != p.in_width:
        raise ValueError(f"linear: input width {x.shape[1]} != weight width {p.in_width}")

    def _bp(g):
        x.add_grad(g @ p.weight.values)
        # x^T g, then transposed: OpenBLAS rounds g^T x differently per thread count
        p.weight.add_grad((x.values.T @ g).T)
        p.bias.add_grad(g.sum(axis=0, keepdims=True))

    values = x.values @ p.weight.values.T + p.bias.values
    return Tensor(values, parents=(x, p.weight, p.bias), backprop=_bp)


def mlp_forward(x: Tensor, p: MlpParams) -> Tensor:
    h = x
    last = len(p.layers) - 1
    for i, layer in enumerate(p.layers):
        h = linear(h, layer)
        if i < last or p.final_relu:
            h = relu(h)
    return h


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    f must be a deterministic closure over `params` returning a 1x1
    tensor. Returns the worst relative error over every parameter
    coordinate, with the denominator floored at 1 so near-zero gradients
    compare absolutely.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    params = list(params)
    zero_grads(params)
    out = f()
    out.backward()
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    with no_grad():
        for p, ana in zip(params, analytic):
            flat = p.values.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f_hi = f().item()
                flat[i] = orig - eps
                f_lo = f().item()
                flat[i] = orig
                numeric = (f_hi - f_lo) / (2.0 * eps)
                a = ana.reshape(-1)[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
                worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# checkpoint I/O: JSON header line, then the flat little-endian float64 stream


def save_checkpoint(path, named_tensors: Sequence[tuple[str, Tensor]], meta: dict | None = None) -> None:
    header = {
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in named_tensors],
        "meta": meta or {},
    }
    blob = b"".join(
        np.ascontiguousarray(t.values, dtype="<f8").tobytes() for _, t in named_tensors
    )
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


def _checkpoint_layout(path, header) -> list[tuple[str, int, int]]:
    """(name, rows, cols) per tensor of a parsed header, or a ValueError
    naming the file and what is wrong with the header."""
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint {path}: header must be a JSON object")
    entries = header.get("tensors")
    if not isinstance(entries, list):
        raise ValueError(f"checkpoint {path}: header needs a 'tensors' list")
    if not isinstance(header.get("meta", {}), dict):
        raise ValueError(f"checkpoint {path}: 'meta' must be a JSON object")
    layout: list[tuple[str, int, int]] = []
    names: set[str] = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"checkpoint {path}: tensor {i} must be a JSON object")
        name, shape = entry.get("name"), entry.get("shape")
        if not isinstance(name, str):
            raise ValueError(f"checkpoint {path}: tensor {i} needs a string name")
        if name in names:
            raise ValueError(f"checkpoint {path}: repeated tensor name {name!r}")
        names.add(name)
        if not (
            isinstance(shape, list)
            and len(shape) == 2
            and all(type(d) is int and d >= 0 for d in shape)
        ):
            raise ValueError(f"checkpoint {path}: tensor {name!r} shape must be two non-negative ints")
        layout.append((name, shape[0], shape[1]))
    return layout


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ValueError(f"corrupt checkpoint header in {path}: {err}") from err
        blob = fh.read()
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, rows, cols in _checkpoint_layout(path, header):
        count = rows * cols
        if offset + count * 8 > len(blob):
            raise ValueError(f"checkpoint {path} truncated at tensor {name}")
        chunk = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays[name] = chunk.reshape(rows, cols).astype(np.float64)
        offset += count * 8
    if offset != len(blob):
        raise ValueError(f"checkpoint {path} has {len(blob) - offset} trailing bytes")
    return arrays, header.get("meta", {})


def load_into(named_tensors: Sequence[tuple[str, Tensor]], arrays: dict[str, np.ndarray]) -> None:
    """Copy each array into the tensor of its name: same names and shapes, finite values only."""
    names = dict(named_tensors)
    extra = next((name for name in arrays if name not in names), None)
    if extra is not None:
        raise ValueError(f"checkpoint tensor {extra} is not in the model")
    for name, t in named_tensors:
        if name not in arrays:
            raise ValueError(f"checkpoint missing tensor {name}")
        arr = arrays[name]
        if arr.shape != t.shape:
            raise ValueError(f"checkpoint tensor {name} has shape {arr.shape}, expected {t.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint tensor {name} holds non-finite values")
        t.values[...] = arr
