"""Dense tensors with reverse-mode automatic differentiation: the graph core.

Just enough machinery for desk-scale sequence models: rank-n float arrays
backed by numpy, a dynamic graph of primitive ops, and a single
``backward()`` entry point. Broadcasting is deliberately restricted to
length-1 (or missing leading) axes so shape bugs fail loudly instead of
silently fanning out.

The core holds only the ops the model calls. The ops that only the tests'
reference compositions need (``sub``, ``sigmoid``, ``tanh`` and ``narrow``)
live in ``tests/reference_ops.py``, and the fused ops in ``hopqa.kernels``,
all built on ``_make`` like the ones here.

Whether an op's output joins the graph is decided in one place, ``_make``:
the output is a graph node when grad mode is on in the calling thread and
one of its parents requires grad, and a constant otherwise. Every op builds
its backward closure and hands it to ``_make``, which drops it for a
constant; a fused op may also ask, to keep per-step activations only when
they will be used. Grad mode is per thread, so callers in several threads
may each run ``no_grad`` blocks.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import pool

MASK_FILL = -1e30  # additive bias that zeroes softmax mass at padding

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class DTypeError(TypeError):
    """An array's dtype is not the one required, as in a loaded state."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


class DataError(ValueError):
    """Index data out of range (ids, offsets)."""


class LabelError(ValueError):
    """Target labels out of range for the logit width."""


class UsageError(RuntimeError):
    """The op was called in a way its contract forbids."""


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation mode), in the
    calling thread only."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    """N-d float array with an optional gradient slot and graph lineage.

    A leaf has no ``_backward``; every interior node is made by ``_make``
    with ``requires_grad=True``, so ``requires_grad`` alone tells whether a
    tensor takes part in the backward.

    During ``backward`` a ``grad`` that has more than one contribution, or
    one still being computed, is a ``_Sum``; ``backward`` turns it into an
    array before the node's closure sees it and before it returns."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 parents: tuple = (), backward: Callable | None = None):
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item: need a tensor of one entry, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are wrapped as constants
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_as_tensor(other, self.dtype), self)


def tensor(values, dtype=None, requires_grad: bool = False) -> Tensor:
    """Build a leaf tensor from array-like values."""
    arr = np.asarray(values, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
    return Tensor(arr, requires_grad=requires_grad)


def parameter(values, dtype=None) -> Tensor:
    return tensor(values, dtype=dtype, requires_grad=True)


def constant(values, dtype=None) -> Tensor:
    return tensor(values, dtype=dtype, requires_grad=False)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _tracking(*tensors: Tensor) -> bool:
    return _grad_mode.enabled and any(t.requires_grad for t in tensors)


def _make(data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    """An op's output: a graph node with ``backward`` when grad mode is on and
    a parent requires grad, otherwise a constant that keeps no ``backward``."""
    if not _tracking(*parents):
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=parents, backward=backward)


class _Sum:
    """A gradient while the sweep sums it: the sum of the contributions
    folded so far, and the contributions after them as ``(array, tasks)``
    pairs in arrival order, ``tasks`` being the tasks that still fill the
    array, none for an array that is ready."""

    __slots__ = ("acc", "pending")

    def __init__(self, acc: np.ndarray | None):
        self.acc = acc
        self.pending: list[tuple[np.ndarray, tuple[pool.Task, ...]]] = []

    def fold(self, block: bool) -> None:
        """Add the pending contributions in order, up to the first whose
        tasks are not all done, or, with ``block``, all of them. A task's
        error is raised here."""
        folded = 0
        for g, tasks in self.pending:
            if not (block or pool.done(tasks)):
                break
            pool.join(tasks)
            self.acc = g if self.acc is None else np.asarray(self.acc + g)
            folded += 1
        del self.pending[:folded]


def _accum(t: Tensor, g: np.ndarray, *tasks: pool.Task) -> None:
    """Add ``g`` to ``t.grad``. With ``tasks``, handles from ``pool.submit``,
    ``g`` is an array the tasks are still filling; it is added once they
    are done, in its place among ``t``'s contributions. For a ``t`` that
    needs no gradient, ``g`` is dropped once its tasks are done."""
    if not t.requires_grad:
        pool.join(tasks)
        return
    s = t.grad
    if s is None and not tasks:
        t.grad = np.asarray(g)
        return
    if not isinstance(s, _Sum):
        s = t.grad = _Sum(s)
    s.pending.append((g, tasks))
    s.fold(block=False)


def _broadcast_check(sa: tuple[int, ...], sb: tuple[int, ...], opname: str) -> None:
    # right-aligned; every differing pair must involve a length-1 axis
    for da, db in zip(reversed(sa), reversed(sb)):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"{opname}: shapes {sa} and {sb} do not broadcast "
                             "(only length-1 axes may expand)")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape))
                 if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a.shape, b.shape, "add")
    out = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a.shape, b.shape, "mul")
    out = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), bwd)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # in (0, 1], never overflows
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def bwd(g):
        _accum(x, g * (x.data > 0))

    return _make(out, (x,), bwd)


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least rank 2, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ: {a.shape} x {b.shape}")
    _broadcast_check(a.shape[:-2], b.shape[:-2], "matmul (batch axes)")
    out = a.data @ b.data

    def bwd(g):
        _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(out, (a, b), bwd)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ShapeError(f"transpose: need rank >= 2, got {x.shape}")
    out = np.swapaxes(x.data, -1, -2)

    def bwd(g):
        _accum(x, np.swapaxes(g, -1, -2))

    return _make(out, (x,), bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def bwd(g):
        _accum(x, g.reshape(x.shape))

    return _make(out, (x,), bwd)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: need at least one part")
    rank = parts[0].ndim
    ax = axis if axis >= 0 else axis + rank
    if not 0 <= ax < rank:
        raise ShapeError(f"concat: axis {axis} out of range for rank {rank}")
    ref = parts[0].shape
    for p in parts[1:]:
        if p.ndim != rank:
            raise ShapeError(f"concat: rank mismatch {ref} vs {p.shape}")
        for i in range(rank):
            if i != ax and p.shape[i] != ref[i]:
                raise ShapeError(f"concat: shapes {ref} and {p.shape} differ on axis {i}")
    out = np.concatenate([p.data for p in parts], axis=ax)
    sizes = [p.shape[ax] for p in parts]

    def bwd(g):
        ofs = 0
        idx: list = [slice(None)] * rank
        for p, n in zip(parts, sizes):
            idx[ax] = slice(ofs, ofs + n)
            _accum(p, g[tuple(idx)])
            ofs += n

    return _make(out, tuple(parts), bwd)


def gather_rows(table: Tensor, ids: np.ndarray, pad_guard: bool = False) -> Tensor:
    """Row lookup ``table[ids]``; ids may have any rank.

    With ``pad_guard`` the gradient into row 0 is dropped, keeping a
    reserved padding row inert under training. The backward sorts the ids
    once (stably, so each row's terms keep their order) and sums each
    touched row's gradient rows as one segment.
    """
    if table.ndim != 2:
        raise ShapeError(f"gather_rows: table must be rank 2, got {table.shape}")
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise DataError("gather_rows: ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DataError(f"gather_rows: id out of range [0, {table.shape[0]}): "
                        f"min={ids.min()}, max={ids.max()}")
    out = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        flat = ids.reshape(-1)
        if flat.size:
            # the narrowest unsigned key: numpy radix-sorts 8- and 16-bit keys
            keys = flat.astype(np.min_scalar_type(table.shape[0] - 1))
            order = np.argsort(keys, kind="stable")
            ranked = flat[order]
            starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
            gt[ranked[starts]] = np.add.reduceat(g.reshape(flat.size, -1)[order], starts)
        if pad_guard:
            gt[0] = 0.0
        _accum(table, gt)

    return _make(out, (table,), bwd)


# ---------------------------------------------------------------------------
# reductions


def _norm_axis(axis: int, ndim: int, opname: str) -> int:
    ax = axis if axis >= 0 else axis + ndim
    if not 0 <= ax < ndim:
        raise ShapeError(f"{opname}: axis {axis} out of range for rank {ndim}")
    return ax


def softmax(x: Tensor, axis: int) -> Tensor:
    """Softmax along ``axis``, computed with max-subtraction.

    The output is the only temporary the size of ``x``: the shifted input
    is exponentiated and normalized in place. Raises ``NumericError`` when
    ``x`` holds a NaN or an infinity of either sign (the max along ``axis``
    catches NaN and +inf, the global min catches -inf)."""
    ax = _norm_axis(axis, x.ndim, "softmax")
    peak = x.data.max(axis=ax, keepdims=True)
    if not np.isfinite(peak).all() or (x.data.size and not np.isfinite(x.data.min())):
        raise NumericError("softmax: non-finite input")
    out = x.data - peak
    np.exp(out, out=out)
    out /= out.sum(axis=ax, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=ax, keepdims=True)
        _accum(x, out * (g - dot))

    return _make(out, (x,), bwd)


def max_reduce(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Maximum along ``axis``; gradient flows to the first maximizer on ties.
    The maximizers are found in the backward, so an untracked call skips them."""
    ax = _norm_axis(axis, x.ndim, "max_reduce")
    out = x.data.max(axis=ax, keepdims=keepdims)

    def bwd(g):
        idx = np.expand_dims(np.argmax(x.data, axis=ax), ax)
        gx = np.zeros_like(x.data)
        ge = g if keepdims else np.expand_dims(g, ax)
        np.put_along_axis(gx, idx, ge, ax)
        _accum(x, gx)

    return _make(out, (x,), bwd)


def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    ax = None if axis is None else _norm_axis(axis, x.ndim, "reduce_sum")
    out = np.asarray(x.data.sum(axis=ax, keepdims=keepdims), dtype=x.dtype)

    def bwd(g):
        ge = g if keepdims or ax is None else np.expand_dims(g, ax)
        _accum(x, np.broadcast_to(ge, x.shape))

    return _make(out, (x,), bwd)


# ---------------------------------------------------------------------------
# losses and regularization


def cross_entropy(logits: Tensor, targets, reduction: str = "sum",
                  mask=None) -> Tensor:
    """Negative log-softmax of the target class per row, reduced over rows.

    ``mask`` (per-row, 0/1) zeroes masked rows; ``mean`` divides by the
    number of unmasked rows. Target values at masked rows are ignored.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be rank 2, got {logits.shape}")
    if reduction not in ("sum", "mean"):
        raise UsageError(f"cross_entropy: unknown reduction {reduction!r}")
    n, c = logits.shape
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise LabelError(f"cross_entropy: targets must be integers, got {targets.dtype}")
    if targets.shape != (n,):
        raise ShapeError(f"cross_entropy: targets shape {targets.shape} != ({n},)")
    m = np.ones(n, dtype=logits.dtype) if mask is None else \
        np.asarray(mask, dtype=logits.dtype).reshape(n)
    live = m != 0
    if live.any():
        tl = targets[live]
        if tl.min() < 0 or tl.max() >= c:
            raise LabelError(f"cross_entropy: target out of range [0, {c}): "
                             f"min={tl.min()}, max={tl.max()}")
    safe_t = np.where(live, targets, 0).astype(np.int64)

    zmax = logits.data.max(axis=1, keepdims=True)
    z = logits.data - zmax
    lse = np.log(np.exp(z).sum(axis=1))
    per_row = (lse - z[np.arange(n), safe_t]) * m
    kept = max(int(live.sum()), 1)
    scale = 1.0 if reduction == "sum" else 1.0 / kept
    out = np.asarray(per_row.sum() * scale, dtype=logits.dtype)

    def bwd(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), safe_t] -= 1.0
        _accum(logits, (g * scale) * p * m[:, None])

    return _make(out, (logits,), bwd)


def binary_cross_entropy(logits: Tensor, labels, reduction: str = "mean",
                         mask=None) -> Tensor:
    """Sigmoid cross-entropy per element, masked entries contributing zero."""
    if reduction not in ("sum", "mean"):
        raise UsageError(f"binary_cross_entropy: unknown reduction {reduction!r}")
    y = np.asarray(labels, dtype=logits.dtype)
    if y.shape != logits.shape:
        raise ShapeError(f"binary_cross_entropy: labels shape {y.shape} != "
                         f"logits shape {logits.shape}")
    m = np.ones_like(y) if mask is None else np.asarray(mask, dtype=logits.dtype)
    if m.shape != logits.shape:
        raise ShapeError(f"binary_cross_entropy: mask shape {m.shape} != "
                         f"logits shape {logits.shape}")
    x = logits.data
    per = (np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))) * m
    kept = max(int((m != 0).sum()), 1)
    scale = 1.0 if reduction == "sum" else 1.0 / kept
    out = np.asarray(per.sum() * scale, dtype=logits.dtype)

    def bwd(g):
        _accum(logits, (g * scale) * (_stable_sigmoid(x) - y) * m)

    return _make(out, (logits,), bwd)


@dataclass(frozen=True)
class MatProduct:
    """A factor of an input part that is the matrix product ``a @ b`` of
    (..., T, J) ``a`` and (..., J, w) ``b``, one product per sequence, such
    as BiDAF's context-to-query readout: the row-softmax weights times the
    query. The BiGRU kernel reads it without forming it whole."""

    a: Tensor
    b: Tensor

    def __post_init__(self):
        if self.a.ndim < 2 or self.a.shape[:-2] != self.b.shape[:-2] \
                or self.a.shape[-1] != self.b.shape[-2]:
            raise ShapeError(f"MatProduct: shapes {self.a.shape} and {self.b.shape} do not "
                             "multiply per sequence")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.a.shape[:-1] + self.b.shape[-1:]

    @property
    def requires_grad(self) -> bool:
        return self.a.requires_grad or self.b.requires_grad


Factor = Tensor | MatProduct


def _factors(part: Factor | Sequence[Factor]) -> tuple[Factor, ...]:
    """The factors of an input part: a tensor or a matrix product is its own
    one factor."""
    return (part,) if isinstance(part, (Tensor, MatProduct)) else tuple(part)


def _leaves(factors: Iterable[Factor]) -> list[Tensor]:
    """The tensors of ``factors``, a matrix product's two in place of it."""
    return [t for f in factors for t in ((f.a, f.b) if isinstance(f, MatProduct) else (f,))]


def _part_shape(factors: tuple[Factor, ...], opname: str) -> tuple[int, ...]:
    """The shape of the product of ``factors``, which must broadcast."""
    if not factors:
        raise ShapeError(f"{opname}: a part needs at least one factor")
    shape = factors[0].shape
    for f in factors[1:]:
        _broadcast_check(shape, f.shape, opname)
        shape = np.broadcast_shapes(shape, f.shape)
    return shape


def dropout(x: Tensor | Sequence[Factor | Sequence[Factor]], rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor | list:
    """Inverted dropout: survivors scaled by 1/(1-rate); identity in eval mode.

    ``x`` may also be a list of parts that make one tensor when joined on
    the last axis, each a tensor, a ``MatProduct`` or a tuple of such
    factors whose elementwise product it is (see ``kernels.bigru``). The
    keep mask is then drawn at the joined shape one sequence (the last two
    axes) at a time, in C order, which is the random stream of one draw at
    the joined shape with a transient of one sequence's draw. Nothing is
    multiplied: each part is returned as a tuple of its factors followed by
    its columns of the bool mask and the scale 1/(1-rate), in the part's
    dtype, so a BiGRU that reads the parts forms the dropped input a chunk
    at a time and never stores it."""
    if not 0.0 <= rate < 1.0:
        raise UsageError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x if isinstance(x, Tensor) else list(x)
    if rng is None:
        raise UsageError("dropout: training mode requires an rng")
    if isinstance(x, Tensor):
        return _drop(x, rng.random(x.shape) >= rate, rate)
    parts = [_factors(p) for p in x]
    shapes = [_part_shape(fs, "dropout") for fs in parts]
    if not parts or any(s[:-1] != shapes[0][:-1] for s in shapes):
        raise ShapeError(f"dropout: need parts that agree before the last axis, got {shapes}")
    widths = [s[-1] for s in shapes]
    keep = np.empty(shapes[0][:-1] + (sum(widths),), dtype=bool)
    for seq in keep.reshape((-1,) + keep.shape[-2:]):
        np.greater_equal(rng.random(seq.shape), rate, out=seq)
    dropped = []
    for fs, cols in zip(parts, np.split(keep, np.cumsum(widths)[:-1], axis=-1)):
        dt = np.result_type(*(t.data for t in _leaves(fs))).type
        scale = constant(dt(1) / dt(1.0 - rate), dtype=dt)
        dropped.append((*fs, constant(cols, dtype=bool), scale))
    return dropped


def _drop(x: Tensor, keep: np.ndarray, rate: float) -> Tensor:
    dt = x.data.dtype.type
    scale = dt(1) / dt(1.0 - rate)
    out = x.data * keep
    out *= scale

    def bwd(g):
        gx = g * keep
        gx *= scale
        _accum(x, gx)

    return _make(out, (x,), bwd)


# ---------------------------------------------------------------------------
# reverse pass


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        nid = id(node)
        if nid in visited:
            continue
        visited.add(nid)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad:
                stack.append((p, False))
    return order


def _resolved(t: Tensor) -> np.ndarray | None:
    """``t.grad`` as an array, waiting for its pending contributions."""
    if isinstance(t.grad, _Sum):
        t.grad.fold(block=True)
        t.grad = t.grad.acc
    return t.grad


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable requires_grad leaf.

    Gradients accumulate additively when a tensor feeds several consumers,
    summed in the order the contributions arrive, so the result is the
    serial sum ``((g1 + g2) + g3) ...`` bit for bit. Every sum is a new
    array: the sweep never writes into an array a closure hands it, or into
    a ``grad`` that already exists. A closure may hand a contribution over
    while a task on the pool (``hopqa.pool``) still computes it, and
    finishes any other task it queues; the sweep goes on to other nodes,
    folds finished contributions as they arrive and waits for a node's
    pending ones just before its closure runs, and for every leaf's before
    it returns, running in this thread each pending task that no worker has
    started; it returns only once every task handed to it has finished. So
    the weight-gradient GEMMs of one node run while the calling thread works
    through the nodes after it, and the sweep never waits for a task queued
    behind others.

    Interior (non-leaf) gradients live only during the sweep: each is
    cleared before it starts and freed once its node has passed it on, so
    afterwards only the leaves hold a ``grad``, each an array. Calling
    ``backward`` again after clearing the leaves' grads gives the same
    result. If a closure or a task raises, ``backward`` waits for every task
    handed to it, then raises that error; the leaves' grads may then
    hold partial sums, and should be cleared before the next call.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward: loss must be a scalar, got shape {loss.shape}")
    order = _toposort(loss)
    for node in order:
        if node._backward is not None:
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    try:
        for node in reversed(order):
            if node._backward is not None:
                node._backward(_resolved(node))
                node.grad = None
        for node in order:
            _resolved(node)
    except BaseException:
        for node in order:
            if isinstance(node.grad, _Sum):
                pool.finish([t for _, tasks in node.grad.pending for t in tasks])
                node.grad = node.grad.acc
        raise


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
