"""Dense tensors with reverse-mode automatic differentiation.

Just enough machinery for desk-scale sequence models: rank-n float arrays
backed by numpy, a dynamic graph of primitive ops, and a single
``backward()`` entry point. Broadcasting is deliberately restricted to
length-1 (or missing leading) axes so shape bugs fail loudly instead of
silently fanning out.

The core holds only the ops the model calls. The ops that only the tests'
reference compositions need (``sub``, ``sigmoid``, ``tanh`` and ``narrow``)
live in ``tests/reference_ops.py``, built on ``_make`` like the ones here.

Whether an op's output joins the graph is decided in one place, ``_make``:
the output is a graph node when grad mode is on in the calling thread and
one of its parents requires grad, and a constant otherwise. Every op builds
its backward closure and hands it to ``_make``, which drops it for a
constant; only ``highway`` and ``bigru`` also ask, to keep per-step
activations only when they will be used.

``bigru`` and ``self_attention`` hand tasks to the pool in ``hopqa.pool``,
which describes the scheduling. Their forwards split work into tasks.
Their backwards hand GEMMs over as pending gradient contributions
(``_accum``), which ``backward`` sums in arrival order while it goes on
with other nodes. Tasks run numpy only; they never make a ``Tensor`` or
touch a ``grad``, and every array a task writes, or reads as a copy, is
allocated by the calling thread and passed in. Grad mode is per thread, so
callers in several threads may each run ``no_grad`` blocks.
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
    are done, in its place among ``t``'s contributions."""
    if not t.requires_grad:
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
    query. ``bigru`` reads it without forming it whole (see there)."""

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
    factors whose elementwise product it is (see ``bigru``). The keep mask
    is then drawn at the joined shape one sequence (the last two axes) at a
    time, in C order, which is the random stream of one draw at the joined
    shape with a transient of one sequence's draw. Nothing is multiplied:
    each part is returned as a tuple of its factors followed by its columns
    of the bool mask and the scale 1/(1-rate), in the part's dtype, so a
    ``bigru`` that reads the parts forms the dropped input a chunk at a time
    and never stores it."""
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
# highway


def highway(x: Tensor, layers: Sequence[Sequence[Tensor]]) -> Tensor:
    """A stack of highway layers (Srivastava et al. 2015) as a single graph node.

    Each layer is a group ``(gate_w, gate_b, trans_w, trans_b)`` and maps its
    input y (..., w) to y' = t * h + (1 - t) * y, with the gate
    t = sigmoid(y gate_w + gate_b) and the transform h = relu(y trans_w + trans_b);
    each weight is (w, w) and each bias (w,).

    Each step is the numpy expression of the op it stands for, at the same
    shapes (``y @ W + b``, ``_stable_sigmoid``, ``np.maximum(., 0.0)`` and
    ``t * h + (1.0 - t) * y``), or an in-place form of it that rounds the
    same, so the output is bit-identical to the tests' composition of those
    ops, ``_reference_highway`` (``matmul``, ``add``, ``relu`` and ``mul``
    here, with ``sigmoid`` and ``sub`` from ``tests/reference_ops.py``).

    Only when tracking does a layer keep its input, t and h (its output is
    the next layer's input); under ``no_grad`` nothing is kept. The backward
    walks the layers in reverse: with g the gradient of y',
    dt = g (h - y) t (1 - t) and dh = g t [h > 0] are the gradients of the
    two pre-activations, y gets g (1 - t) + dt W_g^T + dh W_h^T, and each
    weight gets one GEMM over all positions, y^T dt or y^T dh.
    """
    width = x.shape[-1]
    for gw, gb, tw, tb in layers:
        if gw.shape != (width, width) or tw.shape != (width, width) \
                or gb.shape != (width,) or tb.shape != (width,):
            raise ShapeError(f"highway: weights {gw.shape}, {tw.shape} and biases {gb.shape}, "
                             f"{tb.shape} do not fit input width {width}")
    weights = [t for layer in layers for t in layer]
    dtype = np.result_type(x.data, *(t.data for t in weights))
    data = [[t.data.astype(dtype, copy=False) for t in layer] for layer in layers]
    tracking = _tracking(x, *weights)
    saved = []          # per layer when tracking: its input, t and h
    y = x.data.astype(dtype, copy=False)
    for gw, gb, tw, tb in data:
        t = y @ gw
        t += gb
        t = _stable_sigmoid(t)
        h = y @ tw
        h += tb
        np.maximum(h, 0.0, out=h)
        out = 1.0 - t               # (1 - t) y + t h: a sum rounds the same either way
        out *= y
        out += t * h
        if tracking:
            saved.append((y, t, h))
        y = out

    def bwd(g):
        go = g.reshape(-1, width)
        for (gw_t, gb_t, tw_t, tb_t), (gw, _, tw, _), (y, t, h) in \
                zip(reversed(layers), reversed(data), reversed(saved)):
            y2, t2, h2 = (a.reshape(-1, width) for a in (y, t, h))
            carry = 1.0 - t2
            da_g = go * (h2 - y2)
            da_g *= t2
            da_g *= carry
            da_h = go * t2
            da_h *= h2 > 0
            dy = go * carry
            dy += da_g @ gw.T
            dy += da_h @ tw.T
            _accum(gw_t, y2.T @ da_g)
            _accum(gb_t, da_g.sum(axis=0))
            _accum(tw_t, y2.T @ da_h)
            _accum(tb_t, da_h.sum(axis=0))
            go = dy
        _accum(x, go.reshape(x.shape))

    return _make(y, (x, *weights), bwd)


# ---------------------------------------------------------------------------
# recurrence


# Steps whose input projection the forward makes at once, and that the
# backward walks at once: this bounds their scratch on long sequences.
BIGRU_CHUNK = 256


class _Sweep(threading.local):
    """Per thread, the tasks of each BiGRU backward in the running
    ``backward``, oldest first. A backward's tasks read its gate gradients
    ``da`` (N, T, 6h) and write its input and ``w_x``/bias gradients; the
    rest of its scratch is gone once it returns."""

    def __init__(self):
        self.bigru_tasks: list[list[pool.Task]] = []


_sweep = _Sweep()


def bigru(x: Factor | Sequence[Factor | Sequence[Factor]], fw: Sequence[Tensor],
          bw: Sequence[Tensor], mask: np.ndarray | None = None) -> Tensor:
    """Bidirectional GRU over axis -2 as a single graph node.

    ``x`` is the input, or a list of parts that make the input when joined
    on the last axis; the joined input is never built. Part k meets its own
    rows of each ``w_x``, so the input projection is a sum of part GEMMs,
    and the backward gives each part ``da @ w_x[rows_k]^T`` and each
    ``w_x`` its rows ``part_k^T @ da``.

    A part is a tensor, or a tuple of factors whose product it is,
    multiplied left to right and broadcast to (..., T, w_k); a factor spans
    all of the leading axes or none. ``fuse_g``'s two products and the parts
    that ``dropout`` returns (a part's factors, its bool keep mask and the
    scale) come this way. A product is only ever formed in the scratch of
    the computing thread that needs it, a chunk's rows of one sequence at a
    time, and never stored. In the backward, a lone tensor is a part of one
    factor. A sequence at a time, the part's gradient ``g_part`` is made, in
    a lone tensor's gradient rows or else in scratch, and each factor that
    requires grad gets ``unbroadcast(g_part * the product of the other
    factors)``; a factor that recurs with the same other factors, as H in
    (w, H, H), gets that term once, times its count. ``w_x``'s rows of the
    part are summed over sequences, each sequence's product formed again.

    A part's first factor may also be a ``MatProduct`` a @ b, (..., T, J)
    times (..., J, w), such as ``fuse_g``'s c2q, with the part's shape. It
    is formed like a product, a chunk's rows at a time as
    ``a[n, rows] @ b[n]`` into the scratch that the other factors then
    multiply, and its gradient term g (the part's gradient times the other
    factors, if any) gives a ``g b[n]^T`` and b ``a[n]^T g``, so neither
    its (T, w) rows nor its gradient are stored.

    ``fw`` and ``bw`` are tensors ``(w_x, w_h, b)`` with the gates stacked in
    order ``[z | r | n]``: ``w_x`` is in x 3h, ``w_h`` is h x 3h and ``b`` is
    3h. The op reads them as stored, and each gets its gradient whole. Per
    direction and step, from h = 0:
    z = sigmoid(x_t W_xz + b_z + h W_hz), r likewise,
    n = tanh(x_t W_xn + b_n + (r * h) W_hn) and h' = h + m_t z (n - h),
    where m_t is ``mask`` (..., T) or 1, so padded steps copy h through. The
    forward direction starts at the first position, the backward one at the
    last. The output holds, per position, the forward state then the
    backward state: (..., T, 2h).

    One loop runs both directions: step s computes forward position s and
    backward position T-1-s, and each per-step array is a contiguous
    (2, N, .) slot, N being the product of the leading axes. A sigmoid is
    0.5 tanh(a/2) + 0.5; the halving is folded into the z/r weights and
    biases, which is exact in binary floating point. The input projection
    is made ``BIGRU_CHUNK`` steps at a time, and only over each sequence's
    positions [0, L_n), L_n being one past its last position with
    ``mask != 0`` (0 if none): one contiguous slice per sequence, chunk and
    direction. The scratch past L_n is written as zeros, since a masked
    step multiplies its input by 0 and whatever the input holds there (NaN
    too) would otherwise reach the state. The projection runs as tasks on
    the pool (``hopqa.pool``), one per direction, sequence and chunk: while
    the step loop reads chunk c from one of two chunk buffers, the tasks
    fill the other with chunk c + 1, and at each chunk boundary the loop
    waits for them (``pool.join``), running those no worker has started.
    The chunk buffers, and a GEMM product, an addend and a product part's
    rows per computing thread, are allocated here and passed in; a task
    computes what the calling thread would, so the output does not depend
    on where it ran. The gate activations are kept for every step only when
    tracking.

    The backward walks the steps once in reverse, ``BIGRU_CHUNK`` at a time
    from the last, on the calling thread; it assumes the input is finite
    everywhere. Per chunk it gathers the incoming gradient and the states
    entering its steps (the forward one entering step s is
    ``out[..., s-1, :h]``, the backward one ``out[..., T-s, h:]``, both 0
    at s = 0), computes the local derivatives with the mask folded in, runs
    the recurrence over the chunk, carrying the state gradient into the
    next, adds the chunk's ``dW_h`` GEMMs to each direction's sum, chunk
    after chunk in that fixed order, and writes the chunk's gate gradients
    into the position-major ``da`` (..., T, 6h). So besides ``da`` the walk
    holds O(chunk) scratch. The input and the other weight gradients then
    come from GEMMs over all steps, run on the pool as pending contributions
    (``_accum``) while the sweep goes on with other nodes: per input part a
    ``_factor_grads`` task (from ``da @ w_x[rows_k]^T``) and a ``_factor_dw``
    task (``dw_x``'s rows ``part_k^T @ da``), and one for the biases. Every
    weight gets them; ``_accum`` drops those of one that needs none. This
    thread allocates every array a task writes or reads as a copy, and
    ``backward`` sums contributions in arrival order, so the gradients do
    not depend on where the tasks ran. The queued tasks hold ``da``, so
    before allocating its own arrays, a BiGRU backward finishes (runs or
    waits for) the tasks of the BiGRU backward two before it in the sweep;
    a sweep then holds the gate gradients of at most two such backwards.
    """
    parts = [_factors(p) for p in ([x] if isinstance(x, (Tensor, MatProduct)) else x)]
    if not parts:
        raise ShapeError("bigru: need at least one input part")
    shapes = [_part_shape(fs, "bigru") for fs in parts]
    if len(shapes[0]) < 2:
        raise ShapeError(f"bigru: input must be at least rank 2, got {shapes[0]}")
    lead = shapes[0][:-1]
    for s in shapes[1:]:
        if s[:-1] != lead:
            raise ShapeError(f"bigru: input parts {shapes[0]} and {s} differ "
                             "before the last axis")
    for fs, s in zip(parts, shapes):
        for i, f in enumerate(fs):
            if isinstance(f, MatProduct) and (i or f.shape != s):
                raise ShapeError(f"bigru: a matrix product of shape {f.shape} must be the "
                                 f"first factor of its part, of shape {s}")
    t_len = lead[-1]
    if t_len < 1:
        raise ShapeError("bigru: empty sequence")
    widths = [s[-1] for s in shapes]
    d_in = sum(widths)
    leaves = _leaves(f for fs in parts for f in fs)
    cells = [tuple(fw), tuple(bw)]                      # per direction, (w_x, w_h, b)
    weights = [t for cell in cells for t in cell]
    hid = cells[0][1].shape[0]
    for w_x, w_h, b in cells:
        if w_h.shape != (hid, 3 * hid) or w_x.shape != (d_in, 3 * hid) \
                or b.shape != (3 * hid,):
            raise ShapeError(f"bigru: stacked weights {w_x.shape}, {w_h.shape}, {b.shape} "
                             f"do not fit input widths {widths} and hidden size {hid}")
    n_seq = int(np.prod(lead[:-1]))
    dtype = np.result_type(*(t.data for t in leaves), *(t.data for t in weights))
    # mask per step and direction, step-major like every per-step array
    m = np.ones((t_len, 2, n_seq, 1), dtype=dtype)
    ends = np.full(n_seq, t_len)                        # L_n per sequence
    if mask is not None:
        mk = np.asarray(mask)
        if mk.shape != lead:
            raise ShapeError(f"bigru: mask shape {mk.shape} != sequence shape {lead}")
        mk = mk.reshape(n_seq, t_len)
        real = mk != 0
        ends = np.where(real.any(axis=1), t_len - np.argmax(real[:, ::-1], axis=1), 0)
        m[:, 0, :, 0] = mk.T
        m[:, 1, :, 0] = mk.T[::-1]
    m_half = 0.5 * m

    # weights with the z/r halving folded in, split by rows into the parts'
    # blocks; the n-gate hidden weights are halved too because the loop
    # multiplies them by 2r
    splits = np.cumsum(widths)[:-1]
    half = np.repeat(np.array([0.5, 0.5, 1.0], dtype=dtype), hid)
    proj = [(np.split(w_x.data * half, splits), b.data * half) for w_x, _, b in cells]
    wh_zr = 0.5 * np.stack([w_h.data[:, :2 * hid] for _, w_h, _ in cells])
    wh_n = 0.5 * np.stack([w_h.data[:, 2 * hid:] for _, w_h, _ in cells])

    # each part's factors as (N or 1, T or 1, w or 1), a matrix product as
    # its (N, T, J) and (N, J, w) factors; a part of one tensor is read in
    # place, any other is formed
    xs = [[(f.a.data.reshape((n_seq,) + f.a.shape[-2:]),
            f.b.data.reshape((n_seq,) + f.b.shape[-2:])) if isinstance(f, MatProduct)
           else _by_sequence(f.data, lead) for f in fs] for fs in parts]
    plain = [len(fs) == 1 and isinstance(fs[0], Tensor) for fs in parts]
    formed_w = max((w for w, p in zip(widths, plain) if not p), default=0)
    chunk = min(t_len, BIGRU_CHUNK)
    # two chunks of projected input, one read by the step loop while the
    # pool fills the other, and per computing thread a GEMM product and
    # addend, and the rows of a formed part
    x_zr = np.empty((2, chunk, 2, n_seq, 2 * hid), dtype=dtype)
    x_n = np.empty((2, chunk, 2, n_seq, hid), dtype=dtype)
    prods = np.empty((pool.threads(), 2, chunk, 3 * hid), dtype=dtype)
    formed = np.empty((pool.threads(), chunk * formed_w), dtype=dtype)

    def project(d: int, n: int, s0: int, s1: int, buf: int) -> None:
        """Steps [s0, s1) of direction d and sequence n into chunk scratch
        ``buf``."""
        c = s1 - s0
        ws, bias = proj[d]
        acc, term = prods[pool.slot()]
        rows = formed[pool.slot()]
        zr, xn = x_zr[buf, :, d, n], x_n[buf, :, d, n]
        # the chunk's positions are [lo, lo + c); the sequence's real ones
        # fill the first k steps forward and the last k steps backward
        lo = s0 if d == 0 else t_len - s1
        k = min(max(ends[n] - lo, 0), c)
        dst, pad = (slice(0, k), slice(k, c)) if d == 0 else (slice(c - k, c), slice(0, c - k))
        if k < c:
            zr[pad] = 0.0
            xn[pad] = 0.0
        if k:
            p = np.matmul(_part_rows(xs[0], n, lo, lo + k, rows, widths[0]), ws[0],
                          out=acc[:k])
            for fs, w, wk in zip(xs[1:], widths[1:], ws[1:]):
                p += np.matmul(_part_rows(fs, n, lo, lo + k, rows, w), wk, out=term[:k])
            if d:
                p = p[::-1]
            np.add(p[:, :2 * hid], bias[:2 * hid], out=zr[dst])
            np.add(p[:, 2 * hid:], bias[2 * hid:], out=xn[dst])

    def submit(s0: int, buf: int) -> list[pool.Task]:
        s1 = min(s0 + chunk, t_len)
        return [pool.submit(project, d, n, s0, s1, buf) for d in (0, 1) for n in range(n_seq)]

    tracking = _tracking(*leaves, *weights)
    kept = t_len if tracking else 1
    u = np.empty((kept, 2, n_seq, 2 * hid), dtype=dtype)   # 2 * sigmoid of z, r
    nn = np.empty((kept, 2, n_seq, hid), dtype=dtype)
    out = np.empty((n_seq, t_len, 2 * hid), dtype=dtype)
    h = np.zeros((2, n_seq, hid), dtype=dtype)
    tasks = submit(0, 0)
    for s in range(t_len):
        i = s % chunk
        if i == 0:
            pool.join(tasks)
            buf = s // chunk % 2
            if s + chunk < t_len:
                tasks = submit(s + chunk, 1 - buf)
            zr_in, n_in = x_zr[buf], x_n[buf]
        us, ns = (u[s], nn[s]) if tracking else (u[0], nn[0])
        np.matmul(h, wh_zr, out=us)
        us += zr_in[i]
        np.tanh(us, out=us)
        us += 1.0
        np.matmul(us[..., hid:] * h, wh_n, out=ns)
        ns += n_in[i]
        np.tanh(ns, out=ns)
        step = ns - h
        step *= m_half[s] * us[..., :hid]
        h += step
        out[:, s, :hid] = h[0]
        out[:, t_len - 1 - s, hid:] = h[1]
    result = out.reshape(lead + (2 * hid,))

    def bwd(g):
        # Bound the pool's backlog: finish the tasks of the BiGRU backward
        # two before this one in the sweep, which hold its gate gradients,
        # before allocating this one's.
        backlog = _sweep.bigru_tasks
        while len(backlog) > 1:
            pool.finish(backlog.pop(0))
        gdt = np.result_type(g, dtype)
        da, dw_h = _bigru_walk(g.reshape(n_seq, t_len, 2 * hid), out, u, nn, m,
                               [cell[1] for cell in cells], chunk)
        # The other GEMMs run as tasks: the input gradients first, the last
        # part's first, as the sweep reaches the newest part soonest; then
        # dw_x, by row blocks, and the biases, which only the sweep's end
        # waits for. Per part, no task is long enough to keep a thread
        # that finishes the backlog waiting for long.
        # Every array a task writes, or reads as a copy, is made here.
        tasks: list[pool.Task] = []
        backlog.append(tasks)

        def queue_task(fn: Callable, *args) -> pool.Task:
            tasks.append(pool.submit(fn, *args))
            return tasks[-1]

        w_rows = np.split(np.concatenate([cell[0].data for cell in cells], axis=1), splits)
        # per computing thread, a formed part's rows, one sequence's part
        # gradient, its product with the rows, and a GEMM addend
        scratch = [(np.empty(t_len * formed_w, dtype=dtype),
                    *(np.empty(t_len * formed_w, dtype=gdt) for _ in range(2)),
                    np.empty((max(widths), 6 * hid), dtype=gdt)) for _ in range(pool.threads())]

        def factor_grads(f: Factor) -> tuple[list, np.ndarray | tuple]:
            """A factor's gradient arrays as (tensor, array) pairs, and the
            views a task writes: (N or 1, T or 1, w or 1), or for a matrix
            product a @ b, a's (N, T, J) and b's (N, J, w), None for one
            that needs no gradient."""
            if isinstance(f, MatProduct):
                gs = [np.empty(t.shape, dtype=gdt) if t.requires_grad else None
                      for t in (f.a, f.b)]
                return ([(t, g) for t, g in zip((f.a, f.b), gs) if g is not None],
                        tuple(g if g is None else g.reshape((n_seq,) + g.shape[-2:])
                              for g in gs))
            g = np.empty(f.shape, dtype=gdt)
            return [(f, g)], _by_sequence(g, lead)

        dx: list = [None] * len(parts)      # per part, its (tensor, gradient) pairs and task
        for k in reversed(range(len(parts))):
            fs = parts[k]
            # a factor that recurs with the same other factors, as H in
            # (w, H, H), gets one gradient: that term times its count
            counts: dict = {}
            for i, f in enumerate(fs):
                if f.requires_grad:
                    key = tuple(id(t) for t in (f, *fs[:i], *fs[i + 1:]))
                    counts.setdefault(key, [i, 0])[1] += 1
            if not counts:
                continue
            made = {i: (factor_grads(fs[i]), c) for i, c in counts.values()}
            dx[k] = [pair for (pairs, _), _ in made.values() for pair in pairs], queue_task(
                _factor_grads, da, w_rows[k].T, xs[k],
                {i: (views, c) for i, ((_, views), c) in made.items()}, scratch)
        dw_x = np.empty((d_in, 6 * hid), dtype=gdt)
        dw_x_tasks = [queue_task(_factor_dw, rows, fs, da, scratch)
                      for fs, rows in zip(xs, np.split(dw_x, splits))]
        db = np.empty(6 * hid, dtype=gdt)
        db_task = queue_task(np.sum, da.reshape(-1, 6 * hid), 0, None, db)
        for entry in dx:                        # in part order, as a serial sum
            if entry is not None:
                for f, gf in entry[0]:
                    _accum(f, gf, entry[1])
        for d, (w_x, w_h, b) in enumerate(cells):
            cols = slice(3 * hid * d, 3 * hid * (d + 1))
            _accum(w_x, dw_x[:, cols], *dw_x_tasks)
            _accum(w_h, dw_h[d])
            _accum(b, db[cols], db_task)

    return _make(result, (*leaves, *weights), bwd)


def _by_sequence(a: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """``a``, which broadcasts to ``lead + (w,)``, as (N or 1, T or 1,
    w or 1): N = prod(lead[:-1]) sequences when it spans the leading axes,
    1 when it spans none of them."""
    a = a.reshape((1,) * (len(lead) + 1 - a.ndim) + a.shape)
    head = a.shape[:-2]
    if head != lead[:-1] and any(s != 1 for s in head):
        raise ShapeError(f"bigru: a factor of shape {a.shape} spans some but not all of "
                         f"the leading axes {lead[:-1]}")
    return a.reshape((int(np.prod(head)),) + a.shape[-2:])


def _part_rows(fs: Sequence, n: int, r0: int, r1: int, buf: np.ndarray,
               width: int) -> np.ndarray:
    """Rows [r0, r1) of sequence n of the product of ``fs``, each (N or 1,
    T or 1, w or 1), the first possibly a matrix product's (a, b): a view
    of a lone tensor, which broadcasts to the rows, or else the product
    multiplied left to right into the flat ``buf`` as a C-contiguous
    (r1 - r0, width) array, a matrix product's rows being
    ``a[n, r0:r1] @ b[n]``."""
    def pick(f: np.ndarray) -> np.ndarray:
        return f[n if len(f) > 1 else 0, slice(r0, r1) if f.shape[1] > 1 else slice(0, 1)]

    if isinstance(fs[0], tuple):
        a, b = fs[0]
        rows = np.matmul(a[n, r0:r1], b[n], out=_rows(buf, r1 - r0, width))
        rest = fs[1:]
    elif len(fs) == 1:
        return pick(fs[0])
    else:
        rows = np.multiply(pick(fs[0]), pick(fs[1]), out=_rows(buf, r1 - r0, width))
        rest = fs[2:]
    for f in rest:
        rows *= pick(f)
    return rows


def _factor_grads(da: np.ndarray, w_t: np.ndarray, fs: Sequence,
                  grads: dict[int, tuple[np.ndarray | tuple, int]],
                  scratch: Sequence[tuple[np.ndarray, ...]]) -> None:
    """The gradients of a part's factors, a lone tensor being a part of one,
    from (N, T, .) ``da``. A sequence at a time, the part's gradient
    ``da[n] @ w_t`` is made (the GEMM ``np.matmul`` runs for that sequence
    of ``da @ w_t``) in a lone tensor's gradient rows, or else in scratch.
    ``grads`` maps the index of a factor in ``fs`` to its gradient array,
    shaped as the factor, and a count: the array gets the part's gradient
    times the product of the other factors, times the count, summed over
    the axes the factor broadcasts on. A matrix product (a, b) has a pair
    of arrays, None for one not wanted: with that term g, which is the
    part's gradient when the product is the part's only factor, a gets
    ``g b[n]^T`` and b ``a[n]^T g``."""
    n_seq, t_len = da.shape[:2]
    if len(fs) == 1 and not isinstance(fs[0], tuple):
        g = grads[0][0]
        for n in range(n_seq):
            np.matmul(da[n], w_t, out=g[n])
        return
    formed, g_buf, term_buf, _ = scratch[pool.slot()]
    width = w_t.shape[1]
    # per gradient: its array, count, factor, the other factors and the
    # axes its factor broadcasts on; one with the part's shape is written
    # in place
    wanted = [(g, count, fs[i], [*fs[:i], *fs[i + 1:]],
               () if isinstance(g, tuple) else
               tuple(ax for ax in (0, 1) if g.shape[ax + 1] < (t_len, width)[ax]))
              for i, (g, count) in grads.items()]
    for n in range(n_seq):
        g_part = np.matmul(da[n], w_t, out=_rows(g_buf, t_len, width))
        for g, count, f, rest, axes in wanted:
            whole = not isinstance(g, tuple) and len(g) > 1 and not axes
            term = g[n] if whole else _rows(term_buf, t_len, width)
            if rest:
                np.multiply(g_part, _part_rows(rest, n, 0, t_len, formed, width), out=term)
            else:
                term = g_part
            if count > 1:
                term *= count
            if whole:
                continue
            if isinstance(g, tuple):
                (a, b), (ga, gb) = f, g
                if ga is not None:
                    np.matmul(term, b[n].T, out=ga[n])
                if gb is not None:
                    np.matmul(a[n].T, term, out=gb[n])
                continue
            if axes:
                term = term.sum(axis=axes, keepdims=True)
            if len(g) > 1:
                g[n] = term
            elif n:                             # a factor that all sequences share
                g[0] += term
            else:
                g[0] = term


def _factor_dw(out: np.ndarray, fs: Sequence, da: np.ndarray,
               scratch: Sequence[tuple[np.ndarray, ...]]) -> None:
    """``out`` = part^T @ da over (N, T, .) ``da``, as a sum over sequences
    of each one's rows times its ``da``: a lone tensor's rows are read in
    place, and a product's are formed again."""
    formed, _, _, term = scratch[pool.slot()]
    width = out.shape[0]
    for n in range(da.shape[0]):
        rows = _part_rows(fs, n, 0, da.shape[1], formed, width)
        if n:
            out += np.matmul(rows.T, da[n], out=term[:width])
        else:
            np.matmul(rows.T, da[n], out=out)


def _rows(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """The first n * width entries of the flat ``buf`` as a C-contiguous
    (n, width) array, the layout the GEMMs write without a copy."""
    return buf[:n * width].reshape(n, width)


def _bigru_walk(g: np.ndarray, out: np.ndarray, u: np.ndarray, nn: np.ndarray,
                m: np.ndarray, w_h: Sequence[Tensor],
                chunk: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The reverse sweep of a ``bigru`` backward, ``chunk`` steps at a time
    from the last, from the output's gradient ``g`` and the output ``out``
    (N, T, 2h), the kept activations ``u`` (2 sigmoid of z and r) and ``nn``
    (T, 2, N, .), the mask ``m`` (T, 2, N, 1) and the directions' ``w_h``.
    Returns the gate gradients in position order, forward then backward
    (N, T, 6h), and per direction the gradient of ``w_h``, summed over the
    chunks in the order they were walked.
    Only ``da`` is as long as the sequence; the rest is freed on return."""
    n_seq, t_len, hid = g.shape[0], g.shape[1], g.shape[2] // 2
    dtype, gdt = out.dtype, np.result_type(g, out)
    wh_zr_t = np.stack([w.data[:, :2 * hid].T for w in w_h])
    wh_n_t = np.stack([w.data[:, 2 * hid:].T for w in w_h])
    da = np.empty((n_seq, t_len, 6 * hid), dtype=gdt)
    # a chunk's incoming gradient, and the states entering its steps and the
    # gate gradients the loop writes, kept direction-major so that each
    # direction's dW_h GEMMs read them whole; the loop sees them step-major
    g_buf = np.empty((chunk, 2, n_seq, hid), dtype=gdt)
    h_buf = np.empty((2, chunk, n_seq, hid), dtype=dtype)
    da_zr_buf = np.empty((2, chunk, n_seq, 2 * hid), dtype=gdt)
    da_n_buf = np.empty((2, chunk, n_seq, hid), dtype=gdt)
    dw_h = [np.zeros((hid, 3 * hid), dtype=gdt) for _ in w_h]
    part = np.empty((hid, 3 * hid), dtype=gdt)
    dh = np.zeros((2, n_seq, hid), dtype=gdt)
    for s0 in range((t_len - 1) // chunk * chunk, -1, -chunk):
        # steps [s0, s1): forward positions [s0, s1), backward ones
        # [lo, hi) reversed; no state enters step 0
        s1 = min(s0 + chunk, t_len)
        c, lo, hi = s1 - s0, t_len - s1, t_len - s0
        first = int(s0 == 0)
        g_out = g_buf[:c]
        g_out[:, 0] = g[:, s0:s1, :hid].transpose(1, 0, 2)
        g_out[:, 1] = g[:, lo:hi, hid:][:, ::-1].transpose(1, 0, 2)
        h_dir = h_buf[:, :c]
        h_dir[:, :first] = 0.0
        h_dir[0, first:] = out[:, s0 + first - 1:s1 - 1, :hid].transpose(1, 0, 2)
        h_dir[1, first:] = out[:, hi - first:lo:-1, hid:].transpose(1, 0, 2)
        h_prev = h_dir.transpose(1, 0, 2, 3)
        us, ns, ms = u[s0:s1], nn[s0:s1], m[s0:s1]
        z, r = 0.5 * us[..., :hid], 0.5 * us[..., hid:]
        # local derivatives that do not depend on the incoming gradient:
        # a_z and a_n per unit of dh', a_r per unit of d(r*h); in place
        # where a factor is no longer needed
        dz_da = ns - h_prev
        dz_da *= ms
        dz_da *= z * (1.0 - z)
        mz = np.multiply(z, ms, out=z)
        dn_da = ns * ns
        np.subtract(1.0, dn_da, out=dn_da)
        dn_da *= mz
        keep = np.subtract(1.0, mz, out=mz)
        dr_da = r * (1.0 - r)
        dr_da *= h_prev
        del z, mz
        da_zr_dir, da_n_dir = da_zr_buf[:, :c], da_n_buf[:, :c]
        da_zr, da_n = da_zr_dir.transpose(1, 0, 2, 3), da_n_dir.transpose(1, 0, 2, 3)
        for i in range(c - 1, -1, -1):
            gs = dh + g_out[i]
            np.multiply(gs, dn_da[i], out=da_n[i])
            np.multiply(gs, dz_da[i], out=da_zr[i, ..., :hid])
            d_rh = da_n[i] @ wh_n_t
            np.multiply(d_rh, dr_da[i], out=da_zr[i, ..., hid:])
            dh = gs * keep[i]
            d_rh *= r[i]
            dh += d_rh
            dh += da_zr[i] @ wh_zr_t
        da[:, s0:s1, :2 * hid] = da_zr[:, 0].transpose(1, 0, 2)
        da[:, s0:s1, 2 * hid:3 * hid] = da_n[:, 0].transpose(1, 0, 2)
        da[:, lo:hi, 3 * hid:5 * hid] = da_zr[::-1, 1].transpose(1, 0, 2)
        da[:, lo:hi, 5 * hid:] = da_n[::-1, 1].transpose(1, 0, 2)
        for d in (0, 1):
            rh = np.multiply(r[:, d], h_dir[d]).reshape(-1, hid)
            dw_h[d] += _gemms_into(part, [
                (h_dir[d].reshape(-1, hid), da_zr_dir[d].reshape(-1, 2 * hid)),
                (rh, da_n_dir[d].reshape(-1, hid))], 1)
    return da, dw_h


def _gemms_into(out: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                axis: int) -> np.ndarray:
    """Fill ``out`` with the products ``a^T @ b`` of ``pairs``, stacked along
    ``axis`` (0: row blocks, 1: column blocks), one GEMM into each block."""
    idx = [slice(None), slice(None)]
    ofs = 0
    for a, b in pairs:
        n = (a if axis == 0 else b).shape[1]
        idx[axis] = slice(ofs, ofs + n)
        np.matmul(a.T, b, out=out[tuple(idx)])
        ofs += n
    return out


# ---------------------------------------------------------------------------
# self-attention


# Query rows whose similarities are held at once, which bounds the
# attention scratch to ATTENTION_BLOCK x T per sequence.
ATTENTION_BLOCK = 256


def self_attention(M: Tensor, w_h: Tensor, w_u: Tensor, proj_w: Tensor,
                   proj_b: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """BiDAF attention of a sequence against itself, projected back, as a
    single graph node.

    Per sequence, K holds the rows of ``M`` (..., T, w) where ``mask``
    (..., T) is nonzero, or all rows without a mask. Over those rows only:
    S = K K^T + (K w_h) 1^T + 1 (K w_u)^T, c2q = softmax_rows(S) K,
    m_t = max_j S_tj (its gradient goes to the first maximizer on ties) and
    q2c = softmax_t(m)^T K. Every row t then gets
    out_t = [M_t, c2q_t, M_t * c2q_t, M_t * q2c] proj_w + proj_b, with
    ``proj_w`` (4w, w') applied as four row blocks. At padded rows c2q is 0;
    q2c is the sequence's one vector at every row. A sequence with no real
    position raises ``DataError``.

    No T x T array is built: S is made ``ATTENTION_BLOCK`` query rows at a
    time, exponentiated in place, and kept only as each row's maximizer and
    log-sum-exp. The backward recomputes each block of softmax weights from
    those, so memory is O(T w + ATTENTION_BLOCK T) in both modes. The term
    a = K w_h is constant along each row of S, so the row softmax does not
    see it: a block is the one GEMM [K, 1] @ [K, b]^T with b = K w_u, a is
    added to the row maxima only, and its gradient is that of m.

    The forward runs one task per sequence on the pool (``hopqa.pool``); a
    task makes its sequence's c2q, q2c and out rows, the four projection
    terms added in the order above. Each task works in the scratch of the
    computing thread that runs it (``pool.slot``): [K, 1], [K, b], a block
    of S, its [P K, row sums] and two row buffers of one sequence. This
    thread allocates every array a task writes, so a no-grad call holds c2q
    and out beside per-thread scratch of O(T w + ATTENTION_BLOCK T). A
    non-finite similarity raises ``NumericError`` once every task has
    finished. The backward recomputes M * q2c. It hands the four row-block
    GEMMs of ``proj_w``'s gradient and ``proj_b``'s column sums to the pool
    as pending contributions (``_accum``), on arrays allocated here, and
    runs its per-sequence part as one task per sequence, again in per-thread
    scratch allocated here. Each task adds its sequence's gradient into the
    input's and writes its ``w_h`` and ``w_u`` terms to its own rows, which
    this thread sums in sequence order, so the gradients do not depend on
    where the tasks ran.
    """
    if M.ndim < 2:
        raise ShapeError(f"self_attention: input must be at least rank 2, got {M.shape}")
    t_len, width = M.shape[-2:]
    if w_h.shape != (width, 1) or w_u.shape != (width, 1) or proj_w.ndim != 2 \
            or proj_w.shape[0] != 4 * width or proj_b.shape != proj_w.shape[1:]:
        raise ShapeError(f"self_attention: weights {w_h.shape}, {w_u.shape}, {proj_w.shape}, "
                         f"{proj_b.shape} do not fit input width {width}")
    n_seq = int(np.prod(M.shape[:-2]))
    dtype = np.result_type(M.data, w_h.data, w_u.data, proj_w.data, proj_b.data)
    x = M.data.astype(dtype, copy=False).reshape(n_seq, t_len, width)
    # real rows of each sequence: a slice when they are contiguous
    rows: list = [slice(0, t_len)] * n_seq
    sizes = np.full(n_seq, t_len)
    if mask is not None:
        mk = np.asarray(mask)
        if mk.shape != M.shape[:-1]:
            raise ShapeError(f"self_attention: mask shape {mk.shape} != sequence shape "
                             f"{M.shape[:-1]}")
        for i, row in enumerate(mk.reshape(n_seq, t_len)):
            idx = np.flatnonzero(row)
            sizes[i] = idx.size
            contiguous = idx.size and idx[-1] - idx[0] + 1 == idx.size
            rows[i] = slice(idx[0], idx[-1] + 1) if contiguous else idx
    if n_seq and not sizes.min():
        raise DataError(f"self_attention: sequence {np.argmin(sizes)} has no real position")
    w_hv = w_h.data[:, 0].astype(dtype, copy=False)
    w_uv = w_u.data[:, 0].astype(dtype, copy=False)
    p_w = proj_w.data.astype(dtype, copy=False).reshape(4, width, -1)
    w_out = p_w.shape[-1]

    def sides(k: np.ndarray, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fill ``left`` = [K, 1] and ``right`` = [K, K w_u], both (n, w + 1)."""
        left[:, :width] = right[:, :width] = k
        left[:, width] = 1.0
        right[:, width] = k @ w_uv
        return left, right

    def blocks(n: int):
        for r0 in range(0, n, ATTENTION_BLOCK):
            yield r0, min(r0 + ATTENTION_BLOCK, n)

    c2q = np.zeros_like(x)
    q2c = np.empty((n_seq, width), dtype=dtype)
    out = np.empty((n_seq, t_len, w_out), dtype=dtype)
    saved: list = [None] * n_seq     # per sequence: row maximizers, log-sum-exps, q2c weights

    block = min(ATTENTION_BLOCK, t_len)
    scratch = [(np.empty((2, t_len, width + 1), dtype=dtype), np.empty(block * t_len, dtype=dtype),
                np.empty((block, width + 1), dtype=dtype), np.empty((t_len, width), dtype=dtype),
                np.empty((t_len, w_out), dtype=dtype)) for _ in range(pool.threads())]

    def attend(i: int) -> None:
        """c2q, q2c and out of sequence i, in this thread's scratch."""
        sides_buf, s_buf, pk_buf, row_buf, prod = scratch[pool.slot()]
        live = rows[i]
        k = x[i, live]
        n = len(k)
        lk, rk = sides(k, sides_buf[0, :n], sides_buf[1, :n])
        top_at = np.empty(n, dtype=np.intp)
        top = k @ w_hv                      # m = a + the row max of S - a
        lse = np.empty(n, dtype=dtype)
        ck = row_buf[:n]
        for r0, r1 in blocks(n):
            s = np.matmul(lk[r0:r1], rk.T, out=_rows(s_buf, r1 - r0, n))
            at = s.argmax(axis=1)
            peak = s[np.arange(r1 - r0), at]
            if not np.isfinite(peak).all() or not np.isfinite(s.min()):
                raise NumericError("self_attention: non-finite similarity")
            s -= peak[:, None]
            np.exp(s, out=s)
            pk = np.matmul(s, lk, out=pk_buf[:r1 - r0])   # [P K, row sums of P]
            np.divide(pk[:, :width], pk[:, width:], out=ck[r0:r1])
            top_at[r0:r1] = at
            top[r0:r1] += peak
            lse[r0:r1] = peak + np.log(pk[:, width])
        beta = np.exp(top - top.max())
        beta /= beta.sum()
        q2c[i] = beta @ k
        c2q[i, live] = ck
        saved[i] = (top_at, lse, beta)
        # out = [M, c2q, M * c2q, M * q2c] proj_w + proj_b, summed in that order
        xi, oi = x[i], out[i]
        np.matmul(xi, p_w[0], out=oi)
        oi += np.matmul(c2q[i], p_w[1], out=prod)
        oi += np.matmul(np.multiply(xi, c2q[i], out=row_buf), p_w[2], out=prod)
        oi += np.matmul(np.multiply(xi, q2c[i], out=row_buf), p_w[3], out=prod)
        oi += proj_b.data

    pool.join([pool.submit(attend, i) for i in range(n_seq)])
    result = out.reshape(M.shape[:-1] + (w_out,))

    def bwd(g):
        gdt = np.result_type(g, dtype)
        g2 = g.reshape(-1, w_out)
        x2 = x.reshape(-1, width)
        c2q2 = c2q.reshape(-1, width)
        # the projection's weight gradients run as tasks, on arrays made here
        if proj_w.requires_grad:
            dp_w = np.empty((4 * width, w_out), dtype=gdt)
            mq = (x * q2c[:, None]).reshape(-1, width)
            _accum(proj_w, dp_w, pool.submit(_gemms_into, dp_w, [
                (x2, g2), (c2q2, g2), (x2 * c2q2, g2), (mq, g2)], 0))
        if proj_b.requires_grad:
            dp_b = np.empty(w_out, dtype=g2.dtype)
            _accum(proj_b, dp_b, pool.submit(np.sum, g2, 0, None, dp_b))
        d_m, d_c2q, d_mc, d_mq = (g2 @ p.T for p in p_w)
        d_q2c = (d_mq * x2).reshape(n_seq, t_len, width).sum(axis=1)
        d_c2q += d_mc * x2
        d_m += d_mc * c2q2
        d_mq *= np.repeat(q2c, t_len, axis=0)
        d_m += d_mq
        del d_mc, d_mq
        d_c2q = d_c2q.reshape(n_seq, t_len, width)
        dx = d_m.reshape(n_seq, t_len, width)
        # one task per sequence, in the scratch of the thread that runs it;
        # each adds its K gradient into dx and writes its w_h and w_u terms
        # to its rows of dw, summed here in sequence order
        dw = np.empty((2, n_seq, width), dtype=gdt)
        scratch = [(np.empty((2, t_len, width + 1), dtype=dtype),
                    np.empty((t_len, width + 1), dtype=gdt), np.empty((t_len, width), dtype=gdt),
                    np.empty(block * t_len, dtype=dtype), np.empty(block * t_len, dtype=gdt),
                    np.empty(t_len * (width + 1), dtype=gdt)) for _ in range(pool.threads())]

        def seq_grads(i: int) -> None:
            sides_buf, d_right, dk, p_buf, ds_buf, tmp = scratch[pool.slot()]
            live, (top_at, lse, beta) = rows[i], saved[i]
            k = x[i, live]
            n = len(k)
            left, right = sides(k, sides_buf[0, :n], sides_buf[1, :n])
            d_right, dk = d_right[:n], dk[:n]
            dck = d_c2q[i, live]
            row_dot = np.multiply(dck, c2q[i, live], out=_rows(tmp, n, width)).sum(axis=1)
            # q2c = beta^T K and beta = softmax(m)
            d_beta = k @ d_q2c[i]
            d_top = beta * (d_beta - beta @ d_beta)
            np.outer(beta, d_q2c[i], out=dk)
            d_right[...] = 0.0
            for r0, r1 in blocks(n):
                p = np.matmul(left[r0:r1], right.T, out=_rows(p_buf, r1 - r0, n))
                p -= lse[r0:r1, None]
                np.exp(p, out=p)
                ds = np.matmul(dck[r0:r1], k.T, out=_rows(ds_buf, r1 - r0, n))
                dk += np.matmul(p.T, dck[r0:r1], out=_rows(tmp, n, width))
                ds -= row_dot[r0:r1, None]
                ds *= p
                ds[np.arange(r1 - r0), top_at[r0:r1]] += d_top[r0:r1]
                dk[r0:r1] += np.matmul(ds, k, out=_rows(tmp, r1 - r0, width))
                d_right += np.matmul(ds.T, left[r0:r1], out=_rows(tmp, n, width + 1))
            dk += d_right[:, :width]
            d_b = d_right[:, width]
            dk += np.outer(d_top, w_hv, out=_rows(tmp, n, width))
            dk += np.outer(d_b, w_uv, out=_rows(tmp, n, width))
            np.matmul(k.T, d_top, out=dw[0, i])
            np.matmul(k.T, d_b, out=dw[1, i])
            dx[i, live] += dk

        pool.join([pool.submit(seq_grads, i) for i in range(n_seq)])
        dw_h = np.zeros(width, dtype=gdt)
        dw_u = np.zeros(width, dtype=gdt)
        for i in range(n_seq):
            dw_h += dw[0, i]
            dw_u += dw[1, i]
        _accum(M, dx.reshape(M.shape))
        _accum(w_h, dw_h[:, None])
        _accum(w_u, dw_u[:, None])

    return _make(result, (M, w_h, w_u, proj_w, proj_b), bwd)


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
    while a task on the pool (``hopqa.pool``) still computes it; the sweep
    goes on to other nodes, folds finished contributions as they arrive and
    waits for a node's pending ones just before its closure runs, and for
    every leaf's before it returns, running in this thread each pending task
    that no worker has started; it returns only once every task it started
    has finished. So the weight-gradient GEMMs of one node run while the
    calling thread works through the nodes after it, and the sweep never
    waits for a task queued behind others.

    Interior (non-leaf) gradients live only during the sweep: each is
    cleared before it starts and freed once its node has passed it on, so
    afterwards only the leaves hold a ``grad``, each an array. Calling
    ``backward`` again after clearing the leaves' grads gives the same
    result. If a closure or a task raises, ``backward`` waits for every task
    the sweep started, then raises that error; the leaves' grads may then
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
    finally:
        for tasks in _sweep.bigru_tasks:
            pool.finish(tasks)
        _sweep.bigru_tasks.clear()


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
