"""The bidirectional GRU as one graph node (see ``bigru``)."""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .. import pool
from ..autodiff import (Factor, MatProduct, ShapeError, Tensor, _accum, _factors, _leaves,
                        _make, _part_shape, _tracking)
from . import _gemms_into, _rows


# Steps whose input projection the forward makes at once, and that the
# backward walks at once: this bounds their scratch on long sequences.
BIGRU_CHUNK = 256


class _Backlog(threading.local):
    """Per thread, the tasks of the latest BiGRU backwards, oldest first. A
    backward's tasks read its gate gradients ``da`` (N, T, 6h) and write its
    input and ``w_x``/bias gradients; the rest of its scratch is gone once
    it returns. ``backward`` waits for every task handed to it, so after a
    sweep the lists hold only finished tasks, which hold no arrays."""

    def __init__(self):
        self.tasks: list[list[pool.Task]] = []


_backlog = _Backlog()


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
    waits for) the tasks of the BiGRU backward two before it in the thread;
    a sweep then holds the gate gradients of at most two such backwards. A
    backward that raises before it has handed its tasks over finishes them
    before it raises, so none outlives the sweep.
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
        # two before this one in this thread, which hold its gate gradients,
        # before allocating this one's.
        backlog = _backlog.tasks
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

        try:
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
        except BaseException:           # finish what was not handed over
            pool.finish(tasks)
            raise

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
