"""BiDAF self-attention as one graph node (see ``self_attention``)."""

from __future__ import annotations

import numpy as np

from .. import pool
from ..autodiff import DataError, NumericError, ShapeError, Tensor, _accum, _make
from . import _gemms_into, _rows


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
