"""Bidirectional attention between context and query.

The similarity matrix couples a context encoding H (..., T, 2d) with a
query encoding U (..., J, 2d). On top of it sit four attention readouts:

* query decomposition: each query word re-expressed as a mixture of context
  words, fused back with the original query (a coarse rewrite of multi-hop
  questions toward their intermediate answers);
* vanilla query-to-context: a single max-pooled context summary tiled over
  all positions (the classic form; every row identical);
* fine-grained query-to-context: column-stochastic weights that keep a
  distinct vector per context position;
* context-to-query: per-position mixtures of query words.

All functions are pure; pass an ``AttentionTrace`` to capture the
intermediate matrices for inspection or export. Masks are 0/1 arrays over
positions; masked entries receive a -1e30 additive bias before any softmax,
which drives their attention mass to zero without renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import MASK_FILL, ShapeError, Tensor, concat, matmul, softmax, transpose
from .layers import linear, xavier_uniform


@dataclass
class SimilarityParams:
    w_h: Tensor     # context projection, (2d, 1)
    w_u: Tensor     # query projection, (2d, 1)

    @classmethod
    def create(cls, width: int, rng: np.random.Generator, dtype=np.float32) -> "SimilarityParams":
        return cls(w_h=Tensor(xavier_uniform(rng, width, 1, dtype=dtype), requires_grad=True),
                   w_u=Tensor(xavier_uniform(rng, width, 1, dtype=dtype), requires_grad=True))


@dataclass
class FusionParams:
    w_s: Tensor     # (6d, 2d): projects [U; attended; U * attended] per query word

    @classmethod
    def create(cls, width: int, rng: np.random.Generator, dtype=np.float32) -> "FusionParams":
        return cls(w_s=Tensor(xavier_uniform(rng, 3 * width, width, dtype=dtype),
                              requires_grad=True))


@dataclass
class AttentionTrace:
    """Numpy snapshots of one forward pass, for tests and heatmap export.

    Arrays keep any batch/padding axes they were computed with; masks are
    stored alongside so callers can restrict to real positions."""

    similarity: np.ndarray | None = None          # (..., T, J), mask bias included
    decomp_weights: np.ndarray | None = None      # (..., J, T), rows sum to 1
    attended_query: np.ndarray | None = None      # (..., J, 2d), pre-fusion mixtures
    decomposed_query: np.ndarray | None = None    # (..., J, 2d)
    similarity2: np.ndarray | None = None         # (..., T, J), vs the decomposed query
    q2c_weights: np.ndarray | None = None         # (..., T, J), columns sum to 1
    c2q_weights: np.ndarray | None = None         # (..., T, J), rows sum to 1
    q2c_vectors: np.ndarray | None = None         # (..., T, 2d)
    c2q_vectors: np.ndarray | None = None         # (..., T, 2d)
    fused: np.ndarray | None = None               # (..., T, 8d)
    context_mask: np.ndarray | None = None        # (..., T)
    query_mask: np.ndarray | None = None          # (..., J)

    def example(self, i: int) -> "AttentionTrace":
        """Select one example out of a batched trace."""
        picked = {}
        for f in fields(self):
            v = getattr(self, f.name)
            picked[f.name] = None if v is None else v[i]
        return AttentionTrace(**picked)

    def lengths(self) -> tuple[int, int]:
        """Real (context, query) lengths of a single-example trace."""
        t = int(self.context_mask.sum()) if self.context_mask is not None else \
            self.similarity.shape[-2]
        j = int(self.query_mask.sum()) if self.query_mask is not None else \
            self.similarity.shape[-1]
        return t, j


def _mask_bias(mask, dtype) -> np.ndarray:
    m = np.asarray(mask, dtype=dtype)
    return (1.0 - m) * MASK_FILL


def similarity(H: Tensor, U: Tensor, p: SimilarityParams,
               context_mask=None, query_mask=None) -> Tensor:
    """S = h + u + H U^T with h = H w_h, u = U w_u rank-1 linear terms
    broadcast over (..., T, J); padding rows/columns are pushed to -1e30
    (-2e30 where both are padding).

    The whole sum is one matmul, S = [H, a, 1] @ [U, 1, b]^T with
    a = h + context bias and b = u + query bias, so the (..., T, J) result
    is the only array of that size. The -1e30 bias lies far beyond the float
    spacing of every other term, so masked entries are exactly -1e30/-2e30."""
    if H.shape[-1] != p.w_h.shape[0] or U.shape[-1] != p.w_u.shape[0]:
        raise ShapeError(f"similarity: widths {H.shape} / {U.shape} do not match "
                         f"params ({p.w_h.shape[0]})")
    dt = H.data.dtype
    a = linear(H, p.w_h)
    if context_mask is not None:
        a = a + Tensor(_mask_bias(context_mask, dt)[..., None])
    b = linear(U, p.w_u)
    if query_mask is not None:
        b = b + Tensor(_mask_bias(query_mask, dt)[..., None])
    left = concat([H, a, Tensor(np.ones(a.shape, dt))], axis=-1)
    right = concat([U, Tensor(np.ones(b.shape, dt)), b], axis=-1)
    return matmul(left, transpose(right))


def cgde(H: Tensor, U: Tensor, S: Tensor, f: FusionParams,
         trace: AttentionTrace | None = None) -> Tensor:
    """Coarse-grained query decomposition.

    Each query word attends over all context positions (softmax of its
    similarity column), yielding an attended context vector; the original
    query, the attended vector and their product are fused through w_s into
    a decomposed query of the original (..., J, 2d) shape.
    """
    if f.w_s.shape[0] != 3 * U.shape[-1]:
        raise ShapeError(f"cgde: fusion expects width {f.w_s.shape[0] // 3}, "
                         f"query has {U.shape[-1]}")
    a = softmax(transpose(S), axis=-1)                    # (..., J, T)
    attended = matmul(a, H)                               # (..., J, 2d)
    q_bar = matmul(concat([U, attended, ad.mul(U, attended)], axis=-1), f.w_s)
    if trace is not None:
        trace.decomp_weights = a.data.copy()
        trace.attended_query = attended.data.copy()
        trace.decomposed_query = q_bar.data.copy()
    return q_bar


def vanilla_q2c(H: Tensor, S: Tensor, trace: AttentionTrace | None = None) -> Tensor:
    """Classic query-to-context: softmax over positions of the per-row
    maximum similarity, a single weighted context sum, tiled to every row."""
    m = ad.max_reduce(S, axis=-1)                         # (..., T)
    b = softmax(m, axis=-1)
    b_row = ad.reshape(b, b.shape[:-1] + (1, b.shape[-1]))
    pooled = matmul(b_row, H)                             # (..., 1, 2d)
    out = ad.broadcast_to(pooled, H.shape)
    if trace is not None:
        trace.q2c_vectors = out.data.copy()
    return out


def fgin_q2c(H: Tensor, S_bar: Tensor, trace: AttentionTrace | None = None) -> Tensor:
    """Fine-grained query-to-context.

    Each similarity column is softmax-normalized over context positions and
    scales the context row-wise; the per-query-word products are summed.
    Since the context does not depend on the query word, the sum collapses
    to (row sums of the column weights) * H, kept here for speed.
    """
    a_cols = softmax(S_bar, axis=-2)                      # (..., T, J), columns stochastic
    weights = ad.reduce_sum(a_cols, axis=-1, keepdims=True)
    out = ad.mul(weights, H)                              # (..., T, 2d)
    if trace is not None:
        trace.q2c_weights = a_cols.data.copy()
        trace.q2c_vectors = out.data.copy()
    return out


def context2query(Qrows: Tensor, S_bar: Tensor,
                  trace: AttentionTrace | None = None) -> Tensor:
    """Per context position, a softmax over query words mixes query rows."""
    a_rows = softmax(S_bar, axis=-1)                      # (..., T, J), rows stochastic
    out = matmul(a_rows, Qrows)                           # (..., T, 2d)
    if trace is not None:
        trace.c2q_weights = a_rows.data.copy()
        trace.c2q_vectors = out.data.copy()
    return out


def fuse_g(H: Tensor, c2q: Tensor, q2c: Tensor,
           trace: AttentionTrace | None = None) -> list[Tensor]:
    """The context fused with both attention readouts, as the four (..., T, 2d)
    parts [H, c2q, H * q2c, q2c * c2q] of G (..., T, 8d); the consumers take
    parts, so G is never joined. A trace gets the join."""
    for name, t in (("c2q", c2q), ("q2c", q2c)):
        if t.shape[-1] != H.shape[-1]:
            raise ShapeError(f"fuse_g: {name} width {t.shape[-1]} != context width {H.shape[-1]}")
    parts = [H, c2q, ad.mul(H, q2c), ad.mul(q2c, c2q)]
    if trace is not None:
        trace.fused = np.concatenate([p.data for p in parts], axis=-1)
    return parts
