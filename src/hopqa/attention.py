"""Bidirectional attention between context and query.

The similarity matrix couples a context encoding H (..., T, 2d) with a
query encoding U (..., J, 2d). On top of it sit four attention readouts:

* query decomposition: each query word re-expressed as a mixture of context
  words, fused back with the original query (a coarse rewrite of multi-hop
  questions toward their intermediate answers);
* vanilla query-to-context: a single max-pooled context summary, one row
  that broadcasts over all positions (the classic form);
* fine-grained query-to-context: column-stochastic weights that keep a
  distinct vector per context position;
* context-to-query: per-position mixtures of query words, returned as
  the matrix product of the mixing weights and the query
  (``ad.MatProduct``), which is never formed whole.

All functions are pure; pass an ``AttentionTrace`` to capture the
intermediate matrices for inspection or export. Masks are 0/1 arrays over
positions; masked entries receive a -1e30 additive bias before any softmax,
which drives their attention mass to zero without renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import (
    MASK_FILL,
    Factor,
    MatProduct,
    ShapeError,
    Tensor,
    concat,
    matmul,
    softmax,
    transpose,
)
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
    maximum similarity, a single weighted context sum (..., 1, 2d). It is
    one factor of ``fuse_g``'s two products, which broadcast it over every
    row. A trace gets it tiled to (..., T, 2d)."""
    m = ad.max_reduce(S, axis=-1)                         # (..., T)
    b = softmax(m, axis=-1)
    b_row = ad.reshape(b, b.shape[:-1] + (1, b.shape[-1]))
    pooled = matmul(b_row, H)                             # (..., 1, 2d)
    if trace is not None:
        trace.q2c_vectors = np.broadcast_to(pooled.data, H.shape).copy()
    return pooled


def fgin_q2c(H: Tensor, S_bar: Tensor,
             trace: AttentionTrace | None = None) -> tuple[Tensor, Tensor]:
    """Fine-grained query-to-context, as the factors ``(weights, H)`` of the
    product weights * H (..., T, 2d).

    Each similarity column is softmax-normalized over context positions and
    scales the context row-wise; the per-query-word products are summed.
    Since the context does not depend on the query word, the sum collapses
    to (row sums of the column weights) * H. That product is not built: the
    weights (..., T, 1) and H are returned as factors for ``fuse_g``, whose
    parts the BiGRUs form a chunk at a time. A trace gets the product.
    """
    a_cols = softmax(S_bar, axis=-2)                      # (..., T, J), columns stochastic
    weights = ad.reduce_sum(a_cols, axis=-1, keepdims=True)
    if trace is not None:
        trace.q2c_weights = a_cols.data.copy()
        trace.q2c_vectors = weights.data * H.data
    return weights, H


def context2query(Qrows: Tensor, S_bar: Tensor,
                  trace: AttentionTrace | None = None) -> MatProduct:
    """Per context position, a softmax over query words mixes query rows:
    c2q = A Qrows (..., T, 2d), A being the (..., T, J) row-softmax of the
    similarity. That product is not built: it is returned as the factors
    ``MatProduct(A, Qrows)`` for ``fuse_g``, and ``ad.bigru`` forms it a
    chunk of rows at a time. A trace gets the product."""
    a_rows = softmax(S_bar, axis=-1)                      # (..., T, J), rows stochastic
    if trace is not None:
        trace.c2q_weights = a_rows.data.copy()
        trace.c2q_vectors = a_rows.data @ Qrows.data
    return MatProduct(a_rows, Qrows)


def fuse_g(H: Tensor, c2q: Tensor | MatProduct,
           q2c: Tensor | tuple[Tensor, ...]) -> list[Factor | tuple[Factor, ...]]:
    """The context fused with both attention readouts, as the four (..., T, 2d)
    parts [H, c2q, H * q2c, q2c * c2q] of G (..., T, 8d); the consumers take
    parts, so G is never joined. ``c2q`` is a tensor or, as
    ``context2query`` returns it, the matrix product ``MatProduct(A, q)``.
    ``q2c`` is a tensor, such as ``vanilla_q2c``'s (..., 1, 2d) row, or a
    tuple of factors, such as ``fgin_q2c``'s. Neither elementwise product is
    built: they are returned as the factors ``(*q2c, H)`` and
    ``(c2q, *q2c)``, which ``ad.bigru`` multiplies left to right a chunk at
    a time, forming a chunk's rows of c2q from its two factors first (a
    matrix product must be its part's first factor). A product of two
    numbers does not depend on their order, so the first has the bits of
    H * q2c."""
    q2c = (q2c,) if isinstance(q2c, Tensor) else tuple(q2c)
    q2c_shape = np.broadcast_shapes(*(t.shape for t in q2c))
    for name, shape in (("c2q", c2q.shape), ("q2c", q2c_shape)):
        if shape[-1] != H.shape[-1]:
            raise ShapeError(f"fuse_g: {name} width {shape[-1]} != context width {H.shape[-1]}")
    return [H, c2q, (*q2c, H), (c2q, *q2c)]
