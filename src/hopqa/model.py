"""Full model assembly: embeddings through the prediction cascade.

The context flows through word/char embeddings, a highway fusion, a
contextual BiGRU, the query-decomposition and fine-grained attention block,
a modeling BiGRU with self-attention, and four stacked prediction BiGRUs
(supporting sentences, answer start, answer end, answer type). Both
attention strategies sit behind config flags so the ablation grid
(baseline / decomposition only / fine-grained only / both) runs on one
implementation.

The embedding runs once per row of the batch's token table
(``Batch.token_words``/``token_chars``, over the context and question
together), not per position. Without dropout the whole embedding runs on
the table and is gathered to the positions at the highway output; in
training with dropout only the char-CNN runs on the table, and its output
is gathered before the char dropout, which is drawn at the per-position
shapes, so the random stream does not change (``Model._embed``).

The fused block G = [H, c2q, H * q2c, q2c * c2q] stays four parts of
(B, T, 2d) each and is never joined, and its two products are never built:
they are the tuples of factors (*q2c, H) and (c2q, *q2c), q2c being FGIn's
(weights, H) or the vanilla (B, 1, 2d) row. c2q is not built either: it is
the matrix product ``ad.MatProduct(A, q)`` of the (B, T, J) row-softmax
weights and the (B, J, 2d) decomposed query, whose rows a BiGRU forms a
chunk at a time, so H is the only (B, T, 2d) array that G holds. The
modeling BiGRU reads G, and the prediction BiGRUs read [*G, M] and
[*G, M, g], g being the previous one's output. Each BiGRU is one graph node that reads its per-gate weights
as they are stored, sums one input-projection GEMM per part, and forms a
product part's rows a chunk at a time in per-thread scratch. The dropout
before a BiGRU (the encoder's input, G and [*G, M]) is a dropout over parts:
it draws its bool mask at the joined shape one sequence at a time, which is
the random stream of the join, and appends each part's mask columns and the
scale 1/(1 - rate) to its factors, so no dropped copy is stored either.
The same code runs in evaluation and training; only the char features and
the heads' inputs are dropped as tensors.

Self-attention is one ``ad.self_attention`` node: each sequence attends
over its real positions only, a block of query rows at a time, so no
T x T array is built in training or evaluation. Its padded rows get a zero
context-to-query readout; nothing downstream reads them.

Two forwards hand tasks to the pool in ``hopqa.pool``: each BiGRU projects
its next chunk of input, one task per direction and sequence, while its
step loop runs the current one, and self-attention runs one task per
sequence. In the backward, each BiGRU hands its input- and weight-gradient
GEMMs to the pool, and self-attention its projection's weight gradients,
while the calling thread goes on through the graph. The caller allocates
every array a task writes, and ``ad.backward`` sums each gradient's
contributions in arrival order, so outputs and gradients are bit-identical
to a serial run. ``Model.forward`` may be called from several threads at
once: grad mode is per thread, and every call has its own scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import (
    AttentionTrace,
    FusionParams,
    SimilarityParams,
    cgde,
    context2query,
    fgin_q2c,
    fuse_g,
    similarity,
    vanilla_q2c,
)
from .autodiff import (
    MASK_FILL,
    DataError,
    DTypeError,
    ShapeError,
    Tensor,
    UsageError,
    concat,
    gather_rows,
    no_grad,
)
from .data import ANSWER_TYPES, Batch, Example
from .layers import (
    CHAR_KERNEL,
    BiGruParams,
    CharCnnParams,
    HighwayLayer,
    Linear,
    bigru,
    char_cnn,
    embed_words,
    embedding_table,
    highway,
    linear,
    named_tensors,
)


@dataclass
class ModelConfig:
    d: int = 80
    dropout: float = 0.2
    use_cgde: bool = True
    use_fgin: bool = True
    lambda_a: float = 0.5
    lambda_s: float = 2.0
    max_span_len: int = 30
    sup_threshold: float = 0.5
    word_dim: int = 300
    char_dim: int = 8
    char_filters: int = 100
    max_word_len: int = 16
    train_word_emb: bool = False
    predict_support: bool = True
    dtype: str = "float32"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.max_word_len < CHAR_KERNEL:
            raise ValueError(f"max_word_len must be >= the char-CNN kernel {CHAR_KERNEL}, "
                             f"got {self.max_word_len}")
        for name in ("lambda_a", "lambda_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 <= self.sup_threshold <= 1.0:
            raise ValueError(f"sup_threshold must be in [0, 1], got {self.sup_threshold}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unknown dtype {self.dtype!r}")
        for name in ("word_dim", "char_dim", "char_filters", "max_span_len"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass
class ModelOutputs:
    type_logits: Tensor                 # (B, 3)
    start_logits: Tensor                # (B, T), -1e30 at padding
    end_logits: Tensor                  # (B, T)
    sup_logits: Tensor                  # (B, S), -1e30 at padding
    trace: AttentionTrace | None = None


@dataclass
class Prediction:
    id: str
    answer_text: str
    answer_type: str
    supporting_facts: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class SelfAttentionParams:
    sim: SimilarityParams
    proj: Linear        # (8d, 2d)


def self_attention(M: Tensor, p: SelfAttentionParams, mask=None) -> Tensor:
    """Bidirectional attention of a sequence against itself over its real
    positions, fused the conventional way ([M, c2q, M * c2q, M * q2c]) and
    projected back to the input width; one ``ad.self_attention`` node.

    At padded rows the context-to-query readout is 0, so the output there
    is [M, 0, 0, M * q2c] projected. Nothing reads those rows: a masked GRU
    step ignores its input. A sequence with no real position raises
    ``DataError``."""
    return ad.self_attention(M, p.sim.w_h, p.sim.w_u, p.proj.w, p.proj.b, mask)


class Model:
    """Parameter container plus the forward pass.

    A tensor's name, in ``parameters()`` and in checkpoints, is its path
    through the bundle tree of ``_tree`` (``layers.named_tensors``), e.g.
    ``encoder.fw.wx_z``. The word table trains only with
    ``config.train_word_emb``, but is saved and loaded either way."""

    def __init__(self, config: ModelConfig, n_words: int, n_chars: int,
                 rng: np.random.Generator, word_vectors: np.ndarray | None = None):
        self.config = config
        dt = config.np_dtype
        d = config.d
        width = 2 * d

        if word_vectors is None:
            self.word_table = embedding_table(n_words, config.word_dim, rng,
                                              trainable=config.train_word_emb, dtype=dt)
        elif word_vectors.shape != (n_words, config.word_dim):
            raise ShapeError(f"word vectors {word_vectors.shape} != "
                             f"({n_words}, {config.word_dim})")
        else:
            self.word_table = Tensor(word_vectors.astype(dt),
                                     requires_grad=config.train_word_emb)
        self.unk_row = Tensor((rng.standard_normal((1, config.word_dim)) * 0.1).astype(dt),
                              requires_grad=True)
        self.char_params = CharCnnParams.create(n_chars, config.char_dim,
                                                config.char_filters, rng, dtype=dt)
        self.proj = Linear.create(config.word_dim + config.char_filters, d, rng, dtype=dt)
        self.highway = HighwayLayer.stack(d, rng, dtype=dt)
        self.encoder = BiGruParams.create(d, d, rng, dtype=dt)
        self.sim = SimilarityParams.create(width, rng, dtype=dt)
        self.fusion = FusionParams.create(width, rng, dtype=dt)
        self.modeling = BiGruParams.create(4 * width, d, rng, dtype=dt)
        self.selfatt = SelfAttentionParams(SimilarityParams.create(width, rng, dtype=dt),
                                           Linear.create(4 * width, width, rng, dtype=dt))
        r_width = 4 * width + width                   # fused block + modeling output
        self.pred_grus = [BiGruParams.create(r_width, d, rng, dtype=dt)]
        for _ in range(3):
            self.pred_grus.append(BiGruParams.create(r_width + width, d, rng, dtype=dt))
        self.sup_head = Linear.create(2 * width, 1, rng, dtype=dt)
        self.start_head = Linear.create(width, 1, rng, dtype=dt)
        self.end_head = Linear.create(width, 1, rng, dtype=dt)
        self.type_head = Linear.create(width, 3, rng, dtype=dt)

    def _tree(self) -> dict:
        return {"embed": {"word": {"table": self.word_table, "unk": self.unk_row},
                          "char": self.char_params, "proj": self.proj},
                "highway": self.highway,
                "encoder": self.encoder,
                "att": {"sim": self.sim, "fusion": self.fusion},
                "modeling": self.modeling,
                "selfatt": self.selfatt,
                **{f"pred{i}": p for i, p in enumerate(self.pred_grus, start=1)},
                "head": {"sup": self.sup_head, "start": self.start_head,
                         "end": self.end_head, "type": self.type_head}}

    def parameters(self) -> dict[str, Tensor]:
        """Trainable tensors by name, in tree order."""
        return {name: t for name, t in named_tensors(self._tree()).items() if t.requires_grad}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All persistent arrays, including a frozen word table."""
        return {name: t.data for name, t in named_tensors(self._tree()).items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Assign a copy of every persistent array, or none: ``arrays`` must
        hold exactly the model's names, each at its shape and the model's
        dtype, and all are checked before any tensor changes."""
        named = named_tensors(self._tree())
        unknown = sorted(set(arrays) - set(named))
        if unknown:
            raise KeyError(f"checkpoint has unknown tensors {unknown}")
        dtype = np.dtype(self.config.np_dtype)
        for name, t in named.items():
            if name not in arrays:
                raise KeyError(f"checkpoint missing tensor {name!r}")
            if tuple(arrays[name].shape) != t.shape:
                raise ShapeError(f"checkpoint tensor {name!r} has shape "
                                 f"{arrays[name].shape}, expected {t.shape}")
            if arrays[name].dtype != dtype:
                raise DTypeError(f"checkpoint tensor {name!r} has dtype "
                                 f"{arrays[name].dtype}, expected {dtype}")
        for name, t in named.items():
            t.data = arrays[name].copy()

    # ------------------------------------------------------------------

    def _drop(self, x: Tensor | list, training: bool, rng) -> Tensor | list:
        """``ad.dropout``: a tensor is dropped as a node, a list of BiGRU
        input parts as factors."""
        return ad.dropout(x, self.config.dropout, training, rng)

    def _embed(self, batch: Batch, training, rng) -> tuple[Tensor, Tensor]:
        """The context (B, T, d) and question (B, J, d) token vectors.

        Everything up to the highway output depends only on the token, so
        the char-CNN runs once per row of the batch's token table. When no
        dropout is drawn, the word lookup, projection and highway run on the
        table's rows too, and one ``gather_rows`` each puts the result at
        the context and question positions. In training with dropout, the
        char features are gathered to the positions first, and the char
        dropout is drawn at the context's shape, then the question's, as a
        per-position embedding draws it: the random stream does not change.
        The padding row 0 is embedded like any other row, as a per-position
        embedding embeds padded positions, so the gathers take no
        ``pad_guard``."""
        char_feats = char_cnn(batch.token_chars, self.char_params)
        ctx_rows, qry_rows = batch.context_tokens, batch.question_tokens
        if training and self.config.dropout > 0:
            return (self._embed_rows(batch.token_words[ctx_rows],
                                     gather_rows(char_feats, ctx_rows), training, rng),
                    self._embed_rows(batch.token_words[qry_rows],
                                     gather_rows(char_feats, qry_rows), training, rng))
        table = self._embed_rows(batch.token_words, char_feats, training, rng)
        return gather_rows(table, ctx_rows), gather_rows(table, qry_rows)

    def _embed_rows(self, word_ids, char_feats: Tensor, training, rng) -> Tensor:
        words = embed_words(self.word_table, word_ids, unk_row=self.unk_row)
        chars = self._drop(char_feats, training, rng)
        fused = linear(concat([words, chars], axis=-1), self.proj.w, self.proj.b)
        return highway(fused, self.highway)

    def forward(self, batch: Batch, training: bool = False,
                rng: np.random.Generator | None = None,
                capture_trace: bool = False) -> ModelOutputs:
        cfg = self.config
        if training and cfg.dropout > 0 and rng is None:
            raise UsageError("forward: training with dropout requires an rng")
        dt = cfg.np_dtype
        cmask = batch.context_mask.astype(dt)
        qmask = batch.question_mask.astype(dt)

        ctx, qry = self._embed(batch, training, rng)
        H = bigru(self._drop([ctx], training, rng), self.encoder, mask=cmask)
        U = bigru(self._drop([qry], training, rng), self.encoder, mask=qmask)
        del ctx, qry        # in evaluation nothing else holds them

        trace = AttentionTrace(context_mask=cmask.copy(), query_mask=qmask.copy()) \
            if capture_trace else None
        S = similarity(H, U, self.sim, context_mask=cmask, query_mask=qmask)
        if trace is not None:
            trace.similarity = S.data.copy()
        if cfg.use_cgde:
            q_bar = cgde(H, U, S, self.fusion, trace=trace)
        else:
            q_bar = U
            if trace is not None:
                trace.decomposed_query = U.data
        S2 = similarity(H, q_bar, self.sim, context_mask=cmask, query_mask=qmask)
        if trace is not None:
            trace.similarity2 = S2.data.copy()
        if cfg.use_fgin:
            q2c = fgin_q2c(H, S2, trace=trace)
        else:
            q2c = vanilla_q2c(H, S2, trace=trace)
        c2q = context2query(q_bar, S2, trace=trace)
        G = fuse_g(H, c2q, q2c)
        del H, U, S, S2, q_bar, q2c, c2q

        M = self_attention(bigru(self._drop(G, training, rng), self.modeling, mask=cmask),
                           self.selfatt, mask=cmask)
        # each prediction BiGRU reads G's parts, M (and the previous one's
        # output) as parts; g is rebound, so each output is dropped once used
        g = bigru(self._drop([*G, M], training, rng), self.pred_grus[0], mask=cmask)
        sup_logits = self._sup_logits(g, batch, training, rng)
        g = bigru([*G, M, g], self.pred_grus[1], mask=cmask)
        start_logits = self._position_logits(g, self.start_head, cmask, training, rng)
        g = bigru([*G, M, g], self.pred_grus[2], mask=cmask)
        end_logits = self._position_logits(g, self.end_head, cmask, training, rng)
        g = bigru([*G, M, g], self.pred_grus[3], mask=cmask)
        type_logits = self._type_logits(g, cmask, training, rng)
        return ModelOutputs(type_logits=type_logits, start_logits=start_logits,
                            end_logits=end_logits, sup_logits=sup_logits, trace=trace)

    def _sup_logits(self, g1: Tensor, batch: Batch, training, rng) -> Tensor:
        """Sentence representation: the BiGRU states at each sentence's first
        and last token, concatenated, then projected to one logit."""
        b, t_len, width = g1.shape
        s_max = batch.sentence_bounds.shape[1]
        flat = ad.reshape(g1, (b * t_len, width))
        bounds = batch.sentence_bounds + np.arange(b)[:, None, None] * t_len   # (B, S, 2)
        pooled = ad.reshape(ad.gather_rows(flat, bounds), (b * s_max, 2 * width))
        logits = linear(self._drop(pooled, training, rng), self.sup_head.w, self.sup_head.b)
        logits = ad.reshape(logits, (b, s_max))
        bias_mask = (1.0 - batch.sentence_mask.astype(logits.data.dtype)) * MASK_FILL
        return logits + Tensor(bias_mask)

    def _position_logits(self, g: Tensor, head: Linear, cmask, training, rng) -> Tensor:
        logits = linear(self._drop(g, training, rng), head.w, head.b)
        logits = ad.reshape(logits, logits.shape[:-1])
        return logits + Tensor((1.0 - cmask) * MASK_FILL)

    def _type_logits(self, g4: Tensor, cmask, training, rng) -> Tensor:
        summed = ad.reduce_sum(g4 * Tensor(cmask[..., None]), axis=-2)
        inv_len = (1.0 / cmask.sum(axis=-1, keepdims=True)).astype(g4.data.dtype)
        pooled = summed * Tensor(inv_len)
        return linear(self._drop(pooled, training, rng), self.type_head.w, self.type_head.b)


# ---------------------------------------------------------------------------
# loss


def combine_losses(l_type, l_start, l_end, l_sup, lambda_a: float, lambda_s: float):
    return lambda_a * (l_type + l_start + l_end) + lambda_s * l_sup


def joint_loss(outputs: ModelOutputs, batch: Batch, lambda_a: float,
               lambda_s: float) -> tuple[Tensor, dict[str, float]]:
    """Answer-type/start/end cross-entropies (summed over examples) plus the
    supporting-sentence binary cross-entropy (averaged over real sentences),
    weighted by the two coefficients. Span losses are masked out for yes/no
    examples and for answers that could not be located."""
    l_type = ad.cross_entropy(outputs.type_logits, batch.y_type, reduction="sum")
    l_start = ad.cross_entropy(outputs.start_logits, batch.y_start,
                               reduction="sum", mask=batch.span_mask)
    l_end = ad.cross_entropy(outputs.end_logits, batch.y_end,
                             reduction="sum", mask=batch.span_mask)
    l_sup = ad.binary_cross_entropy(outputs.sup_logits, batch.sup_labels,
                                    reduction="mean", mask=batch.sentence_mask)
    total = combine_losses(l_type, l_start, l_end, l_sup, lambda_a, lambda_s)
    parts = {"type": l_type.item(), "start": l_start.item(),
             "end": l_end.item(), "sup": l_sup.item(), "total": total.item()}
    return total, parts


# ---------------------------------------------------------------------------
# decoding


def _softmax_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def best_span(p_start: np.ndarray, p_end: np.ndarray, max_span_len: int) -> tuple[int, int]:
    """Argmax of p_start[s] * p_end[e] over s <= e <= s + max_span_len.

    Per start, the best end is the first argmax of p_end over its window
    (padded with -inf past the end); the first start with the largest
    product wins."""
    n = len(p_start)
    padded = np.concatenate([p_end, np.full(max_span_len, -np.inf)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, max_span_len + 1)
    ends = np.arange(n) + np.argmax(windows, axis=1)
    s = int(np.argmax(p_start * p_end[ends]))
    return s, int(ends[s])


def decode_example(ex: Example, type_row: np.ndarray, start_row: np.ndarray,
                   end_row: np.ndarray, sup_row: np.ndarray,
                   config: ModelConfig) -> Prediction:
    answer_type = ANSWER_TYPES[int(np.argmax(type_row))]
    sup: list[tuple[str, int]] = []
    if config.predict_support:
        for k in range(len(ex.sentence_spans)):
            if 1.0 / (1.0 + np.exp(-float(sup_row[k]))) > config.sup_threshold:
                sup.append(ex.sentence_title(k))
    if answer_type in ("yes", "no"):
        return Prediction(id=ex.id, answer_text=answer_type,
                          answer_type=answer_type, supporting_facts=sup)
    t = ex.n_tokens
    p_start = _softmax_np(start_row[:t].astype(np.float64))
    p_end = _softmax_np(end_row[:t].astype(np.float64))
    s, e = best_span(p_start, p_end, config.max_span_len)
    text = " ".join(ex.context_tokens[s:e + 1])
    return Prediction(id=ex.id, answer_text=text, answer_type="span",
                      supporting_facts=sup)


def predict_batches(model: Model, batches: list[Batch]) -> dict[str, Prediction]:
    """Eval-mode decoding over a batch list, keyed by example id. Raises
    ``DataError`` when two examples share an id."""
    preds: dict[str, Prediction] = {}
    with no_grad():
        for batch in batches:
            out = model.forward(batch, training=False)
            for i, ex in enumerate(batch.examples):
                if ex.id in preds:
                    raise DataError(f"predict_batches: example id {ex.id!r} is repeated")
                preds[ex.id] = decode_example(
                    ex, out.type_logits.data[i], out.start_logits.data[i],
                    out.end_logits.data[i], out.sup_logits.data[i], model.config)
    return preds


def predictions_to_json(preds: dict[str, Prediction]) -> dict:
    """The interchange layout: an "answer" map and an "sp" map."""
    return {"answer": {pid: p.answer_text for pid, p in preds.items()},
            "sp": {pid: [[title, sid] for title, sid in p.supporting_facts]
                   for pid, p in preds.items()}}
