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
(B, T, 2d) each and is never joined. The modeling BiGRU reads G, and the
prediction BiGRUs read [*G, M] and [*G, M, g], g being the previous one's
output, in training too: a dropout over parts draws its mask at the joined
shape and applies it part by part, so the random stream is that of the
join. Each BiGRU is one graph node that reads its per-gate weights as they
are stored, and sums one input-projection GEMM per part.

Self-attention is one ``ad.self_attention`` node: each sequence attends
over its real positions only, a block of query rows at a time, so no
T x T array is built in training or evaluation. Its padded rows get a zero
context-to-query readout; nothing downstream reads them.

Two forwards use a pool of worker threads in ``autodiff``, sized from the
machine alone: one thread per CPU the process may run on, at most two.
Each BiGRU projects its next chunk of input, one task per direction, while
its step loop runs the current one; self-attention runs its sequences
split over one task per worker. Both do so only for sequences longer than
one chunk or block (256 positions); shorter ones are too little work to
hand over, and run in the calling thread. The caller allocates every array
a worker writes, so the workers' temporaries stay small, and the results
are bit-identical to a serial run. Backward passes run in the calling thread.
The pool assumes BLAS at one thread. ``Model.forward`` may be called from
several threads at once: grad mode is per thread, and every call has its
own scratch.
"""

from __future__ import annotations

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
from .autodiff import MASK_FILL, ShapeError, Tensor, UsageError, concat, gather_rows, no_grad
from .data import ANSWER_TYPES, Batch, Example
from .layers import (
    BiGruParams,
    CharCnnParams,
    EmbeddingTable,
    HighwayParams,
    Linear,
    bigru,
    char_cnn,
    embed_words,
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
        if self.lambda_a <= 0 or self.lambda_s <= 0:
            raise ValueError("loss weights must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unknown dtype {self.dtype!r}")

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
    proj_w: Tensor      # (8d, 2d)
    proj_b: Tensor

    def names(self) -> dict:
        """Checkpoint layout: ``sim.w_h``, ``sim.w_u``, ``proj.w``, ``proj.b``."""
        return {"sim": self.sim, "proj": Linear(self.proj_w, self.proj_b)}


def self_attention(M: Tensor, p: SelfAttentionParams, mask=None) -> Tensor:
    """Bidirectional attention of a sequence against itself over its real
    positions, fused the conventional way ([M, c2q, M * c2q, M * q2c]) and
    projected back to the input width; one ``ad.self_attention`` node.

    At padded rows the context-to-query readout is 0, so the output there
    is [M, 0, 0, M * q2c] projected. Nothing reads those rows: a masked GRU
    step ignores its input. A sequence with no real position raises
    ``DataError``."""
    return ad.self_attention(M, p.sim.w_h, p.sim.w_u, p.proj_w, p.proj_b, mask)


class Model:
    """Parameter container plus the forward pass.

    A tensor's name, in ``parameters()`` and in checkpoints, is its path
    through the bundle tree of ``_tree`` (``layers.named_tensors``), e.g.
    ``encoder.fw.wx_z``. ``names()`` methods exist only to keep the names of
    format-2 checkpoints. The word table trains only with
    ``config.train_word_emb``, but is saved and loaded either way."""

    def __init__(self, config: ModelConfig, n_words: int, n_chars: int,
                 rng: np.random.Generator, word_vectors: np.ndarray | None = None):
        self.config = config
        dt = config.np_dtype
        d = config.d
        width = 2 * d

        if word_vectors is None:
            self.word_table = EmbeddingTable.random(n_words, config.word_dim, rng,
                                                    trainable=config.train_word_emb, dtype=dt)
        elif word_vectors.shape != (n_words, config.word_dim):
            raise ShapeError(f"word vectors {word_vectors.shape} != "
                             f"({n_words}, {config.word_dim})")
        else:
            self.word_table = EmbeddingTable(Tensor(word_vectors.astype(dt),
                                                    requires_grad=config.train_word_emb))
        self.unk_row = Tensor((rng.standard_normal((1, config.word_dim)) * 0.1).astype(dt),
                              requires_grad=True)
        self.char_params = CharCnnParams.create(n_chars, config.char_dim,
                                                config.char_filters, rng, dtype=dt)
        self.proj = Linear.create(config.word_dim + config.char_filters, d, rng, dtype=dt)
        self.highway = HighwayParams.create(d, rng, dtype=dt)
        self.encoder = BiGruParams.create(d, d, rng, dtype=dt)
        self.sim = SimilarityParams.create(width, rng, dtype=dt)
        self.fusion = FusionParams.create(width, rng, dtype=dt)
        self.modeling = BiGruParams.create(4 * width, d, rng, dtype=dt)
        selfatt_sim = SimilarityParams.create(width, rng, dtype=dt)
        selfatt_proj = Linear.create(4 * width, width, rng, dtype=dt)
        self.selfatt = SelfAttentionParams(selfatt_sim, selfatt_proj.w, selfatt_proj.b)
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
        """Assign every persistent array, or none: all names and shapes are
        checked before any tensor changes."""
        named = named_tensors(self._tree())
        for name, t in named.items():
            if name not in arrays:
                raise KeyError(f"checkpoint missing tensor {name!r}")
            if tuple(arrays[name].shape) != t.shape:
                raise ShapeError(f"checkpoint tensor {name!r} has shape "
                                 f"{arrays[name].shape}, expected {t.shape}")
        for name, t in named.items():
            t.data = arrays[name].astype(self.config.np_dtype)

    # ------------------------------------------------------------------

    def _drop(self, x: Tensor | list[Tensor], training: bool, rng) -> Tensor | list[Tensor]:
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
        H = bigru(self._drop(ctx, training, rng), self.encoder, mask=cmask)
        U = bigru(self._drop(qry, training, rng), self.encoder, mask=qmask)

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
        G = fuse_g(H, c2q, q2c, trace=trace)
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
    """Eval-mode decoding over a batch list."""
    preds: dict[str, Prediction] = {}
    with no_grad():
        for batch in batches:
            out = model.forward(batch, training=False)
            for i, ex in enumerate(batch.examples):
                preds[ex.id] = decode_example(
                    ex, out.type_logits.data[i], out.start_logits.data[i],
                    out.end_logits.data[i], out.sup_logits.data[i], model.config)
    return preds


def predictions_to_json(preds: dict[str, Prediction]) -> dict:
    """The interchange layout: an "answer" map and an "sp" map."""
    return {"answer": {pid: p.answer_text for pid, p in preds.items()},
            "sp": {pid: [[title, sid] for title, sid in p.supporting_facts]
                   for pid, p in preds.items()}}
