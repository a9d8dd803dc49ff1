import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopqa import autodiff as ad
from hopqa import pool as hp
from hopqa.autodiff import Tensor, backward, constant, no_grad, zero_grads
from hopqa.data import build_vocab, make_batches, synth_two_hop
from hopqa.gradcheck import DEFAULT_EPS, grad_check
from hopqa.model import (
    Model,
    ModelConfig,
    Prediction,
    SelfAttentionParams,
    best_span,
    combine_losses,
    decode_example,
    joint_loss,
    predict_batches,
    predictions_to_json,
    self_attention,
)
import dataclasses
import random
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

from hopqa.attention import (
    AttentionTrace,
    SimilarityParams,
    context2query,
    similarity,
    vanilla_q2c,
)
from hopqa.autodiff import DataError, DTypeError, NumericError, ShapeError
from hopqa.layers import CHAR_KERNEL, UNK_ID, Linear, char_cnn, embed_words, highway, linear, xavier_uniform
from hopqa.layers import bigru as bigru_layer
from hopqa.serialization import load_tensors, save_tensors
from hopqa.training import TrainConfig, train
from hopqa.verification import full_model_check, tiny_batch
from reference_ops import product


def tiny_config(**kw):
    base = dict(d=4, dropout=0.0, word_dim=8, char_dim=4, char_filters=6,
                max_word_len=8)
    base.update(kw)
    return ModelConfig(**base)


def make_model_and_batch(n=2, seed=0, **cfg_kw):
    examples = synth_two_hop(n, seed=seed)
    vocab = build_vocab(examples)
    batches, _ = make_batches(examples, vocab, batch_size=n,
                              max_word_len=8)
    config = tiny_config(**cfg_kw)
    model = Model(config, vocab.n_words, vocab.n_chars, np.random.default_rng(seed))
    return model, batches[0], vocab


# ---------------------------------------------------------------------------
# forward shapes and determinism


def test_forward_head_shapes():
    batch = tiny_batch()
    config = tiny_config()
    model = Model(config, 20, 20, np.random.default_rng(1))
    out = model.forward(batch)
    b, t = batch.context_tokens.shape
    s = batch.sentence_bounds.shape[1]
    assert out.type_logits.shape == (b, 3)
    assert out.start_logits.shape == (b, t)
    assert out.end_logits.shape == (b, t)
    assert out.sup_logits.shape == (b, s)


def test_strategies_are_live():
    model, batch, vocab = make_model_and_batch()
    out_full = model.forward(batch)
    model.config = tiny_config(use_cgde=False, use_fgin=False)
    out_base = model.forward(batch)
    assert not np.allclose(out_full.start_logits.data, out_base.start_logits.data)


def test_eval_forward_is_deterministic():
    model, batch, _ = make_model_and_batch()
    a = model.forward(batch)
    b = model.forward(batch)
    assert np.array_equal(a.start_logits.data, b.start_logits.data)
    assert np.array_equal(a.type_logits.data, b.type_logits.data)
    assert np.array_equal(a.sup_logits.data, b.sup_logits.data)


def test_single_sentence_context_gets_one_sup_logit():
    batch = tiny_batch(n_sentences=1)
    model = Model(tiny_config(), 20, 20, np.random.default_rng(2))
    out = model.forward(batch)
    assert out.sup_logits.shape[1] == 1
    assert batch.sentence_mask.sum() == 1


def test_cascade_connectivity():
    # a parameter that only enters through the attention block must reach
    # all four heads
    model, batch, _ = make_model_and_batch()
    base = model.forward(batch)
    model.fusion.w_s.data = model.fusion.w_s.data + 0.5
    bumped = model.forward(batch)
    for name in ("type_logits", "start_logits", "end_logits", "sup_logits"):
        a = getattr(base, name).data
        b = getattr(bumped, name).data
        live = a > -1e29
        assert not np.allclose(a[live], b[live]), name


def test_eval_forward_joins_only_the_embeddings(monkeypatch):
    # the prediction BiGRUs take [G, M] and [G, M, g] as parts: neither R nor
    # any prediction input is built, and the embedding makes the one concat,
    # over the table of distinct tokens
    import hopqa.model as hm
    model, batch, _ = make_model_and_batch()

    def spy(parts, axis):
        widths.append([p.shape[-1] for p in parts])
        return ad.concat(parts, axis)

    widths = []
    monkeypatch.setattr(hm, "concat", spy)
    with no_grad():
        model.forward(batch)
    cfg = model.config
    assert widths == [[cfg.word_dim, cfg.char_filters]]


def test_training_forward_joins_only_the_embeddings(monkeypatch):
    # with dropout on, pred1's [G, M] is dropped part by part, not joined
    import hopqa.model as hm
    model, batch, _ = make_model_and_batch(dropout=0.2)

    def spy(parts, axis):
        widths.append([p.shape[-1] for p in parts])
        return ad.concat(parts, axis)

    widths = []
    monkeypatch.setattr(hm, "concat", spy)
    model.forward(batch, training=True, rng=np.random.default_rng(0))
    cfg = model.config
    assert widths == [[cfg.word_dim, cfg.char_filters]] * 2


def test_eval_forward_builds_no_joined_g_and_finds_no_tokens(monkeypatch):
    # G reaches the BiGRUs as its four parts, so no concat is as wide as G,
    # and the batch brings its token table, so np.unique never runs
    import hopqa.attention as ha
    import hopqa.model as hm
    model, batch, _ = make_model_and_batch()

    def spy(parts, axis):
        out = ad.concat(parts, axis)
        widths.append(out.shape[-1])
        return out

    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique ran in the forward")

    widths = []
    for module in (ha, hm):
        monkeypatch.setattr(module, "concat", spy)
    monkeypatch.setattr(np, "unique", no_unique)
    with no_grad():
        model.forward(batch)
    assert widths and max(widths) < 8 * model.config.d, widths


@pytest.mark.parametrize("use_fgin", [True, False], ids=["fgin", "vanilla"])
@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
def test_forward_stores_no_product_of_g_and_no_dropped_copy(monkeypatch, training, use_fgin):
    # G's products, and in training its dropped parts, reach the modeling
    # BiGRU as factors, and c2q as the matrix product of its weights and the
    # query: the only float (B, T, 2d) array its input parts hold is H, the
    # dropout masks being bool
    import hopqa.model as hm
    model, batch, _ = make_model_and_batch(dropout=0.2, use_fgin=use_fgin)
    inputs, outputs = [], []

    def spy(x, p, mask=None):
        inputs.append(x)
        outputs.append(bigru_layer(x, p, mask=mask))
        return outputs[-1]

    monkeypatch.setattr(hm, "bigru", spy)
    if training:
        model.forward(batch, training=True, rng=np.random.default_rng(0))
    else:
        with no_grad():
            model.forward(batch)
    b, t_len = batch.context_mask.shape
    g_parts = inputs[2]
    factors = [f for part in g_parts for f in (part if isinstance(part, tuple) else (part,))]
    tensors = [t for f in factors for t in ((f.a, f.b) if isinstance(f, ad.MatProduct) else (f,))]
    full = {id(t.data) for t in tensors
            if t.shape == (b, t_len, 2 * model.config.d) and t.dtype != np.bool_}
    assert len(g_parts) == 4 and full == {id(outputs[0].data)}


def test_eval_forward_peak_memory_in_units_of_a_context_encoding():
    # one no-grad forward of a B=8, T=507 batch at d=32, in units of one
    # (B, T, 2d) float32 array such as H: c2q is never built (its weights
    # are (B, T, 16), a quarter unit) and the embeddings are freed once the
    # encoder has read them (half a unit). The peak read 10.0 units (9.7 on
    # one CPU) while c2q was built and the embeddings kept, and 8.8 (8.5)
    # without them
    examples = synth_two_hop(8, seed=3, n_distractors=20)
    vocab = build_vocab(examples)
    (batch,), _ = make_batches(examples, vocab, batch_size=8, max_word_len=8)
    model = Model(tiny_config(d=32), vocab.n_words, vocab.n_chars, np.random.default_rng(0))
    b, t_len = batch.context_mask.shape
    assert (b, t_len, batch.question_mask.shape[1]) == (8, 507, 16)
    with no_grad():
        model.forward(batch)                    # the pool's threads start here
        tracemalloc.start()
        try:
            model.forward(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    units = peak / (b * t_len * 2 * 32 * 4)
    assert units < 9.3, units


# ---------------------------------------------------------------------------
# embedding once per distinct token


def _reference_embed(model, batch, training, rng):
    """The embedding run at every position, the context's then the
    question's: word lookup with the unk row, char-CNN, char dropout,
    projection and highway."""
    def embed(word_ids, char_ids):
        words = embed_words(model.word_table, word_ids, unk_row=model.unk_row)
        chars = ad.dropout(char_cnn(char_ids, model.char_params), model.config.dropout,
                           training, rng)
        fused = linear(ad.concat([words, chars], axis=-1), model.proj.w, model.proj.b)
        return highway(fused, model.highway)

    return (embed(batch.token_words[batch.context_tokens], batch.token_chars[batch.context_tokens]),
            embed(batch.token_words[batch.question_tokens],
                  batch.token_chars[batch.question_tokens]))


def _embed_case(dtype="float32", **cfg_kw):
    """A model and a batch with repeated tokens, case variants of one word
    (one word id, different chars), unk tokens (hapaxes under min_freq=2) and
    padding."""
    examples = synth_two_hop(3, seed=11)
    vocab = build_vocab(examples, min_freq=2)
    (batch,), _ = make_batches(examples, vocab, batch_size=3, max_word_len=8)
    assert (batch.token_words == UNK_ID).any() and (batch.context_mask == 0).any()
    assert vocab.word_id("The") == vocab.word_id("the")
    assert {"The", "the"} <= set(examples[0].context_tokens)
    model = Model(tiny_config(dtype=dtype, train_word_emb=True, **cfg_kw),
                  vocab.n_words, vocab.n_chars, np.random.default_rng(5))
    return model, batch


def _distinct_rows(batch) -> int:
    """The padding row and one row per distinct token."""
    return 1 + len({tok for ex in batch.examples
                    for tok in ex.context_tokens + ex.question_tokens})


_HEADS = ("type_logits", "start_logits", "end_logits", "sup_logits")


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_eval_embedding_matches_per_position_reference(monkeypatch, dtype):
    model, batch = _embed_case(dtype)
    got = [model.forward(batch)]
    with no_grad():
        got.append(model.forward(batch))
    monkeypatch.setattr(Model, "_embed", _reference_embed)
    want = model.forward(batch)
    for out in got:
        for name in _HEADS:
            assert np.array_equal(getattr(out, name).data, getattr(want, name).data), name


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-12)])
def test_training_embedding_matches_per_position_reference(monkeypatch, dtype, tol, dropout):
    # summing each token's gradient before the char-CNN backward (or, without
    # dropout, before the highway's) changes only the order of the sums
    model, batch = _embed_case(dtype, dropout=dropout)
    params = model.parameters()

    def step():
        zero_grads(list(params.values()))
        out = model.forward(batch, training=True, rng=np.random.default_rng(123))
        loss, _ = joint_loss(out, batch, model.config.lambda_a, model.config.lambda_s)
        backward(loss)
        return loss.item(), {name: p.grad.copy() for name, p in params.items()}

    loss, grads = step()
    monkeypatch.setattr(Model, "_embed", _reference_embed)
    ref_loss, ref_grads = step()
    assert loss == ref_loss
    for name, g in grads.items():
        ref = ref_grads[name]
        assert np.max(np.abs(g - ref)) <= tol * np.max(np.abs(ref)), name


@pytest.mark.parametrize("training", [False, True])
def test_char_cnn_runs_once_per_distinct_token(monkeypatch, training):
    import hopqa.model as hm
    model, batch = _embed_case(dropout=0.2)
    original, calls = hm.char_cnn, []

    def spy(char_ids, p):
        calls.append(char_ids.shape)
        return original(char_ids, p)

    monkeypatch.setattr(hm, "char_cnn", spy)
    model.forward(batch, training=training, rng=np.random.default_rng(0))
    assert calls == [(_distinct_rows(batch), batch.token_chars.shape[-1])]


def _embed_peak_bytes(embed, model, batch) -> int:
    tracemalloc.start()
    try:
        with no_grad():
            embed(model, batch, False, None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embedding_memory_follows_distinct_tokens():
    # a (16, 2048) context of 50 distinct tokens: the per-position char-CNN
    # holds its (16, 2048, 12, filters) window products, the table 50 rows
    rng = np.random.default_rng(0)
    n_chars, width = 30, 16
    vocab_rows = np.concatenate([[[0] * (width + 1)],
                                 np.c_[rng.integers(2, 40, 49),
                                       rng.integers(1, n_chars, (49, width))]])
    assert len({tuple(r) for r in vocab_rows.tolist()}) == 50
    pick = lambda shape: rng.integers(1, 50, shape)
    ctx, qry = pick((16, 2048)), pick((16, 20))
    ctx[:, 1500:] = 0
    batch = SimpleNamespace(token_words=vocab_rows[:, 0], token_chars=vocab_rows[:, 1:],
                            context_tokens=ctx, question_tokens=qry)
    model = Model(ModelConfig(d=8, word_dim=16, char_dim=8, char_filters=20),
                  40, n_chars, np.random.default_rng(1))
    peak = _embed_peak_bytes(Model._embed, model, batch)
    ref_peak = _embed_peak_bytes(_reference_embed, model, batch)
    assert peak <= ref_peak / 4, (peak, ref_peak)


# ---------------------------------------------------------------------------
# ablation algebra


def test_cgde_off_decomposed_query_is_query_bitwise():
    model, batch, _ = make_model_and_batch(use_cgde=False)
    out = model.forward(batch, capture_trace=True)
    trace = out.trace
    assert trace.decomposed_query is not None
    # with decomposition disabled the "decomposed" query IS the encoder
    # output, bit for bit
    U_again = model.forward(batch, capture_trace=True).trace.decomposed_query
    assert np.array_equal(trace.decomposed_query, U_again)
    assert trace.attended_query is None          # decomposition never ran


def test_fgin_off_gives_identical_rows():
    model, batch, _ = make_model_and_batch(use_fgin=False)
    out = model.forward(batch, capture_trace=True)
    vec = out.trace.q2c_vectors
    for i in range(vec.shape[0]):
        t = int(batch.context_mask[i].sum())
        rows = vec[i, :t]
        assert np.max(np.abs(rows - rows[0])) < 1e-7


def test_fgin_on_gives_distinct_rows():
    model, batch, _ = make_model_and_batch(use_fgin=True)
    out = model.forward(batch, capture_trace=True)
    vec = out.trace.q2c_vectors
    t = int(batch.context_mask[0].sum())
    rows = vec[0, :t]
    gaps = np.abs(rows - rows[0]).max(axis=1)
    assert gaps.max() > 1e-3


@pytest.mark.parametrize("use_cgde, use_fgin", [(False, False), (True, False), (False, True),
                                            (True, True)])
def test_attention_trace_example_and_lengths_on_a_padded_batch(use_cgde, use_fgin):
    examples = [synth_two_hop(1, seed=k, n_distractors=n)[0] for k, n in enumerate([3, 0, 1])]
    vocab = build_vocab(examples)
    batch = make_batches(examples, vocab, batch_size=3, max_word_len=8)[0][0]
    model = Model(tiny_config(use_cgde=use_cgde, use_fgin=use_fgin), vocab.n_words,
                  vocab.n_chars, np.random.default_rng(0))
    trace = model.forward(batch, capture_trace=True).trace
    assert len({ex.n_tokens for ex in batch.examples}) == 3       # two rows are padded
    assert (trace.attended_query is None) == (not use_cgde)
    for i, ex in enumerate(batch.examples):
        one = trace.example(i)
        assert one.lengths() == (ex.n_tokens, len(ex.question_tokens))
        for f in dataclasses.fields(AttentionTrace):
            whole, picked = getattr(trace, f.name), getattr(one, f.name)
            assert (whole is None) == (picked is None), f.name
            assert whole is None or np.array_equal(picked, whole[i]), f.name
    assert AttentionTrace(similarity=np.zeros((5, 3))).lengths() == (5, 3)


@pytest.mark.parametrize("train_word_emb", [False, True])
def test_model_takes_pretrained_word_vectors(train_word_emb):
    vectors = np.random.default_rng(5).standard_normal((20, 8))
    config = tiny_config(train_word_emb=train_word_emb)
    model = Model(config, 20, 20, np.random.default_rng(1), word_vectors=vectors)
    assert model.word_table.data.dtype == np.float32
    assert np.array_equal(model.word_table.data, vectors.astype(np.float32))
    assert np.array_equal(model.state_arrays()["embed.word.table"], model.word_table.data)
    assert ("embed.word.table" in model.parameters()) == train_word_emb
    batch = tiny_batch()
    backward(joint_loss(model.forward(batch), batch, 0.5, 2.0)[0])
    assert (model.word_table.grad is not None) == train_word_emb
    for n_words, table in ((20, vectors[:, :7]), (21, vectors)):
        with pytest.raises(ShapeError, match=r"word vectors \(20, \d\) != "):
            Model(config, n_words, 20, np.random.default_rng(1), word_vectors=table)


# ---------------------------------------------------------------------------
# self attention


def test_self_attention_shape_and_t1():
    rng = np.random.default_rng(3)
    width = 6
    p = SelfAttentionParams(
        sim=SimilarityParams.create(width, rng),
        proj=Linear(w=Tensor(xavier_uniform(rng, 4 * width, width), requires_grad=True),
                    b=Tensor(np.zeros(width, dtype=np.float32), requires_grad=True)))
    m = constant(rng.standard_normal((5, width)).astype(np.float32))
    assert self_attention(m, p).shape == (5, width)
    # a single position can only attend to itself: the fused blocks reduce
    # to [m; m; m*m; m*m]
    one = constant(rng.standard_normal((1, width)).astype(np.float32))
    got = self_attention(one, p).data
    fused = np.concatenate([one.data, one.data, one.data * one.data,
                            one.data * one.data], axis=-1)
    want = fused @ p.proj.w.data + p.proj.b.data
    assert np.allclose(got, want, atol=1e-6)


def test_self_attention_grad_check():
    rng = np.random.default_rng(4)
    width = 4
    p = SelfAttentionParams(
        sim=SimilarityParams.create(width, rng),
        proj=Linear(w=Tensor(xavier_uniform(rng, 4 * width, width), requires_grad=True),
                    b=Tensor(np.zeros(width, dtype=np.float32), requires_grad=True)))
    m = Tensor(rng.standard_normal((5, width)).astype(np.float32), requires_grad=True)
    probe = constant(rng.standard_normal((5, width)).astype(np.float32))
    report = grad_check(
        lambda: ad.reduce_sum(ad.mul(self_attention(m, p), probe)),
        {"m": m, "w_h": p.sim.w_h, "proj_w": p.proj.w},
        rng=np.random.default_rng(5))
    assert report.worst_rel_err < 1e-3


def _reference_self_attention(M, p, mask=None):
    """Self-attention as the attention primitives compose it: a masked T x T
    similarity, its row softmax and row max, the bidaf fusion and a linear."""
    s = similarity(M, M, p.sim, context_mask=mask, query_mask=mask)
    c2q, q2c = product(context2query(M, s)), vanilla_q2c(M, s)
    fused = ad.concat([M, c2q, ad.mul(M, c2q), ad.mul(M, q2c)], axis=-1)
    return linear(fused, p.proj.w, p.proj.b)


def _self_attention_case(shape, dtype, seed=0):
    """Params, an input in (-1, 1) like the BiGRU states it attends over, a
    mask with a padded tail (and, at rank 3 with three or more sequences, a
    hole in the middle) and a probe that reads real rows only."""
    rng = np.random.default_rng(seed)
    width = shape[-1]
    p = SelfAttentionParams(
        sim=SimilarityParams.create(width, rng, dtype=dtype),
        proj=Linear(w=Tensor(xavier_uniform(rng, 4 * width, width, dtype=dtype),
                             requires_grad=True),
                    b=Tensor(rng.standard_normal(width).astype(dtype), requires_grad=True)))
    m = Tensor(rng.uniform(-1, 1, shape).astype(dtype), requires_grad=True)
    mask = None
    if len(shape) == 3 and shape[1] > 1:
        mask = np.ones(shape[:2], dtype=dtype)
        mask[0, 2 * shape[1] // 3:] = 0.0
        if shape[0] > 2:
            mask[2, 1] = 0.0
    live = np.ones(shape[:-1], dtype=dtype) if mask is None else mask
    probe = constant((rng.standard_normal(shape) * live[..., None]).astype(dtype), dtype=dtype)
    return p, m, mask, live, probe


def _self_attention_grads(fn, p, m, mask, probe):
    params = [m, p.sim.w_h, p.sim.w_u, p.proj.w, p.proj.b]
    zero_grads(params)
    out = fn(m, p, mask)
    backward(ad.reduce_sum(ad.mul(out, probe)))
    return out.data, [t.grad for t in params]


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("shape", [(6, 3), (3, 7, 4), (1, 3), (2, 1, 3), (2, 300, 2)])
def test_self_attention_matches_reference_on_real_rows(shape, dtype, tol):
    # (2, 300, 2) crosses the 256-row attention block. The tolerance is
    # absolute, scaled by the reference's largest magnitude where that is
    # above 1: weight gradients sum hundreds of rows in another order.
    p, m, mask, live, probe = _self_attention_case(shape, dtype)
    out, grads = _self_attention_grads(self_attention, p, m, mask, probe)
    ref_out, ref_grads = _self_attention_grads(_reference_self_attention, p, m, mask, probe)
    real = live.astype(bool)
    pairs = [("out", out[real], ref_out[real])]
    pairs += zip(("m", "w_h", "w_u", "proj_w", "proj_b"), grads, ref_grads)
    for name, got, want in pairs:
        assert got.dtype == dtype, name
        bound = tol * max(1.0, float(np.abs(want).max()))
        assert np.max(np.abs(got - want)) <= bound, name


def test_self_attention_padded_rows_see_no_c2q():
    p, m, mask, live, _ = _self_attention_case((3, 7, 4), np.float64)
    out = self_attention(m, p, mask).data
    s = similarity(m, m, p.sim, context_mask=mask, query_mask=mask)
    q2c = vanilla_q2c(m, s).data
    w = p.proj.w.data.reshape(4, 4, 4)
    want = m.data @ w[0] + (m.data * q2c) @ w[3] + p.proj.b.data
    pad = ~live.astype(bool)
    assert pad.sum() == 4
    assert np.allclose(out[pad], want[pad], atol=1e-12)


def test_self_attention_no_grad_is_bit_identical_to_tracking():
    p, m, mask, _, _ = _self_attention_case((3, 300, 4), np.float32)
    tracked = self_attention(m, p, mask)
    assert tracked.requires_grad
    with no_grad():
        plain = self_attention(m, p, mask)
    assert not plain.requires_grad
    assert np.array_equal(tracked.data, plain.data)


def test_self_attention_sequence_without_real_position_raises():
    p, m, mask, _, _ = _self_attention_case((3, 7, 4), np.float32)
    mask[1] = 0.0
    with pytest.raises(DataError, match="sequence 1"):
        self_attention(m, p, mask)
    with pytest.raises(DataError, match="sequence 0"):
        self_attention(constant(np.zeros((0, 4), dtype=np.float32)), p)


def _self_attention_peak_bytes(t_len: int, with_backward: bool) -> int:
    p, m, _, _, _ = _self_attention_case((t_len, 4), np.float32)
    tracemalloc.start()
    try:
        if with_backward:
            backward(ad.reduce_sum(self_attention(m, p)))
        else:
            with no_grad():
                self_attention(m, p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("t_len", [7, 300], ids=["calling_thread", "pool"])
def test_self_attention_errors_from_workers_leave_the_pool_working(t_len):
    # each of the five sequences is a pool task, at one block or past it
    p, m, mask, _, _ = _self_attention_case((5, t_len, 4), np.float32)
    with no_grad():
        want = self_attention(m, p, mask).data
        bad = m.data.copy()
        bad[3, t_len - 3] = np.nan
        with pytest.raises(NumericError, match="non-finite similarity"):
            self_attention(constant(bad), p, mask)
        empty = mask.copy()
        empty[4] = 0.0
        with pytest.raises(DataError, match="sequence 4"):
            self_attention(m, p, empty)
        # numpy's error handling is per thread; the workers take the caller's
        bad[3, t_len - 3] = np.inf
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            self_attention(constant(bad), p, mask)
        assert np.array_equal(self_attention(m, p, mask).data, want)


def test_self_attention_eval_memory_holds_two_inputs_and_worker_scratch():
    # a no-grad call holds c2q and its output, each the input's size, and per
    # worker a few (T, w) rows and one block of similarities; projecting the
    # whole batch at once, with its (B, T, w) temporaries, peaked at 5.2x
    p, m, mask, _, _ = _self_attention_case((16, 2048, 160), np.float32)
    with no_grad():
        self_attention(m, p, mask)
        tracemalloc.start()
        try:
            self_attention(m, p, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3.0 * m.data.nbytes, peak / m.data.nbytes


@pytest.mark.parametrize("with_backward", [False, True])
def test_self_attention_memory_is_linear_in_length(with_backward):
    # doubling T doubles linear memory and quadruples a T x T array
    ratio = (_self_attention_peak_bytes(2048, with_backward)
             / _self_attention_peak_bytes(1024, with_backward))
    assert ratio < 3.0, ratio


# ---------------------------------------------------------------------------
# joint loss


def test_loss_combination_arithmetic():
    mk = lambda v: constant(np.asarray(v, dtype=np.float32))
    total = combine_losses(mk(1.0), mk(2.0), mk(3.0), mk(4.0),
                           lambda_a=0.5, lambda_s=2.0)
    assert total.item() == 11.0


def test_joint_loss_nonnegative_and_saturates_to_zero():
    model, batch, _ = make_model_and_batch()
    out = model.forward(batch)
    loss, parts = joint_loss(out, batch, 0.5, 2.0)
    assert loss.item() >= 0.0
    for v in parts.values():
        assert v >= 0.0
    # hand-built saturated outputs: correct classes at huge margin
    b, t = batch.context_tokens.shape
    type_logits = np.full((b, 3), -50.0, dtype=np.float32)
    type_logits[np.arange(b), batch.y_type] = 50.0
    start = np.full((b, t), -50.0, dtype=np.float32)
    start[np.arange(b), batch.y_start] = 50.0
    end = np.full((b, t), -50.0, dtype=np.float32)
    end[np.arange(b), batch.y_end] = 50.0
    sup = np.where(batch.sup_labels > 0, 50.0, -50.0).astype(np.float32)
    from hopqa.model import ModelOutputs
    sat = ModelOutputs(type_logits=constant(type_logits), start_logits=constant(start),
                       end_logits=constant(end), sup_logits=constant(sup))
    loss_sat, _ = joint_loss(sat, batch, 0.5, 2.0)
    assert loss_sat.item() < 1e-6


def test_zero_sup_weight_decouples_sup_head():
    model, batch, _ = make_model_and_batch()
    params = model.parameters()
    zero_grads(params.values())
    out = model.forward(batch)
    loss, _ = joint_loss(out, batch, 0.5, 0.0)
    backward(loss)
    g = params["head.sup.w"].grad
    assert g is None or np.allclose(g, 0.0)
    assert params["head.start.w"].grad is not None
    assert not np.allclose(params["head.start.w"].grad, 0.0)


def test_joint_loss_grad_check_tiny_dims():
    worst, report, _ = full_model_check("float32")
    assert worst < 1e-3, f"worst {worst:.2e} at {report.worst_param()}"


@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
def test_float64_whole_model_gradients_agree_with_finite_differences(training):
    # 12 coordinates per tensor, in the eval forward and in the training
    # forward with dropout 0.2 (the same masks in every evaluation). Each
    # must lie within 1e-6 of the difference quotient, relatively, plus ten
    # times the quotient's rounding noise |L| eps_64 / eps: a gradient that
    # reaches the loss only through near-cancelling terms, such as
    # selfatt.sim.w_h's, has a quotient made of that noise alone
    _, report, model = full_model_check("float64", max_coords=12, training=training)
    assert model.config.dropout == (0.2 if training else 0.0)
    noise = 10 * abs(report.loss) * np.finfo(np.float64).eps / DEFAULT_EPS
    outside = [(name, s.index, s.analytic, s.numeric) for name, p in report.params.items()
               for s in p.samples if abs(s.analytic - s.numeric) > 1e-6 * abs(s.numeric) + noise]
    assert len(report.params) == 23 and outside == []


def test_full_model_check_rejects_unknown_parameter_name():
    with pytest.raises(KeyError, match="att.sim.w_x"):
        full_model_check("float64", param_filter=["att.sim.w_h", "att.sim.w_x"])
    with pytest.raises(KeyError, match="att.sim.wx_z"):      # no att.sim.w_x to slice
        full_model_check("float64", param_filter=["att.sim.w_h", "att.sim.wx_z"])


def test_full_model_check_samples_a_gate_name_inside_its_stacked_tensor():
    # d=4: each GRU gate is 4 columns of its stacked weight, n the last 4
    _, report, model = full_model_check("float64",
                                        param_filter=["encoder.fw.wh_n", "pred3.fw.b_z"])
    params = model.parameters()
    assert params["encoder.fw.w_h"].shape == (4, 12) and params["pred3.fw.b"].shape == (12,)
    wh_n, b_z = report.params["encoder.fw.wh_n"].samples, report.params["pred3.fw.b_z"].samples
    assert len(wh_n) == len(b_z) == 4
    assert all(8 <= s.index[1] < 12 for s in wh_n) and all(s.index[0] < 4 for s in b_z)


# ---------------------------------------------------------------------------
# parameter names and checkpoints

_GRU_NAMES = [f"{direction}.{w}" for direction in ("fw", "bw") for w in ("w_x", "w_h", "b")]

# Trainable tensors in order, as format-2 checkpoints name them; the word
# table ("embed.word.table") comes first when it trains.
PARAMETER_NAMES = (
    ["embed.word.unk", "embed.char.table", "embed.char.conv_w", "embed.char.conv_b",
     "embed.proj.w", "embed.proj.b"]
    + [f"highway.{i}.{w}" for i in range(2) for w in ("gate_w", "gate_b", "trans_w", "trans_b")]
    + [f"encoder.{w}" for w in _GRU_NAMES]
    + ["att.sim.w_h", "att.sim.w_u", "att.fusion.w_s"]
    + [f"modeling.{w}" for w in _GRU_NAMES]
    + ["selfatt.sim.w_h", "selfatt.sim.w_u", "selfatt.proj.w", "selfatt.proj.b"]
    + [f"pred{k}.{w}" for k in range(1, 5) for w in _GRU_NAMES]
    + [f"head.{h}.{w}" for h in ("sup", "start", "end", "type") for w in ("w", "b")])


@pytest.mark.parametrize("train_word_emb", [False, True])
def test_parameter_and_checkpoint_names_are_stable(train_word_emb):
    model = Model(tiny_config(train_word_emb=train_word_emb), 20, 20, np.random.default_rng(0))
    assert len(PARAMETER_NAMES) == 65
    want = (["embed.word.table"] if train_word_emb else []) + PARAMETER_NAMES
    assert list(model.parameters()) == want
    state = model.state_arrays()
    assert len(state) == 66
    assert set(state) == {"embed.word.table", *PARAMETER_NAMES}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_round_trip_gives_bit_identical_forward(tmp_path, dtype):
    model, batch, vocab = make_model_and_batch(dtype=dtype)
    save_tensors(str(tmp_path / "model"), model.state_arrays())
    arrays, _ = load_tensors(str(tmp_path / "model"))
    fresh = Model(model.config, vocab.n_words, vocab.n_chars, np.random.default_rng(1))
    want = model.forward(batch)
    assert not np.array_equal(fresh.forward(batch).start_logits.data, want.start_logits.data)
    fresh.load_state(arrays)
    for name, arr in fresh.state_arrays().items():
        assert arr.dtype == np.dtype(dtype), name
    got = fresh.forward(batch)
    for head in ("type_logits", "start_logits", "end_logits", "sup_logits"):
        assert np.array_equal(getattr(got, head).data, getattr(want, head).data), head


@pytest.mark.parametrize("train_word_emb", [False, True])
def test_best_state_loads_into_fresh_model(train_word_emb):
    examples = synth_two_hop(4, seed=5)
    vocab = build_vocab(examples)
    config = tiny_config(train_word_emb=train_word_emb)
    model = Model(config, vocab.n_words, vocab.n_chars, np.random.default_rng(0))
    result = train(model, examples[:2], examples[2:], vocab,
                   TrainConfig(epochs=2, batch_size=2, ema_decay=0.5, patience=2))
    fresh = Model(config, vocab.n_words, vocab.n_chars, np.random.default_rng(1))
    fresh.load_state(result.best_state)
    state = fresh.state_arrays()
    assert set(state) == set(result.best_state)
    for name, arr in state.items():
        assert np.array_equal(arr, result.best_state[name]), name


def test_load_state_rejects_missing_and_misshapen_tensors():
    model, _, _ = make_model_and_batch()
    state = model.state_arrays()
    with pytest.raises(KeyError, match="head.type.b"):
        model.load_state({name: a for name, a in state.items() if name != "head.type.b"})
    with pytest.raises(ShapeError, match="embed.word.table"):
        model.load_state({**state, "embed.word.table": state["embed.word.table"][:-1]})


@pytest.mark.parametrize("case", ["missing", "misshapen", "unknown", "dtype"])
def test_failed_load_leaves_every_array_unchanged(case):
    model, _, vocab = make_model_and_batch()
    before = {name: a.copy() for name, a in model.state_arrays().items()}
    other = Model(model.config, vocab.n_words, vocab.n_chars, np.random.default_rng(1))
    state = other.state_arrays()
    if case == "missing":
        del state["head.type.b"]                 # the last name in tree order
        error = KeyError
    elif case == "misshapen":
        state["head.type.w"] = state["head.type.w"][:-1]
        error = ShapeError
    elif case == "unknown":
        state["head.type.extra"] = state["head.type.b"]
        error = KeyError
    else:
        state["head.type.b"] = state["head.type.b"].astype(np.float64)
        error = DTypeError
    with pytest.raises(error, match="head.type"):
        model.load_state(state)
    after = model.state_arrays()
    assert list(after) == list(before)
    for name, arr in after.items():
        assert np.array_equal(arr, before[name]), name


def test_training_graph_size_does_not_depend_on_context_length():
    def nodes_per_step(n_distractors):
        examples = synth_two_hop(2, seed=6, n_distractors=n_distractors)
        vocab = build_vocab(examples)
        (batch,), _ = make_batches(examples, vocab, batch_size=2, max_word_len=8)
        model = Model(tiny_config(dropout=0.2), vocab.n_words, vocab.n_chars,
                      np.random.default_rng(0))
        out = model.forward(batch, training=True, rng=np.random.default_rng(1))
        loss, _ = joint_loss(out, batch, model.config.lambda_a, model.config.lambda_s)
        return batch.context_tokens.shape[1], sum(
            node._backward is not None for node in ad._toposort(loss))

    (short_len, short_nodes), (long_len, long_nodes) = nodes_per_step(0), nodes_per_step(6)
    assert long_len > 3 * short_len
    assert short_nodes == long_nodes


# ---------------------------------------------------------------------------
# decode


def test_decode_single_token_peak():
    (ex,) = synth_two_hop(1, seed=9)
    t = ex.n_tokens
    start = np.full(t, -10.0)
    end = np.full(t, -10.0)
    start[5] = 10.0
    end[5] = 10.0
    pred = decode_example(ex, np.array([10.0, -5.0, -5.0]), start, end,
                          np.full(len(ex.sentence_spans), -10.0), tiny_config())
    assert pred.answer_type == "span"
    assert pred.answer_text == ex.context_tokens[5]


def test_decode_end_before_start_still_ordered():
    rng = np.random.default_rng(11)
    (ex,) = synth_two_hop(1, seed=10)
    t = ex.n_tokens
    start = rng.standard_normal(t)
    end = rng.standard_normal(t)
    start[10] = 8.0            # start peak after ...
    end[3] = 8.0               # ... end peak
    pred = decode_example(ex, np.array([10.0, -5.0, -5.0]), start, end,
                          np.full(len(ex.sentence_spans), -10.0), tiny_config())
    # brute force over all ordered pairs
    def softmax(x):
        e = np.exp(x - x.max())
        return e / e.sum()
    ps, pe = softmax(start), softmax(end)
    best, best_p = None, -1.0
    for s in range(t):
        for e in range(s, min(t, s + 31)):
            if ps[s] * pe[e] > best_p:
                best_p = ps[s] * pe[e]
                best = (s, e)
    s, e = best
    assert s <= e
    assert pred.answer_text == " ".join(ex.context_tokens[s:e + 1])


def test_decode_yes_type_ignores_span_heads():
    (ex,) = synth_two_hop(1, seed=12)
    t = ex.n_tokens
    pred = decode_example(ex, np.array([-5.0, 10.0, -5.0]),
                          np.zeros(t), np.zeros(t),
                          np.full(len(ex.sentence_spans), -10.0), tiny_config())
    assert pred.answer_type == "yes" and pred.answer_text == "yes"


def test_decode_sup_threshold():
    (ex,) = synth_two_hop(1, seed=13)
    t = ex.n_tokens
    sup = np.full(len(ex.sentence_spans), -10.0)
    sup[0] = 10.0
    pred = decode_example(ex, np.array([10.0, -5.0, -5.0]),
                          np.zeros(t), np.zeros(t), sup, tiny_config())
    assert pred.supporting_facts == [ex.sentence_title(0)]


@pytest.mark.parametrize("seed", [*range(5), "ties"])
def test_best_span_matches_quadratic_brute_force(seed):
    n = 40
    if seed == "ties":      # coarse values: many equal products and window maxima
        rng = np.random.default_rng(5)
        ps = rng.integers(1, 4, n) / 4.0
        pe = rng.integers(1, 4, n) / 4.0
    else:
        rng = np.random.default_rng(seed)
        ps = rng.random(n)
        pe = rng.random(n)
    lmax = 7
    got = best_span(ps, pe, lmax)
    want, want_p = None, -1.0
    for s in range(n):
        for e in range(s, min(n, s + lmax + 1)):
            if ps[s] * pe[e] > want_p:
                want_p = ps[s] * pe[e]
                want = (s, e)
    assert got == want


def test_negative_max_span_len_is_rejected():
    with pytest.raises(ValueError, match="max_span_len must be >= 0, got -1"):
        ModelConfig(max_span_len=-1)
    assert ModelConfig(max_span_len=0).max_span_len == 0


@pytest.mark.parametrize("field, value", [("d", 0), ("max_word_len", CHAR_KERNEL - 1),
                                          ("word_dim", -1), ("char_dim", -1),
                                          ("char_filters", -1)])
def test_sizes_the_model_cannot_run_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= .*got {value}"):
        ModelConfig(**{field: value})
    assert ModelConfig(d=1, max_word_len=CHAR_KERNEL).max_word_len == CHAR_KERNEL


@pytest.mark.parametrize("field, value", [
    ("lambda_a", 0.0), ("lambda_a", -1.0), ("lambda_a", float("nan")), ("lambda_s", float("inf")),
    ("sup_threshold", float("nan")), ("sup_threshold", 2.0), ("sup_threshold", -0.5),
])
def test_model_config_rejects_loss_weights_and_thresholds_it_cannot_use(field, value):
    # a NaN or out-of-range sup_threshold predicts no supporting fact at all
    with pytest.raises(ValueError, match=f"^{field} must be .*got {value}"):
        ModelConfig(**{field: value})
    assert ModelConfig(sup_threshold=0.0).sup_threshold == 0.0
    assert ModelConfig(sup_threshold=1.0).sup_threshold == 1.0


def test_predictions_json_layout():
    preds = {"a": Prediction(id="a", answer_text="yes", answer_type="yes",
                             supporting_facts=[("Doc", 0)])}
    blob = predictions_to_json(preds)
    assert blob == {"answer": {"a": "yes"}, "sp": {"a": [["Doc", 0]]}}


# ---------------------------------------------------------------------------
# padding insensitivity


def test_appending_padding_changes_no_unmasked_logit():
    model, batch, vocab = make_model_and_batch(n=1, seed=3)
    out = model.forward(batch)
    import dataclasses as dc
    b, t = batch.context_tokens.shape
    extra = 5
    pad_tokens = np.concatenate([batch.context_tokens,
                                 np.zeros((b, extra), dtype=np.int64)], axis=1)
    pad_mask = np.concatenate([batch.context_mask,
                               np.zeros((b, extra), dtype=np.float32)], axis=1)
    padded = dc.replace(batch, context_tokens=pad_tokens, context_mask=pad_mask)
    out_pad = model.forward(padded)
    assert np.max(np.abs(out_pad.start_logits.data[:, :t] - out.start_logits.data)) < 1e-5
    assert np.max(np.abs(out_pad.end_logits.data[:, :t] - out.end_logits.data)) < 1e-5
    assert np.max(np.abs(out_pad.type_logits.data - out.type_logits.data)) < 1e-5
    assert np.max(np.abs(out_pad.sup_logits.data - out.sup_logits.data)) < 1e-5


def test_concurrent_predict_batches_match_serial_runs(monkeypatch):
    # more caller threads than workers, switching often, each on its own
    # batches; contexts past the 256-step BiGRU chunk keep the pool busy
    import hopqa.model as hm

    examples = synth_two_hop(12, seed=21, n_distractors=30)
    vocab = build_vocab(examples)
    batches, _ = make_batches(examples, vocab, batch_size=3, max_word_len=8)
    assert max(b.context_tokens.shape[1] for b in batches) > ad.BIGRU_CHUNK
    model = Model(tiny_config(), vocab.n_words, vocab.n_chars, np.random.default_rng(0))
    original, logits = hm.decode_example, {}

    def recording(ex, *heads):
        logits[ex.id] = [h.copy() for h in heads[:4]]
        return original(ex, *heads)

    monkeypatch.setattr(hm, "decode_example", recording)
    serial = predict_batches(model, batches)
    serial_logits, results = dict(logits), {}
    logits.clear()
    threads = [threading.Thread(target=lambda i=i: results.update(
        {i: predict_batches(model, [batches[i]])})) for i in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert {k: v for r in results.values() for k, v in r.items()} == serial
    assert logits.keys() == serial_logits.keys()
    for key, heads in serial_logits.items():
        assert all(np.array_equal(a, b) for a, b in zip(logits[key], heads)), key
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    assert ad.mul(x, x).requires_grad



def _t512_step():
    """A train_t512-shaped batch (4 contexts past two 256-step BiGRU chunks)
    at small d, and a function that runs one training step on it and
    returns the loss and the parameters' gradients."""
    examples = synth_two_hop(4, seed=0, n_distractors=22)
    vocab = build_vocab(examples)
    batch = make_batches(examples, vocab, batch_size=4, max_word_len=8)[0][0]
    assert batch.context_tokens.shape[1] > 2 * ad.BIGRU_CHUNK
    model = Model(tiny_config(d=8, dropout=0.2), vocab.n_words, vocab.n_chars,
                  np.random.default_rng(0))
    params = model.parameters()

    def step():
        zero_grads(params.values())
        out = model.forward(batch, training=True, rng=np.random.default_rng(123))
        loss = joint_loss(out, batch, model.config.lambda_a, model.config.lambda_s)[0]
        backward(loss)
        return loss.data.copy(), {k: p.grad for k, p in params.items() if p.grad is not None}

    return step


def _zero_worker_pool(monkeypatch):
    # the one-CPU pool: the thread that waits for a task runs it
    monkeypatch.setattr(hp, "_pool", hp._Pool(0))
    monkeypatch.setattr(hp, "_size", 1)


def test_training_step_gradients_do_not_depend_on_the_worker_pool(monkeypatch):
    # the tasks run by the calling thread alone give the pool's bits
    step = _t512_step()
    pooled_loss, pooled = step()
    _zero_worker_pool(monkeypatch)
    inline_loss, inline = step()
    assert np.array_equal(pooled_loss, inline_loss)
    assert pooled.keys() == inline.keys() and len(pooled) == 65
    for name, g in pooled.items():
        assert type(g) is np.ndarray and np.array_equal(g, inline[name]), name


class _ShuffledPool:
    """A stand-in for the pool's workers. They run queued tasks in a seeded
    random order, yielding at random, and a thread that waits for a queued
    task runs it itself only when a coin says so; otherwise a worker does."""

    def __init__(self, seed: int, n_workers: int):
        self._rng = random.Random(seed)
        self._queue: list = []
        self._ready = threading.Condition()
        self._closed = False
        self._threads = [threading.Thread(target=self._work, args=(i + 1,), daemon=True)
                         for i in range(n_workers)]
        for t in self._threads:
            t.start()

    def _coin(self) -> bool:
        with self._ready:
            return self._rng.random() < 0.5

    def submit(self, fn, *args):
        task = hp.Task(fn, args, self)
        with self._ready:
            self._queue.append(task)
            self._ready.notify()
        return task

    def _take(self, task) -> bool:
        if self._coin():
            time.sleep(0)
        with self._ready:
            if task not in self._queue or self._rng.random() < 0.5:
                return False
            self._queue.remove(task)
        return True

    def _work(self, slot: int) -> None:
        hp._slot.index = slot
        while True:
            with self._ready:
                while not self._queue and not self._closed:
                    self._ready.wait()
                if self._closed:
                    return
                task = self._queue.pop(self._rng.randrange(len(self._queue)))
            if self._coin():
                time.sleep(0)
            task._run()
            del task

    def close(self) -> list:
        """Stop the workers; returns the tasks still queued."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()
        for t in self._threads:
            t.join(10)
        assert not any(t.is_alive() for t in self._threads)
        return self._queue


@pytest.fixture(scope="module")
def t512_step_and_serial_run():
    step = _t512_step()
    with pytest.MonkeyPatch.context() as mp:
        _zero_worker_pool(mp)
        return step, step()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_training_step_gives_the_same_bits_under_any_schedule(t512_step_and_serial_run, seed):
    step, (want_loss, want) = t512_step_and_serial_run
    pool = _ShuffledPool(seed, n_workers=2)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hp, "_pool", pool)
            mp.setattr(hp, "_size", 3)
            loss, grads = step()
    finally:
        left = pool.close()
    assert left == []
    assert np.array_equal(loss, want_loss)
    assert grads.keys() == want.keys()
    for name, g in grads.items():
        assert type(g) is np.ndarray and np.array_equal(g, want[name]), name


@pytest.mark.parametrize("batch_size", [3, 2])
def test_predict_batches_rejects_a_repeated_example_id(batch_size):
    # with batches of 2 the repeat sits in the next batch
    examples = synth_two_hop(3, seed=4)
    examples[2] = dataclasses.replace(examples[2], id=examples[0].id)
    vocab = build_vocab(examples)
    batches, _ = make_batches(examples, vocab, batch_size=batch_size, max_word_len=8)
    model = Model(tiny_config(), vocab.n_words, vocab.n_chars, np.random.default_rng(4))
    with pytest.raises(DataError, match=f"id '{examples[0].id}' is repeated"):
        predict_batches(model, batches)


def test_predict_batches_round_trip():
    model, batch, _ = make_model_and_batch(n=3, seed=4)
    preds = predict_batches(model, [batch])
    assert len(preds) == 3
    for ex in batch.examples:
        assert ex.id in preds
        assert preds[ex.id].answer_type in ("span", "yes", "no")
