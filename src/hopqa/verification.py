"""Whole-model gradient check on a tiny HotpotQA-style batch."""

from __future__ import annotations

import numpy as np

from .data import Batch, build_vocab, examples_from_hotpot_records, make_batches
from .gradcheck import GradReport, grad_check
from .model import Model, ModelConfig, joint_loss


def tiny_batch(n_sentences: int = 2) -> Batch:
    """A 7-token, 5-query-word, 2-sentence instance with a vocab under 20."""
    record = {
        "_id": "tiny-0",
        "question": "what did rex eat ?",
        "answer": "figs",
        "context": [
            ["Rex", ["rex ate figs ."]],
            ["Figs", ["figs are sweet"]],
        ][:n_sentences],
        "supporting_facts": [["Rex", 0], ["Figs", 0]][:n_sentences],
    }
    examples, stats = examples_from_hotpot_records([record])
    stats.require_clean("tiny_batch")
    vocab = build_vocab(examples)
    batches, _ = make_batches(examples, vocab, batch_size=1, max_word_len=8)
    return batches[0]


def full_model_check(dtype_name: str, d: int = 4, seed: int = 0,
                     max_coords: int = 4, param_filter: list[str] | None = None,
                     training: bool = False) -> tuple[float, GradReport, Model]:
    """Gradient-check the joint loss of the whole model on the tiny batch.

    One representative parameter per block is sampled unless
    ``param_filter`` lists explicit names; a name that is not a parameter
    raises ``KeyError``. With ``training`` the model has dropout 0.2 and
    each evaluation of the loss runs the training forward with a dropout
    rng seeded afresh, so every difference quotient sees the same masks.
    """
    batch = tiny_batch()
    config = ModelConfig(d=d, dropout=0.2 if training else 0.0, word_dim=8, char_dim=4,
                         char_filters=6, max_word_len=8, dtype=dtype_name,
                         train_word_emb=True)
    n_words = max(int(batch.token_words.max()) + 1, 20)
    n_chars = int(batch.token_chars.max()) + 1
    model = Model(config, n_words, n_chars, np.random.default_rng(seed))

    def f():
        rng = np.random.default_rng(seed + 1) if training else None
        out = model.forward(batch, training=training, rng=rng)
        loss, _ = joint_loss(out, batch, config.lambda_a, config.lambda_s)
        return loss

    if param_filter is None:
        param_filter = [
            "embed.word.table", "embed.word.unk", "embed.char.table",
            "embed.char.conv_w", "embed.proj.w", "highway.0.gate_w",
            "highway.1.trans_w", "encoder.fw.wh_n", "encoder.bw.wx_z",
            "att.sim.w_h", "att.sim.w_u", "att.fusion.w_s",
            "modeling.fw.wx_r", "selfatt.sim.w_h", "selfatt.proj.w",
            "pred1.fw.wh_z", "pred2.bw.wx_n", "pred3.fw.b_z", "pred4.bw.wh_r",
            "head.sup.w", "head.start.w", "head.end.w", "head.type.w",
        ]
    params = model.parameters()
    params = {name: params[name] for name in param_filter}
    report = grad_check(f, params, max_coords=max_coords,
                        rng=np.random.default_rng(seed + 7))
    return report.worst_rel_err, report, model
