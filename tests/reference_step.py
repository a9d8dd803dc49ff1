"""The committed reference step: one float64 training step and one eval
forward, kept as a small sketch in ``tests/reference_step.npz`` that
``test_reference_step.py`` compares against.

The step runs a d=8 model (seed 0, dropout 0.2, dropout rng 123) on four
``synth_two_hop`` contexts longer than two BiGRU chunks, so the pool, the
factor-part and the chunk-walk paths all run. The file holds its loss, a
few fixed random projections of each parameter's gradient, and the same
sketch of the eval logits on four examples of spread lengths, at their real
positions. It does so for each of the four ablation configs: the paper's
model, with CGDe and FGIn, under unprefixed keys, and the other three under
keys that name the config (``no_fgin/``, ``no_cgde/``, ``baseline/``). A
parameter that a config leaves without a gradient gets no key. A
projection's matrix is drawn from a generator seeded with the name it
sketches, so adding a name moves no other sketch.

A change that moves these values on purpose regenerates the file, from the
repository root::

    PYTHONPATH=src python tests/reference_step.py

and states by how much they moved.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from hopqa import autodiff as ad
from hopqa.data import build_vocab, make_batches, synth_two_hop
from hopqa.kernels import bigru as kb
from hopqa.model import Model, ModelConfig, joint_loss

PATH = Path(__file__).with_name("reference_step.npz")
# projections per sketched array
N_PROJ = 4
# key prefix per ablation config: (use_cgde, use_fgin)
CONFIGS = {"": (True, True), "no_fgin/": (True, False), "no_cgde/": (False, True),
           "baseline/": (False, False)}


def sketch(name: str, a: np.ndarray) -> np.ndarray:
    """``N_PROJ`` projections of ``a`` on standard normal directions drawn
    from a generator seeded with ``name``."""
    rng = np.random.default_rng(list(name.encode()))
    return rng.standard_normal((N_PROJ, a.size)) @ a.ravel()


def compute() -> dict[str, np.ndarray]:
    """The loss and the sketches, keyed ``loss``, ``grad/<parameter>`` and
    ``eval/<head>``, each after its config's prefix."""
    examples = synth_two_hop(4, seed=0, n_distractors=22)
    # eval contexts of about 50 to 540 tokens in one padded batch
    spread = [synth_two_hop(1, seed=10 + i, n_distractors=k)[0]
              for i, k in enumerate((0, 22, 7, 15))]
    vocab = build_vocab(examples + spread)
    train = make_batches(examples, vocab, batch_size=4, max_word_len=8)[0][0]
    if train.context_tokens.shape[1] <= 2 * kb.BIGRU_CHUNK:
        raise AssertionError("the reference step must run past two BiGRU chunks")
    held_out = make_batches(spread, vocab, batch_size=4, max_word_len=8)[0][0]
    result = {}
    for prefix, (use_cgde, use_fgin) in CONFIGS.items():
        config = ModelConfig(d=8, dropout=0.2, word_dim=8, char_dim=4, char_filters=6,
                             max_word_len=8, dtype="float64", use_cgde=use_cgde,
                             use_fgin=use_fgin)
        result.update(_step_and_eval(prefix, config, vocab, train, held_out))
    return result


def _step_and_eval(prefix: str, config: ModelConfig, vocab, train,
                   held_out) -> dict[str, np.ndarray]:
    """One config's loss and sketches, keyed after ``prefix``."""
    model = Model(config, vocab.n_words, vocab.n_chars, np.random.default_rng(0))
    out = model.forward(train, training=True, rng=np.random.default_rng(123))
    loss = joint_loss(out, train, model.config.lambda_a, model.config.lambda_s)[0]
    ad.backward(loss)
    result = {f"{prefix}loss": loss.data.copy()}
    for name, p in model.parameters().items():
        if p.grad is not None:
            key = f"{prefix}grad/{name}"
            result[key] = sketch(key, p.grad)

    with ad.no_grad():
        out = model.forward(held_out)
    real = {"type": np.ones(out.type_logits.shape, dtype=bool),
            "start": held_out.context_mask.astype(bool),
            "end": held_out.context_mask.astype(bool),
            "sup": held_out.sentence_mask.astype(bool)}
    for head, keep in real.items():
        logits = getattr(out, f"{head}_logits").data
        key = f"{prefix}eval/{head}"
        result[key] = sketch(key, logits[keep])
    return result


if __name__ == "__main__":
    np.savez(PATH, **compute())
    print(f"wrote {PATH}")
