"""The committed reference step: one float64 training step and one eval
forward, kept as a small sketch in ``tests/reference_step.npz`` that
``test_reference_step.py`` compares against.

The step runs a d=8 model (seed 0, dropout 0.2, dropout rng 123) on four
``synth_two_hop`` contexts longer than two BiGRU chunks, so the pool, the
factor-part and the chunk-walk paths all run. The file holds its loss, a
few fixed random projections of each parameter's gradient, and the same
sketch of the eval logits on four examples of spread lengths, at their real
positions. A projection's matrix is drawn from a generator seeded with the
name it sketches, so adding a name moves no other sketch.

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
from hopqa.model import Model, ModelConfig, joint_loss

PATH = Path(__file__).with_name("reference_step.npz")
# projections per sketched array
N_PROJ = 4


def sketch(name: str, a: np.ndarray) -> np.ndarray:
    """``N_PROJ`` projections of ``a`` on standard normal directions drawn
    from a generator seeded with ``name``."""
    rng = np.random.default_rng(list(name.encode()))
    return rng.standard_normal((N_PROJ, a.size)) @ a.ravel()


def compute() -> dict[str, np.ndarray]:
    """The loss and the sketches, keyed ``loss``, ``grad/<parameter>`` and
    ``eval/<head>``."""
    examples = synth_two_hop(4, seed=0, n_distractors=22)
    # eval contexts of about 50 to 540 tokens in one padded batch
    spread = [synth_two_hop(1, seed=10 + i, n_distractors=k)[0]
              for i, k in enumerate((0, 22, 7, 15))]
    vocab = build_vocab(examples + spread)
    batch = make_batches(examples, vocab, batch_size=4, max_word_len=8)[0][0]
    if batch.context_tokens.shape[1] <= 2 * ad.BIGRU_CHUNK:
        raise AssertionError("the reference step must run past two BiGRU chunks")
    config = ModelConfig(d=8, dropout=0.2, word_dim=8, char_dim=4, char_filters=6,
                         max_word_len=8, dtype="float64")
    model = Model(config, vocab.n_words, vocab.n_chars, np.random.default_rng(0))
    out = model.forward(batch, training=True, rng=np.random.default_rng(123))
    loss = joint_loss(out, batch, model.config.lambda_a, model.config.lambda_s)[0]
    ad.backward(loss)
    result = {"loss": loss.data.copy()}
    for name, p in model.parameters().items():
        result[f"grad/{name}"] = sketch(f"grad/{name}", p.grad)

    batch = make_batches(spread, vocab, batch_size=4, max_word_len=8)[0][0]
    with ad.no_grad():
        out = model.forward(batch)
    real = {"type": np.ones(out.type_logits.shape, dtype=bool),
            "start": batch.context_mask.astype(bool),
            "end": batch.context_mask.astype(bool),
            "sup": batch.sentence_mask.astype(bool)}
    for head, keep in real.items():
        logits = getattr(out, f"{head}_logits").data
        result[f"eval/{head}"] = sketch(f"eval/{head}", logits[keep])
    return result


if __name__ == "__main__":
    np.savez(PATH, **compute())
    print(f"wrote {PATH}")
