"""Training loop with weight averaging and early stopping."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .autodiff import backward, zero_grads
from .data import Example, Vocab, make_batches
from .metrics import MetricReport, aggregate, score_example, score_names
from .model import Model, joint_loss, predict_batches
from .optim import OPTIMIZERS, EmaWeights, clip_global_norm, make_optimizer


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    optimizer: str = "adam"
    lr: float = 0.01
    clip_norm: float = 5.0          # 0 disables clipping
    ema_decay: float = 0.999
    patience: int = 1
    eval_metric: str = "joint_f1"
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.clip_norm) and self.clip_norm >= 0):
            raise ValueError(f"clip_norm must be finite and >= 0, got {self.clip_norm}")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError(f"ema_decay must be in (0, 1), got {self.ema_decay}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {sorted(OPTIMIZERS)}, "
                             f"got {self.optimizer!r}")
        scores = score_names()
        if self.eval_metric not in scores:
            raise ValueError(f"eval_metric must be one of {scores}, got {self.eval_metric!r}")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    dev: MetricReport | None
    seconds: float
    grad_norms: list[float]             # each step's, before clipping
    truncated_examples: int             # the epoch's BatchStats counters
    spans_lost_to_truncation: int


@dataclass
class TrainResult:
    epoch_logs: list[EpochLog] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)
    best_metric: float = -1.0
    best_epoch: int = -1
    best_state: dict[str, np.ndarray] | None = None
    stopped_early: bool = False


def evaluate_model(model: Model, examples: list[Example], vocab: Vocab,
                   batch_size: int = 32) -> MetricReport:
    """Decode and score a dataset slice with the model's current weights.

    Batches are built from the examples in order of context length (a stable
    sort), so each batch pads only to the longest of similar lengths. The
    scores, and ``per_example``, follow the order of ``examples``. The
    report also counts the examples cut to the context cap and the answer
    spans lost with the cut."""
    ordered = sorted(examples, key=lambda ex: ex.n_tokens)
    batches, stats = make_batches(ordered, vocab, batch_size,
                                  max_word_len=model.config.max_word_len)
    preds = predict_batches(model, batches)
    scores = []
    for ex in examples:                 # truncation keeps answers and gold_sup
        p = preds[ex.id]
        scores.append(score_example(ex.id, p.answer_text, ex.answers,
                                    p.supporting_facts, ex.gold_sup,
                                    with_sup=model.config.predict_support))
    return replace(aggregate(scores), **asdict(stats))


def _averaged_state(model: Model, ema: EmaWeights) -> dict[str, np.ndarray]:
    """Copies of all the model's persistent arrays, with the averaged weights in."""
    with ema.swapped():
        return {name: a.copy() for name, a in model.state_arrays().items()}


def train(model: Model, train_examples: list[Example],
          dev_examples: list[Example], vocab: Vocab, tcfg: TrainConfig,
          on_epoch: Callable[[int, Model, EmaWeights, TrainResult], bool] | None = None
          ) -> TrainResult:
    """Epoch loop: shuffle, forward, joint loss, backward, clip, step, EMA.

    After each epoch the dev slice is scored with the averaged weights;
    training stops once the chosen dev metric fails to improve for
    ``patience`` consecutive epochs, keeping the best averaged weights.
    Without ``predict_support`` every supporting-fact and joint score is 0,
    so ``eval_metric`` must then be an answer score (``ValueError``).
    """
    if not model.config.predict_support and not tcfg.eval_metric.startswith("answer_"):
        raise ValueError(f"eval_metric {tcfg.eval_metric!r} is 0 for every example "
                         "without predict_support; use answer_em or answer_f1")
    params = model.parameters()
    opt = make_optimizer(tcfg.optimizer, params, tcfg.lr)
    ema = EmaWeights(params, decay=tcfg.ema_decay)
    seeds = np.random.SeedSequence(tcfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(seeds[0])
    dropout_rng = np.random.default_rng(seeds[1])

    result = TrainResult()
    bad_epochs = 0
    for epoch in range(1, tcfg.epochs + 1):
        started = time.monotonic()
        batches, stats = make_batches(train_examples, vocab, tcfg.batch_size,
                                      max_word_len=model.config.max_word_len,
                                      rng=shuffle_rng, shuffle=True)
        total = 0.0
        count = 0
        norms = []
        for batch in batches:
            zero_grads(params.values())
            out = model.forward(batch, training=True, rng=dropout_rng)
            loss = joint_loss(out, batch, model.config.lambda_a,
                              model.config.lambda_s)[0]
            value = loss.item()
            if not math.isfinite(value):
                ids = [ex.id for ex in batch.examples]
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}; batch ids: {ids}")
            backward(loss)
            norms.append(clip_global_norm(params, tcfg.clip_norm))
            opt.step()
            ema.update()
            del out, loss           # free this step's graph before the next forward
            total += value
            count += batch.size
        epoch_loss = total / max(count, 1)
        result.loss_history.append(epoch_loss)

        dev_report = None
        if dev_examples:
            with ema.swapped():
                dev_report = evaluate_model(model, dev_examples, vocab,
                                            batch_size=tcfg.batch_size)
        log = EpochLog(epoch=epoch, train_loss=epoch_loss, dev=dev_report,
                       seconds=time.monotonic() - started, grad_norms=norms, **asdict(stats))
        result.epoch_logs.append(log)

        if dev_report is not None:
            metric = getattr(dev_report, tcfg.eval_metric)
            if metric > result.best_metric:
                result.best_metric = metric
                result.best_epoch = epoch
                result.best_state = _averaged_state(model, ema)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= tcfg.patience:
                    result.stopped_early = True
                    break
        if on_epoch is not None and on_epoch(epoch, model, ema, result):
            break
    if result.best_state is None:
        result.best_state = _averaged_state(model, ema)
        result.best_epoch = len(result.epoch_logs)
    return result
