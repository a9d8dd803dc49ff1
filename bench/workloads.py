"""The hopqa benchmark workloads: inputs from a seed, a timed loop, a gate.

Each workload repeats one call of a public entry point, ``train`` or
``evaluate_model`` from ``hopqa.training``. Before every call the inputs and
the model are set up afresh from the seed, so every call does the same
work, and the set-ups are spread over the run. Calls start until they have
taken ``seconds`` in total; throughput is the median over epochs (train)
or calls (eval). The correctness gate checks every loss and every
prediction the calls produce.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import hopqa.training as ht
from hopqa.data import ANSWER_TYPES, MAX_CONTEXT_TOKENS, Example, Vocab, build_vocab, \
    synth_two_hop, truncate_example
from hopqa.model import Model, ModelConfig
from hopqa.training import TrainConfig, evaluate_model, train

from tracer import Tracer, per_layer_units

# Set-ups timed before each call; setup_s is their median over the run.
SETUPS_PER_CALL = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload. ``kind`` is "train" (each call is ``train()``
    over ``n_examples`` with ``n_dev`` dev examples) or "eval" (each call is
    ``evaluate_model()`` over ``n_examples``)."""

    name: str
    kind: str
    d: int
    batch_size: int
    n_examples: int
    distractors: int        # eval spreads 0..distractors evenly over the examples
    n_dev: int = 0
    epochs: int = 1
    ema_decay: float = 0.999
    dev_f1_floor: float = 0.0


WORKLOADS = {w.name: w for w in (
    Workload("train_t512", "train", d=80, batch_size=4, n_examples=4, distractors=22),
    Workload("eval_cap", "eval", d=80, batch_size=16, n_examples=32, distractors=120),
    # Not in BENCHMARK.json: its timings spread too widely (bench/README.md).
    # Untrained weights score dev answer F1 between 0.0 and 0.08; trained runs
    # scored 0.53 to 0.81 over 22 seeds.
    Workload("learn_d16", "train", d=16, batch_size=16, n_examples=64, distractors=2,
             n_dev=32, epochs=5, ema_decay=0.9, dev_f1_floor=0.3),
)}


@dataclass
class Inputs:
    model: Model
    vocab: Vocab
    examples: list[Example]
    dev: list[Example]
    seed: int


def setup(w: Workload, seed: int) -> Inputs:
    """Generate the inputs, build the vocabulary and construct the model."""
    if w.kind == "eval":
        examples = _spread_examples(w, seed)
        dev = []
    else:
        examples = synth_two_hop(w.n_examples, seed=2 * seed, n_distractors=w.distractors)
        dev = synth_two_hop(w.n_dev, seed=2 * seed + 1, n_distractors=w.distractors) \
            if w.n_dev else []
    vocab = build_vocab(examples + dev)
    model = Model(ModelConfig(d=w.d), vocab.n_words, vocab.n_chars, np.random.default_rng(seed))
    return Inputs(model=model, vocab=vocab, examples=examples, dev=dev, seed=seed)


def _spread_examples(w: Workload, seed: int) -> list[Example]:
    """Distractor counts spread evenly from 0 to ``w.distractors``. Every
    batch takes every n-th count, so each batch spans the whole length range
    and its longest context reaches the cap; order within a batch is random."""
    n = w.n_examples
    counts = [round(w.distractors * i / max(n - 1, 1)) for i in range(n)]
    n_batches = math.ceil(n / w.batch_size)
    rng = np.random.default_rng(seed)
    order = []
    for b in range(n_batches):
        order.extend(rng.permutation(counts[b::n_batches]).tolist())
    return [synth_two_hop(1, seed=seed * n + i, n_distractors=k)[0]
            for i, k in enumerate(order)]


def real_tokens(examples: list[Example]) -> int:
    return sum(truncate_example(ex, MAX_CONTEXT_TOKENS)[0].n_tokens for ex in examples)


# ---------------------------------------------------------------------------
# correctness


@contextmanager
def captured_predictions():
    """Record the batches and predictions of every ``predict_batches`` call
    that ``evaluate_model`` makes, for the gate."""
    calls = []
    original = ht.predict_batches

    def recording(model, batches):
        preds = original(model, batches)
        calls.append((batches, preds))
        return preds

    ht.predict_batches = recording
    try:
        yield calls
    finally:
        ht.predict_batches = original


def _contiguous(needle: list[str], hay: list[str]) -> bool:
    n = len(needle)
    return any(hay[i:i + n] == needle for i in range(len(hay) - n + 1))


def prediction_problem(ex: Example, p) -> str | None:
    """Why a prediction is malformed for its (truncated) example, or None."""
    if p.id != ex.id or not isinstance(p.answer_text, str):
        return f"{ex.id}: malformed prediction {p!r}"
    if p.answer_type not in ANSWER_TYPES:
        return f"{ex.id}: unknown answer type {p.answer_type!r}"
    if p.answer_type != "span":
        if p.answer_text != p.answer_type:
            return f"{ex.id}: {p.answer_type} answer with text {p.answer_text!r}"
    elif not _contiguous(p.answer_text.split(" "), ex.context_tokens):
        return f"{ex.id}: answer {p.answer_text!r} is not a contiguous run of the context"
    sentences = {ex.sentence_title(k) for k in range(len(ex.sentence_spans))}
    for fact in p.supporting_facts:
        if tuple(fact) not in sentences:
            return f"{ex.id}: supporting fact {fact!r} names no sentence of the example"
    return None


def check_predictions(expected: list[Example], calls) -> tuple[int, list[str]]:
    """Check one ``evaluate_model`` call's predictions against its inputs.
    Returns (examples attempted, problems), one problem per failed example."""
    if len(calls) != 1:
        return len(expected), [f"expected one predict_batches call, saw {len(calls)}"] * len(expected)
    batches, preds = calls[0]
    seen = {ex.id: ex for batch in batches for ex in batch.examples}
    problems = []
    for ex in expected:
        if ex.id not in seen or ex.id not in preds:
            problems.append(f"{ex.id}: no prediction")
            continue
        problem = prediction_problem(seen[ex.id], preds[ex.id])
        if problem is not None:
            problems.append(problem)
    return len(expected), problems


# ---------------------------------------------------------------------------
# one call of the entry point


@dataclass
class Call:
    wall: float
    rates: list[float]       # tokens per second, per epoch (train) or per call (eval)
    attempted: int
    problems: list[str]
    outputs: object          # losses per epoch (train) or answers by id (eval)
    dev_f1: float | None = None
    train_loss: float | None = None

    @property
    def failed(self) -> int:
        return len(self.problems)


def run_call(w: Workload, inp: Inputs) -> Call:
    """One entry-point call on freshly set-up inputs, timed from outside."""
    return _train_call(w, inp) if w.kind == "train" else _eval_call(w, inp)


def _train_call(w: Workload, inp: Inputs) -> Call:
    tcfg = TrainConfig(epochs=w.epochs, batch_size=w.batch_size, ema_decay=w.ema_decay,
                       patience=w.epochs, seed=inp.seed)
    steps_per_epoch = math.ceil(len(inp.examples) / w.batch_size)
    stamps = []

    def epoch_end(epoch, model, ema, result):
        stamps.append(time.perf_counter())
        return False

    result = None
    with captured_predictions() as calls:
        start = time.perf_counter()
        stamps.append(start)
        try:
            result = train(inp.model, inp.examples, inp.dev, inp.vocab, tcfg,
                           on_epoch=epoch_end)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start

    attempted = w.epochs * steps_per_epoch
    problems = []
    losses = list(result.loss_history) if result is not None else []
    finite = sum(1 for loss in losses if math.isfinite(loss))
    if result is None or finite < w.epochs:
        epochs_done = len(stamps) - 1
        done = min(epochs_done, finite) if result is not None else epochs_done
        failed = attempted - done * steps_per_epoch
        problems += ["train step failed: raised or non-finite loss"] * failed
    for call in calls:
        n, dev_problems = check_predictions(inp.dev, [call])
        attempted += n
        problems += dev_problems
    dev_f1 = None
    if result is not None and inp.dev:
        dev_f1 = result.epoch_logs[-1].dev.answer_f1
        attempted += 1          # the quality check counts as one operation
        if dev_f1 < w.dev_f1_floor:
            problems.append(f"dev answer F1 {dev_f1:.4f} below the floor {w.dev_f1_floor}")
    tokens = real_tokens(inp.examples)
    rates = [tokens / (b - a) for a, b in zip(stamps, stamps[1:])]
    return Call(wall=wall, rates=rates, attempted=attempted, problems=problems,
                outputs=losses, dev_f1=dev_f1, train_loss=losses[-1] if losses else None)


def _eval_call(w: Workload, inp: Inputs) -> Call:
    with captured_predictions() as calls:
        start = time.perf_counter()
        try:
            evaluate_model(inp.model, inp.examples, inp.vocab, batch_size=w.batch_size)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            calls.clear()
        wall = time.perf_counter() - start
    attempted, problems = check_predictions(inp.examples, calls)
    answers = {pid: p.answer_text for pid, p in calls[0][1].items()} if calls else {}
    return Call(wall=wall, rates=[real_tokens(inp.examples) / wall], attempted=attempted,
                problems=problems, outputs=answers)


# ---------------------------------------------------------------------------
# runs


@dataclass
class Outcome:
    attempted: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]
    problems: list[str]     # one per failed operation

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def correct(self) -> bool:
        return not self.problems

    def result(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(w: Workload, seed: int, times: list[float]) -> Inputs:
    """``SETUPS_PER_CALL`` set-ups, each timed into ``times``; returns the last."""
    inp = None
    for _ in range(SETUPS_PER_CALL):
        start = time.perf_counter()
        fresh = setup(w, seed)
        times.append(time.perf_counter() - start)
        inp = fresh             # the previous set-up is freed outside the timing
    return inp


def measure(w: Workload, seed: int, seconds: float) -> tuple[list[Call], list[float]]:
    """Calls until they have taken ``seconds`` in total, stopping at a failure.
    Returns the calls and the set-up times."""
    calls: list[Call] = []
    setup_times: list[float] = []
    while not calls or sum(c.wall for c in calls) < seconds:
        calls.append(run_call(w, timed_setup(w, seed, setup_times)))
        if calls[-1].failed:
            break
    return calls, setup_times


def summarize(w: Workload, calls: list[Call], setup_times: list[float]) -> Outcome:
    """End-to-end metrics, report lines and gate of an untraced run."""
    attempted = sum(c.attempted for c in calls)
    problems = [p for c in calls for p in c.problems]
    rates = [r for c in calls if not c.failed for r in c.rates]
    tokens_per_s = statistics.median(rates) if rates else 0.0
    metrics = {"setup_s": (statistics.median(setup_times), "s"),
               "tokens_per_s": (tokens_per_s, "tok/s"),
               "peak_rss_mb": (_peak_rss_mb(), "MB")}
    entry = "train" if w.kind == "train" else "evaluate_model"
    lines = [
        f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setup_times)} set-ups)",
        f"{w.kind}_tokens_per_s {tokens_per_s:.2f} tok/s (median over {len(rates)} "
        f"{'epochs' if w.kind == 'train' else 'calls'} of {len(calls)} {entry}() calls; "
        "JSON name tokens_per_s)",
        "call_s " + " ".join(f"{c.wall:.3f}" for c in calls) + " s",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    last = calls[-1]
    if last.dev_f1 is not None:
        lines.append(f"dev_answer_f1 {last.dev_f1:.4f} ratio (floor {w.dev_f1_floor})")
    if last.train_loss is not None:
        lines.append(f"train_loss_last_epoch {last.train_loss:.6f} loss/example")
    lines.append(f"failed_frac {len(problems) / max(attempted, 1):.4f} ratio "
                 f"({len(problems)} of {attempted} operations)")
    return Outcome(attempted=attempted, metrics=metrics, lines=lines, problems=problems)


def run_traced(w: Workload, seed: int) -> Outcome:
    """Untraced warm-up, then traced, untraced and traced calls, each on
    freshly set-up inputs. The two traced calls must give the same counts,
    and every call the same outputs."""
    warmup = run_call(w, setup(w, seed))
    first = Tracer()
    with first.installed():
        traced_a = run_call(w, setup(w, seed))
    untraced = run_call(w, setup(w, seed))
    second = Tracer()
    with second.installed():
        traced_b = run_call(w, setup(w, seed))
    calls = [warmup, traced_a, untraced, traced_b]

    problems = [p for c in calls for p in c.problems]
    if first.counts() != second.counts():
        diff = {k: (v, second.counts()[k]) for k, v in first.counts().items()
                if second.counts()[k] != v}
        problems.append(f"counts differ between two traced calls: {diff}")
    if any(c.outputs != warmup.outputs for c in calls[1:]):
        problems.append("outputs differ between calls on the same inputs and weights")

    attempted = sum(c.attempted for c in calls) + 2     # the two checks above
    reports = [first.report(), second.report()]
    metrics = {}
    for name, unit in per_layer_units().items():
        if name == "trace.overhead_frac":
            value = (traced_a.wall + traced_b.wall) / 2 / untraced.wall - 1.0
        elif unit == "count":
            value = reports[0][name]        # checked equal across the traced calls
        else:
            value = sum(r[name] for r in reports) / len(reports)
        metrics[name] = (value, unit)
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return Outcome(attempted=attempted, metrics=metrics, lines=lines, problems=problems)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    """One benchmark run. A traced run makes a fixed four calls and ignores
    ``seconds``."""
    if trace:
        return run_traced(w, seed)
    return summarize(w, *measure(w, seed, seconds))
