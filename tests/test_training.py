import ast
import weakref

import numpy as np
import pytest

import hopqa.training as ht
from hopqa.data import MAX_CONTEXT_TOKENS, build_vocab, make_batches, synth_two_hop
from hopqa.metrics import MetricReport
from hopqa.model import Model, ModelConfig
from hopqa.optim import OPTIMIZERS
from hopqa.training import TrainConfig, evaluate_model, train

DISTRACTORS = [5, 0, 8, 2, 7, 1, 6, 3, 4]


@pytest.fixture(scope="module")
def setup():
    examples = [synth_two_hop(1, seed=k, n_distractors=n)[0]
                for k, n in enumerate(DISTRACTORS)]
    vocab = build_vocab(examples)
    config = ModelConfig(d=4, dropout=0.0, word_dim=8, char_dim=4, char_filters=6,
                         max_word_len=8, dtype="float64")
    model = Model(config, vocab.n_words, vocab.n_chars, np.random.default_rng(0))
    return model, examples, vocab


def _evaluate(monkeypatch, model, examples, vocab, batch_size):
    """Run ``evaluate_model``; return its report, the answers it decoded and
    the batches it built."""
    seen = {}
    make, predict = ht.make_batches, ht.predict_batches

    def recording_make(*args, **kwargs):
        seen["batches"], stats = make(*args, **kwargs)
        return seen["batches"], stats

    def recording_predict(m, batches):
        seen["preds"] = predict(m, batches)
        return seen["preds"]

    monkeypatch.setattr(ht, "make_batches", recording_make)
    monkeypatch.setattr(ht, "predict_batches", recording_predict)
    report = evaluate_model(model, examples, vocab, batch_size=batch_size)
    answers = {pid: (p.answer_text, p.supporting_facts) for pid, p in seen["preds"].items()}
    return report, answers, seen["batches"]


def _pad_frac(batches):
    positions = sum(b.context_mask.size for b in batches)
    return 1.0 - sum(float(b.context_mask.sum()) for b in batches) / positions


def test_per_example_scores_follow_input_order(monkeypatch, setup):
    model, examples, vocab = setup
    report, _, _ = _evaluate(monkeypatch, model, examples, vocab, batch_size=3)
    assert [s.id for s in report.per_example] == [ex.id for ex in examples]


@pytest.mark.parametrize("variant", ["permuted", "batch_size_1"])
def test_answers_and_scores_do_not_depend_on_order_or_batching(monkeypatch, setup, variant):
    model, examples, vocab = setup
    report, answers, _ = _evaluate(monkeypatch, model, examples, vocab, batch_size=3)
    if variant == "permuted":
        order = np.random.default_rng(1).permutation(len(examples))
        other, other_answers, _ = _evaluate(monkeypatch, model,
                                            [examples[i] for i in order], vocab, 3)
    else:
        other, other_answers, _ = _evaluate(monkeypatch, model, examples, vocab, 1)
    assert other_answers == answers
    assert {s.id: s for s in other.per_example} == {s.id: s for s in report.per_example}


def test_batches_pad_under_half_of_input_order(monkeypatch, setup):
    model, examples, vocab = setup
    _, _, batches = _evaluate(monkeypatch, model, examples, vocab, batch_size=3)
    in_order, _ = make_batches(examples, vocab, 3, max_word_len=model.config.max_word_len)
    assert sorted(ex.id for b in batches for ex in b.examples) == sorted(ex.id for ex in examples)
    assert _pad_frac(batches) < 0.5 * _pad_frac(in_order)


@pytest.mark.parametrize("metric", ["nope", "per_example"])
def test_eval_metric_must_name_a_score(metric):
    with pytest.raises(ValueError, match=f"eval_metric must be one of .*got '{metric}'"):
        TrainConfig(eval_metric=metric)


@pytest.mark.parametrize("field, value", [
    ("lr", 0.0), ("lr", -1.0), ("epochs", 0), ("batch_size", 0), ("patience", 0),
    ("patience", -1), ("clip_norm", -1.0), ("ema_decay", 1.5), ("ema_decay", 0.0),
    ("optimizer", "nope"), ("lr", float("nan")), ("lr", float("inf")),
    ("clip_norm", float("nan")), ("clip_norm", float("inf")),
])
def test_train_config_rejects_values_train_cannot_use(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be .*got {value!r}"):
        TrainConfig(**{field: value})


def test_train_config_accepts_zero_clip_norm_and_each_optimizer():
    assert TrainConfig(clip_norm=0.0).clip_norm == 0.0
    assert sorted(OPTIMIZERS) == ["adadelta", "adam"]
    for kind in OPTIMIZERS:
        assert TrainConfig(optimizer=kind).optimizer == kind


@pytest.mark.parametrize("metric", ["joint_f1", "sup_em"])
def test_train_without_support_prediction_needs_an_answer_metric(setup, metric):
    # without supporting facts every sup and joint score is 0, so early
    # stopping on one would keep epoch 1's weights
    _, examples, vocab = setup
    model = Model(ModelConfig(d=4, dropout=0.0, word_dim=8, char_dim=4, char_filters=6,
                              max_word_len=8, predict_support=False),
                  vocab.n_words, vocab.n_chars, np.random.default_rng(1))
    with pytest.raises(ValueError, match=f"eval_metric '{metric}' .* predict_support"):
        train(model, examples[:2], examples[2:4], vocab,
              TrainConfig(epochs=1, batch_size=2, eval_metric=metric))
    result = train(model, examples[:2], examples[2:4], vocab,
                   TrainConfig(epochs=1, batch_size=2, eval_metric="answer_f1"))
    assert result.best_epoch == 1


def test_train_frees_each_step_graph_before_the_next_forward(setup):
    _, examples, vocab = setup
    model = Model(ModelConfig(d=4, dropout=0.0, word_dim=8, char_dim=4, char_filters=6,
                              max_word_len=8), vocab.n_words, vocab.n_chars,
                  np.random.default_rng(1))
    outputs, alive = [], []
    forward = model.forward

    def recording_forward(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in outputs))
        out = forward(*args, **kwargs)
        outputs.append(weakref.ref(out))
        return out

    model.forward = recording_forward
    train(model, examples[:4], [], vocab, TrainConfig(epochs=1, batch_size=1))
    assert alive == [0, 0, 0, 0]


def _fresh_model(vocab, seed=1):
    return Model(ModelConfig(d=4, dropout=0.0, word_dim=8, char_dim=4, char_filters=6,
                             max_word_len=8), vocab.n_words, vocab.n_chars,
                 np.random.default_rng(seed))


def _scripted_dev(monkeypatch, metrics):
    """Make ``train``'s dev scores read ``metrics`` in turn; returns the
    model state seen at each dev evaluation (the averaged weights)."""
    seen = []

    def scripted(model, examples, vocab, batch_size=32):
        seen.append({name: a.copy() for name, a in model.state_arrays().items()})
        return MetricReport(joint_f1=metrics[len(seen) - 1])

    monkeypatch.setattr(ht, "evaluate_model", scripted)
    return seen


@pytest.mark.parametrize("patience, metrics, epochs_run, best_epoch, stopped", [
    (1, [0.2, 0.5, 0.4, 0.9, 0.9], 3, 2, True),
    (1, [0.3, 0.3, 0.9, 0.9, 0.9], 2, 1, True),      # a tie does not improve
    (2, [0.5, 0.4, 0.45, 0.9, 0.9], 3, 1, True),
    (2, [0.5, 0.4, 0.6, 0.1, 0.2], 5, 3, True),
    (2, [0.5, 0.4, 0.6, 0.7, 0.1], 5, 4, False),
])
def test_train_stops_after_patience_epochs_without_improvement(
        monkeypatch, setup, patience, metrics, epochs_run, best_epoch, stopped):
    _, examples, vocab = setup
    seen = _scripted_dev(monkeypatch, metrics)
    result = train(_fresh_model(vocab), examples[:2], examples[2:3], vocab,
                   TrainConfig(epochs=5, batch_size=2, patience=patience))
    assert [log.epoch for log in result.epoch_logs] == list(range(1, epochs_run + 1))
    assert [log.dev.joint_f1 for log in result.epoch_logs] == metrics[:epochs_run]
    assert result.stopped_early == stopped
    assert (result.best_epoch, result.best_metric) == (best_epoch, metrics[best_epoch - 1])
    # the best epoch's averaged weights are kept, not those of the last epoch
    best, last = seen[best_epoch - 1], seen[-1]
    assert set(result.best_state) == set(best)
    assert all(np.array_equal(result.best_state[k], best[k]) for k in best)
    assert not all(np.array_equal(best[k], last[k]) for k in best)


def test_train_stops_when_on_epoch_returns_true(monkeypatch, setup):
    _, examples, vocab = setup
    _scripted_dev(monkeypatch, [0.1, 0.2, 0.3, 0.4])
    calls = []

    def on_epoch(epoch, model, ema, result):
        calls.append((epoch, len(result.epoch_logs), result.best_epoch))
        return epoch == 2

    result = train(_fresh_model(vocab), examples[:2], examples[2:3], vocab,
                   TrainConfig(epochs=4, batch_size=2, patience=1), on_epoch=on_epoch)
    assert calls == [(1, 1, 1), (2, 2, 2)]
    assert len(result.epoch_logs) == 2 and not result.stopped_early
    assert (result.best_epoch, result.best_metric) == (2, 0.2)


def test_train_raises_training_diverged_naming_the_batch(setup):
    _, examples, vocab = setup
    model = _fresh_model(vocab)
    model.parameters()["head.type.b"].data[...] = np.nan
    with pytest.raises(ht.TrainingDiverged, match="non-finite loss at epoch 1; batch ids: ") as info:
        train(model, examples[:4], [], vocab, TrainConfig(epochs=1, batch_size=2))
    ids = ast.literal_eval(str(info.value).split("batch ids: ")[1])
    assert len(ids) == 2 and set(ids) <= {ex.id for ex in examples[:4]}


def test_epoch_logs_keep_truncation_counters_and_each_step_grad_norm(setup):
    # one example past the context cap, with its answer past it too, and two
    # that fit: each epoch counts the truncation and the lost span, and logs
    # one finite pre-clip norm per step
    _, examples, _ = setup
    long = synth_two_hop(1, seed=14, n_distractors=120)[0]
    assert long.n_tokens > MAX_CONTEXT_TOKENS and long.answer_span[0] >= MAX_CONTEXT_TOKENS
    train_set = [examples[1], long, examples[3]]
    vocab = build_vocab(train_set)
    result = train(_fresh_model(vocab), train_set, [], vocab, TrainConfig(epochs=2, batch_size=1))
    assert len(result.epoch_logs) == 2
    for log in result.epoch_logs:
        assert (log.truncated_examples, log.spans_lost_to_truncation) == (1, 1)
        assert len(log.grad_norms) == 3
        assert all(np.isfinite(n) and n > 0 for n in log.grad_norms)


def test_evaluate_model_and_the_dev_report_keep_truncation_counters(setup):
    # the seed-14 example runs past the context cap, its answer too: the
    # report counts one truncated example and one lost span, a report
    # without it none, and train()'s dev report counts the same
    _, examples, _ = setup
    long = synth_two_hop(1, seed=14, n_distractors=120)[0]
    assert long.n_tokens > MAX_CONTEXT_TOKENS and long.answer_span[0] >= MAX_CONTEXT_TOKENS
    dev = [examples[1], long, examples[3]]
    vocab = build_vocab(examples[:1] + dev)
    model = _fresh_model(vocab)
    report = evaluate_model(model, dev, vocab, batch_size=2)
    assert (report.truncated_examples, report.spans_lost_to_truncation) == (1, 1)
    fitting = evaluate_model(model, [examples[1], examples[3]], vocab, batch_size=2)
    assert (fitting.truncated_examples, fitting.spans_lost_to_truncation) == (0, 0)
    result = train(model, examples[:1], dev, vocab, TrainConfig(epochs=1, batch_size=2))
    dev_report = result.epoch_logs[0].dev
    assert (dev_report.truncated_examples, dev_report.spans_lost_to_truncation) == (1, 1)
