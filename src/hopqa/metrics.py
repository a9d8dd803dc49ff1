"""Answer and supporting-fact scoring.

Answer strings are compared after the standard normalization (lowercase,
strip articles and punctuation, collapse whitespace) with token-overlap F1.
Supporting facts are scored as sets of (title, sentence id) pairs. The
joint metrics multiply the answer and supporting-fact precisions/recalls
per example; every metric is computed example-by-example and averaged.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterable

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(s: str) -> str:
    s = s.lower()
    s = s.translate(_PUNCT_TABLE)
    s = _ARTICLES.sub(" ", s)
    return " ".join(s.split())


def exact_match_score(prediction: str, gold: str) -> float:
    return float(normalize_answer(prediction) == normalize_answer(gold))


def f1_score(prediction: str, gold: str) -> tuple[float, float, float]:
    """Token-overlap (f1, precision, recall).

    A yes/no/noanswer string on either side scores zero unless both sides
    agree exactly, so span text never partially matches a yes/no label."""
    norm_pred = normalize_answer(prediction)
    norm_gold = normalize_answer(gold)
    closed = ("yes", "no", "noanswer")
    if (norm_pred in closed or norm_gold in closed) and norm_pred != norm_gold:
        return 0.0, 0.0, 0.0
    pred_tokens = norm_pred.split()
    gold_tokens = norm_gold.split()
    common = Counter(pred_tokens) & Counter(gold_tokens)
    same = sum(common.values())
    if same == 0:
        return 0.0, 0.0, 0.0
    precision = same / len(pred_tokens)
    recall = same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall), precision, recall


def sup_fact_score(predicted: Iterable[tuple[str, int]],
                   gold: Iterable[tuple[str, int]]) -> tuple[float, float, float, float]:
    """Set precision/recall over (title, sentence id) pairs: (em, f1, p, r)."""
    pred = {(t, int(i)) for t, i in predicted}
    want = {(t, int(i)) for t, i in gold}
    tp = len(pred & want)
    fp = len(pred - want)
    fn = len(want - pred)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    em = 1.0 if fp + fn == 0 else 0.0
    return em, f1, precision, recall


@dataclass
class ExampleScore:
    id: str
    answer_em: float
    answer_f1: float
    sup_em: float
    sup_f1: float
    joint_em: float
    joint_f1: float


@dataclass
class MetricReport:
    answer_em: float = 0.0
    answer_f1: float = 0.0
    sup_em: float = 0.0
    sup_f1: float = 0.0
    joint_em: float = 0.0
    joint_f1: float = 0.0
    per_example: list[ExampleScore] = field(default_factory=list)
    truncated_examples: int = 0         # the scored batches' BatchStats counters
    spans_lost_to_truncation: int = 0


def score_example(ex_id: str, pred_answer: str, gold_answers: list[str],
                  pred_sup: Iterable[tuple[str, int]],
                  gold_sup: Iterable[tuple[str, int]],
                  with_sup: bool = True) -> ExampleScore:
    """Best answer score over the gold alternatives, plus sup and joint."""
    best = (0.0, 0.0, 0.0, 0.0)   # em, f1, p, r
    for gold in gold_answers:
        em = exact_match_score(pred_answer, gold)
        f1, p, r = f1_score(pred_answer, gold)
        if (em, f1) > (best[0], best[1]):
            best = (em, f1, p, r)
    a_em, a_f1, a_p, a_r = best
    if not with_sup:
        return ExampleScore(ex_id, a_em, a_f1, 0.0, 0.0, 0.0, 0.0)
    s_em, s_f1, s_p, s_r = sup_fact_score(pred_sup, gold_sup)
    j_p = a_p * s_p
    j_r = a_r * s_r
    j_f1 = 2 * j_p * j_r / (j_p + j_r) if j_p + j_r else 0.0
    j_em = a_em * s_em
    return ExampleScore(ex_id, a_em, a_f1, s_em, s_f1, j_em, j_f1)


def score_names() -> list[str]:
    """The score fields that ``MetricReport`` and ``ExampleScore`` share, in order."""
    return [f.name for f in fields(MetricReport) if isinstance(f.default, float)]


def aggregate(scores: list[ExampleScore]) -> MetricReport:
    if not scores:
        return MetricReport()
    return MetricReport(**{k: sum(getattr(s, k) for s in scores) / len(scores)
                           for k in score_names()}, per_example=scores)
