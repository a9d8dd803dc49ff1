"""Metric checks against a naive, independently written reference scorer."""

import random
import re

import pytest

from hopqa.metrics import (
    ExampleScore,
    MetricReport,
    aggregate,
    exact_match_score,
    f1_score,
    normalize_answer,
    score_example,
    sup_fact_score,
)


# ---------------------------------------------------------------------------
# reference scorer: deliberately plain, no shared code with the package


def ref_normalize(text):
    text = text.lower()
    out = []
    for ch in text:
        if ch.isalnum() or ch.isspace():
            out.append(ch)
    words = "".join(out).split()
    words = [w for w in words if w not in ("a", "an", "the")]
    return " ".join(words)


def ref_answer_scores(pred, gold):
    np_, ng = ref_normalize(pred), ref_normalize(gold)
    em = 1.0 if np_ == ng else 0.0
    special = ("yes", "no", "noanswer")
    if (np_ in special or ng in special) and np_ != ng:
        return em, 0.0, 0.0, 0.0
    pt, gt = np_.split(), ng.split()
    same = 0
    gt_left = list(gt)
    for w in pt:
        if w in gt_left:
            same += 1
            gt_left.remove(w)
    if same == 0 or not pt or not gt:
        return em, 0.0, 0.0, 0.0
    p = same / len(pt)
    r = same / len(gt)
    return em, 2 * p * r / (p + r), p, r


def ref_sup_scores(pred, gold):
    pred = set(map(tuple, pred))
    gold = set(map(tuple, gold))
    tp = 0
    for item in pred:
        if item in gold:
            tp += 1
    p = tp / len(pred) if pred else 0.0
    r = tp / len(gold) if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    em = 1.0 if pred == gold else 0.0
    return em, f1, p, r


def ref_all_six(pred_ans, gold_ans, pred_sup, gold_sup):
    a_em, a_f1, a_p, a_r = ref_answer_scores(pred_ans, gold_ans)
    s_em, s_f1, s_p, s_r = ref_sup_scores(pred_sup, gold_sup)
    jp, jr = a_p * s_p, a_r * s_r
    j_f1 = 2 * jp * jr / (jp + jr) if jp + jr > 0 else 0.0
    return a_em, a_f1, s_em, s_f1, a_em * s_em, j_f1


# ---------------------------------------------------------------------------
# fixtures: (pred answer, gold answer, pred sup, gold sup)

SUP_AB = [("DocA", 0), ("DocB", 1)]

FIXTURES = [
    ("2 million", "2 million", SUP_AB, SUP_AB),
    ("over 2 million", "2 million", SUP_AB, SUP_AB),
    ("2 million", "over 2 million", SUP_AB, SUP_AB),
    ("The Eiffel Tower", "eiffel tower", SUP_AB, SUP_AB),
    ("completely wrong", "2 million", SUP_AB, SUP_AB),
    ("yes", "yes", [("DocA", 0)], SUP_AB),
    ("yes", "no", SUP_AB, SUP_AB),
    ("yes", "yes sir", SUP_AB, SUP_AB),
    ("2 million", "2 million", [("DocA", 0), ("DocC", 3)], SUP_AB),
    ("2 million", "2 million", [], SUP_AB),
    ("Khia Shamone Finch", "Khia", SUP_AB, [("DocA", 0)]),
    ("a b c d", "b c", [("X", 1)], [("X", 1), ("Y", 2)]),
    ("", "2 million", SUP_AB, SUP_AB),
]


@pytest.mark.parametrize("pred_ans,gold_ans,pred_sup,gold_sup", FIXTURES)
def test_six_metrics_match_reference(pred_ans, gold_ans, pred_sup, gold_sup):
    got = score_example("x", pred_ans, [gold_ans], pred_sup, gold_sup)
    want = ref_all_six(pred_ans, gold_ans, pred_sup, gold_sup)
    assert (got.answer_em, got.answer_f1, got.sup_em, got.sup_f1,
            got.joint_em, got.joint_f1) == pytest.approx(want, abs=1e-12)


def test_table_case_answer_f1_is_point_eight():
    f1, p, r = f1_score("over 2 million", "2 million")
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(1.0)
    assert f1 == pytest.approx(0.8)


def test_exact_match_after_normalization():
    assert exact_match_score("The  Answer!", "answer") == 1.0
    assert exact_match_score("an answer", "the answer") == 1.0
    assert exact_match_score("answers", "answer") == 0.0


def test_joint_formula_example():
    # answer p=2/3, r=1; sup p=r=1 -> joint p=2/3, r=1, f1=0.8
    s = score_example("x", "over 2 million", ["2 million"], SUP_AB, SUP_AB)
    assert s.answer_f1 == pytest.approx(0.8)
    assert s.sup_f1 == 1.0
    assert s.joint_f1 == pytest.approx(0.8)


def test_em_le_f1_per_example():
    for pred, gold, _, _ in FIXTURES:
        em = exact_match_score(pred, gold)
        f1, _, _ = f1_score(pred, gold)
        assert em <= f1 + 1e-12


def test_all_metrics_in_unit_interval_and_joint_em_bound():
    scores = [score_example(str(i), p, [g], ps, gs)
              for i, (p, g, ps, gs) in enumerate(FIXTURES)]
    report = aggregate(scores)
    for v in (report.answer_em, report.answer_f1, report.sup_em,
              report.sup_f1, report.joint_em, report.joint_f1):
        assert 0.0 <= v <= 1.0
    assert report.joint_em <= min(report.answer_em, report.sup_em) + 1e-12
    for s in scores:
        assert s.joint_em <= min(s.answer_em, s.sup_em) + 1e-12


def test_aggregate_averages_each_score_in_example_order():
    rng = random.Random(7)
    scores = [ExampleScore(str(i), *(rng.random() for _ in range(6))) for i in range(7)]
    report = aggregate(scores)
    assert report.per_example is scores and aggregate([]) == MetricReport()
    for name in ("answer_em", "answer_f1", "sup_em", "sup_f1", "joint_em", "joint_f1"):
        total = 0.0
        for s in scores:
            total += getattr(s, name)
        assert getattr(report, name) == total / 7, name      # the same float, bit for bit


def test_sup_scores_edge_cases():
    em, f1, p, r = sup_fact_score([], [("A", 0)])
    assert (em, f1, p, r) == (0.0, 0.0, 0.0, 0.0)
    em, f1, p, r = sup_fact_score([("A", 0)], [("A", 0)])
    assert (em, f1, p, r) == (1.0, 1.0, 1.0, 1.0)


def test_best_over_multiple_golds():
    s = score_example("x", "324 metres", ["half wrong", "324 metres"], [], [],
                      with_sup=False)
    assert s.answer_em == 1.0 and s.answer_f1 == 1.0


def test_normalizer_strips_punct_articles_whitespace():
    assert normalize_answer("The  U.S.  Open!") == "us open"
    assert re.fullmatch(r"[a-z0-9 ]*", normalize_answer("Mixed-CASE, 42%"))
