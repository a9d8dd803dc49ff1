import numpy as np
import pytest

from hopqa import autodiff as ad
from hopqa.autodiff import (
    backward,
    binary_cross_entropy,
    concat,
    constant,
    cross_entropy,
    dropout,
    gather_rows,
    matmul,
    max_reduce,
    parameter,
    reduce_sum,
    relu,
    reshape,
    softmax,
    transpose,
)
from hopqa.gradcheck import grad_check
from reference_ops import narrow, sigmoid, sub, tanh

TOL = {np.float32: 1e-3, np.float64: 1e-6}


def _rand(rng, shape, dtype, away_from_zero=False):
    x = rng.standard_normal(shape)
    if away_from_zero:
        # keep relu/max inputs off their kinks so FD stays two-sided smooth
        x = np.where(np.abs(x) < 0.1, x + 0.25 * np.sign(x + 1e-12), x)
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_primitive_ops_pass_grad_check(dtype):
    rng = np.random.default_rng(42)
    w = constant(_rand(rng, (7, 3), dtype), dtype=dtype)

    x = parameter(_rand(rng, (5, 7), dtype, away_from_zero=True), dtype=dtype)
    y = parameter(_rand(rng, (5, 7), dtype), dtype=dtype)
    col = parameter(_rand(rng, (5, 1), dtype), dtype=dtype)
    table = parameter(_rand(rng, (6, 4), dtype), dtype=dtype)
    ids = np.array([1, 3, 3, 5])
    probe = constant(_rand(rng, (5, 3), dtype), dtype=dtype)
    labels = np.array([0, 2, 1, 2, 0])
    blabels = (rng.random((5, 7)) > 0.5).astype(dtype)
    drop_rng_seed = 123
    seq = parameter(_rand(rng, (2, 4, 3), dtype), dtype=dtype)
    fw = [parameter(_rand(rng, shape, dtype), dtype=dtype) for shape in ((3, 6), (2, 6), (6,))]
    bw = [parameter(_rand(rng, shape, dtype), dtype=dtype) for shape in ((3, 6), (2, 6), (6,))]
    seq_mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=dtype)
    seq_probe = constant(_rand(rng, (2, 4, 4), dtype), dtype=dtype)
    att_w = [parameter(_rand(rng, shape, dtype), dtype=dtype)
             for shape in ((3, 1), (3, 1), (12, 3), (3,))]
    att_probe = constant(_rand(rng, (2, 4, 3), dtype), dtype=dtype)
    seq2 = parameter(_rand(rng, (2, 4, 2), dtype), dtype=dtype)
    fw2, bw2 = ([parameter(_rand(rng, shape, dtype), dtype=dtype)
                 for shape in ((5, 6), (2, 6), (6,))] for _ in range(2))
    # a (2, 4, 2) part that is the matrix product of (2, 4, 3) and (2, 3, 2)
    att = parameter(_rand(rng, (2, 4, 3), dtype), dtype=dtype)
    qry = parameter(_rand(rng, (2, 3, 2), dtype), dtype=dtype)
    gru2 = {f"{d}.{n}": t for d, ts in (("fw", fw2), ("bw", bw2))
            for n, t in zip(("w_x", "w_h", "b"), ts)}

    cases = {
        "matmul": (lambda: reduce_sum(ad.mul(matmul(x, w), probe)), {"x": x}),
        "add": (lambda: reduce_sum(ad.mul(ad.add(x, y), matmul(probe, transpose(w)))), {"x": x, "y": y}),
        "sub": (lambda: reduce_sum(ad.mul(sub(x, y), matmul(probe, transpose(w)))), {"x": x, "y": y}),
        "mul_broadcast": (lambda: reduce_sum(ad.mul(ad.mul(col, x), matmul(probe, transpose(w)))),
                          {"col": col, "x": x}),
        "sigmoid": (lambda: reduce_sum(ad.mul(sigmoid(x), matmul(probe, transpose(w)))), {"x": x}),
        "tanh": (lambda: reduce_sum(ad.mul(tanh(x), matmul(probe, transpose(w)))), {"x": x}),
        "relu": (lambda: reduce_sum(ad.mul(relu(x), matmul(probe, transpose(w)))), {"x": x}),
        "softmax": (lambda: reduce_sum(ad.mul(softmax(x, axis=1), matmul(probe, transpose(w)))), {"x": x}),
        "max_reduce": (lambda: reduce_sum(ad.mul(max_reduce(x, axis=1, keepdims=True), col)),
                       {"x": x}),
        "concat": (lambda: reduce_sum(ad.mul(concat([x, y], axis=1),
                                             concat([matmul(probe, transpose(w)), matmul(probe, transpose(w))], axis=1))),
                   {"x": x, "y": y}),
        "narrow": (lambda: reduce_sum(ad.mul(narrow(x, 1, 2, 3), probe)), {"x": x}),
        "reshape_transpose": (lambda: reduce_sum(ad.mul(transpose(reshape(x, (7, 5))),
                                                        matmul(probe, transpose(w)))), {"x": x}),
        "gather_rows": (lambda: reduce_sum(ad.mul(gather_rows(table, ids),
                                                  constant(_rand(np.random.default_rng(1), (4, 4), dtype), dtype=dtype))),
                        {"table": table}),
        "cross_entropy": (lambda: cross_entropy(x, labels, reduction="mean"), {"x": x}),
        "bce": (lambda: binary_cross_entropy(x, blabels, reduction="mean"), {"x": x}),
        "dropout": (lambda: reduce_sum(ad.mul(
            dropout(x, 0.3, training=True, rng=np.random.default_rng(drop_rng_seed)),
            matmul(probe, transpose(w)))), {"x": x}),
        "bigru": (lambda: reduce_sum(ad.mul(ad.bigru(seq, fw, bw, mask=seq_mask), seq_probe)),
                  {"seq": seq, **{f"{d}.{n}": t for d, ts in (("fw", fw), ("bw", bw))
                                  for n, t in zip(("w_x", "w_h", "b"), ts)}}),
        "bigru_parts": (lambda: reduce_sum(ad.mul(ad.bigru([seq, seq2], fw2, bw2, mask=seq_mask),
                                                  seq_probe)),
                        {"seq": seq, "seq2": seq2, **{f"{d}.{n}": t for d, ts in (("fw", fw2), ("bw", bw2))
                                                      for n, t in zip(("w_x", "w_h", "b"), ts)}}),
        "bigru_matprod": (lambda: reduce_sum(ad.mul(
            ad.bigru([seq, ad.MatProduct(att, qry)], fw2, bw2, mask=seq_mask), seq_probe)),
                          {"seq": seq, "att": att, "qry": qry, **gru2}),
        "bigru_matprod_dropped": (lambda: reduce_sum(ad.mul(ad.bigru(
            dropout([seq, ad.MatProduct(att, qry)], 0.3, training=True,
                    rng=np.random.default_rng(drop_rng_seed)), fw2, bw2, mask=seq_mask),
            seq_probe)), {"seq": seq, "att": att, "qry": qry, **gru2}),
        "self_attention": (lambda: reduce_sum(ad.mul(ad.self_attention(seq, *att_w, mask=seq_mask),
                                                     att_probe)),
                           {"seq": seq, **dict(zip(("w_h", "w_u", "proj_w"), att_w))}),
    }

    for name, (f, params) in cases.items():
        report = grad_check(f, params, rng=np.random.default_rng(9))
        assert report.worst_rel_err < TOL[dtype], \
            f"{name} [{np.dtype(dtype).name}]: rel err {report.worst_rel_err:.3e}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_two_consumer_dag_gradient_sums_paths(dtype):
    rng = np.random.default_rng(8)
    x = parameter(_rand(rng, (3, 3), dtype), dtype=dtype)
    a = constant(_rand(rng, (3, 3), dtype), dtype=dtype)

    def f():
        h = tanh(x)
        return ad.add(reduce_sum(ad.mul(h, a)), reduce_sum(matmul(h, h)))

    report = grad_check(f, {"x": x}, rng=np.random.default_rng(2))
    assert report.worst_rel_err < TOL[dtype]


def test_closed_form_quadratic():
    x = parameter([3.0], dtype=np.float64)
    report = grad_check(lambda: reduce_sum(ad.mul(x, x)), {"x": x}, eps=1e-4)
    assert report.worst_rel_err < 1e-6
    sample = report.params["x"].samples[0]
    assert sample.analytic == pytest.approx(6.0)


def test_linear_cross_entropy_chain_32bit():
    rng = np.random.default_rng(21)
    x = constant(rng.standard_normal((4, 3)).astype(np.float32))
    w = parameter(rng.standard_normal((3, 2)).astype(np.float32))
    b = parameter(np.zeros(2, dtype=np.float32))
    t = np.array([0, 1, 1, 0])

    def f():
        return cross_entropy(ad.add(matmul(x, w), b), t, reduction="mean")

    report = grad_check(f, {"w": w, "b": b}, rng=np.random.default_rng(3))
    assert report.worst_rel_err < 1e-3


def test_constant_function_reports_zero_everywhere():
    x = parameter([1.0, -2.0], dtype=np.float64)
    report = grad_check(lambda: reduce_sum(ad.mul(x, constant([0.0, 0.0], dtype=np.float64))),
                        {"x": x})
    for s in report.params["x"].samples:
        assert abs(s.analytic) < 1e-12 and abs(s.numeric) < 1e-9
    assert report.worst_rel_err < 1e-6


def test_grad_check_restores_parameters():
    x = parameter([1.5, -0.5], dtype=np.float64)
    before = x.data.copy()
    grad_check(lambda: reduce_sum(ad.mul(x, x)), {"x": x})
    assert np.array_equal(x.data, before)
