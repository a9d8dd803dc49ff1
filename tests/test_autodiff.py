import ast
import gc
import importlib.util
import inspect
import math
import multiprocessing
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopqa import autodiff as ad
from hopqa import kernels
from hopqa import pool as hp
from hopqa.autodiff import (
    DataError,
    LabelError,
    ShapeError,
    Tensor,
    UsageError,
    backward,
    binary_cross_entropy,
    concat,
    constant,
    cross_entropy,
    dropout,
    gather_rows,
    matmul,
    max_reduce,
    no_grad,
    parameter,
    reduce_sum,
    relu,
    reshape,
    softmax,
    tensor,
    transpose,
)
from hopqa.kernels import attention as ka, bigru as kb, highway as kh
from reference_ops import narrow, product, sigmoid, sub, tanh


def naive_matmul(a, b):
    # independent triple-loop oracle
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += float(a[i, l]) * float(b[l, j])
    return out


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    b = np.arange(6, dtype=np.float32).reshape(2, 3)
    out = matmul(constant(np.eye(2, dtype=np.float32)), constant(b))
    assert np.array_equal(out.data, b)


def test_matmul_hand_dot_product():
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    b = constant([[1.0], [1.0]])
    out = matmul(a, b)
    expected = naive_matmul(a.data, b.data)
    assert np.allclose(out.data, expected)
    assert out.data.tolist() == [[3.0], [7.0]]


def test_matmul_zero_annihilator():
    z = constant(np.zeros((3, 2), dtype=np.float32))
    b = constant(np.ones((2, 4), dtype=np.float32))
    assert not matmul(z, b).data.any()
    assert matmul(z, b).shape == (3, 4)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
        matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 4))))


def test_matmul_matches_triple_loop_on_random():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((7, 5)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        got = matmul(constant(a), constant(b)).data
        want = naive_matmul(a, b)
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-6)) < 1e-5


def test_matmul_batched_matches_per_slice():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3, 5)).astype(np.float32)
    w = rng.standard_normal((5, 2)).astype(np.float32)
    got = matmul(constant(a), constant(w)).data
    for i in range(4):
        assert np.allclose(got[i], a[i] @ w, atol=1e-6)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = softmax(constant([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_closed_form():
    # e^0 / (e^0 + e^{ln 3}) = 1/4
    out = softmax(constant([0.0, math.log(3.0)]), axis=0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-7)


def test_softmax_shift_invariance():
    x = np.array([0.3, -1.2, 2.0], dtype=np.float64)
    a = softmax(constant(x, dtype=np.float64), axis=0).data
    b = softmax(constant(x + 17.5, dtype=np.float64), axis=0).data
    assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_softmax_nonfinite_raises(bad):
    with pytest.raises(ad.NumericError):
        softmax(constant([0.0, bad]), axis=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
       st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_rows_are_distributions(row_a, row_b):
    n = min(len(row_a), len(row_b))
    x = constant(np.array([row_a[:n], row_b[:n]], dtype=np.float64), dtype=np.float64)
    out = softmax(x, axis=1).data
    assert np.all(out > 0) and np.all(out < 1.0 + 1e-12)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# max_reduce


def test_max_reduce_matches_scan():
    x = np.array([[1.0, 5.0], [3.0, 2.0]])
    row_wise = [max(row) for row in x]          # brute-force scan
    col_wise = [max(col) for col in x.T]
    assert max_reduce(constant(x), axis=1).data.tolist() == row_wise
    assert max_reduce(constant(x), axis=0).data.tolist() == col_wise


def test_max_reduce_tie_gradient_to_first_index():
    x = parameter([[2.0, 2.0, 2.0]])
    out = reduce_sum(max_reduce(x, axis=1))
    backward(out)
    assert x.grad.tolist() == [[1.0, 0.0, 0.0]]


def test_max_reduce_single_element_axis_is_identity():
    x = constant([[4.0], [7.0]])
    assert max_reduce(x, axis=1).data.tolist() == [4.0, 7.0]


# ---------------------------------------------------------------------------
# elementwise


def test_mul_by_ones_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4)).astype(np.float32)
    out = ad.mul(constant(x), constant(np.ones_like(x)))
    assert np.array_equal(out.data, x)


def test_sigmoid_tanh_at_zero():
    assert sigmoid(constant([0.0])).data[0] == pytest.approx(0.5)
    assert tanh(constant([0.0])).data[0] == 0.0


def test_relu_clamps_negatives():
    out = relu(constant([-2.0, 0.0, 3.0]))
    assert out.data.tolist() == [0.0, 0.0, 3.0]


def test_broadcast_row_scaling_matches_loop():
    rng = np.random.default_rng(1)
    col = rng.standard_normal((5, 1)).astype(np.float32)
    x = rng.standard_normal((5, 6)).astype(np.float32)
    got = ad.mul(constant(col), constant(x)).data
    want = np.empty_like(x)
    for t in range(5):          # loop oracle
        for j in range(6):
            want[t, j] = col[t, 0] * x[t, j]
    assert np.allclose(got, want)


def test_incompatible_broadcast_rejected():
    with pytest.raises(ShapeError):
        ad.add(constant(np.zeros((3, 2))), constant(np.zeros((3, 4))))
    with pytest.raises(ShapeError):
        ad.mul(constant(np.zeros((2, 3))), constant(np.zeros((4, 3))))


# ---------------------------------------------------------------------------
# concat / narrow / reshape / transpose


def test_concat_three_parts_width():
    t, two_d = 4, 6
    parts = [constant(np.full((t, two_d), float(i))) for i in range(3)]
    out = concat(parts, axis=-1)
    assert out.shape == (t, 3 * two_d)


def test_concat_single_part_identity():
    x = constant(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(concat([x], axis=0).data, x.data)


def test_concat_round_trips_through_narrow():
    a = constant(np.arange(6.0).reshape(2, 3))
    b = constant(np.arange(6.0, 14.0).reshape(2, 4))
    cat = concat([a, b], axis=1)
    assert np.array_equal(narrow(cat, 1, 0, 3).data, a.data)
    assert np.array_equal(narrow(cat, 1, 3, 4).data, b.data)


def test_concat_mismatch_raises():
    with pytest.raises(ShapeError):
        concat([constant(np.zeros((2, 3))), constant(np.zeros((3, 3)))], axis=1)


def test_transpose_reshape_round_trip():
    x = np.arange(24.0).reshape(2, 3, 4)
    t = transpose(constant(x))
    assert t.shape == (2, 4, 3)
    assert np.array_equal(t.data, np.swapaxes(x, -1, -2))
    r = reshape(constant(x), (6, 4))
    assert np.array_equal(r.data, x.reshape(6, 4))


def test_gather_rows_and_pad_guard():
    table = parameter(np.arange(12.0).reshape(4, 3))
    ids = np.array([[1, 0], [3, 1]])
    out = gather_rows(table, ids, pad_guard=True)
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out.data[0, 0], table.data[1])
    backward(reduce_sum(out))
    assert not table.grad[0].any()          # pad row receives no gradient
    assert np.array_equal(table.grad[1], [2.0, 2.0, 2.0])  # used twice
    with pytest.raises(DataError):
        gather_rows(table, np.array([4]))


@pytest.mark.parametrize("pad_guard", [False, True])
@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_gather_rows_backward_matches_add_at(dtype, rtol, pad_guard):
    rng = np.random.default_rng(5)
    table = parameter(rng.standard_normal((300, 4)), dtype=dtype)
    ids = rng.integers(0, 40, size=(6, 50, 3))        # rows 0-39 repeat, 40-299 untouched
    ids[0, 0] = 0
    g = rng.standard_normal(ids.shape + (4,)).astype(dtype)
    gather_rows(table, ids, pad_guard=pad_guard)._backward(g)
    ref = np.zeros_like(table.data)
    np.add.at(ref, ids, g)
    if pad_guard:
        ref[0] = 0.0
    assert table.grad.dtype == dtype
    assert not table.grad[40:].any()
    assert np.allclose(table.grad, ref, rtol=rtol, atol=rtol)
    assert np.array_equal(table.grad[0] == 0, np.full(4, pad_guard))
    table.grad = None
    gather_rows(table, np.zeros((2, 0), dtype=np.int64))._backward(np.zeros((2, 0, 4), dtype))
    assert table.grad.shape == table.shape and not table.grad.any()


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_two_way():
    loss = cross_entropy(constant([[0.0, 0.0]]), [0], reduction="sum")
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-6)


def test_cross_entropy_vanishes_with_margin():
    prev = float("inf")
    for margin in (2.0, 6.0, 20.0):
        loss = cross_entropy(constant([[margin, 0.0]]), [0], reduction="sum").item()
        assert loss < prev
        prev = loss
    assert prev < 1e-8


def test_cross_entropy_reductions():
    logits = constant([[2.0, -1.0, 0.5], [0.0, 3.0, -2.0]])
    l0 = cross_entropy(narrow(logits, 0, 0, 1), [1], reduction="sum").item()
    l1 = cross_entropy(narrow(logits, 0, 1, 1), [0], reduction="sum").item()
    both_sum = cross_entropy(logits, [1, 0], reduction="sum").item()
    both_mean = cross_entropy(logits, [1, 0], reduction="mean").item()
    assert both_sum == pytest.approx(l0 + l1, rel=1e-6)
    assert both_mean == pytest.approx((l0 + l1) / 2.0, rel=1e-6)


def test_cross_entropy_mask_drops_rows():
    logits = constant([[1.0, 2.0], [5.0, -1.0]])
    masked = cross_entropy(logits, [0, -1], reduction="sum", mask=[1.0, 0.0]).item()
    only_first = cross_entropy(narrow(logits, 0, 0, 1), [0], reduction="sum").item()
    assert masked == pytest.approx(only_first, rel=1e-6)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(LabelError):
        cross_entropy(constant([[0.0, 0.0]]), [2])


def test_cross_entropy_rejects_non_integer_targets():
    # cast, [0.5, 2.9] would silently score as classes [0, 2]
    with pytest.raises(LabelError, match="targets must be integers"):
        cross_entropy(constant([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]]), [0.5, 2.9])


def test_binary_cross_entropy_closed_form():
    # -log(sigmoid(0)) = ln 2 at label 1
    loss = binary_cross_entropy(constant([[0.0]]), [[1.0]], reduction="sum")
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-6)
    # masked entries contribute zero
    loss2 = binary_cross_entropy(constant([[0.0, 100.0]]), [[1.0, 0.0]],
                                 reduction="mean", mask=[[1.0, 0.0]])
    assert loss2.item() == pytest.approx(math.log(2.0), abs=1e-6)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_and_eval_identity():
    x = tensor([[1.0, 2.0]])
    assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x
    assert dropout(x, 0.2, training=False) is x


def test_dropout_expectation():
    rng = np.random.default_rng(11)
    x = constant(np.full((200, 200), 3.0))
    draws = dropout(x, 0.2, training=True, rng=rng).data
    # E[out] == x; Monte Carlo tolerance for 40k samples
    assert abs(draws.mean() - 3.0) < 0.05
    surviving = draws[draws != 0]
    assert np.allclose(surviving, 3.0 / 0.8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.2, 0.3])
def test_dropout_bit_identical_to_scaled_float_mask(rate, dtype):
    # the former formula: a float keep mask divided by (1 - rate)
    rng = np.random.default_rng(5)
    data = rng.standard_normal((6, 7)).astype(dtype)
    data[0, :3] = [-0.0, 0.0, -1e-30]
    x = Tensor(data, requires_grad=True)
    out = dropout(x, rate, training=True, rng=np.random.default_rng(8))
    keep = (np.random.default_rng(8).random(data.shape) >= rate).astype(dtype) / (1.0 - rate)
    want = data * keep
    assert out.data.dtype == dtype
    assert np.array_equal(out.data, want)
    assert np.array_equal(np.signbit(out.data), np.signbit(want))
    g = rng.standard_normal(data.shape).astype(dtype)
    g[1, :2] = -0.0
    backward(reduce_sum(ad.mul(out, Tensor(g))))
    assert np.array_equal(x.grad, g * keep)
    assert np.array_equal(np.signbit(x.grad), np.signbit(g * keep))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_parts_equal_slices_of_dropout_on_their_join(dtype):
    rng = np.random.default_rng(9)
    widths = (3, 1, 4)
    parts = [Tensor(rng.standard_normal((2, 5, w)).astype(dtype), requires_grad=True)
             for w in widths]
    g = rng.standard_normal((2, 5, sum(widths))).astype(dtype)

    def run(drop):
        for p in parts:
            p.grad = None
        outs = [product(o) for o in drop(np.random.default_rng(4))]
        backward(reduce_sum(ad.mul(concat(outs, axis=-1), Tensor(g))))
        return [o.data for o in outs], [p.grad for p in parts]

    outs, grads = run(lambda r: dropout(parts, 0.3, training=True, rng=r))
    joined, ref_grads = run(lambda r: [dropout(concat(parts, axis=-1), 0.3, True, r)])
    cuts = np.cumsum(widths)[:-1]
    assert len(outs) == len(parts)
    for out, want in zip(outs, np.split(joined[0], cuts, axis=-1)):
        assert out.dtype == dtype and np.array_equal(out, want)
    for grad, want in zip(grads, ref_grads):
        assert np.array_equal(grad, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_parts_are_their_factors_with_the_joined_mask_and_the_scale(dtype):
    # each part keeps its factors and gains its columns of the mask drawn at
    # the joined shape, one sequence at a time, and the scale; the leading
    # axes are (2, 3), so the sequences are drawn in C order over both
    rng = np.random.default_rng(10)
    data = lambda *shape: constant(rng.standard_normal(shape).astype(dtype), dtype=dtype)
    w, h, c = data(2, 3, 5, 1), data(2, 3, 5, 4), data(2, 3, 5, 2)
    parts = [h, (w, h, h), c]
    dropped = dropout(parts, 0.3, training=True, rng=np.random.default_rng(4))
    keep = np.random.default_rng(4).random((2, 3, 5, 10)) >= 0.3
    for part, cols, out in zip(parts, np.split(keep, [4, 8], axis=-1), dropped):
        factors = (part,) if isinstance(part, Tensor) else part
        assert len(out) == len(factors) + 2
        assert all(a is b for a, b in zip(out, factors))
        assert out[-2].dtype == np.bool_ and np.array_equal(out[-2].data, cols)
        assert out[-1].shape == () and out[-1].dtype == dtype
        assert out[-1].data == dtype(1) / dtype(0.7)
        assert not out[-2].requires_grad and not out[-1].requires_grad


def test_dropout_parts_eval_identity_and_bad_parts():
    parts = [tensor([[1.0, 2.0]]), tensor([[3.0]])]
    kept = dropout(parts, 0.2, training=False)
    assert len(kept) == 2 and all(a is b for a, b in zip(kept, parts))
    with pytest.raises(ShapeError):
        dropout([tensor([[1.0]]), tensor([[1.0], [2.0]])], 0.2, True, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        dropout([], 0.2, training=True, rng=np.random.default_rng(0))


def test_dropout_bad_rate():
    with pytest.raises(UsageError):
        dropout(tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# backward


def test_backward_quadratic():
    x = parameter([3.0])
    backward(reduce_sum(ad.mul(x, x)))
    assert x.grad.tolist() == [6.0]


def test_backward_softmax_sum_is_conserved():
    x = parameter([0.4, -1.0, 2.2])
    backward(reduce_sum(softmax(x, axis=0)))
    assert np.allclose(x.grad, 0.0, atol=1e-7)


def test_backward_shared_subexpression_doubles():
    # y used by two consumers: d/dx of (sum(y*a) + sum(y*b)) via FD oracle
    rng = np.random.default_rng(5)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    x0 = rng.standard_normal(4)

    def f(xv):
        y = np.tanh(xv)
        return float((y * a).sum() + (y * b).sum())

    x = parameter(x0, dtype=np.float64)
    y = tanh(x)
    loss = ad.add(reduce_sum(ad.mul(y, constant(a, dtype=np.float64))),
                  reduce_sum(ad.mul(y, constant(b, dtype=np.float64))))
    backward(loss)
    eps = 1e-6
    for i in range(4):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (f(xp) - f(xm)) / (2 * eps)
        assert x.grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_backward_requires_scalar():
    x = parameter([[1.0, 2.0]])
    with pytest.raises(UsageError):
        backward(ad.mul(x, x))


def test_item_reads_only_a_tensor_of_one_entry():
    assert Tensor(np.array([[2.5]])).item() == 2.5
    for shape in ((3,), (0,), (1, 2)):
        with pytest.raises(UsageError, match="one entry"):
            Tensor(np.zeros(shape)).item()


def test_no_grad_builds_no_graph():
    x = parameter([1.0, 2.0])
    with no_grad():
        y = ad.mul(x, x)
    assert y._backward is None and not y.requires_grad


_RNG = np.random.default_rng(5)
_A, _B = _RNG.standard_normal((2, 3, 4))
_W = _RNG.standard_normal((4, 2))
_SEQ = _RNG.standard_normal((2, 3, 4))
_SEQ_MASK = np.array([[1, 1, 0], [1, 1, 1]])
_GATES = [_RNG.standard_normal(s) for s in ((4, 6), (2, 6), (6,))]
_HIGHWAY = [_RNG.standard_normal(s) for s in ((4, 4), (4,), (4, 4), (4,))]
_SELF_ATT = [_RNG.standard_normal(s) for s in ((4, 1), (4, 1), (16, 4), (4,))]

# each op, its float inputs made into tensors by ``leaf``
_OPS = {
    "add": lambda leaf: ad.add(leaf(_A), leaf(_B)),
    "sub": lambda leaf: sub(leaf(_A), leaf(_B)),
    "mul": lambda leaf: ad.mul(leaf(_A), leaf(_B)),
    "sigmoid": lambda leaf: sigmoid(leaf(_A)),
    "tanh": lambda leaf: tanh(leaf(_A)),
    "relu": lambda leaf: relu(leaf(_A)),
    "matmul": lambda leaf: matmul(leaf(_A), leaf(_W)),
    "transpose": lambda leaf: transpose(leaf(_A)),
    "reshape": lambda leaf: reshape(leaf(_A), (4, 3)),
    "concat": lambda leaf: concat([leaf(_A), leaf(_B)], axis=0),
    "narrow": lambda leaf: narrow(leaf(_A), 1, 1, 2),
    "gather_rows": lambda leaf: gather_rows(leaf(_A), np.array([[2, 0], [1, 2]])),
    "softmax": lambda leaf: softmax(leaf(_A), axis=1),
    "max_reduce": lambda leaf: max_reduce(leaf(_A), axis=0),
    "reduce_sum": lambda leaf: reduce_sum(leaf(_A)),
    "reduce_sum_axis": lambda leaf: reduce_sum(leaf(_A), axis=1, keepdims=True),
    "cross_entropy": lambda leaf: cross_entropy(leaf(_A), [3, 0, 1]),
    "binary_cross_entropy": lambda leaf: binary_cross_entropy(leaf(_A), _B > 0),
    "dropout": lambda leaf: dropout(leaf(_A), 0.5, True, np.random.default_rng(0)),
    "highway": lambda leaf: kh.highway(leaf(_A), [[leaf(w) for w in _HIGHWAY]]),
    "bigru": lambda leaf: kb.bigru(leaf(_SEQ), [leaf(w) for w in _GATES],
                                   [leaf(w) for w in _GATES], mask=_SEQ_MASK),
    "self_attention": lambda leaf: ka.self_attention(leaf(_SEQ), *map(leaf, _SELF_ATT),
                                                     mask=_SEQ_MASK),
}


@pytest.mark.parametrize("op", sorted(_OPS))
def test_untracked_outputs_are_constants_with_the_tracked_data(op):
    tracked = _OPS[op](parameter)
    assert tracked.requires_grad and tracked._backward is not None
    with no_grad():
        untracked = _OPS[op](parameter)
    for out in (untracked, _OPS[op](constant)):
        assert out._backward is None and not out.requires_grad
        assert np.array_equal(out.data, tracked.data)


# the graph core and the fused kernels, whose sources the boundary tests read
_CORE_AND_KERNELS = (ad, kernels, ka, kb, kh)
# all that a kernel takes from the core
_CORE_FOR_KERNELS = {"Tensor", "MatProduct", "Factor", "ShapeError", "DataError",
                     "NumericError", "_make", "_accum", "_tracking", "_factors", "_leaves",
                     "_part_shape", "_stable_sigmoid"}


def _top_functions(modules) -> list[ast.FunctionDef]:
    return [top for m in modules for top in ast.parse(inspect.getsource(m)).body
            if isinstance(top, ast.FunctionDef)]


def test_grad_mode_is_decided_only_in_make():
    # every op hands its output to _make; highway and bigru also ask, to
    # decide what to keep for their backward
    callers: dict[str, set[str]] = {"_tracking": set(), "Tensor": set()}
    for top in _top_functions(_CORE_AND_KERNELS):
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in callers:
                callers[node.func.id].add(top.name)
    assert callers == {"_tracking": {"_make", "highway", "bigru"},
                       "Tensor": {"tensor", "_as_tensor", "_make"}}


def _relative_imports(tree: ast.Module, package: str) -> list[tuple[str, ast.alias]]:
    """(module, alias) of every name that a module of ``package`` imports
    with a relative ``from`` import, the module resolved to its dotted name."""
    return [(importlib.util.resolve_name("." * node.level + (node.module or ""), package), a)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
            for a in node.names]


def _names_taken(tree: ast.Module, package: str, sources: set[str]) -> set[str]:
    """The names a module of ``package`` takes from the modules ``sources``:
    imported from one, or read as attributes of one it imports whole."""
    aliases, names = set(), set()
    for module, a in _relative_imports(tree, package):
        if f"{module}.{a.name}" in sources:
            aliases.add(a.asname or a.name)
        elif module in sources:
            names.add(a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            names.add(node.attr)
    return names


def test_every_op_in_the_core_is_used_by_the_package():
    # an op is a public function that makes a node with _make, itself or
    # through private helpers (dropout through _drop), in the core or a
    # kernel; ops only tests use belong in tests/reference_ops.py
    calls = {top.name: {n.func.id for n in ast.walk(top)
                        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
             for top in _top_functions(_CORE_AND_KERNELS)}

    def makes(name: str, seen: frozenset) -> bool:
        return "_make" in calls[name] or any(
            c.startswith("_") and c in calls and c not in seen and makes(c, seen | {c})
            for c in calls[name])

    ops = {name for name in calls if not name.startswith("_") and makes(name, frozenset())}
    assert {"add", "dropout", "bigru", "self_attention"} <= ops
    used: set[str] = set()
    root = Path(ad.__file__).parent
    for path in root.rglob("*.py"):
        package = ".".join(("hopqa", *path.relative_to(root).parent.parts))
        used |= _names_taken(ast.parse(path.read_text(encoding="utf-8")), package,
                             {m.__name__ for m in _CORE_AND_KERNELS})
    assert sorted(ops - used) == []


def test_kernels_and_the_core_keep_their_boundary():
    # a kernel takes a short list of names from the core, the pool, and the
    # shared helpers of kernels/__init__; no kernel imports another
    kernel_modules = {m.__name__ for m in (ka, kb, kh)}
    taken: set[str] = set()
    for m in (ka, kb, kh):
        for module, a in _relative_imports(ast.parse(inspect.getsource(m)), m.__package__):
            if module == "hopqa.autodiff":
                taken.add(a.name)
            else:
                assert (module, a.name) == ("hopqa", "pool") or (
                    module == "hopqa.kernels" and hasattr(kernels, a.name)
                    and f"{module}.{a.name}" not in kernel_modules), (m.__name__, module, a.name)
    assert taken == _CORE_FOR_KERNELS
    assert not _relative_imports(ast.parse(inspect.getsource(kernels)), "hopqa.kernels")
    # the core imports no kernel, names none and leaves their tasks to them
    core = ast.parse(inspect.getsource(ad))
    assert [(module, a.name) for module, a in _relative_imports(core, "hopqa")] == [
        ("hopqa", "pool")]
    kernel_names = {"kernels", *(top.name for top in _top_functions((kernels, ka, kb, kh)))}
    named = {n.id for n in ast.walk(core) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(core) if isinstance(n, ast.Attribute)}
    assert not named & (kernel_names | {"BIGRU_CHUNK", "ATTENTION_BLOCK"})
    (sweep,) = [top for top in core.body if isinstance(top, ast.FunctionDef)
                and top.name == "backward"]
    assert not [n for n in ast.walk(sweep) if isinstance(n, ast.Try) and n.finalbody]


def test_no_grad_holds_in_its_own_thread_only():
    inside, release = threading.Event(), threading.Event()

    def hold():
        with no_grad():
            inside.set()
            release.wait(10)

    thread = threading.Thread(target=hold)
    thread.start()
    try:
        assert inside.wait(10)
        x = parameter([1.0, 2.0])
        assert ad.mul(x, x).requires_grad
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert ad.mul(x, x).requires_grad


def _pooled_bigru() -> np.ndarray:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, kb.BIGRU_CHUNK + 3, 3))
    cell = lambda: [constant(rng.standard_normal(s)) for s in ((3, 6), (2, 6), (6,))]
    return kb.bigru(constant(x), cell(), cell()).data


def test_worker_pool_is_remade_in_a_forked_child():
    # the parent's pool has started; a forked child has none of its threads
    want = _pooled_bigru()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(_pooled_bigru()))
    child.start()
    try:
        assert recv.poll(60)
        assert np.array_equal(recv.recv(), want)
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_bigru_forward_keeps_no_input_alive_once_it_returns():
    rng = np.random.default_rng(0)
    t_len = 2 * kb.BIGRU_CHUNK + 5      # three chunks, two projected ahead
    parts = [Tensor(rng.standard_normal((2, t_len, 3)).astype(np.float32)) for _ in range(2)]
    cell = lambda: [constant(rng.standard_normal(s)) for s in ((6, 6), (2, 6), (6,))]
    refs = [weakref.ref(p.data) for p in parts]
    out = kb.bigru(parts, cell(), cell())
    del parts
    gc.collect()
    assert out.shape == (2, t_len, 4)
    assert [r() for r in refs] == [None, None]


def test_backward_twice_gives_same_leaf_grads():
    # l = sum((x@w)^2) with x = [1, 2], w = [1, 1]: x@w = 3, dl/dw = 2*3*x = [6, 12]
    x = constant([[1.0, 2.0]])
    w = parameter([[1.0], [1.0]])
    y = matmul(x, w)
    loss = reduce_sum(ad.mul(y, y))
    backward(loss)
    assert w.grad.ravel().tolist() == [6.0, 12.0]
    w.grad = None
    backward(loss)
    assert w.grad.ravel().tolist() == [6.0, 12.0]


def test_backward_frees_interior_grads():
    x = parameter([[1.0, 2.0]])
    w = parameter([[1.0], [1.0]])
    y = matmul(x, w)
    h = tanh(y)
    loss = reduce_sum(ad.mul(h, y))
    backward(loss)
    assert all(t.grad is None for t in (y, h, loss))
    assert x.grad is not None and w.grad is not None


# ---------------------------------------------------------------------------
# pending gradient contributions


def _chain(x: Tensor, contributions) -> tuple[Tensor, dict]:
    """Nodes n_1 ... n_k, n_i reading x and n_{i-1}, so the sweep runs n_k's
    closure first; the closure that runs i-th gives x ``contributions[i]``.
    Each entry is ``(value, mode)``: mode "now" hands over a fresh array,
    "task" an array that a pool task fills once the next closure has run,
    "done" one that a pool task fills at once, and "raise" raises in the
    closure. Returns the last node and the buffers the tasks filled."""
    gates = [threading.Event() for _ in contributions]
    buffers = {}

    def fill(buf, value, gate):
        assert gate.wait(10)
        buf[...] = value
        return buf

    def op(prev, i):
        value, mode = contributions[i]

        def bwd(g):
            if mode == "raise":
                raise UsageError(f"closure {i}")
            if mode == "now":
                ad._accum(x, np.full(x.shape, value, dtype=x.dtype))
            else:
                buffers[i] = buf = np.empty(x.shape, dtype=x.dtype)
                if mode == "done":
                    gates[i].set()
                ad._accum(x, buf, hp.submit(fill, buf, value, gates[i]))
            if i:
                gates[i - 1].set()          # the closures before i have run
            if prev is not None:
                ad._accum(prev, g)

        parents = (x,) if prev is None else (x, prev)
        return ad._make(np.zeros((), dtype=x.dtype), parents, bwd)

    node = None
    for i in reversed(range(len(contributions))):
        node = op(node, i)
    gates[-1].set()
    return node, buffers


@pytest.mark.parametrize("modes", [("now", "now", "now"), ("now", "task", "now"),
                                   ("task", "now", "now"), ("task", "task", "task"),
                                   ("now", "now", "done")])
def test_backward_sums_pending_contributions_in_arrival_order(modes):
    # in float32, (1e8 + 1) - 1e8 = 0 but (1e8 - 1e8) + 1 = 1; a task held
    # until a later contribution has arrived must still be summed in its place
    values = np.float32([1e8, 1.0, -1e8])
    assert (values[0] + values[1]) + values[2] == 0.0
    assert (values[0] + values[2]) + values[1] == 1.0
    x = parameter(np.zeros(3, dtype=np.float32))
    loss, buffers = _chain(x, list(zip(values, modes)))
    backward(loss)
    assert type(x.grad) is np.ndarray and x.grad.dtype == np.float32
    assert np.array_equal(x.grad, np.zeros(3, dtype=np.float32))
    for i, buf in buffers.items():      # no sum is written into a task's buffer
        assert np.array_equal(buf, np.full(3, values[i], dtype=np.float32))


def test_backward_adds_to_an_existing_grad_without_writing_into_it():
    x = parameter(np.zeros(3, dtype=np.float32))
    before = np.full(3, 1e8, dtype=np.float32)
    x.grad = before
    loss, _ = _chain(x, [(np.float32(1.0), "task"), (np.float32(-1e8), "now")])
    backward(loss)
    assert np.array_equal(x.grad, np.zeros(3, dtype=np.float32))
    assert np.array_equal(before, np.full(3, 1e8, dtype=np.float32))


@pytest.mark.parametrize("n_terms", [1, 3])
def test_backward_gives_a_0d_leaf_an_array_grad(n_terms):
    # numpy gives a scalar for a product or sum of 0-d arrays
    x = parameter(np.float32(2.0))
    loss = ad.mul(x, constant(np.float32(3.0))) if n_terms == 1 else ad.add(ad.mul(x, x), x)
    backward(loss)
    assert type(x.grad) is np.ndarray and x.grad.dtype == np.float32
    assert x.grad == np.float32(3.0 if n_terms == 1 else 5.0)


def test_backward_never_writes_into_arrays_closures_hand_over():
    # one array handed to the same leaf by three closures, as add's backward
    # hands g to both operands
    x = parameter(np.zeros(3, dtype=np.float32))
    shared = np.float32([1.0, 2.0, 3.0])

    def node(prev):
        def bwd(g):
            ad._accum(x, shared)
            if prev is not None:
                ad._accum(prev, g)

        return ad._make(np.zeros((), dtype=np.float32), (x,) if prev is None else (x, prev), bwd)

    backward(node(node(node(None))))
    assert np.array_equal(shared, [1.0, 2.0, 3.0])
    assert np.array_equal(x.grad, 3 * shared)


def _wait_for(event: threading.Event):
    def task(buf):
        time.sleep(0.05)
        event.set()
        return buf

    return task


def test_backward_raises_a_task_error_after_every_task_has_finished():
    x = parameter(np.zeros(2))
    y = parameter(np.zeros(2))
    done = threading.Event()

    def fail(buf):
        raise ad.NumericError("task failed")

    def bwd(g):
        failed, slow = np.empty(2), np.empty(2)
        ad._accum(x, failed, hp.submit(fail, failed))
        ad._accum(y, slow, hp.submit(_wait_for(done), slow))

    # the sweep resolves x, whose task failed, before y, whose task still runs
    with pytest.raises(ad.NumericError, match="task failed"):
        backward(ad._make(np.zeros(()), (y, x), bwd))
    assert done.is_set()
    assert not isinstance(x.grad, ad._Sum) and not isinstance(y.grad, ad._Sum)
    ran = []
    hp.join([hp.submit(ran.append, 7)])
    assert ran == [7]


def test_backward_raises_a_closure_error_after_every_task_has_finished():
    x = parameter(np.zeros(2, dtype=np.float32))
    done = threading.Event()

    def first(g):
        buf = np.empty(2, dtype=np.float32)
        ad._accum(x, buf, hp.submit(_wait_for(done), buf))
        ad._accum(inner, g)

    inner, _ = _chain(x, [(np.float32(1.0), "raise")])
    outer = ad._make(np.zeros((), dtype=np.float32), (x, inner), first)
    with pytest.raises(UsageError, match="closure 0"):
        backward(outer)
    assert done.is_set()
    assert not isinstance(x.grad, ad._Sum)
    x.grad = None
    loss, _ = _chain(x, [(np.float32(2.0), "task"), (np.float32(3.0), "now")])
    backward(loss)
    assert np.array_equal(x.grad, [5.0, 5.0])


def test_bigru_backward_leaves_no_task_behind_when_one_direction_needs_no_w_h(monkeypatch):
    # the zero-worker pool runs a task only when someone waits for it: a
    # dW_h task that nothing waits for would stay queued, holding the states
    monkeypatch.setattr(hp, "_pool", hp._Pool(0))
    monkeypatch.setattr(hp, "_size", 1)
    rng = np.random.default_rng(11)
    x = parameter(rng.standard_normal((2, kb.BIGRU_CHUNK + 3, 3)))
    fw = [parameter(rng.standard_normal(s)) for s in ((3, 6), (2, 6), (6,))]
    bw = [parameter(rng.standard_normal((3, 6))), constant(rng.standard_normal((2, 6))),
          parameter(rng.standard_normal(6))]
    backward(reduce_sum(kb.bigru(x, fw, bw)))
    assert not hp._pool._queue
    assert fw[1].grad is not None and bw[1].grad is None and bw[0].grad is not None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bigru_partly_frozen_weights_give_the_trainable_ones_bits(monkeypatch, dtype):
    # the forward direction's w_h and the backward one's w_x and b need no
    # gradient: every other gradient keeps the all-trainable run's bits, and
    # no task is left queued on the zero-worker pool
    monkeypatch.setattr(hp, "_pool", hp._Pool(0))
    monkeypatch.setattr(hp, "_size", 1)
    rng = np.random.default_rng(12)
    n, t_len, hid = 2, kb.BIGRU_CHUNK + 5, 2
    draw = lambda *shape: rng.standard_normal(shape).astype(dtype) * 0.5
    x, w, a, q = (parameter(v, dtype=dtype) for v in (draw(n, t_len, 3), draw(n, t_len, 1),
                                                      draw(n, t_len, 4), draw(n, 4, 3)))
    parts = [x, (w, x), ad.MatProduct(a, q)]
    cells = [[draw(9, 3 * hid), draw(hid, 3 * hid), draw(3 * hid)] for _ in range(2)]
    mask = np.ones((n, t_len), dtype=dtype)
    mask[1, t_len - 7:] = 0.0
    probe = constant(draw(n, t_len, 2 * hid), dtype=dtype)
    frozen = {(0, 1), (1, 0), (1, 2)}

    def run(frozen):
        weights = [[(constant if (d, i) in frozen else parameter)(v, dtype=dtype)
                    for i, v in enumerate(c)] for d, c in enumerate(cells)]
        for t in (x, w, a, q):
            t.grad = None
        backward(reduce_sum(ad.mul(kb.bigru(parts, *weights, mask=mask), probe)))
        assert not hp._pool._queue
        return [t.grad for t in (x, w, a, q)], weights

    inputs, weights = run(set())
    frozen_inputs, frozen_weights = run(frozen)
    for g, ref in zip(frozen_inputs, inputs):
        assert g.dtype == dtype and np.array_equal(g, ref)
    for d in (0, 1):
        for i in range(3):
            t, ref = frozen_weights[d][i], weights[d][i]
            if (d, i) in frozen:
                assert t.grad is None
            else:
                assert np.array_equal(t.grad, ref.grad)


def test_bigru_backward_with_frozen_w_x_and_b_leaves_no_task_queued(monkeypatch):
    # nothing but _accum, which drops their contributions, sees the dw_x
    # and bias tasks of a BiGRU whose w_x and b need no gradient
    monkeypatch.setattr(hp, "_pool", hp._Pool(0))
    monkeypatch.setattr(hp, "_size", 1)
    rng = np.random.default_rng(14)
    x = parameter(rng.standard_normal((2, kb.BIGRU_CHUNK + 3, 3)))
    cell = lambda: [constant(rng.standard_normal((3, 6))), parameter(rng.standard_normal((2, 6))),
                    constant(rng.standard_normal(6))]
    backward(reduce_sum(kb.bigru(x, cell(), cell())))
    assert not hp._pool._queue
    assert x.grad is not None


def test_bigru_backward_that_raises_leaves_no_task_queued(monkeypatch):
    # the zero-worker pool runs a task only when someone waits for it: a
    # task that the closure queued but never handed over would stay queued
    monkeypatch.setattr(hp, "_pool", hp._Pool(0))
    monkeypatch.setattr(hp, "_size", 1)

    def accum(t, g, *tasks):
        if tasks:
            raise UsageError("no hand-over")
        ad._accum(t, g)

    monkeypatch.setattr(kb, "_accum", accum)
    rng = np.random.default_rng(13)
    x = parameter(rng.standard_normal((2, kb.BIGRU_CHUNK + 3, 3)))
    cell = lambda: [parameter(rng.standard_normal(s)) for s in ((6, 6), (2, 6), (6,))]
    with pytest.raises(UsageError, match="no hand-over"):
        backward(reduce_sum(kb.bigru([x, (x, x)], cell(), cell())))
    assert not hp._pool._queue


def _bigru_with_parts_loss(rng):
    # two BiGRUs over the same two parts, past one chunk, and the second
    # also over the first's output
    t_len, d_in, hid = kb.BIGRU_CHUNK + 9, 3, 2
    parts = [parameter(rng.standard_normal((2, t_len, d_in))) for _ in range(2)]
    cell = lambda d: [parameter(rng.standard_normal(s)) for s in ((d, 3 * hid), (hid, 3 * hid),
                                                                  (3 * hid,))]
    mask = np.ones((2, t_len))
    mask[1, t_len - 5:] = 0.0
    first = kb.bigru(parts, cell(2 * d_in), cell(2 * d_in), mask=mask)
    second = kb.bigru([*parts, first], cell(2 * d_in + 2 * hid), cell(2 * d_in + 2 * hid),
                      mask=mask)
    probe = constant(rng.standard_normal(second.shape))
    loss = reduce_sum(ad.mul(ad.add(second, first), probe))
    leaves = [t for t in ad._toposort(loss) if t._backward is None]
    return loss, leaves


def test_bigru_backward_twice_and_inline_give_the_same_leaf_grads(monkeypatch):
    loss, leaves = _bigru_with_parts_loss(np.random.default_rng(3))
    assert len(leaves) == 14

    def grads():
        ad.zero_grads(leaves)
        backward(loss)
        assert all(type(t.grad) is np.ndarray for t in leaves)
        return [t.grad.copy() for t in leaves]

    pooled = grads()
    again = grads()
    # the one-CPU pool: the thread that waits for a task runs it
    monkeypatch.setattr(hp, "_pool", hp._Pool(0))
    monkeypatch.setattr(hp, "_size", 1)
    inline = grads()
    for a, b, c in zip(pooled, again, inline):
        assert np.array_equal(a, b) and np.array_equal(a, c)
