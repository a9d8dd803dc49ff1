import math

import numpy as np
import pytest

from hopqa.autodiff import DTypeError, NumericError, ShapeError, Tensor, parameter
from hopqa.optim import Adam, AdaDelta, EmaWeights, clip_global_norm, make_optimizer
from hopqa.serialization import load_tensors, save_tensors


def _param(values):
    return parameter(np.asarray(values, dtype=np.float32))


# ---------------------------------------------------------------------------
# adam


def test_adam_first_step_magnitude_is_lr():
    # bias-corrected first step: m_hat = g, v_hat = g^2, so the update is
    # lr * g / (|g| + eps) ~ lr * sign(g)
    for g in (0.5, -3.0, 10.0):
        p = _param([1.0])
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.array([g], dtype=np.float32)
        opt.step()
        assert abs(abs(1.0 - p.data[0]) - 0.01) < 1e-6


def test_adam_zero_grad_leaves_params():
    p = _param([1.5, -2.0])
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(5):
        p.grad = np.zeros(2, dtype=np.float32)
        opt.step()
    assert p.data.tolist() == [1.5, -2.0]
    p.grad = None
    opt.step()
    assert p.data.tolist() == [1.5, -2.0]


def test_adam_matches_three_step_scalar_trace():
    # hand-rolled oracle on a 3-step scenario
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    grads = [2.0, -1.0, 0.5]
    theta, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

    p = parameter(np.asarray([1.0], dtype=np.float64))
    opt = Adam({"p": p}, lr=lr)
    for g in grads:
        p.grad = np.array([g], dtype=np.float64)
        opt.step()
    assert p.data[0] == pytest.approx(theta, rel=1e-10)


def test_adam_nan_grad_names_parameter():
    p = _param([1.0])
    opt = Adam({"badly_named": p})
    p.grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(NumericError, match="badly_named"):
        opt.step()


# ---------------------------------------------------------------------------
# adadelta


def test_adadelta_zero_grad_zero_update():
    p = _param([2.0])
    opt = AdaDelta({"p": p}, lr=0.5)
    p.grad = np.zeros(1, dtype=np.float32)
    opt.step()
    assert p.data[0] == 2.0


def test_adadelta_constant_grad_follows_rms_fixed_point_law():
    # fixed-point analysis: with constant unit gradient the accumulators give
    # |update| -> lr, approached as lr * sqrt((1 - rho) * eps * t); check the
    # first-step closed form, the growth law, monotonicity, and the bound
    lr, rho, eps = 0.5, 0.95, 1e-6
    p = parameter(np.asarray([0.0], dtype=np.float64))
    opt = AdaDelta({"p": p}, lr=lr, rho=rho, eps=eps)
    deltas = []
    prev = p.data[0]
    for _ in range(5000):
        p.grad = np.array([1.0])
        opt.step()
        deltas.append(abs(p.data[0] - prev))
        prev = p.data[0]
    first_closed_form = lr * math.sqrt(eps / ((1 - rho) + eps))
    assert deltas[0] == pytest.approx(first_closed_form, rel=1e-6)
    predicted = lr * math.sqrt((1 - rho) * eps * 5000)
    assert 0.8 < deltas[-1] / predicted < 1.25
    assert deltas[-1] > deltas[99] > deltas[0]
    assert all(d < lr for d in deltas)


def test_adadelta_state_round_trips_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    p = _param(rng.standard_normal(6))
    opt = AdaDelta({"p": p}, lr=0.5)
    for _ in range(4):
        p.grad = rng.standard_normal(6).astype(np.float32)
        opt.step()
    arrays, meta = opt.state_arrays()
    prefix = str(tmp_path / "opt")
    save_tensors(prefix, arrays, meta)
    loaded, lmeta = load_tensors(prefix)

    p2 = _param(np.zeros(6))
    opt2 = AdaDelta({"p": p2}, lr=0.5)
    opt2.load_state_arrays(loaded, lmeta)
    assert opt2.step_count == opt.step_count
    for key in ("sq_grad", "sq_update"):
        a = getattr(opt, key)["p"]
        b = getattr(opt2, key)["p"]
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_adam_state_round_trip(tmp_path):
    p = _param([1.0, 2.0])
    opt = Adam({"p": p}, lr=0.01)
    p.grad = np.array([0.5, -0.5], dtype=np.float32)
    opt.step()
    arrays, meta = opt.state_arrays()
    prefix = str(tmp_path / "adam")
    save_tensors(prefix, arrays, meta)
    loaded, lmeta = load_tensors(prefix)
    opt2 = Adam({"p": _param([0.0, 0.0])}, lr=0.01)
    opt2.load_state_arrays(loaded, lmeta)
    assert opt2.step_count == 1
    assert np.array_equal(opt2.m["p"], opt.m["p"])


@pytest.mark.parametrize("cls", [Adam, AdaDelta])
def test_optimizer_state_loads_all_or_nothing(cls):
    rng = np.random.default_rng(3)
    params = {"a": _param(rng.standard_normal(3)), "b": _param(rng.standard_normal((2, 2)))}
    opt = cls(params)
    for t in params.values():
        t.grad = rng.standard_normal(t.shape).astype(np.float32)
    opt.step()
    arrays, _ = opt.state_arrays()
    before = {k: a.copy() for k, a in arrays.items()}
    last = list(arrays)[-1]
    bad_shape = dict(arrays, **{list(arrays)[0]: np.zeros(1, dtype=np.float32)})
    missing = {k: a for k, a in arrays.items() if k != last}
    fresh = {k: a + 1.0 for k, a in arrays.items()}
    for bad, error in ((bad_shape, ShapeError), (missing, KeyError)):
        with pytest.raises(error):
            opt.load_state_arrays({k: a + 1.0 for k, a in bad.items()}, {"step": "7"})
        assert opt.step_count == 1
        now, _ = opt.state_arrays()
        assert all(np.array_equal(now[k], before[k]) for k in before)
    opt.load_state_arrays(fresh, {"step": "7"})
    assert opt.step_count == 7
    now, _ = opt.state_arrays()
    assert list(now) == list(arrays)
    assert all(np.array_equal(now[k], fresh[k]) for k in fresh)


@pytest.mark.parametrize("cls", [Adam, AdaDelta])
@pytest.mark.parametrize("step", ["-1", "1.5", "", "x", " 3"])
def test_optimizer_state_rejects_a_step_that_is_not_a_count(cls, step):
    # a negative step made Adam's next bias correction 1 - beta1**0 = 0
    p = _param([1.0, 2.0])
    opt = cls({"p": p})
    arrays, _ = opt.state_arrays()
    with pytest.raises(ValueError, match="step must be an integer >= 0"):
        opt.load_state_arrays(arrays, {"step": step})
    assert opt.step_count == 0
    opt.load_state_arrays(arrays, {"step": "0"})
    p.grad = np.array([0.5, -0.5], dtype=np.float32)
    opt.step()
    assert opt.step_count == 1 and np.isfinite(p.data).all()


def test_make_optimizer_rejects_unknown():
    with pytest.raises(ValueError):
        make_optimizer("sgd", {"p": _param([1.0])}, lr=0.1)


# ---------------------------------------------------------------------------
# clipping and ordering


def test_clip_global_norm_scales_when_needed():
    a = _param([3.0])
    b = _param([4.0])
    a.grad = np.array([3.0], dtype=np.float32)
    b.grad = np.array([4.0], dtype=np.float32)
    norm = clip_global_norm({"a": a, "b": b}, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    total = math.sqrt(float(a.grad[0] ** 2 + b.grad[0] ** 2))
    assert total == pytest.approx(1.0, rel=1e-6)


def test_optimizer_invariant_to_registration_order():
    rng = np.random.default_rng(1)
    names = [f"p{i}" for i in range(6)]
    values = {n: rng.standard_normal(4).astype(np.float32) for n in names}
    grad_seq = [{n: rng.standard_normal(4).astype(np.float32) for n in names}
                for _ in range(3)]

    def run(order):
        params = {n: _param(values[n].copy()) for n in order}
        opt = Adam(params, lr=0.05)
        for grads in grad_seq:
            for n in order:
                params[n].grad = grads[n].copy()
            clip_global_norm(params, 1.0)
            opt.step()
        return {n: params[n].data for n in names}

    fwd = run(names)
    rev = run(list(reversed(names)))
    for n in names:
        assert np.array_equal(fwd[n].view(np.uint32), rev[n].view(np.uint32)), n


# ---------------------------------------------------------------------------
# ema


def test_ema_constant_params_equal_shadow():
    p = _param([1.0, 2.0])
    ema = EmaWeights({"p": p}, decay=0.999)
    for _ in range(10):
        ema.update()
    assert np.allclose(ema.shadow["p"], p.data)


def test_ema_single_step_arithmetic():
    p = _param([1.0])
    ema = EmaWeights({"p": p}, decay=0.999)
    ema.shadow["p"] = np.array([0.0], dtype=np.float32)
    ema.update()
    assert ema.shadow["p"][0] == pytest.approx(0.001)


def test_ema_swap_restores_training_weights():
    p = _param([5.0])
    ema = EmaWeights({"p": p}, decay=0.9)
    ema.shadow["p"] = np.array([-1.0], dtype=np.float32)
    before = p.data
    with ema.swapped():
        assert p.data[0] == -1.0
    assert p.data is before and p.data[0] == 5.0


def test_ema_geometric_convergence():
    p = _param([1.0])
    ema = EmaWeights({"p": p}, decay=0.99)
    ema.shadow["p"] = np.array([0.0], dtype=np.float32)
    gaps = []
    for _ in range(40):
        ema.update()
        gaps.append(abs(float(ema.shadow["p"][0]) - 1.0))
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert all(abs(r - 0.99) < 1e-3 for r in ratios)


@pytest.mark.parametrize("cls", [Adam, AdaDelta])
def test_optimizer_state_rejects_unknown_keys_and_other_dtypes(cls):
    # both were accepted: an unknown key was ignored, and a float64 slot was
    # cast to the parameter's float32
    rng = np.random.default_rng(4)
    params = {"a": _param(rng.standard_normal(3)), "b": _param(rng.standard_normal(2))}
    opt = cls(params)
    arrays, _ = opt.state_arrays()
    before = {k: a.copy() for k, a in arrays.items()}
    last = list(arrays)[-1]
    unknown = {**{k: a + 1.0 for k, a in arrays.items()}, "m.c": np.zeros(1, dtype=np.float32)}
    wide = {**{k: a + 1.0 for k, a in arrays.items()}, last: arrays[last].astype(np.float64)}
    for bad, error in ((unknown, KeyError), (wide, DTypeError)):
        with pytest.raises(error):
            opt.load_state_arrays(bad, {"step": "7"})
        assert opt.step_count == 0
        now, _ = opt.state_arrays()
        assert all(np.array_equal(now[k], before[k]) for k in before)


@pytest.mark.parametrize("max_norm", [float("nan"), float("inf"), -1.0])
def test_clip_global_norm_rejects_a_bound_that_is_not_finite_and_nonnegative(max_norm):
    # nan and inf both left the gradients unclipped without an error
    p = _param([1.0])
    p.grad = np.array([100.0], dtype=np.float32)
    with pytest.raises(ValueError, match="max_norm"):
        clip_global_norm({"p": p}, max_norm)
    assert p.grad.tolist() == [100.0]
    assert clip_global_norm({"p": p}, 0.0) == 100.0 and p.grad.tolist() == [100.0]
