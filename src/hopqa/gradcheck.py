"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .autodiff import NumericError, Tensor, backward, no_grad, zero_grads

# relative-error denominator floor: avoids blowup when both gradients ~ 0
REL_ERR_FLOOR = 1e-8


@dataclass
class CoordSample:
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class ParamReport:
    name: str
    max_rel_err: float
    samples: list[CoordSample] = field(default_factory=list)


@dataclass
class GradReport:
    params: dict[str, ParamReport]
    loss: float = 0.0           # f() at the given parameters

    @property
    def worst_rel_err(self) -> float:
        if not self.params:
            return 0.0
        return max(p.max_rel_err for p in self.params.values())

    def worst_param(self) -> str:
        return max(self.params.values(), key=lambda p: p.max_rel_err).name


# near the centered-difference optimum (cbrt of double rounding error,
# scaled): balances O(eps^2) truncation against O(1/eps) rounding noise
DEFAULT_EPS = 1e-5


def rel_err(analytic: float, numeric: float, floor: float = REL_ERR_FLOOR) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def grad_check(f: Callable[[], Tensor], params: Mapping[str, Tensor],
               eps: float = DEFAULT_EPS, max_coords: int = 12,
               rng: np.random.Generator | None = None) -> GradReport:
    """Compare ``backward()`` gradients of the scalar ``f()`` against
    centered finite differences (f(x+e) - f(x-e)) / 2e per coordinate.

    The analytic gradient is taken at the parameters' own precision; the
    difference quotients are evaluated with parameters upcast to float64, so
    the reported error reflects the gradient implementation rather than
    float32 forward noise. Large tensors are sampled at ``max_coords``
    coordinates. ``f`` must be deterministic across calls (fix any rng it
    uses internally).
    """
    rng = rng or np.random.default_rng(0)
    tensors = dict(params)
    zero_grads(tensors.values())
    loss = f()
    if loss.data.size != 1:
        raise ValueError(f"grad_check: f must return a scalar, got {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check: f is non-finite at the given params")
    backward(loss)
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in tensors.items()}

    originals = {name: t.data for name, t in tensors.items()}
    for t in tensors.values():
        t.data = t.data.astype(np.float64)
    try:
        report: dict[str, ParamReport] = {}
        for name, t in tensors.items():
            size = t.data.size
            if size <= max_coords:
                flat_idx = np.arange(size)
            else:
                flat_idx = rng.choice(size, size=max_coords, replace=False)
            pr = ParamReport(name=name, max_rel_err=0.0)
            flat = t.data.reshape(-1)
            for fi in flat_idx:
                orig = flat[fi].copy()
                with no_grad():
                    flat[fi] = orig + eps
                    f_plus = float(f().data)
                    flat[fi] = orig - eps
                    f_minus = float(f().data)
                flat[fi] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise NumericError(f"grad_check: f non-finite while perturbing {name}")
                numeric = (f_plus - f_minus) / (2.0 * eps)
                a = float(analytic[name].reshape(-1)[fi])
                err = rel_err(a, numeric)
                pr.samples.append(CoordSample(np.unravel_index(int(fi), t.shape), a, numeric, err))
                pr.max_rel_err = max(pr.max_rel_err, err)
            report[name] = pr
    finally:
        for name, t in tensors.items():
            t.data = originals[name]
    return GradReport(params=report, loss=float(loss.data))
