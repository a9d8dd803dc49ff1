"""Optimizers (Adam, AdaDelta), gradient clipping and weight averaging.

All state is keyed by parameter name, so results do not depend on
registration order; the global-norm clip sums squared norms with an
exactly-rounded accumulator for the same reason.
"""

from __future__ import annotations

import contextlib
import math
from typing import Mapping

import numpy as np

from .autodiff import DTypeError, NumericError, ShapeError, Tensor


def clip_global_norm(params: Mapping[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint 2-norm is at most ``max_norm``,
    which must be finite and >= 0; 0 disables clipping.

    Returns the pre-clip norm. fsum keeps the reduction exact, hence
    invariant to parameter ordering."""
    if not (math.isfinite(max_norm) and max_norm >= 0):
        raise ValueError(f"clip_global_norm: max_norm must be finite and >= 0, got {max_norm}")
    sumsqs = []
    for t in params.values():
        if t.grad is not None:
            sumsqs.append(float((t.grad.astype(np.float64) ** 2).sum()))
    norm = math.sqrt(math.fsum(sumsqs))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for t in params.values():
            if t.grad is not None:
                t.grad = t.grad * scale
    return norm


class _SlotState:
    """Per-parameter state slots (``SLOTS``), saved and loaded by name.

    A slot ``m`` is a dict ``self.m`` from parameter name to array, saved as
    ``m.<name>``. Loading checks the step, every key, shape and dtype before
    it assigns anything, so a bad state leaves the optimizer as it was."""

    KIND = ""
    SLOTS: tuple[str, ...] = ()

    def __init__(self, params: Mapping[str, Tensor]):
        self.params = dict(params)
        self.step_count = 0
        for slot in self.SLOTS:
            setattr(self, slot, {n: np.zeros_like(t.data) for n, t in self.params.items()})

    def state_arrays(self) -> tuple[dict[str, np.ndarray], dict[str, str]]:
        out = {f"{slot}.{n}": getattr(self, slot)[n] for n in self.params for slot in self.SLOTS}
        return out, {"optimizer": self.KIND, "step": str(self.step_count)}

    def load_state_arrays(self, arrays: dict[str, np.ndarray], meta: dict[str, str]) -> None:
        step = meta.get("step", "0")
        if not (step.isascii() and step.isdigit()):
            raise ValueError(f"{self.KIND} state step must be an integer >= 0, got {step!r}")
        expected = self.state_arrays()[0]
        unknown = sorted(set(arrays) - set(expected))
        if unknown:
            raise KeyError(f"{self.KIND} state has unknown keys {unknown}")
        for key, have in expected.items():
            if key not in arrays:
                raise KeyError(f"{self.KIND} state missing {key!r}")
            if tuple(arrays[key].shape) != have.shape:
                raise ShapeError(f"{self.KIND} state {key!r} has shape "
                                 f"{arrays[key].shape}, expected {have.shape}")
            if arrays[key].dtype != have.dtype:
                raise DTypeError(f"{self.KIND} state {key!r} has dtype "
                                 f"{arrays[key].dtype}, expected {have.dtype}")
        self.step_count = int(step)
        for n in self.params:
            for slot in self.SLOTS:
                getattr(self, slot)[n] = arrays[f"{slot}.{n}"].copy()


class Adam(_SlotState):
    """Adam with bias correction."""

    KIND = "adam"
    SLOTS = ("m", "v")

    def __init__(self, params: Mapping[str, Tensor], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def step(self) -> None:
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericError(f"adam: non-finite gradient for parameter {name!r}")
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[name] / c1
            v_hat = self.v[name] / c2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdaDelta(_SlotState):
    """AdaDelta; the learning rate scales the RMS-ratio update."""

    KIND = "adadelta"
    SLOTS = ("sq_grad", "sq_update")

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1.0,
                 rho: float = 0.95, eps: float = 1e-6):
        super().__init__(params)
        self.lr = lr
        self.rho = rho
        self.eps = eps

    def step(self) -> None:
        self.step_count += 1
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericError(f"adadelta: non-finite gradient for parameter {name!r}")
            self.sq_grad[name] = self.rho * self.sq_grad[name] + (1.0 - self.rho) * (g * g)
            delta = -np.sqrt((self.sq_update[name] + self.eps)
                             / (self.sq_grad[name] + self.eps)) * g
            self.sq_update[name] = self.rho * self.sq_update[name] + (1.0 - self.rho) * (delta * delta)
            p.data = p.data + self.lr * delta


OPTIMIZERS = {cls.KIND: cls for cls in (Adam, AdaDelta)}


def make_optimizer(kind: str, params: Mapping[str, Tensor], lr: float):
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}")
    return OPTIMIZERS[kind](params, lr=lr)


class EmaWeights:
    """Exponential moving average of parameter values.

    The shadow starts equal to the parameters; evaluation swaps the shadow
    in and restores the live weights afterwards."""

    def __init__(self, params: Mapping[str, Tensor], decay: float = 0.999):
        if not 0.0 < decay < 1.0:
            raise ValueError("ema decay must be in (0, 1)")
        self.params = dict(params)
        self.decay = decay
        self.shadow = {n: t.data.copy() for n, t in self.params.items()}

    def update(self) -> None:
        d = self.decay
        for n, t in self.params.items():
            self.shadow[n] = d * self.shadow[n] + (1.0 - d) * t.data

    @contextlib.contextmanager
    def swapped(self):
        saved = {n: t.data for n, t in self.params.items()}
        for n, t in self.params.items():
            t.data = self.shadow[n]
        try:
            yield
        finally:
            for n, t in self.params.items():
                t.data = saved[n]
