"""A highway stack as one graph node (see ``highway``)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..autodiff import ShapeError, Tensor, _accum, _make, _stable_sigmoid, _tracking


def highway(x: Tensor, layers: Sequence[Sequence[Tensor]]) -> Tensor:
    """A stack of highway layers (Srivastava et al. 2015) as a single graph node.

    Each layer is a group ``(gate_w, gate_b, trans_w, trans_b)`` and maps its
    input y (..., w) to y' = t * h + (1 - t) * y, with the gate
    t = sigmoid(y gate_w + gate_b) and the transform h = relu(y trans_w + trans_b);
    each weight is (w, w) and each bias (w,).

    Each step is the numpy expression of the op it stands for, at the same
    shapes (``y @ W + b``, ``_stable_sigmoid``, ``np.maximum(., 0.0)`` and
    ``t * h + (1.0 - t) * y``), or an in-place form of it that rounds the
    same, so the output is bit-identical to the tests' composition of those
    ops, ``_reference_highway`` (``matmul``, ``add``, ``relu`` and ``mul``
    of the core, with ``sigmoid`` and ``sub`` from ``tests/reference_ops.py``).

    Only when tracking does a layer keep its input, t and h (its output is
    the next layer's input); under ``no_grad`` nothing is kept. The backward
    walks the layers in reverse: with g the gradient of y',
    dt = g (h - y) t (1 - t) and dh = g t [h > 0] are the gradients of the
    two pre-activations, y gets g (1 - t) + dt W_g^T + dh W_h^T, and each
    weight gets one GEMM over all positions, y^T dt or y^T dh.
    """
    width = x.shape[-1]
    for gw, gb, tw, tb in layers:
        if gw.shape != (width, width) or tw.shape != (width, width) \
                or gb.shape != (width,) or tb.shape != (width,):
            raise ShapeError(f"highway: weights {gw.shape}, {tw.shape} and biases {gb.shape}, "
                             f"{tb.shape} do not fit input width {width}")
    weights = [t for layer in layers for t in layer]
    dtype = np.result_type(x.data, *(t.data for t in weights))
    data = [[t.data.astype(dtype, copy=False) for t in layer] for layer in layers]
    tracking = _tracking(x, *weights)
    saved = []          # per layer when tracking: its input, t and h
    y = x.data.astype(dtype, copy=False)
    for gw, gb, tw, tb in data:
        t = y @ gw
        t += gb
        t = _stable_sigmoid(t)
        h = y @ tw
        h += tb
        np.maximum(h, 0.0, out=h)
        out = 1.0 - t               # (1 - t) y + t h: a sum rounds the same either way
        out *= y
        out += t * h
        if tracking:
            saved.append((y, t, h))
        y = out

    def bwd(g):
        go = g.reshape(-1, width)
        for (gw_t, gb_t, tw_t, tb_t), (gw, _, tw, _), (y, t, h) in \
                zip(reversed(layers), reversed(data), reversed(saved)):
            y2, t2, h2 = (a.reshape(-1, width) for a in (y, t, h))
            carry = 1.0 - t2
            da_g = go * (h2 - y2)
            da_g *= t2
            da_g *= carry
            da_h = go * t2
            da_h *= h2 > 0
            dy = go * carry
            dy += da_g @ gw.T
            dy += da_h @ tw.T
            _accum(gw_t, y2.T @ da_g)
            _accum(gb_t, da_g.sum(axis=0))
            _accum(tw_t, y2.T @ da_h)
            _accum(tb_t, da_h.sum(axis=0))
            go = dy
        _accum(x, go.reshape(x.shape))

    return _make(y, (x, *weights), bwd)
