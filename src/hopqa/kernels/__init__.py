"""Fused ops, one module each, built on the graph core (``hopqa.autodiff``)
as its own ops are; no kernel imports another. This module holds the
scratch helpers that ``bigru`` and ``attention`` share.

``bigru`` and ``self_attention`` hand tasks to the pool in ``hopqa.pool``,
which describes the scheduling. Their forwards split work into tasks.
Their backwards hand GEMMs over as pending gradient contributions
(``_accum``), which ``backward`` sums in arrival order while it goes on
with other nodes, and finish any other task they queue. Tasks run numpy
only; they never make a ``Tensor`` or touch a ``grad``, and every array a
task writes, or reads as a copy, is allocated by the calling thread and
passed in.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _rows(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """The first n * width entries of the flat ``buf`` as a C-contiguous
    (n, width) array, the layout the GEMMs write without a copy."""
    return buf[:n * width].reshape(n, width)


def _gemms_into(out: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                axis: int) -> np.ndarray:
    """Fill ``out`` with the products ``a^T @ b`` of ``pairs``, stacked along
    ``axis`` (0: row blocks, 1: column blocks), one GEMM into each block."""
    idx = [slice(None), slice(None)]
    ofs = 0
    for a, b in pairs:
        n = (a if axis == 0 else b).shape[1]
        idx[axis] = slice(ofs, ofs + n)
        np.matmul(a.T, b, out=out[tuple(idx)])
        ofs += n
    return out
