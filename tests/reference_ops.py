"""Ops that only the tests use, built on the autodiff core's ``_make``.

The model calls fused ops (``highway``, ``bigru``, ...). The test
references that those ops are checked against compose them from these
primitives instead, so they live beside the tests rather than in
``hopqa.autodiff``. Each is its forward, its backward closure and one
``_make`` call, which decides grad mode as it does for the core's ops.

``tokenize`` is the character-by-character tokenizer that
``hopqa.data.tokenize`` must match, offsets included.
"""

from __future__ import annotations

import functools
import string

import numpy as np

from hopqa.autodiff import (
    MatProduct,
    ShapeError,
    Tensor,
    _accum,
    _broadcast_check,
    _make,
    _stable_sigmoid,
    _unbroadcast,
    matmul,
    mul,
)
from hopqa.data import Token


def product(part) -> Tensor:
    """A BiGRU input part as one tensor: a tensor is itself, a
    ``MatProduct`` its ``matmul``, a tuple of factors their product,
    multiplied left to right with ``mul``."""
    if isinstance(part, MatProduct):
        return matmul(part.a, part.b)
    return part if isinstance(part, Tensor) else functools.reduce(mul, map(product, part))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a.shape, b.shape, "sub")
    out = a.data - b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(out, (a, b), bwd)


def sigmoid(x: Tensor) -> Tensor:
    out = _stable_sigmoid(x.data)

    def bwd(g):
        _accum(x, g * out * (1.0 - out))

    return _make(out, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def bwd(g):
        _accum(x, g * (1.0 - out * out))

    return _make(out, (x,), bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    ax = axis if axis >= 0 else axis + x.ndim
    if not 0 <= ax < x.ndim:
        raise ShapeError(f"narrow: axis {axis} out of range for shape {x.shape}")
    if start < 0 or length < 0 or start + length > x.shape[ax]:
        raise ShapeError(f"narrow: window [{start}, {start + length}) exceeds axis "
                         f"{ax} of shape {x.shape}")
    idx: list = [slice(None)] * x.ndim
    idx[ax] = slice(start, start + length)
    out = x.data[tuple(idx)]

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[tuple(idx)] = g
        _accum(x, gx)

    return _make(out, (x,), bwd)


_PUNCT = set(string.punctuation)


def tokenize(text: str) -> list[Token]:
    """Whitespace split, then peel leading/trailing punctuation into their
    own single-char tokens. Offsets index the original string, so
    concatenating token ranges reproduces all non-space content."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        lo, hi = i, j
        while hi - lo > 1 and text[lo] in _PUNCT:
            tokens.append(Token(text[lo], lo, lo + 1))
            lo += 1
        tail: list[Token] = []
        while hi - lo > 1 and text[hi - 1] in _PUNCT:
            tail.append(Token(text[hi - 1], hi - 1, hi))
            hi -= 1
        tokens.append(Token(text[lo:hi], lo, hi))
        tokens.extend(reversed(tail))
        i = j
    return tokens
