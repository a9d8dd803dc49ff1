"""Network layers: embeddings, character CNN, highway, linear, BiGRU.

All layers are parameter bundles plus pure forward functions; nothing here
holds per-call state, so bundles can be shared read-only between optimizer
steps. Forward functions accept either single-sequence inputs (T x ...) or
batched ones (B x T x ...): every op works on the trailing axes.

Each BiGRU is exactly one ``ad.bigru`` graph node whatever the sequence
length: the op reads each direction's three weight tensors as they are
stored, the gates ``[z | r | n]`` side by side in each, and both recurrences
and their backward through time run inside it, in one loop over the steps.
A BiGRU whose input is several tensors side by side takes them as a list of
parts, so the joined input is never copied, and each sequence's input is
projected only up to its last real position. A highway stack is likewise
one ``ad.highway`` node: all its layers and their backward run inside it,
and its output is bit-identical to the composition of primitive ops.

A bundle's fields are its checkpoint layout: a tensor's name is its path
of field names, list positions and dict keys (``named_tensors``). An
embedding table is a plain ``Tensor``, and a highway stack is a list of
per-layer bundles, so its weights are named ``highway.0.gate_w`` and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Factor, ShapeError, Tensor, gather_rows, matmul

PAD_ID = 0
UNK_ID = 1
CHAR_KERNEL = 5     # char-CNN window width, in characters


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   dtype=np.float32) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: x @ w (+ b)."""
    out = matmul(x, w)
    if b is not None:
        out = ad.add(out, b)
    return out


@dataclass
class Linear:
    """Weights of ``linear``: Xavier-initialised (in x out) ``w``, zero ``b``."""

    w: Tensor
    b: Tensor

    @classmethod
    def create(cls, in_dim: int, out_dim: int, rng: np.random.Generator,
               dtype=np.float32) -> "Linear":
        return cls(w=Tensor(xavier_uniform(rng, in_dim, out_dim, dtype=dtype), requires_grad=True),
                   b=Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True))


def named_tensors(tree, prefix: str = "") -> dict[str, Tensor]:
    """Every tensor in a tree of parameter bundles by dotted path, in tree order.

    Dict keys, dataclass fields and list positions are path segments; any
    other non-tensor is skipped."""
    if isinstance(tree, Tensor):
        return {prefix: tree}
    if is_dataclass(tree):
        tree = {f.name: getattr(tree, f.name) for f in fields(tree)}
    elif isinstance(tree, list):
        tree = dict(enumerate(tree))
    elif not isinstance(tree, dict):
        return {}
    out: dict[str, Tensor] = {}
    for key, sub in tree.items():
        out.update(named_tensors(sub, f"{prefix}.{key}" if prefix else str(key)))
    return out


# ---------------------------------------------------------------------------
# embeddings


def embedding_table(vocab_size: int, dim: int, rng: np.random.Generator,
                    trainable: bool, dtype=np.float32) -> Tensor:
    """Row-per-id lookup table with N(0, 0.1^2) entries. Row 0 is the padding
    row: zero at init and never updated, as every lookup passes
    ``pad_guard=True`` (its gradient is dropped even when the table trains)."""
    w = (rng.standard_normal((vocab_size, dim)) * 0.1).astype(dtype)
    w[PAD_ID] = 0.0
    return Tensor(w, requires_grad=trainable)


def embed_words(table: Tensor, ids: np.ndarray, unk_row: Tensor | None = None) -> Tensor:
    """Gather word vectors; an optional trainable ``unk_row`` is added to the
    table's (frozen) row for ids equal to UNK_ID."""
    out = gather_rows(table, ids, pad_guard=True)
    if unk_row is not None:
        is_unk = (np.asarray(ids) == UNK_ID).astype(table.dtype)[..., None]
        out = ad.add(out, ad.mul(Tensor(is_unk), unk_row))
    return out


def load_glove(path: str, vocab_words: dict[str, int], dim: int = 300,
               dtype=np.float32) -> tuple[np.ndarray, dict[str, int]]:
    """Read GloVe text vectors for the given word->id map.

    Lines whose vector length differs from ``dim`` are skipped and counted.
    A word listed more than once keeps its first vector. Returns
    (vocab_size x dim matrix, stats) where stats carries the number of
    skipped lines and of vocabulary words found and missing.
    """
    vocab_size = max(vocab_words.values()) + 1
    table = np.zeros((vocab_size, dim), dtype=dtype)
    skipped = 0
    found: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                skipped += 1
                continue
            word = parts[0]
            wid = vocab_words.get(word)
            if wid is None or wid == PAD_ID or word in found:
                continue
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=dtype)
            except ValueError:
                skipped += 1
                continue
            table[wid] = vec
            found.add(word)
    return table, {"skipped_lines": skipped, "found": len(found),
                   "missing": len(vocab_words) - len(found)}


# ---------------------------------------------------------------------------
# character CNN


@dataclass
class CharCnnParams:
    table: Tensor                  # char embeddings, trainable
    conv_w: Tensor                 # (CHAR_KERNEL * char_dim) x filters
    conv_b: Tensor                 # filters

    @classmethod
    def create(cls, n_chars: int, char_dim: int, filters: int,
               rng: np.random.Generator, dtype=np.float32) -> "CharCnnParams":
        table = embedding_table(n_chars, char_dim, rng, trainable=True, dtype=dtype)
        k_in = CHAR_KERNEL * char_dim
        return cls(table=table,
                   conv_w=Tensor(xavier_uniform(rng, k_in, filters, dtype=dtype), requires_grad=True),
                   conv_b=Tensor(np.zeros(filters, dtype=dtype), requires_grad=True))


def char_cnn(char_ids: np.ndarray, p: CharCnnParams) -> Tensor:
    """Per-word character features: embed, width-``CHAR_KERNEL`` convolution
    over the character axis, max-pool over window positions, bias, relu.

    ``char_ids`` has shape (..., W) with W >= CHAR_KERNEL; output (..., filters).
    Pooling comes before the bias and relu: both are non-decreasing, also
    after float rounding, so each commutes exactly with a max, and
    max_i relu(x_i + b) equals relu(max_i x_i + b) bit for bit. The bias and
    relu then run on the pooled (..., filters) array only.
    """
    w = char_ids.shape[-1]
    if w < CHAR_KERNEL:
        raise ShapeError(f"char_cnn: word width {w} shorter than kernel {CHAR_KERNEL}")
    windows = np.lib.stride_tricks.sliding_window_view(char_ids, CHAR_KERNEL, axis=-1)
    emb = gather_rows(p.table, windows, pad_guard=True)  # (..., W-k+1, kernel, char_dim)
    unfolded = ad.reshape(emb, windows.shape[:-1] + (-1,))
    pooled = ad.max_reduce(matmul(unfolded, p.conv_w), axis=-2)
    return ad.relu(pooled + p.conv_b)


# ---------------------------------------------------------------------------
# highway


@dataclass
class HighwayLayer:
    gate_w: Tensor
    gate_b: Tensor
    trans_w: Tensor
    trans_b: Tensor

    @classmethod
    def stack(cls, dim: int, rng: np.random.Generator, dtype=np.float32) -> list["HighwayLayer"]:
        """Two layers; all gate weights are drawn before all transform weights."""
        mk = lambda: Tensor(xavier_uniform(rng, dim, dim, dtype=dtype), requires_grad=True)
        zb = lambda: Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        gates_w = [mk(), mk()]
        return [cls(gw, zb(), mk(), zb()) for gw in gates_w]


def highway(x: Tensor, layers: Sequence[HighwayLayer]) -> Tensor:
    """Gated residual stack, per layer y' = t * relu(y W_h + b_h) + (1 - t) * y
    with the gate t = sigmoid(y W_g + b_g), as one ``ad.highway`` node, which
    raises ``ShapeError`` when ``x``'s width is not the parameters' width."""
    return ad.highway(x, [(layer.gate_w, layer.gate_b, layer.trans_w, layer.trans_b)
                          for layer in layers])


# ---------------------------------------------------------------------------
# GRU


@dataclass
class GruCellParams:
    """One direction of a GRU: input weights ``w_x`` (in x 3h), hidden
    weights ``w_h`` (h x 3h) and biases ``b`` (3h), each with the update
    (z), reset (r) and candidate (n) gates side by side as ``[z | r | n]``
    on the last axis, the layout ``ad.bigru`` reads."""

    w_x: Tensor
    w_h: Tensor
    b: Tensor

    @classmethod
    def create(cls, in_dim: int, hidden: int, rng: np.random.Generator,
               dtype=np.float32) -> "GruCellParams":
        """Each gate's input and then hidden weights are drawn as separate
        Xavier matrices, in gate order, and joined; the biases are zero."""
        wx = [xavier_uniform(rng, in_dim, hidden, dtype=dtype) for _ in range(3)]
        wh = [xavier_uniform(rng, hidden, hidden, dtype=dtype) for _ in range(3)]
        return cls(w_x=Tensor(np.concatenate(wx, axis=1), requires_grad=True),
                   w_h=Tensor(np.concatenate(wh, axis=1), requires_grad=True),
                   b=Tensor(np.zeros(3 * hidden, dtype=dtype), requires_grad=True))


@dataclass
class BiGruParams:
    fw: GruCellParams
    bw: GruCellParams

    @classmethod
    def create(cls, in_dim: int, hidden: int, rng: np.random.Generator,
               dtype=np.float32) -> "BiGruParams":
        return cls(fw=GruCellParams.create(in_dim, hidden, rng, dtype),
                   bw=GruCellParams.create(in_dim, hidden, rng, dtype))


def bigru(x: Factor | Sequence[Factor | Sequence[Factor]], p: BiGruParams,
          mask: np.ndarray | None = None) -> Tensor:
    """Bidirectional GRU over axis -2; outputs the two directions
    concatenated per position: (..., T, 2 * hidden).

    ``x`` is the input or a list of parts whose join on the last axis is the
    input, in the order of the rows of the ``w_x`` weights; the join is
    never built. A part may be a tuple of factors whose product it is, and
    its first factor, or the part itself, may be an ``ad.MatProduct``, such
    as ``context2query``'s c2q (see ``ad.bigru``). ``mask`` is (..., T) with
    1.0 at real positions; padded steps keep the previous hidden state in
    both directions, and positions past a sequence's last real one are not
    projected at all.
    """
    return ad.bigru(x, (p.fw.w_x, p.fw.w_h, p.fw.b), (p.bw.w_x, p.bw.w_h, p.bw.b), mask=mask)

