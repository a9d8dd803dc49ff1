"""Network layers: embeddings, character CNN, highway, linear, BiGRU.

All layers are parameter bundles plus pure forward functions; nothing here
holds per-call state, so bundles can be shared read-only between optimizer
steps. Forward functions accept either single-sequence inputs (T x ...) or
batched ones (B x T x ...): every op works on the trailing axes.

Each BiGRU is exactly one ``ad.bigru`` graph node whatever the sequence
length: the op reads each direction's per-gate weights as they are stored,
as lists of gate blocks ``[z, r, n]``, and both recurrences and their
backward through time run inside it, in one loop over the steps. A BiGRU
whose input is several tensors side by side takes them as a list of parts,
so the joined input is never copied, and each sequence's input is
projected only up to its last real position. A highway stack is likewise
one ``ad.highway`` node: all its layers and their backward run inside it,
and its output is bit-identical to the composition of primitive ops.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor, gather_rows, matmul

PAD_ID = 0
UNK_ID = 1


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...] | None = None, dtype=np.float32) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape or (fan_in, fan_out)).astype(dtype)


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

    Dict keys, dataclass fields and list positions are path segments. An
    ``EmbeddingTable`` stands for its ``weights``, and other non-tensors
    (``CharCnnParams.kernel``) are skipped. A bundle with a ``names()``
    method is walked as the subtree that method returns."""
    if isinstance(tree, Tensor):
        return {prefix: tree}
    if isinstance(tree, EmbeddingTable):
        return {prefix: tree.weights}
    if hasattr(tree, "names"):
        tree = tree.names()
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


@dataclass
class EmbeddingTable:
    """Row-per-id lookup table. Row 0 is the padding row: zero at init and
    never updated (its gradient is dropped even when the table trains)."""

    weights: Tensor

    @classmethod
    def random(cls, vocab_size: int, dim: int, rng: np.random.Generator,
               trainable: bool, scale: float = 0.1, dtype=np.float32) -> "EmbeddingTable":
        w = (rng.standard_normal((vocab_size, dim)) * scale).astype(dtype)
        w[PAD_ID] = 0.0
        return cls(Tensor(w, requires_grad=trainable))

    def lookup(self, ids: np.ndarray) -> Tensor:
        return gather_rows(self.weights, ids, pad_guard=True)


def embed_words(table: EmbeddingTable, ids: np.ndarray,
                unk_row: Tensor | None = None) -> Tensor:
    """Gather word vectors; an optional trainable ``unk_row`` is added to the
    table's (frozen) row for ids equal to UNK_ID."""
    out = table.lookup(ids)
    if unk_row is not None:
        is_unk = (np.asarray(ids) == UNK_ID).astype(table.weights.dtype)[..., None]
        out = ad.add(out, ad.mul(Tensor(is_unk), unk_row))
    return out


def load_glove(path: str, vocab_words: dict[str, int], dim: int = 300,
               dtype=np.float32) -> tuple[np.ndarray, dict[str, int]]:
    """Read GloVe text vectors for the given word->id map.

    Lines whose vector length differs from ``dim`` are skipped and counted.
    Returns (vocab_size x dim matrix, stats) where stats carries the number
    of skipped lines and of vocabulary words found.
    """
    vocab_size = max(vocab_words.values()) + 1
    table = np.zeros((vocab_size, dim), dtype=dtype)
    skipped = 0
    found = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                skipped += 1
                continue
            word = parts[0]
            wid = vocab_words.get(word)
            if wid is None or wid == PAD_ID:
                continue
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=dtype)
            except ValueError:
                skipped += 1
                continue
            table[wid] = vec
            found += 1
    return table, {"skipped_lines": skipped, "found": found,
                   "missing": len(vocab_words) - found}


# ---------------------------------------------------------------------------
# character CNN


@dataclass
class CharCnnParams:
    table: EmbeddingTable          # char embeddings, trainable
    conv_w: Tensor                 # (kernel * char_dim) x filters
    conv_b: Tensor                 # filters
    kernel: int

    @classmethod
    def create(cls, n_chars: int, char_dim: int, filters: int,
               rng: np.random.Generator, kernel: int = 5, dtype=np.float32) -> "CharCnnParams":
        table = EmbeddingTable.random(n_chars, char_dim, rng, trainable=True, dtype=dtype)
        k_in = kernel * char_dim
        return cls(table=table,
                   conv_w=Tensor(xavier_uniform(rng, k_in, filters, dtype=dtype), requires_grad=True),
                   conv_b=Tensor(np.zeros(filters, dtype=dtype), requires_grad=True),
                   kernel=kernel)


def char_cnn(char_ids: np.ndarray, p: CharCnnParams) -> Tensor:
    """Per-word character features: embed, width-``kernel`` convolution over
    the character axis, max-pool over window positions, bias, relu.

    ``char_ids`` has shape (..., W) with W >= kernel; output (..., filters).
    Pooling comes before the bias and relu: both are non-decreasing, also
    after float rounding, so each commutes exactly with a max, and
    max_i relu(x_i + b) equals relu(max_i x_i + b) bit for bit. The bias and
    relu then run on the pooled (..., filters) array only.
    """
    w = char_ids.shape[-1]
    if w < p.kernel:
        raise ShapeError(f"char_cnn: word width {w} shorter than kernel {p.kernel}")
    windows = np.lib.stride_tricks.sliding_window_view(char_ids, p.kernel, axis=-1)
    emb = p.table.lookup(windows)                        # (..., W-k+1, kernel, char_dim)
    unfolded = ad.reshape(emb, windows.shape[:-1] + (-1,))
    pooled = ad.max_reduce(matmul(unfolded, p.conv_w), axis=-2)
    return ad.relu(pooled + p.conv_b)


# ---------------------------------------------------------------------------
# highway


@dataclass
class HighwayParams:
    gates_w: list[Tensor]
    gates_b: list[Tensor]
    trans_w: list[Tensor]
    trans_b: list[Tensor]

    @classmethod
    def create(cls, dim: int, rng: np.random.Generator, layers: int = 2,
               dtype=np.float32) -> "HighwayParams":
        mk = lambda: Tensor(xavier_uniform(rng, dim, dim, dtype=dtype), requires_grad=True)
        zb = lambda: Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        return cls(gates_w=[mk() for _ in range(layers)], gates_b=[zb() for _ in range(layers)],
                   trans_w=[mk() for _ in range(layers)], trans_b=[zb() for _ in range(layers)])

    def names(self) -> list[dict[str, Tensor]]:
        """Checkpoint layout, one entry per layer: ``{i}.gate_w`` and so on."""
        return [{"gate_w": gw, "gate_b": gb, "trans_w": tw, "trans_b": tb}
                for gw, gb, tw, tb in zip(self.gates_w, self.gates_b, self.trans_w, self.trans_b)]


def highway(x: Tensor, p: HighwayParams) -> Tensor:
    """Gated residual stack, per layer y' = t * relu(y W_h + b_h) + (1 - t) * y
    with the gate t = sigmoid(y W_g + b_g), as one ``ad.highway`` node.
    Raises ``ShapeError`` when ``x``'s width is not the parameters' width."""
    if x.shape[-1] != p.gates_w[0].shape[0]:
        raise ShapeError(f"highway: width {x.shape[-1]} != params width {p.gates_w[0].shape[0]}")
    return ad.highway(x, p.gates_w, p.gates_b, p.trans_w, p.trans_b)


# ---------------------------------------------------------------------------
# GRU


@dataclass
class GruCellParams:
    """One direction of a GRU: update (z), reset (r) and candidate (n)
    weights for the input and hidden paths, plus biases.

    The nine per-gate tensors are the parameters (and checkpoint entries);
    ``gates`` lists them in gate order ``[z, r, n]`` as ``ad.bigru`` reads them."""

    wx_z: Tensor
    wx_r: Tensor
    wx_n: Tensor
    wh_z: Tensor
    wh_r: Tensor
    wh_n: Tensor
    b_z: Tensor
    b_r: Tensor
    b_n: Tensor

    @classmethod
    def create(cls, in_dim: int, hidden: int, rng: np.random.Generator,
               dtype=np.float32) -> "GruCellParams":
        wx = lambda: Tensor(xavier_uniform(rng, in_dim, hidden, dtype=dtype), requires_grad=True)
        wh = lambda: Tensor(xavier_uniform(rng, hidden, hidden, dtype=dtype), requires_grad=True)
        b = lambda: Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
        return cls(wx_z=wx(), wx_r=wx(), wx_n=wx(),
                   wh_z=wh(), wh_r=wh(), wh_n=wh(),
                   b_z=b(), b_r=b(), b_n=b())

    def gates(self) -> tuple[list[Tensor], list[Tensor], list[Tensor]]:
        """The blocks of ``w_x`` (in x 3h), ``w_h`` (h x 3h) and ``b`` (3h)."""
        return ([self.wx_z, self.wx_r, self.wx_n],
                [self.wh_z, self.wh_r, self.wh_n],
                [self.b_z, self.b_r, self.b_n])


@dataclass
class BiGruParams:
    fw: GruCellParams
    bw: GruCellParams

    @classmethod
    def create(cls, in_dim: int, hidden: int, rng: np.random.Generator,
               dtype=np.float32) -> "BiGruParams":
        return cls(fw=GruCellParams.create(in_dim, hidden, rng, dtype),
                   bw=GruCellParams.create(in_dim, hidden, rng, dtype))


def bigru(x: Tensor | Sequence[Tensor], p: BiGruParams,
          mask: np.ndarray | None = None) -> Tensor:
    """Bidirectional GRU over axis -2; outputs the two directions
    concatenated per position: (..., T, 2 * hidden).

    ``x`` is the input or a list of parts whose join on the last axis is the
    input, in the order of the rows of the ``wx_*`` weights; the join is
    never built. ``mask`` is (..., T) with 1.0 at real positions; padded
    steps keep the previous hidden state in both directions, and positions
    past a sequence's last real one are not projected at all.
    """
    return ad.bigru(x, p.fw.gates(), p.bw.gates(), mask=mask)

