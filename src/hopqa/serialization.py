"""Checkpoint files: a text manifest plus a little-endian binary blob.

The manifest lists one tensor per line (name, shape and dtype); the blob
holds the tensors' data concatenated in manifest order. Floating-point
tensors keep their dtype, so round-trips are bit-exact; other arrays are
stored as float32.
"""

from __future__ import annotations

import os
from typing import Mapping

import numpy as np

FORMAT_LINE = "hopqa-checkpoint 2"


class CheckpointError(ValueError):
    pass


def save_tensors(prefix: str, named: Mapping[str, np.ndarray],
                 meta: Mapping[str, str] | None = None) -> None:
    """Write ``<prefix>.manifest`` and ``<prefix>.bin``."""
    lines = [FORMAT_LINE]
    for key, value in (meta or {}).items():
        if any(c.isspace() for c in key):
            raise CheckpointError(f"meta key may not contain whitespace: {key!r}")
        if "\n" in value or "\r" in value:
            raise CheckpointError(f"meta value may not contain a line break: {key!r}")
        lines.append(f"meta {key} {value}")
    blobs = []
    for name, arr in named.items():
        if any(c.isspace() for c in name):
            raise CheckpointError(f"tensor name may not contain whitespace: {name!r}")
        arr = np.asarray(arr)
        dtype = np.dtype(arr.dtype if arr.dtype.kind == "f" else np.float32).newbyteorder("<")
        shape = "x".join(str(d) for d in arr.shape) if arr.ndim else "1"
        lines.append(f"tensor {name} {shape} {dtype.str}")
        blobs.append(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    os.makedirs(os.path.dirname(os.path.abspath(prefix)), exist_ok=True)
    with open(prefix + ".manifest", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(prefix + ".bin", "wb") as fh:
        fh.write(b"".join(blobs))


def load_tensors(prefix: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a checkpoint back; returns (name -> array in its saved dtype, meta)."""
    with open(prefix + ".manifest", "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != FORMAT_LINE:
        raise CheckpointError(f"{prefix}.manifest: unrecognized format line")
    meta: dict[str, str] = {}
    entries: list[tuple[str, tuple[int, ...], np.dtype]] = []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        kind, sep, rest = ln.partition(" ")
        if not sep:
            raise CheckpointError(f"{prefix}.manifest: malformed record {ln!r}")
        if kind == "meta":
            key, _, value = rest.partition(" ")
            meta[key] = value
        elif kind == "tensor":
            fields = rest.split(" ")
            if len(fields) != 3:
                raise CheckpointError(f"{prefix}.manifest: malformed tensor record {ln!r}")
            name, shape_s, dtype_s = fields
            dims = shape_s.split("x")
            if not all(d.isascii() and d.isdigit() for d in dims):
                raise CheckpointError(f"{prefix}.manifest: tensor {name!r} has malformed "
                                      f"shape {shape_s!r}")
            shape = tuple(int(d) for d in dims)
            try:
                dtype = np.dtype(dtype_s)
            except TypeError:
                dtype = None
            if dtype is None or dtype.kind != "f":
                raise CheckpointError(f"{prefix}.manifest: tensor {name!r} has unsupported "
                                      f"dtype {dtype_s!r}")
            entries.append((name, shape, dtype))
        else:
            raise CheckpointError(f"{prefix}.manifest: unknown record {kind!r}")
    with open(prefix + ".bin", "rb") as fh:
        blob = fh.read()
    out: dict[str, np.ndarray] = {}
    ofs = 0
    for name, shape, dtype in entries:
        n = int(np.prod(shape))
        nbytes = n * dtype.itemsize
        if ofs + nbytes > len(blob):
            raise CheckpointError(f"{prefix}.bin: truncated at tensor {name!r}")
        arr = np.frombuffer(blob, dtype=dtype, count=n, offset=ofs).reshape(shape)
        out[name] = arr.copy()
        ofs += nbytes
    if ofs != len(blob):
        raise CheckpointError(f"{prefix}.bin: {len(blob) - ofs} trailing bytes")
    return out, meta
