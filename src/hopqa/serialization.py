"""Checkpoint files: one numpy ``.npz`` archive, read without pickles. It holds the float
tensors positionally (``arr_0``, ``arr_1``, ...), each in its own dtype and shape; their
names as the string array ``names``, which would drop a final NUL, so no name may hold one;
and the string-to-string meta as one JSON string ``meta``."""

from __future__ import annotations

import json
import os
from typing import Mapping
from zipfile import BadZipFile

import numpy as np


class CheckpointError(ValueError):
    pass


def _maps_str_to_str(meta) -> bool:
    return isinstance(meta, dict) and all(isinstance(s, str) for kv in meta.items() for s in kv)


def save_tensors(prefix: str, named: Mapping[str, np.ndarray],
                 meta: Mapping[str, str] | None = None) -> None:
    """Write ``<prefix>.npz``; a tensor that is not floating point raises."""
    path, meta, arrays = prefix + ".npz", dict(meta or {}), [np.asarray(a) for a in named.values()]
    if not _maps_str_to_str(meta):
        raise CheckpointError(f"{path}: meta must map strings to strings")
    for name, arr in zip(named, arrays):
        if not isinstance(name, str) or "\0" in name or arr.dtype.kind != "f":
            raise CheckpointError(f"{path}: tensor {name!r} ({arr.dtype}) needs a float dtype "
                                  "and a str name without NUL")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # positional, so no tensor name can collide with a keyword of np.savez
    np.savez(path, *arrays, names=np.array(list(named), dtype=str), meta=json.dumps(meta))


def load_tensors(prefix: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read ``<prefix>.npz`` back as (name -> array, meta); a bad file raises CheckpointError."""
    path = prefix + ".npz"
    with open(path, "rb") as fh:
        try:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with npz:
                entries = {k: np.asarray(npz[k]) for k in npz.files}
            names, meta = entries.pop("names"), entries.pop("meta")
            keys = {f"arr_{i}" for i in range(names.size)}
            if names.dtype.kind != "U" or names.ndim != 1 or set(entries) != keys \
                    or len(set(names.tolist())) < names.size or meta.dtype.kind != "U":
                raise ValueError("names must be unique strings, one per array; meta a string")
            meta = json.loads(meta.item())
            out = {name: entries[f"arr_{i}"] for i, name in enumerate(names.tolist())}
            if any(a.dtype.kind != "f" for a in out.values()) or not _maps_str_to_str(meta):
                raise ValueError("tensors must be float arrays, meta a string-to-string map")
        except (KeyError, OSError, EOFError, ValueError, RuntimeError, BadZipFile) as e:
            raise CheckpointError(f"{path}: {e}") from e
    return out, meta
