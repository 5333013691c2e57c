"""Small shared helpers: value formatting, provenance metadata, hashing."""

from __future__ import annotations

import hashlib

import numpy as np


def format_value(v) -> str:
    """Serialize a cell value: integers bare, floats with up to 6 decimals."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if not np.isfinite(f):
        raise ValueError(f"non-finite value {f!r} cannot be serialized")
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    s = f"{f:.6f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s  # a negative value that rounds to zero


def config_hash(config: dict) -> str:
    """Stable short hash of a flat configuration mapping."""
    lines = [f"{k}={config[k]}" for k in sorted(config)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def meta_line(meta: dict) -> str:
    """Provenance comment embedded as the first line of text artifacts."""
    parts = [f"{k}={meta[k]}" for k in sorted(meta)]
    return "# " + " ".join(parts)


def parse_meta_line(line: str) -> dict:
    meta = {}
    for token in line.lstrip("#").split():
        if "=" in token:
            k, v = token.split("=", 1)
            meta[k] = v
    return meta
