"""Small shared helpers: value formatting, provenance metadata, hashing."""

from __future__ import annotations

import hashlib
import math
import sys


def format_value(v) -> str:
    """Serialize a cell value: integers bare, floats with up to 6 decimals.

    Plain ``int``, ``float`` and ``str`` cells, which make up whole feature
    tables, are dispatched on their exact type; anything else (bools, numpy
    scalars) takes the generic path, which gives the same text. Numpy is
    not imported here: a numpy scalar can exist only once numpy is loaded.
    """
    t = type(v)
    if t is int:
        return str(v)
    if t is str:
        return v
    if t is not float:
        if isinstance(v, str):
            return v
        np = sys.modules.get("numpy")
        if isinstance(v, int) or (np is not None and isinstance(v, (np.bool_, np.integer))):
            return str(int(v))
        v = float(v)
    if v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v!r} cannot be serialized")
    s = f"{v:.6f}".rstrip("0").rstrip(".")
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
