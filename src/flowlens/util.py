"""Small shared helpers: value formatting, provenance metadata, hashing,
items made on demand, and the rules that hold settings to their type and
range."""

from __future__ import annotations

import hashlib
import math
import sys
from collections.abc import Callable, Iterable


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


class LazyItems:
    """``count`` items made on demand: ``between(start, stop)`` iterates the
    items ``start`` to ``stop - 1``. The writers take them in parts
    (:func:`flowlens.parts.write_in_parts`), so each part is made where it
    is written and no list of all the items is built."""

    __slots__ = ("count", "between")

    def __init__(self, count: int, between: Callable[[int, int], Iterable]):
        self.count = count
        self.between = between


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


def at_least(low: int):
    """A cast to int that refuses values below ``low``."""
    def cast(value) -> int:
        number = int(value)
        if number < low:
            raise ValueError(f"must be at least {low}")
        return number
    return cast


def finite_positive(value) -> float:
    """A cast to float that refuses NaN, infinities and values not above 0."""
    number = float(value)
    if not 0.0 < number < math.inf:
        raise ValueError("must be a finite number above 0")
    return number


def timeout_seconds(value) -> float:
    """A cast for a timeout: :func:`finite_positive` seconds whose count of
    microseconds, which flow assembly and features work in, is finite too."""
    seconds = finite_positive(value)
    if not math.isfinite(seconds * 1_000_000):
        raise ValueError("must be finite in microseconds: at most about 1.8e302 seconds")
    return seconds


def feature_fraction(value) -> float | str:
    if value == "sqrt":
        return value
    fraction = float(value)
    if not 0.0 < fraction <= 1.0:
        raise ValueError("must be 'sqrt' or a fraction in (0, 1]")
    return fraction


# The rule of each field of ``forest.ForestParams`` and ``mlp.MlpParams``: it
# gives back a value as the field's type, or raises ValueError. The CLI casts
# its settings through them and ``model_io`` checks a model file's params with
# them; ``bool`` gives back only true and false as they are.
FOREST_RULES = {"n_trees": at_least(1), "max_depth": at_least(1), "min_samples_split": at_least(2),
                "feature_subsample": feature_fraction, "seed": at_least(0), "bootstrap": bool}
MLP_RULES = {"hidden": lambda sizes: tuple(map(at_least(1), sizes)), "epochs": at_least(1),
             "learning_rate": finite_positive, "batch_size": at_least(1), "seed": at_least(0)}
