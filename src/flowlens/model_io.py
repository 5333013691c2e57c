"""Versioned JSON serialization for trained models.

A model file carries the full structure (trees or weight matrices), the
training hyperparameters, the min-max scaler fitted alongside it, and the
names and hash of the feature columns it was trained on, all required, so
evaluation and explanation run on saved models without the original dataset
object, and refuse data built from other columns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import MinMaxScaler
from .forest import DecisionTree, Forest, ForestParams
from .mlp import Mlp, MlpParams
from .schema import ModelFormatError
from .util import FOREST_RULES, MLP_RULES, at_least

FORMAT_NAME = "flowlens-model"
FORMAT_VERSION = 1


@dataclass
class SavedModel:
    model: Forest | Mlp
    scaler: MinMaxScaler
    feature_names: list[str]  # the learnable columns, in order
    meta: dict

    @property
    def kind(self) -> str:
        return "rf" if isinstance(self.model, Forest) else "mlp"


def _forest_payload(forest: Forest) -> dict:
    return {
        "n_features": forest.n_features,
        "params": asdict(forest.params),
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "count": t.count.tolist(),
                "prob": t.prob.tolist(),
            }
            for t in forest.trees
        ],
    }


def _mlp_payload(mlp: Mlp) -> dict:
    return {
        "n_features": mlp.n_features,
        "params": asdict(mlp.params),
        "weights": [w.tolist() for w in mlp.weights],
        "biases": [b.tolist() for b in mlp.biases],
        "loss_history": list(mlp.loss_history),
    }


def _fingerprint(feature_names: list[str]) -> str:
    """The ``schema_fingerprint`` a file stores: sha256 of its names, one a line."""
    return hashlib.sha256("\n".join(feature_names).encode("utf-8")).hexdigest()


def save_model(path: str | Path, model: Forest | Mlp, scaler: MinMaxScaler,
               feature_names: list[str], meta: dict):
    doc: dict = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "schema_fingerprint": _fingerprint(feature_names),
        "feature_names": feature_names,
        "meta": meta,
        "scaler": {"mins": scaler.mins.tolist(), "maxs": scaler.maxs.tolist()},
    }
    if isinstance(model, Forest):
        doc["kind"] = "rf"
        doc["forest"] = _forest_payload(model)
    elif isinstance(model, Mlp):
        doc["kind"] = "mlp"
        doc["mlp"] = _mlp_payload(model)
    else:
        raise ModelFormatError(f"cannot serialize {type(model).__name__}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


_TREE_KEYS = ("feature", "threshold", "left", "right", "count", "prob")


def _require(doc: dict, keys, where: str):
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{where} is not an object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ModelFormatError(f"{where} lacks {', '.join(map(repr, missing))}")


def _require_finite(where: str, **arrays: np.ndarray):
    # json reads NaN and Infinity, and a model holding one still answers, wrongly.
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ModelFormatError(f"{where}: {name} holds a non-finite number")


def _int_array(values, where: str, name: str) -> np.ndarray:
    """A JSON list of integers as int64; one past int64 raises OverflowError."""
    # json reads true as a bool, which numpy would take as 1, and 1.5, which
    # an int64 array would truncate.
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise ModelFormatError(f"{where}: {name} must be a list of integers")
    return np.array(values, dtype=np.int64)


def _load_tree(t: dict, n_features: int, where: str) -> DecisionTree:
    """A tree whose arrays agree in length, whose split features exist, whose
    children follow their parent (so every walk ends) and whose counts add up."""
    _require(t, _TREE_KEYS, where)
    tree = DecisionTree(
        feature=_int_array(t["feature"], where, "feature"),
        threshold=np.array(t["threshold"], dtype=float),
        left=_int_array(t["left"], where, "left"),
        right=_int_array(t["right"], where, "right"),
        count=_int_array(t["count"], where, "count"),
        prob=np.array(t["prob"], dtype=float),
    )
    arrays = [getattr(tree, k) for k in _TREE_KEYS]
    n = len(tree.feature)
    if n == 0 or any(a.ndim != 1 or len(a) != n for a in arrays):
        raise ModelFormatError(f"{where}: node arrays must be non-empty and of equal length")
    _require_finite(where, threshold=tree.threshold, prob=tree.prob)
    if ((tree.prob < 0.0) | (tree.prob > 1.0)).any():
        raise ModelFormatError(f"{where}: prob holds a number outside [0, 1]")
    split = np.flatnonzero(tree.feature >= 0)
    left, right, count = tree.left[split], tree.right[split], tree.count
    if (tree.feature[split] >= n_features).any():
        raise ModelFormatError(f"{where}: split feature not below n_features={n_features}")
    for child in (left, right):
        if ((child <= split) | (child >= n)).any():
            raise ModelFormatError(
                f"{where}: a child index is out of range or not after its parent")
    if (count < 0).any() or (count[split] != count[left] + count[right]).any():
        raise ModelFormatError(f"{where}: a count is negative or not its children's sum")
    return tree


def _setting(rule, value, what: str):
    """``value`` through ``rule``, which must give it back as it is (as JSON):
    a model file holds only the values ``train`` accepts for its settings."""
    try:
        if json.dumps(kept := rule(value)) == json.dumps(value):  # true is not 1, nor 5.0 5
            return kept
    except (TypeError, ValueError, OverflowError):
        pass
    raise ModelFormatError(f"{what} must be a value train could write, not {value!r}")


def _params(cls, raw, rules: dict, where: str):
    """``cls`` from a file's params: one value for each of ``rules``."""
    if not isinstance(raw, dict) or sorted(raw) != sorted(rules):
        raise ModelFormatError(f"{where} params must hold exactly {', '.join(sorted(rules))}")
    return cls(**{k: _setting(rule, raw[k], f"{where} params {k}") for k, rule in rules.items()})


def _load_forest(payload: dict) -> Forest:
    _require(payload, ("n_features", "params", "trees"), "forest")
    n_features = _setting(at_least(1), payload["n_features"], "forest n_features")
    if not isinstance(payload["trees"], list) or not payload["trees"]:
        raise ModelFormatError("forest has no trees")
    trees = [_load_tree(t, n_features, f"tree {i}") for i, t in enumerate(payload["trees"])]
    params = _params(ForestParams, payload["params"], FOREST_RULES, "forest")
    return Forest(trees=trees, params=params, n_features=n_features)


def _load_mlp(payload: dict) -> Mlp:
    """An MLP whose layer shapes chain from n_features to one output."""
    _require(payload, ("n_features", "params", "weights", "biases", "loss_history"), "mlp")
    n_features = _setting(at_least(1), payload["n_features"], "mlp n_features")
    weights = [np.array(w, dtype=float) for w in payload["weights"]]
    biases = [np.array(b, dtype=float) for b in payload["biases"]]
    width = n_features
    if not weights or len(weights) != len(biases):
        raise ModelFormatError("mlp needs one bias vector per weight matrix")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.ndim != 2 or w.shape[0] != width or b.shape != (w.shape[1],):
            raise ModelFormatError(f"mlp layer {i} does not chain: weights {w.shape}, "
                                   f"bias {b.shape}, input width {width}")
        _require_finite(f"mlp layer {i}", weights=w, biases=b)
        width = w.shape[1]
    if width != 1:
        raise ModelFormatError(f"mlp output width is {width}, expected 1")
    losses = payload["loss_history"]
    # json reads true as a bool, which numpy would take as 1.
    if not isinstance(losses, list) or not set(map(type, losses)) <= {int, float}:
        raise ModelFormatError("mlp loss_history must be a list of numbers")
    _require_finite("mlp", loss_history=np.array(losses, dtype=float))
    params = _params(MlpParams, payload["params"], MLP_RULES, "mlp")
    return Mlp(weights=weights, biases=biases, params=params,
               n_features=n_features, loss_history=losses)


def load_model(path: str | Path) -> SavedModel:
    """Read a model file, checking its structure: a malformed file raises
    :class:`ModelFormatError` naming what is wrong."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelFormatError(f"{path}: not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"{path}: not a {FORMAT_NAME} file")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise ModelFormatError(f"{path}: unsupported version {version!r}")
    loaders = {"rf": ("forest", _load_forest), "mlp": ("mlp", _load_mlp)}
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in loaders:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    key, load = loaders[kind]
    try:
        _require(doc, (key, "scaler", "feature_names", "schema_fingerprint", "meta"), "model file")
        model = load(doc[key])
        _require(doc["scaler"], ("mins", "maxs"), "scaler")
        scaler = MinMaxScaler(
            mins=np.array(doc["scaler"]["mins"], dtype=float),
            maxs=np.array(doc["scaler"]["maxs"], dtype=float),
        )
        if scaler.mins.shape != (model.n_features,) or scaler.maxs.shape != (model.n_features,):
            raise ModelFormatError(f"scaler width differs from n_features={model.n_features}")
        _require_finite("scaler", mins=scaler.mins, maxs=scaler.maxs)
        names = doc["feature_names"]
        if (not isinstance(names, list) or len(names) != model.n_features
                or not all(isinstance(n, str) for n in names)):
            raise ModelFormatError(
                f"feature_names must be a list of n_features={model.n_features} strings")
        if doc["schema_fingerprint"] != _fingerprint(names):
            raise ModelFormatError("schema_fingerprint is not the hash of feature_names")
        meta = doc["meta"]
        if not isinstance(meta, dict):
            raise ModelFormatError("meta is not an object")
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # wrong types, ragged, past int64
        raise ModelFormatError(f"{path}: malformed model: {exc}") from exc
    return SavedModel(model, scaler, names, meta)
