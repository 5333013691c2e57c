"""Versioned JSON serialization for trained models.

A model file carries the full structure (trees or weight matrices), the
training hyperparameters, the min-max scaler fitted alongside it, and a hash
of the feature columns it was trained on, so evaluation and explanation can
run on saved models without the original dataset object, and refuse data
built from other columns.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import MinMaxScaler
from .forest import DecisionTree, Forest, ForestParams
from .mlp import Mlp, MlpParams
from .schema import ModelFormatError

FORMAT_NAME = "flowlens-model"
FORMAT_VERSION = 1


@dataclass
class SavedModel:
    model: Forest | Mlp
    scaler: MinMaxScaler | None
    feature_names: list[str] | None
    meta: dict
    schema_fingerprint: str | None = None  # compared with the data's by the CLI

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


def save_model(
    path: str | Path,
    model: Forest | Mlp,
    scaler: MinMaxScaler | None = None,
    feature_names: list[str] | None = None,
    meta: dict | None = None,
    schema_fingerprint: str | None = None,
):
    doc: dict = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "schema_fingerprint": schema_fingerprint,
        "feature_names": feature_names,
        "meta": meta or {},
    }
    if scaler is not None:
        doc["scaler"] = {"mins": scaler.mins.tolist(), "maxs": scaler.maxs.tolist()}
    else:
        doc["scaler"] = None
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


def _load_tree(t: dict, n_features: int, where: str) -> DecisionTree:
    """A tree whose arrays agree in length, whose split features exist and
    whose children follow their parent, so every walk from the root ends."""
    _require(t, _TREE_KEYS, where)
    tree = DecisionTree(
        feature=np.array(t["feature"], dtype=np.int64),
        threshold=np.array(t["threshold"], dtype=float),
        left=np.array(t["left"], dtype=np.int64),
        right=np.array(t["right"], dtype=np.int64),
        count=np.array(t["count"], dtype=np.int64),
        prob=np.array(t["prob"], dtype=float),
    )
    arrays = [getattr(tree, k) for k in _TREE_KEYS]
    n = len(tree.feature)
    if n == 0 or any(a.ndim != 1 or len(a) != n for a in arrays):
        raise ModelFormatError(f"{where}: node arrays must be non-empty and of equal length")
    _require_finite(where, threshold=tree.threshold, prob=tree.prob)
    split = np.flatnonzero(tree.feature >= 0)
    if (tree.feature[split] >= n_features).any():
        raise ModelFormatError(f"{where}: split feature not below n_features={n_features}")
    for child in (tree.left[split], tree.right[split]):
        if ((child <= split) | (child >= n)).any():
            raise ModelFormatError(
                f"{where}: a child index is out of range or not after its parent")
    return tree


def _load_forest(payload: dict) -> Forest:
    _require(payload, ("n_features", "params", "trees"), "forest")
    n_features = payload["n_features"]
    if not isinstance(n_features, int) or n_features < 1:
        raise ModelFormatError("forest n_features must be a positive integer")
    if not isinstance(payload["trees"], list) or not payload["trees"]:
        raise ModelFormatError("forest has no trees")
    trees = [_load_tree(t, n_features, f"tree {i}") for i, t in enumerate(payload["trees"])]
    return Forest(trees=trees, params=ForestParams(**payload["params"]),
                  n_features=n_features)


def _load_mlp(payload: dict) -> Mlp:
    """An MLP whose layer shapes chain from n_features to one output."""
    _require(payload, ("n_features", "params", "weights", "biases", "loss_history"), "mlp")
    weights = [np.array(w, dtype=float) for w in payload["weights"]]
    biases = [np.array(b, dtype=float) for b in payload["biases"]]
    width = payload["n_features"]
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
    raw = dict(payload["params"])
    raw["hidden"] = tuple(raw["hidden"])
    return Mlp(weights=weights, biases=biases, params=MlpParams(**raw),
               n_features=payload["n_features"], loss_history=list(payload["loss_history"]))


def load_model(path: str | Path) -> SavedModel:
    """Read a model file, checking its structure: a malformed file raises
    :class:`ModelFormatError` naming what is wrong."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported version {doc.get('version')}")
    loaders = {"rf": ("forest", _load_forest), "mlp": ("mlp", _load_mlp)}
    if doc.get("kind") not in loaders:
        raise ModelFormatError(f"{path}: unknown model kind {doc.get('kind')!r}")
    key, load = loaders[doc["kind"]]
    try:
        _require(doc, (key,), "model file")
        model = load(doc[key])
        scaler = None
        if doc.get("scaler") is not None:
            _require(doc["scaler"], ("mins", "maxs"), "scaler")
            scaler = MinMaxScaler(
                mins=np.array(doc["scaler"]["mins"], dtype=float),
                maxs=np.array(doc["scaler"]["maxs"], dtype=float),
            )
            if scaler.mins.shape != (model.n_features,) or scaler.maxs.shape != (model.n_features,):
                raise ModelFormatError(f"scaler width differs from n_features={model.n_features}")
            _require_finite("scaler", mins=scaler.mins, maxs=scaler.maxs)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:  # wrong value types, ragged arrays
        raise ModelFormatError(f"{path}: malformed model: {exc}") from exc
    return SavedModel(model, scaler, doc.get("feature_names"), doc.get("meta", {}),
                      doc.get("schema_fingerprint"))
