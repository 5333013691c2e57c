"""Binary classification metrics, rank-based AUC, per-sample prediction
timing, and the k-fold evaluation harness.

Zero-denominator conventions (documented, so skewed folds stay reportable):
DR, FAR, and F1 are 0 when their denominator is 0.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dataset import MinMaxScaler
from .forest import Forest, ForestParams, train_forest
from .mlp import DivergenceError, Mlp, MlpParams, train_mlp
from . import dataset as _dataset

THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    return ConfusionMatrix(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        fp=int(np.sum((y_true == 0) & (y_pred == 1))),
        tn=int(np.sum((y_true == 0) & (y_pred == 0))),
        fn=int(np.sum((y_true == 1) & (y_pred == 0))),
    )


def binary_metrics(cm: ConfusionMatrix) -> dict[str, float]:
    if cm.total == 0:
        raise ValueError("empty confusion matrix")

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "accuracy": (cm.tp + cm.tn) / cm.total,
        "f1": ratio(2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn),
        "dr": ratio(cm.tp, cm.tp + cm.fn),
        "far": ratio(cm.fp, cm.fp + cm.tn),
    }


def roc_auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Area under the ROC curve via average ranks (ties count half)."""
    y = np.asarray(labels, dtype=int)
    s = np.asarray(scores, dtype=float)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    # A run of c tied scores ending at 1-based sorted position e shares the
    # average rank e - (c - 1) / 2, a half-integer and so exact in a float.
    order = np.argsort(s)
    ordered = s[order]
    ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True)) + 1
    counts = np.diff(ends, prepend=0)
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(ends - (counts - 1) / 2.0, counts)
    rank_sum_pos = float(ranks[y == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def measure_prediction_time(
    predict_one: Callable[[Sequence[float]], float],
    rows: Sequence[Sequence[float]],
    repeats: int = 3,
) -> float:
    """Median over repeats of the per-sample wall-clock time, in microseconds.

    Each repeat times a loop of single-row prediction calls; batching is
    deliberately not used so the number reflects one-sample latency.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if len(rows) == 0:
        raise ValueError("need at least one row to time")
    per_sample = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for row in rows:
            predict_one(row)
        elapsed = time.perf_counter() - t0
        per_sample.append(elapsed / len(rows) * 1e6)
    return statistics.median(per_sample)


# --- cross-validated evaluation ----------------------------------------------

@dataclass
class ModelSpec:
    """What to train per fold: ``kind`` is "rf" or "mlp"."""

    kind: str
    forest_params: ForestParams = field(default_factory=ForestParams)
    mlp_params: MlpParams = field(default_factory=MlpParams)

    def train(self, X: np.ndarray, y: np.ndarray) -> Forest | Mlp:
        if self.kind == "rf":
            return train_forest(X, y, self.forest_params)
        if self.kind == "mlp":
            return train_mlp(X, y, self.mlp_params)
        raise ValueError(f"unknown model kind {self.kind!r}")


METRIC_NAMES = ("accuracy", "f1", "dr", "far", "auc", "prediction_time_micros")


@dataclass
class FoldMetrics:
    fold: int
    accuracy: float
    f1: float
    dr: float
    far: float
    auc: float
    prediction_time_micros: float


@dataclass
class EvaluationReport:
    dataset_name: str
    model_name: str
    seed: int
    k: int
    folds: list[FoldMetrics]
    feature_set: str = ""

    def mean(self, metric: str) -> float:
        return float(np.mean([getattr(f, metric) for f in self.folds]))

    def means(self) -> dict[str, float]:
        return {m: self.mean(m) for m in METRIC_NAMES}


def evaluate_split(
    model: Forest | Mlp,
    scaler: MinMaxScaler,
    X_test_raw: np.ndarray,
    y_test: np.ndarray,
    fold: int = 0,
    timing_rows: int = 256,
    timing_repeats: int = 3,
) -> FoldMetrics:
    """Metrics for one trained model on one raw (unscaled) test matrix.

    The timed path is the deployed one: normalize a single raw row with the
    training scaler, then predict it.
    """
    X_test = scaler.transform(X_test_raw)
    probs = model.predict_proba(X_test)
    preds = (probs >= THRESHOLD).astype(int)
    cm = confusion(y_test, preds)
    m = binary_metrics(cm)
    auc = roc_auc(y_test, probs)

    def predict_raw(row) -> float:
        return model.predict_proba_one(scaler.transform_row(row))

    # Plain lists, like rows arriving from a CSV parse in deployment.
    rows = X_test_raw[: min(len(X_test_raw), timing_rows)].tolist()
    t = measure_prediction_time(predict_raw, rows, repeats=timing_repeats)
    return FoldMetrics(fold=fold, accuracy=m["accuracy"], f1=m["f1"], dr=m["dr"],
                       far=m["far"], auc=auc, prediction_time_micros=t)


def crossval_evaluate(
    X: np.ndarray,
    y: np.ndarray,
    spec: ModelSpec,
    k: int = 5,
    seed: int = 0,
    dataset_name: str = "dataset",
    timing_rows: int = 256,
    timing_repeats: int = 3,
    feature_set: str = "",
) -> EvaluationReport:
    """Per fold of the raw matrix ``X`` and its 0/1 labels ``y``: fit the
    scaler on the training split only, train, evaluate.

    Folds run serially so the timing phase never competes for the CPU.
    """
    folds = []
    for fold, (train_idx, test_idx) in enumerate(_dataset.kfold_split(y, k=k, seed=seed)):
        scaler = MinMaxScaler.fit(X[train_idx])
        try:
            model = spec.train(scaler.transform(X[train_idx]), y[train_idx])
        except DivergenceError as exc:
            raise DivergenceError(f"fold {fold}: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"training failed on fold {fold}: {exc}") from exc
        folds.append(
            evaluate_split(model, scaler, X[test_idx], y[test_idx], fold=fold,
                           timing_rows=timing_rows, timing_repeats=timing_repeats)
        )
    return EvaluationReport(dataset_name=dataset_name, model_name=spec.kind,
                            seed=seed, k=k, folds=folds, feature_set=feature_set)
