"""Binary classification metrics, rank-based AUC, per-sample prediction
timing, and the k-fold evaluation harness.

Zero-denominator conventions (documented, so skewed folds stay reportable):
DR, FAR, and F1 are 0 when their denominator is 0.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import MinMaxScaler
from .forest import Forest, ForestParams, train_forest
from .mlp import DivergenceError, Mlp, MlpParams, train_mlp
from . import dataset as _dataset

THRESHOLD = 0.5


def binary_metrics(y_true: Sequence[int], y_pred: Sequence[int]) -> dict[str, float]:
    """Accuracy, F1, DR and FAR of 0/1 predictions against 0/1 labels."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    total = tp + fp + tn + fn
    if total == 0:
        raise ValueError("no predictions to score")

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "accuracy": (tp + tn) / total,
        "f1": ratio(2 * tp, 2 * tp + fp + fn),
        "dr": ratio(tp, tp + fn),
        "far": ratio(fp, fp + tn),
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

def train_model(X: np.ndarray, y: np.ndarray, params: ForestParams | MlpParams) -> Forest | Mlp:
    """Train the model that ``params`` describe: a forest or an MLP."""
    if isinstance(params, ForestParams):
        return train_forest(X, y, params)
    return train_mlp(X, y, params)


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
    m = binary_metrics(y_test, preds)
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
    params: ForestParams | MlpParams,
    k: int = 5,
    seed: int = 0,
    dataset_name: str = "dataset",
    timing_rows: int = 256,
    timing_repeats: int = 3,
    feature_set: str = "",
) -> EvaluationReport:
    """Per fold of the raw matrix ``X`` and its 0/1 labels ``y``: fit the
    scaler on the training split only, train the model ``params`` describe,
    evaluate.

    Folds run serially so the timing phase never competes for the CPU.
    """
    folds = []
    for fold, (train_idx, test_idx) in enumerate(_dataset.kfold_split(y, k=k, seed=seed)):
        scaler = MinMaxScaler.fit(X[train_idx])
        try:
            model = train_model(scaler.transform(X[train_idx]), y[train_idx], params)
        except DivergenceError as exc:
            raise DivergenceError(f"fold {fold}: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"training failed on fold {fold}: {exc}") from exc
        folds.append(
            evaluate_split(model, scaler, X[test_idx], y[test_idx], fold=fold,
                           timing_rows=timing_rows, timing_repeats=timing_repeats)
        )
    model_name = "rf" if isinstance(params, ForestParams) else "mlp"
    return EvaluationReport(dataset_name=dataset_name, model_name=model_name,
                            seed=seed, k=k, folds=folds, feature_set=feature_set)
