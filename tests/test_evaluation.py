"""Metrics against direct formulas and an O(n^2) pairwise AUC oracle, timing
behaviour, and the cross-validated harness."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowlens.dataset import FeatureTable, LabeledDataset
from flowlens.evaluation import (binary_metrics, crossval_evaluate,
                                 measure_prediction_time, roc_auc)
from flowlens.forest import ForestParams
from flowlens.report import format_metrics, render_metrics_table
from flowlens.schema import CIC, ColumnDef, FeatureSchema


def pairwise_auc(labels, scores):
    """O(n^2) oracle: P(score+ > score-) + 0.5 P(tie)."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def counted(tp=0, fp=0, tn=0, fn=0):
    """Labels and predictions with the given confusion counts."""
    y_true = [1] * tp + [0] * fp + [0] * tn + [1] * fn
    y_pred = [1] * tp + [1] * fp + [0] * tn + [0] * fn
    return y_true, y_pred


def test_perfect_classifier_metrics():
    m = binary_metrics(*counted(tp=4, fp=0, tn=6, fn=0))
    assert m == {"accuracy": 1.0, "f1": 1.0, "dr": 1.0, "far": 0.0}


def test_mixed_confusion_metrics():
    m = binary_metrics(*counted(tp=3, fn=1, fp=1, tn=5))
    assert m["dr"] == 0.75
    assert m["far"] == pytest.approx(1 / 6)
    assert m["f1"] == 0.75
    assert m["accuracy"] == 0.8


def test_zero_denominator_conventions():
    m = binary_metrics(*counted(tp=0, fn=0, fp=0, tn=5))
    assert m["dr"] == 0.0 and m["f1"] == 0.0
    m = binary_metrics(*counted(tp=5, fn=0, fp=0, tn=0))
    assert m["far"] == 0.0
    with pytest.raises(ValueError, match="no predictions"):
        binary_metrics([], [])


def test_f1_identity_against_precision_recall():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(200):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, 4))
        if tp + fp + tn + fn == 0:
            continue
        m = binary_metrics(*counted(tp=tp, fp=fp, tn=tn, fn=fn))
        if tp + fp and tp + fn and tp:
            precision = tp / (tp + fp)
            expected = 2 * precision * m["dr"] / (precision + m["dr"])
            assert m["f1"] == pytest.approx(expected)


def test_confusion_from_predictions():
    # tp=2, fn=1, fp=1, tn=1
    m = binary_metrics([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
    assert m == {"accuracy": 3 / 5, "f1": 4 / 6, "dr": 2 / 3, "far": 1 / 2}


def test_auc_all_ties_is_half():
    assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5


def test_auc_perfect_separation():
    assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0


def test_auc_mixed_case_matches_pairwise_oracle():
    labels = [0, 1, 0, 1]
    scores = [0.4, 0.3, 0.2, 0.9]
    expected = pairwise_auc(labels, scores)  # 3 of 4 pairs ordered correctly
    assert expected == 0.75
    assert roc_auc(labels, scores) == expected


def test_auc_matches_oracle_with_heavy_ties():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(100):
        n = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 4, n) / 3.0  # few distinct values: many ties
        assert roc_auc(labels, scores) == pytest.approx(pairwise_auc(labels, scores), abs=1e-12)


def loop_rank_auc(labels, scores):
    """Reference: average tie ranks found by walking the sorted scores."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s))
    sorted_scores = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos, n_neg = int((y == 1).sum()), int((y == 0).sum())
    return (float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def test_auc_is_bitwise_equal_to_loop_reference_with_heavy_ties():
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(100):
        n = int(rng.integers(2, 3000))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, int(rng.integers(1, 12)), n) / 7.0
        assert roc_auc(labels, scores) == loop_rank_auc(labels, scores)


def unique_rank_auc(labels, scores):
    """Reference: the tie ranks from ``np.unique``'s run counts."""
    y = np.asarray(labels, dtype=int)
    s = np.asarray(scores, dtype=float)
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    n_pos, n_neg = int((y == 1).sum()), int((y == 0).sum())
    return (float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# A few distinct values, signed zeros among them, so that most scores tie.
TIED_SCORES = st.sampled_from([-0.0, 0.0, 5e-324, 1e-9, 0.1, 1 / 3, 0.5, 0.9999, 1.0, 7.5e300])


@given(rows=st.lists(st.tuples(st.integers(0, 1), TIED_SCORES), min_size=2, max_size=300)
       .filter(lambda rows: len({label for label, _ in rows}) == 2))
def test_auc_is_bitwise_equal_to_unique_rank_reference_on_tied_scores(rows):
    labels, scores = zip(*rows)
    assert roc_auc(labels, scores) == unique_rank_auc(labels, scores)


def test_auc_negation_flips_in_tie_free_instances():
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(50):
        n = int(rng.integers(4, 50))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.permutation(n).astype(float)  # distinct: tie-free
        assert roc_auc(labels, -scores) == pytest.approx(1 - roc_auc(labels, scores))


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        roc_auc([1, 1, 1], [0.1, 0.2, 0.3])


def test_accuracy_invariant_under_row_permutation():
    rng = np.random.Generator(np.random.PCG64(5))
    y = rng.integers(0, 2, 40)
    p = rng.integers(0, 2, 40)
    perm = rng.permutation(40)
    a1 = binary_metrics(y, p)["accuracy"]
    a2 = binary_metrics(y[perm], p[perm])["accuracy"]
    assert a1 == a2


# --- timing -------------------------------------------------------------------

def test_timing_rejects_zero_repeats_and_empty_rows():
    stub = lambda row: 1.0
    with pytest.raises(ValueError):
        measure_prediction_time(stub, [[1.0]], repeats=0)
    with pytest.raises(ValueError):
        measure_prediction_time(stub, [], repeats=3)


def test_timing_positive_and_finite():
    t = measure_prediction_time(lambda row: 1.0, [[1.0, 2.0]] * 50, repeats=3)
    assert t > 0 and np.isfinite(t)


def test_timing_scales_with_forest_size():
    from flowlens.forest import Forest
    from test_forest import make_stump

    small = Forest(trees=[make_stump(0, 0.5, 0.2, 0.8)],
                   params=ForestParams(n_trees=1), n_features=4)
    big = Forest(trees=[make_stump(0, 0.5, 0.2, 0.8) for _ in range(100)],
                 params=ForestParams(n_trees=100), n_features=4)
    rows = [[0.3, 0.4, 0.5, 0.6]] * 200
    t_small = measure_prediction_time(small.predict_proba_one, rows, repeats=5)
    t_big = measure_prediction_time(big.predict_proba_one, rows, repeats=5)
    assert t_big > t_small


# --- cross-validated harness ----------------------------------------------------

def _toy_dataset(n=60, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    schema = FeatureSchema("netflow_v2_style", 1, tuple(
        ColumnDef(f"f{i}", "learnable", "number") for i in range(3)
    ))
    X = rng.random((n, 3)) * 10
    labels = (X[:, 0] >= 5.0).astype(int)
    cats = ["Benign" if l == 0 else "Dos" for l in labels]
    return LabeledDataset(FeatureTable(schema, X.T.tolist()), labels.tolist(), cats)


def test_crossval_separable_is_perfect():
    ds = _toy_dataset()
    params = ForestParams(n_trees=15, max_depth=4, seed=2)
    report = crossval_evaluate(ds.X(), ds.y(), params, k=5, seed=1, dataset_name="toy",
                               timing_rows=16, timing_repeats=1)
    assert report.mean("accuracy") == 1.0
    assert report.mean("far") == 0.0
    assert report.mean("auc") == 1.0
    assert len(report.folds) == 5
    assert report.model_name == "rf"


def test_crossval_deterministic_metrics():
    ds = _toy_dataset(seed=3)
    params = ForestParams(n_trees=10, max_depth=4, seed=2)
    r1 = crossval_evaluate(ds.X(), ds.y(), params, k=5, seed=4, timing_rows=8, timing_repeats=1)
    r2 = crossval_evaluate(ds.X(), ds.y(), params, k=5, seed=4, timing_rows=8, timing_repeats=1)
    for m in ("accuracy", "f1", "dr", "far", "auc"):
        assert [getattr(f, m) for f in r1.folds] == [getattr(f, m) for f in r2.folds]


def test_crossval_training_error_carries_fold_index():
    ds = _toy_dataset(n=12, seed=5)
    X = ds.X()
    X[:, 1] = np.nan  # scales to NaN, which the forest refuses
    with pytest.raises(RuntimeError, match="fold 0: input contains non-finite values"):
        crossval_evaluate(X, ds.y(), ForestParams(n_trees=2), k=3, seed=0, timing_rows=4,
                          timing_repeats=1)


# --- rendering fixture -----------------------------------------------------------

def test_metric_row_rendering_matches_published_format():
    means = {"accuracy": 0.9947, "f1": 0.98, "dr": 0.9682, "far": 0.0017,
             "auc": 0.9833, "prediction_time_micros": 20.98}
    row = " | ".join(format_metrics(means))
    assert row == "99.47% | 0.98 | 96.82% | 0.17% | 0.9833 | 20.98µs"


def test_metrics_table_lists_all_dataset_rows():
    means = {"accuracy": 1.0, "f1": 1.0, "dr": 1.0, "far": 0.0,
             "auc": 1.0, "prediction_time_micros": 5.0}
    names = ["NF-CSE-CIC-IDS2018-v2", "CSE-CIC-IDS2018", "NF-ToN-IoT-v2",
             "CIC-ToN-IoT", "NF-BoT-IoT-v2", "CIC-BoT-IoT"]
    table = render_metrics_table([(n, means) for n in names])
    for n in names:
        assert n in table
    header = table.splitlines()[0]
    for col in ("Accuracy", "F1 Score", "DR", "FAR", "AUC", "Prediction Time"):
        assert col in header
