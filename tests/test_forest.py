"""Forest training and prediction, checked against brute-force split oracles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens.dataset import MinMaxScaler
from flowlens.forest import Forest, ForestParams, _TreeBuilder, train_forest
from flowlens.model_io import save_model


def _separable_toy(n=100, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.random((n, 2))
    y = (X[:, 0] >= 0.5).astype(int)
    if y.min() == y.max():  # keep both classes for tiny n
        y[0] = 1 - y[0]
    return X, y


def _best_stump_accuracy(X, y):
    """Brute force over every (feature, threshold) single split."""
    best = 0.0
    n = len(y)
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for thr in (vals[:-1] + vals[1:]) / 2:
            left = X[:, f] <= thr
            for left_label in (0, 1):
                pred = np.where(left, left_label, 1 - left_label)
                best = max(best, float((pred == y).mean()))
    return best


def test_separable_toy_reaches_perfect_training_accuracy():
    X, y = _separable_toy()
    # oracle: a single stump already separates this set perfectly
    assert _best_stump_accuracy(X, y) == 1.0
    forest = train_forest(X, y, ForestParams(n_trees=20, max_depth=4, seed=1))
    preds = (forest.predict_proba(X) >= 0.5).astype(int)
    assert (preds == y).mean() == 1.0


def test_xor_needs_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    # oracle: every single split leaves both leaves at 50/50, depth 2 suffices
    assert _best_stump_accuracy(X, y) == 0.5
    forest = train_forest(
        X, y, ForestParams(n_trees=1, max_depth=2, feature_subsample=1.0, seed=5,
                           bootstrap=False)
    )
    preds = (forest.predict_proba(X) >= 0.5).astype(int)
    assert np.array_equal(preds, y)

    # a resampled tree cannot be expected to see all four points
    depth1 = train_forest(
        X, y, ForestParams(n_trees=1, max_depth=1, feature_subsample=1.0, seed=5,
                           bootstrap=False)
    )
    shallow = (depth1.predict_proba(X) >= 0.5).astype(int)
    assert not np.array_equal(shallow, y)


def test_single_class_training_rejected():
    X = np.zeros((10, 3))
    with pytest.raises(ValueError):
        train_forest(X, np.ones(10, dtype=int))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_training_data_rejected(bad):
    # A NaN or infinite threshold sends every row one way and leaves a child empty.
    X = np.array([[0.0], [bad], [1.0], [bad], [0.5]])
    with pytest.raises(ValueError, match="non-finite"):
        train_forest(X, np.array([0, 1, 0, 1, 1]), ForestParams(n_trees=1, seed=1))


def _serialize(forest, tmp_path, name):
    path = tmp_path / name
    scaler = MinMaxScaler(mins=np.zeros(forest.n_features), maxs=np.ones(forest.n_features))
    save_model(path, forest, scaler=scaler,
               feature_names=[f"f{j}" for j in range(forest.n_features)], meta={})
    return path.read_bytes()


def test_training_is_deterministic_and_duplication_stable(tmp_path):
    X, y = _separable_toy(40, seed=3)
    params = ForestParams(n_trees=8, max_depth=5, seed=11)
    a = _serialize(train_forest(X, y, params), tmp_path, "a.json")
    b = _serialize(train_forest(X, y, params), tmp_path, "b.json")
    assert a == b
    X2, y2 = np.vstack([X, X]), np.concatenate([y, y])
    c = _serialize(train_forest(X2, y2, params), tmp_path, "c.json")
    d = _serialize(train_forest(X2, y2, params), tmp_path, "d.json")
    assert c == d


def _constant_tree(prob):
    from flowlens.forest import DecisionTree
    return DecisionTree(
        feature=np.array([-1]), threshold=np.array([0.0]), left=np.array([-1]),
        right=np.array([-1]), count=np.array([1]), prob=np.array([float(prob)]),
    )


def make_stump(feature, threshold, left_prob, right_prob, extra_nodes=0):
    from flowlens.forest import DecisionTree
    return DecisionTree(
        feature=np.array([feature, -1, -1]),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        count=np.array([2, 1, 1]),
        prob=np.array([(left_prob + right_prob) / 2, left_prob, right_prob]),
    )


def test_predict_proba_is_mean_of_trees():
    f = Forest(trees=[_constant_tree(1.0), _constant_tree(0.0)],
               params=ForestParams(n_trees=2), n_features=3)
    x = np.zeros((1, 3))
    assert f.predict_proba(x)[0] == 0.5
    assert f.predict_proba_one([0.0, 0.0, 0.0]) == 0.5
    all_one = Forest(trees=[_constant_tree(1.0)], params=ForestParams(n_trees=1), n_features=3)
    assert all_one.predict_proba(x)[0] == 1.0


def test_stump_threshold_flip():
    stump = make_stump(0, 0.5, 0.1, 0.9)
    f = Forest(trees=[stump], params=ForestParams(n_trees=1), n_features=1)
    assert f.predict_proba_one([0.49]) == 0.1
    assert f.predict_proba_one([0.51]) == 0.9
    assert f.predict_proba_one([0.5]) == 0.1  # boundary goes left


def test_prediction_invariant_under_tree_permutation():
    rng = np.random.Generator(np.random.PCG64(7))
    X, y = _separable_toy(50, seed=8)
    forest = train_forest(X, y, ForestParams(n_trees=9, max_depth=4, seed=3))
    shuffled = Forest(trees=list(reversed(forest.trees)), params=forest.params,
                      n_features=forest.n_features)
    pts = rng.random((20, 2))
    assert np.allclose(forest.predict_proba(pts), shuffled.predict_proba(pts))


def test_forest_probability_bounded_by_tree_extremes():
    X, y = _separable_toy(80, seed=9)
    forest = train_forest(X, y, ForestParams(n_trees=7, max_depth=6, seed=4))
    pts = np.random.Generator(np.random.PCG64(1)).random((30, 2))
    ensemble = forest.predict_proba(pts)
    per_tree = np.stack([t.predict_proba(pts) for t in forest.trees])
    assert np.all(ensemble >= per_tree.min(axis=0) - 1e-12)
    assert np.all(ensemble <= per_tree.max(axis=0) + 1e-12)
    assert np.all((ensemble >= 0) & (ensemble <= 1))


def test_node_counts_sum_to_parent():
    X, y = _separable_toy(70, seed=12)
    forest = train_forest(X, y, ForestParams(n_trees=5, max_depth=6, seed=6))
    for tree in forest.trees:
        for i in range(tree.n_nodes()):
            if tree.feature[i] >= 0:
                assert tree.count[i] == tree.count[tree.left[i]] + tree.count[tree.right[i]]
        leaf = tree.feature < 0
        assert np.all((tree.prob[leaf] >= 0) & (tree.prob[leaf] <= 1))


def test_width_mismatch_and_nonfinite_rejected():
    X, y = _separable_toy(30, seed=2)
    forest = train_forest(X, y, ForestParams(n_trees=2, seed=1))
    with pytest.raises(ValueError):
        forest.predict_proba(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        forest.predict_proba_one([0.1])
    with pytest.raises(ValueError):
        forest.predict_proba_one([0.1, float("nan")])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            forest.predict_proba(np.array([[0.1, 0.2], [0.3, bad]]))


def _tie_heavy_table():
    """330 rows of small integer levels: column 2 is constant, the last 90 rows
    repeat the first 90, and the labels are not a function of the features,
    so many nodes have tied values or cannot be split at all."""
    i = np.arange(240)
    X = np.stack([(i * 7) % 5, (i * 13 + 3) % 4, np.full(240, 2), (i // 7) % 6,
                  (i * i) % 3, (i * 11) % 9], axis=1).astype(float)
    y = ((X[:, 0] + X[:, 1] + (i * 17) % 5) % 3 == 0).astype(int)
    return np.vstack([X, X[:90]]), np.concatenate([y, y[:90]])


def _forest_digest(forest):
    h = hashlib.sha256()
    for t in forest.trees:
        for arr in (t.feature, t.threshold, t.left, t.right, t.count, t.prob):
            h.update(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("params,digest", [
    (dict(), "fd086a5d7abb5318274106549d8659b8325daf100478139c7134cc1776029690"),
    (dict(feature_subsample=1.0),
     "63ff629eebab3f95d1803968769e4e82d94478dd6568a1216e17bccf5b57d70e"),
    (dict(bootstrap=False),
     "356a9279b3e58beabab2abe977ea7baa184f77296ab6907c1f9a2df315d36bc3"),
    (dict(max_depth=3, min_samples_split=10),
     "79a98acd309173e4c570168c353dca57be4281589a8a293524efe2a2c34d383c"),
], ids=["defaults", "all_features", "no_bootstrap", "shallow"])
def test_forest_arrays_match_golden_digests(params, digest):
    # Pins the six arrays of every tree, so any change to split search, tie
    # order or the rng stream shows up as a different digest.
    X, y = _tie_heavy_table()
    forest = train_forest(X, y, ForestParams(n_trees=12, seed=5, **params))
    assert _forest_digest(forest) == digest


def loop_best_split(builder, idx):
    """The per-candidate scan that ``_TreeBuilder._best_split`` replaced, kept
    as the reference it must match bit for bit."""
    n = len(idx)
    total1 = builder.y[idx].sum()
    p = builder.X.shape[1]
    cand = builder.rng.choice(p, size=min(builder.m, p), replace=False)
    cand.sort()
    best = (np.inf, -1, 0.0)
    for f in cand:
        vals = builder.X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        if sv[0] == sv[-1]:
            continue
        sy = builder.y[idx][order]
        left1 = np.cumsum(sy)[:-1]
        left_n = np.arange(1, n)
        right_n = n - left_n
        right1 = total1 - left1
        gl = 1.0 - (left1 / left_n) ** 2 - ((left_n - left1) / left_n) ** 2
        gr = 1.0 - (right1 / right_n) ** 2 - ((right_n - right1) / right_n) ** 2
        score = (left_n * gl + right_n * gr) / n
        score[sv[:-1] == sv[1:]] = np.inf
        i = int(np.argmin(score))
        if score[i] < best[0]:
            best = (float(score[i]), int(f), float((sv[i] + sv[i + 1]) / 2.0))
    if best[1] < 0:
        return None
    return best[1], best[2]


@st.composite
def split_nodes(draw):
    rows = draw(st.integers(2, 40))
    cols = draw(st.integers(1, 8))
    levels = st.sampled_from([-2.5, -0.0, 0.0, 0.5, 1.0, 3.0])
    X = np.array(draw(st.lists(st.lists(levels, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)))
    for j in draw(st.sets(st.integers(0, cols - 1))):
        X[:, j] = X[0, j]  # constant columns
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
    idx = np.array(draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=rows)))
    subsample = draw(st.sampled_from(["sqrt", 0.3, 1.0]))
    return X, y, idx, subsample, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300)
@given(node=split_nodes())
def test_split_search_is_bitwise_equal_to_loop_reference(node):
    X, y, idx, subsample, seed = node
    params = ForestParams(feature_subsample=subsample)
    ref = _TreeBuilder(X, y, params, np.random.Generator(np.random.PCG64(seed)))
    new = _TreeBuilder(X, y, params, np.random.Generator(np.random.PCG64(seed)))
    assert new._best_split(idx, int(y[idx].sum())) == loop_best_split(ref, idx)
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state
