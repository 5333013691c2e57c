"""Random forest of CART trees grown on bootstrap samples with Gini splits.

Trees are stored as flat arrays (feature, threshold, left, right, sample
count, class-1 probability), which keeps prediction simple and gives the
explanation engine direct access to the split structure. Per-tree randomness
derives from the master seed and the tree index, so serial and parallel
training agree.

Each split search draws its candidate features, sorts all of them in one
``argsort`` over a (candidates x rows) block, and computes the Gini score only
at boundaries between distinct values. The first minimum in candidate-major
order wins, so the trees are bit-identical to a per-feature scan that keeps
strict improvements (the reference in ``tests/test_forest.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TreeParams:
    max_depth: int = 16
    min_samples_split: int = 2
    # Fraction of features considered per split; "sqrt" means round(sqrt(p)).
    feature_subsample: float | str = "sqrt"


@dataclass
class ForestParams(TreeParams):
    n_trees: int = 100
    seed: int = 0
    bootstrap: bool = True  # off: every tree sees the full training set


@dataclass
class DecisionTree:
    """Flat-array binary tree. ``feature[i] == -1`` marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    count: np.ndarray
    prob: np.ndarray  # class-1 fraction of the node's training samples

    def n_nodes(self) -> int:
        return len(self.feature)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(len(X), dtype=np.int64)
        while True:
            feats = self.feature[idx]
            active = feats >= 0
            if not active.any():
                break
            rows = np.flatnonzero(active)
            cur = idx[rows]
            go_left = X[rows, feats[rows]] <= self.threshold[cur]
            idx[rows] = np.where(go_left, self.left[cur], self.right[cur])
        return self.prob[idx]


class _TreeBuilder:
    def __init__(self, X: np.ndarray, y: np.ndarray, params: TreeParams, rng: np.random.Generator):
        self.X = X
        self.y = y
        self.params = params
        self.rng = rng
        p = X.shape[1]
        if params.feature_subsample == "sqrt":
            self.m = max(1, round(math.sqrt(p)))
        else:
            self.m = max(1, round(float(params.feature_subsample) * p))
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.count: list[int] = []
        self.prob: list[float] = []

    def _new_node(self, idx: np.ndarray, n1: int) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.count.append(len(idx))
        self.prob.append(n1 / len(idx))
        return node

    def _best_split(self, idx: np.ndarray, n1: int) -> tuple[int, float] | None:
        n = len(idx)
        p = self.X.shape[1]
        cand = self.rng.choice(p, size=min(self.m, p), replace=False)
        cand.sort()  # candidate-major scores below resolve equal-score ties stably
        # One (candidates x rows) block, row c holding feature cand[c] of the
        # node's samples; flat takes gather it faster than 2-D fancy indexing.
        # The sort need not be stable: only the last row of a run of equal
        # values is scored, and the class-1 count up to it is the same in any
        # order within the run.
        vals = self.X.take(idx * p + cand[:, None])
        order = np.argsort(vals, axis=1)
        sv = vals.take(order + np.arange(0, vals.size, n)[:, None])
        cum1 = np.cumsum(self.y[idx[order]], axis=1)
        # Score only between distinct neighbouring values. Flat positions run
        # candidate-major, so argmin's first minimum is the lowest candidate's
        # lowest row, as in a per-feature scan keeping strict improvements.
        flat = np.flatnonzero(sv[:, :-1] != sv[:, 1:])
        if len(flat) == 0:
            return None
        c = flat // (n - 1)
        left1 = cum1.ravel()[flat + c]
        left_n = flat - c * (n - 1) + 1
        right_n = n - left_n
        right1 = n1 - left1
        gl = 1.0 - (left1 / left_n) ** 2 - ((left_n - left1) / left_n) ** 2
        gr = 1.0 - (right1 / right_n) ** 2 - ((right_n - right1) / right_n) ** 2
        score = (left_n * gl + right_n * gr) / n
        best = int(np.argmin(score))
        c, i = c[best], left_n[best] - 1
        return int(cand[c]), float((sv[c, i] + sv[c, i + 1]) / 2.0)

    def build(self, idx: np.ndarray, depth: int = 0) -> int:
        n = len(idx)
        n1 = int(self.y[idx].sum())
        node = self._new_node(idx, n1)
        if depth >= self.params.max_depth or n < self.params.min_samples_split or n1 in (0, n):
            return node
        split = self._best_split(idx, n1)
        if split is None:
            return node
        f, thr = split
        mask = self.X[idx, f] <= thr
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self.build(idx[mask], depth + 1)
        self.right[node] = self.build(idx[~mask], depth + 1)
        return node

    def finish(self) -> DecisionTree:
        return DecisionTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=float),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            count=np.array(self.count, dtype=np.int64),
            prob=np.array(self.prob, dtype=float),
        )


def _grow_tree(X: np.ndarray, y: np.ndarray, params: ForestParams, tree_index: int) -> DecisionTree:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([params.seed, tree_index])))
    n = len(X)
    sample = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
    builder = _TreeBuilder(X, y, params, rng)
    builder.build(sample)
    return builder.finish()


@dataclass
class Forest:
    """Ensemble whose probability is the mean of its trees' leaf probabilities."""

    trees: list[DecisionTree]
    params: ForestParams
    n_features: int
    _fast: list | None = field(default=None, repr=False, compare=False)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("input contains non-finite values")
        acc = np.zeros(len(X))
        for tree in self.trees:
            acc += tree.predict_proba(X)
        return acc / len(self.trees)

    def _fast_nodes(self) -> list:
        # Python-list copies of the node arrays: scalar indexing in the
        # single-sample path is much faster on lists than on ndarrays.
        if self._fast is None:
            self._fast = [
                (t.feature.tolist(), t.threshold.tolist(), t.left.tolist(),
                 t.right.tolist(), t.prob.tolist())
                for t in self.trees
            ]
        return self._fast

    def predict_proba_one(self, x) -> float:
        # Single-sample latency path: per-element conversion and finiteness
        # validation in plain Python, then list-based tree walks.
        values = [float(v) for v in x]
        if len(values) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(values)}")
        for v in values:
            if not math.isfinite(v):
                raise ValueError("input contains non-finite values")
        total = 0.0
        for feature, threshold, left, right, prob in self._fast_nodes():
            i = 0
            f = feature[0]
            while f >= 0:
                i = left[i] if values[f] <= threshold[i] else right[i]
                f = feature[i]
            total += prob[i]
        return total / len(self.trees)


def train_forest(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams | None = None,
    threads: int = 1,
) -> Forest:
    """Fit a forest; deterministic for a fixed seed, serial or threaded."""
    if params is None:
        params = ForestParams()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(X) != len(y):
        raise ValueError("X and y length mismatch")
    if not np.isfinite(X).all():
        raise ValueError("input contains non-finite values")
    if len(np.unique(y)) < 2:
        raise ValueError("training data has a single class; cannot fit a discriminator")

    indices = range(params.n_trees)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(lambda i: _grow_tree(X, y, params, i), indices))
    else:
        trees = [_grow_tree(X, y, params, i) for i in indices]
    return Forest(trees=trees, params=params, n_features=X.shape[1])
