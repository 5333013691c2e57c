"""Random forest of CART trees grown on bootstrap samples with Gini splits.

Trees are stored as flat arrays (feature, threshold, left, right, sample
count, class-1 probability), which keeps prediction simple and gives the
explanation engine direct access to the split structure. Per-tree randomness
derives from the master seed and the tree index, so serial and parallel
training agree.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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

    def _new_node(self, idx: np.ndarray) -> int:
        node = len(self.feature)
        n1 = int(self.y[idx].sum())
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.count.append(len(idx))
        self.prob.append(n1 / len(idx))
        return node

    def _best_split(self, idx: np.ndarray) -> tuple[int, float] | None:
        n = len(idx)
        total1 = self.y[idx].sum()
        p = self.X.shape[1]
        cand = self.rng.choice(p, size=min(self.m, p), replace=False)
        cand.sort()  # scan in index order so equal-score ties resolve stably
        best = (np.inf, -1, 0.0)
        for f in cand:
            vals = self.X[idx, f]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            if sv[0] == sv[-1]:
                continue
            sy = self.y[idx][order]
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

    def build(self, idx: np.ndarray, depth: int = 0) -> int:
        node = self._new_node(idx)
        n = len(idx)
        n1 = self.y[idx].sum()
        if depth >= self.params.max_depth or n < self.params.min_samples_split or n1 in (0, n):
            return node
        split = self._best_split(idx)
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
    schema_fingerprint: str | None = None
    _fast: list | None = field(default=None, repr=False, compare=False)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got shape {X.shape}")
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
    schema_fingerprint: str | None = None,
) -> Forest:
    """Fit a forest; deterministic for a fixed seed, serial or threaded."""
    if params is None:
        params = ForestParams()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(X) != len(y):
        raise ValueError("X and y length mismatch")
    if len(np.unique(y)) < 2:
        raise ValueError("training data has a single class; cannot fit a discriminator")

    indices = range(params.n_trees)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(lambda i: _grow_tree(X, y, params, i), indices))
    else:
        trees = [_grow_tree(X, y, params, i) for i in indices]
    return Forest(trees=trees, params=params, n_features=X.shape[1],
                  schema_fingerprint=schema_fingerprint)
