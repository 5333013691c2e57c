"""Shapley-value attribution for probability models.

Three engines share one value function (the interventional expectation over
an explicit background set), so they can be checked against each other:

* ``exact_shapley``: full coalition enumeration, feasible up to 20 features.
* ``kernel_shap``: constrained weighted least squares over sampled coalitions;
  with full enumeration it reproduces the exact values.
* ``tree_shap``: closed-form per-leaf computation for forests, exact for the
  same value function at a fraction of the cost. ``compile_tree_shap`` turns
  a forest into padded root-to-leaf path arrays (one merged interval per
  feature on a path) and evaluates them, and the base value, on the
  background once; every explained row then costs a few vectorized passes
  over paths x background rows, in blocks that keep temporaries near 1 MB.
  On a 2-core Intel Xeon (Python 3.11, numpy 2.4) with 50 background rows,
  5 trees of ~405 leaves over 77 features compile in ~30 ms and take ~8 ms
  per row; 30 trees of ~5 leaves over 39 features take ~1.4 ms per row.

The exact and kernel engines send their coalitions to the model in value
batches of about the same 1 MB as the tree engine's blocks, so their memory
does not grow with the coalition budget: one kernel explanation over 39
features, 100 background rows and 2,048 coalitions peaks at ~3.5 MB of
traced memory for an MLP and ~2.2 MB for a 5-tree forest.

Per-sample attributions aggregate into a global ranking of mean absolute
values, normalized so the strongest feature scores 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .forest import Forest

EXACT_FEATURE_LIMIT = 20

# Elements handled at once: coalitions x background rows x features in one
# value batch of the exact and kernel engines, and path slots x background
# rows in one block of the tree engine. Either way the temporaries stay near
# 1 MB of float64, whatever the budget or the forest size.
_BLOCK_ELEMENTS = 1 << 17


@dataclass
class CoalitionValueFunction:
    """value(S) = mean over background rows b of f(x on S, b elsewhere)."""

    predict: Callable[[np.ndarray], np.ndarray]
    x: np.ndarray
    background: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(-1)
        self.background = np.asarray(self.background, dtype=float)
        if self.background.ndim != 2 or len(self.background) == 0:
            raise ValueError("background must be a non-empty matrix")
        if self.background.shape[1] != len(self.x):
            raise ValueError("background width differs from the explained row")

    @property
    def p(self) -> int:
        return len(self.x)

    def values_for_masks(self, masks: np.ndarray) -> np.ndarray:
        """One evaluation per coalition, averaged over the background.
        ``masks`` is a (coalitions, p) bool matrix: True takes x's value.

        The model sees the coalitions in batches of about ``_BLOCK_ELEMENTS``
        cells (coalitions x background rows x p), so memory stays near 1 MB
        however many coalitions there are. A model that scores each row on
        its own gives the same values at any batch size."""
        nb = len(self.background)
        step = max(1, _BLOCK_ELEMENTS // max(1, nb * self.p))
        out = np.empty(len(masks))
        for start in range(0, len(masks), step):
            part = masks[start : start + step]
            Z = np.where(part[:, None, :], self.x, self.background)
            preds = np.asarray(self.predict(Z.reshape(-1, self.p)), dtype=float)
            out[start : start + len(part)] = preds.reshape(len(part), nb).mean(axis=1)
        return out

    def base_value(self) -> float:
        return float(np.mean(self.predict(self.background)))

    def full_value(self) -> float:
        return float(self.predict(self.x.reshape(1, -1))[0])


@dataclass
class Explanation:
    """Per-sample attribution: base value plus one contribution per feature."""

    phi: np.ndarray
    base_value: float
    predicted: float
    method: str

    def additivity_gap(self) -> float:
        return abs(self.base_value + float(self.phi.sum()) - self.predicted)


def _subset_weights(p: int) -> np.ndarray:
    """w[s] = s! (p-s-1)! / p! for s = 0..p-1."""
    fp = math.factorial(p)
    return np.array(
        [math.factorial(s) * math.factorial(p - s - 1) / fp for s in range(p)]
    )


def _unpack(masks: np.ndarray, p: int) -> np.ndarray:
    """int64 coalition bitmasks as a (coalitions, p) bool matrix, filled one
    bit column at a time: the only temporary is one int64 column."""
    out = np.empty((len(masks), p), dtype=bool)
    bit = np.empty(len(masks), dtype=np.int64)
    for j in range(p):
        np.right_shift(masks, j, out=bit)
        np.bitwise_and(bit, 1, out=bit)
        out[:, j] = bit
    return out


def exact_shapley(vf: CoalitionValueFunction) -> Explanation:
    """Per-feature weighted average marginal contribution, by enumeration.

    Every coalition's value is evaluated exactly once; cost is O(2^p) value
    evaluations, so p is capped at 20.
    """
    p = vf.p
    if p > EXACT_FEATURE_LIMIT:
        raise ValueError(
            f"{p} features exceeds the exact enumeration limit "
            f"({EXACT_FEATURE_LIMIT}); use kernel_shap instead"
        )
    all_masks = np.arange(1 << p)
    coalitions = _unpack(all_masks, p)
    vals = vf.values_for_masks(coalitions)
    sizes = coalitions.sum(axis=1)
    w = _subset_weights(p)
    phi = np.zeros(p)
    for j in range(p):
        bit = 1 << j
        without = all_masks[(all_masks & bit) == 0]
        phi[j] = float(np.sum(w[sizes[without]] * (vals[without | bit] - vals[without])))
    return Explanation(
        phi=phi, base_value=float(vals[0]), predicted=float(vals[-1]), method="exact"
    )


# --- kernel method -----------------------------------------------------------

def _kernel_weight(p: int, size: int) -> float:
    """Coalition weight (p-1) / (C(p,s) * s * (p-s)) for 0 < s < p."""
    return (p - 1) / (math.comb(p, size) * size * (p - size))


def _size_mass(p: int, size: int) -> float:
    # total weight of all coalitions of one size: C(p,s) * kernel = (p-1)/(s(p-s))
    return (p - 1) / (size * (p - size))


def _sample_coalitions(
    p: int, budget: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Coalitions, as a (coalitions, p) bool matrix, and their weights:
    deterministic rings of size 1 and p-1 first, then seeded size-weighted
    sampling for the remaining budget."""
    full = (1 << p) - 1
    n_avail = budget - 2  # empty and full coalitions are handled as constraints
    # The kernel weight of a coalition by its size; sizes 0 and p never occur.
    size_weight = np.array([0.0] + [_kernel_weight(p, s) for s in range(1, p)])
    if n_avail >= (1 << p) - 2:
        coalitions = _unpack(np.arange(1, full), p)
        return coalitions, size_weight[coalitions.sum(axis=1)]

    masks: list[int] = []
    weights: list[float] = []
    singles = [1 << j for j in range(p)]
    pairs_complement = [full ^ (1 << j) for j in range(p)]
    for ring, size in ((singles, 1), (pairs_complement, p - 1)):
        for m in ring:
            if len(masks) < n_avail:
                masks.append(m)
                weights.append(size_weight[size])

    n_samples = n_avail - len(masks)
    inner_sizes = list(range(2, p - 1))
    if n_samples > 0 and inner_sizes:
        mass = np.array([_size_mass(p, s) for s in inner_sizes])
        probs = mass / mass.sum()
        counts: dict[int, int] = {}
        chosen = rng.choice(len(inner_sizes), size=n_samples, p=probs)
        for c in chosen:
            s = inner_sizes[int(c)]
            members = rng.choice(p, size=s, replace=False)
            m = 0
            for j in members:
                m |= 1 << int(j)
            counts[m] = counts.get(m, 0) + 1
        remaining_mass = float(mass.sum())
        for m, cnt in sorted(counts.items()):
            masks.append(m)
            weights.append(cnt / n_samples * remaining_mass)
    return _unpack(np.array(masks, dtype=np.int64), p), np.array(weights)


def min_coalition_budget(p: int) -> int:
    """The smallest kernel SHAP budget over ``p`` features: the empty and
    full coalitions, and one more value evaluation per feature."""
    return p + 2


def kernel_shap(
    vf: CoalitionValueFunction,
    coalition_budget: int | str = "full",
    seed: int = 0,
) -> Explanation:
    """Weighted least-squares fit of an additive surrogate over coalitions.

    The fit is constrained so the intercept equals the background mean and the
    contributions sum to the prediction gap. ``coalition_budget`` counts value
    evaluations including the empty and full coalitions; ``"full"`` enumerates
    everything (and then agrees with exact enumeration).
    """
    p = vf.p
    if coalition_budget == "full":
        if p > EXACT_FEATURE_LIMIT:
            raise ValueError(f"full enumeration infeasible for p={p}")
        budget = (1 << p)  # everything
    else:
        budget = int(coalition_budget)
        low = min_coalition_budget(p)
        if budget < low:
            raise ValueError(f"coalition budget {budget} below minimum {low}")

    base = vf.base_value()
    fx = vf.full_value()
    delta = fx - base

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    coalitions, weights = _sample_coalitions(p, budget, rng)
    vals = vf.values_for_masks(coalitions)

    Z = coalitions.astype(float)
    y = vals - base

    Zw = Z * weights[:, None]
    # K is never singular: every budget holds all p singletons at weight 1/p,
    # so Zw.T @ Z >= I/p, and at p = 1 K is [[0, 1], [1, 0]]. A non-finite
    # solution can only come from non-finite model values.
    K = np.zeros((p + 1, p + 1))
    K[:p, :p] = Zw.T @ Z
    K[:p, p] = 1.0
    K[p, :p] = 1.0
    rhs = np.concatenate([Zw.T @ y, [delta]])
    sol = np.linalg.solve(K, rhs)
    if not np.all(np.isfinite(sol)):
        raise ValueError("kernel SHAP: model returned non-finite values")
    return Explanation(phi=sol[:p], base_value=base, predicted=fx, method="kernel")


# --- tree method -------------------------------------------------------------

@lru_cache(maxsize=None)
def _indicator_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Shapley values of the indicator game u(S) = [X in S and B disjoint S].

    ``table_x[a, c]`` is the value of each member of X when |X|=a, |B|=c;
    ``table_b[a, c]`` the (negative) value of each member of B. Players
    outside X and B are dummies, so the values depend on a and c only:
    (a-1)! c! / (a+c)! and -a! (c-1)! / (a+c)!. Each entry is one division of
    exact integers, which Python rounds correctly, so it is the float nearest
    the exact rational value. Entries with a + c > p stay 0.
    """
    fact = [math.factorial(i) for i in range(p + 1)]
    table_x = np.zeros((p + 1, p + 1))
    table_b = np.zeros((p + 1, p + 1))
    for a in range(p + 1):
        for c in range(p + 1 - a):
            if a >= 1:
                table_x[a, c] = fact[a - 1] * fact[c] / fact[a + c]
            if c >= 1:
                table_b[a, c] = -(fact[a] * fact[c - 1] / fact[a + c])
    return table_x, table_b


def _leaf_intervals(tree) -> list[tuple[float, dict[int, tuple[float, float]]]]:
    """Every leaf below at least one split, as (leaf probability, {feature:
    (lo, hi)}): a row reaches the leaf exactly when lo < row[feature] <= hi
    for every listed feature. Repeated splits on one feature merge into one
    interval. Leaves come in left-first depth-first order."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right, prob = tree.left.tolist(), tree.right.tolist(), tree.prob.tolist()
    leaves = []
    stack: list[tuple[int, dict[int, tuple[float, float]]]] = [(0, {})]
    while stack:
        node, bounds = stack.pop()
        f = feature[node]
        if f < 0:
            if bounds:  # a constant tree contributes to the base value only
                leaves.append((prob[node], bounds))
            continue
        thr = threshold[node]
        lo, hi = bounds.get(f, (-math.inf, math.inf))
        stack.append((right[node], {**bounds, f: (max(lo, thr), hi)}))
        stack.append((left[node], {**bounds, f: (lo, min(hi, thr))}))
    return leaves


@dataclass
class TreeShapPlan:
    """A forest compiled against one background set, shared by every row
    explained against them.

    Row i of the padded path arrays is one root-to-leaf path: its leaf value
    and, per slot d, a feature and the interval (lo, hi] the path requires of
    it. Unused slots require (-inf, inf] of a sink column ``n_features``,
    which every row satisfies. ``background_ok[i, d, n]`` tells whether
    background row n satisfies slot d of path i, and ``background_count[i,
    n]`` how many slots of path i it satisfies.
    """

    feature: np.ndarray  # (paths, slots) int
    lo: np.ndarray  # (paths, slots)
    hi: np.ndarray  # (paths, slots)
    value: np.ndarray  # (paths,)
    background_ok: np.ndarray  # (paths, slots, background rows) bool
    background_count: np.ndarray  # (paths, background rows) int
    base_value: float
    n_features: int
    n_trees: int

    def phi(self, x: np.ndarray) -> np.ndarray:
        """Attributions of one row, block by block over the paths.

        Per (path, background row) pair the slots split into those only x
        satisfies (a of them), those only the background row satisfies (c),
        those both satisfy (dummies) and those neither does; one of the last
        makes the leaf unreachable from any mix of the two rows. Otherwise
        each of the a features gets ``table_x[a, c]`` times the leaf value
        and each of the c features ``table_b[a, c]`` times it.
        """
        p = self.n_features
        n_paths, n_slots, nb = self.background_ok.shape
        table_x, table_b = (t.ravel() for t in _indicator_tables(p))
        x_vals = np.append(x, 0.0)[self.feature]
        x_ok = (self.lo < x_vals) & (x_vals <= self.hi)
        x_count = x_ok.sum(axis=1)
        phi = np.zeros(p + 1)
        step = max(1, _BLOCK_ELEMENTS // max(1, n_slots * nb))
        for s in range(0, n_paths, step):
            e = min(n_paths, s + step)
            ok = x_ok[s:e]
            b_ok = self.background_ok[s:e].astype(float)
            both = np.matmul(ok[:, None, :].astype(float), b_ok)[:, 0, :].astype(np.int64)
            a = x_count[s:e, None] - both
            c = self.background_count[s:e] - both
            alive = a + c + both == n_slots
            # table_x[0, 0] = table_b[0, 0] = 0: unreachable pairs add nothing
            idx = np.where(alive, a * (p + 1) + c, 0)
            from_x = np.matmul(1.0 - b_ok, table_x[idx][:, :, None])[:, :, 0]
            from_b = np.matmul(b_ok, table_b[idx][:, :, None])[:, :, 0]
            contrib = self.value[s:e, None] * np.where(ok, from_x, from_b)
            phi += np.bincount(self.feature[s:e].ravel(), weights=contrib.ravel(),
                               minlength=p + 1)
        return phi[:p] / (nb * self.n_trees)


def compile_tree_shap(forest: Forest, background: np.ndarray) -> TreeShapPlan:
    """Compile ``forest`` into padded path arrays and evaluate them, and the
    base value, on ``background``."""
    background = np.asarray(background, dtype=float)
    if background.ndim != 2 or len(background) == 0:
        raise ValueError("background must be a non-empty matrix")
    if background.shape[1] != forest.n_features:
        raise ValueError("feature width mismatch between forest and background")
    if not np.isfinite(background).all():
        raise ValueError("background contains non-finite values")
    p = forest.n_features
    leaves = [leaf for tree in forest.trees for leaf in _leaf_intervals(tree)]
    n_paths = len(leaves)
    n_slots = max((len(bounds) for _, bounds in leaves), default=0)
    feature = np.full((n_paths, n_slots), p, dtype=np.int64)
    lo = np.full((n_paths, n_slots), -np.inf)
    hi = np.full((n_paths, n_slots), np.inf)
    value = np.empty(n_paths)
    for i, (leaf_value, bounds) in enumerate(leaves):
        value[i] = leaf_value
        for d, (f, (f_lo, f_hi)) in enumerate(sorted(bounds.items())):
            feature[i, d], lo[i, d], hi[i, d] = f, f_lo, f_hi

    nb = len(background)
    padded = np.hstack([background, np.zeros((nb, 1))])
    background_ok = np.empty((n_paths, n_slots, nb), dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // max(1, n_slots * nb))
    for s in range(0, n_paths, step):
        vals = padded[:, feature[s : s + step]].transpose(1, 2, 0)
        background_ok[s : s + step] = (lo[s : s + step, :, None] < vals) & (
            vals <= hi[s : s + step, :, None])
    return TreeShapPlan(
        feature=feature, lo=lo, hi=hi, value=value, background_ok=background_ok,
        background_count=background_ok.sum(axis=1),
        base_value=float(np.mean(forest.predict_proba(background))),
        n_features=p, n_trees=len(forest.trees),
    )


def tree_shap(
    forest: Forest,
    x: np.ndarray,
    background: np.ndarray,
    *,
    plan: TreeShapPlan | None = None,
) -> Explanation:
    """Exact Shapley values for a forest under the interventional value
    function, by per-leaf closed form over (x, background row) pairs.

    For each leaf, the features on its path split into those that must be
    present (x follows the path, the background row does not) and those that
    must be absent; the Shapley value of that two-set indicator game has a
    closed form, and summing it over leaves, background rows, and trees gives
    the same result as full enumeration.

    ``plan`` is ``compile_tree_shap(forest, background)``; pass it when
    explaining many rows against one background, so the forest is compiled
    and the background evaluated once. Without it, this call builds its own.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) != forest.n_features:
        raise ValueError("feature width mismatch between forest and x")
    if not np.isfinite(x).all():
        raise ValueError("explained row contains non-finite values")
    if plan is None:
        plan = compile_tree_shap(forest, background)
    phi = plan.phi(x)
    predicted = float(forest.predict_proba(x.reshape(1, -1))[0])
    return Explanation(phi=phi, base_value=plan.base_value, predicted=predicted,
                       method="tree")


# --- global aggregation -------------------------------------------------------

@dataclass
class GlobalRanking:
    """Mean |phi| per feature across explained samples, normalized to [0, 1]."""

    feature_names: list[str]
    mean_abs: np.ndarray
    normalized: np.ndarray
    order: list[int]  # feature indices, best first; ties by column order

    def top(self, k: int = 20) -> list[tuple[int, str, float, float]]:
        """(rank, feature name, mean_abs, normalized) for the k best features."""
        rows = []
        for rank, idx in enumerate(self.order[:k], start=1):
            rows.append(
                (rank, self.feature_names[idx], float(self.mean_abs[idx]),
                 float(self.normalized[idx]))
            )
        return rows


def global_ranking(
    explanations: Sequence[Explanation], feature_names: Sequence[str]
) -> GlobalRanking:
    if not explanations:
        raise ValueError("need at least one explanation to rank")
    width = len(explanations[0].phi)
    if any(len(e.phi) != width for e in explanations):
        raise ValueError("explanations disagree on feature count")
    if len(feature_names) != width:
        raise ValueError("feature_names width mismatch")
    mean_abs = np.mean([np.abs(e.phi) for e in explanations], axis=0)
    peak = float(mean_abs.max())
    # All-zero attributions stay zero rather than dividing by zero.
    normalized = mean_abs / peak if peak > 0 else mean_abs.copy()
    order = sorted(range(width), key=lambda j: (-normalized[j], j))
    return GlobalRanking(
        feature_names=list(feature_names), mean_abs=mean_abs,
        normalized=normalized, order=order,
    )


def explain_samples(
    model,
    X_explain: np.ndarray,
    background: np.ndarray,
    method: str,
    coalition_budget: int | str = 2048,
    seed: int = 0,
) -> list[Explanation]:
    """Explain each row of ``X_explain`` with the chosen engine. The tree
    engine compiles the forest against the background once for all rows."""
    if method not in ("tree", "kernel", "exact"):
        raise ValueError(f"unknown explanation method {method!r}")
    X_explain = np.asarray(X_explain, dtype=float)
    if method == "tree":
        if not isinstance(model, Forest):
            raise ValueError("tree method requires a forest model")
        plan = compile_tree_shap(model, background)
        return [tree_shap(model, x, background, plan=plan) for x in X_explain]
    out = []
    for i, x in enumerate(X_explain):
        vf = CoalitionValueFunction(model.predict_proba, x, background)
        if method == "exact":
            out.append(exact_shapley(vf))
        else:
            out.append(kernel_shap(vf, coalition_budget, seed=seed + i))
    return out
