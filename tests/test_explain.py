"""Attribution engines against an independent permutation-enumeration oracle,
the classical axioms, closed forms, and the engine-agreement triangle."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import flowlens.explain as explain_mod
from flowlens.explain import (CoalitionValueFunction, _indicator_tables, _unpack,
                              compile_tree_shap, exact_shapley, explain_samples,
                              global_ranking, kernel_shap, tree_shap)
from flowlens.forest import DecisionTree, Forest, ForestParams, train_forest
from flowlens.mlp import MlpParams, init_mlp
from test_forest import _constant_tree, make_stump

RNG = np.random.Generator(np.random.PCG64(2024))


def coalition_value(vf, subset):
    """value(S) of one coalition, given as the features it holds."""
    mask = np.zeros((1, vf.p), dtype=bool)
    mask[0, np.asarray(list(subset), dtype=np.int64)] = True
    return float(vf.values_for_masks(mask)[0])


def permutation_shapley(vf):
    """Independent oracle: average marginal contribution over all orderings."""
    p = vf.p
    phi = np.zeros(p)
    for order in itertools.permutations(range(p)):
        before: list[int] = []
        for j in order:
            phi[j] += coalition_value(vf, before + [j]) - coalition_value(vf, before)
            before.append(j)
    return phi / math.factorial(p)


def linear_model(w, c=0.0):
    w = np.asarray(w, dtype=float)
    return lambda X: np.asarray(X, dtype=float) @ w + c


def random_forest_instance(rng, p=None, n_trees=None, depth=None, nb=None):
    p = p or int(rng.integers(2, 11))
    n = 50
    X = rng.random((n, p))
    w = rng.random(p)
    y = (X @ w > np.median(X @ w)).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    forest = train_forest(X, y, ForestParams(
        n_trees=n_trees or int(rng.integers(1, 11)),
        max_depth=depth or int(rng.integers(1, 5)),
        seed=int(rng.integers(0, 10_000)),
    ))
    x = rng.random(p)
    B = rng.random((nb or int(rng.integers(1, 9)), p))
    return forest, x, B


# --- value function -------------------------------------------------------------

def test_full_coalition_is_model_prediction():
    model = linear_model([1.0, 2.0, 3.0], c=0.5)
    x = np.array([0.1, 0.2, 0.3])
    B = RNG.random((5, 3))
    vf = CoalitionValueFunction(model, x, B)
    assert coalition_value(vf, [0, 1, 2]) == pytest.approx(model(x.reshape(1, -1))[0])


def test_empty_coalition_is_background_prediction():
    model = linear_model([2.0, -1.0])
    b = np.array([[0.4, 0.7]])
    vf = CoalitionValueFunction(model, np.array([1.0, 1.0]), b)
    assert coalition_value(vf, []) == pytest.approx(model(b)[0])
    assert vf.base_value() == pytest.approx(model(b)[0])


def test_additive_model_single_feature_substitution():
    model = linear_model([1.0, 1.0])
    vf = CoalitionValueFunction(model, np.array([1.0, 1.0]), np.array([[0.0, 0.0]]))
    assert coalition_value(vf, [0]) == pytest.approx(1.0)


def test_empty_background_rejected():
    with pytest.raises(ValueError):
        CoalitionValueFunction(linear_model([1.0]), np.array([1.0]), np.zeros((0, 1)))


# --- exact enumeration ------------------------------------------------------------

def test_exact_matches_permutation_oracle():
    for _ in range(10):
        p = int(RNG.integers(2, 6))
        w2 = RNG.random((p, p))
        model = lambda X, W=w2: np.einsum("ni,ij,nj->n", X, W, X)  # quadratic
        x = RNG.random(p)
        B = RNG.random((int(RNG.integers(1, 5)), p))
        vf = CoalitionValueFunction(model, x, B)
        expected = permutation_shapley(vf)
        got = exact_shapley(vf)
        assert np.max(np.abs(got.phi - expected)) <= 1e-10
        assert got.additivity_gap() <= 1e-9


def test_symmetric_features_get_equal_values():
    model = lambda X: (X[:, 0] + X[:, 1]) ** 2 + X[:, 2]
    x = np.array([0.7, 0.7, 0.1])
    B = np.array([[0.2, 0.2, 0.9], [0.4, 0.4, 0.3]])
    e = exact_shapley(CoalitionValueFunction(model, x, B))
    assert e.phi[0] == pytest.approx(e.phi[1], abs=1e-12)


def test_ignored_feature_gets_zero():
    model = lambda X: X[:, 0] * 2.0
    x = np.array([0.9, 0.5])
    B = RNG.random((4, 2))
    e = exact_shapley(CoalitionValueFunction(model, x, B))
    assert e.phi[1] == pytest.approx(0.0, abs=1e-12)


def test_linear_closed_form():
    for _ in range(10):
        p = int(RNG.integers(2, 9))
        w = RNG.random(p) * 4 - 2
        c = float(RNG.random())
        x = RNG.random(p)
        B = RNG.random((int(RNG.integers(1, 7)), p))
        e = exact_shapley(CoalitionValueFunction(linear_model(w, c), x, B))
        expected = w * (x - B.mean(axis=0))
        assert np.max(np.abs(e.phi - expected)) <= 1e-10


def test_model_linearity_of_attributions():
    p = 4
    x = RNG.random(p)
    B = RNG.random((3, p))
    f1, _, _ = random_forest_instance(RNG, p=p, nb=3)
    f2, _, _ = random_forest_instance(RNG, p=p, nb=3)
    alpha, beta = 0.6, 0.4
    combo = lambda X: alpha * f1.predict_proba(X) + beta * f2.predict_proba(X)
    e1 = exact_shapley(CoalitionValueFunction(f1.predict_proba, x, B))
    e2 = exact_shapley(CoalitionValueFunction(f2.predict_proba, x, B))
    ec = exact_shapley(CoalitionValueFunction(combo, x, B))
    assert np.max(np.abs(ec.phi - (alpha * e1.phi + beta * e2.phi))) <= 1e-10


def test_exact_feature_limit_directs_to_kernel():
    p = 21
    vf = CoalitionValueFunction(linear_model(np.ones(p)), np.ones(p), np.zeros((1, p)))
    with pytest.raises(ValueError, match="kernel"):
        exact_shapley(vf)


# --- kernel method -----------------------------------------------------------------

def test_kernel_full_equals_exact():
    for _ in range(10):
        forest, x, B = random_forest_instance(RNG, p=int(RNG.integers(2, 9)))
        vf = CoalitionValueFunction(forest.predict_proba, x, B)
        exact = exact_shapley(vf)
        kernel = kernel_shap(vf, 1 << vf.p)
        assert np.max(np.abs(kernel.phi - exact.phi)) <= 1e-6
        assert kernel.additivity_gap() <= 1e-6


def test_kernel_largest_budget_enumerates_everything():
    rng = np.random.Generator(np.random.PCG64(5))
    forest, x, B = random_forest_instance(rng, p=5)
    vf = CoalitionValueFunction(forest.predict_proba, x, B)
    kernel = kernel_shap(vf, 1 << 20)
    assert np.max(np.abs(kernel.phi - exact_shapley(vf).phi)) <= 1e-6


def test_kernel_recovers_linear_model_at_modest_budget():
    for _ in range(5):
        p = int(RNG.integers(3, 10))
        w = RNG.random(p) * 2 - 1
        x = RNG.random(p)
        B = RNG.random((4, p))
        vf = CoalitionValueFunction(linear_model(w, 0.3), x, B)
        expected = w * (x - B.mean(axis=0))
        for budget in (p + 2, 2 * p + 2):
            e = kernel_shap(vf, budget, seed=1)
            assert np.max(np.abs(e.phi - expected)) <= 1e-6


def test_kernel_budget_below_minimum_rejected():
    """A budget outside [p + 2, 2**20] is refused, the top at any p."""
    for p in (5, 39):
        vf = CoalitionValueFunction(linear_model(np.ones(p)), np.ones(p), np.zeros((1, p)))
        with pytest.raises(ValueError, match=f"must be at least {p + 2} for {p} features"):
            kernel_shap(vf, p + 1)
        for budget in ((1 << 20) + 1, 1 << 39):
            with pytest.raises(ValueError, match="must be at most 1048576"):
                kernel_shap(vf, budget)


def test_kernel_non_finite_model_values_rejected():
    # NaN only where feature 0 is present: the base value stays finite and
    # the one solve carries the NaN into phi.
    p = 4

    def model(X):
        out = X.sum(axis=1)
        out[X[:, 0] > 0.5] = np.nan
        return out

    vf = CoalitionValueFunction(model, np.ones(p), np.zeros((2, p)))
    with pytest.raises(ValueError, match="model returned non-finite values"):
        kernel_shap(vf, 10, seed=0)


def test_kernel_deterministic_per_seed():
    forest, x, B = random_forest_instance(RNG, p=7)
    vf = CoalitionValueFunction(forest.predict_proba, x, B)
    a = kernel_shap(vf, 40, seed=9)
    b = kernel_shap(vf, 40, seed=9)
    assert np.array_equal(a.phi, b.phi)


@pytest.mark.parametrize("p", [1, 8, 20])
def test_unpack_matches_broadcast_expression(p):
    masks = np.arange(1 << p)
    assert np.array_equal(_unpack(masks, p), (masks[:, None] >> np.arange(p)) & 1 == 1)


def test_value_batches_do_not_change_phi(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(31))
    mlp = init_mlp(8, MlpParams(hidden=(7, 5), seed=4))
    mlp.biases = [rng.random(len(b)) - 0.5 for b in mlp.biases]
    X = rng.random((80, 8))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0.7).astype(int)
    forest = train_forest(X, y, ForestParams(n_trees=4, max_depth=5, seed=2))
    models = {"mlp": mlp, "forest": forest}
    x, B = rng.random(8), rng.random((5, 8))
    engines = {"exact": exact_shapley, "kernel full": lambda vf: kernel_shap(vf, 1 << vf.p),
               "kernel 60": lambda vf: kernel_shap(vf, 60, seed=3)}

    def explain_all():
        return {(m, e): run(CoalitionValueFunction(model.predict_proba, x, B))
                for m, model in models.items() for e, run in engines.items()}

    default = explain_all()
    calls = []
    values_for_masks = CoalitionValueFunction.values_for_masks

    def counting(self, masks):
        calls.append(len(masks))
        return values_for_masks(self, masks)

    monkeypatch.setattr(CoalitionValueFunction, "values_for_masks", counting)
    monkeypatch.setattr(explain_mod, "_BLOCK_ELEMENTS", 1)  # one coalition per batch
    for key, e in explain_all().items():
        assert np.array_equal(e.phi, default[key].phi), key
        assert e.base_value == default[key].base_value
        assert e.predicted == default[key].predicted
    # one call per explanation, with every coalition the engine evaluates
    assert len(calls) == len(default)
    assert calls[:2] == [256, 254]  # exact: all 2^8; kernel full: all but empty and full


def test_kernel_shap_memory_is_bounded():
    rng = np.random.Generator(np.random.PCG64(8))
    p = 39
    X = rng.random((300, p))
    y = (X[:, 0] + X[:, 3] > 1).astype(int)
    models = {"mlp": init_mlp(p), "forest": train_forest(X, y, ForestParams(n_trees=5, seed=1))}
    x, B = rng.random(p), rng.random((100, p))
    for name, model in models.items():
        vf = CoalitionValueFunction(model.predict_proba, x, B)
        tracemalloc.start()
        try:
            kernel_shap(vf, 2048, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (name, peak)


# sha256 of phi and the base value (float64 bytes) of each model-agnostic engine
# on one fixed smooth model over 8 features. Budgets 20 and 60 take the sampled
# path (2 and 42 sampled coalitions after the size-1 and size-7 rings). A change
# to these bytes is a change to coalition order, weights or the value function,
# and must be deliberate.
GOLDEN_SHAPLEY_SHA256 = {
    "exact": "635bf3ac2a311589f728d914ab5e01f47aaefd60c489d8264bce5985932284bf",
    "kernel full": "2a717e5136908b6c1c7be3cd460f812f0b52eaf55438b7e852b9a6194f20272b",
    "kernel 20 seed 3": "06ca2f2a28a9f9feb72e7fe64f02dbc5032ec64e3c9b3eb9b0cb2f85ddb94909",
    "kernel 60 seed 11": "0f15f398ab6e315ecf1c13827793c9dd03690c2db067905e5225a441a1496366",
    "value": "363b2144bb16424b7a1c31ee1216dca2ff3fce16b388e77e8e759950c9dc05a8",
}


def test_shapley_engines_match_golden_digests():
    p = 8
    rng = np.random.Generator(np.random.PCG64(17))
    w = rng.random(p) * 2 - 1
    x = rng.random(p)
    B = rng.random((5, p))

    def model(X):
        z = (X * w).sum(axis=1) + 3 * X[:, 0] * X[:, 1] - X[:, 2] ** 2
        return 1 / (1 + np.exp(-z))

    vf = CoalitionValueFunction(model, x, B)
    explanations = {
        "exact": exact_shapley(vf),
        "kernel full": kernel_shap(vf, 1 << p),
        "kernel 20 seed 3": kernel_shap(vf, 20, seed=3),
        "kernel 60 seed 11": kernel_shap(vf, 60, seed=11),
    }
    digests = {name: hashlib.sha256(e.phi.tobytes() + np.float64(e.base_value).tobytes())
               .hexdigest() for name, e in explanations.items()}
    values = np.array([coalition_value(vf, subset) for subset in ([], [0, 3, 5], range(p))])
    digests["value"] = hashlib.sha256(values.tobytes()).hexdigest()
    assert digests == GOLDEN_SHAPLEY_SHA256


# --- tree method --------------------------------------------------------------------

def test_indicator_tables_match_exact_indicator_game():
    # u(S) = [X in S and B disjoint S] with X = features 0..a-1 and B the next
    # c features: x = ones against one all-zero background row turns the model
    # prod_X z * prod_B (1 - z) into exactly that game.
    for p in range(1, 9):
        table_x, table_b = _indicator_tables(p)
        for a in range(p + 1):
            for c in range(p + 1 - a):
                X, B = slice(0, a), slice(a, a + c)

                def model(Z, X=X, B=B):
                    return np.prod(Z[:, X], axis=1) * np.prod(1.0 - Z[:, B], axis=1)

                vf = CoalitionValueFunction(model, np.ones(p), np.zeros((1, p)))
                phi = exact_shapley(vf).phi
                assert np.all(np.abs(phi[X] - table_x[a, c]) <= 1e-12)
                assert np.all(np.abs(phi[B] - table_b[a, c]) <= 1e-12)
                assert np.all(np.abs(phi[a + c:]) <= 1e-12)


def test_indicator_tables_do_not_depend_on_width():
    small_x, small_b = _indicator_tables(8)
    wide_x, wide_b = _indicator_tables(77)  # cic learnable width
    for a in range(9):
        for c in range(9 - a):
            assert wide_x[a, c] == small_x[a, c]
            assert wide_b[a, c] == small_b[a, c]


def test_constant_tree_gives_zero_attributions():
    from test_forest import _constant_tree

    forest = Forest(trees=[_constant_tree(0.7)], params=ForestParams(n_trees=1),
                    n_features=3)
    e = tree_shap(forest, np.array([0.1, 0.2, 0.3]), RNG.random((4, 3)))
    assert np.all(e.phi == 0.0)
    assert e.base_value == pytest.approx(0.7)
    assert e.predicted == pytest.approx(0.7)


def test_stump_with_x_and_background_on_same_side():
    stump = make_stump(0, 0.5, 0.2, 0.9)
    forest = Forest(trees=[stump], params=ForestParams(n_trees=1), n_features=2)
    x = np.array([0.1, 0.6])
    B = np.array([[0.2, 0.1], [0.3, 0.9]])  # same side of the split as x
    e = tree_shap(forest, x, B)
    assert np.all(np.abs(e.phi) <= 1e-12)


def test_tree_matches_exact_on_random_instances():
    for _ in range(25):
        forest, x, B = random_forest_instance(RNG)
        vf = CoalitionValueFunction(forest.predict_proba, x, B)
        exact = exact_shapley(vf)
        tree = tree_shap(forest, x, B)
        assert np.max(np.abs(tree.phi - exact.phi)) <= 1e-9
        assert tree.additivity_gap() <= 1e-9


def test_additive_stump_forest_closed_form():
    # One stump per feature: attributions decompose per feature as
    # w_k (s_k(x) - mean_b s_k(b)) with s_k the stump's 0/1 side indicator
    # scaled by its leaf gap.
    p = 4
    thresholds = RNG.random(p)
    los = RNG.random(p) * 0.5
    his = los + RNG.random(p) * 0.5
    trees = [make_stump(k, float(thresholds[k]), float(los[k]), float(his[k]))
             for k in range(p)]
    forest = Forest(trees=trees, params=ForestParams(n_trees=p), n_features=p)
    x = RNG.random(p)
    B = RNG.random((6, p))

    def stump_out(k, values):
        return np.where(values <= thresholds[k], los[k], his[k])

    expected = np.array([
        (stump_out(k, np.array([x[k]]))[0] - stump_out(k, B[:, k]).mean()) / p
        for k in range(p)
    ])
    tree = tree_shap(forest, x, B)
    assert np.max(np.abs(tree.phi - expected)) <= 1e-6
    exact = exact_shapley(CoalitionValueFunction(forest.predict_proba, x, B))
    assert np.max(np.abs(exact.phi - expected)) <= 1e-6
    kernel = kernel_shap(CoalitionValueFunction(forest.predict_proba, x, B), 1 << p)
    assert np.max(np.abs(kernel.phi - expected)) <= 1e-6


def test_tree_width_check():
    forest, x, B = random_forest_instance(RNG, p=4)
    with pytest.raises(ValueError):
        tree_shap(forest, x[:3], B)


def test_repeated_feature_along_path():
    # feature 0 tested twice on one path: interval membership must merge
    from flowlens.forest import DecisionTree

    tree = DecisionTree(
        feature=np.array([0, 0, -1, -1, -1]),
        threshold=np.array([0.6, 0.3, 0.0, 0.0, 0.0]),
        left=np.array([1, 2, -1, -1, -1]),
        right=np.array([4, 3, -1, -1, -1]),
        count=np.array([4, 2, 1, 1, 2]),
        prob=np.array([0.5, 0.5, 0.1, 0.9, 0.4]),
    )
    forest = Forest(trees=[tree], params=ForestParams(n_trees=1), n_features=2)
    x = np.array([0.45, 0.5])   # through root-left then right: leaf 0.9
    B = np.array([[0.2, 0.5], [0.8, 0.5]])
    vf = CoalitionValueFunction(forest.predict_proba, x, B)
    exact = exact_shapley(vf)
    tree_e = tree_shap(forest, x, B)
    assert np.max(np.abs(tree_e.phi - exact.phi)) <= 1e-12


def loop_tree_shap(forest, x, B):
    """Reference: interventional tree SHAP as a plain loop over trees, leaves,
    background rows and path conditions, without merged intervals."""
    table_x, table_b = _indicator_tables(forest.n_features)
    phi = np.zeros(forest.n_features)
    for tree in forest.trees:
        stack = [(0, [])]
        while stack:
            node, conds = stack.pop()
            f = int(tree.feature[node])
            if f >= 0:
                thr = float(tree.threshold[node])
                stack.append((int(tree.left[node]), conds + [(f, thr, True)]))
                stack.append((int(tree.right[node]), conds + [(f, thr, False)]))
                continue
            feats = sorted({g for g, _, _ in conds})

            def follows(row, g, conds=conds):
                return all((row[g] <= thr) == left for h, thr, left in conds if h == g)

            for b in B:
                x_ok = {g: follows(x, g) for g in feats}
                b_ok = {g: follows(b, g) for g in feats}
                if any(not x_ok[g] and not b_ok[g] for g in feats):
                    continue
                xs = [g for g in feats if x_ok[g] and not b_ok[g]]
                bs = [g for g in feats if b_ok[g] and not x_ok[g]]
                for g in xs:
                    phi[g] += tree.prob[node] * table_x[len(xs), len(bs)]
                for g in bs:
                    phi[g] += tree.prob[node] * table_b[len(xs), len(bs)]
    return phi / (len(B) * len(forest.trees))


def repeated_split_forest():
    """Three trees over 3 features. The first splits twice on feature 0 along
    two of its paths. The second repeats splits on feature 2 that its path
    already decides, one on each side, so two of its leaves are out of reach
    (0.7 < z2 <= 0.6 and 0.6 < z2 <= 0.3). The third is a single leaf."""
    nested = DecisionTree(
        feature=np.array([0, 1, 0, -1, -1, -1, 0, 2, -1, -1, -1]),
        threshold=np.array([0.5, 0.3, 0.2, 0, 0, 0, 0.8, 0.4, 0, 0, 0]),
        left=np.array([1, 2, 3, -1, -1, -1, 7, 8, -1, -1, -1]),
        right=np.array([6, 5, 4, -1, -1, -1, 10, 9, -1, -1, -1]),
        count=np.ones(11, dtype=np.int64),
        prob=np.array([0.5, 0.5, 0.5, 0.1, 0.7, 0.3, 0.5, 0.5, 0.9, 0.2, 0.6]),
    )
    redundant = DecisionTree(
        feature=np.array([2, 2, -1, -1, 2, -1, 1, -1, -1]),
        threshold=np.array([0.6, 0.7, 0, 0, 0.3, 0, 0.5, 0, 0]),
        left=np.array([1, 2, -1, -1, 5, -1, 7, -1, -1]),
        right=np.array([4, 3, -1, -1, 6, -1, 8, -1, -1]),
        count=np.ones(9, dtype=np.int64),
        prob=np.array([0.5, 0.5, 0.25, 0.95, 0.5, 0.05, 0.5, 0.4, 0.8]),
    )
    return Forest(trees=[nested, redundant, _constant_tree(0.35)],
                  params=ForestParams(n_trees=3), n_features=3)


def test_repeated_splits_and_constant_tree_match_exact():
    forest = repeated_split_forest()
    # values on and around every threshold: a row equal to one goes left
    grid = np.array([0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.8, 0.95])
    for _ in range(30):
        x = RNG.choice(grid, size=3)
        B = RNG.choice(grid, size=(int(RNG.integers(1, 6)), 3))
        exact = exact_shapley(CoalitionValueFunction(forest.predict_proba, x, B))
        tree = tree_shap(forest, x, B)
        assert np.max(np.abs(tree.phi - exact.phi)) <= 1e-9
        assert tree.additivity_gap() <= 1e-9
        assert np.max(np.abs(tree.phi - loop_tree_shap(forest, x, B))) <= 1e-12


def test_deep_trees_on_few_features_match_exact():
    # depth 8 over 2-3 features: most paths split on a feature more than once
    for _ in range(10):
        forest, x, B = random_forest_instance(RNG, p=int(RNG.integers(2, 4)), depth=8)
        exact = exact_shapley(CoalitionValueFunction(forest.predict_proba, x, B))
        assert np.max(np.abs(tree_shap(forest, x, B).phi - exact.phi)) <= 1e-9


def test_wide_forest_matches_loop_reference():
    # beyond exact enumeration: 30 features, against the plain loop
    for _ in range(3):
        forest, x, B = random_forest_instance(RNG, p=30, n_trees=3, depth=8, nb=10)
        tree = tree_shap(forest, x, B)
        assert np.max(np.abs(tree.phi - loop_tree_shap(forest, x, B))) <= 1e-12
        assert tree.additivity_gap() <= 1e-9


@pytest.mark.parametrize("p", [39, 77])
def test_tree_matches_exact_at_the_paper_widths(p):
    """At the netflow and cic widths. A feature no tree splits on is a dummy
    player: its phi is 0, and holding it at x leaves the game on the other
    features unchanged. So exact enumeration over the features the forest
    splits on gives the phi at full width."""
    rng = np.random.Generator(np.random.PCG64(p))
    X = rng.random((200, p))
    y = (X[:, :5].sum(axis=1) > 2.5).astype(int)
    forest = train_forest(X, y, ForestParams(n_trees=2, max_depth=3, seed=p))
    used = np.unique(np.concatenate([t.feature[t.feature >= 0] for t in forest.trees]))
    unused = np.setdiff1d(np.arange(p), used)
    assert 2 <= len(used) <= 12
    B = rng.random((6, p))
    for x in rng.random((2, p)):
        def predict(Z, x=x):
            rows = np.tile(x, (len(Z), 1))
            rows[:, used] = Z
            return forest.predict_proba(rows)

        exact = exact_shapley(CoalitionValueFunction(predict, x[used], B[:, used]))
        tree = tree_shap(forest, x, B)
        assert np.max(np.abs(tree.phi[used] - exact.phi)) <= 1e-9
        assert np.all(tree.phi[unused] == 0.0)
        assert tree.additivity_gap() <= 1e-9


def test_shared_plan_gives_same_phi():
    forest, _, B = random_forest_instance(RNG, p=6, n_trees=5, depth=4, nb=7)
    plan = compile_tree_shap(forest, B)
    for x in RNG.random((4, 6)):
        own = tree_shap(forest, x, B)
        shared = tree_shap(forest, x, B, plan=plan)
        assert np.array_equal(own.phi, shared.phi)
        assert own.base_value == shared.base_value
        assert own.predicted == shared.predicted


def test_blocks_do_not_change_phi(monkeypatch):
    forest, _, B = random_forest_instance(RNG, p=8, n_trees=6, depth=5, nb=9)
    X = RNG.random((3, 8))
    whole = [tree_shap(forest, x, B).phi for x in X]
    monkeypatch.setattr(explain_mod, "_BLOCK_ELEMENTS", 1)  # one path per block
    for x, phi in zip(X, whole):
        assert np.max(np.abs(tree_shap(forest, x, B).phi - phi)) <= 1e-15


def test_explain_samples_calls_tree_shap_once_per_row(monkeypatch):
    forest, _, B = random_forest_instance(RNG, p=5, n_trees=3, depth=3, nb=4)
    X = RNG.random((6, 5))
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("plan"))
        return tree_shap(*args, **kwargs)

    monkeypatch.setattr(explain_mod, "tree_shap", counting)
    out = explain_samples(forest, X, B, method="tree")
    assert len(calls) == len(X) == len(out)
    assert calls[0] is not None and all(plan is calls[0] for plan in calls)
    for x, e in zip(X, out):
        assert np.array_equal(e.phi, tree_shap(forest, x, B).phi)


def test_tree_rejects_non_finite_inputs():
    forest, x, B = random_forest_instance(RNG, p=3, nb=2)
    with pytest.raises(ValueError, match="non-finite"):
        tree_shap(forest, np.array([0.1, np.nan, 0.2]), B)
    with pytest.raises(ValueError, match="non-finite"):
        compile_tree_shap(forest, np.vstack([B, [np.inf, 0.0, 0.0]]))


# --- global ranking ------------------------------------------------------------------

def _expl(phi):
    from flowlens.explain import Explanation
    return Explanation(phi=np.asarray(phi, dtype=float), base_value=0.0,
                       predicted=0.0, method="exact")


def test_ranking_normalization_and_order():
    r = global_ranking([_expl([0.2, -0.4])], ["a", "b"])
    assert r.normalized.tolist() == [0.5, 1.0]
    assert r.order == [1, 0]
    top = r.top(2)
    assert top[0][:2] == (1, "b")
    assert top[0][3] == 1.0


def test_ranking_all_zero_skips_normalization():
    r = global_ranking([_expl([0.0, 0.0, 0.0])], ["a", "b", "c"])
    assert r.normalized.tolist() == [0.0, 0.0, 0.0]
    assert r.order == [0, 1, 2]  # ties fall back to column order


def test_ranking_mean_invariant_under_duplication():
    batch = [_expl([0.1, 0.3]), _expl([0.5, 0.1])]
    r1 = global_ranking(batch, ["a", "b"])
    r2 = global_ranking(batch + batch, ["a", "b"])
    assert np.allclose(r1.mean_abs, r2.mean_abs)
    assert r1.order == r2.order


def test_ranking_scale_invariance():
    batch = [_expl([0.2, -0.7, 0.4]), _expl([-0.1, 0.2, 0.6])]
    scaled = [_expl(3.5 * e.phi) for e in batch]
    r1 = global_ranking(batch, ["a", "b", "c"])
    r2 = global_ranking(scaled, ["a", "b", "c"])
    assert r1.order == r2.order
    assert np.allclose(r1.normalized, r2.normalized)


def test_ranking_tie_break_by_column_order():
    r = global_ranking([_expl([0.5, 0.5, 0.1])], ["z_col", "a_col", "m_col"])
    assert r.order[:2] == [0, 1]


def test_explain_samples_dispatch_and_agreement():
    forest, x, B = random_forest_instance(RNG, p=5, n_trees=4, depth=3, nb=4)
    X = np.vstack([x, B[0]])
    tree_es = explain_samples(forest, X, B, method="tree")
    exact_es = explain_samples(forest, X, B, method="exact")
    kernel_es = explain_samples(forest, X, B, method="kernel", coalition_budget=1 << 5)
    for t, e, k in zip(tree_es, exact_es, kernel_es):
        assert np.max(np.abs(t.phi - e.phi)) <= 1e-9
        assert np.max(np.abs(k.phi - e.phi)) <= 1e-6
    with pytest.raises(ValueError):
        explain_samples(linear_model(np.ones(5)), X, B, method="tree")
