"""Feed-forward net: gradient correctness against central finite differences,
realizability on the classic toy sets, and the documented edge behaviours."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens.mlp import Mlp, MlpParams, _backprop, _bce_from_logits, init_mlp, train_mlp

AND_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
AND_Y = np.array([0, 0, 0, 1])
XOR_Y = np.array([0, 1, 1, 0])


def loss(mlp, X, y):
    """Mean cross-entropy of ``mlp`` on ``X`` against the 0/1 labels ``y``."""
    return _bce_from_logits(mlp.logits(X), np.asarray(y, dtype=float))


def numeric_gradient(mlp, X, y, h=1e-4):
    """Central finite differences over every weight and bias."""
    dWs, dbs = [], []
    for W in mlp.weights:
        G = np.zeros_like(W)
        for i in range(W.shape[0]):
            for j in range(W.shape[1]):
                W[i, j] += h
                up = loss(mlp, X, y)
                W[i, j] -= 2 * h
                down = loss(mlp, X, y)
                W[i, j] += h
                G[i, j] = (up - down) / (2 * h)
        dWs.append(G)
    for b in mlp.biases:
        g = np.zeros_like(b)
        for i in range(len(b)):
            b[i] += h
            up = loss(mlp, X, y)
            b[i] -= 2 * h
            down = loss(mlp, X, y)
            b[i] += h
            g[i] = (up - down) / (2 * h)
        dbs.append(g)
    return dWs, dbs


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.abs(n) + 1e-8
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(0))
    X = rng.random((6, 3)) * 2 - 1
    y = rng.integers(0, 2, 6)
    mlp = init_mlp(3, MlpParams(hidden=(5, 4), seed=1))
    dWs, dbs, _ = _backprop(mlp, X, y)
    nWs, nbs = numeric_gradient(mlp, X, y)
    assert max_rel_error(dWs, nWs) <= 1e-5
    assert max_rel_error(dbs, nbs) <= 1e-5


def test_all_zero_weights_give_half_probability():
    mlp = init_mlp(4, MlpParams(hidden=(3,), seed=0))
    for W in mlp.weights:
        W[:] = 0.0
    assert mlp.predict_proba(np.random.rand(5, 4)).tolist() == [0.5] * 5
    assert mlp.predict_proba_one([1.0, 2.0, 3.0, 4.0]) == 0.5


def test_inactive_rectifier_unit_gets_zero_gradient():
    mlp = init_mlp(2, MlpParams(hidden=(2,), seed=3))
    # hidden unit 0 inactive for the input, unit 1 active with live output path
    mlp.weights[0][:, 0] = -1.0
    mlp.biases[0][0] = -5.0
    mlp.weights[0][:, 1] = 1.0
    mlp.biases[0][1] = 0.0
    mlp.weights[1][:, 0] = 1.0
    X = np.array([[1.0, 1.0]])
    y = np.array([1])
    dWs, _, _ = _backprop(mlp, X, y)
    assert np.all(dWs[0][:, 0] == 0.0)
    assert np.any(dWs[0][:, 1] != 0.0)


def test_zero_epochs_returns_initialization():
    X, y = AND_X, AND_Y
    params = MlpParams(hidden=(4,), epochs=0, seed=9)
    trained = train_mlp(X, y, params)
    fresh = init_mlp(2, params)
    for a, b in zip(trained.weights, fresh.weights):
        assert np.array_equal(a, b)
    assert trained.loss_history == []


def test_and_is_learnable():
    mlp = train_mlp(AND_X, AND_Y, MlpParams(hidden=(4,), learning_rate=0.8,
                                            epochs=1500, batch_size=4, seed=2))
    preds = (mlp.predict_proba(AND_X) >= 0.5).astype(int)
    assert np.array_equal(preds, AND_Y)


def test_xor_is_learnable_with_hidden_layer():
    mlp = train_mlp(AND_X, XOR_Y, MlpParams(hidden=(16,), learning_rate=1.0,
                                            epochs=3000, batch_size=4, seed=0))
    preds = (mlp.predict_proba(AND_X) >= 0.5).astype(int)
    assert np.array_equal(preds, XOR_Y)


def test_training_deterministic():
    rng = np.random.Generator(np.random.PCG64(4))
    X = rng.random((30, 3))
    y = (X[:, 0] > 0.5).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    params = MlpParams(hidden=(6,), epochs=20, seed=5)
    a = train_mlp(X, y, params)
    b = train_mlp(X, y, params)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.loss_history == b.loss_history


def test_trained_weights_are_pinned():
    """Training arithmetic is fixed: the sha256 of the weights and biases on a
    table whose last batch is short (101 rows, batches of 16)."""
    rng = np.random.Generator(np.random.PCG64(21))
    X = rng.random((101, 6))
    y = (X[:, 0] + 0.5 * X[:, 3] > 0.8).astype(int)
    mlp = train_mlp(X, y, MlpParams(hidden=(8, 4), learning_rate=0.2, epochs=7,
                                    batch_size=16, seed=5))
    digest = hashlib.sha256()
    for a in (*mlp.weights, *mlp.biases):
        digest.update(a.tobytes())
    assert digest.hexdigest() == (
        "352377d6d50e99dd59187aa712fcf46383817abcb3602d79be9e6c38c5ed0261")


def test_loss_history_is_taken_before_each_step():
    """With one batch per epoch, an epoch's loss is the loss of the weights
    the epoch started from."""
    rng = np.random.Generator(np.random.PCG64(3))
    X = rng.random((40, 3))
    y = (X[:, 1] > 0.5).astype(int)
    params = MlpParams(hidden=(5,), learning_rate=0.5, epochs=3, batch_size=40, seed=4)
    start = init_mlp(3, params)
    one = train_mlp(X, y, MlpParams(**{**vars(params), "epochs": 1}))
    mlp = train_mlp(X, y, params)
    assert mlp.loss_history[0] == pytest.approx(loss(start, X, y), rel=1e-12)
    assert mlp.loss_history[1] == pytest.approx(loss(one, X, y), rel=1e-12)


def test_diverging_last_step_aborts():
    """A step that leaves the weights non-finite is refused even when it is
    the last, whose loss no batch records."""
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="non-finite weights"):
        train_mlp(AND_X * 1e3, AND_Y, MlpParams(hidden=(4,), learning_rate=1e308, epochs=1,
                                                batch_size=4, seed=0))


def test_loss_trend_decreases_on_smoothed_window():
    rng = np.random.Generator(np.random.PCG64(8))
    X = rng.random((60, 4))
    y = (X[:, 1] + X[:, 2] > 1.0).astype(int)
    mlp = train_mlp(X, y, MlpParams(hidden=(8,), learning_rate=0.3, epochs=60,
                                    batch_size=16, seed=1))
    hist = np.array(mlp.loss_history)
    head = hist[:10].mean()
    tail = hist[-10:].mean()
    assert tail < head


def test_non_finite_loss_aborts_with_diagnostic():
    # The cross-entropy is computed from logits, which is stable against huge
    # steps, so drive the loss non-finite through the data itself.
    X = np.array([[0.0, 1.0], [1.0, 0.0], [np.inf, 1.0], [1.0, 1.0]])
    y = np.array([0, 1, 0, 1])
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="non-finite"):
        train_mlp(X, y, MlpParams(hidden=(4,), epochs=5, batch_size=4, seed=0))


def test_width_mismatch_rejected():
    mlp = init_mlp(3, MlpParams(hidden=(2,), seed=0))
    with pytest.raises(ValueError):
        mlp.predict_proba(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        mlp.predict_proba_one([0.0, 0.0])


@st.composite
def nets_and_rows(draw):
    width = draw(st.integers(1, 12))
    hidden = tuple(draw(st.lists(st.integers(1, 16), max_size=3)))
    rows = draw(st.integers(1, 40))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    mlp = init_mlp(width, MlpParams(hidden=hidden, seed=int(rng.integers(1000))))
    mlp.biases = [rng.normal(size=len(b)) for b in mlp.biases]
    return mlp, rng.normal(scale=3.0, size=(rows, width))


@settings(max_examples=200)
@given(case=nets_and_rows())
def test_logits_bitwise_equal_to_training_forward(case):
    mlp, X = case
    zs, _ = mlp._forward(X)
    assert mlp.logits(X).tobytes() == zs[-1][:, 0].tobytes()
    # A one-row predict is the batch path on a one-row batch. BLAS may pick
    # another kernel for a taller batch, so against that it is only close.
    batch = mlp.predict_proba(X)
    for i, row in enumerate(X):
        one = mlp.predict_proba_one(row)
        assert np.float64(one).tobytes() == mlp.predict_proba(X[i:i + 1]).tobytes()
        assert one == pytest.approx(batch[i], rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_predict_rejects_non_finite_rows(bad):
    mlp = init_mlp(3, MlpParams(hidden=(4,), seed=0))
    X = np.array([[0.1, 0.2, 0.3], [0.4, bad, 0.6]])
    with pytest.raises(ValueError, match="non-finite"):
        mlp.predict_proba(X)
    with pytest.raises(ValueError, match="non-finite"):
        mlp.predict_proba_one(X[1])
    assert mlp.predict_proba_one(X[0]) == mlp.predict_proba(X[:1])[0]
