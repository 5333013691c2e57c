"""Feed-forward binary classifier trained by mini-batch gradient descent.

Rectifier hidden layers, logistic scalar output, cross-entropy loss computed
from logits for numerical stability. Everything is plain numpy; gradients are
exact backpropagation and are checked against finite differences in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class MlpParams:
    hidden: tuple[int, ...] = (64, 32, 16)
    learning_rate: float = 0.05
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bce_from_logits(z: np.ndarray, y: np.ndarray) -> float:
    # mean(softplus(z) - y*z), with a stable softplus
    sp = np.logaddexp(0.0, z)
    return float(np.mean(sp - y * z))


@dataclass
class Mlp:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    params: MlpParams
    n_features: int
    loss_history: list[float] = field(default_factory=list)

    def _forward(self, X: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Returns (pre-activations per layer, activations per layer incl. input).

        Only ``_backprop`` needs these; inference goes through ``logits``,
        which keeps none of them."""
        zs, acts = [], [X]
        a = X
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W + b
            zs.append(z)
            a = z if i == len(self.weights) - 1 else _relu(z)
            acts.append(a)
        return zs, acts

    def logits(self, X: np.ndarray) -> np.ndarray:
        """The output unit's pre-activation for each row of ``X``: the same
        arithmetic as ``_forward``, in one live buffer per layer."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got shape {X.shape}")
        a = X
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ W
            a += b
            if i < last:
                np.maximum(a, 0.0, out=a)
        return a[:, 0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if not np.isfinite(X).all():
            raise ValueError("input contains non-finite values")
        return _sigmoid(self.logits(X))

    def predict_proba_one(self, x) -> float:
        return float(self.predict_proba(np.asarray([x], dtype=float))[0])


def init_mlp(n_features: int, params: MlpParams | None = None) -> Mlp:
    """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)); zero biases."""
    if params is None:
        params = MlpParams()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([params.seed])))
    sizes = [n_features, *params.hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights=weights, biases=biases, params=params, n_features=n_features)


def _backprop(mlp: Mlp, X: np.ndarray, y: np.ndarray):
    """Gradients of the mean cross-entropy loss w.r.t. every weight and bias,
    for float arrays of the right width, and the output unit's pre-activation
    for each row, from the same forward pass."""
    n = len(X)
    zs, acts = mlp._forward(X)
    delta = (_sigmoid(zs[-1]) - y.reshape(-1, 1)) / n
    dWs: list[np.ndarray] = [None] * len(mlp.weights)  # type: ignore[list-item]
    dbs: list[np.ndarray] = [None] * len(mlp.biases)  # type: ignore[list-item]
    for layer in range(len(mlp.weights) - 1, -1, -1):
        dWs[layer] = acts[layer].T @ delta
        dbs[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ mlp.weights[layer].T) * (zs[layer - 1] > 0)
    return dWs, dbs, zs[-1][:, 0]


class DivergenceError(RuntimeError):
    """The loss or the weights went non-finite; on finite inputs, the step
    size is too large."""


def train_mlp(
    X: np.ndarray,
    y: np.ndarray,
    params: MlpParams | None = None,
) -> Mlp:
    """Mini-batch gradient descent on cross-entropy; deterministic per seed.
    ``loss_history`` holds each epoch's mean batch loss, each taken before
    its batch's step.

    Raises DivergenceError if the loss or the weights go non-finite
    (diverging step size).
    """
    if params is None:
        params = MlpParams()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(X) != len(y):
        raise ValueError("X and y length mismatch")
    if not len(y) or y.min() == y.max():
        raise ValueError("training data has a single class; cannot fit a discriminator")

    mlp = init_mlp(X.shape[1], params)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([params.seed, 1])))
    y = y.astype(float)
    n = len(X)
    diverged = (f"lower the learning rate "
                f"(lr={params.learning_rate}, batch_size={params.batch_size})")
    # A diverging step overflows on its way to the non-finite loss or weights
    # checked below, which report it; numpy's own warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(params.epochs):
            order = rng.permutation(n)
            X_epoch, y_epoch = X[order], y[order]
            epoch_losses = []
            for start in range(0, n, params.batch_size):
                xb = X_epoch[start : start + params.batch_size]
                yb = y_epoch[start : start + params.batch_size]
                dWs, dbs, z = _backprop(mlp, xb, yb)
                epoch_losses.append(_bce_from_logits(z, yb))
                for i in range(len(mlp.weights)):
                    mlp.weights[i] -= params.learning_rate * dWs[i]
                    mlp.biases[i] -= params.learning_rate * dbs[i]
            loss = float(np.mean(epoch_losses))
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"training diverged: non-finite loss at epoch {epoch}; {diverged}")
            mlp.loss_history.append(loss)
    # The losses are taken before each step: the last step is checked here.
    if not all(np.isfinite(a).all() for a in (*mlp.weights, *mlp.biases)):
        raise DivergenceError(
            f"training diverged: non-finite weights after the last epoch; {diverged}")
    return mlp
