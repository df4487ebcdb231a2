"""Backpropagation and the three gradient-descent variants.

A dataset is inputs X (B, n_in) and targets Y (B, n_out), one example per
row.  GD, SGD and minibatch are OptimizerConfig kinds that `train` runs
through the one update, minibatch_step (row gradients summed in ascending
row order, then averaged), on all rows, one row or batch_size rows at a
time; network.ordered_sum adds a gradient's rows in turn, in one numpy
reduce.  Losses are computed for a block at once too.  Only
deterministic-sigmoid models are differentiated; stochastic-firing
networks reuse weights trained in deterministic mode.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import DivergenceError, DomainError, ShapeError
from .formats import write_csv
from .network import (DETERMINISTIC, Layer, NetworkModel, forward_trace,
                      ordered_sum)
from .rngtools import derive_rng

__all__ = [
    "LossSpec",
    "OptimizerConfig",
    "init_model",
    "mean_loss",
    "backprop_gradient",
    "minibatch_step",
    "train",
]

SQUARED_ERROR = "squared-error"
CROSS_ENTROPY = "binary-cross-entropy"

DIVERGENCE_GUARD = 1e6


@dataclass(frozen=True)
class LossSpec:
    kind: str = SQUARED_ERROR

    def __post_init__(self):
        if self.kind not in (SQUARED_ERROR, CROSS_ENTROPY):
            raise DomainError(f"unknown loss kind {self.kind!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str                        # "gd" | "sgd" | "minibatch"
    learning_rate: float
    epochs: int
    batch_size: int = 1              # minibatch only
    lr_decay: float = 0.0            # gamma_t = gamma0 / (1 + decay * t)
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gd", "sgd", "minibatch"):
            raise DomainError(f"unknown optimizer kind {self.kind!r}")
        if not 0 < self.learning_rate < math.inf:
            raise DomainError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        if not 0 <= self.lr_decay < math.inf:
            raise DomainError(f"lr_decay must be finite and non-negative, "
                              f"got {self.lr_decay}")
        if self.epochs < 0 or self.batch_size < 1:
            raise DomainError("invalid optimizer configuration")

    def rate_at(self, step: int) -> float:
        return self.learning_rate / (1.0 + self.lr_decay * step)


def init_model(layer_sizes, seed: int) -> NetworkModel:
    """Uniform(-r, r) weights with r = sqrt(6/(fan_in+fan_out)), zero biases."""
    if min(layer_sizes) < 1:
        raise DomainError(f"layer sizes must be >= 1, got {list(layer_sizes)}")
    rng = derive_rng(seed, "init")
    layers = []
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        r = math.sqrt(6.0 / (n_in + n_out))
        layers.append(Layer(rng.uniform(-r, r, size=(n_out, n_in)),
                            np.zeros(n_out)))
    return NetworkModel(layers=layers, activation_mode=DETERMINISTIC)


def _rows(model: NetworkModel, X, Y):
    """Inputs X (B, n_in) and targets Y (B, n_out) as floats, B >= 1."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.shape != (len(X), model.output_dim):
        raise ShapeError(f"need (B, n_in) inputs and (B, {model.output_dim}) "
                         f"targets, got X{X.shape}, Y{Y.shape}")
    if not len(X):
        raise DomainError("need at least one example")
    return X, Y


def mean_loss(model: NetworkModel, X, Y, loss: LossSpec) -> float:
    """Mean of the losses of the rows of X (B, n_in) against Y (B, n_out),
    added in row order."""
    X, Y = _rows(model, X, Y)
    y_hat = forward_trace(model, X)[-1]
    if loss.kind == SQUARED_ERROR:
        d = y_hat - Y
        losses = 0.5 * (d[..., None, :] @ d[..., :, None])[..., 0, 0]
    else:
        eps = 1e-12
        y_hat = np.clip(y_hat, eps, 1.0 - eps)
        losses = -np.sum(Y * np.log(y_hat) + (1.0 - Y) * np.log(1.0 - y_hat),
                         axis=-1)
    return float(ordered_sum(losses)) / len(losses)


def backprop_gradient(model: NetworkModel, X, Y, loss: LossSpec) -> list:
    """Exact reverse-mode gradient summed over the rows of X (B, n_in) and
    Y (B, n_out), added in ascending row order; one (dW, db) per layer."""
    if model.activation_mode != DETERMINISTIC:
        raise DomainError("stochastic firing is not differentiated")
    X, Y = _rows(model, X, Y)
    activations = forward_trace(model, X)
    y_hat = activations[-1]
    delta = y_hat - Y
    if loss.kind == SQUARED_ERROR:
        delta = delta * y_hat * (1.0 - y_hat)
    grads = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        # ordered_sum adds rows one after another; .sum() adds pairwise
        grads[i] = (ordered_sum(delta[:, :, None] * activations[i][:, None, :]),
                    ordered_sum(delta))
        if i > 0:
            a = activations[i]
            # one matrix-vector product per row, as for a single example
            back = np.matmul(model.layers[i].weights.T, delta[:, :, None])[:, :, 0]
            delta = back * a * (1.0 - a)
    return grads


def minibatch_step(model: NetworkModel, X, Y, rate: float,
                   loss: LossSpec) -> NetworkModel:
    """One update with the mean gradient over the rows of X (B, n_in) and
    Y (B, n_out), added in ascending row order."""
    grads = backprop_gradient(model, X, Y, loss)
    return replace(model, layers=[
        Layer(layer.weights - rate * (dW / len(X)), layer.bias - rate * (db / len(X)))
        for layer, (dW, db) in zip(model.layers, grads)])


def train(model: NetworkModel, X, Y, config: OptimizerConfig,
          loss: LossSpec):
    """Run the configured optimizer on the dataset X (B, n_in), Y (B, n_out);
    returns (model, per-epoch mean loss).

    SGD and minibatch reshuffle the example order every epoch from the
    dedicated shuffle seed (Fisher-Yates); full GD never shuffles.
    """
    X, Y = _rows(model, X, Y)
    n = len(X)
    if config.kind == "minibatch" and config.batch_size > n:
        raise DomainError("batch_size exceeds dataset size")
    shuffle_rng = derive_rng(config.shuffle_seed, "shuffle")
    history = []
    step = 0
    for _ in range(config.epochs):
        if config.kind == "gd":
            order, batch_size = np.arange(n), n
        else:
            order = shuffle_rng.permutation(n)
            batch_size = 1 if config.kind == "sgd" else config.batch_size
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            model = minibatch_step(model, X[idx], Y[idx], config.rate_at(step),
                                   loss)
            step += 1
        epoch_loss = mean_loss(model, X, Y, loss)
        history.append(epoch_loss)
        if not math.isfinite(epoch_loss) or epoch_loss > DIVERGENCE_GUARD:
            raise DivergenceError(
                f"mean loss {epoch_loss} exceeded the divergence guard")
    return model, history


def finite_difference_gradient(model: NetworkModel, x, y, loss: LossSpec) -> list:
    """Central-difference gradient, step 1e-5, of one example, input x
    (n_in,) and target y (n_out,), independent of backprop; for checking."""
    h = 1e-5

    def central(params, idx):
        base = params[idx]
        params[idx] = base + h
        up = mean_loss(model, [x], [y], loss)
        params[idx] = base - h
        down = mean_loss(model, [x], [y], loss)
        params[idx] = base
        return (up - down) / (2.0 * h)

    grads = []
    for layer in model.layers:
        dW = np.zeros_like(layer.weights)
        db = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.weights.shape):
            dW[idx] = central(layer.weights, idx)
        for j in range(layer.bias.size):
            db[j] = central(layer.bias, j)
        grads.append((dW, db))
    return grads


def write_history_csv(history, path):
    write_csv(path, ("epoch", "mean_loss"),
              [(i, float(v)) for i, v in enumerate(history)])
