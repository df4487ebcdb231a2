"""Layered crossbar network with sigmoid or stochastic-firing neurons.

Each layer is a weight matrix (rows = outputs) plus a bias vector.  A
block of rows fills one (n_in + 1, n_out, rows) array with the bias and
the weight * input products, at most _TERMS_BYTES at a time, and adds it
in ascending input index by one ordered reduce (a gemm or .sum() would
add in another order), so repeated runs are bit-identical and a batch of
inputs gives each row the bits it gets alone.  Every layer, the output
layer included, is a layer of sigmoid neurons.  Deterministic models run
`forward` / `forward_trace` over (..., n_in) batches and apply the
sigmoid.  Stochastic models run `forward_rate` on (..., n_in) batches,
one seed per input: each neuron emits a 0/1 spike with the sigmoid as
its firing probability (optionally that of a fitted device curve p(I),
driven at I = b + unit_current * pre-activation so that a zero
pre-activation fires at the curve's midpoint), and the spikes are
averaged over a window of passes batched as rows.
"""

from dataclasses import asdict, dataclass
from itertools import islice
import json
import math

import numpy as np

from .errors import DomainError, FormatError, ShapeError, malformed_as_format_error
from .formats import write_json
from .mtj import SigmoidFit, sigmoid
# derive_rng is unused here but stays bound: perfbench traces it per module
from .rngtools import derive_rng, derive_rngs

__all__ = [
    "DETERMINISTIC",
    "STOCHASTIC",
    "Layer",
    "NetworkModel",
    "sigmoid",
    "ordered_sum",
    "weighted_sum",
    "forward",
    "forward_trace",
    "forward_rate",
    "save_model",
    "load_model",
]

DETERMINISTIC = "deterministic-sigmoid"
STOCHASTIC = "stochastic-firing"

MODEL_FORMAT_VERSION = 1
_CHUNK_BYTES = 1 << 18    # uniform draws forward_rate holds at a time
_TERMS_BYTES = 1 << 20    # products weighted_sum holds at a time


@dataclass
class Layer:
    weights: np.ndarray         # (n_out, n_in)
    bias: np.ndarray            # (n_out,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ShapeError("layer weights must be (n_out, n_in) with matching bias")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise DomainError("layer parameters must be finite")


@dataclass
class NetworkModel:
    layers: list
    activation_mode: str = DETERMINISTIC
    neuron_fit: SigmoidFit | None = None   # device curve for stochastic firing
    unit_current: float = 0.0              # A per unit pre-activation (device mode)

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("a network needs at least one layer")
        if self.activation_mode not in (DETERMINISTIC, STOCHASTIC):
            raise DomainError(f"unknown activation mode {self.activation_mode!r}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ShapeError("adjacent layer dimensions are incompatible")
        if not 0.0 <= self.unit_current < math.inf:
            raise DomainError(f"unit_current must be finite and non-negative, "
                              f"got {self.unit_current}")
        if self.unit_current > 0.0 and self.neuron_fit is None:
            raise DomainError("a positive unit_current needs a neuron_fit")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]


def ordered_sum(a) -> np.ndarray:
    """a[0] + a[1] + ... over axis 0, one term after another: (n, ...) -> (...).

    np.add.reduce adds term by term along the slow axis of a C-contiguous
    (n, cols) block, but pairwise down a lone column, so one is widened to
    two.  It starts from -0.0, which adds exactly; numpy's own start, 0.0,
    turns a sum of -0.0 terms into 0.0.
    """
    a = np.asarray(a, dtype=float)
    cols = math.prod(a.shape[1:])
    flat = np.ascontiguousarray(a).reshape(len(a), cols)
    if cols == 1:
        flat = np.repeat(flat, 2, axis=1)
    return np.add.reduce(flat, axis=0, initial=-0.0)[:cols].reshape(a.shape[1:])


def weighted_sum(x, weights, bias) -> np.ndarray:
    """Weights times x plus bias over the last axis: (..., n_in) -> (..., n_out).

    Each output starts from its bias and adds weight * input terms in
    ascending input index, so every row of a batch gets the same bits as
    that row on its own: ordered_sum adds an (n_in + 1, n_out, rows) block
    of the bias and one multiply's products, at most _TERMS_BYTES of rows
    at a time, not a gemm or .sum(), which add in another order.  Each
    block's inputs are first copied into one contiguous (n_in, rows) array,
    which the multiply reads faster than a strided view of x.
    """
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    bias = np.asarray(bias, dtype=float)
    if (weights.ndim != 2 or x.shape[-1:] != weights.shape[1:]
            or bias.shape != weights.shape[:1]):
        raise ShapeError(
            f"weighted_sum shapes: x{x.shape}, W{weights.shape}, b{bias.shape}")
    n_out, n_in = weights.shape
    cols = x.reshape(math.prod(x.shape[:-1]), n_in).T
    out = np.empty((n_out, cols.shape[1]))
    step = max(1, _TERMS_BYTES // (8 * (n_in + 1) * n_out))
    for lo in range(0, cols.shape[1], step):
        terms = np.ascontiguousarray(cols[:, lo:lo + step])[:, None]
        block = np.empty((n_in + 1, n_out, terms.shape[-1]))
        block[0] = bias[:, None]
        np.multiply(terms, weights.T[:, :, None], out=block[1:])
        out[:, lo:lo + step] = ordered_sum(block)
    return out.T.reshape(x.shape[:-1] + (n_out,))


def forward_trace(model: NetworkModel, x):
    """Deterministic forward over inputs of shape (..., n_in), returning the
    activations of every layer for backpropagation: activations[0] is the
    input, activations[-1] the output, and every entry keeps the leading
    axes."""
    if model.activation_mode != DETERMINISTIC:
        raise DomainError("forward_trace supports deterministic mode only")
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (model.input_dim,):
        raise ShapeError(f"input shape {x.shape} != (..., {model.input_dim})")
    activations = [x]
    for layer in model.layers:
        activations.append(sigmoid(weighted_sum(activations[-1], layer.weights,
                                                layer.bias)))
    return activations


def forward(model: NetworkModel, x) -> np.ndarray:
    """Deterministic forward pass: (..., n_in) inputs -> (..., n_out) outputs.
    Stochastic-firing models are run with forward_rate."""
    return forward_trace(model, x)[-1]


def forward_rate(model: NetworkModel, x, window: int, seed) -> np.ndarray:
    """Mean spike output (..., n_out) over `window` passes on inputs x
    (..., n_in), seed of shape x.shape[:-1] (a scalar for one input); every
    neuron spikes with its firing probability.  Input i's pass w uses row w
    of derive_rng(seed[i], "rate-window").random((window, sum of widths)),
    whatever the other inputs.  Layer 1's firing probabilities are computed
    once per input and compared with every pass's draws; later layers run
    their passes batched as rows.  At most _CHUNK_BYTES of draws are held at
    once: a block of inputs, or a block of one input's passes when its window
    alone is larger, drawn in order from the input's generator."""
    if model.activation_mode != STOCHASTIC:
        raise DomainError("forward_rate needs a stochastic-firing model")
    if window < 1:
        raise DomainError("window must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (model.input_dim,) or np.shape(seed) != x.shape[:-1]:
        raise ShapeError(f"need inputs (..., {model.input_dim}) and one seed "
                         f"each, got x{x.shape}, seed{np.shape(seed)}")
    sizes = [layer.weights.shape[0] for layer in model.layers]
    fit = model.neuron_fit if model.unit_current > 0.0 else None

    def firing(layer, a):
        pre = weighted_sum(a, layer.weights, layer.bias)
        if fit is None:
            return sigmoid(pre)
        return fit.predict(fit.b + model.unit_current * pre)

    inputs = x.reshape(-1, x.shape[-1])
    rngs = derive_rngs(np.reshape(seed, -1), "rate-window")
    spikes = np.zeros((len(inputs), sizes[-1]))
    passes = max(1, _CHUNK_BYTES // (8 * sum(sizes)))    # per block of draws
    chunk = max(1, passes // window)                      # inputs per block
    for lo in range(0, len(inputs), chunk):
        p_first = firing(model.layers[0], inputs[lo:lo + chunk, None])
        block_rngs = list(islice(rngs, len(p_first)))
        for w in range(0, window, passes):
            draws = np.empty((len(p_first), min(passes, window - w), sum(sizes)))
            for row, rng in zip(draws, block_rngs):
                rng.random(out=row)
            d = np.split(draws, np.cumsum(sizes)[:-1], axis=-1)
            a = (d[0] < p_first).astype(float)
            for layer, d_layer in zip(model.layers[1:], d[1:]):
                a = (d_layer < firing(layer, a)).astype(float)
            spikes[lo:lo + chunk] += a.sum(axis=1)
    return (spikes / window).reshape(x.shape[:-1] + (sizes[-1],))


def save_model(model: NetworkModel, path):
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "activation_mode": model.activation_mode,
        "output_activation": "sigmoid",
        "bias_enabled": True,
        "unit_current": model.unit_current,
        "neuron_fit": None if model.neuron_fit is None else asdict(model.neuron_fit),
        "layers": [
            {"n_out": int(l.weights.shape[0]), "n_in": int(l.weights.shape[1]),
             "weights": l.weights.ravel().tolist(),   # row-major
             "bias": l.bias.tolist()}
            for l in model.layers
        ],
    }
    write_json(path, doc)


def load_model(path) -> NetworkModel:
    """Read a save_model file; a malformed one raises FormatError."""
    with malformed_as_format_error(f"model file {path}"):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("version") != MODEL_FORMAT_VERSION:
            raise DomainError(f"unsupported model version {doc.get('version')}")
        if doc.get("bias_enabled", True) is not True:
            raise FormatError(f"model file {path} needs bias_enabled true, got "
                              f"{doc['bias_enabled']!r}")
        if doc.get("output_activation", "sigmoid") != "sigmoid":
            raise FormatError(f"model file {path} needs output_activation "
                              f"\"sigmoid\", got {doc['output_activation']!r}")
        layers = [
            Layer(np.asarray(l["weights"], dtype=float).reshape(l["n_out"], l["n_in"]),
                  np.asarray(l["bias"], dtype=float))
            for l in doc["layers"]
        ]
        fit = doc.get("neuron_fit")
        return NetworkModel(
            layers=layers,
            activation_mode=doc["activation_mode"],
            neuron_fit=None if fit is None else SigmoidFit(**fit),
            unit_current=doc.get("unit_current", 0.0),
        )
