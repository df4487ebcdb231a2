import json
import math
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from spinsc import network
from spinsc.errors import DomainError, FormatError, ShapeError
from spinsc.mtj import SigmoidFit
from spinsc.network import (STOCHASTIC, Layer, NetworkModel, forward,
                            forward_rate, forward_trace, load_model,
                            ordered_sum, save_model, sigmoid, weighted_sum)
from spinsc.rngtools import derive_rng
from spinsc.training import CROSS_ENTROPY, LossSpec, backprop_gradient, init_model

SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan]
LAYOUTS = ["contiguous", "transposed", "strided"]


def two_layer_model():
    return NetworkModel(layers=[
        Layer(np.array([[0.7, -1.2], [0.3, 0.8]]), np.array([0.1, -0.4])),
        Layer(np.array([[1.5, -0.6]]), np.array([0.2])),
    ])


RATE_MODELS = [
    ([2, 2, 1], None, 1), ([2, 2, 1], None, 7), ([1, 1, 1], None, 5),
    ([5, 9, 3], None, 64), ([5, 9, 3], (2e4, 1e-3, 1e-3), 64),
    ([3, 4], (2e4, 1e-3, 1e-3), 33), ([3, 4], (2e4, 1e-3, 0.0), 9),
    ([4, 6, 2], (1e4, 1e-3, 1e-4), 16)]     # a u = 1 and a b = 10: the bias drive


def rate_model(sizes, device, window):
    """A seeded stochastic model of layer widths `sizes`, firing through the
    device curve (a, b, unit current) when `device` is given, and an input."""
    rng = derive_rng(4, "rate-ref", *sizes, window)
    layers = [Layer(rng.standard_normal((m, n)) * 2, rng.standard_normal(m))
              for n, m in zip(sizes, sizes[1:])]
    fit, unit = (None, 0.0) if device is None else (
        SigmoidFit(a=device[0], b=device[1], r_squared=1.0), device[2])
    model = NetworkModel(layers=layers, activation_mode=STOCHASTIC,
                         neuron_fit=fit, unit_current=unit)
    return model, rng.standard_normal(sizes[0])


def column_loop(x, weights, bias):
    """The column loop weighted_sum replaced: the bias, then one input
    column at a time in ascending index."""
    out = np.broadcast_to(bias, x.shape[:-1] + bias.shape).copy()
    for j in range(weights.shape[1]):
        out += x[..., j, None] * weights[:, j]
    return out


def sprinkled(rng, shape, share):
    """Normal entries scaled over twelve decades, about `share` of them
    replaced by +-0.0, +-inf or NaN."""
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    hit = rng.random(shape) < share
    a[hit] = rng.choice(SPECIALS, hit.sum())
    return a


def same_bits(got, want):
    """Equal shapes and bytes, NaNs compared as one value: numpy's add
    loops do not fix which of two NaN operands propagates, so its reduce
    and cumsum differ in the sign of NaN where inf - inf meets a NaN."""
    def canonical(a):
        return np.where(np.isnan(a), np.nan, a).tobytes()
    return got.shape == want.shape and canonical(got) == canonical(want)


def laid_out(a, layout):
    """The values of `a` in a C-contiguous, transposed (a view of a
    contiguous reversed-axes copy) or strided (every other entry of the
    last axis) array."""
    if layout == "transposed":
        return np.ascontiguousarray(a.T).T
    if layout == "strided":
        return np.repeat(a, 2, axis=-1)[..., ::2]
    return a


class TestOrderedSum:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           rest=st.one_of(st.sampled_from([(), (1,), (1, 1)]),
                          st.lists(st.integers(0, 4), max_size=2).map(tuple)),
           layout=st.sampled_from(LAYOUTS), share=st.sampled_from([0.0, 0.1, 0.5]))
    @example(seed=1, n=20, rest=(), layout="contiguous", share=0.0)
    @example(seed=1, n=20, rest=(1,), layout="strided", share=0.0)
    @example(seed=1, n=20, rest=(2, 3), layout="transposed", share=0.0)
    def test_matches_cumsum(self, seed, n, rest, layout, share):
        """Byte for byte (NaNs as one value) the last row of cumsum, which
        adds one term after another: lone columns, empty rows, any layout,
        signed zeros, infinities and NaN."""
        a = laid_out(sprinkled(np.random.default_rng(seed), (n,) + rest, share),
                     layout)
        with np.errstate(all="ignore"):     # inf - inf is NaN, as intended
            got, want = ordered_sum(a), np.cumsum(a, axis=0)[-1]
        assert got.shape == a.shape[1:] and same_bits(got, want)

    def test_empty_sum_is_zero(self):
        assert np.array_equal(ordered_sum(np.ones((0, 3))), np.zeros(3))


class TestWeightedSum:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), lone=st.booleans(),
           n_in=st.integers(0, 12), n_out=st.integers(1, 5),
           lead=st.lists(st.integers(0, 4), max_size=3).map(tuple),
           layout=st.sampled_from(LAYOUTS), share=st.sampled_from([0.0, 0.1, 0.5]))
    @example(seed=2, lone=True, n_in=0, n_out=1, lead=(), layout="contiguous",
             share=0.0)
    @example(seed=3, lone=False, n_in=0, n_out=3, lead=(2,), layout="contiguous",
             share=0.5)
    @example(seed=4, lone=False, n_in=5, n_out=2, lead=(3, 0), layout="transposed",
             share=0.0)
    def test_matches_column_loop(self, seed, lone, n_in, n_out, lead, layout,
                                 share):
        """Byte for byte (NaNs as one value) the column loop: one row into
        one output over 8 to 64 inputs, zero rows, no inputs, leading axes,
        transposed or strided x, and +-0.0, +-inf and NaN in x, weights and
        bias."""
        rng = np.random.default_rng(seed)
        if lone:
            n_in, n_out, lead = int(rng.integers(8, 65)), 1, (1,) if lead else ()
        x = laid_out(sprinkled(rng, lead + (n_in,), share), layout)
        weights = sprinkled(rng, (n_out, n_in), share)
        bias = sprinkled(rng, (n_out,), share)
        with np.errstate(all="ignore"):
            got, want = weighted_sum(x, weights, bias), column_loop(x, weights, bias)
        assert got.shape == lead + (n_out,) and same_bits(got, want)

    def test_identity(self):
        x = np.array([0.3, -0.7, 2.0])
        out = weighted_sum(x, np.eye(3), np.zeros(3))
        assert np.array_equal(out, x)

    def test_zero_weights_give_bias(self):
        out = weighted_sum(np.array([5.0, 6.0]), np.zeros((3, 2)),
                           np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_hand_arithmetic(self):
        out = weighted_sum(np.array([1.0, 2.0]),
                           np.array([[1.0, -1.0], [0.5, 0.5]]),
                           np.array([0.0, 1.0]))
        assert np.allclose(out, [-1.0, 2.5])

    def test_shape_mismatch(self):
        for x, W, b in ((np.ones(3), np.ones((2, 2)), np.zeros(2)),
                        (np.ones((4, 3)), np.ones((2, 2)), np.zeros(2)),
                        (np.ones((4, 2)), np.ones((2, 2)), np.zeros(3)),
                        (np.float64(1.0), np.ones((2, 1)), np.zeros(2))):
            with pytest.raises(ShapeError):
                weighted_sum(x, W, b)

    @pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 7), (33, 8)])
    def test_block_equals_rows(self, shape):
        rng = derive_rng(7, "ws-block", *shape)
        n_out = 4
        X = rng.standard_normal(shape) * 3
        W = rng.standard_normal((n_out, shape[1]))
        b = rng.standard_normal(n_out)
        block = weighted_sum(X, W, b)
        assert block.shape == (shape[0], n_out)
        for row, x in zip(block, X):
            assert np.array_equal(row, weighted_sum(x, W, b))
        stacked = weighted_sum(X.reshape(1, *shape), W, b)
        assert np.array_equal(stacked[0], block)


class TestForward:
    def test_single_layer_zero_input(self):
        model = NetworkModel(layers=[Layer(np.eye(4), np.zeros(4))])
        out = forward(model, np.zeros(4))
        assert np.array_equal(out, np.full(4, 0.5))

    def test_matches_hand_computation(self):
        model = two_layer_model()
        x = np.array([0.5, -1.0])
        # independent step-by-step computation
        h1 = 1 / (1 + math.exp(-(0.7 * 0.5 - 1.2 * -1.0 + 0.1)))
        h2 = 1 / (1 + math.exp(-(0.3 * 0.5 + 0.8 * -1.0 - 0.4)))
        y = 1 / (1 + math.exp(-(1.5 * h1 - 0.6 * h2 + 0.2)))
        out = forward(model, x)
        assert out[0] == pytest.approx(y, abs=1e-12)

    def test_outputs_strictly_inside_unit_interval(self):
        model = two_layer_model()
        rng = derive_rng(3, "x")
        for _ in range(50):
            out = forward(model, rng.standard_normal(2) * 5)
            assert np.all((out > 0) & (out < 1))

    def test_input_dimension_checked(self):
        with pytest.raises(ShapeError):
            forward(two_layer_model(), np.zeros(3))

    def test_single_layer_rate_equivalence(self):
        layer = Layer(np.array([[0.8, -0.3], [0.2, 0.9]]), np.array([0.1, -0.2]))
        det = NetworkModel(layers=[Layer(layer.weights.copy(), layer.bias.copy())])
        sto = NetworkModel(layers=[layer], activation_mode=STOCHASTIC)
        x = np.array([0.4, -0.9])
        expected = forward(det, x)
        window = 40_000
        rate = forward_rate(sto, x, window, seed=5)
        se = np.sqrt(expected * (1 - expected) / window)
        assert np.all(np.abs(rate - expected) <= 3 * se)

    def test_stochastic_forward_deterministic_given_seed(self):
        model = NetworkModel(layers=two_layer_model().layers,
                             activation_mode=STOCHASTIC)
        a = forward_rate(model, np.array([0.1, 0.2]), 16, seed=8)
        b = forward_rate(model, np.array([0.1, 0.2]), 16, seed=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("sizes,device,window", RATE_MODELS)
    def test_rate_matches_per_pass_reference(self, sizes, device, window):
        model, x = rate_model(sizes, device, window)
        layers, fit, unit = model.layers, model.neuron_fit, model.unit_current
        # per-pass oracle: one pass after another, one column at a time
        draws = derive_rng(11, "rate-window")
        acc = np.zeros(sizes[-1])
        for _ in range(window):
            a = x
            for layer in layers:
                pre = layer.bias.copy()
                for j in range(layer.weights.shape[1]):
                    pre += layer.weights[:, j] * a[j]
                if unit > 0.0:
                    p = 1.0 / (1.0 + np.exp(-fit.a * ((fit.b + unit * pre) - fit.b)))
                else:
                    p = 1.0 / (1.0 + np.exp(-pre))
                a = (draws.random(p.shape) < p).astype(float)
            acc += a
        assert np.array_equal(forward_rate(model, x, window, seed=11),
                              acc / window)

    @pytest.mark.parametrize("sizes,device,window", RATE_MODELS)
    @pytest.mark.parametrize("passes", [1, 3])
    def test_window_larger_than_a_chunk(self, sizes, device, window, passes,
                                        monkeypatch):
        """With room for fewer passes than one input's window, the passes
        are drawn in blocks and give the same rates."""
        model, x = rate_model(sizes, device, window)
        X, seeds = np.stack([x, -x, 0.5 * x]), np.array([11, 2 ** 40, 3])
        expected = forward_rate(model, X, window, seeds)
        monkeypatch.setattr(network, "_CHUNK_BYTES", 8 * sum(sizes[1:]) * passes)
        assert np.array_equal(forward_rate(model, X, window, seeds), expected)

    @pytest.mark.parametrize("device", [None, (2e4, 1e-3, 1e-3)],
                             ids=["sigmoid", "device"])
    def test_rate_block_equals_rows(self, device):
        sizes, window = [5, 9, 3], 64
        rng = derive_rng(6, "rate-block", device is None)
        fit, unit = (None, 0.0) if device is None else (
            SigmoidFit(a=device[0], b=device[1], r_squared=1.0), device[2])
        model = NetworkModel(
            layers=[Layer(rng.standard_normal((m, n)) * 2, rng.standard_normal(m))
                    for n, m in zip(sizes, sizes[1:])],
            activation_mode=STOCHASTIC, neuron_fit=fit, unit_current=unit)
        chunk = network._CHUNK_BYTES // (8 * window * sum(sizes[1:]))
        batch = (2, chunk + 3)                 # crosses two chunk boundaries
        X = rng.standard_normal(batch + (sizes[0],))
        seeds = rng.integers(0, 2 ** 63, batch)
        block = forward_rate(model, X, window, seeds)
        assert block.shape == batch + (sizes[-1],)
        for idx in np.ndindex(batch):
            assert np.array_equal(
                block[idx], forward_rate(model, X[idx], window, int(seeds[idx])))

    @pytest.mark.parametrize("batch", [(1,), (6,), (2, 3)])
    def test_trace_block_equals_rows(self, batch):
        rng = derive_rng(5, "trace-block", *batch)
        model = NetworkModel(
            layers=[Layer(rng.standard_normal((4, 3)), rng.standard_normal(4)),
                    Layer(rng.standard_normal((2, 4)), rng.standard_normal(2))])
        X = rng.standard_normal(batch + (3,))
        acts = forward_trace(model, X)
        for idx in np.ndindex(batch):
            row_acts = forward_trace(model, X[idx])
            assert len(row_acts) == len(acts) == 3
            for block, row in zip(acts, row_acts):
                assert np.array_equal(block[idx], row)
        assert np.array_equal(forward(model, X), acts[-1])

    def test_modes_checked(self):
        sto = NetworkModel(layers=two_layer_model().layers,
                           activation_mode=STOCHASTIC)
        with pytest.raises(DomainError):
            forward(sto, np.zeros(2))
        with pytest.raises(DomainError):
            forward_rate(two_layer_model(), np.zeros(2), 4, seed=1)
        for seed in (1, [1, 2], [[1, 2, 3]]):
            with pytest.raises(ShapeError):
                forward_rate(sto, np.zeros((3, 2)), 4, seed=seed)

    def test_hidden_unit_permutation_invariance(self):
        model = two_layer_model()
        perm = [1, 0]
        permuted = NetworkModel(layers=[
            Layer(model.layers[0].weights[perm], model.layers[0].bias[perm]),
            Layer(model.layers[1].weights[:, perm], model.layers[1].bias),
        ])
        x = np.array([0.3, 0.7])
        # re-canonicalize before summation: un-permute rows/columns back
        inv = np.argsort(perm)
        restored = NetworkModel(layers=[
            Layer(permuted.layers[0].weights[inv], permuted.layers[0].bias[inv]),
            Layer(permuted.layers[1].weights[:, inv], permuted.layers[1].bias),
        ])
        assert np.array_equal(forward(model, x), forward(restored, x))


class TestRowBound:
    @pytest.mark.parametrize("sizes,device,window", RATE_MODELS)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_blocks_keep_the_bits(self, sizes, device, window, rows,
                                      monkeypatch):
        """With room for 1 or 3 rows of the widest layer's products at a
        time, forward, forward_rate and backprop_gradient give the bits of
        the default bound."""
        model, x = rate_model(sizes, device, window)
        X = np.stack([x, -x, 0.5 * x, 2 * x, x - 1])
        seeds = np.array([11, 2 ** 40, 3, 4, 5])
        Y = derive_rng(9, "row-bound", *sizes).uniform(0, 1, (len(X), sizes[-1]))
        det, loss = NetworkModel(layers=model.layers), LossSpec(CROSS_ENTROPY)

        def run():
            return [forward(det, X), forward_rate(model, X, window, seeds),
                    *(g for pair in backprop_gradient(det, X, Y, loss) for g in pair)]
        expected = run()
        widest = max(l.weights.size + l.weights.shape[0] for l in model.layers)
        monkeypatch.setattr(network, "_TERMS_BYTES", 8 * widest * rows)
        for got, want in zip(run(), expected):
            assert np.array_equal(got, want)

    def test_forward_peak_memory(self):
        """An 8-32-4 forward on 65,536 rows holds the layer-1 sums and one
        copy of them inside the sigmoid, plus one block of products."""
        model = init_model([8, 32, 4], 1)
        X = derive_rng(1, "peak").standard_normal((65536, 8))
        tracemalloc.start()
        try:
            forward(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (65536 * 32 * 8) + network._TERMS_BYTES


class TestModelStructure:
    def test_incompatible_layers_rejected(self):
        with pytest.raises(ShapeError):
            NetworkModel(layers=[Layer(np.ones((3, 2)), np.zeros(3)),
                                 Layer(np.ones((1, 4)), np.zeros(1))])
        with pytest.raises(ShapeError):
            NetworkModel(layers=[])

    def test_non_finite_weights_rejected(self):
        with pytest.raises(DomainError):
            Layer(np.array([[np.inf]]), np.zeros(1))

    @pytest.mark.parametrize("unit_current, fit", [
        (1e-3, None), (-1e-3, SigmoidFit(a=2e4, b=1e-3, r_squared=1.0)),
        (math.nan, SigmoidFit(a=2e4, b=1e-3, r_squared=1.0)),
        (math.inf, SigmoidFit(a=2e4, b=1e-3, r_squared=1.0))],
        ids=["no-fit", "negative", "nan", "inf"])
    def test_device_mode_without_device_rejected(self, unit_current, fit):
        with pytest.raises(DomainError, match="unit_current"):
            NetworkModel(layers=[Layer(np.eye(2), np.zeros(2))],
                         activation_mode=STOCHASTIC, neuron_fit=fit,
                         unit_current=unit_current)

    def test_device_fit_scaling(self):
        fit = SigmoidFit(a=2e4, b=1e-3, r_squared=1.0)
        model = NetworkModel(layers=[Layer(np.eye(1), np.zeros(1))],
                             activation_mode=STOCHASTIC, neuron_fit=fit,
                             unit_current=1e-3)
        # pre-activation x drives b + 1 mA * x: the fit midpoint at x = 0, rate
        # 1/2, and a (1 mA) x = 1 at x = 0.05, rate sigmoid(1)
        window = 40_000
        rate = forward_rate(model, np.array([[0.0], [0.05]]), window,
                            seed=np.array([2, 3]))
        expected = np.array([0.5, 1.0 / (1.0 + math.exp(-1.0))])
        se = np.sqrt(expected * (1.0 - expected) / window)
        assert np.all(np.abs(rate[:, 0] - expected) <= 3 * se)

    def test_device_at_inverse_slope_fires_as_sigmoid(self):
        """At unit_current = 1/a the device curve, driven at its midpoint b,
        is the sigmoid to rounding, and gives the stochastic-sigmoid rates."""
        fit = SigmoidFit(a=9359.0, b=1.475e-3, r_squared=0.994)
        x = np.linspace(-8.0, 8.0, 1601)
        assert np.max(np.abs(fit.predict(fit.b + x / fit.a) - sigmoid(x))) <= 1e-15
        rng = derive_rng(9, "device-sigmoid")
        sizes = [5, 9, 3]
        layers = [Layer(rng.standard_normal((m, n)) * 2, rng.standard_normal(m))
                  for n, m in zip(sizes, sizes[1:])]
        X = rng.standard_normal((2000, sizes[0]))
        seeds = rng.integers(0, 2 ** 63, 2000)
        device = NetworkModel(layers=layers, activation_mode=STOCHASTIC,
                              neuron_fit=fit, unit_current=1.0 / fit.a)
        plain = NetworkModel(layers=layers, activation_mode=STOCHASTIC)
        assert np.array_equal(forward_rate(device, X, 64, seeds),
                              forward_rate(plain, X, 64, seeds))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = two_layer_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        for a, b in zip(model.layers, back.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
        assert back.activation_mode == model.activation_mode

    def test_forward_trace_shapes(self):
        model = two_layer_model()
        acts = forward_trace(model, np.array([0.1, 0.2]))
        assert len(acts) == 3
        assert [a.shape for a in acts] == [(2,), (2,), (1,)]
        assert np.array_equal(acts[-1], forward(model, np.array([0.1, 0.2])))

    @pytest.mark.parametrize("key, value", [
        pytest.param("bias_enabled", value, id=str(value))
        for value in (False, None, 1, "true")] + [
        pytest.param("output_activation", value, id=f"output_activation-{value}")
        for value in ("identity", None, 1)])
    def test_bias_free_model_rejected(self, tmp_path, key, value):
        """Every network has biases and a sigmoid output layer; a file saying
        otherwise is malformed."""
        path = tmp_path / "model.json"
        save_model(two_layer_model(), path)
        doc = json.loads(path.read_text())
        assert doc["bias_enabled"] is True and doc["output_activation"] == "sigmoid"
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=key):
            load_model(path)

    def test_missing_output_activation_reads_as_sigmoid(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(two_layer_model(), path)
        doc = json.loads(path.read_text())
        del doc["output_activation"]
        path.write_text(json.dumps(doc))
        x = np.array([0.1, 0.2])
        assert np.array_equal(forward(load_model(path), x),
                              forward(two_layer_model(), x))

    @pytest.mark.parametrize("text", [
        '{"version": 1, "activation_mode": "deterministic-sigmoid"}',
        '{"version": 1, "activation_mode": "deterministic-sigmoid", "layers": [',
        '{"version": 1, "activation_mode": "deterministic-sigmoid", "layers": '
        '[{"n_out": 2, "n_in": 2, "weights": [1, 2, 3], "bias": [0, 0]}]}',
        '[1, 2]'], ids=["no-layers", "truncated", "weight-count", "not-an-object"])
    def test_malformed_model_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("key, value", [
        ("n_out", -1), ("n_out", 0), ("n_in", 0), ("n_in", 2.0), ("n_out", True),
        ("n_in", 3), ("weights", "0.5"), ("weights", ["0.5", 0.1, 0.2, 0.3]),
        ("weights", [True, 0.1, 0.2, 0.3]), ("bias", [None, 0.0])],
        ids=lambda v: json.dumps(v))
    def test_mistyped_layer_rejected(self, tmp_path, key, value):
        """A layer's n_out and n_in must be positive JSON integers whose
        product counts its weights, and every weight and bias a JSON
        number: reshape would infer n_out = -1, and numpy parses "0.5"."""
        path = tmp_path / "model.json"
        save_model(two_layer_model(), path)
        doc = json.loads(path.read_text())
        assert (doc["layers"][0]["n_out"], doc["layers"][0]["n_in"]) == (2, 2)
        doc["layers"][0][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="n_out"):
            load_model(path)
