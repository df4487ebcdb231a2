import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from spinsc.errors import DivergenceError, DomainError, ShapeError
from spinsc.network import (DETERMINISTIC, STOCHASTIC, Layer, NetworkModel,
                            forward_rate, forward_trace)
from spinsc.training import (CROSS_ENTROPY, SQUARED_ERROR, LossSpec,
                             OptimizerConfig, backprop_gradient, init_model,
                             mean_loss, minibatch_step, train)
from spinsc.rngtools import derive_rng
from test_network import column_loop, same_bits, sprinkled


def single_unit(w=0.0, b=0.0):
    return NetworkModel(layers=[Layer(np.array([[w]]), np.array([b]))])


def fd_gradient(model, x, y, loss, h=1e-6):
    """Oracle: central finite differences, written independently of the
    package's own checker."""
    grads = []
    for layer in model.layers:
        dW = np.zeros_like(layer.weights)
        db = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + h
            lp = mean_loss(model, [x], [y], loss)
            layer.weights[idx] = orig - h
            lm = mean_loss(model, [x], [y], loss)
            layer.weights[idx] = orig
            dW[idx] = (lp - lm) / (2 * h)
        for j in range(layer.bias.size):
            orig = layer.bias[j]
            layer.bias[j] = orig + h
            lp = mean_loss(model, [x], [y], loss)
            layer.bias[j] = orig - h
            lm = mean_loss(model, [x], [y], loss)
            layer.bias[j] = orig
            db[j] = (lp - lm) / (2 * h)
        grads.append((dW, db))
    return grads


def reference_forward(model, x):
    """Oracle forward pass of one example, one input column at a time;
    returns the input and every layer's activation."""
    acts = [x]
    for layer in model.layers:
        pre = layer.bias.copy()
        for j in range(layer.weights.shape[1]):
            pre += layer.weights[:, j] * acts[-1][j]
        acts.append(1.0 / (1.0 + np.exp(-pre)))
    return acts


def reference_loss(model, x, y, loss):
    y_hat = reference_forward(model, x)[-1]
    if loss.kind == SQUARED_ERROR:
        d = y_hat - y
        return 0.5 * float(d @ d)
    y_hat = np.clip(y_hat, 1e-12, 1.0 - 1e-12)
    return -float(np.sum(y * np.log(y_hat) + (1.0 - y) * np.log(1.0 - y_hat)))


def sequential_step(model, X, Y, rate, loss):
    """Oracle: the update computed one example at a time, with
    reference_forward, np.outer, += and W.T @ delta."""
    grad_sum = None
    for x, y in zip(X, Y):
        acts = reference_forward(model, x)
        y_hat = acts[-1]
        if loss.kind == CROSS_ENTROPY:
            delta = y_hat - y
        else:
            delta = (y_hat - y) * y_hat * (1.0 - y_hat)
        grads = []
        for i in range(len(model.layers) - 1, -1, -1):
            grads.insert(0, (np.outer(delta, acts[i]), delta.copy()))
            if i > 0:
                back = model.layers[i].weights.T @ delta
                delta = back * acts[i] * (1.0 - acts[i])
        if grad_sum is None:
            grad_sum = grads
        else:
            for (sW, sb), (dW, db) in zip(grad_sum, grads):
                sW += dW
                sb += db
    return [(layer.weights - rate * (dW / len(X)),
             layer.bias - rate * (db / len(X)))
            for layer, (dW, db) in zip(model.layers, grad_sum)]


def cumsum_backprop(model, X, Y, loss):
    """The block backprop before ordered_sum: the column-loop forward, one
    matrix-vector product per row, rows summed by cumsum(...)[-1]."""
    acts = [X]
    for layer in model.layers:
        pre = column_loop(acts[-1], layer.weights, layer.bias)
        acts.append(1.0 / (1.0 + np.exp(-pre)))
    y_hat = acts[-1]
    delta = y_hat - Y
    if loss.kind == SQUARED_ERROR:
        delta = delta * y_hat * (1.0 - y_hat)
    grads = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        dW = np.cumsum(delta[:, :, None] * acts[i][:, None, :], axis=0)[-1]
        grads[i] = (dW, np.cumsum(delta, axis=0)[-1])
        if i > 0:
            back = np.matmul(model.layers[i].weights.T, delta[:, :, None])[:, :, 0]
            delta = back * acts[i] * (1.0 - acts[i])
    return grads


# (layer sizes, loss kind)
BATCH_CASES = [
    ([3, 5, 2], SQUARED_ERROR),
    ([3, 5, 2], CROSS_ENTROPY),
    ([1, 1, 1], SQUARED_ERROR),
    ([1, 1, 1], CROSS_ENTROPY),
    ([4, 6, 3, 2], SQUARED_ERROR),
]


def batch_case_id(case):
    sizes, kind = case
    return f"{'-'.join(map(str, sizes))}-{kind}"


def random_batch_case(case, size, tag):
    sizes, kind = case
    rng = derive_rng(8, tag, *sizes, size)
    model = init_model(sizes, int(rng.integers(0, 2 ** 62)))
    # non-zero biases, so a dropped bias term would show
    model = NetworkModel(layers=[Layer(l.weights, rng.standard_normal(l.bias.size))
                                 for l in model.layers])
    rows = [(rng.standard_normal(sizes[0]) * 2, rng.uniform(0, 1, sizes[-1]))
            for _ in range(size)]
    X, Y = (np.array(column) for column in zip(*rows))
    return model, X, Y, LossSpec(kind)


def random_dataset(rng, n, n_in, n_out):
    """n examples drawn row by row: an input, then its target."""
    rows = [(rng.standard_normal(n_in), rng.uniform(0, 1, n_out))
            for _ in range(n)]
    return tuple(np.array(column) for column in zip(*rows))


class TestBackprop:
    loss = LossSpec(SQUARED_ERROR)

    def test_zero_gradient_at_optimum(self):
        g = backprop_gradient(single_unit(), [[1.0]], [[0.5]], self.loss)
        assert np.allclose(g[0][0], 0.0) and np.allclose(g[0][1], 0.0)

    def test_hand_chain_rule(self):
        g = backprop_gradient(single_unit(), [[1.0]], [[1.0]], self.loss)
        assert g[0][0][0, 0] == pytest.approx(-0.125, abs=1e-15)
        assert g[0][1][0] == pytest.approx(-0.125, abs=1e-15)

    @pytest.mark.parametrize("loss_kind", [SQUARED_ERROR, CROSS_ENTROPY])
    def test_matches_finite_differences(self, loss_kind):
        loss = LossSpec(loss_kind)
        rng = derive_rng(0, "fd")
        for trial in range(10):
            model = init_model([2, 3, 1], int(rng.integers(0, 2 ** 62)))
            x, y = rng.standard_normal(2), rng.uniform(0.2, 0.8, 1)
            bp = backprop_gradient(model, [x], [y], loss)
            fd = fd_gradient(model, x, y, loss)
            for (bw, bb), (fw, fb) in zip(bp, fd):
                assert np.allclose(bw, fw, rtol=1e-5, atol=1e-8)
                assert np.allclose(bb, fb, rtol=1e-5, atol=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           sizes=st.one_of(st.sampled_from([[1, 1], [1, 1, 1], [8, 1], [1, 4, 1]]),
                           st.lists(st.integers(1, 6), min_size=2, max_size=4)),
           rows=st.integers(1, 40), kind=st.sampled_from([SQUARED_ERROR, CROSS_ENTROPY]),
           share=st.sampled_from([0.0, 0.1, 0.5]))
    @example(seed=3, sizes=[1, 1, 1], rows=20, kind=SQUARED_ERROR, share=0.0)
    def test_matches_cumsum_reference(self, seed, sizes, rows, kind, share):
        """Byte for byte (NaNs as one value) the cumsum reference: lone
        columns, one to 40 rows, and +-0.0, +-inf and NaN in the inputs and
        targets."""
        rng = np.random.default_rng(seed)
        model = NetworkModel(layers=[
            Layer(sprinkled(rng, (m, n), 0.0), sprinkled(rng, m, 0.0))
            for n, m in zip(sizes, sizes[1:])])
        X = sprinkled(rng, (rows, sizes[0]), share)
        Y = np.where(rng.random((rows, sizes[-1])) < share,
                     sprinkled(rng, (rows, sizes[-1]), 1.0),
                     rng.uniform(0, 1, (rows, sizes[-1])))
        loss = LossSpec(kind)
        with np.errstate(all="ignore"):
            got = backprop_gradient(model, X, Y, loss)
            want = cumsum_backprop(model, X, Y, loss)
        for (dW, db), (rW, rb) in zip(got, want):
            assert same_bits(dW, rW) and same_bits(db, rb)

    @pytest.mark.parametrize("mode, call", [
        (STOCHASTIC, lambda model: forward_trace(model, [1.0])),
        (STOCHASTIC, lambda model: backprop_gradient(model, [[1.0]], [[0.5]],
                                                     LossSpec())),
        (DETERMINISTIC, lambda model: forward_rate(model, [1.0], 4, seed=1))],
        ids=["forward_trace", "backprop_gradient", "forward_rate"])
    def test_wrong_mode_rejected(self, mode, call):
        model = NetworkModel(layers=[Layer(np.eye(1), np.zeros(1))],
                             activation_mode=mode)
        with pytest.raises(DomainError):
            call(model)


class TestSteps:
    loss = LossSpec(SQUARED_ERROR)

    def test_zero_rate_leaves_model_unchanged(self):
        model = single_unit()
        # rate 0 is forbidden by config validation; step APIs take it directly
        out = minibatch_step(model, [[1.0]], [[1.0]], 0.0, self.loss)
        assert np.array_equal(out.layers[0].weights, model.layers[0].weights)

    def test_single_example_gd_equals_sgd(self):
        model = init_model([2, 2, 1], 3)
        x, y = [0.2, -0.5], [0.7]
        a, _ = train(model, [x], [y], OptimizerConfig("gd", 0.3, 2), self.loss)
        b, _ = train(model, [x], [y], OptimizerConfig("sgd", 0.3, 2), self.loss)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)

    # at w = b = 0, x = y = 1 the output is 0.5 and the squared-error
    # gradient in w and in b is (0.5 - 1) * 0.5 * (1 - 0.5) = -0.125
    def test_quadratic_toy_gd(self):
        out = minibatch_step(single_unit(), [[1.0], [1.0]], [[1.0], [1.0]], 0.5,
                             self.loss)
        assert out.layers[0].weights[0, 0] == 0.0625
        assert out.layers[0].bias[0] == 0.0625

    def test_quadratic_toy_sgd(self):
        out = minibatch_step(single_unit(), [[1.0]], [[1.0]], 0.1, self.loss)
        assert out.layers[0].weights[0, 0] == 0.0125
        assert out.layers[0].bias[0] == 0.0125

    def test_sgd_updates_average_to_gd_update(self):
        rng = derive_rng(1, "avg")
        model = init_model([2, 3, 2], 17)
        X, Y = random_dataset(rng, 5, 2, 2)
        gd = minibatch_step(model, X, Y, 0.25, self.loss)
        acc = [np.zeros_like(l.weights) for l in model.layers]
        acc_b = [np.zeros_like(l.bias) for l in model.layers]
        for x, y in zip(X, Y):
            stepped = minibatch_step(model, [x], [y], 0.25, self.loss)
            for i, l in enumerate(stepped.layers):
                acc[i] += l.weights
                acc_b[i] += l.bias
        for i, l in enumerate(gd.layers):
            assert np.allclose(acc[i] / len(X), l.weights, atol=1e-12)
            assert np.allclose(acc_b[i] / len(X), l.bias, atol=1e-12)

    def test_minibatch_degeneracies_bit_exact(self):
        # train steps GD on all rows in order and SGD on one shuffled row at
        # a time, each at the decayed rate of its step count
        rng = derive_rng(2, "deg")
        model = init_model([3, 4, 2], 23)
        X, Y = random_dataset(rng, 4, 3, 2)
        gd_cfg = OptimizerConfig("gd", 0.4, epochs=2, lr_decay=0.5)
        gd, _ = train(model, X, Y, gd_cfg, self.loss)
        gd_ref = model
        for step in range(2):
            gd_ref = minibatch_step(gd_ref, X, Y, gd_cfg.rate_at(step), self.loss)
        sgd_cfg = OptimizerConfig("sgd", 0.4, epochs=1, lr_decay=0.5,
                                  shuffle_seed=8)
        sgd, _ = train(model, X, Y, sgd_cfg, self.loss)
        sgd_ref = model
        order = derive_rng(8, "shuffle").permutation(len(X))
        for step, i in enumerate(order):
            sgd_ref = minibatch_step(sgd_ref, X[i:i + 1], Y[i:i + 1],
                                     sgd_cfg.rate_at(step), self.loss)
        for x, y in ((gd, gd_ref), (sgd, sgd_ref)):
            for lx, ly in zip(x.layers, y.layers):
                assert np.array_equal(lx.weights, ly.weights)
                assert np.array_equal(lx.bias, ly.bias)

    @pytest.mark.parametrize("size", [1, 2, 33])
    @pytest.mark.parametrize("case", BATCH_CASES, ids=batch_case_id)
    def test_minibatch_matches_sequential_reference(self, case, size):
        model, X, Y, loss = random_batch_case(case, size, "mb-seq")
        # at rate 2**20 the update swamps the weights, so the last bits of
        # the summed gradient show in the result
        for rate in (0.7, 2.0 ** 20):
            stepped = minibatch_step(model, X, Y, rate, loss)
            reference = sequential_step(model, X, Y, rate, loss)
            for layer, (w, b) in zip(stepped.layers, reference):
                assert np.array_equal(layer.weights, w)
                assert np.array_equal(layer.bias, b)

    @pytest.mark.parametrize("case", BATCH_CASES, ids=batch_case_id)
    def test_mean_loss_is_sequential_sum(self, case):
        model, X, Y, loss = random_batch_case(case, 33, "mean-loss")
        total = 0.0
        for x, y in zip(X, Y):
            value = mean_loss(model, [x], [y], loss)
            assert value == reference_loss(model, x, y, loss)
            total += value
        assert mean_loss(model, X, Y, loss) == total / len(X)

    def test_minibatch_mean_of_two_gradients(self):
        rng = derive_rng(3, "mb2")
        model = init_model([2, 2, 1], 29)
        X, Y = random_dataset(rng, 4, 2, 1)
        stepped = minibatch_step(model, X[1:3], Y[1:3], 1.0, self.loss)
        fd = [fd_gradient(model, x, y, self.loss) for x, y in zip(X[1:3], Y[1:3])]
        for i, layer in enumerate(model.layers):
            mean_dw = (fd[0][i][0] + fd[1][i][0]) / 2
            assert np.allclose(layer.weights - mean_dw,
                               stepped.layers[i].weights, rtol=1e-5, atol=1e-8)

    @staticmethod
    def batch_calls(model, loss):
        """Every function that takes a dataset, as f(X, Y)."""
        cfg = OptimizerConfig(kind="gd", learning_rate=0.1, epochs=0)
        return [lambda X, Y: minibatch_step(model, X, Y, 0.1, loss),
                lambda X, Y: mean_loss(model, X, Y, loss),
                lambda X, Y: train(model, X, Y, cfg, loss)]

    def test_empty_dataset_rejected(self):
        for call in self.batch_calls(single_unit(), self.loss):
            with pytest.raises(DomainError):
                call(np.empty((0, 1)), np.empty((0, 1)))

    def test_mismatched_rows_rejected(self):
        X = np.array([[1.0], [2.0], [3.0]])
        for call in self.batch_calls(single_unit(), self.loss):
            # a one-row Y would broadcast against the outputs of X
            for Y in (np.ones((1, 1)), np.ones((2, 1)), np.ones((4, 1)),
                      np.ones((3, 2)), np.ones(3)):
                with pytest.raises(ShapeError):
                    call(X, Y)
            with pytest.raises(ShapeError):
                call(X[:, 0], np.ones(3))


class TestTrain:
    loss = LossSpec(SQUARED_ERROR)

    def test_zero_epochs_noop(self):
        model = single_unit()
        cfg = OptimizerConfig(kind="gd", learning_rate=0.5, epochs=0)
        out, history = train(model, [[1.0]], [[1.0]], cfg, self.loss)
        assert history == []
        assert np.array_equal(out.layers[0].weights, model.layers[0].weights)

    def test_sgd_equals_minibatch_one(self):
        rng = derive_rng(4, "xor")
        X, Y = random_dataset(rng, 6, 2, 1)
        model = init_model([2, 3, 1], 31)
        a = OptimizerConfig(kind="sgd", learning_rate=0.3, epochs=4,
                            shuffle_seed=12)
        b = OptimizerConfig(kind="minibatch", batch_size=1, learning_rate=0.3,
                            epochs=4, shuffle_seed=12)
        _, ha = train(model, X, Y, a, self.loss)
        _, hb = train(model, X, Y, b, self.loss)
        assert ha == hb

    def test_seed_determinism(self):
        rng = derive_rng(5, "det")
        X, Y = random_dataset(rng, 8, 2, 1)
        cfg = OptimizerConfig(kind="minibatch", batch_size=3, learning_rate=0.2,
                              epochs=3, shuffle_seed=77)
        _, h1 = train(init_model([2, 3, 1], 41), X, Y, cfg, self.loss)
        _, h2 = train(init_model([2, 3, 1], 41), X, Y, cfg, self.loss)
        assert h1 == h2

    def test_xor_minibatch_converges(self):
        X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        Y = [[0.0], [1.0], [1.0], [0.0]]
        model = init_model([2, 2, 1], 2024)
        cfg = OptimizerConfig(kind="minibatch", batch_size=2, learning_rate=0.5,
                              epochs=5000, shuffle_seed=2024)
        _, history = train(model, X, Y, cfg, self.loss)
        assert history[-1] < 0.05

    def test_divergence_guard(self):
        # a sigmoid output stays in (0, 1), so a target of 1e4 keeps the
        # loss near 0.5 * 1e8, above DIVERGENCE_GUARD
        cfg = OptimizerConfig(kind="gd", learning_rate=0.5, epochs=50)
        with pytest.raises(DivergenceError):
            train(single_unit(), [[1.0]], [[1e4]], cfg, self.loss)

    def test_batch_size_exceeding_dataset_rejected(self):
        cfg = OptimizerConfig(kind="minibatch", batch_size=5, learning_rate=0.1,
                              epochs=1)
        with pytest.raises(DomainError):
            train(single_unit(), [[1.0]], [[1.0]], cfg, self.loss)

    def test_lr_schedule_decay(self):
        cfg = OptimizerConfig(kind="sgd", learning_rate=1.0, epochs=1,
                              lr_decay=0.5)
        assert cfg.rate_at(0) == 1.0
        assert cfg.rate_at(2) == 0.5

    def test_config_validation(self):
        with pytest.raises(DomainError):
            OptimizerConfig(kind="adam", learning_rate=0.1, epochs=1)
        with pytest.raises(DomainError):
            OptimizerConfig(kind="gd", learning_rate=0.0, epochs=1)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("learning_rate", -math.inf), ("lr_decay", math.nan),
        ("lr_decay", math.inf), ("lr_decay", -0.5)])
    def test_non_finite_rate_rejected(self, field, value):
        kwargs = dict(kind="minibatch", learning_rate=0.5, epochs=1, lr_decay=0.0)
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            OptimizerConfig(**dict(kwargs, **{field: value}))


class TestInitModel:
    def test_glorot_range(self):
        model = init_model([4, 8, 2], 9)
        r = math.sqrt(6.0 / (4 + 8))
        w = model.layers[0].weights
        assert np.all(np.abs(w) <= r)
        assert np.all(model.layers[0].bias == 0)

    def test_init_deterministic(self):
        a = init_model([3, 3], 5)
        b = init_model([3, 3], 5)
        assert np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_non_positive_sizes_rejected(self):
        for sizes in ([3, 0, 2], [3, -1, 2]):
            with pytest.raises(DomainError):
                init_model(sizes, 5)
