"""Acceptance suite: twelve end-to-end criteria covering the full stack.

Each test prints a single `criterion NN: PASS/FAIL` line (visible with
`pytest -rA` or on failure) and enforces the stated tolerance and, where
applicable, the runtime budget.  Criteria that depend on randomness use
committed seeds, so every run is deterministic.
"""

import hashlib
import itertools
import json
import math
import os
import time

import numpy as np

from spinsc import bitstream
from spinsc.cli import main as cli_main
from spinsc.llgs import GAMMA, Q_E, SpinCurrentPulse, default_device_params, simulate_pulse
from spinsc.mtj import default_mtj_params, fit_stochastic_sigmoid, sweep_switching_curve
from spinsc.network import STOCHASTIC, NetworkModel, load_model
from spinsc.polar import (PolarCodeSpec, construct_frozen_set, encode,
                          generate_frames, neural_sc_decode, ber_experiment,
                          polar_transform, sc_decode)
from spinsc.training import (SQUARED_ERROR, LossSpec, OptimizerConfig,
                             backprop_gradient, init_model, mean_loss,
                             minibatch_step, train)
from spinsc.rngtools import derive_rng

from llgs_oracles import sample_thermal_field

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def tilted(theta):
    return np.array([math.sin(theta), 0.0, math.cos(theta)])


def critical_charge_current(params):
    dev = params.device
    spin = dev.alpha * GAMMA * dev.Hk * Q_E * dev.Ns
    return spin / params.theta_sh


def test_criterion_01_thermal_field_variance():
    t0 = time.perf_counter()
    p = default_device_params()
    # closed form, written out from scratch
    pref2 = (p.alpha / (1 + p.alpha ** 2)) * 2 * 1.380649e-23 * p.T / (
        GAMMA * 1.25663706212e-6 * p.Ms * p.V * p.dt)
    draws = sample_thermal_field(p, derive_rng(2026, "acc-thermal"),
                                 size=1_000_000)
    rel = np.abs(draws.var(axis=0) / pref2 - 1.0)
    zero = sample_thermal_field(default_device_params(T=0.0),
                                derive_rng(0, "z"))
    elapsed = time.perf_counter() - t0
    ok = np.all(rel < 0.01) and np.array_equal(zero, np.zeros(3)) and elapsed < 10
    report(1, ok, f"variance rel err {rel.max():.2e} (<1%), "
                  f"T=0 exact zero, {elapsed:.1f}s (<10s)")


def test_criterion_02_llgs_sanity():
    # (a) drift on a 1e6-step thermal run at the default dt
    p = default_device_params()
    tr = simulate_pulse(tilted(math.radians(178)), SpinCurrentPulse(5e-4, 1e6 * p.dt),
                        p, 0.0, seed=7, record=False)
    drift_ok = tr.max_post_renorm_drift <= 1e-9

    # (b) T=0 damping: monotone non-decreasing mz toward the easy axis
    p0 = default_device_params(T=0.0)
    relax = simulate_pulse(tilted(0.4), SpinCurrentPulse(0.0, 2e-8), p0,
                           0.0, seed=1)
    mz = relax.m[:, 2]
    damp_ok = np.all(np.diff(mz) >= -1e-15) and mz[-1] > 1 - 1e-3

    # (c) dt-halving endpoint stability at T=0
    ic = critical_charge_current(default_mtj_params())
    spin = 20 * ic * 0.3
    end = []
    for dt in (1e-13, 5e-14):
        pd = default_device_params(T=0.0, dt=dt)
        t = simulate_pulse(tilted(math.radians(178)),
                           SpinCurrentPulse(spin, 2e-9), pd, 0.0, seed=1,
                           record=False)
        end.append(t.m[-1])
    dt_gap = float(np.max(np.abs(end[0] - end[1])))
    ok = drift_ok and damp_ok and dt_gap <= 1e-4
    report(2, ok, f"post-renorm drift {tr.max_post_renorm_drift:.1e} (<=1e-9), "
                  f"monotone damping, dt-halving gap {dt_gap:.1e} (<=1e-4)")


# the reference device-sweep's switching_curve.csv and sigmoid_fit.json
REFERENCE_SWEEP_SHA256 = (
    "71d59e3564a2a384716d4c5258bb8b04710868d3cb67541a8de9aba4973b8815",
    "e4ce65e37541c4d0ceec0119b837c754ce5345f77126409761b26fb6e15a3b38")


def test_criterion_03_stochastic_sigmoid_sweep(tmp_path):
    """The reference sweep (configs/device_sweep.cfg), on 2 workers: a sweep
    has the same bits at any worker count."""
    t0 = time.perf_counter()
    params = default_mtj_params()
    currents = np.linspace(1.15e-3, 2.05e-3, 15)
    curve = sweep_switching_curve(currents, 5e-10, 2000, params, seed=42,
                                  workers=2)
    slack = curve.ci_halfwidth[:-1] + curve.ci_halfwidth[1:]
    monotone = np.all(np.diff(curve.p_hat) >= -slack)
    fit = fit_stochastic_sigmoid(curve)
    elapsed = time.perf_counter() - t0
    paths = tmp_path / "switching_curve.csv", tmp_path / "sigmoid_fit.json"
    curve.to_csv(paths[0])
    fit.to_json(paths[1])
    pinned = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    ok = (monotone and fit.r_squared >= 0.98 and elapsed < 300
          and pinned == REFERENCE_SWEEP_SHA256)
    report(3, ok, f"monotone within CI, r^2={fit.r_squared:.4f} (>=0.98), "
                  f"{elapsed:.0f}s (<300s), reference bytes "
                  f"{pinned == REFERENCE_SWEEP_SHA256}")


def test_criterion_04_sc_arithmetic_concentration():
    L = 1_000_000
    values = np.array([0.1, 0.5, 0.9])
    n_seeds = 100
    targets = np.stack([np.outer(values, values),                # AND: p * q
                        (values[:, None] + values[None]) / 2])   # MUX: (p + q) / 2
    bound = 3 * np.sqrt(targets * (1 - targets) / L)
    passes = np.zeros(targets.shape, dtype=int)    # (op, p, q) cells
    for i in range(n_seeds):
        root = derive_rng(3, "sc-bench", i)
        seeds = [int(root.integers(0, 2 ** 63)) for _ in range(7)]
        a = np.stack([bitstream.encode(p, L, s) for p, s in zip(values, seeds[:3])])
        b = np.stack([bitstream.encode(q, L, s) for q, s in zip(values, seeds[3:6])])
        sel = bitstream.encode(0.5, L, seeds[6])
        a, b = a[:, None], b[None]
        got = np.stack([bitstream.decode(bitstream.multiply_and(a, b)),
                        bitstream.decode(bitstream.scaled_add_mux(a, b, sel))])
        passes += np.abs(got - targets) <= bound
    worst = passes.min()
    report(4, worst >= 99, f"min pass count {worst}/100 over "
                           f"{passes.size} (op, p, q) cells (>=99)")


def _fd_gradient(model, x, y, loss, h=1e-6):
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


def test_criterion_05_gradient_correctness():
    loss = LossSpec(SQUARED_ERROR)
    rng = derive_rng(11, "acc-grad")
    worst = 0.0
    for _ in range(100):
        sizes = [int(rng.integers(1, m + 1)) for m in (4, 8, 4)]
        model = init_model(sizes, int(rng.integers(0, 2 ** 63)))
        x = rng.standard_normal(sizes[0])
        y = rng.uniform(0.1, 0.9, sizes[-1])
        bp = backprop_gradient(model, [x], [y], loss)
        fd = _fd_gradient(model, x, y, loss)
        for (bw, bb), (fw, fb) in zip(bp, fd):
            worst = max(worst, float(np.max(
                np.abs(bw - fw) / np.maximum(np.abs(fw), 1e-8))))
            worst = max(worst, float(np.max(
                np.abs(bb - fb) / np.maximum(np.abs(fb), 1e-8))))
    report(5, worst <= 1e-5,
           f"max relative error {worst:.2e} over 100 networks (<=1e-5)")


def test_criterion_06_optimizer_identities():
    loss = LossSpec(SQUARED_ERROR)
    rng = derive_rng(6, "acc-opt")
    model = init_model([3, 5, 2], 61)
    rows = [(rng.standard_normal(3), rng.uniform(0, 1, 2)) for _ in range(6)]
    X, Y = np.array([x for x, _ in rows]), np.array([y for _, y in rows])

    def run(kind, epochs, batch_size=1):
        cfg = OptimizerConfig(kind, 0.3, epochs, batch_size, shuffle_seed=6)
        return train(model, X, Y, cfg, loss)

    sgd, sgd_history = run("sgd", 2)
    b1, b1_history = run("minibatch", 2, batch_size=1)
    gd, _ = run("gd", 1)
    exact = sgd_history == b1_history
    for x, y in ((sgd, b1), (gd, minibatch_step(model, X, Y, 0.3, loss))):
        for lx, ly in zip(x.layers, y.layers):
            exact &= np.array_equal(lx.weights, ly.weights)
            exact &= np.array_equal(lx.bias, ly.bias)
    gap = 0.0
    for i, layer in enumerate(gd.layers):
        acc_w = np.zeros_like(layer.weights)
        acc_b = np.zeros_like(layer.bias)
        for x, y in zip(X, Y):
            s = minibatch_step(model, [x], [y], 0.3, loss)
            acc_w += s.layers[i].weights
            acc_b += s.layers[i].bias
        gap = max(gap, float(np.max(np.abs(acc_w / len(X) - layer.weights))))
        gap = max(gap, float(np.max(np.abs(acc_b / len(X) - layer.bias))))
    ok = exact and gap <= 1e-12
    report(6, ok, f"train: SGD==minibatch(B=1) over 2 epochs and GD epoch=="
                  f"minibatch_step(all rows) bit-exact, "
                  f"SGD-mean vs GD gap {gap:.1e} (<=1e-12)")


def _dense_transform(u):
    F = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    G = np.array([[1]], dtype=np.uint8)
    for _ in range(int(math.log2(len(u)))):
        G = np.kron(G, F)
    return (np.asarray(u, dtype=np.uint8) @ G) % 2


def test_criterion_07_encode_oracle():
    ok = all(np.array_equal(polar_transform(np.array(u, np.uint8)),
                            _dense_transform(u))
             for u in itertools.product([0, 1], repeat=8))
    report(7, ok, "N=8 encoder matches the dense GF(2) matrix oracle "
                  "on all 256 inputs")


def _oracle_sc(llrs, frozen):
    N = len(llrs)
    u = np.zeros(N, dtype=np.uint8)
    for i in range(N):
        if frozen[i]:
            continue
        rem = N - 1 - i
        scores = {}
        for ui in (0, 1):
            logs = []
            for comp in range(2 ** rem):
                full = u.copy()
                full[i] = ui
                for j in range(rem):
                    full[i + 1 + j] = (comp >> j) & 1
                x = _dense_transform(full)
                logs.append(0.5 * float(np.sum(llrs * (1.0 - 2.0 * x))))
            m = max(logs)
            scores[ui] = m + math.log(sum(math.exp(v - m) for v in logs))
        u[i] = 0 if scores[0] >= scores[1] else 1
    return u


def test_criterion_08_sc_decoder_oracle():
    t0 = time.perf_counter()
    spec = construct_frozen_set(8, 4)
    cw = encode(np.array(list(itertools.product([0, 1], repeat=4))), spec)
    # BPSK over AWGN at Eb/N0 = 1 dB, 20 noise draws per codeword
    sigma2 = 1.0 / (2.0 * spec.rate * 10.0 ** 0.1)
    noise = derive_rng(8, "acc-oracle").standard_normal((16, 20, 8))
    llrs = 2.0 * (1.0 - 2.0 * cw[:, None, :] + math.sqrt(sigma2) * noise) / sigma2
    ok = True
    for row, message in zip(llrs.reshape(-1, 8), sc_decode(llrs, spec).reshape(-1, 4)):
        ok &= np.array_equal(message, _oracle_sc(row, spec.frozen)[~spec.frozen])
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 60,
           f"16 messages x 20 noise draws bit-for-bit, {elapsed:.0f}s (<60s)")


def test_criterion_09_noiseless_invertibility():
    ok = True
    for n in range(1, 11):
        N = 2 ** n
        spec = construct_frozen_set(N, N // 2)
        messages, llrs, _ = generate_frames(spec, 9, ("acc-inv", N), range(100),
                                            [100.0] * 100)
        ok &= np.array_equal(sc_decode(llrs, spec), messages)
    report(9, ok, "100/100 random messages recovered at every N in {2..1024}")


def test_criterion_10_coding_gain():
    t0 = time.perf_counter()
    spec = construct_frozen_set(128, 64)
    frames = 2000
    rows, = ber_experiment(spec, [2.0, 3.0, 4.0], frames, 7)
    bers = [r["ber"] for r in rows]
    bits = frames * spec.K

    # empirical uncoded BPSK at 3 dB (independent direct simulation)
    rng = np.random.default_rng(20260824)
    n_unc = 200_000
    sigma = math.sqrt(1.0 / (2 * 10 ** 0.3))
    y = 1.0 + sigma * rng.standard_normal(n_unc)
    uncoded = float(np.count_nonzero(y < 0)) / n_unc

    se = [math.sqrt(b * (1 - b) / bits) for b in bers]
    monotone = all(bers[i + 1] <= bers[i] + 3 * math.hypot(se[i], se[i + 1])
                   for i in range(2))
    elapsed = time.perf_counter() - t0
    ok = bits >= 1e5 and bers[1] < uncoded and monotone and elapsed < 600
    report(10, ok, f"coded BER@3dB {bers[1]:.2e} < uncoded {uncoded:.2e}, "
                   f"monotone across 2/3/4 dB, {bits} info bits, "
                   f"{elapsed:.0f}s (<600s)")


def test_criterion_11_neural_decoder_pipeline(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "train_decoder.cfg")
    rc = cli_main(["train-decoder", "--config", cfg,
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    spec = PolarCodeSpec.from_json(tmp_path / "code_spec.json")
    model = load_model(tmp_path / "model.json")
    history = (tmp_path / "history.csv").read_text().splitlines()
    final_loss = float(history[-1].split(",")[1])

    messages, llrs, _ = generate_frames(spec, 20260824, ("acc-neural",),
                                        range(1000), [100.0] * 1000)
    bit_errors = int(np.count_nonzero(neural_sc_decode(llrs, model, spec) != messages))
    noiseless_rate = bit_errors / (1000 * spec.K)

    spiking = NetworkModel(layers=model.layers, activation_mode=STOCHASTIC)
    _, llrs, seeds = generate_frames(spec, 20260824, ("acc-agree",),
                                     range(1000), [4.0] * 1000)
    det = neural_sc_decode(llrs, model, spec)
    sto = neural_sc_decode(llrs, spiking, spec, window=256, seed=seeds)
    agree = int(np.count_nonzero((det == sto).all(axis=1)))
    ok = final_loss < 0.2 and noiseless_rate < 0.01 and agree >= 950
    report(11, ok, f"final loss {final_loss:.3f} (<0.2), noiseless per-bit "
                   f"error {noiseless_rate:.3%} (<1%), W=256 agreement "
                   f"{agree}/1000 (>=950)")


REPRO_CONFIGS = {
    "device-sweep": """
[run]
seed = 42
[sweep]
currents_a = 1.15e-3, 1.4e-3, 1.6e-3, 1.8e-3, 2.05e-3
pulse_width_s = 5e-10
trials_per_point = 40
""",
    "sc-arith-bench": """
[run]
seed = 3
[scarith]
length = 4096
seeds = 5
values = 0.3, 0.7
""",
    "train-decoder": """
[run]
seed = 99
[code]
n = 8
k = 4
[dataset]
frames = 32
snrs_db = 2.0
[network]
hidden = 8
[training]
epochs = 2
batch_size = 8
""",
    "ber": """
[run]
seed = 5
[code]
n = 16
k = 8
[ber]
decoder = classical
snrs_db = 1.0, 3.0
min_frames = 50
""",
    "gradcheck": """
[run]
seed = 11
[gradcheck]
networks = 10
max_sizes = 3, 5, 3
""",
}


def test_criterion_12_manifest_reproducibility(tmp_path):
    checked = []
    for command, text in REPRO_CONFIGS.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        first = tmp_path / command / "first"
        rc = cli_main([command, "--config", str(cfg), "--out-dir", str(first),
                       "--workers", "1"])
        assert rc == 0, command
        with open(first / "manifest.json") as fh:
            outputs = json.load(fh)["outputs"]
        for workers in (1, 2):
            redo = tmp_path / command / f"redo{workers}"
            rc = cli_main(["rerun", str(first / "manifest.json"),
                           "--out-dir", str(redo), "--workers", str(workers)])
            assert rc == 0, command
            for name in outputs:
                if name.startswith("timing_"):
                    continue  # wall-clock measurements, not seeded data
                same = (first / name).read_bytes() == (redo / name).read_bytes()
                assert same, f"{command}/{name} differs at workers={workers}"
                checked.append((command, name, workers))
    report(12, True, f"{len(checked)} data files byte-identical across reruns "
                     f"and worker counts for all {len(REPRO_CONFIGS)} commands")
