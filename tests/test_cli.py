from functools import reduce
import hashlib
import json
import math
import operator
import os
import platform
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from spinsc import __version__, bitstream, cli, mtj, network, polar, rngtools, training
from spinsc.cli import MANIFEST_NAME, atomic_path, main
from spinsc.errors import ConfigError, ConvergenceError, SpinscError
from spinsc.config import ConfigView, load_config
from spinsc.network import STOCHASTIC, NetworkModel, save_model
from test_acceptance import REPRO_CONFIGS


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


GRADCHECK_CFG = """
[run]
seed = 11
[gradcheck]
networks = 10
max_sizes = 3, 5, 3
loss = squared-error
"""

SC_ARITH_CFG = """
[run]
seed = 3
[scarith]
length = 4096
seeds = 5
values = 0.3, 0.7
"""

TRAIN_CFG = """
[run]
seed = 99
[code]
n = 4
k = 2
[dataset]
frames = 32
snrs_db = 2.0
[network]
hidden = 4
[training]
kind = minibatch
batch_size = 8
learning_rate = 0.5
epochs = 2
loss = binary-cross-entropy
"""

BER_CFG = """
[run]
seed = 5
[code]
n = 8
k = 4
[ber]
decoder = classical
snrs_db = 1.0, 3.0
min_frames = 20
"""

SWEEP_SUBCRITICAL_CFG = """
[run]
seed = 2
[device]
temperature_k = 0.0
[sweep]
currents_a = 1e-5, 2e-5, 3e-5, 4e-5, 5e-5
pulse_width_s = 5e-11
trials_per_point = 3
"""

SWEEP_RANGE_CFG = """
[sweep]
current_start_a = 1e-3
current_stop_a = 2e-3
points = 5
pulse_width_s = 5e-10
trials_per_point = 2
"""

SWEEP_THERMAL_CFG = """
[run]
seed = 42
[sweep]
currents_a = 1.15e-3, 1.4e-3, 1.6e-3, 1.8e-3, 2.05e-3
pulse_width_s = 5e-10
trials_per_point = 40
"""


def run(cmd, cfg_path, out_dir, *extra):
    return main([cmd, "--config", cfg_path, "--out-dir", str(out_dir),
                 *extra])


def read_manifest(out_dir):
    with open(os.path.join(str(out_dir), "manifest.json")) as fh:
        return json.load(fh)


class TestGradcheck:
    def test_end_to_end(self, tmp_path):
        cfg = write_cfg(tmp_path / "g.cfg", GRADCHECK_CFG)
        assert run("gradcheck", cfg, tmp_path) == 0
        lines = (tmp_path / "gradcheck.csv").read_text().splitlines()
        assert lines[0] == "net,sizes,max_rel_error"
        assert len(lines) == 11
        assert all(float(l.split(",")[2]) <= 1e-5 for l in lines[1:])
        doc = read_manifest(tmp_path)
        assert doc["command"] == "gradcheck"
        assert doc["master_seed"] == 11
        assert doc["outputs"] == ["gradcheck.csv"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "g.cfg", GRADCHECK_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gradcheck", cfg, a) == 0
        assert main(["rerun", str(a / "manifest.json"),
                     "--out-dir", str(b)]) == 0
        assert (a / "gradcheck.csv").read_bytes() == \
               (b / "gradcheck.csv").read_bytes()

    def test_rerun_of_another_version_warns(self, tmp_path, capsys):
        """A manifest written by another version reruns as before, with a
        warning naming both versions; one of this version reruns silently."""
        cfg = write_cfg(tmp_path / "g.cfg", GRADCHECK_CFG)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run("gradcheck", cfg, a) == 0
        capsys.readouterr()
        assert main(["rerun", str(a / "manifest.json"), "--out-dir", str(b)]) == 0
        assert capsys.readouterr().err == ""
        manifest = read_manifest(a)
        manifest["artifact_version"] = "0.1.0"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        assert main(["rerun", str(old), "--out-dir", str(c)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: manifest {old} was written by spinsc 0.1.0, "
            f"rerun by {__version__}"]
        assert (a / "gradcheck.csv").read_bytes() == \
               (c / "gradcheck.csv").read_bytes()
        assert read_manifest(c)["outputs"] == manifest["outputs"]

    def test_manifest_records_environment_rerun_ignores_it(self, tmp_path, capsys,
                                                           monkeypatch):
        """The manifest's env block names the versions, the platform, the
        CPUs worker_count may use and numpy's SIMD baseline and found
        extensions, as numpy's own record gives them, and its stages split
        duration_s into compute and write; a rerun of a manifest whose env
        and stages differ writes the same bytes, silently."""
        cfg = write_cfg(tmp_path / "g.cfg", GRADCHECK_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gradcheck", cfg, a) == 0
        manifest = read_manifest(a)
        env = manifest["env"]
        assert env["spinsc"] == __version__ and env["numpy"] == np.__version__
        assert env["python"] == platform.python_version()
        uname = platform.uname()
        assert env["platform"] == f"{uname.system}-{uname.release}-{uname.machine}"
        assert env["allowed_cpus"] == rngtools.worker_count(10 ** 6) >= 1
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        assert env["numpy_simd"] == {key: simd.get(key, []) for key in ("baseline", "found")}
        assert all(isinstance(f, str) for fs in env["numpy_simd"].values() for f in fs)
        stages = manifest["stages"]
        assert set(stages) == {"compute_s", "write_s"}
        assert all(t >= 0.0 for t in stages.values())
        assert stages["compute_s"] + stages["write_s"] == \
            pytest.approx(manifest["duration_s"], abs=1e-9)
        manifest["env"] = {"spinsc": __version__, "python": "2.7.18", "numpy": "1.0",
                           "numpy_simd": {"baseline": [], "found": ["NEON"]},
                           "platform": "Darwin-19.6.0-arm64", "allowed_cpus": 64}
        manifest["stages"] = {"compute_s": -1.0}
        other = tmp_path / "other.json"
        other.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(other), "--out-dir", str(b)]) == 0
        assert capsys.readouterr().err == ""
        assert (a / "gradcheck.csv").read_bytes() == (b / "gradcheck.csv").read_bytes()
        assert read_manifest(b)["env"] == env
        # numpy leaves an empty entry out of its record
        monkeypatch.setattr(np, "show_config", lambda mode: {
            "SIMD Extensions": {"baseline": ["NEON"]}})
        assert cli._environment()["numpy_simd"] == {"baseline": ["NEON"], "found": []}


class TestScArithBench:
    def test_end_to_end(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", SC_ARITH_CFG)
        assert run("sc-arith-bench", cfg, tmp_path) == 0
        lines = (tmp_path / "sc_arith.csv").read_text().splitlines()
        assert lines[0] == "op,p,q,length,seeds,passes,bound"
        assert len(lines) == 1 + 2 * 4  # and/mux for each (p, q) pair
        for line in lines[1:]:
            passes = int(line.split(",")[5])
            assert passes >= 4  # 3-sigma bound: at most rare misses

    def test_draws_three_philox_streams_per_seed(self, tmp_path, monkeypatch):
        # 5 seeds x (a, b, sel) streams, each drawing L = 4096 raw words in
        # all; a Counting stream has no other draw, so any other raises
        streams = []
        derive_philox = bitstream.derive_philox

        class Counting:
            def __init__(self, *args):
                self.rng, self.tags, self.drawn = derive_philox(*args), args[1:], 0
                self.bit_generator = self
                streams.append(self)

            def random_raw(self, n):
                self.drawn += n
                return self.rng.bit_generator.random_raw(n)
        monkeypatch.setattr(bitstream, "derive_philox", Counting)
        cfg = write_cfg(tmp_path / "s.cfg", SC_ARITH_CFG)
        assert run("sc-arith-bench", cfg, tmp_path) == 0
        assert len(streams) == 5 * 3
        assert all(s.tags == ("bitstream",) and s.drawn == 4096 for s in streams)

    def test_repeated_value_repeats_its_rows(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", SC_ARITH_CFG.replace(
            "values = 0.3, 0.7", "values = 0.3, 0.7, 0.3"))
        assert run("sc-arith-bench", cfg, tmp_path) == 0
        lines = (tmp_path / "sc_arith.csv").read_text().splitlines()[1:]
        cell = {(j, k): lines[2 * (3 * j + k):2 * (3 * j + k) + 2]
                for j in range(3) for k in range(3)}
        for j in range(3):
            assert cell[2, j] == cell[0, j] and cell[j, 2] == cell[j, 0]

    def test_env_override_changes_output(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "s.cfg", SC_ARITH_CFG)
        monkeypatch.setenv("SPINSC_SCARITH__SEEDS", "2")
        assert run("sc-arith-bench", cfg, tmp_path) == 0
        lines = (tmp_path / "sc_arith.csv").read_text().splitlines()
        assert all(line.split(",")[4] == "2" for line in lines[1:])
        # the resolved override is frozen into the manifest
        assert read_manifest(tmp_path)["config"]["scarith"]["seeds"] == "2"

    def test_identical_across_workers(self, tmp_path):
        """Seed blocks split over 1, 2 or 3 workers write the same bytes; so
        does a single seed on 2 workers, and a rerun on 1 worker of a
        manifest written on 2."""
        cfg = write_cfg(tmp_path / "s.cfg", SC_ARITH_CFG.replace("seeds = 5", "seeds = 7"))
        outs = {w: tmp_path / f"w{w}" for w in (1, 2, 3)}
        for w, out in outs.items():
            assert run("sc-arith-bench", cfg, out, "--workers", str(w)) == 0
            assert read_manifest(out)["workers"] == w
        want = (outs[1] / "sc_arith.csv").read_bytes()
        assert all((out / "sc_arith.csv").read_bytes() == want for out in outs.values())
        again = tmp_path / "rerun"
        assert main(["rerun", str(outs[2] / "manifest.json"), "--workers", "1",
                     "--out-dir", str(again)]) == 0
        assert (again / "sc_arith.csv").read_bytes() == want
        one = write_cfg(tmp_path / "one.cfg", SC_ARITH_CFG.replace("seeds = 5", "seeds = 1"))
        for w in (1, 2):
            assert run("sc-arith-bench", one, tmp_path / f"one{w}", "--workers", str(w)) == 0
        assert (tmp_path / "one1" / "sc_arith.csv").read_bytes() == \
               (tmp_path / "one2" / "sc_arith.csv").read_bytes()

    # sha256 of the little-endian float64 estimates (values, values, AND/MUX,
    # seeds) of REPRO_CONFIGS["sc-arith-bench"]
    ESTIMATES_SHA256 = "d9ee7451c4649fb1f0be33e2b46a44792c556e691f512a3a656ddb4bdca01604"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimates_pinned(self, tmp_path, monkeypatch, workers):
        """The seeds' AND and MUX estimates keep their bits, whose pass
        counts alone sc_arith.csv and its golden hash hold."""
        blocks = []

        def recording(*args):
            blocks.extend(rngtools.parallel_map(*args))
            return blocks
        monkeypatch.setattr(cli, "parallel_map", recording)
        cfg = write_cfg(tmp_path / "s.cfg", REPRO_CONFIGS["sc-arith-bench"])
        assert run("sc-arith-bench", cfg, tmp_path, "--workers", str(workers)) == 0
        est = np.concatenate(blocks, axis=-1).astype("<f8")
        assert est.shape == (2, 2, 2, 5)
        assert hashlib.sha256(est.tobytes()).hexdigest() == self.ESTIMATES_SHA256

    def test_rerun_ignores_missing_env(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "s.cfg", SC_ARITH_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("SPINSC_SCARITH__SEEDS", "2")
        assert run("sc-arith-bench", cfg, a) == 0
        monkeypatch.delenv("SPINSC_SCARITH__SEEDS")
        assert main(["rerun", str(a / "manifest.json"),
                     "--out-dir", str(b)]) == 0
        assert (a / "sc_arith.csv").read_bytes() == \
               (b / "sc_arith.csv").read_bytes()


class TestTrainDecoder:
    def test_end_to_end(self, tmp_path):
        cfg = write_cfg(tmp_path / "t.cfg", TRAIN_CFG)
        assert run("train-decoder", cfg, tmp_path) == 0
        for name in ("code_spec.json", "model.json", "history.csv"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3  # two epochs

    def test_sgd_equals_minibatch_of_one(self, tmp_path):
        base = TRAIN_CFG.replace("batch_size = 8", "batch_size = 1")
        cfg_mb = write_cfg(tmp_path / "mb.cfg", base)
        cfg_sgd = write_cfg(tmp_path / "sgd.cfg",
                            base.replace("kind = minibatch", "kind = sgd"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train-decoder", cfg_mb, a) == 0
        assert run("train-decoder", cfg_sgd, b) == 0
        assert (a / "history.csv").read_bytes() == \
               (b / "history.csv").read_bytes()
        assert (a / "model.json").read_bytes() == \
               (b / "model.json").read_bytes()


class TestBer:
    def test_classical_end_to_end(self, tmp_path):
        cfg = write_cfg(tmp_path / "b.cfg", BER_CFG)
        assert run("ber", cfg, tmp_path) == 0
        lines = (tmp_path / "ber_classical.csv").read_text().splitlines()
        assert lines[0] == "snr_db,frames,bit_errors,frame_errors,ber,fer"
        assert len(lines) == 3
        timing = (tmp_path / "timing_classical.csv").read_text().splitlines()
        assert timing[0] == "snr_db,mean_decode_us"

    def test_rerun_identical_across_workers(self, tmp_path):
        cfg = write_cfg(tmp_path / "b.cfg", BER_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("ber", cfg, a) == 0
        assert main(["rerun", str(a / "manifest.json"), "--out-dir", str(b),
                     "--workers", "2"]) == 0
        assert (a / "ber_classical.csv").read_bytes() == \
               (b / "ber_classical.csv").read_bytes()

    def test_neural_without_model_fails_cleanly(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "b.cfg", BER_CFG.replace(
            "decoder = classical",
            "decoder = neural\nmodel_path = %s" % (tmp_path / "missing.json")))
        assert run("ber", cfg, tmp_path) == 2
        assert "missing.json" in capsys.readouterr().err
        assert not (tmp_path / "ber_neural.csv").exists()
        assert not (tmp_path / "manifest.json").exists()

    def test_unknown_decoder_fails_cleanly(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "b.cfg", BER_CFG.replace(
            "decoder = classical", "decoder = magic"))
        out = tmp_path / "out"
        assert run("ber", cfg, out) == 2
        assert "error: [ber] decoder must be classical, neural or paired, " \
               "got 'magic'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_paired_decoders(self, tmp_path):
        train_cfg = write_cfg(tmp_path / "t.cfg", TRAIN_CFG.replace(
            "n = 4\nk = 2", "n = 8\nk = 4"))
        train_dir = tmp_path / "train"
        assert run("train-decoder", train_cfg, train_dir) == 0
        cfg = write_cfg(tmp_path / "b.cfg", BER_CFG.replace(
            "decoder = classical",
            "decoder = paired\nmodel_path = %s" % (train_dir / "model.json")))
        out = tmp_path / "out"
        assert run("ber", cfg, out) == 0
        for name in ("ber_classical.csv", "ber_neural.csv",
                     "timing_classical.csv", "timing_neural.csv"):
            assert (out / name).exists()
        # one block decoded by both gives each decoder's own-run bytes
        for name in ("classical", "neural"):
            single = tmp_path / name
            assert run("ber", write_cfg(tmp_path / f"{name}.cfg", BER_CFG.replace(
                "decoder = classical", "decoder = %s\nmodel_path = %s"
                % (name, train_dir / "model.json"))), single) == 0
            assert (out / f"ber_{name}.csv").read_bytes() == \
                (single / f"ber_{name}.csv").read_bytes()

    def test_paired_neural_failure_writes_nothing(self, tmp_path, capsys):
        # the model is trained for (4,2); decoding the (8,4) code with it
        # fails after the classical decoder has already run
        train_dir = tmp_path / "train"
        assert run("train-decoder", write_cfg(tmp_path / "t.cfg", TRAIN_CFG),
                   train_dir) == 0
        cfg = write_cfg(tmp_path / "b.cfg", BER_CFG.replace(
            "decoder = classical",
            "decoder = paired\nmodel_path = %s" % (train_dir / "model.json")))
        out = tmp_path / "out"
        assert run("ber", cfg, out) == 2
        assert "error: model dimensions" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("text", [
        '{"version": 1, "activation_mode": "deterministic-sigmoid"}',
        '{"version": 1, "layers": ['], ids=["no-layers", "truncated"])
    def test_malformed_model_fails_cleanly(self, tmp_path, capsys, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        cfg = write_cfg(tmp_path / "b.cfg", BER_CFG.replace(
            "decoder = classical", "decoder = neural\nmodel_path = %s" % model))
        out = tmp_path / "out"
        assert run("ber", cfg, out) == 2
        assert "error: model file" in capsys.readouterr().err
        assert list(out.iterdir()) == []


    @pytest.mark.parametrize("old, new, message", [
        ('"bias_enabled": true', '"bias_enabled": false',
         "needs bias_enabled true, got False"),
        ('"output_activation": "sigmoid"', '"output_activation": "identity"',
         "needs output_activation \"sigmoid\", got 'identity'")],
        ids=["bias_enabled", "output_activation"])
    def test_bias_free_model_fails_cleanly(self, tmp_path, capsys, old, new,
                                           message):
        train_dir = tmp_path / "train"
        assert run("train-decoder", write_cfg(tmp_path / "t.cfg", TRAIN_CFG),
                   train_dir) == 0
        model = train_dir / "model.json"
        assert old in model.read_text()
        model.write_text(model.read_text().replace(old, new))
        cfg = write_cfg(tmp_path / "b.cfg", BER_CFG.replace(
            "n = 8\nk = 4", "n = 4\nk = 2").replace(
            "decoder = classical", "decoder = neural\nmodel_path = %s" % model))
        out = tmp_path / "out"
        assert run("ber", cfg, out) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []


    FIT = {"a": 1.2e3, "b": 1e-4, "r_squared": 0.99}

    @pytest.mark.parametrize("unit_current, fit, message", [
        (1e-3, dict(FIT, a=float("nan")), "a sigmoid fit needs finite"),
        (1e-3, dict(FIT, b=float("inf")), "a sigmoid fit needs finite"),
        (1e-3, dict(FIT, r_squared=float("nan")), "a sigmoid fit needs finite"),
        (1e-3, None, "a positive unit_current needs a neuron_fit"),
        (-1e-3, FIT, "unit_current must be finite and non-negative"),
        (float("nan"), FIT, "unit_current must be finite and non-negative")],
        ids=["nan-a", "inf-b", "nan-r_squared", "no-fit", "negative", "nan-unit"])
    def test_bad_device_fields_fail_cleanly(self, tmp_path, capsys, unit_current,
                                            fit, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "version": 1, "activation_mode": "stochastic-firing",
            "output_activation": "sigmoid", "bias_enabled": True,
            "unit_current": unit_current, "neuron_fit": fit,
            "layers": [{"n_out": 2, "n_in": 4, "weights": [0.0] * 8,
                        "bias": [0.0, 0.0]}]}))
        cfg = write_cfg(tmp_path / "b.cfg", BER_CFG.replace(
            "n = 8\nk = 4", "n = 4\nk = 2").replace(
            "decoder = classical", "decoder = neural\nmodel_path = %s" % model))
        out = tmp_path / "out"
        assert run("ber", cfg, out) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestDeviceSweep:
    def test_subcritical_fit_failure_keeps_curve(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "d.cfg", SWEEP_SUBCRITICAL_CFG)
        assert run("device-sweep", cfg, tmp_path) == 3
        assert "sigmoid fit failed" in capsys.readouterr().err
        curve = (tmp_path / "switching_curve.csv").read_text().splitlines()
        assert curve[0] == "current_A,p_hat,trials,ci_halfwidth"
        assert all(float(l.split(",")[1]) == 0.0 for l in curve[1:])
        assert not (tmp_path / "sigmoid_fit.json").exists()
        # the manifest is still written so the run can be repeated
        assert read_manifest(tmp_path)["outputs"] == ["switching_curve.csv"]

    def test_fit_convergence_error_writes_nothing(self, tmp_path, capsys,
                                                  monkeypatch):
        def fail(curve):
            raise ConvergenceError("logistic fit did not converge")
        monkeypatch.setattr(mtj, "fit_stochastic_sigmoid", fail)
        cfg = write_cfg(tmp_path / "d.cfg", SWEEP_SUBCRITICAL_CFG)
        out = tmp_path / "out"
        assert run("device-sweep", cfg, out) == 2
        assert "error: logistic fit did not converge" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, value, message", [
        ("SWEEP__PULSE_WIDTH_S", "nan", "pulse_width must be finite"),
        ("SWEEP__PULSE_WIDTH_S", "inf", "pulse_width must be finite"),
        ("DEVICE__RELAX_TIME_S", "nan", "relax_time"),
        ("DEVICE__RELAX_TIME_S", "1e308", "a pulse of"),
        ("SWEEP__PULSE_WIDTH_S", "1e308", "a pulse of"),
        ("DEVICE__TEMPERATURE_K", "nan", "device parameters must be finite"),
        ("DEVICE__HK_A_PER_M", "nan", "device parameters must be finite"),
        ("DEVICE__HD_A_PER_M", "inf", "device parameters must be finite"),
        ("SWEEP__CURRENTS_A", "1e-5, 2e-5, 3e-5, 4e-5, inf",
         "charge currents must be finite"),
        ("SWEEP__CURRENTS_A", "1e-5, 2e-5, nan, 4e-5, 5e-5",
         "charge currents must be finite")])
    def test_non_finite_input_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                             key, value, message):
        monkeypatch.setenv(f"SPINSC_{key}", value)
        cfg = write_cfg(tmp_path / "d.cfg", SWEEP_SUBCRITICAL_CFG)
        out = tmp_path / "out"
        assert run("device-sweep", cfg, out) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, value", [
        ("ms_a_per_m", "1e-300"), ("volume_m3", "1e-320"), ("dt_s", "1e-320")])
    def test_underflowing_device_writes_nothing(self, tmp_path, capsys, key, value):
        """Positive device values whose products round to 0 exit 2, not with a
        ZeroDivisionError traceback, and write nothing."""
        cfg = write_cfg(tmp_path / "d.cfg",
                        SWEEP_THERMAL_CFG + f"[device]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert run("device-sweep", cfg, out) == 2
        assert "must be finite and positive" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_thermal_sweep_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "d.cfg", SWEEP_THERMAL_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("device-sweep", cfg, a) == 0
        assert main(["rerun", str(a / "manifest.json"), "--out-dir", str(b),
                     "--workers", "2"]) == 0
        assert (a / "switching_curve.csv").read_bytes() == \
               (b / "switching_curve.csv").read_bytes()
        assert (a / "sigmoid_fit.json").read_bytes() == \
               (b / "sigmoid_fit.json").read_bytes()

    def test_legacy_resistance_keys_change_nothing(self, tmp_path, capsys):
        """A manifest that still carries [device] r_p_ohm/r_ap_ohm reruns to
        the bytes of the same sweep without them, warning of both keys."""
        cfg = write_cfg(tmp_path / "d.cfg", SWEEP_THERMAL_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("device-sweep", cfg, a) == 0
        manifest = read_manifest(a)
        manifest["config"]["device"] = {"r_p_ohm": "5e3", "r_ap_ohm": "10e3"}
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(legacy), "--out-dir", str(b)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: unused config key [device] r_p_ohm",
            "warning: unused config key [device] r_ap_ohm"]
        for name in ("switching_curve.csv", "sigmoid_fit.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestManifestFormat:
    @pytest.mark.parametrize("cmd, text", [
        ("gradcheck", GRADCHECK_CFG), ("sc-arith-bench", SC_ARITH_CFG),
        ("train-decoder", TRAIN_CFG), ("ber", BER_CFG),
        ("device-sweep", SWEEP_SUBCRITICAL_CFG)])
    def test_json_at_indent_2_with_final_newline(self, tmp_path, cmd, text):
        # duration_s changes from run to run, so the format is checked, not a hash
        cfg = write_cfg(tmp_path / "run.cfg", text)
        assert run(cmd, cfg, tmp_path / "out") in (0, 3)
        raw = (tmp_path / "out" / "manifest.json").read_bytes()
        text = raw.decode()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert b"\r" not in raw


class TestAtomicPath:
    def test_nested_writers_get_own_temp_files(self, tmp_path):
        final = tmp_path / "data.csv"
        with atomic_path(final) as outer:
            with atomic_path(final) as inner:
                assert outer != inner
                assert os.path.dirname(inner) == str(tmp_path)
                for tmp, text in ((outer, "outer"), (inner, "inner")):
                    with open(tmp, "w") as fh:
                        fh.write(text)
            assert final.read_text() == "inner"
        assert final.read_text() == "outer"
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    def test_failed_writers_clean_up(self, tmp_path):
        final = tmp_path / "data.csv"
        with pytest.raises(RuntimeError):
            with atomic_path(final) as outer:
                open(outer, "w").close()
                with atomic_path(final) as inner:
                    open(inner, "w").close()
                    raise RuntimeError("writer failed")
        assert list(tmp_path.iterdir()) == []

    def test_final_file_keeps_default_permissions(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("x")
        final = tmp_path / "data.csv"
        with atomic_path(final) as tmp:
            with open(tmp, "w") as fh:
                fh.write("x")
        assert final.stat().st_mode == plain.stat().st_mode


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run("gradcheck", str(tmp_path / "nope.cfg"), tmp_path) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_required_key_no_partial_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "b.cfg", "[run]\nseed = 1\n[code]\nn = 8\n")
        assert run("ber", cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert "[code] k" in err
        assert not (tmp_path / "manifest.json").exists()
        assert not list(tmp_path.glob("*.csv"))

    def test_negative_seed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "g.cfg", GRADCHECK_CFG)
        out = tmp_path / "out"
        assert run("gradcheck", cfg, out, "--seed", "-1") == 2
        assert "error: master seed must be a non-negative integer" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_negative_hidden_width(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg",
                        TRAIN_CFG.replace("hidden = 4", "hidden = -1"))
        out = tmp_path / "out"
        assert run("train-decoder", cfg, out) == 2
        assert "error: layer sizes must be >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_zero_scarith_length(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.cfg",
                        SC_ARITH_CFG.replace("length = 4096", "length = 0"))
        out = tmp_path / "out"
        assert run("sc-arith-bench", cfg, out) == 2
        assert "error: [scarith] needs length >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_empty_scarith_values(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.cfg",
                        SC_ARITH_CFG.replace("values = 0.3, 0.7", "values ="))
        out = tmp_path / "out"
        assert run("sc-arith-bench", cfg, out) == 2
        assert "values in [0, 1], got length 4096, values []" in \
            capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_no_scarith_seeds(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.cfg",
                        SC_ARITH_CFG.replace("seeds = 5", "seeds = -2"))
        out = tmp_path / "out"
        assert run("sc-arith-bench", cfg, out) == 2
        assert "error: [scarith] seeds must be >= 1, got -2" in \
            capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cmd, text, old, new, message", [
        ("sc-arith-bench", SC_ARITH_CFG, "seeds = 5", "seeds = 99999999999999999999",
         "[scarith] seeds = 99999999999999999999 cannot be allocated"),
        ("sc-arith-bench", SC_ARITH_CFG, "seeds = 5", "seeds = 10000000000000000",
         "[scarith] seeds = 10000000000000000 cannot be allocated"),
        ("train-decoder", TRAIN_CFG, "hidden = 4", "hidden = 4, 99999999999999999999",
         "[network] hidden = [4, 99999999999999999999] cannot be allocated"),
        ("train-decoder", TRAIN_CFG, "hidden = 4", "hidden = 4, 10000000000000000",
         "[network] hidden = [4, 10000000000000000] cannot be allocated"),
        ("train-decoder", TRAIN_CFG, "frames = 32", "frames = 99999999999999999999",
         "[dataset] frames = 99999999999999999999 cannot be allocated"),
        ("train-decoder", TRAIN_CFG, "frames = 32", "frames = 10000000000000000",
         "[dataset] frames = 10000000000000000 cannot be allocated"),
        ("device-sweep", SWEEP_RANGE_CFG, "points = 5", "points = 99999999999999999999",
         "[sweep] points = 99999999999999999999 cannot be allocated"),
        ("device-sweep", SWEEP_THERMAL_CFG, "trials_per_point = 40",
         "trials_per_point = 99999999999999999999",
         "[sweep] points x trials_per_point = 5 x 99999999999999999999 = "
         "499999999999999999995 items overflow a kernel's int64 flat index"),
        ("ber", BER_CFG, "min_frames = 20", "min_frames = 99999999999999999999",
         "[ber] snrs_db x min_frames = 2 x 99999999999999999999 = "
         "199999999999999999998 items overflow a kernel's int64 flat index"),
        ("gradcheck", GRADCHECK_CFG, "max_sizes = 3, 5, 3",
         "max_sizes = 10000000000000000, 10000000000000000",
         "[gradcheck] max_sizes = [10000000000000000, 10000000000000000] cannot be "
         "allocated")],
        ids=["scarith-seeds-dimension", "scarith-seeds-memory",
             "network-hidden-dimension", "network-hidden-memory",
             "dataset-frames-dimension", "dataset-frames-memory",
             "sweep-points-dimension", "sweep-trials-int64", "ber-frames-int64",
             "gradcheck-sizes-too-big"])
    def test_huge_count_writes_nothing(self, tmp_path, capsys, cmd, text, old, new,
                                       message):
        """A count whose array numpy cannot allocate exits 2 where it is
        read, not with a traceback: beyond numpy's largest array
        ('Maximum allowed dimension exceeded', or a drawn 2-D shape whose
        bytes overflow it) and beyond any machine's address space
        (MemoryError, 1e16 x 8 bytes and more).  So does a sweep whose
        points x trials, or a ber run whose points x frames, overflow the
        int64 flat index, naming the keys that multiply."""
        cfg = write_cfg(tmp_path / "c.cfg", text.replace(old, new))
        out = tmp_path / "out"
        assert run(cmd, cfg, out) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("points", [-1, 4])
    def test_too_few_sweep_points(self, tmp_path, capsys, points):
        """Checked before np.linspace, which raises ValueError below 0."""
        cfg = write_cfg(tmp_path / "d.cfg",
                        SWEEP_RANGE_CFG.replace("points = 5", f"points = {points}"))
        out = tmp_path / "out"
        assert run("device-sweep", cfg, out) == 2
        assert f"error: [sweep] points must be >= 5, got {points}" in \
            capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_no_gradcheck_networks(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "g.cfg",
                        GRADCHECK_CFG.replace("networks = 10", "networks = 0"))
        out = tmp_path / "out"
        assert run("gradcheck", cfg, out) == 2
        assert "error: [gradcheck] networks must be >= 1, got 0" in \
            capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"),
        ("lr_decay", "nan"), ("lr_decay", "inf")])
    def test_non_finite_learning_rate(self, tmp_path, capsys, monkeypatch, key,
                                      value):
        """Rejected before the dataset is built, naming the key."""
        rates = dict({"learning_rate": "0.5", "lr_decay": "0.0"}, **{key: value})
        cfg = write_cfg(tmp_path / "t.cfg", TRAIN_CFG.replace(
            "learning_rate = 0.5", "\n".join(f"{k} = {v}" for k, v in rates.items())))
        monkeypatch.setattr(cli, "_build_decoder_dataset", None)
        out = tmp_path / "out"
        assert run("train-decoder", cfg, out) == 2
        assert f"error: {key} must be finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_empty_dataset_snrs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg",
                        TRAIN_CFG.replace("snrs_db = 2.0", "snrs_db ="))
        out = tmp_path / "out"
        assert run("train-decoder", cfg, out) == 2
        assert "error: [dataset] snrs_db needs at least one SNR" in \
            capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("frames", [0, -3])
    def test_no_dataset_frames(self, tmp_path, capsys, frames):
        cfg = write_cfg(tmp_path / "t.cfg",
                        TRAIN_CFG.replace("frames = 32", f"frames = {frames}"))
        out = tmp_path / "out"
        assert run("train-decoder", cfg, out) == 2
        assert "error: need at least one example" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_empty_ber_snrs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "b.cfg",
                        BER_CFG.replace("snrs_db = 1.0, 3.0", "snrs_db ="))
        out = tmp_path / "out"
        assert run("ber", cfg, out) == 2
        assert "error: [ber] snrs_db needs at least one SNR" in \
            capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sizes", ["3, 0, 3", "", "3, 99999999999999999999"],
                             ids=["zero", "empty", "beyond-int64"])
    def test_bad_gradcheck_max_sizes(self, tmp_path, capsys, sizes):
        cfg = write_cfg(tmp_path / "g.cfg", GRADCHECK_CFG.replace(
            "max_sizes = 3, 5, 3", f"max_sizes = {sizes}"))
        out = tmp_path / "out"
        assert run("gradcheck", cfg, out) == 2
        assert "error: [gradcheck] max_sizes needs at least two layer sizes" in \
            capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_rerun_manifest_without_config(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        good = {"command": "gradcheck", "config": {"run": {"seed": "1"}},
                "master_seed": 1, "workers": 1}
        # each case changes one entry of `good`; None drops the entry
        cases = [({"config": None}, "lacks an entry: KeyError('config')"),
                 ({"workers": "x"}, "got 'x' and {'run'"),
                 ({"workers": 2.5}, "got 2.5 and {'run'"),
                 ({"workers": True}, "got True and {'run'"),
                 ({"config": []}, "got 1 and []"),
                 ({"config": {"run": 1}}, "got 1 and {'run': 1}")]
        out = tmp_path / "out"
        for change, message in cases:
            doc = {k: v for k, v in {**good, **change}.items() if v is not None}
            manifest.write_text(json.dumps(doc))
            assert main(["rerun", str(manifest), "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert message in err
            assert "lacks" in message or "an integer workers" in err
            assert not out.exists()

    @pytest.mark.parametrize("text", [
        b"seed = 1\n", b"[run]\nseed = 1\n[run]\nworkers = 1\n",
        b"[run]\nseed = 1\nseed = 2\n", b"[run]\nseed = %(x)s\n",
        b"[run]\nseed = 1  # caf\xe9\n", b"[run]\nseed\n",
        b"[run]\nseed = 1%\n"],
        ids=["no-section", "duplicate-section", "duplicate-key",
             "interpolation", "not-utf8", "no-delimiter", "bare-percent"])
    def test_malformed_ini_writes_nothing(self, tmp_path, capsys, text):
        cfg = tmp_path / "g.cfg"
        cfg.write_bytes(text)
        out = tmp_path / "out"
        assert run("gradcheck", str(cfg), out) == 2
        assert f"error: malformed config file {cfg}" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_below_one_write_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "g.cfg", GRADCHECK_CFG)
        zero = write_cfg(tmp_path / "z.cfg", GRADCHECK_CFG.replace(
            "seed = 11", "seed = 11\nworkers = 0"))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "gradcheck", "config": {},
                                        "master_seed": 1, "workers": 0}))
        out = tmp_path / "out"
        for argv, workers in [
                (["gradcheck", "--config", cfg, "--workers", "0"], 0),
                (["gradcheck", "--config", cfg, "--workers", "-3"], -3),
                (["gradcheck", "--config", zero], 0),
                (["rerun", str(manifest)], 0),
                (["rerun", str(manifest), "--workers", "-1"], -1)]:
            assert main(argv + ["--out-dir", str(out)]) == 2
            assert f"error: workers must be >= 1, got {workers}" in \
                capsys.readouterr().err
            assert not out.exists()

    def test_deeply_nested_json_writes_nothing(self, tmp_path, capsys):
        """A model file or manifest nested deeper than the JSON parser
        recurses is malformed: ber and rerun exit 2 with one error line,
        no traceback, and write nothing."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        cfg = write_cfg(tmp_path / "b.cfg", BER_CFG.replace(
            "decoder = classical", "decoder = neural\nmodel_path = %s" % deep))
        for argv, message in [(["ber", "--config", cfg], f"error: model file {deep}"),
                              (["rerun", str(deep)], f"error: manifest {deep}")]:
            out = tmp_path / argv[0]
            assert main(argv + ["--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(message) and "RecursionError" in err
            assert len(err.splitlines()) == 1 and "Traceback" not in err
            assert not out.exists() or list(out.iterdir()) == []

    def test_out_dir_is_a_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "g.cfg", GRADCHECK_CFG)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert run("gradcheck", cfg, out) == 2
        assert "error: cannot create out-dir" in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("command,blocked", [
        ("ber", "timing_classical.csv"), ("train-decoder", "history.csv")])
    def test_unwritable_output_exits_3_without_manifest(self, tmp_path, capsys,
                                                       command, blocked):
        """An output that cannot be written (a directory holds its name)
        ends the run with exit 3 and one error line: no traceback, no
        manifest and no temp file."""
        cfg = write_cfg(tmp_path / "c.cfg",
                        BER_CFG if command == "ber" else TRAIN_CFG)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert run(command, cfg, out) == 3
        err = capsys.readouterr().err
        assert f"error: cannot write to {out}:" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()
        assert list(out.glob("*.tmp")) == []

    @pytest.mark.parametrize("command", ["ber", "train-decoder"])
    @pytest.mark.parametrize("code,message", [
        ("n = 3", "N must be a power of 2, got 3"),
        ("n = 6", "N must be a power of 2, got 6"),
        ("n = 0", "N must be a power of 2, got 0"),
        ("design_snr_db = nan", "design SNR must be finite and at most 3000 dB, "
                                "got nan"),
        ("design_snr_db = 10000", "design SNR must be finite and at most "
                                  "3000 dB, got 10000.0"),
    ], ids=["n3", "n6", "n0", "design-nan", "design-10000"])
    def test_bad_code_writes_nothing(self, tmp_path, capsys, command, code,
                                     message):
        base = BER_CFG if command == "ber" else TRAIN_CFG
        n_line = "n = 8" if command == "ber" else "n = 4"
        if code.startswith("n ="):
            text = base.replace(n_line, code)
        else:
            text = base.replace(n_line, f"{n_line}\n{code}")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(command, cfg, out) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["ber", "train-decoder"])
    @pytest.mark.parametrize("snr", ["4000", "nan", "-inf"])
    def test_bad_eb_n0_writes_nothing(self, tmp_path, capsys, command, snr):
        if command == "ber":
            text = BER_CFG.replace("snrs_db = 1.0, 3.0", f"snrs_db = 1.0, {snr}")
        else:
            text = TRAIN_CFG.replace("snrs_db = 2.0", f"snrs_db = 2.0, {snr}")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(command, cfg, out) == 2
        assert "gives no positive, finite noise variance" in \
            capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_bad_value_reports_section_and_key(self, tmp_path):
        cfg = write_cfg(tmp_path / "g.cfg",
                        GRADCHECK_CFG.replace("networks = 10",
                                              "networks = many"))
        with pytest.raises(ConfigError, match=r"\[gradcheck\] networks"):
            ConfigView(load_config(cfg)).get_int("gradcheck", "networks")


# ROADMAP item 15's adversarial pool of raw config values
ADVERSARIAL = ["", "nan", "inf", "-inf", "-1", "0", "1", "0x10", "1e308", "1e-320",
               "99999999999999999999", "10000000000000000", "abc", "1,,2", "0.5, 2"]


def _small_or_invalid(raw, most=64):
    """False only for an integer above `most`: a valid huge length asks for
    that many bits of work, which runs but does not end in a test."""
    try:
        return int(raw, 0) <= most
    except ValueError:
        return True


# the keys sc-arith-bench reads, and the raw values each may take
SC_ARITH_POOL = {
    ("scarith", "length"): [r for r in ADVERSARIAL if _small_or_invalid(r)],
    ("scarith", "seeds"): ADVERSARIAL,      # huge counts exit 2 at allocation
    ("scarith", "values"): ADVERSARIAL + ["0, 1e-320, 1", "0.3, 0.7, 0.3"],
    ("run", "seed"): ADVERSARIAL,
    ("run", "workers"): ADVERSARIAL,
}

# the keys gradcheck reads, and the raw values each may take: valid counts
# and widths of at most 64, and only widths whose draw or array numpy
# refuses before allocating (every first draw of the pool's seeds from
# 1e16 gives a weight array of more than 2**63 bytes)
GRADCHECK_POOL = {
    ("gradcheck", "networks"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + ["64"],
    ("gradcheck", "max_sizes"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + [
        "1, 1", "64, 64", "3, -1", "99999999999999999999, 2", "2, 99999999999999999999",
        "10000000000000000, 10000000000000000"],
    ("gradcheck", "loss"): ADVERSARIAL + ["binary-cross-entropy"],
    ("run", "seed"): ADVERSARIAL,
    ("run", "workers"): ADVERSARIAL,
}


# the keys ber reads, and the raw values each may take: valid code lengths,
# frame counts and windows of at most 64, and a frame count whose points x
# frames overflow int64, which exits 2 before any work.  A model path is a
# raw value or one of the files `ber_models` writes, named by its key.
BER_POOL = {
    ("code", "n"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + ["4", "64"],
    ("code", "k"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + ["2", "8"],
    ("code", "design_snr_db"): ADVERSARIAL + ["3000", "-3000"],
    ("ber", "decoder"): ADVERSARIAL + ["classical", "neural", "paired"],
    ("ber", "snrs_db"): ADVERSARIAL + ["1, 1", "-300, 300", "1e-320, 2"],
    ("ber", "min_frames"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + [
        "64", "99999999999999999999"],
    ("ber", "window"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + ["64"],
    ("ber", "model_path"): ADVERSARIAL + ["deterministic", "wrong_shape", "not_json",
                                          "directory", "wrong_version"],
    ("run", "seed"): ADVERSARIAL,
    ("run", "workers"): ADVERSARIAL,
}


def _outside(raw, lo, hi):
    """False only for a finite number strictly between lo and hi: a time
    step that small, or a pulse or relax time that long, is many steps of
    work, which runs but does not end in a test."""
    try:
        value = float(raw)
    except ValueError:
        return True
    return not (math.isfinite(value) and lo < value < hi)


# the keys device-sweep reads, and the raw values each may take: 5-8
# points, at most 4 trials, at most 8 equilibration steps, no time step
# below the default 2.5e-13 s and no pulse or relax time above 2e-12 s,
# so a trial is a few steps; plus a time step whose GAMMA*MU_0*Ms*V*dt
# underflows, times of no finite step count, a points count numpy cannot
# allocate and a trial count whose points x trials overflow int64, each
# of which exits 2 before any work.
SWEEP_POOL = {
    **{("device", key): ADVERSARIAL for key in (
        "temperature_k", "alpha", "ms_a_per_m", "volume_m3", "hk_a_per_m",
        "hd_a_per_m", "theta_sh")},
    ("device", "dt_s"): [r for r in ADVERSARIAL if _outside(r, 0.0, 2.5e-13)] + [
        "5e-13", "1e-320"],
    ("device", "equil_steps"): [r for r in ADVERSARIAL if _small_or_invalid(r, 8)],
    ("device", "relax_time_s"): [r for r in ADVERSARIAL if _outside(r, 2e-12, math.inf)] + [
        "2e-12", "1e308"],
    ("sweep", "currents_a"): ADVERSARIAL + [
        "1e-3, 1.2e-3, 1.4e-3, 1.6e-3, 1.8e-3", "-2, -1, 0, 1, 2, 3, 4, 5",
        "1e-3, 1e-3, 2e-3, 3e-3, 4e-3", "5e-3, 4e-3, 3e-3, 2e-3, 1e-3",
        "1e-320, 2e-320, 3e-320, 4e-320, 5e-320", "1, 2, 3, 4, 1e308"],
    ("sweep", "points"): [r for r in ADVERSARIAL if _small_or_invalid(r, 8)] + [
        "5", "8", "99999999999999999999"],
    ("sweep", "current_start_a"): ADVERSARIAL + ["2e-3"],
    ("sweep", "current_stop_a"): ADVERSARIAL + ["1e-3"],
    ("sweep", "pulse_width_s"): [r for r in ADVERSARIAL if _outside(r, 2e-12, math.inf)] + [
        "2.5e-13", "2e-12", "1e308"],
    ("sweep", "trials_per_point"): [r for r in ADVERSARIAL if _small_or_invalid(r, 4)] + [
        "4", "99999999999999999999"],
    ("run", "seed"): ADVERSARIAL,
    ("run", "workers"): ADVERSARIAL,
}

# the keys train-decoder reads, and the raw values each may take: code
# lengths, frame counts and epochs of at most 64, and only frame counts and
# hidden widths whose array numpy refuses before allocating; any batch size
# above the frame count exits 2.
TRAIN_POOL = {
    ("code", "n"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + ["2", "8", "64"],
    ("code", "k"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + ["2", "4"],
    ("code", "design_snr_db"): ADVERSARIAL + ["3000", "-3000"],
    ("dataset", "frames"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + [
        "64", "99999999999999999999"],
    ("dataset", "snrs_db"): ADVERSARIAL + ["1, 1", "-300, 300", "1e-320, 2"],
    ("network", "hidden"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + [
        "1, 1", "64, 64", "3, -1", "99999999999999999999",
        "10000000000000000, 10000000000000000"],
    ("training", "kind"): ADVERSARIAL + ["gd", "sgd", "minibatch"],
    ("training", "learning_rate"): ADVERSARIAL,
    ("training", "epochs"): [r for r in ADVERSARIAL if _small_or_invalid(r)] + ["64"],
    ("training", "batch_size"): ADVERSARIAL + ["16"],
    ("training", "lr_decay"): ADVERSARIAL,
    ("training", "loss"): ADVERSARIAL + ["squared-error", "binary-cross-entropy"],
    ("run", "seed"): ADVERSARIAL,
    ("run", "workers"): ADVERSARIAL,
}


@pytest.fixture(scope="module")
def ber_models(tmp_path_factory):
    """Model paths by name: stochastic-firing and deterministic 8-4-4 models
    for the (8,4) code, one whose shape fits no code of the pool's, and three
    files that are no model."""
    root = tmp_path_factory.mktemp("models")
    paths = {name: str(root / name) for name in
             ("model", "deterministic", "wrong_shape", "not_json", "wrong_version")}
    model = training.init_model([8, 4, 4], 1)
    save_model(NetworkModel(model.layers, activation_mode=STOCHASTIC), paths["model"])
    save_model(model, paths["deterministic"])
    save_model(training.init_model([3, 5, 7], 1), paths["wrong_shape"])
    Path(paths["not_json"]).write_text("{")
    doc = json.loads(Path(paths["model"]).read_text())
    Path(paths["wrong_version"]).write_text(json.dumps(dict(doc, version=-1)))
    return dict(paths, directory=str(root))


def _entries(pool):
    """One or two distinct keys of `pool`, each with a raw value from its list."""
    return st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=2,
                    unique=True).flatmap(lambda keys: st.tuples(*[
                        st.tuples(st.just(k), st.sampled_from(pool[k])) for k in keys]))


def _cfg_text(cfg):
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for s, kv in cfg.items())


def _assert_exits_cleanly(capfd, argv, output, shown):
    """main(argv) into a new out-dir exits 0, 2 or 3 with no traceback, and
    writes nothing on exit 2 and `output` else; `shown` names the input."""
    capfd.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        code = main([*argv, "--out-dir", out])
        written = os.listdir(out) if os.path.isdir(out) else []
    err = capfd.readouterr().err
    assert code in (0, 2, 3), (shown, err)
    assert "Traceback" not in err, (shown, err)
    if code == 2:
        assert written == [], (shown, written)
    else:
        assert output in written, (shown, err)


def _assert_exit_contract(capfd, command, cfg, entries, output):
    """`command` on the config sections `cfg` with `entries` set exits 0, 2
    or 3 with no traceback, writes nothing on exit 2 and `output` else."""
    for (section, key), raw in entries:
        cfg[section][key] = raw
    text = _cfg_text(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        _assert_exits_cleanly(capfd, [command, "--config",
                                      write_cfg(Path(tmp) / "c.cfg", text)],
                              output, text)


def _ber_cfg(model_path):
    """ber's sections in its contract tests: paired decoding of 2 x 16
    frames of the (8,4) code, the neural decoder stochastic over an 8-pass
    window."""
    return {"run": {"seed": "5", "workers": "1"},
            "code": {"n": "8", "k": "4"},
            "ber": {"decoder": "paired", "snrs_db": "1.0, 3.0", "min_frames": "16",
                    "window": "8", "model_path": model_path}}


# the values an entry of a loaded JSON document may be swapped for: every
# JSON type, the non-finite floats Python writes and an integer no float holds
JSON_VALUES = [None, True, 0, -1, 0.5, 1e308, math.nan, math.inf, 10 ** 400,
               "", "abc", [], [0], {}, {"a": 0}]


def _json_paths(doc, path=()):
    """The path of every entry of a JSON document, the root's () first; a
    list is entered through its first item only."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from _json_paths(doc[0], path + (0,))


def _mutated(data, doc, bounded=()):
    """The bytes of the JSON document `doc` with one mutation drawn from
    `data`: an entry dropped, swapped for one of JSON_VALUES or nested in
    lists 64, 1,000 or 200,000 deep, or the bytes cut short.  An entry under
    a top-level key in `bounded` takes no integer above 64: as a count it
    asks for that much work, which runs but does not end in a test."""
    text = json.dumps(doc)
    kind = data.draw(st.sampled_from(["drop", "swap", "nest", "truncate"]))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))].encode()
    paths = list(_json_paths(doc))
    path = data.draw(st.sampled_from(paths[1:] if kind == "drop" else paths))
    box = [json.loads(text)]                    # the root is box[0]
    *above, key = (0,) + path
    parent = reduce(operator.getitem, above, box)
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        parent[key] = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if not (path and path[0] in bounded)
             or _small_or_invalid(str(v))]))
    else:   # spliced into the text: json.dumps would recurse as deep
        depth = data.draw(st.sampled_from([64, 1_000, 200_000]))
        inner, parent[key] = json.dumps(parent[key]), "\0nested"
        return json.dumps(box[0]).replace(
            json.dumps("\0nested"), "[" * depth + inner + "]" * depth).encode()
    return json.dumps(box[0]).encode()


@pytest.fixture(scope="module")
def loader_docs(tmp_path_factory):
    """A valid document of each loader: a device-mode stochastic-firing
    8-4-4 model, the (8,4) code's spec and the manifest of a ber run that
    decodes with that model."""
    root = tmp_path_factory.mktemp("loaders")
    model = training.init_model([8, 4, 4], 1)
    save_model(NetworkModel(model.layers, activation_mode=STOCHASTIC,
                            neuron_fit=mtj.SigmoidFit(a=1.2e3, b=1e-4, r_squared=0.99),
                            unit_current=1e-3), root / "model.json")
    polar.construct_frozen_set(8, 4).to_json(root / "spec.json")
    cfg = write_cfg(root / "b.cfg", _cfg_text(_ber_cfg(root / "model.json")))
    assert run("ber", cfg, root / "run") == 0
    return {name: json.loads(path.read_text()) for name, path in [
        ("model", root / "model.json"), ("spec", root / "spec.json"),
        ("manifest", root / "run" / MANIFEST_NAME)]}


class TestExitCodeContract:
    @given(_entries(SC_ARITH_POOL))
    @settings(max_examples=300, deadline=None,   # in trials, 300 drew every entry
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sc_arith_bench(self, capfd, entries):
        """sc-arith-bench with one or two of its keys set from the pool
        exits 0, 2 or 3 with no traceback, and writes nothing on exit 2.
        Work is bounded by construction: 64-bit streams, 2 seeds, and the
        pool's lengths of at most 64."""
        _assert_exit_contract(capfd, "sc-arith-bench", {
            "run": {"seed": "3", "workers": "1"},
            "scarith": {"length": "64", "seeds": "2", "values": "0.3, 0.7"}},
            entries, "sc_arith.csv")

    @given(_entries(GRADCHECK_POOL))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_gradcheck(self, capfd, entries):
        """gradcheck with one or two of its keys set from the pool exits 0, 2
        or 3 with no traceback, and writes nothing on exit 2.  Work is
        bounded by construction: 2 networks of at most 3-4-2, and the
        pool's counts and widths of at most 64."""
        _assert_exit_contract(capfd, "gradcheck", {
            "run": {"seed": "3", "workers": "1"},
            "gradcheck": {"networks": "2", "max_sizes": "3, 4, 2",
                          "loss": "squared-error"}},
            entries, "gradcheck.csv")

    @given(_entries(BER_POOL))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ber(self, capfd, ber_models, entries):
        """ber with one or two of its keys set from the pool exits 0, 2 or 3
        with no traceback, and writes nothing on exit 2.  Work is bounded by
        construction: paired decoding of 2 x 16 frames of the (8,4) code,
        the neural decoder stochastic over an 8-pass window, and the pool's
        lengths, frame counts and windows of at most 64."""
        entries = [(key, ber_models.get(raw, raw)) for key, raw in entries]
        _assert_exit_contract(capfd, "ber", _ber_cfg(ber_models["model"]), entries,
                              MANIFEST_NAME)

    @given(_entries(SWEEP_POOL))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_device_sweep(self, capfd, entries):
        """device-sweep with one or two of its keys set from the pool exits
        0, 2 or 3 with no traceback, and writes nothing on exit 2.  Work is
        bounded by construction: 5 points of 2 trials, each 2 equilibration,
        4 pulse and 2 relax steps, and the pool's bounds."""
        _assert_exit_contract(capfd, "device-sweep", {
            "run": {"seed": "3", "workers": "1"},
            "device": {"equil_steps": "2", "relax_time_s": "5e-13"},
            "sweep": {"points": "5", "current_start_a": "1e-3", "current_stop_a": "2e-3",
                      "pulse_width_s": "1e-12", "trials_per_point": "2"}},
            entries, "switching_curve.csv")

    @given(_entries(TRAIN_POOL))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_train_decoder(self, capfd, entries):
        """train-decoder with one or two of its keys set from the pool exits
        0, 2 or 3 with no traceback, and writes nothing on exit 2.  Work is
        bounded by construction: 16 frames of the (4,2) code, a 4-4-2 net
        trained for 2 epochs, and the pool's bounds."""
        _assert_exit_contract(capfd, "train-decoder", {
            "run": {"seed": "7", "workers": "1"},
            "code": {"n": "4", "k": "2"},
            "dataset": {"frames": "16", "snrs_db": "2.0"},
            "network": {"hidden": "4"},
            "training": {"kind": "minibatch", "batch_size": "8", "epochs": "2",
                         "learning_rate": "0.5", "lr_decay": "0.0",
                         "loss": "binary-cross-entropy"}},
            entries, "history.csv")


    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_model_file(self, capfd, loader_docs, data):
        """A save_model document with one mutation (an entry dropped,
        swapped for another JSON value or nested deeply, or the bytes cut
        short) loads or raises a SpinscError, and ber decoding with it
        exits 0, 2 or 3 with no traceback, and writes nothing on exit 2."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_bytes(_mutated(data, loader_docs["model"]))
            try:
                network.load_model(path)
            except SpinscError:
                pass
            _assert_exit_contract(capfd, "ber", _ber_cfg(path), [], MANIFEST_NAME)

    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_code_spec(self, loader_docs, data):
        """A PolarCodeSpec.to_json document with one mutation loads or
        raises a SpinscError."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_bytes(_mutated(data, loader_docs["spec"]))
            try:
                polar.PolarCodeSpec.from_json(path)
            except SpinscError:
                pass

    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rerun_manifest(self, capfd, loader_docs, data):
        """rerun of a ber manifest with one mutation exits 0, 2 or 3 with no
        traceback, and writes nothing on exit 2.  Work is bounded by
        construction: the manifest's run is test_ber's, and no config entry
        takes an integer above 64."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / MANIFEST_NAME
            text = _mutated(data, loader_docs["manifest"], bounded=("config",))
            path.write_bytes(text)
            _assert_exits_cleanly(capfd, ["rerun", str(path)], MANIFEST_NAME, text)


class TestUnusedKeys:
    def test_misspelled_key_warns(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "g.cfg", GRADCHECK_CFG.replace(
            "networks = 10", "netwroks = 5"))
        assert run("gradcheck", cfg, tmp_path) == 0
        assert capsys.readouterr().err == \
            "warning: unused config key [gradcheck] netwroks\n"
        # the default of 100 networks ran; the manifest keeps the typo
        assert len((tmp_path / "gradcheck.csv").read_text().splitlines()) == 101
        assert read_manifest(tmp_path)["config"]["gradcheck"]["netwroks"] == "5"

    def test_warning_changes_no_bytes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.cfg", SC_ARITH_CFG)
        extra = write_cfg(tmp_path / "x.cfg", SC_ARITH_CFG + "[extra]\nkey = 1\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("sc-arith-bench", cfg, a) == 0
        assert capsys.readouterr().err == ""
        assert run("sc-arith-bench", extra, b) == 0
        assert capsys.readouterr().err == "warning: unused config key [extra] key\n"
        assert (a / "sc_arith.csv").read_bytes() == (b / "sc_arith.csv").read_bytes()
        assert main(["rerun", str(b / "manifest.json"), "--out-dir", str(a)]) == 0
        assert capsys.readouterr().err == "warning: unused config key [extra] key\n"

    def test_no_warning_on_error_exit(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.cfg", SC_ARITH_CFG.replace(
            "seeds = 5", "seeds = 0\nsedes = 5"))
        assert run("sc-arith-bench", cfg, tmp_path / "out") == 2
        assert "warning" not in capsys.readouterr().err


class TestShippedConfigs:
    """The configs shipped in configs/ must at least parse and resolve."""

    @pytest.mark.parametrize("name,section,key", [
        ("device_sweep.cfg", "sweep", "trials_per_point"),
        ("train_decoder.cfg", "dataset", "frames"),
        ("ber_classical.cfg", "ber", "min_frames"),
        ("sc_arith.cfg", "scarith", "seeds"),
        ("gradcheck.cfg", "gradcheck", "networks"),
    ])
    def test_parses(self, name, section, key):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        view = ConfigView(load_config(os.path.join(root, name)))
        assert view.get_int(section, key) > 0
        assert view.get_int("run", "seed") >= 0

    @pytest.mark.parametrize("command, name, shrink", [
        ("device-sweep", "device_sweep.cfg", {"SWEEP__POINTS": "5",
                                              "SWEEP__TRIALS_PER_POINT": "1"}),
        ("train-decoder", "train_decoder.cfg", {"DATASET__FRAMES": "64",
                                                "TRAINING__EPOCHS": "1"}),
        ("ber", "ber_classical.cfg", {"BER__MIN_FRAMES": "20"}),
        ("sc-arith-bench", "sc_arith.cfg", {"SCARITH__SEEDS": "1"}),
        ("gradcheck", "gradcheck.cfg", {"GRADCHECK__NETWORKS": "3"}),
    ])
    def test_every_key_is_read(self, tmp_path, capsys, monkeypatch, command,
                               name, shrink):
        for key, value in shrink.items():
            monkeypatch.setenv("SPINSC_" + key, value)
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        assert run(command, os.path.join(root, name), tmp_path) in (0, 3)
        assert "warning: unused config key" not in capsys.readouterr().err
