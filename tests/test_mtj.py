from dataclasses import replace
import math
from types import SimpleNamespace

import numpy as np
import pytest

from spinsc import llgs, mtj
from spinsc.errors import DomainError, FitDomainError
from spinsc.llgs import default_device_params
from spinsc.mtj import (MtjParams, SigmoidFit, SwitchingCurve, default_mtj_params,
                        fit_stochastic_sigmoid, sweep_switching_curve)
from spinsc.rngtools import derive_rng, parallel_map


def critical_spin_current(dev):
    return dev.alpha * llgs.GAMMA * dev.Hk * llgs.Q_E * dev.Ns


class TestMtjParams:
    def test_param_validation(self):
        with pytest.raises(DomainError):
            MtjParams(device=default_device_params(), theta_sh=1.5)

    @pytest.mark.parametrize("field", ["theta_sh", "relax_time"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_param_rejected(self, field, value):
        with pytest.raises(DomainError):
            MtjParams(device=default_device_params(), **{field: value})


class TestEstimate:
    """Single points of a 5-current sweep."""

    def test_zero_current_zero_temperature(self):
        params = default_mtj_params(T=0.0)
        curve = sweep_switching_curve([0.0, 1e-6, 2e-6, 3e-6, 4e-6], 5e-10, 20,
                                      params, 1)
        assert curve.p_hat[0] == 0.0
        assert curve.ci_halfwidth[0] == 0.0

    def test_large_current_zero_temperature_switches(self):
        params = default_mtj_params(T=0.0)
        ic = critical_spin_current(params.device) / params.theta_sh
        curve = sweep_switching_curve([20 * ic, 25 * ic, 30 * ic, 35 * ic, 40 * ic],
                                      2e-9, 5, params, 1)
        assert curve.p_hat[0] == 1.0

    def test_pulse_shorter_than_dt_rejected(self):
        params = default_mtj_params()
        with pytest.raises(DomainError):
            sweep_switching_curve(TestSweep.CURRENTS, 1e-14, 10, params, 1)

    def test_seed_determinism(self):
        a = sweep_switching_curve(TestSweep.CURRENTS, 1e-10, 10, TestSweep.SHORT, 9)
        b = sweep_switching_curve(TestSweep.CURRENTS, 1e-10, 10, TestSweep.SHORT, 9)
        assert np.array_equal(a.p_hat, b.p_hat)
        assert np.array_equal(a.ci_halfwidth, b.ci_halfwidth)

    def test_single_trial_runs_float_width_and_matches_batch_row(self, monkeypatch):
        """One trial integrates on Python floats (math.sqrt once per step)
        and ends where the same trial, first of three, ends in a 3-trial
        batch, bit for bit."""
        ends, roots = [], []

        def spy(*args, **kwargs):
            out = llgs._integrate(*args, **kwargs)
            ends.append(out[0])
            return out

        def counted_sqrt(x):
            roots.append(x)
            return math.sqrt(x)

        monkeypatch.setattr(mtj, "_integrate", spy)
        # every math name, only sqrt counted
        monkeypatch.setattr(llgs, "math", SimpleNamespace(**{**vars(math),
                                                             "sqrt": counted_sqrt}))
        params = default_mtj_params()
        steps = (params.equil_steps + round(5e-11 / params.device.dt)
                 + round(params.relax_time / params.device.dt))
        # trials 0, 1, 2 of one point seeded 3
        point = (np.full(1, 1.6e-3), np.array([3]), 3, 5e-11, params)
        single = mtj._switched(*point, 0, 1)
        single_roots = len(roots)
        mtj._switched(*point, 0, 3)
        assert single_roots >= steps
        # the batch takes np.sqrt; math.sqrt gives only its noise prefactors
        assert len(roots) - single_roots < steps // 100
        assert ends[0].shape == (1, 3) and ends[1].shape == (3, 3)
        assert ends[0][0].tobytes() == ends[1][0].tobytes()
        assert single.tolist() == [bool(ends[1][0, 2] > 0.0)]


class TestSweep:
    def test_requires_increasing_currents(self):
        params = default_mtj_params(T=0.0)
        with pytest.raises(DomainError):
            sweep_switching_curve([0.0, 0.0, 0.0, 0.0, 0.0], 5e-10, 2, params, 1)

    def test_requires_five_points(self):
        params = default_mtj_params(T=0.0)
        with pytest.raises(DomainError):
            sweep_switching_curve([1e-4, 2e-4], 5e-10, 2, params, 1)

    def test_zero_temperature_step_function(self):
        params = default_mtj_params(T=0.0)
        ic = critical_spin_current(params.device) / params.theta_sh
        currents = [2 * ic, 5 * ic, 10 * ic, 20 * ic, 40 * ic]
        curve = sweep_switching_curve(currents, 2e-9, 2, params, 3)
        assert set(np.unique(curve.p_hat)) <= {0.0, 1.0}
        assert np.all(np.diff(curve.p_hat) >= 0)
        assert curve.p_hat[0] == 0.0 and curve.p_hat[-1] == 1.0

    def test_ci_formula_holds_exactly(self):
        params = default_mtj_params()
        ic = critical_spin_current(params.device) / params.theta_sh
        currents = [10 * ic, 30 * ic, 45 * ic, 55 * ic, 80 * ic]
        curve = sweep_switching_curve(currents, 3e-10, 40, params, 5)
        for p, n, ci in zip(curve.p_hat, curve.trials, curve.ci_halfwidth):
            assert ci == 1.96 * math.sqrt(p * (1 - p) / n)
        assert np.all((curve.p_hat >= 0) & (curve.p_hat <= 1))

    SHORT = MtjParams(device=default_device_params(), equil_steps=20,
                      relax_time=2e-11)
    CURRENTS = [6.8e-3, 7.2e-3, 7.5e-3, 7.8e-3, 8.2e-3]

    @pytest.mark.parametrize("workers, batch", [(1, None), (2, None), (1, 12),
                                                (0, None), (-1, None)],
                             ids=["1-worker", "2-workers", "12-trial-slabs",
                                  "0-workers", "-1-workers"])
    def test_points_equal_single_point_estimates(self, workers, batch,
                                                 monkeypatch):
        """Point idx of a sweep is an `mtj._switched` run of its 16 trials on
        the seed derive_rng(seed, "sweep-point", idx) draws (T = 300 K,
        500 steps), also when slabs of 12 trials cut across the points, and
        on fewer than one worker asked for, which runs on one."""
        expected = []
        for idx, current in enumerate(self.CURRENTS):
            point_seed = int(derive_rng(11, "sweep-point", idx).integers(0, 2**63))
            switched = mtj._switched(np.array([current]), np.array([point_seed]),
                                     16, 1e-10, self.SHORT, 0, 16)
            p = np.count_nonzero(switched) / 16
            expected.append((p, 1.96 * math.sqrt(p * (1 - p) / 16)))
        if batch is not None:
            monkeypatch.setattr(mtj, "_BATCH_TRIALS", batch)
        curve = sweep_switching_curve(self.CURRENTS, 1e-10, 16, self.SHORT, 11,
                                      workers=workers)
        assert list(zip(curve.p_hat, curve.ci_halfwidth)) == expected
        assert 0.0 < curve.p_hat.mean() < 1.0

    def test_workers_get_equal_trials(self, monkeypatch):
        """A sweep of 75 trials hands parallel_map (which splits them; see
        test_rngtools) its flat trial axis, _BATCH_TRIALS as the slab cap and
        the 100,000 workers asked for, and gives the 1-worker curve."""
        monkeypatch.setattr(mtj, "_BATCH_TRIALS", 12)
        one = sweep_switching_curve(self.CURRENTS, 1e-10, 15, self.SHORT, 11)
        calls = []

        def recording(fn, total, cap, workers):
            calls.append((total, cap, workers))
            return parallel_map(fn, total, cap, workers)
        monkeypatch.setattr(mtj, "parallel_map", recording)
        curve = sweep_switching_curve(self.CURRENTS, 1e-10, 15, self.SHORT, 11,
                                      workers=100_000)
        assert calls == [(75, 12, 100_000)]
        assert np.array_equal(curve.p_hat, one.p_hat)

    def test_trials_beyond_int64_rejected(self):
        """Points x trials beyond the int64 flat trial index raise
        DomainError before any trial runs, not an error from numpy."""
        with pytest.raises(DomainError, match="int64"):
            sweep_switching_curve(self.CURRENTS, 1e-10, 2**62, self.SHORT, 1)

    @pytest.mark.parametrize("currents", [[1e-3, 2e-3, 3e-3, 4e-3, np.inf],
                                          [-np.inf, 2e-3, 3e-3, 4e-3, 5e-3]])
    def test_non_finite_current_rejected(self, currents):
        with pytest.raises(DomainError, match="finite"):
            sweep_switching_curve(currents, 5e-10, 2, default_mtj_params(), 1)

    @pytest.mark.parametrize("width", [np.nan, np.inf])
    def test_non_finite_pulse_width_rejected(self, width):
        with pytest.raises(DomainError, match="pulse_width"):
            sweep_switching_curve(self.CURRENTS, width, 2, default_mtj_params(), 1)

    def test_csv_export(self, tmp_path):
        curve = SwitchingCurve(np.array([1e-4, 2e-4]), np.array([0.1, 0.9]),
                               np.array([10, 10]), np.array([0.05, 0.05]))
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "current_A,p_hat,trials,ci_halfwidth"
        assert len(lines) == 3


class TestDefaultStep:
    """The default dt against dt/2, each with 10 ps of equilibration, on the
    reference sweep (configs/device_sweep.cfg): 0.5 ns pulses at currents
    from 1.15 to 2.05 mA, then 0.3 ns of relaxation."""

    CURRENTS = np.linspace(1.15e-3, 2.05e-3, 15)

    @staticmethod
    def halved(params):
        return replace(params, device=replace(params.device, dt=params.device.dt / 2),
                       equil_steps=2 * params.equil_steps)

    def test_switching_curve_matches_half_step(self):
        """Points 3, 5, 7, 9 and 11 of the grid at 4,000 trials, each dt on its
        own seed: each point's z, the difference over the combined standard
        error, is within 3, and their chi^2 below 20.5, its 0.1% tail on 5
        degrees of freedom."""
        coarse = default_mtj_params()
        n = 4000
        p, q = (sweep_switching_curve(self.CURRENTS[3:12:2], 5e-10, n, params, seed,
                                      workers=2).p_hat
                for params, seed in ((coarse, 1), (self.halved(coarse), 2)))
        z = (p - q) / np.sqrt((p * (1 - p) + q * (1 - q)) / n)
        assert np.abs(z).max() <= 3.0 and np.sum(z * z) <= 20.5, z

    def test_sweep_pulse_matches_half_step(self):
        """At T = 0 a trial from 2 degrees off -z stays within 1e-4 of its dt/2
        run at every shared step, at each current of the grid: criterion
        02(c)'s bound on the sweep's own pulse (4e-13 s reaches 1.9e-4)."""
        coarse = default_mtj_params(T=0.0)
        tilt = math.radians(2.0)
        for current in self.CURRENTS:
            pulse = llgs.SpinCurrentPulse(coarse.theta_sh * current, 5e-10)
            m, half = (llgs.simulate_pulse([math.sin(tilt), 0.0, -math.cos(tilt)], pulse,
                                           params.device, params.relax_time, seed=0).m
                       for params in (coarse, self.halved(coarse)))
            assert np.abs(m - half[::2]).max() <= 1e-4, current


class TestSigmoid:
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "column"])
    def test_in_place_steps_keep_the_bits(self, layout):
        """The same bytes and types as 1.0 / (1.0 + np.exp(-x)), on arrays
        with +-0.0, +-inf, NaN and overflowing entries, and on scalars."""
        rng = derive_rng(2, "sigmoid", layout)
        x = rng.standard_normal(1001) * 10.0 ** rng.uniform(-3, 3, 1001)
        x[::7] = np.resize([0.0, -0.0, math.inf, -math.inf, math.nan, 800.0, -800.0], 143)
        x = {"contiguous": x, "strided": x[::2], "column": x[:, None]}[layout]
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
            got = mtj.sigmoid(x)
            assert got.tobytes() == want.tobytes() and got.shape == x.shape
            for v in (0.3, -2, np.float64(-0.0), np.array(1.5), 800.0):
                scalar = mtj.sigmoid(v)
                assert type(scalar) is np.float64
                assert scalar.tobytes() == (1.0 / (1.0 + np.exp(-np.float64(v)))).tobytes()


class TestSigmoidFit:
    def make_exact_curve(self, a0=3.2e4, b0=1.5e-3, n=15):
        I = np.linspace(1.1e-3, 2.1e-3, n)
        p = 1.0 / (1.0 + np.exp(-a0 * (I - b0)))
        return SwitchingCurve(I, p, np.full(n, 2000), np.zeros(n))

    def test_exact_recovery(self):
        fit = fit_stochastic_sigmoid(self.make_exact_curve())
        assert fit.a == pytest.approx(3.2e4, rel=1e-6)
        assert fit.b == pytest.approx(1.5e-3, rel=1e-6)
        assert fit.r_squared >= 1 - 1e-9

    def test_binomial_noise_recovery(self):
        a0, b0, n, trials = 3.2e4, 1.5e-3, 15, 2000
        I = np.linspace(1.1e-3, 2.1e-3, n)
        p = 1.0 / (1.0 + np.exp(-a0 * (I - b0)))
        rng = np.random.default_rng(123)
        p_hat = rng.binomial(trials, p) / trials
        ci = 1.96 * np.sqrt(p_hat * (1 - p_hat) / trials)
        curve = SwitchingCurve(I, p_hat, np.full(n, trials), ci)
        fit = fit_stochastic_sigmoid(curve)
        # b should land within 3 CI halfwidths (in probability, mapped
        # through the local slope) of the true offset
        slope = a0 / 4.0
        ci_at_b = 1.96 * math.sqrt(0.25 / trials)
        assert abs(fit.b - b0) <= 3 * ci_at_b / slope

    def test_score_vanishes_with_unequal_trials(self):
        # the binomial likelihood's score, weighted by each point's trials,
        # is zero at the fit; a least-squares fit on p_hat leaves it nonzero
        rng = np.random.default_rng(2024)
        I = np.linspace(1.1e-3, 2.1e-3, 15)
        trials = rng.integers(200, 3001, 15)
        p_hat = rng.binomial(trials, 1.0 / (1.0 + np.exp(-1.2e4 * (I - 1.6e-3)))) / trials
        fit = fit_stochastic_sigmoid(SwitchingCurve(I, p_hat, trials, np.zeros(15)))
        x = (I - I.mean()) / I.std()
        residual = trials * (p_hat - fit.predict(I))
        for score in (residual.sum(), residual @ x):
            assert abs(score) / trials.sum() < 1e-9

    def test_non_spanning_curve_rejected(self):
        n = 8
        curve = SwitchingCurve(np.arange(float(n)), np.zeros(n),
                               np.full(n, 100), np.zeros(n))
        with pytest.raises(FitDomainError):
            fit_stochastic_sigmoid(curve)

    @pytest.mark.parametrize("field, value", [
        ("p_hat", [0.0, np.nan, 0.0, 1.0, 1.0, 1.0]),
        ("p_hat", [0.0, 0.0, -0.1, 1.0, 1.0, 1.0]),
        ("p_hat", [0.0, 0.0, 0.0, 1.0, 1.5, 1.0]),
        ("trials", [100, 100, 0, 100, 100, 100]),
        ("trials", [100, 100, 100, -5, 100, 100]),
        ("currents", [1e-3, 1.2e-3, np.nan, 1.6e-3, 1.8e-3, 2e-3])],
        ids=["nan-p", "negative-p", "p-above-1", "zero-trials", "negative-trials",
             "nan-current"])
    def test_invalid_curve_rejected(self, field, value):
        """Before the fit, whose least squares raised LinAlgError on a NaN
        p_hat (and fitted r_squared = 1 to it before that)."""
        curve = {"currents": np.linspace(1.0e-3, 2.0e-3, 6),
                 "p_hat": np.array([0.0, 0, 0, 1, 1, 1]),
                 "trials": np.full(6, 100), "ci_halfwidth": np.zeros(6)}
        with pytest.raises(FitDomainError, match="switching curve needs"):
            SwitchingCurve(**dict(curve, **{field: np.array(value)}))

    def test_step_curve_uses_fallback_guess(self):
        # perfectly separated data: the likelihood has no maximum, so the
        # slope grows each step until the likelihood stops changing, with
        # the offset between the last 0 and the first 1
        I = np.linspace(1.0e-3, 2.0e-3, 6)
        curve = SwitchingCurve(I, np.array([0.0, 0, 0, 1, 1, 1]),
                               np.full(6, 100), np.zeros(6))
        fit = fit_stochastic_sigmoid(curve)
        assert I[2] < fit.b < I[3]
        assert fit.a > 0 and fit.r_squared > 0.999

    @pytest.mark.parametrize("trials", [10**5, 10**6])
    def test_separated_curve_with_many_trials(self, trials):
        # the points far from the step carry weights below 1e-16 of the
        # nearest one's, so the scoring matrix is singular to rounding
        I = np.linspace(1.0e-3, 2.0e-3, 5)
        curve = SwitchingCurve(I, np.array([0.0, 0, 1, 1, 1]),
                               np.full(5, trials), np.zeros(5))
        fit = fit_stochastic_sigmoid(curve)
        assert I[1] < fit.b < I[2]
        assert fit.a > 0 and fit.r_squared > 0.999

    @pytest.mark.parametrize("field", ["a", "b", "r_squared"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fit_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            SigmoidFit(**{"a": 3.2e4, "b": 1.5e-3, "r_squared": 1.0, field: value})

    def test_fit_json_export(self, tmp_path):
        fit = fit_stochastic_sigmoid(self.make_exact_curve())
        path = tmp_path / "fit.json"
        fit.to_json(path)
        import json
        doc = json.loads(path.read_text())
        assert set(doc) == {"a", "b", "r_squared"}
