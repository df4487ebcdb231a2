import functools
import hashlib
import math

import numpy as np
import pytest

from spinsc import llgs
from spinsc.errors import DomainError, StepFaultError
from spinsc.llgs import (GAMMA, MU_B, Q_E, DeviceParams, SpinCurrentPulse,
                         _integrate, default_device_params, effective_field,
                         sample_thermal_field, simulate_pulse, thermal_prefactor)
from spinsc.rngtools import derive_rng

# independent constants for the oracle below (CODATA values retyped, not
# imported from the module under test)
KB = 1.380649e-23
MU0 = 1.25663706212e-6


def tilted(theta, phi=0.0):
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


class TestThermalField:
    def test_zero_temperature_is_exact_zero(self):
        p = default_device_params(T=0.0)
        h = sample_thermal_field(p, derive_rng(1, "x"))
        assert np.array_equal(h, np.zeros(3))

    def test_alpha_scaling_ratio(self):
        base = default_device_params()
        other = DeviceParams(alpha=1.0, Ms=base.Ms, V=base.V, T=base.T,
                             dt=base.dt, Hk=base.Hk)
        h1 = sample_thermal_field(base, derive_rng(7, "g"))
        h2 = sample_thermal_field(other, derive_rng(7, "g"))  # same G draws
        expected = math.sqrt((1.0 / 2.0) / (base.alpha / (1 + base.alpha ** 2)))
        assert np.allclose(h2 / h1, expected, rtol=1e-12)

    def test_consumes_three_draws_per_call(self):
        p = default_device_params()
        r1 = derive_rng(3, "g")
        r2 = derive_rng(3, "g")
        sample_thermal_field(p, r1)
        r2.standard_normal(3)
        assert np.array_equal(r1.standard_normal(3), r2.standard_normal(3))

    def test_variance_matches_closed_form(self):
        p = default_device_params()
        # oracle: evaluate the closed-form prefactor from scratch
        pref2 = (p.alpha / (1 + p.alpha ** 2)) * 2 * KB * 300.0 / (
            GAMMA * MU0 * p.Ms * p.V * p.dt)
        draws = sample_thermal_field(p, derive_rng(5, "var"), size=100_000)
        var = draws.var(axis=0)
        assert np.all(np.abs(var / pref2 - 1.0) < 0.03)


class TestEffectiveField:
    def test_easy_axis_alignment(self):
        p = default_device_params()
        assert np.allclose(effective_field([0, 0, 1], p), [0, 0, p.Hk])

    def test_hard_axis_penalty(self):
        p = default_device_params()
        pd = DeviceParams(alpha=p.alpha, Ms=p.Ms, V=p.V, T=p.T, dt=p.dt,
                          Hk=p.Hk, Hd=1e4)
        assert np.allclose(effective_field([0, 1, 0], pd), [0, -1e4, 0])

    def test_applied_superposition(self):
        p = default_device_params()
        assert np.allclose(effective_field([0, 0, 1], p, applied=[123.0, 0, 0]),
                           [123.0, 0, p.Hk])


class TestHeunStepOracle:
    """One stochastic Heun step written out here from effective_field,
    sample_thermal_field and renormalization: a 1-step simulate_pulse (the
    float width) and every row of a 1-step 3-trial _integrate (the array
    width) equal it bit for bit, drifts included."""

    @staticmethod
    def params(T):
        return DeviceParams(alpha=0.05, Ms=1e6, V=40e-9 * 40e-9 * 2e-9, T=T,
                            dt=1e-13, Hk=2e5, Hd=3e4)

    @staticmethod
    def oracle_step(p, m0, isz, rng):
        """(m, pre, post) after one step from m0 at z spin current isz, the
        thermal field drawn from rng; at T = 0 the integrator draws no noise,
        so no thermal field is added."""
        h_th = sample_thermal_field(p, rng) if p.T > 0 else None
        inv_qns = 1.0 / (Q_E * p.Ns)
        inv_1a2 = 1.0 / (1.0 + p.alpha * p.alpha)
        spin_current = np.array([0.0, 0.0, isz])   # along +z

        def rhs(m):
            h = effective_field(m, p, applied=h_th)
            a = (-GAMMA * np.cross(m, h)
                 + inv_qns * np.cross(m, np.cross(spin_current, m)))
            return (a + p.alpha * np.cross(m, a)) * inv_1a2

        k1 = rhs(m0)
        k2 = rhs(m0 + p.dt * k1)
        m = m0 + 0.5 * p.dt * (k1 + k2)
        norm = np.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2])
        m = m / norm
        post = abs(m[0] * m[0] + m[1] * m[1] + m[2] * m[2] - 1.0)
        return m, abs(norm - 1.0), post

    @pytest.mark.parametrize("T", [300.0, 0.0])
    def test_one_step_bit_for_bit(self, T):
        p = self.params(T)
        pulse = SpinCurrentPulse(3e-4, p.dt)
        m0 = tilted(2.0, 0.7)
        m, pre, post = self.oracle_step(p, m0, pulse.magnitude,
                                        derive_rng(13, "trajectory"))
        tr = simulate_pulse(m0, pulse, p, 0.0, seed=13)
        assert tr.m.shape == (2, 3)
        assert tr.m[1].tobytes() == m.tobytes()
        assert tr.max_pre_renorm_drift == pre
        assert tr.max_post_renorm_drift == post

    @pytest.mark.parametrize("T", [300.0, 0.0])
    def test_batch_step_bit_for_bit(self, T):
        """Distinct starts and one spin current per trial; the caller's m0
        is left as it was."""
        p = self.params(T)
        m0 = np.array([tilted(2.0, 0.7), tilted(0.4, -1.9), tilted(3.0, 2.6)])
        currents = np.array([3e-4, -6e-4, 0.0])

        def rngs():
            return [derive_rng(13, "batch", i) for i in range(3)]

        rows = [self.oracle_step(p, m0[i], currents[i], g)
                for i, g in enumerate(rngs())]
        before = m0.tobytes()
        m, pre, post, _ = _integrate(m0, [(1, currents)], p, rngs())
        assert m0.tobytes() == before
        assert m.shape == (3, 3) and len({row.tobytes() for row in m}) == 3
        for mi, (want, _, _) in zip(m, rows):
            assert mi.tobytes() == want.tobytes()
        assert pre == max(r[1] for r in rows)
        assert post == max(r[2] for r in rows)


class TestDeriv:
    """_deriv_into, whose spin current runs along +z, equals the general
    m x (Is x m) torque with Is = (0, 0, isz) written out here, bit for bit,
    on (3, B) rows with one current for all trials or one per trial."""

    @staticmethod
    def general(mx, my, mz, hx, hy, hz, isx, isy, isz, gamma, alpha,
                inv_qns, inv_1a2):
        tx = isy * mz - isz * my
        ty = isz * mx - isx * mz
        tz = isx * my - isy * mx
        ax = -gamma * (my * hz - mz * hy) + inv_qns * (my * tz - mz * ty)
        ay = -gamma * (mz * hx - mx * hz) + inv_qns * (mz * tx - mx * tz)
        az = -gamma * (mx * hy - my * hx) + inv_qns * (mx * ty - my * tx)
        dx = (ax + alpha * (my * az - mz * ay)) * inv_1a2
        dy = (ay + alpha * (mz * ax - mx * az)) * inv_1a2
        dz = (az + alpha * (mx * ay - my * ax)) * inv_1a2
        return dx, dy, dz

    @pytest.mark.parametrize("isz", [0.0, 3e-4, -8e-4, "per-trial"])
    def test_equals_general_torque_with_z_current(self, isz):
        p = default_device_params()
        rng = derive_rng(5, "deriv")
        m = rng.standard_normal((3, 64))
        m /= np.linalg.norm(m, axis=0)
        h = 1e5 * rng.standard_normal((3, 64))
        if isz == "per-trial":
            isz = 1e-3 * rng.standard_normal(64)
        consts = (GAMMA, p.alpha, 1.0 / (Q_E * p.Ns),
                  1.0 / (1.0 + p.alpha * p.alpha))
        got = np.empty((3, 64))
        llgs._deriv_into(m, (h[0], h[1], h[2]), isz, *consts, got, np.empty((7, 64)))
        want = self.general(*m, *h, 0.0, 0.0, isz, *consts)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        if np.any(np.asarray(isz) != 0.0):    # the torque term is exercised
            no_torque = self.general(*m, *h, 0.0, 0.0, 0.0, *consts)
            assert not np.array_equal(got[0], no_torque[0])


class TestLlgsStep:
    def test_easy_axis_fixed_point(self):
        p = default_device_params(T=0.0)
        tr = simulate_pulse([0.0, 0.0, 1.0], SpinCurrentPulse(0.0, 10 * p.dt), p,
                            0.0, seed=0)
        assert tr.m.shape == (11, 3)
        assert np.allclose(tr.m, [0, 0, 1], atol=1e-15)

    def test_damping_monotone_and_energy_decreasing(self):
        p = default_device_params(T=0.0)
        tr = simulate_pulse(tilted(0.4), SpinCurrentPulse(0.0, 3e-9), p,
                            0.0, seed=1)
        mz = tr.m[:, 2]
        assert np.all(np.diff(mz) >= -1e-15)
        energy = -p.Hk * mz ** 2 / 2.0
        assert np.all(np.diff(energy) <= 1e-12)

    def test_unit_norm_after_steps(self):
        p = default_device_params()
        tr = simulate_pulse(tilted(2.8), SpinCurrentPulse(1e-4, 1e-10), p,
                            1e-10, seed=9)
        norms = np.linalg.norm(tr.m, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9
        assert tr.max_pre_renorm_drift <= 1e-3

    def test_zero_temperature_seed_independence(self):
        p = default_device_params(T=0.0)
        pulse = SpinCurrentPulse(5e-5, 5e-10)
        t1 = simulate_pulse(tilted(3.0), pulse, p, 1e-10, seed=1)
        t2 = simulate_pulse(tilted(3.0), pulse, p, 1e-10, seed=999)
        assert np.array_equal(t1.m, t2.m)


class TestSimulatePulse:
    def test_minimal_pulse_no_torque_no_switch(self):
        p = default_device_params(T=0.0)
        tr = simulate_pulse(tilted(3.1), SpinCurrentPulse(0.0, p.dt), p,
                            0.0, seed=0)
        assert not tr.switched

    def test_seed_determinism(self):
        p = default_device_params()
        pulse = SpinCurrentPulse(2e-4, 2e-10)
        t1 = simulate_pulse(tilted(3.0), pulse, p, 1e-10, seed=44)
        t2 = simulate_pulse(tilted(3.0), pulse, p, 1e-10, seed=44)
        assert np.array_equal(t1.m, t2.m)
        assert np.array_equal(t1.times, t2.times)

    def test_seeds_give_different_paths(self):
        p = default_device_params()
        pulse = SpinCurrentPulse(2e-4, 2e-10)
        diffs = 0
        for s in range(10):
            a = simulate_pulse(tilted(3.0), pulse, p, 0.0, seed=2 * s)
            b = simulate_pulse(tilted(3.0), pulse, p, 0.0, seed=2 * s + 1)
            diffs += not np.array_equal(a.m, b.m)
        assert diffs >= 1

    def test_deterministic_switching_matches_fine_dt_reference(self):
        p = default_device_params(T=0.0)
        ic = p.alpha * GAMMA * p.Hk * Q_E * p.Ns
        pulse = SpinCurrentPulse(20 * ic, 2e-9)
        m0 = -tilted(math.radians(2))  # near -z
        tr = simulate_pulse(m0, pulse, p, 2e-10, seed=1, record=False)
        assert tr.switched
        fine = DeviceParams(alpha=p.alpha, Ms=p.Ms, V=p.V, T=0.0,
                            dt=p.dt / 10.0, Hk=p.Hk)
        ref = simulate_pulse(m0, pulse, fine, 2e-10, seed=1, record=False)
        assert ref.switched == tr.switched

    def test_negative_relax_time_rejected(self):
        p = default_device_params(T=0.0)
        with pytest.raises(DomainError):
            simulate_pulse(tilted(0.1), SpinCurrentPulse(0.0, 1e-12), p,
                           -1.0, seed=0)

    @pytest.mark.parametrize("m0", [
        [0.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [[0.0, 0.0, 1.0]],
        [np.nan, 0.0, 1.0], [0.0, np.inf, 1.0], [0.0, 0.0, 1.0 + 1e-9],
        [0.6, 0.0, 0.6]], ids=["zero", "2-vector", "4-vector", "row", "nan",
                               "inf", "near-unit", "non-unit"])
    def test_invalid_start_rejected(self, m0):
        p = default_device_params(T=0.0)
        with pytest.raises(DomainError, match="m0 must be a finite unit 3-vector"):
            simulate_pulse(m0, SpinCurrentPulse(0.0, 1e-12), p, 0.0, seed=0)

    @pytest.mark.parametrize("trials", [1, 2])
    @pytest.mark.parametrize("start", ["tilted", "zero"])
    def test_non_finite_step_raises(self, trials, start):
        """dt = 1e300 overflows the first step and a zero start vector has
        zero norm: both widths of _integrate raise StepFaultError, the float
        width never ZeroDivisionError or OverflowError.  simulate_pulse
        rejects the zero start before stepping."""
        p = DeviceParams(alpha=0.01, Ms=1e6, V=1e-24, T=0.0, dt=1e300, Hk=1e4)
        m0 = tilted(0.5) if start == "tilted" else np.zeros(3)
        rngs = [derive_rng(0, "trial", i) for i in range(trials)]
        with np.errstate(all="ignore"), pytest.raises(StepFaultError):
            _integrate(np.tile(m0, (trials, 1)), [(1, 1e-4)], p, rngs)
        if trials == 1:
            error = StepFaultError if start == "tilted" else DomainError
            with np.errstate(all="ignore"), pytest.raises(error):
                simulate_pulse(m0, SpinCurrentPulse(1e-4, 1e300), p, 0.0, seed=0)

    @pytest.mark.parametrize("T", [300.0, 0.0])
    def test_recording_keeps_end_state_and_drifts(self, T):
        """A recorded run ends in the same state bytes and drifts as the
        unrecorded one across a chunk boundary (2,100 pulse steps) and the
        pulse-to-relax boundary, and records every step as (n, 3) floats."""
        p = default_device_params(T=T)
        pulse = SpinCurrentPulse(5e-4, 2100 * p.dt)
        rec, end = [simulate_pulse(tilted(math.radians(178)), pulse, p, 100 * p.dt,
                                   seed=11, record=record) for record in (True, False)]
        assert rec.m.shape == (2201, 3) and rec.m.dtype == float
        assert rec.times.shape == (2201,)
        assert rec.m[-1].tobytes() == end.m[0].tobytes()
        assert rec.max_pre_renorm_drift == end.max_pre_renorm_drift
        assert rec.max_post_renorm_drift == end.max_post_renorm_drift
        assert rec.switched == end.switched

    def test_trajectory_csv_export(self, tmp_path):
        p = default_device_params(T=0.0)
        tr = simulate_pulse(tilted(0.2), SpinCurrentPulse(0.0, 5e-12), p,
                            0.0, seed=0)
        path = tmp_path / "traj.csv"
        tr.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,mx,my,mz"
        assert len(lines) == len(tr.times) + 1
        assert np.all(np.diff(tr.times) > 0)
        # every field is a plain float literal that reads back exactly
        rows = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
        assert rows[:, 0].tobytes() == tr.times.tobytes()
        assert rows[:, 1:].tobytes() == tr.m.tobytes()


class TestIntegratorWidths:
    """One trial integrates on Python floats, a batch on arrays; trial i alone
    equals row i of the batch, bit for bit (2,100 pulse steps cross a chunk
    boundary)."""

    PHASES = [(100, 0.0), (2100, 5e-4), (100, 0.0)]

    @pytest.mark.parametrize("T", [300.0, 0.0])
    def test_single_trial_equals_batch_row(self, T):
        p = default_device_params(T=T)
        m0 = np.array([tilted(math.radians(a), 0.3 * i)
                       for i, a in enumerate((178.0, 170.0, 150.0))])

        def rngs():
            return [derive_rng(5, "width", i) for i in range(3)]

        m, pre, post, _ = _integrate(m0, self.PHASES, p, rngs())
        singles = [_integrate(m0[i:i + 1], self.PHASES, p, [g])
                   for i, g in enumerate(rngs())]
        assert len({row.tobytes() for row in m}) == 3
        for i, (mi, _, _, _) in enumerate(singles):
            assert mi.shape == (1, 3)
            assert mi[0].tobytes() == m[i].tobytes()
        assert pre == max(s[1] for s in singles)
        assert post == max(s[2] for s in singles)

    def test_chunk_length_and_per_trial_current_keep_bits(self, monkeypatch):
        """Byte budgets giving chunks of 1, 7 and 2048 steps end a 2,100-step
        phase with one spin current per trial in the same state and drifts,
        and trial i ends where it ends alone with its own current."""
        p = default_device_params()
        m0 = np.array([tilted(math.radians(a), 0.3 * i)
                       for i, a in enumerate((178.0, 170.0, 150.0))])
        currents = np.array([0.0, 1e-5, 8e-4])
        phases = [(100, 0.0), (2100, currents), (100, 0.0)]

        def rngs():
            return [derive_rng(5, "chunk", i) for i in range(3)]

        runs = []
        for chunk in (1, 7, 2048):     # 3 trials are padded to 8
            monkeypatch.setattr(llgs, "_CHUNK_BYTES", 24 * 8 * chunk)
            m, pre, post, _ = _integrate(m0, phases, p, rngs())
            runs.append((m.tobytes(), pre, post))
        assert runs[0] == runs[1] == runs[2]
        for i, g in enumerate(rngs()):
            alone = [(n, isz if np.ndim(isz) == 0 else isz[i:i + 1])
                     for n, isz in phases]
            mi = _integrate(m0[i:i + 1], alone, p, [g])[0]
            assert mi[0].tobytes() == m[i].tobytes()

    # the batches below take the first B of these trials
    STARTS = [tilted(math.radians(178.0 - 9.0 * i), 0.4 * i) for i in range(17)]
    CURRENTS = np.linspace(-2e-4, 8e-4, 17)

    @classmethod
    def batch(cls, B, T):
        """(m0, phases, params, rngs) of the first B trials: distinct starts,
        one spin current each, and 2,100 pulse steps crossing a chunk."""
        phases = [(100, 0.0), (2100, cls.CURRENTS[:B]), (100, 0.0)]
        return (np.array(cls.STARTS[:B]), phases, default_device_params(T=T),
                [derive_rng(5, "pad", i) for i in range(B)])

    @staticmethod
    @functools.cache
    def alone(T):
        """(end state bytes, pre, post) of each of the 17 trials run alone."""
        m0, phases, p, rngs = TestIntegratorWidths.batch(17, T)
        ends = []
        for i, g in enumerate(rngs):
            own = [(n, isz if np.ndim(isz) == 0 else isz[i:i + 1])
                   for n, isz in phases]
            m, pre, post, _ = _integrate(m0[i:i + 1], own, p, [g])
            ends.append((m[0].tobytes(), pre, post))
        return ends

    def assert_trials_alone(self, B, T):
        m, pre, post, _ = _integrate(*self.batch(B, T))
        alone = self.alone(T)[:B]
        assert m.shape == (B, 3)
        assert [row.tobytes() for row in m] == [a[0] for a in alone]
        assert pre == max(a[1] for a in alone)
        assert post == max(a[2] for a in alone)

    @pytest.mark.parametrize("T", [300.0, 0.0])
    @pytest.mark.parametrize("B", [2, 3, 4, 5, 6, 7, 8, 9, 17])
    def test_every_pad_count_keeps_trial_bits(self, B, T):
        """Batches of 2..9 and 17 trials carry 6, 5, .., 0, 7 and 7 idle pad
        trials; trial i ends where it ends alone, and the batch drifts are
        the maxima of its trials' drifts."""
        self.assert_trials_alone(B, T)

    @pytest.mark.parametrize("group", [1, 3, 40])
    def test_staging_group_keeps_trial_bits(self, monkeypatch, group):
        """Chunks of 7 steps whose draws are staged 1, 3 or 40 trials at a
        time (40: the whole batch in one group) keep every trial's bits."""
        monkeypatch.setattr(llgs, "_CHUNK_STEPS", 7)
        monkeypatch.setattr(llgs, "_STAGE_BYTES", 24 * 7 * group)
        for B in (2, 3, 4, 5, 6, 7, 8, 9, 17):
            self.assert_trials_alone(B, 300.0)

    def test_batch_layout_aligned_and_pad_idle(self, monkeypatch):
        """A 5-trial batch returns (5, 3) without its 3 pad rows and leaves
        m0's bytes as they were.  Every buffer `_aligned` gives it is C-order
        from a 64-byte boundary with rows of 8 floats, and the idle trials
        keep m = (0, 0, 1), zero noise, zero current and zero drift."""
        made = []

        def spy(shape):
            made.append(aligned(shape))
            return made[-1]

        aligned = llgs._aligned
        monkeypatch.setattr(llgs, "_aligned", spy)
        m0, phases, p, rngs = self.batch(5, 300.0)
        before = m0.tobytes()
        m = _integrate(m0, phases, p, rngs)[0]
        assert m.shape == (5, 3) and m0.tobytes() == before
        assert {a.shape for a in made} == {(5, 3, 8), (3, 8), (7, 8), (8,),
                                            (llgs._CHUNK_STEPS, 3, 8)}
        for a in made:
            assert a.flags.c_contiguous and a.ctypes.data % 64 == 0
        by_shape = {a.shape: a for a in made}
        state = by_shape[5, 3, 8][0]
        assert state[:, :5].T.tobytes() == m.tobytes()
        assert state[:, 5:].tolist() == [[0.0] * 3, [0.0] * 3, [1.0] * 3]
        assert not by_shape[llgs._CHUNK_STEPS, 3, 8][:, :, 5:].any()
        assert not by_shape[8,][5:].any()
        assert not by_shape[3, 8][1:, 5:].any()     # the drift maxima


class TestPinnedTrajectories:
    """Recorded runs keep the bytes and drift values they had when pinned:
    178 degrees from +z, 5e-4 A for 0.4 ns, then 0.1 ns of relaxation
    (5,000 steps of dt = 1e-13 s, the step they were pinned at, so chunk
    and phase boundaries are crossed)."""

    PINNED = {
        300.0: "3806bfbd55f9006da50337dfe8a0e3ece8c13519bdcdcaa812e4a5a21ae3c9a7",
        0.0: "3206862efddb7244f2819795c8f8a4d1c223aad3ea046968ba5257fde8486666",
    }

    @staticmethod
    def run(T):
        return simulate_pulse(tilted(math.radians(178)), SpinCurrentPulse(5e-4, 4e-10),
                              default_device_params(T=T, dt=1e-13), 1e-10, seed=7)

    @pytest.mark.parametrize("T", [300.0, 0.0])
    def test_csv_sha256(self, T, tmp_path):
        path = tmp_path / "traj.csv"
        self.run(T).to_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED[T]

    def test_thermal_drift_values(self):
        tr = self.run(300.0)
        assert tr.switched
        assert tr.max_pre_renorm_drift == 3.206590548643362e-11
        assert tr.max_post_renorm_drift == 4.440892098500626e-16

    def test_million_step_thermal_run(self):
        """An unrecorded run of 1e6 steps of dt = 1e-13 s, 178 degrees and
        5e-4 A for 1e-7 s (criterion 02(a)'s run before the default dt
        changed), seed 7 keeps its end state and drift values."""
        tr = simulate_pulse(tilted(math.radians(178)), SpinCurrentPulse(5e-4, 1e-7),
                            default_device_params(dt=1e-13), 0.0, seed=7, record=False)
        assert tr.m.tolist() == [[-0.01573825095035753, -0.022329860325059507,
                                  0.9996267727481527]]
        assert tr.switched
        assert tr.max_pre_renorm_drift == 5.0536463902517426e-11
        assert tr.max_post_renorm_drift == 4.440892098500626e-16


class TestParamsValidation:
    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            DeviceParams(alpha=0.0, Ms=1e6, V=1e-24, T=300, dt=1e-13, Hk=1e4)
        with pytest.raises(DomainError):
            DeviceParams(alpha=0.01, Ms=1e6, V=1e-24, T=-1, dt=1e-13, Hk=1e4)

    @pytest.mark.parametrize("field", ["alpha", "Ms", "V", "T", "dt", "Hk", "Hd"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, field, value):
        kwargs = dict(alpha=0.01, Ms=1e6, V=1e-24, T=300.0, dt=1e-13, Hk=1e4)
        kwargs[field] = value
        with pytest.raises(DomainError, match="finite"):
            DeviceParams(**kwargs)

    @pytest.mark.parametrize("override", [
        dict(Ms=1e-300), dict(V=1e-320), dict(dt=1e-320),
        dict(Ms=1e-200, V=1e-125, dt=1.0), dict(V=1e300),
        dict(Ms=1e-300, V=1e-14, dt=1.0)],
        ids=["Ms", "V", "dt", "Ns-only", "Ns-overflow", "inv-qNs-overflow"])
    def test_out_of_range_products_rejected(self, override):
        """Positive finite Ms, V and dt whose products the integrator divides
        by round to 0 or overflow: GAMMA*MU_0*Ms*V*dt (thermal_prefactor)
        or Ns = Ms*V/MU_B (1/(q Ns)).  "Ns-only" leaves the first positive;
        in "inv-qNs-overflow" both are positive, but 1/(q Ns) is inf and
        would end the run with a misleading "reduce dt"."""
        kwargs = dict(alpha=0.01, Ms=1e6, V=1e-24, T=300.0, dt=1e-13, Hk=1e4)
        kwargs.update(override)
        with pytest.raises(DomainError, match="finite and positive"):
            DeviceParams(**kwargs)

    @pytest.mark.parametrize("magnitude, duration", [
        (1e-4, np.nan), (1e-4, np.inf), (np.nan, 1e-9), (np.inf, 1e-9)])
    def test_non_finite_pulse_rejected(self, magnitude, duration):
        with pytest.raises(DomainError, match="finite"):
            SpinCurrentPulse(magnitude, duration)

    @pytest.mark.parametrize("relax_time", [np.nan, np.inf])
    def test_non_finite_relax_time_rejected(self, relax_time):
        with pytest.raises(DomainError, match="finite"):
            simulate_pulse(tilted(0.1), SpinCurrentPulse(0.0, 1e-12),
                           default_device_params(T=0.0), relax_time, seed=0)

    def test_ns_derived_exactly(self):
        p = default_device_params()
        assert p.Ns == p.Ms * p.V / MU_B

    def test_pulse_validation(self):
        with pytest.raises(DomainError):
            SpinCurrentPulse(1e-4, 0.0)
