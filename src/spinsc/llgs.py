"""Stochastic macrospin dynamics of the MTJ free layer.

Integrates

    dm/dt = -gamma (m x H_eff) + alpha (m x dm/dt) + (1/(q Ns)) (m x I_s x m)

with the spin current I_s polarized along +z, the easy axis, and the
thermal field

    H_th = sqrt( alpha/(1+alpha^2) * 2 kB T / (gamma mu0 Ms V dt) ) * G,

G a vector of independent standard normals resampled once per step.
The implicit damping term is removed by the usual algebraic
rearrangement (dm/dt = (A + alpha m x A)/(1+alpha^2) with A collecting
the explicit torques), and each step is advanced with the stochastic
Heun scheme, the noise held fixed within the step.  The state
is renormalized to unit length after every step.  Each trial may have
its own spin current.  The integrator has two widths, picked from the
batch size: a single trial (`simulate_pulse`) steps Python floats, a
batch (`mtj`) steps (3, B) rows by ufunc calls into preallocated
buffers (`_integrate` gives the layout).  Both do the same operations in
the same order, so a trial has the same bits at either width, in a batch
of any size (tests/test_llgs.py: TestHeunStepOracle, TestIntegratorWidths).

The effective field is the minimal bistable composition: uniaxial
anisotropy Hk along +z (easy axis) and a single demagnetization penalty
Hd along the hard axis y, plus the step's thermal field; each width of
the integrator writes the formula out itself.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError, StepFaultError
from .formats import write_csv
from .rngtools import derive_rng

__all__ = ["K_B", "MU_0", "MU_B", "HBAR", "Q_E", "GAMMA", "DeviceParams",
           "SpinCurrentPulse", "Trajectory", "default_device_params",
           "thermal_prefactor", "simulate_pulse"]

# SI constants (CODATA 2018)
K_B = 1.380649e-23        # J/K
MU_0 = 1.25663706212e-6   # T m/A
MU_B = 9.2740100783e-24   # J/T
HBAR = 1.054571817e-34    # J s
Q_E = 1.602176634e-19     # C
# gyromagnetic ratio with mu0 absorbed, m/(A s): GAMMA * H is in 1/s, H in A/m
GAMMA = 2.0 * MU_B * MU_0 / HBAR

_CHUNK_STEPS = 2048       # most thermal-field steps drawn per trial at a time
_CHUNK_BYTES = 15 << 19   # bound on a batch's (steps, 3, B) noise block, 7.5 MiB
_STAGE_BYTES = 1 << 18    # bound on the (trials, steps, 3) draws of one group


@dataclass(frozen=True)
class DeviceParams:
    """Free-layer geometry and dynamics of one device; the physical
    constants, GAMMA included, are the module's CODATA values."""

    alpha: float              # Gilbert damping ratio
    Ms: float                 # saturation magnetization, A/m
    V: float                  # free-layer volume, m^3
    T: float                  # temperature, K
    dt: float                 # integration time-step, s
    Hk: float                 # uniaxial anisotropy field along z, A/m
    Hd: float = 0.0           # hard-axis (y) demagnetization field, A/m

    def __post_init__(self):
        if not np.all(np.isfinite([self.alpha, self.Ms, self.V, self.T, self.dt,
                                   self.Hk, self.Hd])):
            raise DomainError("device parameters must be finite")
        if not (self.alpha > 0 and self.Ms > 0 and self.V > 0 and self.dt > 0):
            raise DomainError("alpha, Ms, V, dt must be positive")
        # the integrator divides by both (thermal_prefactor, 1/(q Ns))
        if not (0.0 < GAMMA * MU_0 * self.Ms * self.V * self.dt < np.inf
                and 0.0 < self.Ns < np.inf and 1.0 / (Q_E * self.Ns) < np.inf):
            raise DomainError("GAMMA*MU_0*Ms*V*dt and Ns = Ms*V/MU_B must be "
                              "finite and positive, and 1/(q Ns) finite: Ms, V "
                              "or dt is out of range")
        if self.T < 0:
            raise DomainError("temperature must be non-negative")
        if self.Hk < 0 or self.Hd < 0:
            raise DomainError("Hk and Hd must be non-negative")

    @property
    def Ns(self) -> float:
        """Number of spins in the free layer, Ms*V/muB."""
        return self.Ms * self.V / MU_B


@dataclass(frozen=True)
class SpinCurrentPulse:
    """Constant spin current along +z applied for a fixed duration."""

    magnitude: float                       # spin current Is, A
    duration: float                        # pulse width, s

    def __post_init__(self):
        if not (0 < self.duration < np.inf and np.isfinite(self.magnitude)):
            raise DomainError("pulse magnitude and duration must be finite, "
                              "duration positive")


@dataclass
class Trajectory:
    """Recorded magnetization path of a single trial."""

    times: np.ndarray          # (n,) seconds, uniform spacing dt
    m: np.ndarray              # (n, 3) unit vectors
    switched: bool
    max_pre_renorm_drift: float = 0.0
    max_post_renorm_drift: float = 0.0

    def to_csv(self, path):
        write_csv(path, ("time_s", "mx", "my", "mz"),
                  zip(self.times.tolist(), *self.m.T.tolist()))


def default_device_params(T: float = 300.0, dt: float = 2.5e-13) -> DeviceParams:
    """Shipped default device (not taken from any measured dataset).

    40x40x2 nm^3 free layer, alpha = 0.0122, Ms = 1e6 A/m; Hk set so the
    thermal stability factor is 30 at 300 K.  dt = 2.5e-13 s is the largest
    step tried whose reference switching curve (15 points x 10,000 trials)
    matched the dt/2 curve within Monte Carlo error and whose T = 0 sweep
    pulses kept within 1e-4 of their dt/2 runs; 4e-13 s failed the latter
    (tests/test_mtj.py, TestDefaultStep).
    """
    Ms = 1e6
    V = 40e-9 * 40e-9 * 2e-9
    Hk = 2.0 * 30.0 * K_B * 300.0 / (MU_0 * Ms * V)
    return DeviceParams(alpha=0.0122, Ms=Ms, V=V, T=T, dt=dt, Hk=Hk)


def thermal_prefactor(params: DeviceParams) -> float:
    """Standard deviation (A/m) of each thermal-field component per step."""
    a = params.alpha
    num = 2.0 * K_B * params.T
    den = GAMMA * MU_0 * params.Ms * params.V * params.dt
    return math.sqrt(a / (1.0 + a * a) * num / den)


def _cross_into(a, b, out, tmp):
    """out = a x b on (x, y, z) triples of (B,) rows, each component
    (ay bz - az by, az bx - ax bz, ax by - ay bx) as the float width of
    `_integrate` writes it; tmp is a (B,) scratch row."""
    (ax, ay, az), (bx, by, bz), (ox, oy, oz) = a, b, out
    np.multiply(ay, bz, out=ox)
    np.multiply(az, by, out=tmp)
    np.subtract(ox, tmp, out=ox)
    np.multiply(az, bx, out=oy)
    np.multiply(ax, bz, out=tmp)
    np.subtract(oy, tmp, out=oy)
    np.multiply(ax, by, out=oz)
    np.multiply(ay, bx, out=tmp)
    np.subtract(oz, tmp, out=oz)


def _field_into(m, n, Hk, Hd, h):
    """The effective field n + (0, -Hd my, Hk mz) of the (3, B) state m and
    base field n, its y and z rows written into h's; returns the three
    field rows."""
    hy, hz = h[1], h[2]
    np.multiply(Hd, m[1], out=hy)
    np.subtract(n[1], hy, out=hy)
    np.multiply(Hk, m[2], out=hz)
    np.add(n[2], hz, out=hz)
    return n[0], hy, hz


def _deriv_into(m, h, isz, gamma, alpha, inv_qns, inv_1a2, k, w):
    """The explicit LLGS rate of the (3, B) state m in the field rows h into
    the (3, B) rate k, the spin current (0, 0, isz): A = -gamma (m x h) +
    inv_qns m x (Is x m), then (A + alpha m x A) inv_1a2, each operation a
    ufunc call with out=, in the float width's order.  w is a (7, B)
    scratch."""
    mr = m[0], m[1], m[2]
    a, uv, t = w[:3], w[3:5], w[5:]
    ar = a[0], a[1], a[2]
    s = t[0]
    np.multiply(isz, m[:2], out=uv)                 # u, v
    _cross_into(mr, h, ar, s)
    np.multiply(-gamma, a, out=a)
    np.multiply(mr[2], uv, out=t)
    np.multiply(inv_qns, t, out=t)
    np.subtract(a[:2], t, out=a[:2])                # ax, ay
    np.multiply(m[:2], uv, out=t)
    np.add(s, t[1], out=s)
    np.multiply(inv_qns, s, out=s)
    np.add(ar[2], s, out=ar[2])                     # az
    _cross_into(mr, ar, (k[0], k[1], k[2]), s)
    np.multiply(alpha, k, out=k)
    np.add(a, k, out=k)
    np.multiply(k, inv_1a2, out=k)


def _sum_of_squares_into(m, sq, out):
    """mx*mx + my*my + mz*mz of the (3, B) state m into out, sq a (3, B)
    scratch."""
    np.multiply(m, m, out=sq)
    np.add(sq[0], sq[1], out=out)
    np.add(out, sq[2], out=out)


def _aligned(shape):
    """A zeroed C-order float array whose data starts on a 64-byte
    boundary; with a last axis a multiple of 8, every row does."""
    n = math.prod(shape)
    raw = np.zeros(n + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + n].reshape(shape)


def _integrate(m0, phases, params, rngs, record=False):
    """Advance a batch of trajectories through the given (n_steps, Is) phases.

    m0 is (B, 3) with B = len(rngs); a phase's z spin current Is is a
    float or (B,), one per trial.  Trial i draws its thermal field from
    rngs[i] (no draws at T = 0) in chunks of min(_CHUNK_STEPS,
    _CHUNK_BYTES // (24 Bp)) steps, at least one, with Bp = B rounded up
    to a multiple of 8.  The batch size picks the arithmetic once, on
    entry: one trial steps three Python floats with the field and the rate
    written out inline, no call per step but `math.sqrt` and `abs`;
    more step a (3, Bp) copy of m0 in place through `_field_into` and
    `_deriv_into`, every operation a ufunc call with out= into buffers
    allocated here by `_aligned`, so each (Bp,) row starts on a cache line.
    Trials B..Bp-1 are idle: m = (0, 0, 1), zero noise and zero current, a
    fixed point, dropped from the end state, the drift maxima and the finite
    check.  A chunk's draws are filled per trial into a staging buffer of at
    most _STAGE_BYTES, a group of trials at a time, and each group is scaled
    and transposed into its trials' columns of one contiguous (steps, 3, Bp)
    noise block.  Both widths do the same operations in the same order, so
    trial i has the same bits alone as in a batch of any size, at any chunk
    length and group size (TestIntegratorWidths, TestHeunStepOracle).
    Returns (m, max_pre_drift, max_post_drift, recorded): the (B, 3) end
    state, the largest |norm - 1| before and after renormalization, and a
    (times, m) pair of views of one (n, 4) array of every step's (t, mx, my,
    mz) when record=True (B must be 1).
    """
    alpha = params.alpha
    dt = params.dt
    half = 0.5 * dt
    Hk = params.Hk
    Hd = params.Hd
    inv_qns = 1.0 / (Q_E * params.Ns)
    inv_1a2 = 1.0 / (1.0 + alpha * alpha)
    pref = thermal_prefactor(params)
    B = len(rngs)
    Bp = -(-B // 8) * 8     # B padded to whole 64-byte rows of floats
    cl = min(_CHUNK_STEPS, max(1, _CHUNK_BYTES // (24 * Bp)))
    group = max(1, min(B, _STAGE_BYTES // (24 * cl)))
    stage = np.empty((group, cl, 3))    # one group's draws, reused by every chunk
    if B == 1:
        (mx, my, mz), = np.asarray(m0, dtype=float).tolist()
        sqrt = math.sqrt
        ng = -GAMMA
        max_pre = max_post = 0.0
        zero = (0.0, 0.0, 0.0)
        t, rec = 0.0, [0.0, mx, my, mz]     # (t, mx, my, mz) of every step
    else:   # trials B.. idle at +z with no noise or current: a fixed point
        m, p, k1, k2, h = _aligned((5, 3, Bp))
        m[:, :B] = np.asarray(m0, dtype=float).T
        m[2, B:] = 1.0
        mx, my, mz = m[:, :B]   # the trials' rows of m, updated in place
        s, max_pre, max_post = _aligned((3, Bp))    # per-trial running maxima
        w, cur = _aligned((7, Bp)), _aligned((Bp,))
        noise = _aligned((cl if pref else 1, 3, Bp))
        zero = noise[0]
    try:
        for n_steps, isz in phases:
            if B == 1:
                isz = np.asarray(isz, dtype=float).item(0)
            else:
                cur[:B] = isz
            for done in range(0, n_steps, cl):
                n = min(cl, n_steps - done)
                if pref == 0.0:     # T = 0
                    rows = [zero] * n
                elif B == 1:        # step k's components as floats
                    block = stage[0, :n]
                    rngs[0].standard_normal(out=block)
                    rows = np.multiply(block, pref, out=block).tolist()
                else:   # (n, 3, Bp): step k's components as (Bp,) rows
                    for a in range(0, B, group):
                        block = stage[:B - a, :n]
                        for g, row in zip(rngs[a:a + group], block):
                            g.standard_normal(out=row)
                        np.multiply(block.transpose(1, 2, 0), pref,
                                    out=noise[:n, :, a:a + len(block)])
                    rows = noise[:n]
                if B > 1:
                    for nrow in rows:
                        hrows = _field_into(m, nrow, Hk, Hd, h)
                        _deriv_into(m, hrows, cur, GAMMA, alpha, inv_qns, inv_1a2,
                                    k1, w)
                        np.multiply(dt, k1, out=p)
                        np.add(m, p, out=p)
                        hrows = _field_into(p, nrow, Hk, Hd, h)
                        _deriv_into(p, hrows, cur, GAMMA, alpha, inv_qns, inv_1a2,
                                    k2, w)
                        np.add(k1, k2, out=k2)
                        np.multiply(half, k2, out=k2)
                        np.add(m, k2, out=m)
                        _sum_of_squares_into(m, k2, s)
                        np.sqrt(s, out=s)
                        np.subtract(s, 1.0, out=k1[0])
                        np.abs(k1[0], out=k1[0])
                        np.maximum(max_pre, k1[0], out=max_pre)
                        np.divide(m, s, out=m)
                        _sum_of_squares_into(m, k2, s)
                        np.subtract(s, 1.0, out=s)
                        np.abs(s, out=s)
                        np.maximum(max_post, s, out=max_post)
                else:   # the field and the rate inlined for each Heun stage
                    for nx, ny, nz in rows:
                        hy = ny - Hd * my
                        hz = nz + Hk * mz
                        u = isz * mx
                        v = isz * my
                        ax = ng * (my * hz - mz * hy) - inv_qns * (mz * u)
                        ay = ng * (mz * nx - mx * hz) - inv_qns * (mz * v)
                        az = ng * (mx * hy - my * nx) + inv_qns * (mx * u + my * v)
                        k1x = (ax + alpha * (my * az - mz * ay)) * inv_1a2
                        k1y = (ay + alpha * (mz * ax - mx * az)) * inv_1a2
                        k1z = (az + alpha * (mx * ay - my * ax)) * inv_1a2
                        px = mx + dt * k1x
                        py = my + dt * k1y
                        pz = mz + dt * k1z
                        hy = ny - Hd * py
                        hz = nz + Hk * pz
                        u = isz * px
                        v = isz * py
                        ax = ng * (py * hz - pz * hy) - inv_qns * (pz * u)
                        ay = ng * (pz * nx - px * hz) - inv_qns * (pz * v)
                        az = ng * (px * hy - py * nx) + inv_qns * (px * u + py * v)
                        k2x = (ax + alpha * (py * az - pz * ay)) * inv_1a2
                        k2y = (ay + alpha * (pz * ax - px * az)) * inv_1a2
                        k2z = (az + alpha * (px * ay - py * ax)) * inv_1a2
                        mx = mx + half * (k1x + k2x)
                        my = my + half * (k1y + k2y)
                        mz = mz + half * (k1z + k2z)
                        norm = sqrt(mx * mx + my * my + mz * mz)
                        d = abs(norm - 1.0)
                        if d > max_pre:
                            max_pre = d
                        mx = mx / norm
                        my = my / norm
                        mz = mz / norm
                        d = abs(mx * mx + my * my + mz * mz - 1.0)
                        if d > max_post:
                            max_post = d
                        t += dt
                        if record:
                            rec += (t, mx, my, mz)
                finite = np.isfinite(mx) & np.isfinite(my) & np.isfinite(mz)
                if not finite.all():
                    raise StepFaultError(f"non-finite magnetization in trial(s) "
                                         f"{np.flatnonzero(~finite).tolist()}; reduce dt")
    except ZeroDivisionError:   # a zero norm at the float width; numpy gives nan
        raise StepFaultError("non-finite magnetization in trial(s) [0]; "
                             "reduce dt") from None
    if B > 1:   # the trials' maxima, without the idle pad
        max_pre, max_post = max_pre[:B], max_post[:B]
    recorded = None
    if record:  # times and states: views of one (n, 4) array
        rec = np.array(rec).reshape(-1, 4)
        recorded = rec[:, 0], rec[:, 1:]
    return (np.column_stack((mx, my, mz)), float(np.max(max_pre)),
            float(np.max(max_post)), recorded)


def _pulse_phases(width, isz, relax_time, dt):
    """The (n_steps, Is) phases of a pulse of z spin current isz lasting
    `width` (at least one step), then field-only relaxation for relax_time
    (a phase of no steps when that rounds to 0)."""
    return [(max(1, int(round(width / dt))), isz), (int(round(relax_time / dt)), 0.0)]


def simulate_pulse(m0, pulse: SpinCurrentPulse, params: DeviceParams,
                   relax_time: float, seed: int, record: bool = True) -> Trajectory:
    """Apply the pulse, then field-only relaxation; fully seed-determined.

    The thermal field comes from the "trajectory" substream of `seed`."""
    if not 0 <= relax_time < np.inf:
        raise DomainError("relax_time must be finite and non-negative")
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (3,) or not abs(np.linalg.norm(m0) - 1.0) <= 1e-12:
        raise DomainError("m0 must be a finite unit 3-vector")
    phases = _pulse_phases(pulse.duration, pulse.magnitude, relax_time, params.dt)
    rng = derive_rng(seed, "trajectory")
    m, pre, post, recorded = _integrate(m0[None], phases, params, [rng], record=record)
    n_steps = sum(n for n, _ in phases)
    times, samples = recorded or (np.array([n_steps * params.dt]), m)
    return Trajectory(times=times, m=samples, switched=bool(m[0, 2] * m0[2] < 0),
                      max_pre_renorm_drift=pre, max_post_renorm_drift=post)
