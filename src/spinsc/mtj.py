"""MTJ device layer: Monte Carlo switching probability and the binomial
maximum-likelihood logistic fit of the stochastic-sigmoid curve.

Switching trials start from the antiparallel state (-z) with a small
fixed tilt, equilibrate thermally for 10 ps (40 steps at the default dt),
then see the current pulse and a field-only relax window; a trial has
switched when its final mz sign differs from its initial sign.
A sweep's points x trials form one flat axis that rngtools.parallel_map
cuts into slabs of at most _BATCH_TRIALS as it reaches them; a slab finds
each trial's point, current and substream from its flat index.

Settled trials leave a slab early.  The pulse and the relax window run as
`_integrate` calls of _SETTLE_STEPS steps; after each, a trial with
mz >= z* in the pulse, or |mz| >= z* from the pulse's end on, stops with
the flag mz > 0.  z* = 0.5 where `_settle_margin` finds a bound of at most
1e-12 on the chance that such a trial would end on the other side of the
equator, else every trial runs to the end.  The bound is Brown's
Fokker-Planck model of mz (W. F. Brown, Phys. Rev. 130, 1677, 1963) with
Hd = 0: mz has the Ito drift 2h' [Delta (1 - z^2)(z + i) - z] and the
diffusion 2h' (1 - z^2) <= 2h', where h' = gamma alpha kT / ((1 + alpha^2)
mu0 Ms V), Delta = mu0 Ms V Hk / (2 kT) and i >= 0 is the spin current
over its critical value (0 after the pulse, so that -mz obeys the same).
With Delta (1 - z*^2) >= 1 the drift is non-negative on [0, z*], so mz
falls from z* to 0 no sooner than a driftless walk of diffusion 2h' would,
and by the reflection principle it does so within T with probability at
most 2 Phi(-z* / sqrt(2 h' T)) = erfc(z* / (2 sqrt(h' T))), T the pulse
width plus the relax time.  llgs's thermal field, weaker than Brown's by
(1 + alpha^2), shrinks both the diffusion and the -2h'z drift, so the bound
holds for it too.  On the default device at 300 K the bound is 6.3e-14
over 0.8 ns; at 600 K it is 1.1e-7, and no trial stops.  Each trial keeps
its own substream, and `_integrate`'s bits depend on neither batch size
nor chunk length, so every trial that runs on ends bit for bit as it does
in one call.
"""

from dataclasses import asdict, dataclass
from functools import partial
import math

import numpy as np

from .errors import ConvergenceError, DomainError, FitDomainError
from .formats import write_csv, write_json
from .llgs import (GAMMA, K_B, MU_0, DeviceParams, _integrate, _pulse_phases,
                   default_device_params)
# derive_rng is unused here but stays bound: perfbench traces it per module
from .rngtools import derive_rng, derive_rngs, parallel_map

__all__ = [
    "MtjParams",
    "SwitchingCurve",
    "SigmoidFit",
    "default_mtj_params",
    "sigmoid",
    "sweep_switching_curve",
    "fit_stochastic_sigmoid",
]

_BATCH_TRIALS = 4096      # most trials stepped together in one LLGS batch
_START_TILT = math.radians(2.0)   # tilt of every trial's start state from -z
_SETTLE_STEPS = 128       # steps between the checks that drop settled trials
_SETTLE_Z = 0.5           # |mz| from which a trial may count as settled
_SETTLE_BOUND = 1e-12     # largest crossing probability a settled trial may keep


@dataclass(frozen=True)
class MtjParams:
    """Device stack parameters on top of the free-layer dynamics."""

    device: DeviceParams
    theta_sh: float = 0.3       # heavy-metal spin Hall efficiency
    equil_steps: int = 40       # zero-current steps before the pulse: 10 ps at
                                # the default dt; a config setting dt_s sets it too
    relax_time: float = 3e-10   # field-only window after the pulse, s

    def __post_init__(self):
        if not (0 < self.theta_sh <= 1):
            raise DomainError("theta_sh must be in (0, 1]")
        if not (self.equil_steps >= 0 and 0 <= self.relax_time < math.inf):
            raise DomainError("relax_time must be finite and non-negative, "
                              "equil_steps non-negative")


def default_mtj_params(T: float = 300.0) -> MtjParams:
    """Shipped default stack: default free layer, theta_sh 0.3."""
    return MtjParams(device=default_device_params(T=T))


@dataclass
class SwitchingCurve:
    """Monte Carlo switching-probability estimates over a current sweep."""

    currents: np.ndarray        # charge currents, A, strictly increasing
    p_hat: np.ndarray
    trials: np.ndarray          # trials per point
    ci_halfwidth: np.ndarray    # 95% normal-approximation halfwidths

    def __post_init__(self):
        p = np.asarray(self.p_hat, dtype=float)
        if not (np.all(np.isfinite(self.currents)) and np.all((p >= 0.0) & (p <= 1.0))
                and np.all(np.asarray(self.trials) > 0)):
            raise FitDomainError(f"a switching curve needs finite currents, p_hat "
                                 f"in [0, 1] and positive trials, got {self}")

    def to_csv(self, path):
        write_csv(path, ("current_A", "p_hat", "trials", "ci_halfwidth"),
                  [(float(i), float(p), int(n), float(ci)) for i, p, n, ci
                   in zip(self.currents, self.p_hat, self.trials, self.ci_halfwidth)])


def sigmoid(x):
    """The logistic 1/(1+exp(-x)): a neuron's firing probability, and the
    shape of the switching curve.  Each step runs in place on one copy of
    x, so a block needs twice its size at most; the bits are those of
    1.0 / (1.0 + np.exp(-x))."""
    p = np.array(x, dtype=float)
    np.negative(p, out=p)
    np.exp(p, out=p)
    np.add(1.0, p, out=p)
    return np.divide(1.0, p, out=p)[()]


@dataclass(frozen=True)
class SigmoidFit:
    """Two-parameter logistic p(I) = 1/(1+exp(-a (I - b)))."""

    a: float                    # slope, 1/A
    b: float                    # offset current, A
    r_squared: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.r_squared))):
            raise DomainError(f"a sigmoid fit needs finite a, b and r_squared, "
                              f"got {self}")

    def predict(self, current):
        return sigmoid(self.a * (np.asarray(current, float) - self.b))

    def to_json(self, path):
        write_json(path, asdict(self))


def _crossing_bound(device, duration):
    """Brown's bound erfc(z*/(2 sqrt(h' T))) = 2 Phi(-z*/sqrt(2 h' T)) on the
    chance that mz falls from z* = _SETTLE_Z to 0 within T = duration, the
    drift being non-negative on [0, z*]; 0 without noise."""
    a = device.alpha
    ht = (GAMMA * a * K_B * device.T / ((1.0 + a * a) * MU_0 * device.Ms * device.V)
          * duration)
    return 0.0 if ht == 0.0 else math.erfc(_SETTLE_Z / (2.0 * math.sqrt(ht)))


def _settle_margin(device, spin_currents, duration):
    """_SETTLE_Z when a trial that reaches it within `duration` of the end
    is settled: Hd = 0, no negative spin current, Delta (1 - z*^2) >= 1 and
    a crossing bound of at most _SETTLE_BOUND; else None."""
    z = _SETTLE_Z
    if (device.Hd == 0.0 and np.all(spin_currents >= 0.0)
            # Delta (1 - z*^2) >= 1, times 2 kT so that T = 0 divides by nothing
            and MU_0 * device.Ms * device.V * device.Hk * (1.0 - z * z)
            >= 2.0 * K_B * device.T
            and _crossing_bound(device, duration) <= _SETTLE_BOUND):
        return z
    return None


def _switched(currents, seeds, n, pulse_width, params, start, stop):
    """Switched flags of flat trials start..stop-1, trial j % n of point
    j // n each, at currents[point] on a substream of seeds[point].  After
    the equilibration, the pulse and the relax window run _SETTLE_STEPS
    steps a call; under a settle margin z* a check after each call drops
    the trials with mz >= z* in the pulse (switched) and, from the pulse's
    end on, those with |mz| >= z* (switched if mz > 0)."""
    points, trials = np.divmod(np.arange(start, stop), n)
    m0 = np.tile([math.sin(_START_TILT), 0.0, -math.cos(_START_TILT)], (len(points), 1))
    rngs = list(derive_rngs(seeds[points], "switch-trial", trials))
    dev = params.device
    phases = _pulse_phases(pulse_width, params.theta_sh * currents[points],
                           params.relax_time, dev.dt)
    z = _settle_margin(dev, params.theta_sh * currents,
                       sum(steps for steps, _ in phases) * dev.dt)
    m = _integrate(m0, [(params.equil_steps, 0.0)], dev, rngs)[0]
    live = np.arange(len(points))       # the trials not yet settled, in order
    switched = np.zeros(len(points), dtype=bool)
    for k, (steps, isz) in enumerate(phases):
        for done in range(0, steps, _SETTLE_STEPS):
            if not len(live):
                break
            run = min(_SETTLE_STEPS, steps - done)
            cur = isz[live] if k == 0 else isz     # the relax window's is 0.0
            m = _integrate(m, [(run, cur)], dev, [rngs[i] for i in live])[0]
            if z is not None:
                mz = m[:, 2]
                in_pulse = k == 0 and done + _SETTLE_STEPS < steps
                settled = mz >= z if in_pulse else np.abs(mz) >= z
                switched[live[settled]] = mz[settled] > 0.0
                live, m = live[~settled], m[~settled]
    switched[live] = m[:, 2] > 0.0
    return switched


def sweep_switching_curve(currents, pulse_width: float, trials_per_point: int,
                          params: MtjParams, seed: int,
                          workers: int = 1) -> SwitchingCurve:
    """Fraction of seeded trials that switch at each current, with 95% CI
    halfwidths.  Point i's trials run on the seed derive_rng(seed,
    "sweep-point", i) draws; the points x trials, at most 2**63 - 1, run
    as the parallel_map slabs of one flat axis."""
    currents, n = np.asarray(currents, dtype=float), trials_per_point
    if len(currents) < 5:
        raise DomainError("need at least 5 sweep currents")
    if not np.all(np.isfinite(currents)):
        raise DomainError("charge currents must be finite")
    if not np.all(np.diff(currents) > 0):
        raise DomainError("sweep currents must be strictly increasing")
    if n < 1:
        raise DomainError("trials must be >= 1")
    if not params.device.dt <= pulse_width < math.inf:
        raise DomainError("pulse_width must be finite and at least one time-step")
    seeds = np.array([rng.integers(0, 2**63) for rng in
                      derive_rngs(seed, "sweep-point", np.arange(len(currents)))])
    switched = np.concatenate(parallel_map(
        partial(_switched, currents, seeds, n, pulse_width, params),
        len(currents) * n, _BATCH_TRIALS, workers))
    p_hat = np.count_nonzero(switched.reshape(-1, n), axis=1) / n
    return SwitchingCurve(currents, p_hat, np.full(len(currents), n),
                          1.96 * np.sqrt(p_hat * (1 - p_hat) / n))


def fit_stochastic_sigmoid(curve: SwitchingCurve) -> SigmoidFit:
    """Binomial maximum-likelihood logistic fit in (a, b) to the switch
    counts trials * p_hat: at most 100 Fisher-scoring (IRLS) steps on the
    standardised current from (0, 1), each halved until the negative
    log-likelihood does not rise.  r_squared is 1 - SSE/SST of p_hat."""
    I = np.asarray(curve.currents, dtype=float)
    p = np.asarray(curve.p_hat, dtype=float)
    if len(I) < 5 or p.min() >= 0.2 or p.max() <= 0.8:
        raise FitDomainError(
            "curve must have >= 5 points spanning p < 0.2 and p > 0.8")
    n = np.asarray(curve.trials, dtype=float)
    m, s = I.mean(), I.std()
    if not 0.0 < s < math.inf:      # subnormal currents' variance underflows
        raise FitDomainError(f"curve currents must have a finite, non-zero "
                             f"spread, got standard deviation {s}")
    X = np.column_stack([np.ones_like(I), (I - m) / s])

    def nll(beta):
        eta = X @ beta
        return float(n * p @ np.logaddexp(0.0, -eta)
                     + n * (1.0 - p) @ np.logaddexp(0.0, eta))

    beta = np.array([0.0, 1.0])
    cost = nll(beta)
    for _ in range(100):
        mu = sigmoid(X @ beta)
        # lstsq, as separated data make this system singular to rounding
        step = np.linalg.lstsq(X.T @ (X * (n * mu * (1.0 - mu))[:, None]),
                               X.T @ (n * (p - mu)), rcond=None)[0]
        while (new := nll(beta + step)) > cost:
            step /= 2.0
        # the likelihood's relative change is 1 - exp(new - cost)
        beta, cost, gain = beta + step, new, cost - new
        if gain < 1e-12:
            break
    else:
        raise ConvergenceError("logistic fit did not converge in 100 steps")
    a, b = beta[1] / s, m - beta[0] * s / beta[1]
    if a <= 0:
        raise ConvergenceError("logistic fit produced a non-positive slope")
    r = sigmoid(a * (I - b)) - p
    ss_tot = float(np.sum((p - p.mean()) ** 2))
    r2 = 1.0 - float(r @ r) / ss_tot if ss_tot > 0 else 1.0
    return SigmoidFit(a=float(a), b=float(b), r_squared=r2)
