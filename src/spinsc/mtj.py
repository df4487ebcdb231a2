"""MTJ device layer: Monte Carlo switching probability and the logistic
fit of the stochastic-sigmoid curve.

Switching trials start from the antiparallel state (-z) with a small
fixed tilt, equilibrate thermally for 10 ps (40 steps at the default dt),
then see the current pulse and a field-only relax window; a trial has
switched when its final mz sign differs from its initial sign.
A sweep steps all its points' trials as one batch, each trial with its
point's current and its own substream, cut into slabs of at most
_BATCH_TRIALS, equal to within a trial and as many for each worker.
"""

from dataclasses import asdict, dataclass
import math

import numpy as np

from .errors import ConvergenceError, DomainError, FitDomainError
from .formats import write_csv, write_json
from .llgs import DeviceParams, _integrate, _pulse_phases, default_device_params
# derive_rng is unused here but stays bound: perfbench traces it per module
from .rngtools import derive_rng, derive_rngs, parallel_map, worker_count

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


def _switched(job):
    """Switched flags of one slab: trial i of the point seeded s, at the
    charge current in the same place, for each (s, i) in keys."""
    currents, keys, pulse_width, params = job
    m0 = np.tile([math.sin(_START_TILT), 0.0, -math.cos(_START_TILT)], (len(keys), 1))
    seeds, trials = np.asarray(keys).T
    rngs = list(derive_rngs(seeds, "switch-trial", trials))
    phases = [(params.equil_steps, 0.0)] + _pulse_phases(
        pulse_width, params.theta_sh * currents, params.relax_time, params.device.dt)
    return _integrate(m0, phases, params.device, rngs)[0][:, 2] > 0.0


def sweep_switching_curve(currents, pulse_width: float, trials_per_point: int,
                          params: MtjParams, seed: int,
                          workers: int = 1) -> SwitchingCurve:
    """Fraction of seeded trials that switch at each current, with 95% CI
    halfwidths.  Point i's trials run on the seed derive_rng(seed,
    "sweep-point", i) draws, all points' trials stepped as slabs of one
    flat batch, as many per worker, equal to within a trial."""
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
    seeds = [rng.integers(0, 2**63)
             for rng in derive_rngs(seed, "sweep-point", np.arange(len(currents)))]
    keys = np.column_stack([np.repeat(seeds, n), np.tile(np.arange(n), len(seeds))])
    flat = np.repeat(currents, n)
    workers = min(worker_count(workers), len(keys))
    slabs = workers * -(-len(keys) // (workers * _BATCH_TRIALS))
    cuts = [len(keys) * s // slabs for s in range(slabs + 1)]
    switched = np.concatenate(parallel_map(_switched, [
        (flat[a:b], keys[a:b], pulse_width, params)
        for a, b in zip(cuts, cuts[1:])], workers))
    p_hat = np.count_nonzero(switched.reshape(-1, n), axis=1) / n
    ci = [1.96 * math.sqrt(p * (1.0 - p) / n) for p in p_hat.tolist()]
    return SwitchingCurve(currents=currents, p_hat=p_hat,
                          trials=np.full(len(currents), n), ci_halfwidth=np.array(ci))


def fit_stochastic_sigmoid(curve: SwitchingCurve) -> SigmoidFit:
    """Least-squares logistic fit in (a, b) by at most 200 steps of
    damped Gauss-Newton."""
    I = np.asarray(curve.currents, dtype=float)
    p = np.asarray(curve.p_hat, dtype=float)
    if len(I) < 5 or p.min() >= 0.2 or p.max() <= 0.8:
        raise FitDomainError(
            "curve must have >= 5 points spanning p < 0.2 and p > 0.8")

    # initial guess from a logit regression on the interior points
    interior = (p > 0.02) & (p < 0.98)
    if np.count_nonzero(interior) >= 2:
        logit = np.log(p[interior] / (1.0 - p[interior]))
        a0, c0 = np.polyfit(I[interior], logit, 1)
        if a0 <= 0:
            a0 = 1.0 / max(np.ptp(I), 1e-30)
        b0 = -c0 / a0
    else:
        b0 = float(np.interp(0.5, p, I))
        a0 = 4.0 / max(np.ptp(I) / len(I), 1e-30)

    a, b = float(a0), float(b0)
    lam = 1e-3

    def jacobian(a, b):         # of the logistic wrt (a, b)
        s = sigmoid(a * (I - b))
        w = s * (1.0 - s)
        return np.column_stack([w * (I - b), -a * w])

    r = sigmoid(a * (I - b)) - p
    cost = float(r @ r)
    converged = False
    for _ in range(200):
        J = jacobian(a, b)
        g = J.T @ r
        H = J.T @ J
        step = np.linalg.solve(H + lam * np.diag(np.diag(H) + 1e-300), -g)
        a_new, b_new = a + step[0], b + step[1]
        r_new = sigmoid(a_new * (I - b_new)) - p
        cost_new = float(r_new @ r_new)
        if cost_new <= cost:
            rel = abs(cost - cost_new) / max(cost, 1e-300)
            a, b, r, cost = a_new, b_new, r_new, cost_new
            lam = max(lam * 0.3, 1e-12)
            if rel < 1e-14 or float(np.abs(step).max()) < 1e-14 * max(abs(a), abs(b)):
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    else:
        converged = cost <= 1e-20 or float(np.abs(g).max()) < 1e-12
    if not converged and cost > 1e-20:
        # accept if the gradient is numerically flat, else report failure
        if float(np.abs(jacobian(a, b).T @ r).max()) > 1e-9:
            raise ConvergenceError("logistic fit did not converge")
    if a <= 0:
        raise ConvergenceError("logistic fit produced a non-positive slope")
    ss_tot = float(np.sum((p - p.mean()) ** 2))
    r2 = 1.0 - cost / ss_tot if ss_tot > 0 else 1.0
    return SigmoidFit(a=a, b=b, r_squared=r2)
