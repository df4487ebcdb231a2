"""Polar encoding, BPSK/AWGN channel, and successive-cancellation decoding.

Index convention: natural order throughout (no bit-reversal).  The
encoder applies the [[1,0],[1,1]] kernel by in-place butterflies; the SC
decoder uses the exact check-node rule in its numerically safe log form,
skips rate-0 (all-frozen) subtrees bit-exactly and holds a block of frames
position-major, (N, frames), as batched software decoders do (Le Gal et
al., IEEE TSP 2015).  Its check node runs on numpy's vectorised exp and
log1p, so an LLR may differ from np.logaddexp's by an ulp, which decides a
bit only at a near-tie of rounding size (with numpy 2.4's AVX-512 loops:
seen on random and rate-1 masks, not on designed ones; other dispatches
are unmeasured).  Ties decode to bit 0.  Encoders take one word (N,)
or a block (..., N); generate_frames returns a block of channel LLRs
(positive favours bit 0), and both decoders take LLR arrays (..., N) and
return the decoded message bits (..., K).
"""

from dataclasses import dataclass
from functools import partial
import json
import math
import time

import numpy as np

from .errors import DomainError, FormatError, ShapeError, malformed_as_format_error
from .formats import write_csv, write_json
from .network import DETERMINISTIC, NetworkModel, forward, forward_rate
# derive_rng is unused here but stays bound: perfbench traces it per module
from .rngtools import derive_rng, derive_rngs, parallel_map

FRAME_BLOCK = 512    # ber_experiment frames that earn a worker process
_MAX_BLOCK = 1024    # frames in one ber_experiment block; bounds its memory

__all__ = ["PolarCodeSpec", "construct_frozen_set", "polar_transform",
           "encode", "generate_frames", "sc_decode", "llr_features",
           "neural_sc_decode", "ber_experiment", "write_ber_csv",
           "write_timing_csv"]


@dataclass(frozen=True)
class PolarCodeSpec:
    N: int
    K: int
    frozen: np.ndarray           # bool mask, True = frozen (forced to 0)
    design_snr_db: float = 0.0

    def __post_init__(self):
        if self.N < 1 or (self.N & (self.N - 1)) != 0:
            raise DomainError(f"N must be a power of 2, got {self.N}")
        frozen = np.asarray(self.frozen, dtype=bool)
        frozen.setflags(write=False)
        object.__setattr__(self, "frozen", frozen)
        if frozen.shape != (self.N,):
            raise ShapeError("frozen mask length must equal N")
        if int(np.count_nonzero(~frozen)) != self.K:
            raise DomainError("frozen mask does not leave K information positions")

    @property
    def rate(self) -> float:
        return self.K / self.N

    def to_json(self, path):
        write_json(path, {"N": self.N, "K": self.K,
                          "design_snr_db": self.design_snr_db,
                          "frozen_mask": self.frozen.astype(int).tolist()})

    @classmethod
    def from_json(cls, path) -> "PolarCodeSpec":
        """Read a to_json file; a malformed one raises FormatError."""
        with malformed_as_format_error(f"code spec {path}"):
            with open(path) as fh:
                doc = json.load(fh)
            N, K, snr = doc["N"], doc["K"], doc.get("design_snr_db", 0.0)
            # bool is an int subclass, and no JSON number
            if not (type(N) is type(K) is int and type(snr) in (int, float)
                    and math.isfinite(snr)):
                raise FormatError(f"code spec {path} needs integer N and K and a "
                                  f"finite number as design_snr_db")
            return cls(N=N, K=K, frozen=np.asarray(doc["frozen_mask"], dtype=bool),
                       design_snr_db=snr)


def construct_frozen_set(N: int, K: int, design_snr_db: float = 0.0) -> PolarCodeSpec:
    """Bhattacharyya BEC-surrogate construction, natural order.

    z0 = exp(-snr_linear); each polarization level maps z to the pair
    (2z - z^2, z^2); the N-K least reliable (largest-z) indices are
    frozen, ties freezing the lower index first.  z is carried as log z:
    from about 28 dB, z underflows to 0 and every index would tie.  An
    index squared k times has log z = -snr_linear 2^k + q log 2, q in
    [0, N) its log(2 - z) terms in units of log 2, each doubled by the
    later squarings.  So from snr_linear >= N log 2 on, z falls with k and,
    within one k, rises with q: the order is (k, -q) exactly, where float
    log z loses q to rounding (from about 150 dB at N = 16).
    """
    if N < 1 or (N & (N - 1)) != 0:
        raise DomainError(f"N must be a power of 2, got {N}")
    if K > N:
        raise DomainError("K must not exceed N")
    if K < 0:
        raise DomainError("K must be non-negative")
    if not -math.inf < design_snr_db <= 3000.0:    # 10 ** 308.3 overflows
        raise DomainError(f"design SNR must be finite and at most 3000 dB, "
                          f"got {design_snr_db}")
    snr = 10.0 ** (design_snr_db / 10.0)
    lz, k, q = np.array([-snr]), np.zeros(1), np.zeros(1)
    while lz.size < N:     # log(2z - z^2) = log z + log(2 - z), log z^2
        t = np.log1p(-np.expm1(lz))
        lz = np.column_stack([lz + t, 2.0 * lz]).ravel()
        k = np.column_stack([k, k + 1.0]).ravel()
        q = np.column_stack([q + t / math.log(2.0), 2.0 * q]).ravel()
    by_z = (-q, k) if snr >= N * math.log(2.0) else (-lz,)
    order = np.lexsort((np.arange(N),) + by_z)  # by descending z, then index
    frozen = np.zeros(N, dtype=bool)
    frozen[order[:N - K]] = True
    return PolarCodeSpec(N=N, K=K, frozen=frozen, design_snr_db=design_snr_db)


def polar_transform(u) -> np.ndarray:
    """x = u F^(x)n over GF(2) via in-place butterflies (natural order),
    along the last axis of u: one word (N,) or a block of words (..., N)."""
    x = np.array(u, dtype=np.uint8, order="C")
    N = x.shape[-1] if x.ndim else 0
    if N < 1 or (N & (N - 1)) != 0:
        raise ShapeError("transform length must be a power of 2")
    h = 1
    while h < N:
        pairs = x.reshape(x.shape[:-1] + (N // (2 * h), 2, h))
        pairs[..., 0, :] ^= pairs[..., 1, :]
        h *= 2
    return x


def encode(message, spec: PolarCodeSpec) -> np.ndarray:
    """Place messages (..., K) at the non-frozen u positions and transform
    to codewords (..., N)."""
    message = np.asarray(message, dtype=np.uint8)
    if message.shape[-1:] != (spec.K,):
        raise ShapeError(f"message length must be {spec.K}")
    u = np.zeros(message.shape[:-1] + (spec.N,), dtype=np.uint8)
    u[..., ~spec.frozen] = message
    return polar_transform(u)


def _noise_variance(snr_db, rate):
    """BPSK noise variance per dimension at Eb/N0 = snr_db dB."""
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (float(snr_db) / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma2 = math.nan
    if not 0.0 < sigma2 < math.inf:       # also rejects NaN
        raise DomainError(f"Eb/N0 {snr_db} dB at code rate {rate} gives no "
                          f"positive, finite noise variance")
    return sigma2


def generate_frames(spec: PolarCodeSpec, seed: int, tags, frames, snrs_db):
    """Messages (F, K), channel LLRs (F, N) and frame seeds (F,) for the F
    frame indices in `frames`, frame i sent by BPSK over AWGN at Eb/N0
    snrs_db[i].  Frame f draws its message, then its unit-variance noise,
    then the seed a stochastic decoder uses for it from its own substream
    derive_rng(seed, *tags, f), a tag array naming one value per frame:
    its values depend neither on its block nor on whether the seed is used.

    The message and seed are rng.integers(0, 2, K) and
    rng.integers(0, 2**63), read straight from PCG64's 64-bit words: message
    bits 2i and 2i + 1 are bits 31 and 63 of word i (integers takes a
    32-bit value per bit, low half first, and keeps its top bit), and the
    seed is a word shifted right by one.  numpy's bounded (Lemire) draw
    keeps the high bits of value * range and never rejects at these two
    ranges, so the values are the same; for odd K, integers leaves the last
    word's high half buffered, which no later 64-bit draw reads."""
    if len(snrs_db) != len(frames):
        raise ShapeError("need one Eb/N0 per frame")
    variance = {s: _noise_variance(s, spec.rate) for s in dict.fromkeys(snrs_db)}
    sigma2 = np.array([variance[s] for s in snrs_db])[:, None]
    words = np.empty((len(frames), -(-spec.K // 2)), dtype=np.uint64)
    noise = np.empty((len(frames), spec.N))
    frame_seeds = np.empty(len(frames), dtype=np.int64)
    for j, rng in enumerate(derive_rngs(seed, *tags, frames)):
        words[j] = rng.bit_generator.random_raw(words.shape[1])
        rng.standard_normal(out=noise[j])
        frame_seeds[j] = rng.bit_generator.random_raw() >> 1
    bits = (words[:, :, None] >> np.array([31, 63], dtype=np.uint64)) & np.uint64(1)
    messages = bits.reshape(len(frames), 2 * words.shape[1])[:, :spec.K]
    messages = messages.astype(np.uint8)
    del words, bits      # freed before the LLR arrays: lowers the memory peak
    llrs = 2.0 * (1.0 - 2.0 * encode(messages, spec).astype(float)
                  + np.sqrt(sigma2) * noise) / sigma2
    return messages, llrs, frame_seeds


def _logaddexp(x, y):
    """np.logaddexp(x, y) as max(x, y) + log1p(exp(min(x, y) - max(x, y))),
    on numpy's vectorised exp and log1p, not np.logaddexp's scalar loop: its
    special cases keep np.logaddexp's bits and floating-point warnings, other
    values may differ by an ulp."""
    m = np.maximum(x, y)
    t = np.minimum(x, y)
    with np.errstate(invalid="ignore"):         # x = y = ±inf: inf - inf
        np.subtract(t, m, out=t)
    # -|x - y|, whose NaN for x = y = ±inf is read as 0, so that m + log 2 = m
    t = np.fmin(t, 0.0, out=t)
    return np.add(m, np.log1p(np.exp(t, out=t), out=t), out=t)


def _sc_recurse(llr, info, lo=0):
    """SC over position-major (n, frames) LLRs of u positions lo..lo+n-1,
    info[i] counting the information positions below i; returns (u, x),
    both (n, frames).  A rate-0 (all-frozen) node gives zeros, so the LLRs
    it would get are not computed: after a rate-0 left half, g = b + a."""
    n = llr.shape[0]
    if info[lo] == info[lo + n]:
        u = np.zeros(llr.shape, dtype=np.uint8)
        return u, u
    if n == 1:
        u = np.logical_not(llr >= 0.0).astype(np.uint8)
        return u, u
    h = n // 2
    a, b = llr[:h], llr[h:]
    zero_left, zero_right = info[lo] == info[lo + h], info[lo + h] == info[lo + n]
    u_left, x_left = _sc_recurse(
        a if zero_left else _logaddexp(0.0, a + b) - _logaddexp(a, b), info, lo)
    g = (b if zero_right else b + a if zero_left
         else b + (1.0 - 2.0 * x_left.astype(float)) * a)
    u_right, x_right = _sc_recurse(g, info, lo + h)
    return (np.concatenate([u_left, u_right]),
            np.concatenate([x_left ^ x_right, x_right]))


def _llr_block(llrs, spec: PolarCodeSpec) -> np.ndarray:
    """A decoder's input LLRs (..., N) as floats, checked finite."""
    llr = np.asarray(llrs, dtype=float)
    if llr.shape[-1:] != (spec.N,):
        raise ShapeError(f"LLR length must be {spec.N}")
    if not np.isfinite(llr).all():
        raise DomainError("LLRs must be finite")
    return llr


def sc_decode(llrs, spec: PolarCodeSpec) -> np.ndarray:
    """Classical successive-cancellation decoding (llr >= 0 decodes to 0) of
    a block of frames at once, LLRs (..., N), to message bits (..., K)."""
    llr = _llr_block(llrs, spec)
    info = [0] + np.cumsum(~spec.frozen).tolist()
    u_hat, _ = _sc_recurse(llr.reshape(-1, spec.N).T.copy(), info)
    return u_hat[~spec.frozen].T.copy().reshape(llr.shape[:-1] + (spec.K,))


def llr_features(llrs) -> np.ndarray:
    """The neural decoder's inputs: LLRs squashed elementwise by tanh(llr/2)."""
    return np.tanh(np.asarray(llrs, dtype=float) / 2.0)


def neural_sc_decode(llrs, model: NetworkModel, spec: PolarCodeSpec,
                     window: int = 64, seed=0) -> np.ndarray:
    """One-shot dense decoder of LLRs (..., N) to message bits (..., K):
    llr_features, forward pass, outputs thresholded at 0.5 (0.5 decodes to
    bit 0).  A stochastic-firing model averages spikes over `window` passes
    first, with a seed per frame (seed has shape llrs.shape[:-1])."""
    llr = _llr_block(llrs, spec)
    if model.input_dim != spec.N or model.output_dim != spec.K:
        raise ShapeError("model dimensions do not match the code spec")
    x = llr_features(llr)
    y = (forward(model, x) if model.activation_mode == DETERMINISTIC
         else forward_rate(model, x, window, seed))
    return (y > 0.5).astype(np.uint8)


def _ber_shard(spec, snrs, min_frames, seed, models, window, start, stop):
    """Bit errors, frame errors and decode seconds (3, models, points) of
    flat frames start..stop-1, generated once as one block that every model
    decodes; the block's decode time is split by its points' frames."""
    points, frames = np.divmod(np.arange(start, stop), min_frames)
    messages, llrs, frame_seeds = generate_frames(
        spec, seed, ("ber", points), frames, [snrs[p] for p in points])
    share = np.bincount(points, minlength=len(snrs)) / len(points)
    totals = np.zeros((3, len(models), len(snrs)))
    for m, model in enumerate(models):
        t0 = time.perf_counter()
        decoded = (sc_decode(llrs, spec) if model is None else
                   neural_sc_decode(llrs, model, spec, window, frame_seeds))
        totals[2, m] = (time.perf_counter() - t0) * share
        errs = np.count_nonzero(decoded != messages, axis=1)
        totals[:2, m] = [np.bincount(points, e, len(snrs)) for e in (errs, errs > 0)]
    return totals


def ber_experiment(spec: PolarCodeSpec, snr_list, min_frames: int, seed: int,
                   models=(None,), window: int = 64, workers: int = 1) -> list:
    """Monte Carlo BER/FER per SNR point: one list of rows, ordered like
    snr_list, per entry of `models` (None runs SC, a NetworkModel the
    neural decoder), every decoder decoding the same frames.  Each frame
    draws its message and noise from a substream of (seed, point index,
    frame index), so results do not depend on worker count, scheduling or
    block size.  Flat frame j is frame j % min_frames of point
    j // min_frames; the flat axis runs as parallel_map blocks of at most
    _MAX_BLOCK frames, on at most one worker per FRAME_BLOCK frames."""
    if min_frames < 1:
        raise DomainError("min_frames must be >= 1")
    total = len(snr_list) * min_frames
    shard = partial(_ber_shard, spec, list(snr_list), min_frames, seed, models, window)
    totals = sum(parallel_map(shard, total, _MAX_BLOCK,
                              min(workers, -(-total // FRAME_BLOCK))),
                 np.zeros((3, len(models), len(snr_list))))
    per_model = zip(*totals[:2].astype(np.int64).tolist(), totals[2].tolist())
    return [[{"snr_db": snr, "frames": min_frames, "bit_errors": b,
              "frame_errors": f, "ber": b / (min_frames * spec.K),
              "fer": f / min_frames, "mean_decode_us": 1e6 * s / min_frames}
             for snr, b, f, s in zip(snr_list, *rows)] for rows in per_model]


def write_ber_csv(rows, path):
    """Deterministic results table (timing goes to the sidecar file)."""
    write_csv(path, ("snr_db", "frames", "bit_errors", "frame_errors", "ber", "fer"),
              [(float(r["snr_db"]), r["frames"], r["bit_errors"], r["frame_errors"],
                float(r["ber"]), float(r["fer"])) for r in rows])


def write_timing_csv(rows, path):
    write_csv(path, ("snr_db", "mean_decode_us"),
              [(float(r["snr_db"]), float(r["mean_decode_us"])) for r in rows])
