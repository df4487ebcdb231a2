"""Stochastic-computing bitstreams.

A stream of L independent bits encodes a probability as its fraction of
ones (unipolar: value = ones/L in [0, 1]).  Streams are plain uint8 arrays
of 0/1 of shape (..., L), one stream per leading index, and every op
broadcasts over the leading axes.  Multiplication is a bitwise AND;
scaled addition selects between operands with a 0.5-probability MUX
stream.  Streams are built from counter-based (Philox) substreams so
operands stay independent by construction.
"""

import numpy as np

from .errors import DomainError, ShapeError
from .rngtools import derive_philox

__all__ = [
    "encode",
    "decode",
    "multiply_and",
    "scaled_add_mux",
    "and_mux_table",
]

_CHUNK = 1 << 16    # uniforms and_mux_table draws per stream at a time; bounds memory


def encode(p, L: int, seed: int) -> np.ndarray:
    """(..., L) bits for probabilities p of shape (...): bit i of each stream
    is 1 when the i-th uniform of the seed's Philox substream is below its p,
    so the streams of one call share one draw."""
    p = np.asarray(p, dtype=np.float64)
    if L < 1 or not np.all((p >= 0.0) & (p <= 1.0)):     # NaN fails both
        raise DomainError(f"need L >= 1 and probabilities in [0, 1], got {L}, {p}")
    return (derive_philox(seed, "bitstream").random(L) < p[..., None]).view(np.uint8)


def decode(bits) -> np.ndarray:
    """Exact decoded values, ones-count / L along the last axis: shape (...)
    for (..., L) bits.  Each row is counted flat, which for long streams is
    several times faster than a count along an axis."""
    bits = np.asarray(bits)
    if bits.ndim < 1 or bits.shape[-1] < 1:
        raise ShapeError(f"need bits of shape (..., L) with L >= 1, got {bits.shape}")
    L = bits.shape[-1]
    ones = [np.count_nonzero(row) for row in bits.reshape(-1, L)]
    return (np.array(ones) / L).reshape(bits.shape[:-1])[()]


def _check_lengths(*streams):
    lengths = {np.shape(s)[-1] for s in streams}
    if len(lengths) != 1:
        raise ShapeError(f"stream lengths differ: {sorted(lengths)}")


def multiply_and(a, b) -> np.ndarray:
    """Product: bitwise AND; E[out] = p*q for independent inputs."""
    _check_lengths(a, b)
    return np.bitwise_and(a, b)


def scaled_add_mux(a, b, select) -> np.ndarray:
    """MUX addition: out_i = a_i if select_i else b_i; E[out] = (p+q)/2
    when the select stream has probability 0.5.  On 0/1 bits this is the
    gate (a & s) | (b & ~s), about 30x faster than np.where on uint8."""
    _check_lengths(a, b, select)
    select = np.asarray(select)
    return (a & select) | (b & (select ^ 1))


def and_mux_table(values, L: int, seed_a: int, seed_b: int,
                  seed_sel: int) -> np.ndarray:
    """(V, V, 2) array of decode(multiply_and(a_j, b_k)) and decode(
    scaled_add_mux(a_j, b_k, sel)) for a_j = encode(values[j], L, seed_a),
    b_k = encode(values[k], L, seed_b), sel = encode(0.5, L, seed_sel).  All
    a_j threshold one draw (likewise b_k), so cumulative sums of one joint
    histogram of (rank of the a and b draws among the distinct values, sel
    bit) count every cell's ones; the draws go _CHUNK at a time."""
    if L < 1 or not all(0.0 <= p <= 1.0 for p in values):
        raise DomainError(f"need L >= 1 and values in [0, 1], got {L}, {values}")
    distinct, pos = np.unique(values, return_inverse=True)
    m = distinct.size + 1
    rngs = [derive_philox(s, "bitstream") for s in (seed_a, seed_b, seed_sel)]
    hist = np.zeros(2 * m * m, dtype=np.int64)
    for start in range(0, L, _CHUNK):
        u_a, u_b, u_s = (g.random(min(_CHUNK, L - start)) for g in rngs)
        rank_a, rank_b = (sum(u >= v for v in distinct) for u in (u_a, u_b))
        hist += np.bincount((rank_a * m + rank_b) * 2 + (u_s < 0.5), minlength=hist.size)
    C = hist.reshape(m, m, 2).cumsum(0).cumsum(1)
    ones = np.stack([C[:-1, :-1].sum(-1), C[:-1, -1:, 1] + C[-1:, :-1, 0]], -1)
    return ones[pos][:, pos] / L    # [..., 0]: a & b; [..., 1]: a & sel, plus b & ~sel
