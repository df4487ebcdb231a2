"""Stochastic-computing bitstreams.

A stream of L independent bits encodes a probability as its fraction of
ones (unipolar: value = ones/L in [0, 1]).  Multiplication is a bitwise
AND; scaled addition selects between operands with a 0.5-probability MUX
stream.  Streams are built from counter-based (Philox) substreams so
operands stay independent by construction.
"""

from dataclasses import dataclass
import struct

import numpy as np

from .errors import DomainError, FormatError, ShapeError
from .rngtools import derive_philox

__all__ = [
    "BitStream",
    "encode",
    "decode",
    "multiply_and",
    "scaled_add_mux",
    "and_mux_table",
    "mtj_rng_stream",
]

_CHUNK = 1 << 16    # uniforms and_mux_table draws per stream at a time; bounds memory


@dataclass(frozen=True)
class BitStream:
    """Immutable fixed-length unipolar binary sequence."""

    bits: np.ndarray            # uint8 array of 0/1

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size < 1:
            raise ShapeError("bits must be a non-empty 1-D sequence")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return self.bits.size

    def to_bytes(self) -> bytes:
        """Packed binary: 8-byte header (u32 length, u8 flag 0, 3 pad) + bits."""
        if self.bits.size > 0xFFFFFFFF:
            raise FormatError(f"{self.bits.size} bits do not fit the u32 "
                              f"length header")
        header = struct.pack("<IB3x", self.bits.size, 0)
        return header + np.packbits(self.bits).tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BitStream":
        if len(blob) < 8:
            raise FormatError("bitstream blob is shorter than its 8-byte header")
        length, flag = struct.unpack_from("<IB3x", blob)
        if flag != 0:
            raise FormatError(f"unknown bitstream encoding flag {flag}")
        if len(blob) - 8 != (length + 7) // 8:
            raise FormatError(f"bitstream payload is {len(blob) - 8} bytes; "
                              f"{length} bits need {(length + 7) // 8}")
        bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, offset=8))[:length]
        return cls(bits)


def _bernoulli_bits(p: float, L: int, seed: int, tag: str) -> np.ndarray:
    """L bits, each 1 with probability p, from the Philox substream `tag`."""
    if L < 1:
        raise DomainError("stream length must be >= 1")
    return (derive_philox(seed, tag).random(L) < p).astype(np.uint8)


def encode(p: float, L: int, seed: int) -> BitStream:
    """Unipolar stream: each bit independently 1 with probability p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p} outside [0, 1]")
    return BitStream(_bernoulli_bits(p, L, seed, "bitstream"))


def decode(stream: BitStream) -> float:
    """Exact decoded value: ones-count / L."""
    return float(np.count_nonzero(stream.bits)) / len(stream)


def _check_lengths(*streams):
    lengths = {len(s) for s in streams}
    if len(lengths) != 1:
        raise ShapeError(f"stream lengths differ: {sorted(lengths)}")


def multiply_and(a: BitStream, b: BitStream) -> BitStream:
    """Product: bitwise AND; E[out] = p*q for independent inputs."""
    _check_lengths(a, b)
    return BitStream(a.bits & b.bits)


def scaled_add_mux(a: BitStream, b: BitStream, select: BitStream) -> BitStream:
    """MUX addition: out_i = a_i if select_i else b_i; E[out] = (p+q)/2
    when the select stream has probability 0.5."""
    _check_lengths(a, b, select)
    return BitStream(np.where(select.bits != 0, a.bits, b.bits).astype(np.uint8))


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


def mtj_rng_stream(fit, bias_current: float, L: int, seed: int) -> BitStream:
    """Behavioral MTJ RNG: bits are 1 with the fitted switching probability
    at the bias current; bias at the fit offset gives exactly p = 0.5."""
    return BitStream(_bernoulli_bits(float(fit.predict(bias_current)), L, seed,
                                     "mtj-rng"))
