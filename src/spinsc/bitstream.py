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
    "mtj_rng_stream",
]


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

    @property
    def value(self) -> float:
        return decode(self)

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


def mtj_rng_stream(fit, bias_current: float, L: int, seed: int) -> BitStream:
    """Behavioral MTJ RNG: bits are 1 with the fitted switching probability
    at the bias current; bias at the fit offset gives exactly p = 0.5."""
    p = 0.5 if bias_current == fit.b else float(fit.predict(bias_current))
    return BitStream(_bernoulli_bits(p, L, seed, "mtj-rng"))
