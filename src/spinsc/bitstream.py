"""Stochastic-computing bitstreams.

A stream of L independent bits encodes a value as its fraction of ones:
unipolar value = ones/L in [0, 1]; bipolar value = 2*ones/L - 1 in
[-1, 1].  Multiplication is a bitwise AND (unipolar) or XNOR (bipolar);
scaled addition selects between operands with a 0.5-probability MUX
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
    "encode_bipolar",
    "decode",
    "multiply_and",
    "multiply_xnor",
    "scaled_add_mux",
    "mtj_rng_stream",
]

UNIPOLAR = "unipolar"
BIPOLAR = "bipolar"

_MAGIC_FLAGS = {UNIPOLAR: 0, BIPOLAR: 1}


@dataclass(frozen=True)
class BitStream:
    """Immutable fixed-length binary sequence with its encoding."""

    bits: np.ndarray            # uint8 array of 0/1
    encoding: str = UNIPOLAR

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size < 1:
            raise ShapeError("bits must be a non-empty 1-D sequence")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        if self.encoding not in _MAGIC_FLAGS:
            raise DomainError(f"unknown encoding {self.encoding!r}")

    def __len__(self) -> int:
        return self.bits.size

    @property
    def value(self) -> float:
        return decode(self)

    def to_bytes(self) -> bytes:
        """Packed binary: 8-byte header (u32 length, u8 flag, 3 pad) + bits."""
        if self.bits.size > 0xFFFFFFFF:
            raise FormatError(f"{self.bits.size} bits do not fit the u32 "
                              f"length header")
        header = struct.pack("<IB3x", self.bits.size, _MAGIC_FLAGS[self.encoding])
        return header + np.packbits(self.bits).tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BitStream":
        if len(blob) < 8:
            raise FormatError("bitstream blob is shorter than its 8-byte header")
        length, flag = struct.unpack_from("<IB3x", blob)
        encoding = {v: k for k, v in _MAGIC_FLAGS.items()}.get(flag)
        if encoding is None:
            raise FormatError(f"unknown bitstream encoding flag {flag}")
        if len(blob) - 8 != (length + 7) // 8:
            raise FormatError(f"bitstream payload is {len(blob) - 8} bytes; "
                              f"{length} bits need {(length + 7) // 8}")
        bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, offset=8))[:length]
        return cls(bits=bits, encoding=encoding)

    def hex_dump(self) -> str:
        return np.packbits(self.bits).tobytes().hex()


def _bernoulli_bits(p: float, L: int, seed: int, tag: str) -> np.ndarray:
    """L bits, each 1 with probability p, from the Philox substream `tag`."""
    if L < 1:
        raise DomainError("stream length must be >= 1")
    return (derive_philox(seed, tag).random(L) < p).astype(np.uint8)


def encode(p: float, L: int, seed: int) -> BitStream:
    """Unipolar stream: each bit independently 1 with probability p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p} outside [0, 1]")
    return BitStream(bits=_bernoulli_bits(p, L, seed, "bitstream"),
                     encoding=UNIPOLAR)


def encode_bipolar(v: float, L: int, seed: int) -> BitStream:
    """Bipolar stream for v in [-1, 1], one probability (v+1)/2."""
    if not -1.0 <= v <= 1.0:
        raise DomainError(f"bipolar value {v} outside [-1, 1]")
    return BitStream(bits=_bernoulli_bits((v + 1.0) / 2.0, L, seed, "bitstream"),
                     encoding=BIPOLAR)


def decode(stream: BitStream) -> float:
    """Exact decoded value: ones-count / L, mapped per the encoding."""
    frac = float(np.count_nonzero(stream.bits)) / len(stream)
    if stream.encoding == BIPOLAR:
        return 2.0 * frac - 1.0
    return frac


def _check_lengths(*streams):
    lengths = {len(s) for s in streams}
    if len(lengths) != 1:
        raise ShapeError(f"stream lengths differ: {sorted(lengths)}")


def multiply_and(a: BitStream, b: BitStream) -> BitStream:
    """Unipolar product: bitwise AND; E[out] = p*q for independent inputs."""
    _check_lengths(a, b)
    if a.encoding != UNIPOLAR or b.encoding != UNIPOLAR:
        raise DomainError("multiply_and requires unipolar streams")
    return BitStream(bits=a.bits & b.bits, encoding=UNIPOLAR)


def multiply_xnor(a: BitStream, b: BitStream) -> BitStream:
    """Bipolar product: bitwise XNOR; E[out] = v_a*v_b for independent inputs."""
    _check_lengths(a, b)
    if a.encoding != BIPOLAR or b.encoding != BIPOLAR:
        raise DomainError("multiply_xnor requires bipolar streams")
    return BitStream(bits=np.uint8(1) - (a.bits ^ b.bits), encoding=BIPOLAR)


def scaled_add_mux(a: BitStream, b: BitStream, select: BitStream) -> BitStream:
    """MUX addition: out_i = a_i if select_i else b_i; E[out] = (p+q)/2
    when the select stream has probability 0.5."""
    _check_lengths(a, b, select)
    if a.encoding != b.encoding:
        raise DomainError("operands must share an encoding")
    bits = np.where(select.bits != 0, a.bits, b.bits).astype(np.uint8)
    return BitStream(bits=bits, encoding=a.encoding)


def mtj_rng_stream(fit, bias_current: float, L: int, seed: int) -> BitStream:
    """Behavioral MTJ RNG: bits are 1 with the fitted switching probability
    at the bias current; bias at the fit offset gives exactly p = 0.5."""
    p = 0.5 if bias_current == fit.b else float(fit.predict(bias_current))
    return BitStream(bits=_bernoulli_bits(p, L, seed, "mtj-rng"),
                     encoding=UNIPOLAR)
