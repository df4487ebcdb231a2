import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsc import bitstream
from spinsc.bitstream import (BitStream, and_mux_table, decode, encode,
                              multiply_and, mtj_rng_stream, scaled_add_mux)
from spinsc.errors import DomainError, FormatError, ShapeError, SpinscError
from spinsc.mtj import SigmoidFit
from spinsc.rngtools import derive_philox


class TestEncodeDecode:
    def test_degenerate_zero(self):
        for seed in (0, 1, 99):
            assert not np.any(encode(0.0, 256, seed).bits)

    def test_degenerate_one(self):
        for seed in (0, 1, 99):
            assert np.all(encode(1.0, 256, seed).bits)

    def test_out_of_range_probability(self):
        with pytest.raises(DomainError):
            encode(1.2, 16, 0)
        with pytest.raises(DomainError):
            encode(-0.1, 16, 0)

    def test_decode_is_ones_fraction(self):
        s = BitStream(np.array([1, 0, 1, 1], dtype=np.uint8))
        assert decode(s) == 0.75

    def test_concentration(self):
        L = 1_000_000
        v = decode(encode(0.3, L, 7))
        assert abs(v - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / L)

    def test_seed_determinism(self):
        a = encode(0.37, 4096, 5)
        b = encode(0.37, 4096, 5)
        assert np.array_equal(a.bits, b.bits)


class TestMultiplyAnd:
    def test_all_ones_identity(self):
        a = encode(1.0, 512, 1)
        b = encode(0.4, 512, 2)
        assert decode(multiply_and(a, b)) == decode(b)

    def test_all_zeros_annihilates(self):
        a = encode(0.0, 512, 1)
        b = encode(0.7, 512, 2)
        assert decode(multiply_and(a, b)) == 0.0

    def test_independent_product(self):
        L = 1_000_000
        v = decode(multiply_and(encode(0.5, L, 10), encode(0.5, L, 11)))
        assert abs(v - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / L)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            multiply_and(encode(0.5, 64, 0), encode(0.5, 128, 1))

    @given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
    @settings(max_examples=25, deadline=None)
    def test_commutative_associative(self, s1, s2, s3):
        a = encode(0.3, 128, s1)
        b = encode(0.6, 128, s2)
        c = encode(0.9, 128, s3)
        assert np.array_equal(multiply_and(a, b).bits, multiply_and(b, a).bits)
        assert np.array_equal(multiply_and(multiply_and(a, b), c).bits,
                              multiply_and(a, multiply_and(b, c)).bits)


class TestScaledAddMux:
    def test_identical_inputs_pass_through(self):
        a = encode(0.35, 1024, 4)
        sel = encode(0.5, 1024, 5)
        assert decode(scaled_add_mux(a, a, sel)) == decode(a)

    def test_degenerate_select_all_ones(self):
        a = encode(0.2, 1024, 1)
        b = encode(0.8, 1024, 2)
        sel = encode(1.0, 1024, 3)
        assert np.array_equal(scaled_add_mux(a, b, sel).bits, a.bits)

    def test_expectation(self):
        L = 1_000_000
        a = encode(0.2, L, 21)
        b = encode(0.8, L, 22)
        sel = encode(0.5, L, 23)
        v = decode(scaled_add_mux(a, b, sel))
        # per-bit output is Bernoulli((p+q)/2) exactly
        assert abs(v - 0.5) <= 3 * math.sqrt(0.25 / L)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            scaled_add_mux(encode(0.5, 64, 0), encode(0.5, 64, 1),
                           encode(0.5, 32, 2))


def stream_table(values, L, sa, sb, ss):
    """and_mux_table's oracle: decode the AND and MUX of encoded streams."""
    sel = encode(0.5, L, ss)
    return np.array([[(decode(multiply_and(encode(p, L, sa), encode(q, L, sb))),
                       decode(scaled_add_mux(encode(p, L, sa), encode(q, L, sb), sel)))
                      for q in values] for p in values])


class TestAndMuxTable:
    @pytest.mark.parametrize("values, L, chunk", [
        ([0.1, 0.5, 0.9], 3 * 4096 + 5, 4096),      # L not a multiple of chunk
        ([0.3, 0.7, 0.3, 0.3], 1000, 4096),        # repeated values, L < chunk
        ([0.0, 1.0, 0.5], 777, 100),               # the degenerate values
        ([0.42], 5000, 1 << 16),                   # a single value
        ([0.2, 0.8], 1, 1 << 16),                  # L = 1
        ([0.6, 0.2, 0.6], 1 << 17, 1 << 16),       # whole chunks, default size
        ([0.1, 0.5, 0.9], 200_003, 1 << 16),       # default size, not dividing L
    ])
    def test_equals_decoded_streams(self, values, L, chunk, monkeypatch):
        monkeypatch.setattr(bitstream, "_CHUNK", chunk)
        got = and_mux_table(values, L, 11, 12, 13)
        assert got.shape == (len(values), len(values), 2)
        assert np.array_equal(got, stream_table(values, L, 11, 12, 13))

    @given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0]), min_size=1,
                    max_size=4),
           st.integers(1, 300), st.integers(1, 64), st.integers(0, 2 ** 32))
    @settings(max_examples=25, deadline=None)
    def test_equals_decoded_streams_random(self, values, L, chunk, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bitstream, "_CHUNK", chunk)
            got = and_mux_table(values, L, seed, seed + 1, seed + 2)
        assert np.array_equal(got, stream_table(values, L, seed, seed + 1, seed + 2))

    @pytest.mark.parametrize("values, L", [([0.5, 1.2], 16), ([-0.1], 16),
                                           ([float("nan")], 16), ([0.5], 0)])
    def test_bad_input_rejected(self, values, L):
        with pytest.raises(DomainError):
            and_mux_table(values, L, 1, 2, 3)


class TestMtjRng:
    fit = SigmoidFit(a=1e4, b=1.5e-3, r_squared=0.99)

    def test_midpoint_is_half(self):
        L = 1_000_000
        v = decode(mtj_rng_stream(self.fit, self.fit.b, L, 8))
        assert abs(v - 0.5) <= 3 * math.sqrt(0.25 / L)

    @pytest.mark.parametrize("a, b", [(1e4, 1.5e-3), (9359.17, 1.4753e-3),
                                      (1e-3, -2.0), (1e12, 7e-9)])
    def test_bias_at_offset_thresholds_at_half(self, a, b):
        """Biased at the fit offset, the bits are the "mtj-rng" draws below
        0.5 exactly, for any finite slope and offset."""
        bits = mtj_rng_stream(SigmoidFit(a=a, b=b, r_squared=1.0), b, 4096, 5).bits
        assert np.array_equal(bits, derive_philox(5, "mtj-rng").random(4096) < 0.5)

    def test_deep_tail_is_zero(self):
        bias = self.fit.b - 100.0 / self.fit.a
        v = decode(mtj_rng_stream(self.fit, bias, 1_000_000, 8))
        assert v <= 1e-6

    def test_reproducible(self):
        a = mtj_rng_stream(self.fit, self.fit.b, 4096, 3)
        b = mtj_rng_stream(self.fit, self.fit.b, 4096, 3)
        assert np.array_equal(a.bits, b.bits)


class TestSerialization:
    @given(st.integers(0, 2 ** 32), st.sampled_from([1, 7, 64, 1000]))
    @settings(max_examples=20, deadline=None)
    def test_round_trip(self, seed, L):
        s = encode(0.31, L, seed)
        back = BitStream.from_bytes(s.to_bytes())
        assert np.array_equal(back.bits, s.bits)

    def test_wire_bytes_pinned(self):
        # u32 length 21, flag 0, 3 pad bytes, then the 21 bits packed MSB first
        blob = bytes.fromhex("150000000000000094cd50")
        assert encode(0.5, 21, 3).to_bytes() == blob
        assert np.array_equal(BitStream.from_bytes(blob).bits,
                              [1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1,
                               0, 1, 0, 1, 0])

    def test_bits_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(BitStream)] == ["bits"]

    def test_header_is_eight_bytes(self):
        s = encode(0.5, 8, 0)
        assert len(s.to_bytes()) == 8 + 1

    def test_truncated_payload_rejected(self):
        blob = encode(0.5, 64, 0).to_bytes()
        with pytest.raises(FormatError, match="64 bits need 8"):
            BitStream.from_bytes(blob[:9])

    @pytest.mark.parametrize("flag", [1, 7], ids=["former-bipolar", "7"])
    def test_unknown_flag_rejected(self, flag):
        blob = bytearray(encode(0.5, 8, 0).to_bytes())
        blob[4] = flag
        with pytest.raises(FormatError, match=f"flag {flag}"):
            BitStream.from_bytes(bytes(blob))

    def test_length_beyond_header_rejected(self):
        # a zero-stride view: 2**32 bits without allocating them
        s = BitStream(np.broadcast_to(np.zeros(1, np.uint8), (2 ** 32,)))
        with pytest.raises(FormatError, match="u32"):
            s.to_bytes()
        assert issubclass(FormatError, SpinscError)
