import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsc import bitstream
from spinsc.bitstream import (and_mux_table, decode, encode, multiply_and,
                              scaled_add_mux)
from spinsc.errors import DomainError, ShapeError
from spinsc.mtj import SigmoidFit
from spinsc.rngtools import derive_philox


class TestEncodeDecode:
    def test_degenerate_zero(self):
        for seed in (0, 1, 99):
            assert not np.any(encode(0.0, 256, seed))

    def test_degenerate_one(self):
        for seed in (0, 1, 99):
            assert np.all(encode(1.0, 256, seed))

    def test_out_of_range_probability(self):
        with pytest.raises(DomainError):
            encode(1.2, 16, 0)
        with pytest.raises(DomainError):
            encode(-0.1, 16, 0)

    def test_decode_is_ones_fraction(self):
        assert decode(np.array([1, 0, 1, 1], dtype=np.uint8)) == 0.75

    def test_concentration(self):
        L = 1_000_000
        v = decode(encode(0.3, L, 7))
        assert abs(v - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / L)

    def test_seed_determinism(self):
        a = encode(0.37, 4096, 5)
        b = encode(0.37, 4096, 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(5,), (2, 5)])
    def test_batched_equals_single(self, shape):
        """Each stream of one batched call has the bits of its own call."""
        ps = np.random.default_rng(3).random(shape)
        ps.flat[0], ps.flat[-1] = 0.0, 1.0
        bits = encode(ps, 333, 9)
        assert bits.shape == shape + (333,) and bits.dtype == np.uint8
        values = decode(bits)
        assert values.shape == shape
        for idx in np.ndindex(shape):
            assert np.array_equal(bits[idx], encode(ps[idx], 333, 9))
            assert values[idx] == decode(bits[idx]) == np.count_nonzero(bits[idx]) / 333

    @pytest.mark.parametrize("p", [float("nan"), [0.5, float("nan")],
                                   [[0.1], [1.5]]])
    def test_bad_probability_rejected(self, p):
        with pytest.raises(DomainError):
            encode(p, 16, 0)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), ()])
    def test_decode_of_no_bits_rejected(self, shape):
        with pytest.raises(ShapeError):
            decode(np.zeros(shape, dtype=np.uint8))


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

    def test_broadcastable_length_rejected(self):
        with pytest.raises(ShapeError):
            multiply_and(encode(0.5, 64, 0), encode(0.5, 1, 1))

    def test_outer_product_shape(self):
        values = [0.1, 0.5, 0.9, 0.3]
        a, b = encode(values, 100, 1), encode(values, 100, 2)
        out = multiply_and(a[:, None], b[None])
        assert out.shape == (4, 4, 100)
        assert np.array_equal(out[2, 1], multiply_and(a[2], b[1]))

    @given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
    @settings(max_examples=25, deadline=None)
    def test_commutative_associative(self, s1, s2, s3):
        a = encode(0.3, 128, s1)
        b = encode(0.6, 128, s2)
        c = encode(0.9, 128, s3)
        assert np.array_equal(multiply_and(a, b), multiply_and(b, a))
        assert np.array_equal(multiply_and(multiply_and(a, b), c),
                              multiply_and(a, multiply_and(b, c)))


class TestScaledAddMux:
    def test_identical_inputs_pass_through(self):
        a = encode(0.35, 1024, 4)
        sel = encode(0.5, 1024, 5)
        assert decode(scaled_add_mux(a, a, sel)) == decode(a)

    def test_degenerate_select_all_ones(self):
        a = encode(0.2, 1024, 1)
        b = encode(0.8, 1024, 2)
        sel = encode(1.0, 1024, 3)
        assert np.array_equal(scaled_add_mux(a, b, sel), a)

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
    """and_mux_table's oracle: decode the AND and MUX of encoded streams, the
    a streams as rows and the b streams as columns, one batched encode each."""
    a, b = encode(values, L, sa)[:, None], encode(values, L, sb)[None]
    return np.stack([decode(multiply_and(a, b)),
                     decode(scaled_add_mux(a, b, encode(0.5, L, ss)))], -1)


class TestAndMuxTable:
    @pytest.mark.parametrize("values, L, chunk", [
        ([0.1, 0.5, 0.9], 3 * 4096 + 5, 4096),      # L not a multiple of chunk
        ([0.3, 0.7, 0.3, 0.3], 1000, 4096),        # repeated values, L < chunk
        ([0.0, 1.0, 0.5], 777, 100),               # the degenerate values
        ([0.42], 5000, 1 << 16),                   # a single value
        ([0.2, 0.8], 1, 1 << 16),                  # L = 1
        ([0.6, 0.2, 0.6], 1 << 17, 1 << 16),       # whole chunks, larger size
        ([0.1, 0.5, 0.9], 200_003, 1 << 16),       # larger size, not dividing L
        ([0.6, 0.2, 0.6], 1 << 15, 1 << 14),       # whole chunks, default size
        ([0.1, 0.5, 0.9], 200_003, 1 << 14),       # default size, not dividing L
        (list(np.linspace(0.0, 1.0, 12)), 5000, 1 << 14),   # codes past uint8
        (list(np.linspace(0.0, 1.0, 200)), 300, 128),        # codes past uint16
    ])
    def test_equals_decoded_streams(self, values, L, chunk, monkeypatch):
        monkeypatch.setattr(bitstream, "_CHUNK", chunk)
        got = and_mux_table(values, L, 11, 12, 13)
        assert got.shape == (len(values), len(values), 2)
        assert np.array_equal(got, stream_table(values, L, 11, 12, 13))

    @given(st.integers(1, 24).flatmap(lambda n: st.lists(
               st.sampled_from(np.round(np.linspace(0.0, 1.0, 21), 2).tolist()),
               min_size=n, max_size=n)),
           st.integers(1, 300), st.integers(1, 64), st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_equals_decoded_streams_random(self, values, L, chunk, seed):
        """1 to 24 values from a pool of 21: a quarter or more of the
        examples hold over the 10 distinct values whose codes fit uint8."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bitstream, "_CHUNK", chunk)
            got = and_mux_table(values, L, seed, seed + 1, seed + 2)
        assert np.array_equal(got, stream_table(values, L, seed, seed + 1, seed + 2))

    @pytest.mark.parametrize("values, L", [([0.5, 1.2], 16), ([-0.1], 16),
                                           ([float("nan")], 16), ([0.5], 0)])
    def test_bad_input_rejected(self, values, L):
        with pytest.raises(DomainError):
            and_mux_table(values, L, 1, 2, 3)


def device_stream(fit, bias_current, L, seed):
    """A device-biased stream: bits 1 with the fitted switching probability
    at the bias current."""
    return encode(float(fit.predict(bias_current)), L, seed)


class TestMtjRng:
    fit = SigmoidFit(a=1e4, b=1.5e-3, r_squared=0.99)

    def test_midpoint_is_half(self):
        L = 1_000_000
        v = decode(device_stream(self.fit, self.fit.b, L, 8))
        assert abs(v - 0.5) <= 3 * math.sqrt(0.25 / L)

    @pytest.mark.parametrize("a, b", [(1e4, 1.5e-3), (9359.17, 1.4753e-3),
                                      (1e-3, -2.0), (1e12, 7e-9)])
    def test_bias_at_offset_thresholds_at_half(self, a, b):
        """Biased at the fit offset, the bits are the "bitstream" draws below
        0.5 exactly, for any finite slope and offset."""
        bits = device_stream(SigmoidFit(a=a, b=b, r_squared=1.0), b, 4096, 5)
        assert np.array_equal(bits, derive_philox(5, "bitstream").random(4096) < 0.5)

    def test_deep_tail_is_zero(self):
        bias = self.fit.b - 100.0 / self.fit.a
        v = decode(device_stream(self.fit, bias, 1_000_000, 8))
        assert v <= 1e-6

    def test_reproducible(self):
        a = device_stream(self.fit, self.fit.b, 4096, 3)
        b = device_stream(self.fit, self.fit.b, 4096, 3)
        assert np.array_equal(a, b)
