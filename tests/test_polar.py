import hashlib
import itertools
import json
import math
import os
from types import SimpleNamespace
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsc import polar
from spinsc.cli import main as cli_main
from spinsc.errors import DomainError, FormatError, ShapeError
from spinsc.mtj import SigmoidFit
from spinsc.network import (DETERMINISTIC, STOCHASTIC, Layer, NetworkModel,
                            load_model, save_model)
from spinsc.polar import (PolarCodeSpec, construct_frozen_set, encode, generate_frames,
                          neural_sc_decode, ber_experiment, polar_transform,
                          sc_decode)
from spinsc.rngtools import derive_rng, worker_count
from test_acceptance import REPRO_CONFIGS

ROOT = os.path.join(os.path.dirname(__file__), "..")


def dense_generator(n):
    """Oracle: explicit F^(x)n matrix over GF(2) by repeated Kronecker product."""
    F = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    G = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        G = np.kron(G, F)
    return G


def oracle_transform(u):
    G = dense_generator(int(math.log2(np.shape(u)[-1])))
    return (np.asarray(u, dtype=np.uint8) @ G) % 2


def logsumexp(vals):
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


def oracle_sc_decode(llrs, frozen):
    """Exhaustive-completion posterior per bit, conditioned on the previous
    hard decisions; future bits (frozen included) marginalized uniformly,
    matching the SC recursion's assumption."""
    N = len(llrs)
    u = np.zeros(N, dtype=np.uint8)
    for i in range(N):
        if frozen[i]:
            continue
        scores = {}
        rem = N - 1 - i
        for ui in (0, 1):
            logs = []
            for comp in range(2 ** rem):
                full = u.copy()
                full[i] = ui
                for j in range(rem):
                    full[i + 1 + j] = (comp >> j) & 1
                x = oracle_transform(full)
                logs.append(0.5 * float(np.sum(llrs * (1.0 - 2.0 * x))))
            scores[ui] = logsumexp(logs)
        u[i] = 0 if scores[0] >= scores[1] else 1
    return u


class TestConstruction:
    def test_n2_freezes_first_index(self):
        spec = construct_frozen_set(2, 1)
        assert spec.frozen.tolist() == [True, False]

    def test_rate_one_nothing_frozen(self):
        spec = construct_frozen_set(8, 8)
        assert not spec.frozen.any()

    def test_rate_zero_all_frozen(self):
        spec = construct_frozen_set(8, 0)
        assert spec.frozen.all()

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(DomainError):
            construct_frozen_set(4, 5)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DomainError):
            PolarCodeSpec(N=6, K=3, frozen=np.zeros(6, bool))
        for n in (0, 3, 6):
            with pytest.raises(DomainError, match="power of 2"):
                construct_frozen_set(n, 0)

    @pytest.mark.parametrize("design_snr_db",
                             [math.nan, math.inf, -math.inf, 10000.0])
    def test_design_snr_out_of_range_rejected(self, design_snr_db):
        with pytest.raises(DomainError, match="design SNR"):
            construct_frozen_set(8, 4, design_snr_db)

    # (8,4) freezes this at 20 dB; linear z underflowed to 0 from about
    # 28 dB, every index tied and the first four were frozen instead
    @pytest.mark.parametrize("design_snr_db", [28.0, 29.0, 30.0, 40.0, 100.0, 300.0])
    def test_high_snr_keeps_20_db_masks(self, design_snr_db):
        assert construct_frozen_set(8, 4, design_snr_db).frozen.astype(int).tolist() \
            == [1, 1, 1, 0, 1, 0, 0, 0]
        for n in (8, 16, 32):
            assert np.array_equal(construct_frozen_set(n, n // 2, design_snr_db).frozen,
                                  construct_frozen_set(n, n // 2, 20.0).frozen)

    def test_16_8_keeps_20_db_mask_at_every_integer_db_to_300(self):
        """From about 150 dB float log z loses the log(2 - z) terms; the
        order comes from the squarings and those terms."""
        want = construct_frozen_set(16, 8, 20.0).frozen.tolist()
        assert [d for d in range(20, 301)
                if construct_frozen_set(16, 8, float(d)).frozen.tolist() != want] == []

    @pytest.mark.parametrize("design_snr_db", [50.0, 154.0, 155.0, 156.0, 300.0, 3000.0])
    def test_every_mask_up_to_n256_fixed_from_30_db(self, design_snr_db):
        """From 30 dB, z0 = exp(-1000) and every log(2 - z) term is log 2 in
        floats, so the order (k, q) and with it every mask stay fixed."""
        for N in (2, 4, 8, 16, 32, 64, 128, 256):
            for K in range(N + 1):
                assert np.array_equal(construct_frozen_set(N, K, design_snr_db).frozen,
                                      construct_frozen_set(N, K, 30.0).frozen), (N, K)

    @pytest.mark.parametrize("design_snr_db", [0.0, 3.0, 10.0])
    def test_log_form_keeps_linear_masks_up_to_n256(self, design_snr_db):
        def linear_mask(N, K):
            z = np.array([math.exp(-(10.0 ** (design_snr_db / 10.0)))])
            while z.size < N:
                nxt = np.empty(2 * z.size)
                nxt[0::2] = 2.0 * z - z * z
                nxt[1::2] = z * z
                z = nxt
            frozen = np.zeros(N, dtype=bool)
            frozen[np.lexsort((np.arange(N), -z))[:N - K]] = True
            return frozen
        for N in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            for K in range(N + 1):
                assert np.array_equal(
                    construct_frozen_set(N, K, design_snr_db).frozen,
                    linear_mask(N, K)), (N, K)

    def test_spec_json_round_trip(self, tmp_path):
        spec = construct_frozen_set(16, 8, design_snr_db=1.5)
        path = tmp_path / "spec.json"
        spec.to_json(path)
        back = PolarCodeSpec.from_json(path)
        assert back.N == spec.N and back.K == spec.K
        assert np.array_equal(back.frozen, spec.frozen)

    @pytest.mark.parametrize("text", [
        '{"N": 2, "K": 1}', '{"N": 2, "K": 1, "frozen_mask": [1,',
        '{"N": "two", "K": 1, "frozen_mask": [1, 0]}', '"spec"'],
        ids=["no-mask", "truncated", "wrong-type", "not-an-object"])
    def test_malformed_spec_json_rejected(self, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            PolarCodeSpec.from_json(path)

    @pytest.mark.parametrize("key, value", [
        ("design_snr_db", "abc"), ("design_snr_db", None), ("design_snr_db", [1, 2]),
        ("design_snr_db", True), ("design_snr_db", math.inf), ("K", 4.0),
        ("K", True), ("N", 8.0), ("N", "8")])
    def test_mistyped_spec_field_rejected(self, tmp_path, key, value):
        """N and K must be JSON integers and design_snr_db a finite JSON
        number (bool is neither)."""
        path = tmp_path / "spec.json"
        construct_frozen_set(8, 4).to_json(path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="integer N and K"):
            PolarCodeSpec.from_json(path)


class TestEncode:
    def test_all_zero_message(self):
        spec = construct_frozen_set(16, 8)
        assert not encode(np.zeros(8, np.uint8), spec).any()

    def test_n2_kernel_by_hand(self):
        assert polar_transform([1, 0]).tolist() == [1, 0]
        assert polar_transform([1, 1]).tolist() == [0, 1]

    def test_matches_dense_oracle_all_256(self):
        block = np.array(list(itertools.product([0, 1], repeat=8)), np.uint8)
        for u in block:
            assert np.array_equal(polar_transform(u), oracle_transform(u))
        # the same words as one (256, 8) block and as a (2, 128, 8) block
        assert np.array_equal(polar_transform(block), oracle_transform(block))
        assert np.array_equal(polar_transform(block.reshape(2, 128, 8)),
                              oracle_transform(block).reshape(2, 128, 8))

    def test_block_encode_equals_row_by_row(self):
        spec = construct_frozen_set(32, 12)
        msgs = derive_rng(5, "enc").integers(0, 2, (7, 12)).astype(np.uint8)
        assert np.array_equal(encode(msgs, spec),
                              np.array([encode(m, spec) for m in msgs]))

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_transform_is_involution(self, seed):
        u = derive_rng(seed, "inv").integers(0, 2, 64).astype(np.uint8)
        assert np.array_equal(polar_transform(polar_transform(u)), u)

    def test_wrong_message_length(self):
        spec = construct_frozen_set(8, 4)
        with pytest.raises(ShapeError):
            encode(np.zeros(5, np.uint8), spec)
        with pytest.raises(ShapeError):
            encode(np.zeros((3, 5), np.uint8), spec)
        with pytest.raises(ShapeError):
            polar_transform(np.zeros((3, 6), np.uint8))


class TestChannel:
    def test_noiseless_limit_preserves_signs(self):
        spec = construct_frozen_set(64, 32)
        messages, llrs, _ = generate_frames(spec, 1, ("cw",), range(4), [100.0] * 4)
        bits = (llrs < 0).astype(np.uint8)
        assert np.array_equal(bits, encode(messages, spec))
        assert np.all(np.abs(llrs) > 1e9)

    def test_llr_moments_match_closed_form(self):
        spec = construct_frozen_set(64, 32)
        frames, snr_db = 1563, 2.0
        sigma2 = 1.0 / (2 * spec.rate * 10 ** (snr_db / 10))
        messages, llrs, _ = generate_frames(spec, 0, ("moments",), range(frames),
                                            [snr_db] * frames)
        # sign-corrected to the all-zero codeword
        llrs = (llrs * (1.0 - 2.0 * encode(messages, spec))).ravel()
        mean, var = 2 / sigma2, 4 / sigma2
        assert abs(llrs.mean() - mean) <= 3 * math.sqrt(var / llrs.size)
        assert abs(llrs.var() - var) <= 0.05 * var

    def test_seed_determinism(self):
        spec = construct_frozen_set(32, 16)
        a = generate_frames(spec, 5, ("det",), range(3), [3.0] * 3)
        b = generate_frames(spec, 5, ("det",), range(3), [3.0] * 3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_non_finite_llrs_rejected(self):
        # both decoders check the channel's LLRs
        spec = construct_frozen_set(4, 2)
        model = NetworkModel(layers=[Layer(np.zeros((2, 4)), np.zeros(2))])
        for bad in (np.inf, -np.inf, np.nan):
            llrs = np.array([[1.0, -2.0, 0.5, 3.0], [1.0, bad, 0.5, 3.0]])
            with pytest.raises(DomainError):
                sc_decode(llrs, spec)
            with pytest.raises(DomainError):
                neural_sc_decode(llrs, model, spec)


SPECIALS = [0.0, -0.0, 1e-300, -1e-300, 1e308, -1e308, math.inf, -math.inf,
            math.nan, 1.0, -2.5]


class TestCheckNodeLogaddexp:
    """polar._logaddexp, the check node's logaddexp, against np.logaddexp."""

    @staticmethod
    def pairs():
        x, y = np.array(list(itertools.product(SPECIALS, repeat=2))).T
        return [(x, y), (0.0, y)]             # the check node's two calls

    def test_specials_bit_for_bit(self):
        """Every pair of specials, equal arguments, infinities and NaN
        included, gives np.logaddexp's bits (any NaN for NaN)."""
        for x, y in self.pairs():
            with np.errstate(all="ignore"):
                got, want = polar._logaddexp(x, y), np.logaddexp(x, y)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.uint64),
                                  want[~nan].view(np.uint64))

    def test_no_new_floating_point_warning(self):
        """Each pair raises no floating-point error that np.logaddexp does
        not raise on it: x = y = ±inf's inf - inf stays silent."""
        x, y = self.pairs()[0]
        for pair in zip(x[:, None], y[:, None]):
            raised = []
            for fn in (np.logaddexp, polar._logaddexp):
                kinds = set()
                with np.errstate(over="call", divide="call", invalid="call",
                                 call=lambda kind, flag: kinds.add(kind)):
                    fn(*pair)
                raised.append(kinds)
            assert raised[1] <= raised[0], pair

    def test_random_pairs_within_two_ulps(self):
        """Random pairs over twelve decades agree with np.logaddexp within 2
        ulps of max(|x|, |y|, log 2).  Measured with numpy 2.4's AVX-512
        exp and log1p only; other SIMD dispatches are unmeasured."""
        rng = derive_rng(0, "logaddexp")
        x, y = rng.standard_normal((2, 100_000)) * 10.0 ** rng.uniform(-6, 6, (2, 100_000))
        for x in (x, 0.0):
            ulp = np.spacing(np.maximum(np.maximum(np.abs(x), np.abs(y)), math.log(2.0)))
            err = np.abs(polar._logaddexp(x, y) - np.logaddexp(x, y))
            assert np.all(err <= 2.0 * ulp)

    @pytest.mark.parametrize("K", [16, 8])
    def test_sc_decode_on_extreme_llrs_warns_as_logaddexp(self, K):
        """LLRs of ±1e308, whose sums overflow to ±inf and then to NaN, give
        sc_decode the kinds of floating-point warning that the recursion on
        np.logaddexp gives: overflow and invalid, none hidden."""
        spec = construct_frozen_set(16, K)
        llrs = derive_rng(16, "extreme").choice([1e308, -1e308, 1.0], (8, 16))
        kinds = []
        for decode in (lambda: sc_decode(llrs, spec),
                       lambda: unpruned_sc(llrs, spec.frozen, np.logaddexp)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                decode()
            kinds.append({str(w.message).split()[0] for w in caught})
        assert kinds[0] == kinds[1] == {"overflow", "invalid"}


def written_out_logaddexp(x, y):
    """Oracle: the check node's logaddexp as polar states it, x + log 2 for
    equal arguments, else max(x, y) + log1p(exp(-|x - y|)), on the same
    numpy exp and log1p."""
    with np.errstate(invalid="ignore", over="ignore"):
        t = np.log1p(np.exp(-np.abs(x - y)))
        return np.where(x == y, x + math.log(2.0), np.maximum(x, y) + t)


def unpruned_sc(llr, frozen, logaddexp=written_out_logaddexp):
    """Oracle: SC over a (frames, n) LLR block with the check-node rule
    logaddexp(0, a + b) - logaddexp(a, b) at every node, frozen subtrees
    included; returns (u, x), both (frames, n)."""
    n = llr.shape[1]
    if n == 1:
        u = np.logical_not(frozen[0] | (llr >= 0.0)).astype(np.uint8)
        return u, u.copy()
    h = n // 2
    a, b = llr[:, :h], llr[:, h:]
    check = logaddexp(0.0, a + b) - logaddexp(a, b)
    u_left, x_left = unpruned_sc(check, frozen[:h], logaddexp)
    g = b + (1.0 - 2.0 * x_left.astype(float)) * a
    u_right, x_right = unpruned_sc(g, frozen[h:], logaddexp)
    return (np.concatenate([u_left, u_right], axis=1),
            np.concatenate([x_left ^ x_right, x_right], axis=1))


class TestScDecode:
    @pytest.mark.parametrize("N", [2, 8, 64, 256, 1024])
    def test_noiseless_invertibility(self, N):
        spec = construct_frozen_set(N, N // 2)
        messages, llrs, _ = generate_frames(spec, N, ("msg",), range(5), [100.0] * 5)
        decoded = sc_decode(llrs, spec)
        assert decoded.dtype == np.uint8
        assert np.array_equal(decoded, messages)

    def test_rate_zero_code(self):
        spec = construct_frozen_set(8, 0)
        llrs = derive_rng(1, "rate-zero").standard_normal((3, 8))
        assert sc_decode(llrs[0], spec).shape == (0,)
        assert sc_decode(llrs, spec).shape == (3, 0)

    def test_matches_exhaustive_oracle(self):
        spec = construct_frozen_set(8, 4)
        _, llrs, _ = generate_frames(spec, 0, ("oracle",), range(8), [1.0] * 8)
        rows = np.concatenate([np.zeros((1, 8)), llrs])   # all ties: all 0
        block = sc_decode(rows, spec)
        for row, message in zip(rows, block):
            oracle_message = oracle_sc_decode(row, spec.frozen)[~spec.frozen]
            assert np.array_equal(sc_decode(row, spec), oracle_message)
            assert np.array_equal(message, oracle_message)

    @pytest.mark.parametrize("N,K", [(4, 3), (8, 3), (8, 4), (8, 5), (8, 6),
                                     (8, 7)])
    def test_exact_check_node_matches_oracle(self, N, K):
        """Random LLRs of mixed magnitude, where a min-sum check node would
        change some decisions: SC equals the exhaustive posterior oracle."""
        spec = construct_frozen_set(N, K)
        llrs = 2.0 * derive_rng(N, "exact-check", K).standard_normal((48, N))
        block = sc_decode(llrs, spec)
        for row, message in zip(llrs, block):
            assert np.array_equal(message,
                                  oracle_sc_decode(row, spec.frozen)[~spec.frozen])

    @pytest.mark.parametrize("N", [1, 2, 8, 128, 1024])
    @pytest.mark.parametrize("K", ["none", "half", "all"])
    def test_block_equals_row_by_row(self, N, K):
        k = {"none": 0, "half": N // 2, "all": N}[K]
        spec = construct_frozen_set(N, k)
        rng = derive_rng(N, "block", k)
        llrs = 3.0 * rng.standard_normal((6, N))
        llrs[1] = 0.0                                 # a row of exact ties
        llrs[2, rng.integers(0, N, max(1, N // 4))] = 0.0
        llrs[3] = np.round(llrs[3])                   # many zeros, equal magnitudes
        block = sc_decode(llrs, spec)
        rows = [sc_decode(row, spec) for row in llrs]
        assert block.shape == (6, k) and block.dtype == np.uint8
        assert np.array_equal(block, np.array(rows).reshape(6, k))
        assert not block[1].any()

    @pytest.mark.parametrize("N", [2 ** k for k in range(11)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pruning_matches_unpruned_recursion(self, N):
        """Skipping rate-0 subtrees changes no u or x bit, on Gaussian LLRs
        and on tie-heavy ones, for random, all-frozen, no-frozen and
        designed masks.  The oracle writes the check node's logaddexp out
        itself: on these masks np.logaddexp's ulps differ at near-ties."""
        rng = derive_rng(N, "pruning")
        ties = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0,
                1e308, -1e308]                   # 1e308 overflows: NaN leaves
        blocks = [3.0 * rng.standard_normal((16, N)), rng.choice(ties, (16, N))]
        masks = ([rng.random(N) < p for p in (0.2, 0.5, 0.8)]
                 + [np.ones(N, bool), np.zeros(N, bool),
                    construct_frozen_set(N, N // 2).frozen])
        for frozen in masks:
            spec = PolarCodeSpec(N=N, K=int(np.count_nonzero(~frozen)), frozen=frozen)
            for llrs in blocks:
                u, x = unpruned_sc(llrs, frozen)
                decoded = sc_decode(llrs, spec)
                assert not u[:, frozen].any()
                assert np.array_equal(decoded, u[:, ~frozen])
                assert np.array_equal(encode(decoded, spec), x)

    @pytest.mark.parametrize("N", [128, 1024])
    def test_designed_code_matches_logaddexp_recursion(self, N):
        """On the designed rate-1/2 code, 4,096 generate_frames frames at
        1-4 dB decode as the unpruned recursion on np.logaddexp does: the
        check node's ulps reach no decision there.  Measured with numpy
        2.4's AVX-512 exp and log1p only; other SIMD dispatches may round
        a near-tie differently."""
        spec = construct_frozen_set(N, N // 2)
        for snr in (1.0, 2.0, 3.0, 4.0):
            _, llrs, _ = generate_frames(spec, N, ("logaddexp", int(snr)),
                                         range(1024), [snr] * 1024)
            u, _ = unpruned_sc(llrs, spec.frozen, np.logaddexp)
            assert np.array_equal(sc_decode(llrs, spec), u[:, ~spec.frozen])

    def test_shape_contract(self):
        """A block (..., N) of any leading shape and memory layout decodes
        to C-ordered uint8 bits (..., K), equal to decoding row by row."""
        spec = construct_frozen_set(16, 8)
        llrs = 3.0 * derive_rng(16, "shapes").standard_normal((2, 3, 16))
        flat = llrs.reshape(6, 16)
        rows = np.array([sc_decode(row, spec) for row in flat])
        assert rows.shape == (6, 8) and rows.dtype == np.uint8
        padded = np.zeros((16, 12))
        padded[:, ::2] = flat.T
        cases = [(np.zeros((0, 16)), np.zeros((0, 8), np.uint8)),
                 (llrs, rows.reshape(2, 3, 8)),
                 (np.asfortranarray(flat), rows),
                 (padded[:, ::2].T, rows),                # strided both ways
                 (np.repeat(flat, 2, axis=0)[1::2], rows)]
        assert not cases[2][0].flags.c_contiguous
        assert not cases[3][0].flags.c_contiguous
        assert not cases[4][0].flags.c_contiguous
        for block, want in cases:
            got = sc_decode(block, spec)
            assert got.dtype == np.uint8 and got.flags.c_contiguous
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_wrong_length_rejected(self):
        spec = construct_frozen_set(8, 4)
        with pytest.raises(ShapeError):
            sc_decode(np.zeros(4), spec)
        with pytest.raises(ShapeError):
            sc_decode(np.zeros((3, 4)), spec)


class TestGenerateFrames:
    def test_matches_per_frame_formulas(self):
        """Against rng.integers on the installed numpy, odd K and K = N
        included: generate_frames reads the message and seed as raw PCG64
        words, so this pins that mapping."""
        snrs = [1.0, 2.5, 4.0]
        for N, K in [(16, 8), (2, 1), (8, 3), (16, 7), (16, 16)]:
            spec = construct_frozen_set(N, K)
            messages, llrs, seeds = generate_frames(spec, 7, ("ber", 1),
                                                    range(5, 8), snrs)
            for j, frame in enumerate(range(5, 8)):
                rng = derive_rng(7, "ber", 1, frame)
                msg = rng.integers(0, 2, size=spec.K).astype(np.uint8)
                cw = encode(msg, spec)
                sigma2 = 1.0 / (2.0 * spec.rate * 10.0 ** (snrs[j] / 10.0))
                y = (1.0 - 2.0 * cw.astype(float)
                     + math.sqrt(sigma2) * rng.standard_normal(spec.N))
                assert np.array_equal(messages[j], msg)
                assert np.array_equal(llrs[j], 2.0 * y / sigma2)
                assert int(seeds[j]) == int(rng.integers(0, 2 ** 63))

    def test_independent_of_blocking(self):
        spec = construct_frozen_set(8, 4)
        whole = generate_frames(spec, 3, ("x",), range(10), [2.0] * 10)
        parts = [generate_frames(spec, 3, ("x",), r, [2.0] * len(r))
                 for r in (range(0, 4), range(4, 10))]
        for a, b in zip(whole, zip(*parts)):
            assert np.array_equal(a, np.concatenate(b))

    def test_noise_variance_once_per_snr(self, monkeypatch):
        """One _noise_variance call per distinct Eb/N0, in order of first
        appearance, so the first bad value is the one reported."""
        spec = construct_frozen_set(8, 4)
        snrs = [2.0, 3.0, 2.0, 3.0, 4.0, 2.0]
        want = generate_frames(spec, 6, ("x",), range(6), snrs)
        calls = []

        def counting(snr_db, rate):
            calls.append(snr_db)
            return noise_variance(snr_db, rate)
        noise_variance = polar._noise_variance
        monkeypatch.setattr(polar, "_noise_variance", counting)
        got = generate_frames(spec, 6, ("x",), range(6), snrs)
        assert calls == [2.0, 3.0, 4.0]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        with pytest.raises(DomainError, match="Eb/N0 inf"):
            generate_frames(spec, 0, ("x",), range(4), [2.0, math.inf, math.nan,
                                                        math.inf])

    @pytest.mark.parametrize("N, K", [(8, 4), (8, 3)])
    def test_empty_frame_range(self, N, K):
        """No frames give (0, K) messages, (0, N) LLRs and (0,) seeds."""
        messages, llrs, seeds = generate_frames(construct_frozen_set(N, K), 1,
                                                ("x",), range(0), [])
        assert (messages.shape, llrs.shape, seeds.shape) == ((0, K), (0, N), (0,))

    def test_rejects_bad_input(self):
        spec = construct_frozen_set(8, 4)
        with pytest.raises(ShapeError):
            generate_frames(spec, 0, ("x",), range(3), [1.0, 2.0])
        for snr_db in (math.nan, math.inf, -math.inf, 4000.0, -4000.0):
            with pytest.raises(DomainError, match="noise variance"):
                generate_frames(spec, 0, ("x",), range(2), [1.0, snr_db])
        with pytest.raises(DomainError):
            generate_frames(construct_frozen_set(8, 0), 0, ("x",), range(3),
                            [1.0] * 3)


class TestNeuralDecode:
    def test_zero_weight_model_decodes_to_zero(self):
        spec = construct_frozen_set(8, 4)
        model = NetworkModel(layers=[Layer(np.zeros((4, 8)), np.zeros(4))])
        _, llrs, _ = generate_frames(spec, 3, ("zero",), range(4), [2.0] * 4)
        decoded = neural_sc_decode(llrs, model, spec)
        # every pre-threshold output is exactly 0.5; the tie maps to bit 0
        assert decoded.shape == (4, 4) and decoded.dtype == np.uint8
        assert not decoded.any()

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic", "device"])
    def test_block_equals_frame_by_frame(self, mode):
        spec = construct_frozen_set(8, 4)
        rng = derive_rng(12, "neural-block", mode)
        fit = SigmoidFit(a=1.2e3, b=1e-4, r_squared=1.0)
        model = NetworkModel(
            layers=[Layer(rng.standard_normal((6, 8)), rng.standard_normal(6)),
                    Layer(rng.standard_normal((4, 6)), rng.standard_normal(4))],
            activation_mode=DETERMINISTIC if mode == "deterministic" else STOCHASTIC,
            neuron_fit=fit if mode == "device" else None,
            unit_current=1e-3 if mode == "device" else 0.0)
        _, llrs, seeds = generate_frames(spec, 4, ("nb",), range(40), [2.0] * 40)
        llrs[1] = 0.0                    # a frame of zero LLRs
        block = neural_sc_decode(llrs, model, spec, window=16, seed=seeds)
        rows = [neural_sc_decode(llr, model, spec, window=16, seed=int(seed))
                for llr, seed in zip(llrs, seeds)]
        assert block.shape == (40, 4) and block.dtype == np.uint8
        assert np.array_equal(block, np.array(rows))

    def test_dimension_mismatch(self):
        spec = construct_frozen_set(8, 4)
        model = NetworkModel(layers=[Layer(np.zeros((4, 16)), np.zeros(4))])
        with pytest.raises(ShapeError):
            neural_sc_decode(np.zeros(8), model, spec)
        fitting = NetworkModel(layers=[Layer(np.zeros((4, 8)), np.zeros(4))],
                               activation_mode=STOCHASTIC)
        with pytest.raises(ShapeError):            # LLR blocks of length 4
            neural_sc_decode(np.zeros((3, 4)), fitting, spec)
        with pytest.raises(ShapeError):            # one seed for three frames
            neural_sc_decode(np.zeros((3, 8)), fitting, spec, seed=1)


class TestBerExperiment:
    def test_noiseless_ber_zero(self):
        spec = construct_frozen_set(32, 16)
        rows, = ber_experiment(spec, [100.0], 20, 4)
        assert rows[0]["ber"] == 0.0 and rows[0]["fer"] == 0.0

    def test_no_points_give_no_rows(self):
        spec = construct_frozen_set(8, 4)
        assert ber_experiment(spec, [], 10, 1, models=[None, None]) == [[], []]

    def test_rate_one_n1_matches_uncoded_bpsk(self):
        spec = PolarCodeSpec(N=1, K=1, frozen=np.zeros(1, bool))
        snr_db = 2.0
        rows, = ber_experiment(spec, [snr_db], 20_000, 11)
        q = 0.5 * math.erfc(math.sqrt(10 ** (snr_db / 10)))
        se = math.sqrt(q * (1 - q) / 20_000)
        assert abs(rows[0]["ber"] - q) <= 3 * se

    def test_seed_and_worker_independence(self):
        spec = construct_frozen_set(16, 8)
        a, = ber_experiment(spec, [1.0, 3.0], 50, 21, workers=1)
        b, = ber_experiment(spec, [1.0, 3.0], 50, 21, workers=2)
        for ra, rb in zip(a, b):
            assert ra["bit_errors"] == rb["bit_errors"]
            assert ra["frame_errors"] == rb["frame_errors"]

    def test_model_selects_neural_decoder(self):
        # a zero-weight model decodes every bit to 0, so it errs on the
        # ones that SC recovers without error at 100 dB
        spec = construct_frozen_set(8, 4)
        model = NetworkModel(layers=[Layer(np.zeros((4, 8)), np.zeros(4))])
        sc, = ber_experiment(spec, [100.0], 50, 3)
        neural, = ber_experiment(spec, [100.0], 50, 3, models=[model])
        messages, _, _ = generate_frames(spec, 3, ("ber", 0), range(50),
                                         [100.0] * 50)
        assert sc[0]["bit_errors"] == 0
        assert neural[0]["bit_errors"] == int(messages.sum()) > 0

    def test_models_decode_the_same_frames(self, monkeypatch):
        # two models in one run give the rows of one run per model, and
        # each block is generated once: 2 points x 700 frames on one flat
        # axis are ceil(1400 / 1024) = 2 blocks of 700, not one per model
        spec = construct_frozen_set(8, 4)
        model = NetworkModel(layers=[Layer(np.zeros((4, 8)), np.zeros(4))])
        singles = [ber_experiment(spec, [1.0, 3.0], 700, 5, models=[m])[0]
                   for m in (None, model)]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return generate_frames(*args, **kwargs)
        monkeypatch.setattr(polar, "generate_frames", counting)
        paired = ber_experiment(spec, [1.0, 3.0], 700, 5, models=[None, model])
        assert [len(frames) for frames in calls] == [700, 700]
        for got, want in zip(paired, singles):
            for row, ref in zip(got, want):
                del row["mean_decode_us"], ref["mean_decode_us"]
                assert row == ref

    def test_block_decode_time_split_by_frames(self, monkeypatch):
        # a clock that ticks once per read times every block decode at 1 s:
        # 3 points x 351 frames are a block of 351 + 175 frames and one of
        # 176 + 351, so point 1 spans both
        clock = itertools.count()
        monkeypatch.setattr(polar, "time",
                            SimpleNamespace(perf_counter=lambda: float(next(clock))))
        rows, = ber_experiment(construct_frozen_set(8, 4), [1.0, 2.0, 3.0], 351, 2)
        seconds = [row["mean_decode_us"] * 351 / 1e6 for row in rows]
        assert seconds == pytest.approx([351 / 526, 175 / 526 + 176 / 527, 351 / 527])

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("points,frames", [(1, 1), (1, 512), (1, 513), (3, 171),
                                               (3, 400), (2, 700), (5, 1000),
                                               (7, 1171)])
    def test_blocks_equal_and_bounded(self, workers, points, frames, monkeypatch):
        """The flat axis goes to parallel_map (which splits it; see
        test_rngtools) in blocks of at most 1,024 frames, on the workers
        asked for but at most one per 512 frames."""
        seen = []

        def recording(fn, total, cap, workers):
            seen.append((total, cap, workers))
            return [np.zeros((3, 1, points))]
        monkeypatch.setattr(polar, "parallel_map", recording)
        ber_experiment(construct_frozen_set(8, 4), [2.0] * points, frames, 1,
                       workers=workers)
        total = points * frames
        assert seen == [(total, 1024, min(workers, math.ceil(total / 512)))]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_benchmark_inputs_one_block_per_worker(self, workers, tmp_path,
                                                   monkeypatch):
        """3 points x 400 frames of the (128,64) code: on 2 workers each
        process generates one 600-frame block, on 1 the caller two (and so
        on 2 workers where only one CPU is allowed)."""
        log = tmp_path / "calls"

        def counting(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {len(args[3])}\n")
            return generate_frames(*args, **kwargs)
        monkeypatch.setattr(polar, "generate_frames", counting)
        ber_experiment(construct_frozen_set(128, 64), [2.0, 3.0, 4.0], 400, 1,
                       workers=workers)
        per_process = {}
        for line in log.read_text().splitlines():
            pid, size = map(int, line.split())
            per_process.setdefault(pid, []).append(size)
        want = {1: [[600, 600]], 2: [[600], [600]]}[worker_count(workers)]
        assert sorted(per_process.values()) == want
        assert os.getpid() in per_process

    @pytest.mark.parametrize("decoder", ["classical", "neural", "paired"])
    @pytest.mark.parametrize("points,frames", [(3, 171), (1, 1), (2, 700)])
    def test_rows_independent_of_workers_and_shards(self, decoder, points, frames):
        """Totals that divide neither by the block count nor by 512
        give the same rows at 1, 2 and 3 workers as decoding each point's
        frames in one block."""
        spec = construct_frozen_set(8, 4)
        rng = derive_rng(3, "shards")
        model = NetworkModel(layers=[Layer(rng.standard_normal((4, 8)),
                                           rng.standard_normal(4))],
                             activation_mode=STOCHASTIC)
        models = {"classical": [None], "neural": [model],
                  "paired": [None, model]}[decoder]
        snrs = [1.0, 2.0, 4.0][:points]
        want = []
        for m in models:
            rows = []
            for p, snr in enumerate(snrs):
                messages, llrs, seeds = generate_frames(
                    spec, 9, ("ber", p), range(frames), [snr] * frames)
                decoded = (sc_decode(llrs, spec) if m is None
                           else neural_sc_decode(llrs, m, spec, 16, seeds))
                errs = np.count_nonzero(decoded != messages, axis=1)
                bits, errors = int(errs.sum()), int(np.count_nonzero(errs))
                rows.append({"snr_db": snr, "frames": frames, "bit_errors": bits,
                             "frame_errors": errors, "ber": bits / (frames * 4),
                             "fer": errors / frames})
            want.append(rows)
        for workers in (1, 2, 3):
            got = ber_experiment(spec, snrs, frames, 9, models, 16, workers)
            for rows in got:
                for row in rows:
                    assert row.pop("mean_decode_us") >= 0.0
            assert got == want


with open(os.path.join(ROOT, "tests", "golden.json")) as _fh:
    GOLDEN = json.load(_fh)

# Neural `ber` golden entries decode with the model trained from
# REPRO_CONFIGS["train-decoder"], its model.json fields updated as named by
# the entry's "model"; more frames than one block, at 1 and 2 workers.
# `save_model` entries pin the bytes of that relabelled model file.
NEURAL_MODELS = {
    "deterministic": {},
    "stochastic-firing": {"activation_mode": "stochastic-firing"},
    "device": {"activation_mode": "stochastic-firing", "unit_current": 1e-3,
               "neuron_fit": {"a": 1.2e3, "b": 1e-4, "r_squared": 0.99}},
}
NEURAL_BER_CFG = """
[run]
seed = 5
[code]
n = 8
k = 4
[ber]
decoder = neural
snrs_db = 1.0, 3.0
min_frames = 600
model_path = {model}
"""


def _golden_id(entry):
    """The config for `ber` entries, command-prefixed for the others."""
    if entry["command"] == "save_model":
        return f"save_model:{entry['model']}"
    if "model" in entry:
        return f"{entry['config']}:neural-{entry['model']}"
    if entry["command"] == "ber":
        return entry["config"]
    return f"{entry['command']}:{entry['config']}"


def _relabelled_model(tmp_path, relabel):
    """tmp_path/model.json: the REPRO_CONFIGS["train-decoder"] model with
    the fields named in `relabel` updated, written by save_model."""
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(REPRO_CONFIGS["train-decoder"])
    assert cli_main(["train-decoder", "--config", str(train_cfg),
                     "--out-dir", str(tmp_path / "train")]) == 0
    doc = json.loads((tmp_path / "train" / "model.json").read_text())
    doc.update(relabel)
    raw = tmp_path / "relabelled.json"
    raw.write_text(json.dumps(doc))
    model = tmp_path / "model.json"
    save_model(load_model(raw), model)
    return model


def _neural_ber_cfg(tmp_path, relabel):
    cfg = tmp_path / "ber.cfg"
    cfg.write_text(NEURAL_BER_CFG.format(
        model=_relabelled_model(tmp_path, relabel)))
    return cfg


def _assert_digests(out, entry):
    for name, digest in entry["sha256"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("entry", GOLDEN, ids=_golden_id)
def test_golden_output_hashes(entry, tmp_path):
    """Seeded data files keep the bytes recorded in tests/golden.json."""
    if entry["command"] == "save_model":
        _relabelled_model(tmp_path, NEURAL_MODELS[entry["model"]])
        _assert_digests(tmp_path, entry)
        return
    runs = [[]]                                  # extra CLI flags per run
    if "model" in entry:
        cfg = _neural_ber_cfg(tmp_path, NEURAL_MODELS[entry["model"]])
        runs = [["--workers", "1"], ["--workers", "2"]]
    elif entry["config"] == "REPRO_CONFIGS":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(REPRO_CONFIGS[entry["command"]])
    else:
        cfg = os.path.join(ROOT, entry["config"])
    for i, flags in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert cli_main([entry["command"], "--config", str(cfg),
                         "--out-dir", str(out), *flags]) == 0
        _assert_digests(out, entry)
