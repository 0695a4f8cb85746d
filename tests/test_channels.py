import math

import numpy as np
import pytest

from polylp import Awgn, Bsc, llr, transmit

# Bit vectors must hold only 0 and 1, whatever their dtype; bool and
# unsigned vectors take the rule's one-max branch.
NON_BITS = [np.array([0, 0.5]), np.array([0, -1]), np.array([0, 2]), np.array([0, np.nan]),
            np.array([0, 2], dtype=np.uint8), np.array([0, 2], dtype=np.uint16),
            np.array([0, -1], dtype=np.int8)]
NON_BIT_IDS = ["0.5", "-1", "2", "nan", "uint8-2", "uint16-2", "int8--1"]
BIT_DTYPES = [bool, np.uint8, np.int64, float]


class TestChannelModels:
    def test_bsc_validation(self):
        Bsc(0.5)
        with pytest.raises(ValueError):
            Bsc(0.0)
        with pytest.raises(ValueError):
            Bsc(0.6)

    def test_awgn_validation(self):
        with pytest.raises(ValueError):
            Awgn(2.0, 0.0)
        with pytest.raises(ValueError):
            Awgn(float("inf"), 0.5)
        # Past these the noise variance or the LLR scale 2 / variance
        # overflows, underflows or divides by zero.
        for snr_db in (3083.0, 3080.0, -3100.0, -3240.0):
            with pytest.raises(ValueError, match="snr_db"):
                Awgn(snr_db, 0.5)

    def test_awgn_noise_variance(self):
        # sigma^2 = 1 / (2 R 10^(snr/10))
        assert Awgn(0.0, 0.5).noise_variance == pytest.approx(1.0)
        assert Awgn(3.0103, 0.5).noise_variance == pytest.approx(0.5, rel=1e-4)


class TestTransmit:
    def test_bsc_deterministic_per_seed(self):
        x = np.zeros(1000, dtype=np.uint8)
        a = transmit(x, Bsc(0.1), seed=7)
        b = transmit(x, Bsc(0.1), seed=7)
        assert np.array_equal(a, b)
        assert a.sum() > 0  # something flipped at p=0.1 over 1000 bits

    def test_draws_from_a_given_generator(self):
        # A Generator is used as it is, so each call advances it, and an
        # int seed gives the words of a generator made from it.
        x = np.zeros(64, dtype=np.uint8)
        for ch in (Bsc(0.3), Awgn(1.0, 0.5)):
            rng = np.random.default_rng(11)
            first = transmit(x, ch, rng)
            second = transmit(x, ch, rng)
            assert not np.array_equal(first, second)
            again = np.random.default_rng(11)
            assert np.array_equal(transmit(x, ch, again), first)
            assert np.array_equal(transmit(x, ch, again), second)
            assert np.array_equal(transmit(x, ch, 11), first)

    @pytest.mark.parametrize(
        "seed,message",
        [
            (True, "an integer, got True"),
            (False, "an integer, got False"),
            (-1, "at least 0, got -1"),
        ],
    )
    def test_rejects_a_seed_that_is_a_bool_or_negative(self, seed, message):
        with pytest.raises(ValueError, match=f"seed must be {message}"):
            transmit(np.zeros(4, dtype=np.uint8), Bsc(0.1), seed)

    def test_awgn_mean_law_of_large_numbers(self):
        n = 100_000
        y = transmit(np.zeros(n, dtype=np.uint8), Awgn(0.0, 0.5), seed=1)  # sigma^2 = 1
        assert abs(y.mean() - 1.0) <= 3.0 / math.sqrt(n)

    def test_bsc_half_is_uniform(self):
        n = 100_000
        y = transmit(np.zeros(n, dtype=np.uint8), Bsc(0.5), seed=2)
        assert abs(y.mean() - 0.5) <= 0.01

    def test_bpsk_map_signs(self):
        y = transmit(np.array([0, 1, 0, 1], dtype=np.uint8), Awgn(50.0, 0.5), seed=3)
        assert np.allclose(y, [1, -1, 1, -1], atol=0.05)

    @pytest.mark.parametrize("word", NON_BITS, ids=NON_BIT_IDS)
    @pytest.mark.parametrize("ch", [Bsc(0.1), Awgn(2.0, 0.5)], ids=["bsc", "awgn"])
    def test_rejects_non_bits(self, word, ch):
        with pytest.raises(ValueError, match="0 or 1"):
            transmit(word, ch, seed=0)

    def test_rejects_a_word_that_is_not_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            transmit(np.zeros((2, 3), dtype=np.uint8), Bsc(0.1), seed=0)

    @pytest.mark.parametrize("dtype", BIT_DTYPES)
    def test_accepts_bits_of_any_dtype(self, dtype):
        word = np.array([0, 1, 1, 0], dtype=dtype)
        assert np.array_equal(transmit(word, Bsc(0.1), seed=0),
                              transmit(word.astype(np.uint8), Bsc(0.1), seed=0))
        # An empty word has no entry to reject.
        for ch in (Bsc(0.1), Awgn(2.0, 0.5)):
            assert transmit(np.zeros(0, dtype=dtype), ch, seed=0).shape == (0,)


class TestLlr:
    def test_bsc_received_one(self):
        got = llr(np.array([1]), Bsc(0.1))
        assert got[0] == pytest.approx(math.log(1 / 9), abs=1e-5)
        assert got[0] == pytest.approx(-2.19722, abs=1e-5)

    def test_bsc_uninformative(self):
        assert np.all(llr(np.array([0, 1, 1, 0]), Bsc(0.5)) == 0.0)

    def test_awgn_scaling(self):
        # sigma^2 = 2 at Eb/N0 = 10 log10(1/2) dB, rate 1/2; gamma = 2 y / sigma^2
        ch = Awgn(10 * math.log10(0.5), 0.5)
        assert ch.noise_variance == pytest.approx(2.0, rel=1e-12)
        assert llr(np.array([-1.0]), ch)[0] == pytest.approx(-1.0, rel=1e-12)

    def test_pure_function(self):
        y = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        a = llr(y, Bsc(0.2))
        b = llr(y, Bsc(0.2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("received", NON_BITS, ids=NON_BIT_IDS)
    def test_bsc_rejects_non_binary(self, received):
        with pytest.raises(ValueError, match="0 or 1"):
            llr(received, Bsc(0.2))

    @pytest.mark.parametrize("ch", [Bsc(0.2), Awgn(2.0, 0.5)], ids=["bsc", "awgn"])
    def test_rejects_a_vector_that_is_not_1d(self, ch):
        with pytest.raises(ValueError, match="1-D"):
            llr(np.zeros((2, 3)), ch)

    @pytest.mark.parametrize("dtype", BIT_DTYPES)
    def test_bsc_accepts_bits_of_any_dtype(self, dtype):
        got = llr(np.array([0, 1, 1, 0], dtype=dtype), Bsc(0.2))
        assert np.array_equal(got, llr(np.array([0, 1, 1, 0]), Bsc(0.2)))
        assert llr(np.zeros(0, dtype=dtype), Bsc(0.2)).shape == (0,)

    def test_sign_convention_favors_zero(self):
        # All-zero word on a quiet channel: expected LLR is positive.
        rng = np.random.default_rng(4)
        for ch in (Bsc(0.1), Awgn(2.0, 0.5)):
            y = transmit(np.zeros(20_000, dtype=np.uint8), ch, rng)
            assert llr(y, ch).mean() > 0.5

    def test_finite_llrs(self):
        y = transmit(np.zeros(1000, dtype=np.uint8), Bsc(0.01), seed=5)
        assert np.all(np.isfinite(llr(y, Bsc(0.01))))
