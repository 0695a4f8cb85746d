import csv
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from polylp import (
    Awgn,
    Bsc,
    DecodeOutput,
    DecoderRef,
    ParityCheckMatrix,
    STATUS_CONVERGED,
    gen_regular_ldpc,
    llr,
    ml_account,
    run_point,
    stats_to_csv,
    sweep,
    transmit,
)
from polylp import simulator
from polylp.admm_decoder import AdmmConfig, decode
from polylp.bp_decoder import BpConfig
from polylp.codes import is_codeword
from polylp.dual_ascent import DualAscentConfig
from oracles import codebook, gf2_nullspace, hamming_7_4, interleaved_code

ADMM = DecoderRef("admm")
# Erroneous decodes run to the iteration cap; a small cap keeps the
# statistical tests quick without changing their outcome.
ADMM_FAST = DecoderRef("admm", AdmmConfig(t_max=150))


class TestRunPoint:
    def test_noiseless_limit(self):
        code = gen_regular_ldpc(48, 3, 6, seed=0)
        stats = run_point(code, Awgn(20.0, 0.5), ADMM, n_trials=100, seed=1)
        assert stats.trials == 100
        assert stats.word_errors == 0
        assert stats.wer == 0.0

    def test_rate_is_the_channel_rate_on_awgn_and_the_design_rate_on_bsc(self):
        code = gen_regular_ldpc(24, 3, 6, seed=7)
        assert run_point(code, Awgn(3.0, 0.3), ADMM_FAST, n_trials=2).rate == 0.3
        assert run_point(code, Bsc(0.05), ADMM_FAST, n_trials=2).rate == code.design_rate

    def test_determinism(self):
        code = gen_regular_ldpc(32, 3, 6, seed=0)
        a = run_point(code, Bsc(0.06), ADMM_FAST, n_trials=60, seed=3)
        b = run_point(code, Bsc(0.06), ADMM_FAST, n_trials=60, seed=3)
        assert (a.trials, a.word_errors, a.bit_errors, a.ml_errors) == (
            b.trials, b.word_errors, b.bit_errors, b.ml_errors,
        )
        assert a.iter_sum_correct == b.iter_sum_correct
        assert a.iter_sum_erroneous == b.iter_sum_erroneous

    def test_uninformative_channel_with_nonzero_codeword(self):
        # At p = 0.5 the LLRs vanish and every decoder falls back to the
        # zero word.  run_point sends that word, so it reads no errors;
        # any other codeword, sent directly, always fails.
        code = gen_regular_ldpc(32, 3, 6, seed=0)
        assert run_point(code, Bsc(0.5), ADMM, n_trials=100, seed=4).word_errors == 0
        basis = gf2_nullspace(code.to_dense())
        word = basis[np.flatnonzero(basis.any(axis=1))[0]]
        assert word.any()
        rng = np.random.default_rng(4)
        failures = sum(
            not np.array_equal(decode(llr(transmit(word, Bsc(0.5), rng), Bsc(0.5)), code)
                               .hard_decision, word)
            for _ in range(100)
        )
        assert failures >= 90

    def test_rejects_non_codeword_transmission(self):
        # Sweeps send only the all-zero word: a sent word, codeword or
        # not, is refused, not silently replaced.
        code = hamming_7_4()
        word = np.array([1, 0, 0, 0, 0, 0, 0])
        with pytest.raises(TypeError, match="transmitted"):
            run_point(code, Bsc(0.1), ADMM, n_trials=1, seed=0, transmitted=word)
        out = decode(np.ones(7), code)
        with pytest.raises(TypeError, match="transmitted"):
            ml_account(out, np.ones(7), code, transmitted=word)

    @pytest.mark.parametrize("word", [[1.7, 1.2, 1.9], [0.6, 0.2, 0.9]])
    def test_rejects_a_word_that_only_casts_to_a_codeword(self, word):
        # Cast to bits these are the codewords 111 and 000 of this code.
        # Another codeword than zero is sent with transmit, which refuses
        # them on either channel.
        code = ParityCheckMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
        assert is_codeword(code, np.asarray(word).astype(np.uint8))
        for ch in (Bsc(0.1), Awgn(2.0, 0.5)):
            with pytest.raises(ValueError, match="0 or 1"):
                transmit(word, ch, seed=0)

    def test_rejects_fewer_than_one_worker(self):
        code = hamming_7_4()
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                run_point(code, Bsc(0.1), ADMM, n_trials=5, seed=0, workers=workers)
            with pytest.raises(ValueError, match="workers"):
                sweep(code, [Bsc(0.1)], ADMM, n_trials=5, seed=0, workers=workers)
        # Even with no points to run.
        with pytest.raises(ValueError, match="workers"):
            sweep(code, [], ADMM, n_trials=5, seed=0, workers=0)

    def test_exactly_one_budget_mode(self):
        code = hamming_7_4()
        with pytest.raises(ValueError):
            run_point(code, Bsc(0.1), ADMM, seed=0)
        with pytest.raises(ValueError):
            run_point(code, Bsc(0.1), ADMM, n_trials=5, target_errors=5, seed=0)

    def test_target_errors_mode(self):
        code = gen_regular_ldpc(32, 3, 6, seed=0)
        stats = run_point(
            code, Bsc(0.09), ADMM_FAST, target_errors=5, max_trials=5000, seed=5
        )
        assert stats.word_errors == 5
        assert stats.trials <= 5000
        # The run stops exactly at the trial that met the target.
        again = run_point(
            code, Bsc(0.09), ADMM_FAST, target_errors=5, max_trials=stats.trials, seed=5
        )
        assert again.trials == stats.trials

    def test_serial_target_errors_decodes_no_frame_past_the_target(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(None)
            return decode(*args)

        monkeypatch.setattr(simulator, "decode", counted)
        code = gen_regular_ldpc(96, 3, 6, seed=7)
        stats = run_point(code, Bsc(0.06), ADMM_FAST, target_errors=20, seed=2)
        assert stats.word_errors == 20 and stats.trials < 256
        assert len(calls) == stats.trials

    def test_memory_does_not_grow_with_the_trial_count(self, monkeypatch):
        # With a decoder that costs nothing, what the run keeps per trial
        # would show in the peak: 2000 kept records take ~200 KB.
        code = gen_regular_ldpc(24, 3, 6, seed=0)
        out = decode(np.ones(code.n_vars), code)
        monkeypatch.setattr(simulator, "decode", lambda *args: out)
        run_point(code, Bsc(0.05), ADMM, n_trials=10, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_point(code, Bsc(0.05), ADMM, n_trials=2000, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_max_trials_cap(self):
        code = gen_regular_ldpc(48, 3, 6, seed=0)
        stats = run_point(
            code, Awgn(20.0, 0.5), ADMM, target_errors=1, max_trials=50, seed=6
        )
        assert stats.trials == 50
        assert stats.word_errors == 0

    @pytest.mark.parametrize("budget", ["n_trials", "target_errors"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_rejects_a_budget_below_one(self, budget, value):
        code = hamming_7_4()
        message = f"{budget} must be at least 1"
        with pytest.raises(ValueError, match=message):
            run_point(code, Bsc(0.1), ADMM, seed=0, **{budget: value})
        with pytest.raises(ValueError, match=message):
            sweep(code, [Bsc(0.1)], ADMM, seed=0, **{budget: value})

    @pytest.mark.parametrize("max_trials", [0, -3])
    def test_rejects_max_trials_below_one(self, max_trials):
        # A trial ceiling below one would report a word error rate of 0
        # from no frames.
        code = hamming_7_4()
        with pytest.raises(ValueError, match="max_trials must be at least 1"):
            run_point(code, Bsc(0.1), ADMM, target_errors=5, max_trials=max_trials, seed=0)
        with pytest.raises(ValueError, match="max_trials must be at least 1"):
            sweep(code, [Bsc(0.1)], ADMM, target_errors=5, max_trials=max_trials, seed=0)
        with pytest.raises(ValueError, match="max_trials must be at least 1"):
            sweep(code, [], ADMM, target_errors=5, max_trials=max_trials, seed=0)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name, value, message", [
        ("n_trials", 2.5, "n_trials must be an integer, got 2.5"),
        ("target_errors", 1.5, "target_errors must be an integer, got 1.5"),
        ("workers", 1.5, "workers must be an integer, got 1.5"),
        ("seed", -1, "seed must be at least 0, got -1"),
        ("point_index", -1, "point_index must be at least 0, got -1"),
        # bool is an int subclass, but not a count.
        ("n_trials", True, "n_trials must be an integer, got True"),
        ("target_errors", True, "target_errors must be an integer, got True"),
        ("max_trials", True, "max_trials must be an integer, got True"),
        ("workers", True, "workers must be an integer, got True"),
        ("seed", True, "seed must be an integer, got True"),
        ("point_index", True, "point_index must be an integer, got True"),
    ], ids=["n_trials", "target_errors", "workers", "seed", "point_index",
            "n_trials-bool", "target_errors-bool", "max_trials-bool", "workers-bool",
            "seed-bool", "point_index-bool"])
    def test_rejects_a_bad_run_argument_before_any_pool_or_trial(
        self, monkeypatch, workers, name, value, message
    ):
        def started(*args, **kwargs):
            raise AssertionError("started before the arguments were checked")

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", started)
        monkeypatch.setattr(simulator, "_run_trial", started)
        code = hamming_7_4()
        kwargs = {"n_trials": 5, "seed": 0, "workers": workers}
        if name == "target_errors":
            del kwargs["n_trials"]
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_point(code, Bsc(0.1), ADMM, **kwargs)
        if name != "point_index":
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sweep(code, [Bsc(0.1)], ADMM, **kwargs)

    def test_iteration_split_accounting(self):
        code = gen_regular_ldpc(32, 3, 6, seed=0)
        channel = Bsc(0.06)
        stats = run_point(code, channel, ADMM, n_trials=40, seed=7)
        total = 0
        for t in range(40):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=7, spawn_key=(0, t))
            )
            received = transmit(np.zeros(32, dtype=np.uint8), channel, rng)
            total += decode(llr(received, channel), code).iterations
        assert stats.iter_sum_correct + stats.iter_sum_erroneous == total


def test_strict_success_is_the_same_for_any_sent_codeword():
    # run_point always sends the all-zero word.  Through the same BSC
    # flips, the LP decoder ends on the sent word, integral, for the
    # all-zero word exactly when it does for any other codeword (the LP's
    # codeword symmetry).  Scoring by the hard decision alone is not
    # symmetric: a fractional output that rounds to the all-zero word
    # counts as a success, so the all-zero word gives fewer word errors.
    channel = Bsc(0.06)
    pick = np.random.default_rng(3)
    rounded_only = 0
    for code in (gen_regular_ldpc(30, 3, 6, seed=1), interleaved_code(20, 12, seed=1)):
        words = codebook(code.to_dense())
        zero = np.zeros(code.n_vars, dtype=np.uint8)
        for t in range(100):
            strict = []
            for sent in (zero, words[pick.integers(len(words))]):
                gamma = llr(transmit(sent, channel, seed=t), channel)
                out = decode(gamma, code, ADMM_FAST.config)
                right = np.array_equal(out.hard_decision, sent)
                strict.append(out.integral and right)
                rounded_only += right and not out.integral and not sent.any()
            assert strict[0] == strict[1], f"frame {t}"
    assert rounded_only > 0


class TestMlAccount:
    def test_non_codeword_counts_as_success(self):
        code = hamming_7_4()
        gamma = np.ones(7)
        out = decode(np.array([1.0, -3.0, 1, 1, 1, 1, 1]), code)
        fake = DecodeOutput(
            x=out.x, status=out.status, integral=True, iterations=1,
            hard_decision=np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.uint8),
            ml_certificate=False,
        )
        assert ml_account(fake, gamma, code) is False

    def test_cheaper_codeword_is_certified_error(self):
        code = hamming_7_4()
        gamma = np.array([-2.0, 1, 1, -2, -2, 1, 1])
        est = np.array([1, 0, 0, 1, 1, 0, 0], dtype=np.uint8)  # codeword, cost -6
        fake = DecodeOutput(
            x=est.astype(float), status=STATUS_CONVERGED, integral=True,
            iterations=1, hard_decision=est, ml_certificate=True,
        )
        assert ml_account(fake, gamma, code) is True

    def test_tie_counts_as_success(self):
        code = hamming_7_4()
        est = np.array([1, 0, 0, 1, 1, 0, 0], dtype=np.uint8)
        gamma = np.zeros(7)
        fake = DecodeOutput(
            x=est.astype(float), status=STATUS_CONVERGED, integral=True,
            iterations=1, hard_decision=est, ml_certificate=True,
        )
        assert ml_account(fake, gamma, code) is False

    @pytest.mark.parametrize(
        "gamma,message",
        [
            (np.array([np.nan, 1, 1, 1, 1, 1, 1]), "finite"),
            (np.array([1, 1, 1, -np.inf, 1, 1, 1]), "finite"),
            (np.ones(6), "length-7"),
        ],
        ids=["nan", "inf", "length"],
    )
    def test_rejects_bad_llrs(self, gamma, message):
        # The same check as every decoder's, also for a codeword output.
        code = hamming_7_4()
        est = np.array([1, 0, 0, 1, 1, 0, 0], dtype=np.uint8)
        fake = DecodeOutput(
            x=est.astype(float), status=STATUS_CONVERGED, integral=True,
            iterations=1, hard_decision=est, ml_certificate=True,
        )
        with pytest.raises(ValueError, match=message):
            ml_account(fake, gamma, code)


class TestSweep:
    # Each pooled chunk unpickles the code and binds the decoder anew, BP's as ADMM's.
    @pytest.mark.parametrize("ref", [ADMM_FAST, DecoderRef("bp")], ids=["admm", "bp"])
    def test_worker_count_invariance(self, ref):
        code = gen_regular_ldpc(32, 3, 6, seed=1)
        points = [Bsc(0.03), Bsc(0.08)]
        a = sweep(code, points, ref, n_trials=60, seed=8, workers=1)
        b = sweep(code, points, ref, n_trials=60, seed=8, workers=3)
        assert stats_to_csv(a, timing=False) == stats_to_csv(b, timing=False)

    @staticmethod
    def untimed(stats):
        return dataclasses.replace(stats, time_sum_correct=0.0, time_sum_erroneous=0.0)

    def test_target_errors_truncation_is_worker_count_invariant(self):
        # The target is met past the first 256-trial wave, inside the
        # second, so the run truncates a wave that several workers shared.
        code = gen_regular_ldpc(32, 3, 6, seed=1)
        runs = [
            run_point(code, Bsc(0.015), ADMM_FAST, target_errors=20, seed=11, workers=w)
            for w in (1, 3)
        ]
        assert runs[0].word_errors == 20 and 256 < runs[0].trials < 512
        assert self.untimed(runs[0]) == self.untimed(runs[1])

    def test_max_trials_cap_is_worker_count_invariant(self):
        # The cap ends the run in the middle of the second wave.
        code = gen_regular_ldpc(32, 3, 6, seed=1)
        runs = [
            run_point(code, Bsc(0.015), ADMM_FAST, target_errors=1000, max_trials=300,
                      seed=12, workers=w)
            for w in (1, 3)
        ]
        assert runs[0].trials == 300 and runs[0].word_errors > 0
        assert self.untimed(runs[0]) == self.untimed(runs[1])

    def test_wer_improves_with_channel_quality(self):
        code = gen_regular_ldpc(32, 3, 6, seed=1)
        points = [Bsc(0.3), Bsc(0.15), Bsc(0.02)]
        stats = sweep(code, points, ADMM_FAST, n_trials=150, seed=9)
        wers = [s.wer for s in stats]
        slack = [2 * np.sqrt(w * (1 - w) / s.trials + 1e-6) for w, s in zip(wers, stats)]
        assert wers[1] <= wers[0] + slack[0]
        assert wers[2] <= wers[1] + slack[1]

    def test_empty_sweep_emits_header_only(self):
        assert stats_to_csv([]) == (
            "decoder,channel_kind,channel_param,rate,n,trials,word_errors,"
            "bit_errors,wer,ber,avg_iters_all,avg_iters_correct,avg_iters_err,"
            "avg_time_all_s,avg_time_correct_s,avg_time_err_s,ml_errors,seed\n"
        )

    def test_csv_averages_match_their_definitions(self):
        # Every denominator differs (20 trials, 16 correct, 4 errors), so a
        # column divided by the wrong count fails here.
        stats = simulator.TrialStats(
            "admm", "bsc", 0.05, seed=3, n_vars=48, rate=0.5, trials=20, word_errors=4,
            bit_errors=12, iter_sum_correct=80, iter_sum_erroneous=400,
            time_sum_correct=0.8, time_sum_erroneous=2.0, ml_errors=1)
        want = {"wer": 4 / 20, "ber": 12 / (20 * 48), "avg_iters_all": 480 / 20,
                "avg_iters_correct": 80 / 16, "avg_iters_err": 400 / 4,
                "avg_time_all_s": 2.8 / 20, "avg_time_correct_s": 0.8 / 16,
                "avg_time_err_s": 2.0 / 4}
        for timing in (True, False):
            (row,) = csv.DictReader(stats_to_csv([stats], timing=timing).splitlines())
            for column, value in want.items():
                if timing or "time" not in column:
                    assert float(row[column]) == pytest.approx(value, rel=1e-6), column
                else:
                    assert row[column] == "", column
        # A split with no frames leaves its averages empty.
        for errors, empty in ((0, "avg_iters_err"), (20, "avg_iters_correct")):
            split = dataclasses.replace(stats, word_errors=errors)
            (row,) = csv.DictReader(stats_to_csv([split]).splitlines())
            assert row[empty] == "" and row[empty.replace("iters", "time") + "_s"] == ""

    def test_csv_shape_and_significant_digits(self):
        code = gen_regular_ldpc(32, 3, 6, seed=1)
        stats = sweep(code, [Bsc(0.0625)], ADMM, n_trials=30, seed=10)
        text = stats_to_csv(stats)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        row = lines[1].split(",")
        assert len(row) == 18
        assert row[0] == "admm" and row[1] == "bsc"
        assert row[2] == "0.0625"

    def test_decoder_ref_validation(self):
        with pytest.raises(ValueError):
            DecoderRef("turbo")
        # A config of another decoder fails when the reference is built,
        # not later inside a (possibly worker-side) decode.
        with pytest.raises(ValueError, match="BpConfig"):
            DecoderRef("bp", AdmmConfig())
        with pytest.raises(ValueError, match="DualAscentConfig"):
            DecoderRef("dual-ascent", AdmmConfig())
        with pytest.raises(ValueError, match="AdmmConfig"):
            DecoderRef("admm", BpConfig())

    def test_decoder_ref_without_a_config_holds_the_defaults(self):
        assert DecoderRef("admm").config == AdmmConfig()
        for algo, config_class in simulator.DECODERS.items():
            assert DecoderRef(algo) == DecoderRef(algo, config_class())


# Pinned integer fields of seeded sweeps, so that a change that moves any
# seeded output fails here.  Per point: trials, word, bit and ML errors, and
# the iteration sums of correct and of erroneous frames.  A cap of 100
# iterations keeps every decoder's failing frames cheap.
GOLDEN_SWEEPS = {
    "admm": (AdmmConfig(t_max=100), [(64, 4, 23, 0, 325, 400), (64, 20, 107, 0, 448, 2000)]),
    "bp": (BpConfig(t_max=100), [(64, 5, 26, 0, 89, 500), (64, 20, 111, 0, 129, 1918)]),
    "dual-ascent": (DualAscentConfig(t_max=100),
                    [(64, 8, 29, 0, 2965, 800), (64, 27, 110, 0, 2742, 2700)]),
}


@pytest.mark.parametrize("algo", GOLDEN_SWEEPS)
def test_seeded_sweeps_match_pinned_counts(algo):
    config, want = GOLDEN_SWEEPS[algo]
    code = gen_regular_ldpc(48, 3, 6, seed=1)
    stats = sweep(code, [Bsc(0.03), Bsc(0.07)], DecoderRef(algo, config), n_trials=64, seed=5)
    got = [(s.trials, s.word_errors, s.bit_errors, s.ml_errors, s.iter_sum_correct,
            s.iter_sum_erroneous) for s in stats]
    assert got == want
