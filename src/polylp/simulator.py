"""Seeded Monte-Carlo harness for decoder trials over channel sweeps.

Each trial derives its own generator from (seed, point index, trial
index), so statistics are invariant to how trials are split across
worker processes.  Word- and bit-error counts, iteration and wall-time
sums split by outcome, and certified maximum-likelihood failures are
accumulated per channel point and emitted as CSV.
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .admm_decoder import AdmmConfig, DecodeOutput, decode
from .bp_decoder import BpConfig, decode_bp
from .channels import Awgn, ChannelModel, llr, transmit
from .codes import ParityCheckMatrix, check_integer, check_llrs, is_codeword
from .dual_ascent import DualAscentConfig, decode_dual_ascent

CSV_COLUMNS = [
    "decoder",
    "channel_kind",
    "channel_param",
    "rate",
    "n",
    "trials",
    "word_errors",
    "bit_errors",
    "wer",
    "ber",
    "avg_iters_all",
    "avg_iters_correct",
    "avg_iters_err",
    "avg_time_all_s",
    "avg_time_correct_s",
    "avg_time_err_s",
    "ml_errors",
    "seed",
]

# The decoders by name, each with the config class it takes.
DECODERS = {"admm": AdmmConfig, "bp": BpConfig, "dual-ascent": DualAscentConfig}


@dataclass(frozen=True)
class DecoderRef:
    """Picklable decoder selection: algorithm name plus its config.

    ``config`` must be an instance of ``DECODERS[algo]``; ``None`` is
    replaced by that class's defaults when the reference is built.
    """

    algo: str = "admm"
    config: AdmmConfig | BpConfig | DualAscentConfig | None = None

    def __post_init__(self) -> None:
        if self.algo not in DECODERS:
            raise ValueError(f"unknown decoder {self.algo!r}; use one of {tuple(DECODERS)}")
        expected = DECODERS[self.algo]
        if self.config is None:
            object.__setattr__(self, "config", expected())
        elif not isinstance(self.config, expected):
            raise ValueError(
                f"decoder {self.algo!r} takes a {expected.__name__}, "
                f"not a {type(self.config).__name__}"
            )

    def bind(self, code: ParityCheckMatrix) -> Callable[[NDArray[np.float64]], DecodeOutput]:
        # Read from the module globals per bind, so a wrapper installed on
        # them is used.
        fn = {"admm": decode, "bp": decode_bp, "dual-ascent": decode_dual_ascent}[self.algo]
        return lambda g: fn(g, code, self.config)


def ml_account(
    output: DecodeOutput,
    gamma: NDArray[np.float64],
    code: ParityCheckMatrix,
) -> bool:
    """Whether a word error certifies that an ML decoder would also fail.

    The all-zero codeword is taken as sent, as in every sweep.  True
    exactly when the hard decision is a codeword of negative cost, that
    is of strictly lower cost than the zero word.  Ties and non-codeword
    outputs give False, so the count of True errors is a lower bound on
    ML errors.
    """
    gamma = check_llrs(code, gamma)
    est = output.hard_decision
    return is_codeword(code, est) and float(gamma @ est) < 0.0


@dataclass
class TrialStats:
    """Accumulated statistics of one (decoder, channel point) run."""

    decoder_id: str
    channel_kind: str
    channel_param: float
    seed: int
    n_vars: int
    rate: float
    trials: int = 0
    word_errors: int = 0
    bit_errors: int = 0
    iter_sum_correct: int = 0
    iter_sum_erroneous: int = 0
    time_sum_correct: float = 0.0
    time_sum_erroneous: float = 0.0
    ml_errors: int = 0

    @property
    def wer(self) -> float:
        return self.word_errors / self.trials if self.trials else 0.0

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.trials * self.n_vars) if self.trials else 0.0


def _run_trial(
    code: ParityCheckMatrix,
    channel: ChannelModel,
    decoder: DecoderRef,
    seed: int,
    point_index: int,
    trial_index: int,
) -> tuple[int, int, float, bool]:
    """One decoded trial of the all-zero codeword: (bit_errors, iterations,
    seconds, ml_error)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(point_index, trial_index))
    )
    received = transmit(np.zeros(code.n_vars, dtype=np.uint8), channel, rng)
    gamma = llr(received, channel)
    decode_fn = decoder.bind(code)
    t0 = time.perf_counter()
    out = decode_fn(gamma)
    elapsed = time.perf_counter() - t0
    bit_errors = int(np.count_nonzero(out.hard_decision))
    ml_error = bit_errors > 0 and ml_account(out, gamma, code)
    return bit_errors, out.iterations, elapsed, ml_error


def check_run_args(
    n_trials: int | None, target_errors: int | None, max_trials: int, workers: int,
    seed: int, point_index: int = 0,
) -> None:
    """Check a run's arguments: the one rulebook of :func:`run_point`, :func:`sweep` and the CLI.

    Exactly one budget is given.  It, ``max_trials`` and ``workers`` must be
    integers of at least 1, and ``seed`` and ``point_index`` of at least 0.
    """
    if (n_trials is None) == (target_errors is None):
        raise ValueError("give exactly one of n_trials or target_errors")
    budget = ("n_trials", n_trials) if n_trials is not None else ("target_errors", target_errors)
    for name, value, least in ((*budget, 1), ("max_trials", max_trials, 1), ("workers", workers, 1),
                               ("seed", seed, 0), ("point_index", point_index, 0)):
        check_integer(name, value, least)


def run_point(
    code: ParityCheckMatrix,
    channel: ChannelModel,
    decoder: DecoderRef,
    *,
    n_trials: int | None = None,
    target_errors: int | None = None,
    max_trials: int = 1_000_000,
    seed: int = 0,
    point_index: int = 0,
    workers: int = 1,
    pool: ProcessPoolExecutor | None = None,
) -> TrialStats:
    """Monte-Carlo decode trials at one channel point.

    Sends the all-zero codeword and counts a word error when the hard
    decision is not all zero.  Under channel symmetry, whether LP decoding
    ends integral on the sent word does not depend on the word; this count
    does when a decoder's fractional outputs lean to the all-zero word (on
    the BSC, ADMM's do not: it starts from the hard decision).  Another
    codeword is decoded with :func:`transmit`, :func:`llr` and a decoder
    directly.  Either a fixed trial count or a stop-at-target-errors budget
    must be given; the latter is capped at ``max_trials``.  Results depend
    only on (seed, point_index, trial index), never on the worker count.
    """
    check_run_args(n_trials, target_errors, max_trials, workers, seed, point_index)
    # A fixed budget is one wave that no error count stops.  Waves of a
    # fixed size keep the trial order, and therefore the stopping point,
    # independent of the worker count.
    if n_trials is not None:
        limit, wave_size, target = n_trials, n_trials, n_trials + 1
    else:
        limit, wave_size, target = max_trials, 256, target_errors

    stats = TrialStats(
        decoder_id=decoder.algo,
        channel_kind=channel.kind,
        channel_param=channel.param,
        seed=seed,
        n_vars=code.n_vars,
        rate=channel.rate if isinstance(channel, Awgn) else code.design_rate,
    )
    run = partial(_run_trial, code, channel, decoder, seed, point_index)
    owned = workers > 1 and pool is None
    with ProcessPoolExecutor(workers) if owned else nullcontext(pool) as pool:
        while stats.word_errors < target and stats.trials < limit:
            wave = range(stats.trials, min(stats.trials + wave_size, limit))
            # Serially no frame past the target is decoded.  In the pool,
            # breaking out drops the map's generator, which cancels the
            # wave's unstarted chunks.
            if pool is None or len(wave) < 2 * workers:
                records = map(run, wave)
            else:
                records = pool.map(run, wave, chunksize=math.ceil(len(wave) / (4 * workers)))
            for bit_errors, iters, elapsed, ml_error in records:
                stats.trials += 1
                if bit_errors:
                    stats.word_errors += 1
                    stats.bit_errors += bit_errors
                    stats.iter_sum_erroneous += iters
                    stats.time_sum_erroneous += elapsed
                    stats.ml_errors += int(ml_error)
                    if stats.word_errors == target:
                        break
                else:
                    stats.iter_sum_correct += iters
                    stats.time_sum_correct += elapsed
    return stats


def sweep(
    code: ParityCheckMatrix,
    channel_points: Sequence[ChannelModel],
    decoder: DecoderRef,
    *,
    n_trials: int | None = None,
    target_errors: int | None = None,
    max_trials: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> list[TrialStats]:
    """Run one :func:`run_point` per channel point, sharing the worker pool."""
    check_run_args(n_trials, target_errors, max_trials, workers, seed)
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        return [
            run_point(
                code,
                point,
                decoder,
                n_trials=n_trials,
                target_errors=target_errors,
                max_trials=max_trials,
                seed=seed,
                point_index=k,
                workers=workers,
                pool=pool,
            )
            for k, point in enumerate(channel_points)
        ]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def stats_to_csv(stats: Sequence[TrialStats], timing: bool = True) -> str:
    """Render sweep statistics as CSV; header always present.

    Undefined averages (no trials in a split) render empty.  With
    ``timing`` disabled the wall-time columns are left empty so reruns
    are byte-identical.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for s in stats:
        correct = s.trials - s.word_errors
        iter_total = s.iter_sum_correct + s.iter_sum_erroneous
        time_total = s.time_sum_correct + s.time_sum_erroneous
        row = [
            s.decoder_id,
            s.channel_kind,
            _fmt(s.channel_param),
            _fmt(s.rate),
            s.n_vars,
            s.trials,
            s.word_errors,
            s.bit_errors,
            _fmt(s.wer),
            _fmt(s.ber),
            _fmt(iter_total / s.trials) if s.trials else "",
            _fmt(s.iter_sum_correct / correct) if correct else "",
            _fmt(s.iter_sum_erroneous / s.word_errors) if s.word_errors else "",
            _fmt(time_total / s.trials) if timing and s.trials else "",
            _fmt(s.time_sum_correct / correct) if timing and correct else "",
            _fmt(s.time_sum_erroneous / s.word_errors) if timing and s.word_errors else "",
            s.ml_errors,
            s.seed,
        ]
        writer.writerow(row)
    return buf.getvalue()
