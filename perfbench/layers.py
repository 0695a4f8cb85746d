"""Per-layer hooks, output checks and metrics of the traced pass.

The layers are polylp's modules.  Every hook names a public function in
the namespace its caller resolves it from; see NOTES.md for which
end-to-end metric each per-layer metric should move, and on which
workload.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from polylp.admm_decoder import STATUS_MAX_ITERS, AdmmConfig
from polylp.bp_decoder import BpConfig
from polylp.codes import ParityCheckMatrix, is_codeword
from polylp.parity_polytope import membership, project_parity_polytope
from tracer import Hook, SpanTable, Tracer

# Every SAMPLE_STRIDE-th project_batch call gives one row to the exact
# single-row projection, up to MAX_SAMPLES rows per run.
SAMPLE_STRIDE = 17
MAX_SAMPLES = 200
PROJECTION_TOL = 1e-9

# name -> (unit, names of the hooked functions the figure is read from).
# A figure whose hooks no longer exist is left out of the result.
PER_LAYER = {
    "pp.d6.ns_per_row": ("ns", ("project_batch",)),
    "pp.d32.ns_per_row": ("ns", ("project_batch",)),
    "pp.rows_per_call": ("rows", ("project_batch",)),
    "pp.calls_per_iter": ("calls", ("project_batch", "decode")),
    "pp.inside_after_clip_frac": ("ratio", ("project_batch",)),
    "admm.x_update_us": ("us", ("x_update", "decode")),
    "admm.z_update_self_us": ("us", ("z_update", "project_batch", "decode")),
    "admm.lambda_update_us": ("us", ("lambda_update", "decode")),
    "admm.loop_self_us": ("us", ("decode", "x_update", "z_update", "lambda_update", "make_output")),
    "admm.make_output_us": ("us", ("make_output", "decode")),
    "admm.iters_p50": ("iters", ("decode",)),
    "admm.iters_p95": ("iters", ("decode",)),
    "admm.iters_max": ("iters", ("decode",)),
    "admm.frames_max_iters": ("frames", ("decode",)),
    "admm.tmax_iter_share": ("ratio", ("decode",)),
    "bp.us_per_iter": ("us", ("posterior_llrs",)),
    "bp.decode_self_us": ("us", ("decode_bp", "posterior_llrs")),
    "codes.is_codeword_us": ("us", ("is_codeword",)),
    "codes.is_codeword_calls_per_trial": ("calls", ("is_codeword",)),
    "channels.transmit_us": ("us", ("transmit",)),
    "channels.llr_us": ("us", ("llr",)),
    "simulator.self_us_per_trial": ("us", ("run_point", "transmit", "llr", "decode", "decode_bp", "ml_account")),
    "trace.overhead_frac": ("ratio", ()),
    "wer": ("ratio", ()),
    "iters_per_trial": ("iters", ()),
}


def _iterations(args: tuple, out: Any) -> tuple[int, int]:
    return out.iterations, int(out.status == STATUS_MAX_ITERS)


def _bp_iterations(args: tuple, out: Any) -> tuple[int, int]:
    return out[1], 0


def _rows(args: tuple, out: Any) -> tuple[int, int]:
    return out.shape


def _after_projection(tracer: Tracer, args: tuple, out: np.ndarray) -> None:
    values = np.asarray(args[0])
    inside = (out == np.clip(values, 0.0, 1.0)).all(axis=1)
    tracer.count("pp.inside_rows", int(inside.sum()))
    call = tracer.counts.get("pp.calls", 0)
    tracer.count("pp.calls")
    if call % SAMPLE_STRIDE == 0 and len(tracer.samples) < MAX_SAMPLES:
        row = call % values.shape[0]
        tracer.samples.append((values[row].copy(), out[row].copy()))


def frame_checker(code: ParityCheckMatrix, t_max: int):
    """Per-frame output check: a binary length-N hard decision, an
    iteration count in [1, t_max], and, for an ML-certified output, a
    codeword whose cost is at most that of the all-zero word sent."""

    def check(tracer: Tracer, args: tuple, out: Any) -> None:
        gamma = np.asarray(args[0], dtype=float)
        hard = np.asarray(out.hard_decision)
        ok = (
            hard.shape == (code.n_vars,)
            and bool(np.isin(hard, (0, 1)).all())
            and 1 <= out.iterations <= t_max
        )
        if ok and out.ml_certificate:
            slack = 1e-9 * (1.0 + float(np.abs(gamma).sum()))
            ok = is_codeword(code, hard) and float(gamma @ hard) <= slack
        tracer.count("frames_checked")
        if not ok:
            tracer.count("frames_failed")

    return check


def hooks(code: ParityCheckMatrix) -> list[Hook]:
    admm_check = frame_checker(code, AdmmConfig().t_max)
    bp_check = frame_checker(code, BpConfig().t_max)
    return [
        Hook("polylp.simulator", "run_point"),
        Hook("polylp.simulator", "transmit", starts_frame=True),
        Hook("polylp.simulator", "llr"),
        Hook("polylp.simulator", "decode", note=_iterations, after=admm_check),
        Hook("polylp.simulator", "decode_bp", note=_iterations, after=bp_check),
        Hook("polylp.simulator", "ml_account"),
        Hook("polylp.simulator", "is_codeword"),
        Hook("polylp.admm_decoder", "x_update"),
        Hook("polylp.admm_decoder", "z_update"),
        Hook("polylp.admm_decoder", "lambda_update"),
        Hook("polylp.admm_decoder", "make_output"),
        Hook("polylp.admm_decoder", "project_batch", note=_rows, after=_after_projection),
        Hook("polylp.admm_decoder", "is_codeword"),
        Hook("polylp.bp_decoder", "posterior_llrs", note=_bp_iterations),
        Hook("polylp.bp_decoder", "is_codeword"),
    ]


def projection_failures(samples: list[tuple[np.ndarray, np.ndarray]]) -> int:
    """Sampled project_batch rows that leave the polytope or differ from
    the single-row projection by more than PROJECTION_TOL."""
    bad = 0
    for v, z in samples:
        exact = project_parity_polytope(v)
        if not membership(z) or float(np.max(np.abs(z - exact))) > PROJECTION_TOL:
            bad += 1
    return bad


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def self_seconds_by_layer(spans: SpanTable) -> dict[str, float]:
    """Total self time of each layer (the module part of the span names)."""
    own = spans.self_time
    totals: dict[str, float] = {}
    for i, name in enumerate(spans.names):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + float(own[spans.name == i].sum()) / 1e9
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def layer_metrics(
    spans: SpanTable, counts: dict[str, int], missing: list[str], trials: int
) -> dict[str, float]:
    """Per-layer figures of the traced pass over ``trials`` frames.

    A figure for a layer the workload does not run (projection on BP,
    BP on ADMM) is 0.  A figure whose hook no longer exists is left out.
    """
    dur = spans.duration.astype(float)
    own = spans.self_time.astype(float)

    def total(name: str, of: np.ndarray = dur) -> float:
        return float(of[spans.mask(name)].sum())

    def calls(name: str) -> int:
        return int(spans.mask(name).sum())

    admm = spans.mask("admm_decoder.decode")
    admm_iters = spans.note_a[admm]
    admm_iter_sum = int(admm_iters.sum())
    at_tmax = spans.note_b[admm] == 1
    bp_iter_sum = int(spans.note_a[spans.mask("bp_decoder.posterior_llrs")].sum())

    pp = spans.mask("parity_polytope.project_batch")
    rows, degree = spans.note_a[pp], spans.note_b[pp]
    pp_dur = dur[pp]
    out = {
        "pp.d6.ns_per_row": _ratio(pp_dur[degree == 6].sum(), rows[degree == 6].sum()),
        "pp.d32.ns_per_row": _ratio(pp_dur[degree == 32].sum(), rows[degree == 32].sum()),
        "pp.rows_per_call": _ratio(rows.sum(), pp.sum()),
        "pp.calls_per_iter": _ratio(pp.sum(), admm_iter_sum),
        "pp.inside_after_clip_frac": _ratio(counts.get("pp.inside_rows", 0), rows.sum()),
        "admm.x_update_us": _ratio(total("admm_decoder.x_update"), 1e3 * admm_iter_sum),
        "admm.z_update_self_us": _ratio(total("admm_decoder.z_update", own), 1e3 * admm_iter_sum),
        "admm.lambda_update_us": _ratio(total("admm_decoder.lambda_update"), 1e3 * admm_iter_sum),
        "admm.loop_self_us": _ratio(total("admm_decoder.decode", own), 1e3 * admm_iter_sum),
        "admm.make_output_us": _ratio(total("admm_decoder.make_output"), 1e3 * admm.sum()),
        "admm.iters_p50": float(np.percentile(admm_iters, 50)) if admm_iters.size else 0.0,
        "admm.iters_p95": float(np.percentile(admm_iters, 95)) if admm_iters.size else 0.0,
        "admm.iters_max": float(admm_iters.max()) if admm_iters.size else 0.0,
        "admm.frames_max_iters": float(at_tmax.sum()),
        "admm.tmax_iter_share": _ratio(admm_iters[at_tmax].sum(), admm_iter_sum),
        "bp.us_per_iter": _ratio(total("bp_decoder.posterior_llrs"), 1e3 * bp_iter_sum),
        "bp.decode_self_us": _ratio(
            total("bp_decoder.decode_bp", own), 1e3 * calls("bp_decoder.decode_bp")
        ),
        "codes.is_codeword_us": _ratio(total("codes.is_codeword"), 1e3 * calls("codes.is_codeword")),
        "codes.is_codeword_calls_per_trial": _ratio(calls("codes.is_codeword"), trials),
        "channels.transmit_us": _ratio(total("channels.transmit"), 1e3 * trials),
        "channels.llr_us": _ratio(total("channels.llr"), 1e3 * calls("channels.llr")),
        "simulator.self_us_per_trial": _ratio(total("simulator.run_point", own), 1e3 * trials),
    }
    gone = {name.rsplit(".", 1)[-1] for name in missing}
    return {k: v for k, v in out.items() if not gone & set(PER_LAYER[k][1])}
