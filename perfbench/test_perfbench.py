"""Tests of the benchmark's own code: the array-code constructor, the
calibration kernels, the span tracer, and the metric tables against
BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import workloads  # first: puts this checkout's src on sys.path
import calibration
import layers
import run
from polylp.codes import CodeGenerationError, ParityCheckMatrix, gen_regular_ldpc, is_codeword
from polylp.simulator import TrialStats
from tracer import ANALYSIS, Hook, Tracer

def has_four_cycle(code: ParityCheckMatrix) -> bool:
    """True iff two checks share more than one variable."""
    h = code.to_dense().astype(np.int64)
    overlap = h @ h.T
    np.fill_diagonal(overlap, 0)
    return bool((overlap > 1).any())


BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_array_code_is_regular_four_cycle_free_and_holds_zero_word():
    code = workloads.array_code(37, 4, 32)
    assert (code.n_vars, code.n_checks) == (1184, 148)
    assert set(code.var_degrees.tolist()) == {4}
    assert set(code.check_degrees.tolist()) == {32}
    assert not has_four_cycle(code)
    assert is_codeword(code, np.zeros(code.n_vars, dtype=np.uint8))


def test_array_code_checks_are_circulant_shifts():
    q = 5
    h = workloads.array_code(q, 3, 4).to_dense()
    shift = np.roll(np.eye(q, dtype=np.uint8), 1, axis=1)
    for a in range(3):
        for b in range(4):
            block = h[a * q:(a + 1) * q, b * q:(b + 1) * q]
            assert np.array_equal(block, np.linalg.matrix_power(shift, a * b))


@pytest.mark.parametrize("args", [(36, 4, 32), (37, 0, 32), (37, 4, 38)])
def test_array_code_rejects_bad_parameters(args):
    with pytest.raises(ValueError):
        workloads.array_code(*args)


def test_has_four_cycle_finds_two_checks_sharing_two_variables():
    assert has_four_cycle(ParityCheckMatrix(4, [[0, 1, 2], [1, 2, 3]]))
    assert not has_four_cycle(ParityCheckMatrix(4, [[0, 1], [1, 2], [2, 3]]))


def test_regular_sampler_cannot_reach_degree_32():
    # ~77 expected parallel edges per draw: every draw is rejected.
    with pytest.raises(CodeGenerationError):
        gen_regular_ldpc(2048, 6, 32, seed=7)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    inner.__module__ = outer.__module__ = "fake_layer"
    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_tracer_records_nesting_self_time_and_restores(fake_module):
    original = fake_module.inner
    seen = []
    hooks = [
        Hook("fake_layer", "outer", starts_frame=True),
        Hook("fake_layer", "inner", note=lambda args, out: (args[0], out),
             after=lambda tracer, args, out: seen.append(out)),
    ]
    with Tracer(hooks) as tracer:
        assert fake_module.outer(3) == 8
        assert fake_module.outer(5) == 12
    assert fake_module.inner is original
    spans = tracer.table()
    outer, inner = spans.mask("fake_layer.outer"), spans.mask("fake_layer.inner")
    assert outer.sum() == 2 and inner.sum() == 2
    assert spans.frame[outer].tolist() == [0, 1]
    assert np.all(spans.parent[inner] == np.flatnonzero(outer))
    assert spans.note_a[inner].tolist() == [3, 5] and spans.note_b[inner].tolist() == [4, 6]
    assert seen == [4, 6]
    # The hook's own work is a child span, so it leaves the caller's self time.
    analysis = spans.mask(ANALYSIS)
    assert np.all(spans.parent[analysis] == np.flatnonzero(outer))
    covered = spans.duration[inner] + spans.duration[analysis]
    assert np.array_equal(spans.self_time[outer], spans.duration[outer] - covered)


def test_tracer_reports_missing_hooks_and_still_runs(fake_module):
    with Tracer([Hook("fake_layer", "gone"), Hook("fake_layer", "inner")]) as tracer:
        fake_module.outer(1)
    assert tracer.missing == ["fake_layer.gone"]
    assert tracer.table().mask("fake_layer.inner").sum() == 1


def test_layer_metrics_leave_out_figures_of_missing_hooks(fake_module):
    with Tracer([]) as tracer:
        pass
    figures = layers.layer_metrics(tracer.table(), {}, ["polylp.admm_decoder.project_batch"], 1)
    assert not any(name.startswith("pp.") for name in figures)
    assert "channels.llr_us" in figures


def _chunk(word_errors: int, iters: int = 40) -> run.Chunk:
    stats = TrialStats("admm", "bsc", 0.03, seed=1, n_vars=96, rate=0.5, trials=4,
                       word_errors=word_errors, bit_errors=3 * word_errors,
                       iter_sum_correct=iters)
    return run.Chunk(stats, 0.1)


def test_tally_fails_chunks_that_raise_or_change_between_passes():
    bench = types.SimpleNamespace(
        workload=types.SimpleNamespace(chunk_size=4), code=types.SimpleNamespace(n_vars=96)
    )
    tally = run.Tally(bench)
    tally.add([_chunk(0), _chunk(1), _chunk(0)], "pass 1")
    assert (tally.attempted, tally.failed, tally.problems) == (12, 0, [])
    tally.add([_chunk(0), _chunk(1, iters=41), run.Chunk(None, 0.1)], "pass 2")
    assert (tally.attempted, tally.failed) == (24, 8)
    assert tally.problems == ["pass 2: chunk 1 statistics differ from the first pass"]
    tally.add([_chunk(5)], "traced pass")  # more word errors than trials
    assert tally.failed == 12


def test_kernel_scales_follow_a_speed_change_and_outvote_one_sample():
    kernel = calibration.SetupKernel()
    # The machine halves its speed after the third timing; sample 1 is disturbed.
    samples = [0.01, 0.05, 0.01, 0.01, 0.02, 0.02, 0.02, 0.02]
    scales = [s / kernel.nominal_seconds for s in kernel.scales(samples)]
    assert len(scales) == len(samples) - 1
    assert scales[:2] == [100.0, 100.0]
    assert scales[-2:] == [50.0, 50.0]


def test_decode_kernel_rounds_follow_the_projection_size():
    assert calibration.DecodeKernel(96, 48, 6, 1.0).rounds == 87
    assert calibration.DecodeKernel(1184, 148, 32, 1.0).rounds == 1
    assert calibration.DecodeKernel(1002, 501, 6, 1.0).seconds() > 0.0


def test_metric_tables_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
