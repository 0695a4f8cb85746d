"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated at runtime.
"""

import os
import time

import numpy as np
import pytest

from polylp import (
    AdmmConfig,
    Bsc,
    DecoderRef,
    ProjectionWorkspace,
    STATUS_CONVERGED,
    decode,
    decode_dual_ascent,
    DualAscentConfig,
    gen_regular_ldpc,
    is_codeword,
    llr,
    membership,
    project_parity_polytope,
    run_point,
    stats_to_csv,
    sweep,
    transmit,
)
from polylp import bp_decoder
from polylp.bp_decoder import BpConfig, posterior_llrs
from oracles import (
    codebook,
    even_weight_vertices,
    exact_marginals,
    hamming_7_4,
    hull_project,
    maximize_by_enumeration,
    maximize_linear,
    random_tree_code,
)

WORKERS = min(os.cpu_count() or 1, 4)


def report(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def trial_gamma(code, channel, seed, point, trial):
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(point, trial))
    )
    received = transmit(np.zeros(code.n_vars, dtype=np.uint8), channel, rng)
    return llr(received, channel)


def test_criterion_01_projection_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(1, 9):
        verts = even_weight_vertices(d)
        samples = rng.uniform(-2.0, 3.0, size=(10_000, d))
        for u in samples:
            z = project_parity_polytope(u)
            z_oracle = hull_project(u, verts)
            err = float(np.abs(z - z_oracle).max())
            if err > worst:
                worst = err
            assert err <= 1e-6, (d, u, err)
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-6 and elapsed < 120.0,
        f"d in 1..8 x 10^4 samples, worst |z - oracle|_inf = {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_projection_property_suite():
    rng = np.random.default_rng(102)
    failures = 0
    checked_bounds = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 11))
        u = rng.uniform(-2.0, 3.0, d)
        ws = ProjectionWorkspace()
        z = project_parity_polytope(u, ws)

        ok = np.abs(project_parity_polytope(z) - z).max() <= 1e-9  # idempotence
        order = np.argsort(-u, kind="stable")
        zs = z[order]
        ok &= bool(np.all(np.diff(zs) <= 1e-12))  # order preservation
        sigma = rng.permutation(d)
        ok &= np.abs(project_parity_polytope(u[sigma]) - z[sigma]).max() <= 1e-12
        s = float(np.clip(u, 0, 1).sum())
        norm = float(z.sum())
        ok &= 2 * np.floor(s / 2) - 1e-9 <= norm <= 2 * np.ceil(s / 2) + 1e-9
        ok &= membership(z, 1e-7)
        if ws.beta_opt > 0.0:  # pruning bounds apply when the search engaged
            v = u[order]
            r = ws.r
            if r + 1 <= d:
                ok &= ws.beta_opt <= v[r] + 1e-9
            if r + 2 <= d:
                ok &= ws.beta_opt < 1.0 - v[r + 1] + 1e-9
            checked_bounds += 1
        failures += not ok
    report(
        2,
        failures == 0 and checked_bounds > 1000,
        f"10^4 cases, {failures} failures "
        f"({checked_bounds} exercised the pruning bounds)",
    )


def test_criterion_03_maximize_linear_vs_enumeration():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 11))
        c = rng.normal(0.0, 2.0, d)
        if rng.random() < 0.2:
            c[rng.random(d) < 0.3] = 0.0
        z = maximize_linear(c)
        best = maximize_by_enumeration(c)
        if z.sum() % 2 != 0 or abs(float(c @ z) - best) > 1e-12:
            failures += 1
    elapsed = time.perf_counter() - t0
    report(3, failures == 0 and elapsed < 30.0,
           f"10^4 random costs d<=10, {failures} failures, {elapsed:.1f}s")


def _ml_certificate_chunk(args):
    code_index, lo, hi = args
    code = hamming_7_4() if code_index == 0 else gen_regular_ldpc(16, 3, 6, seed=code_index - 1)
    book = codebook(code.to_dense())
    assert len(book) <= 2**12
    channel = Bsc(0.05)
    certified = violations = 0
    for t in range(lo, hi):
        gamma = trial_gamma(code, channel, seed=104, point=code_index, trial=t)
        out = decode(gamma, code)
        if out.integral and is_codeword(code, out.hard_decision):
            certified += 1
            best = float((book @ gamma).min())
            if float(gamma @ out.hard_decision) > best + 1e-6:
                violations += 1
    return certified, violations


def test_criterion_04_ml_certificate():
    from concurrent.futures import ProcessPoolExecutor

    t0 = time.perf_counter()
    tasks = [
        (ci, lo, min(lo + 250, 1000))
        for ci in range(21)
        for lo in range(0, 1000, 250)
    ]
    if WORKERS > 1:
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            parts = list(pool.map(_ml_certificate_chunk, tasks))
    else:
        parts = [_ml_certificate_chunk(t) for t in tasks]
    certified = sum(p[0] for p in parts)
    violations = sum(p[1] for p in parts)
    elapsed = time.perf_counter() - t0
    report(
        4,
        violations == 0 and elapsed < 300.0 and certified > 10_000,
        f"21 codes x 1000 trials, {certified} integral codeword outputs, "
        f"{violations} ML violations, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def convergence_code():
    return gen_regular_ldpc(96, 3, 6, seed=5)


def test_criterion_05_convergence_behavior(convergence_code):
    t0 = time.perf_counter()
    code = convergence_code
    channel = Bsc(0.02)
    cfg = AdmmConfig()  # mu=3, eps=1e-5, t_max=1000, rho=1.9
    correct_iters = []
    for t in range(2000):
        gamma = trial_gamma(code, channel, seed=105, point=0, trial=t)
        out = decode(gamma, code, cfg)
        if not out.hard_decision.any():
            correct_iters.append(out.iterations)
    correct_iters = np.array(correct_iters)
    frac_fast = float((correct_iters < 200).mean())
    mean_iters = float(correct_iters.mean())
    elapsed = time.perf_counter() - t0
    report(
        5,
        frac_fast >= 0.95 and mean_iters <= cfg.t_max / 5 and elapsed < 300.0,
        f"{len(correct_iters)} correct decodes, {100 * frac_fast:.2f}% < 200 "
        f"iterations, mean {mean_iters:.1f} <= {cfg.t_max / 5}, {elapsed:.1f}s",
    )


def test_criterion_06_over_relaxation_speedup(convergence_code):
    code = convergence_code
    channel = Bsc(0.02)
    iters = {1.0: 0, 1.9: 0}
    for t in range(1000):
        gamma = trial_gamma(code, channel, seed=106, point=0, trial=t)
        for rho in iters:
            iters[rho] += decode(gamma, code, AdmmConfig(rho=rho)).iterations
    ratio = iters[1.9] / iters[1.0]
    report(
        6,
        ratio <= 0.8,
        f"1000 paired trials, mean iterations ratio rho=1.9 vs rho=1.0 "
        f"= {ratio:.3f} <= 0.8",
    )


def test_criterion_07_parameter_robustness(convergence_code):
    code = convergence_code
    channel = Bsc(0.03)

    def wer_of(config, point_index):
        stats = run_point(
            code,
            channel,
            DecoderRef("admm", config),
            n_trials=5000,
            seed=107,
            point_index=point_index,
            workers=WORKERS,
        )
        return stats.wer, stats.trials

    def agree(w1, n1, w2, n2):
        se = np.sqrt(w1 * (1 - w1) / n1 + w2 * (1 - w2) / n2)
        return abs(w1 - w2) <= 2.0 * se, se

    # Identical trial seeds per pair so only the parameter varies.
    w_mu3, n1 = wer_of(AdmmConfig(mu=3.0), 0)
    w_mu7, n2 = wer_of(AdmmConfig(mu=7.0), 0)
    ok_mu, se_mu = agree(w_mu3, n1, w_mu7, n2)

    w_eps4, n3 = wer_of(AdmmConfig(epsilon=1e-4), 1)
    w_eps6, n4 = wer_of(AdmmConfig(epsilon=1e-6), 1)
    ok_eps, se_eps = agree(w_eps4, n3, w_eps6, n4)

    report(
        7,
        ok_mu and ok_eps,
        f"WER mu=3 {w_mu3:.4f} vs mu=7 {w_mu7:.4f} (2se={2 * se_mu:.4f}); "
        f"eps=1e-4 {w_eps4:.4f} vs eps=1e-6 {w_eps6:.4f} (2se={2 * se_eps:.4f})",
    )


def test_criterion_08_bp_tree_exactness(monkeypatch):
    # Every frame runs all 40 rounds: the codeword exit never fires.
    monkeypatch.setattr(bp_decoder, "is_codeword", lambda code, x: False)
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(50):
        code = random_tree_code(rng, n_max=12)
        gamma = rng.normal(0.0, 1.5, code.n_vars)
        beliefs, _, _ = posterior_llrs(
            gamma, code, BpConfig(t_max=40, llr_clip=500.0)
        )
        err = float(np.abs(beliefs - exact_marginals(gamma, code)).max())
        worst = max(worst, err)
    report(8, worst <= 1e-6,
           f"50 cycle-free codes N<=12, worst belief error {worst:.2e} <= 1e-6")


def test_criterion_09_cross_decoder_consistency():
    rng = np.random.default_rng(109)
    from polylp import ParityCheckMatrix

    fixtures = [ParityCheckMatrix.from_dense([[1, 1, 1, 1]]), hamming_7_4()]
    compared = 0
    mismatches = 0
    for code in fixtures:
        for _ in range(60):
            gamma = rng.normal(0.9, 1.0, code.n_vars)
            da = decode_dual_ascent(gamma, code, DualAscentConfig(step=0.1, t_max=2000))
            ad = decode(gamma, code)
            if (
                da.status == STATUS_CONVERGED
                and ad.status == STATUS_CONVERGED
                and da.integral
                and ad.integral
            ):
                compared += 1
                mismatches += not np.array_equal(da.hard_decision, ad.hard_decision)
    report(
        9,
        mismatches == 0 and compared >= 20,
        f"{compared} jointly converged integral decodes, {mismatches} disagreements",
    )


def test_criterion_10_worker_invariant_determinism():
    code = gen_regular_ldpc(48, 3, 6, seed=10)
    points = [Bsc(0.02), Bsc(0.06)]
    ref = DecoderRef("admm", AdmmConfig(t_max=200))
    csv_1 = stats_to_csv(
        sweep(code, points, ref, n_trials=120, seed=110, workers=1), timing=False
    )
    csv_3 = stats_to_csv(
        sweep(code, points, ref, n_trials=120, seed=110, workers=3), timing=False
    )
    report(
        10,
        csv_1 == csv_3,
        f"sweep CSV byte-identical across worker counts "
        f"({len(csv_1.splitlines()) - 1} data rows)",
    )
