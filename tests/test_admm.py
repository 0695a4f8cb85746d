import numpy as np
import pytest

from polylp import (
    AdmmConfig,
    ParityCheckMatrix,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    Awgn,
    Bsc,
    decode,
    decode_bp,
    decode_dual_ascent,
    gen_regular_ldpc,
    is_codeword,
    llr,
    membership,
    transmit,
)
from polylp import admm_decoder
from polylp.admm_decoder import INTEGRALITY_TOL, lambda_update, x_update, z_update
from oracles import (
    check_neighborhoods,
    check_slice,
    codebook,
    decode_scaled_form,
    fundamental_lp,
    hamming_7_4,
    interleaved_code,
    project_batch_reference,
    relabel_vars,
    x_update_reference,
)

SINGLE_CHECK = ParityCheckMatrix.from_dense([[1, 1, 1, 1]])


def zeros(code):
    return np.zeros(code.n_edges)


# The variables [1, 1, 0, 0] gathered onto SINGLE_CHECK's edges.
CODEWORD_EDGES = np.array([1.0, 1.0, 0.0, 0.0])[SINGLE_CHECK.edge_var]


class TestUpdateSteps:
    def test_x_update_clamps_low(self):
        # Three checks on one variable, z = v = 0 (so lam = 0), gamma = 6, mu = 3.
        code = ParityCheckMatrix.from_dense([[1, 1], [1, 1], [1, 1]])
        gamma = np.array([6.0, 6.0])
        x = x_update(zeros(code), zeros(code), code, gamma / 3.0)
        assert np.all(x == 0.0)

    def test_x_update_clamps_high(self):
        code = ParityCheckMatrix.from_dense([[1, 1], [1, 1], [1, 1]])
        z = np.ones(code.n_edges)
        gamma = np.array([-6.0, -6.0])
        x = x_update(z, z, code, gamma / 3.0)
        assert np.all(x == 1.0)  # raw value 5/3 clamps to 1

    def test_x_update_fixed_point(self):
        code = ParityCheckMatrix.from_dense([[1, 1], [1, 1], [1, 1]])
        z = np.full(code.n_edges, 0.5)
        x = x_update(z, z, code, np.zeros(2))
        assert np.allclose(x, 0.5)

    def test_z_update_member_is_fixed(self):
        zero = zeros(SINGLE_CHECK)
        v = lambda_update(zero, CODEWORD_EDGES, zero, AdmmConfig(rho=1.0))
        z = z_update(v, SINGLE_CHECK)
        assert np.allclose(z, [1, 1, 0, 0], atol=1e-12)

    def test_z_update_projects(self):
        code = ParityCheckMatrix.from_dense([[1, 1, 1]])
        x = np.array([1.0, 0.0, 0.0])
        v = lambda_update(zeros(code), x[code.edge_var], zeros(code), AdmmConfig(rho=1.0))
        z = z_update(v, code)
        assert np.allclose(z, [2 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_over_relaxation_inert_at_consensus(self):
        # z = x and lam = 0, so v = z + lam / mu = x too.
        v = lambda_update(CODEWORD_EDGES, CODEWORD_EDGES, CODEWORD_EDGES, AdmmConfig(rho=1.9))
        z = z_update(v, SINGLE_CHECK)
        assert np.allclose(z, [1, 1, 0, 0], atol=1e-12)

    def test_lambda_zero_residual(self):
        zero = zeros(SINGLE_CHECK)
        v = lambda_update(zero, CODEWORD_EDGES, zero, AdmmConfig(rho=1.0))
        z = z_update(v, SINGLE_CHECK)
        assert np.allclose(v - z, 0.0, atol=1e-12)

    def test_lambda_arithmetic(self):
        # With lam = 0 (so v = z) and rho = 1 the new projection input is
        # the variables themselves, so against replicas that stay at z the
        # unscaled dual lam = mu * (v - z) moves by mu * (x - z).
        cfg = AdmmConfig(mu=3.0, rho=1.0)
        z = np.array([0.5, 0.5, 0.5])
        x_edges = np.array([0.6, 0.4, 0.5])
        # Read-only inputs: the step writes none of them.
        z.flags.writeable = x_edges.flags.writeable = False
        v = lambda_update(z, x_edges, z, cfg)
        assert np.allclose(cfg.mu * (v - z), [0.3, -0.3, 0.0], atol=1e-12)

    def test_lambda_constant_across_consensus_iterations(self):
        z = v = zeros(SINGLE_CHECK)
        cfg = AdmmConfig(rho=1.0)
        for _ in range(2):
            v = lambda_update(v, CODEWORD_EDGES, z, cfg)
            z = z_update(v, SINGLE_CHECK)
        assert np.allclose(v - z, 0.0, atol=1e-12)


class TestDecodeFixtures:
    def test_single_check_lp_optimum(self):
        # Cheapest even-weight vertex is the origin: min positive pair
        # costs 2.2 - 1.0 = 1.2 > 0.
        out = decode(np.array([2.2, 2.2, -1.0, 2.2]), SINGLE_CHECK)
        assert out.status == STATUS_CONVERGED
        assert out.integral
        assert np.allclose(out.x, 0.0, atol=1e-4)
        assert out.hard_decision.tolist() == [0, 0, 0, 0]
        assert out.ml_certificate

    def test_all_positive_llrs(self):
        code = gen_regular_ldpc(30, 3, 6, seed=1)
        out = decode(np.ones(30), code)
        assert out.status == STATUS_CONVERGED
        assert out.integral
        assert out.iterations <= 5
        assert not out.hard_decision.any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode(np.ones(3), SINGLE_CHECK)

    @pytest.mark.parametrize("llr_isolated, bit", [(-0.5, 1), (0.0, 0), (0.5, 0)])
    def test_isolated_variable(self, llr_isolated, bit):
        # A variable in no check minimizes its own cost term: 1 for a
        # negative LLR, else 0.  It leaves the other variables untouched.
        # decode sets it once per frame, so both loop exits are checked.
        base = gen_regular_ldpc(30, 3, 6, seed=1)
        code = ParityCheckMatrix.from_dense(np.hstack([base.to_dense(), np.zeros((15, 1))]))
        assert code.isolated_vars.tolist() == [30]
        gamma = np.random.default_rng(3).normal(0.6, 1.0, 30)
        for cfg, status in ((AdmmConfig(), STATUS_CONVERGED), (AdmmConfig(t_max=1), STATUS_MAX_ITERS)):
            alone = decode(gamma, base, cfg)
            out = decode(np.append(gamma, llr_isolated), code, cfg)
            assert alone.status == status
            assert out.x[-1] == bit and out.hard_decision[-1] == bit
            assert np.array_equal(out.x[:-1], alone.x)
            assert np.array_equal(out.hard_decision[:-1], alone.hard_decision)
            assert (out.status, out.iterations) == (alone.status, alone.iterations)
            assert out.ml_certificate == alone.ml_certificate

    def test_hamming_one_flip_matches_lp_and_ml(self):
        # Every <=1-flip pattern is solved to the LP optimum.  Flips on
        # the three degree-1 variables tie the zero codeword against a
        # fractional point, so integrality is only required elsewhere.
        code = hamming_7_4()
        book = codebook(code.to_dense())
        assert len(book) == 16
        for flip in [None, 0, 1, 2, 3, 4, 5, 6]:
            y = np.zeros(7, dtype=np.uint8)
            if flip is not None:
                y[flip] = 1
            gamma = llr(y, Bsc(0.05))
            out = decode(gamma, code)
            lp_value, _ = fundamental_lp(gamma, code)
            assert float(gamma @ out.x) == pytest.approx(lp_value, abs=1e-3)
            if flip is None or code.var_degrees[flip] >= 2:
                ml = book[np.argmin(book @ gamma)]
                assert out.integral
                assert np.array_equal(out.hard_decision, ml)
                assert out.ml_certificate


class TestDecodeProperties:
    def test_determinism(self):
        code = gen_regular_ldpc(48, 3, 6, seed=4)
        rng = np.random.default_rng(0)
        gamma = rng.normal(0.5, 1.0, 48)
        a = decode(gamma, code)
        b = decode(gamma, code)
        assert np.array_equal(a.x, b.x) and a.iterations == b.iterations

    def test_feasibility_at_convergence(self):
        code = gen_regular_ldpc(48, 3, 6, seed=4)
        rng = np.random.default_rng(1)
        gamma = rng.normal(0.8, 1.0, 48)
        cfg = AdmmConfig()
        z = v = zeros(code)
        threshold = cfg.epsilon**2 * code.n_edges
        for t in range(1, cfg.t_max + 1):
            x = x_update(z, v, code, gamma / cfg.mu)
            gathered = x[code.edge_var]
            v = lambda_update(v, gathered, z, cfg)
            z_new = z_update(v, code)
            primal = float(((gathered - z_new) ** 2).sum())
            moved = float(((z_new - z) ** 2).sum())
            z = z_new
            if primal < threshold and moved < threshold:
                break
        assert primal < threshold
        # decode applies the same two-part rule.
        out = decode(gamma, code, cfg)
        assert out.iterations == t and np.array_equal(out.x, x)
        for j in range(code.n_checks):
            sl = check_slice(code, j)
            d = sl.stop - sl.start
            assert membership(z[sl], 1e-5)
            assert np.abs(gathered[sl] - z[sl]).max() <= 10 * cfg.epsilon * np.sqrt(d)

    def test_ml_certificate_on_small_codes(self):
        rng = np.random.default_rng(2)
        code = gen_regular_ldpc(16, 3, 6, seed=9)
        book = codebook(code.to_dense())
        assert len(book) <= 2**12
        certified = 0
        for _ in range(200):
            y = (rng.random(16) < 0.05).astype(np.uint8)
            gamma = llr(y, Bsc(0.05))
            out = decode(gamma, code)
            if out.integral and is_codeword(code, out.hard_decision):
                best = float((book @ gamma).min())
                assert float(gamma @ out.hard_decision) <= best + 1e-6
                certified += 1
        assert certified > 100  # the check must not be vacuous

    def test_objective_approaches_lp_value(self):
        code = gen_regular_ldpc(24, 3, 6, seed=3)
        rng = np.random.default_rng(5)
        gamma = rng.normal(0.4, 1.0, 24)
        lp_value, _ = fundamental_lp(gamma, code)
        gaps = []
        for t in (100, 1000):
            # Tiny epsilon forces the full iteration budget.
            out = decode(gamma, code, AdmmConfig(epsilon=1e-14, t_max=t, rho=1.0))
            gaps.append(abs(float(gamma @ out.x) - lp_value))
        assert gaps[1] <= gaps[0] + 1e-9
        assert gaps[1] <= 1e-3

    def test_scaling_equivariance(self):
        code = gen_regular_ldpc(24, 3, 6, seed=6)
        rng = np.random.default_rng(7)
        gamma = rng.normal(0.3, 1.0, 24)
        scale = 3.7
        base = decode(gamma, code, AdmmConfig(mu=3.0, t_max=50, epsilon=1e-14))
        scaled = decode(scale * gamma, code, AdmmConfig(mu=3.0 * scale, t_max=50, epsilon=1e-14))
        assert np.abs(base.x - scaled.x).max() <= 1e-9

    def test_message_passing_form_matches_one_iteration(self):
        # One iteration written as variable/check messages with scaled
        # duals reproduces one iteration of the phase functions.
        code = gen_regular_ldpc(18, 3, 6, seed=8)
        rng = np.random.default_rng(9)
        gamma = rng.normal(0.0, 1.0, 18)
        cfg = AdmmConfig(rho=1.0, mu=2.5)

        z0 = rng.uniform(0, 1, code.n_edges)
        lam0 = rng.normal(0, 1, code.n_edges)
        # The phase functions carry v = z + lam / mu in place of lam.
        v0 = z0 + lam0 / cfg.mu
        x = x_update(z0, v0, code, gamma / cfg.mu)
        v = lambda_update(v0, x[code.edge_var], z0, cfg)
        z = z_update(v, code)
        lam = cfg.mu * (v - z)

        # Message form: lam' = lam/mu; variable messages average the
        # incoming check messages minus the scaled duals.
        from polylp import project_parity_polytope

        lam_s = lam0 / cfg.mu
        acc = np.bincount(code.edge_var, weights=z0 - lam_s, minlength=code.n_vars)
        m_var = np.clip((acc - gamma / cfg.mu) / code.var_degrees, 0.0, 1.0)
        m_check = np.empty(code.n_edges)
        lam_next = np.empty(code.n_edges)
        for j in range(code.n_checks):
            sl = check_slice(code, j)
            incoming = m_var[code.edge_var[sl]]
            m_check[sl] = project_parity_polytope(incoming + lam_s[sl])
            lam_next[sl] = lam_s[sl] + incoming - m_check[sl]
        assert np.abs(m_var - x).max() <= 1e-12
        assert np.abs(m_check - z).max() <= 1e-9
        assert np.abs(lam_next * cfg.mu - lam).max() <= 1e-9

    def test_config_validation(self):
        # nan and inf fail too: nan used to pass every comparison.
        # So do bools and non-numbers, with a ValueError that names the field.
        for name, values in [("mu", [0.0, np.nan, np.inf, True, "3"]),
                             ("rho", [2.0, np.nan, True, "3"]),
                             ("epsilon", [-1.0, np.nan, np.inf, True, "3"]),
                             ("t_max", [0, 2.5, True])]:
            for value in values:
                with pytest.raises(ValueError, match=name):
                    AdmmConfig(**{name: value})


# (code, BSC crossover, t_max, frames): perfbench's N=96 code at its
# point and at a worse one, the pinned sweeps' code and points, and a
# code of mixed check degrees.
DIFFERENTIAL_CASES = {
    "n96-0.015": (gen_regular_ldpc(96, 3, 6, seed=7), 0.015, 1000, 1000),
    "n96-0.05": (gen_regular_ldpc(96, 3, 6, seed=7), 0.05, 1000, 40),
    "n48-0.03": (gen_regular_ldpc(48, 3, 6, seed=1), 0.03, 100, 200),
    "n48-0.07": (gen_regular_ldpc(48, 3, 6, seed=1), 0.07, 100, 200),
    "interleaved-0.08": (interleaved_code(24, 14, seed=5), 0.08, 1000, 50),
}


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
def test_two_array_loop_matches_scaled_form(case):
    # decode carries (z, v) and folds the over-relaxation into the dual
    # step; the scaled form carries (z, u) and mixes v afresh.  They are
    # the same recurrence, so only the last ulps of x may differ.
    code, p, t_max, frames = DIFFERENTIAL_CASES[case]
    cfg = AdmmConfig(t_max=t_max)
    rng = np.random.default_rng(18)
    worst = 0.0
    statuses = set()
    for _ in range(frames):
        gamma = llr((rng.random(code.n_vars) < p).astype(np.uint8), Bsc(p))
        a = decode(gamma, code, cfg)
        b = decode_scaled_form(gamma, code, cfg)
        assert (a.iterations, a.status, a.integral, a.ml_certificate) == (
            b.iterations, b.status, b.integral, b.ml_certificate)
        assert np.array_equal(a.hard_decision, b.hard_decision)
        worst = max(worst, float(np.abs(a.x - b.x).max()))
        statuses.add(a.status)
    assert worst <= 1e-12
    assert STATUS_CONVERGED in statuses


class TestReferenceKernels:
    """``decode`` gives the same bytes on the one-expression x-update and
    the projection kernel its own were cut down from."""

    @staticmethod
    def frames():
        rng = np.random.default_rng(2025)
        n96 = gen_regular_ldpc(96, 3, 6, seed=7)
        small = interleaved_code(24, 14, seed=5)
        for code, points, count in ((n96, (0.015, 0.05), 30), (small, (0.03, 0.1), 15)):
            for p in points:
                for _ in range(count):
                    yield code, llr((rng.random(code.n_vars) < p).astype(np.uint8), Bsc(p))
        for snr in (2.0, 4.0):
            ch = Awgn(snr, n96.design_rate)
            for _ in range(8):
                yield n96, llr(transmit(np.zeros(n96.n_vars, np.uint8), ch, rng), ch)

    def test_decode_is_byte_identical(self, monkeypatch):
        frames = list(self.frames())
        outs = [decode(gamma, code) for code, gamma in frames]
        assert {out.status for out in outs} == {STATUS_CONVERGED, STATUS_MAX_ITERS}
        monkeypatch.setattr(admm_decoder, "project_batch", project_batch_reference)
        monkeypatch.setattr(admm_decoder, "x_update", x_update_reference)
        for (code, gamma), a in zip(frames, outs):
            b = decode(gamma, code)
            assert a.x.tobytes() == b.x.tobytes()
            assert (a.status, a.iterations, a.integral, a.ml_certificate) == (
                b.status, b.iterations, b.integral, b.ml_certificate)
            assert a.hard_decision.tobytes() == b.hard_decision.tobytes()


class TestInterleavedDegrees:
    """A code whose checks of one degree are not adjacent, so z_update
    reads and writes its degree groups through edge indices."""

    CODE = interleaved_code(24, 14, seed=5)

    def test_z_update_matches_per_check_projection(self):
        from polylp import project_parity_polytope

        code = self.CODE
        assert len(code.checks_by_degree) > 1
        rng = np.random.default_rng(12)
        cfg = AdmmConfig()
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, code.n_vars)
            z0 = rng.uniform(-0.5, 1.5, code.n_edges)
            u = rng.normal(0.0, 2.0, code.n_edges) / cfg.mu
            v = cfg.rho * x[code.edge_var] + (1.0 - cfg.rho) * z0 + u
            z = z_update(lambda_update(z0 + u, x[code.edge_var], z0, cfg), code)
            for j in range(code.n_checks):
                sl = check_slice(code, j)
                assert np.abs(z[sl] - project_parity_polytope(v[sl])).max() <= 1e-9

    def test_decode_invariant_under_check_permutation(self):
        code = self.CODE
        order = np.random.default_rng(13).permutation(code.n_checks)
        shuffled = ParityCheckMatrix(code.n_vars, [check_neighborhoods(code)[j] for j in order])
        rng = np.random.default_rng(14)
        statuses = set()
        for _ in range(20):
            gamma = llr((rng.random(code.n_vars) < 0.08).astype(np.uint8), Bsc(0.08))
            a = decode(gamma, code)
            b = decode(gamma, shuffled)
            assert np.array_equal(a.hard_decision, b.hard_decision)
            assert a.status == b.status
            assert np.abs(a.x - b.x).max() <= 1e-9
            statuses.add(a.status)
        assert STATUS_CONVERGED in statuses


@pytest.mark.parametrize(
    "code",
    [gen_regular_ldpc(48, 3, 6, seed=4), interleaved_code(24, 14, seed=5)],
    ids=["regular", "interleaved"],
)
def test_decode_invariant_under_variable_relabeling(code):
    # Renaming the variables reorders the entries inside each check and
    # the order of the edges of every variable's checks stays the same,
    # so the outputs are the original ones, permuted.
    perm = np.random.default_rng(10).permutation(code.n_vars)
    relabeled = relabel_vars(code, perm)
    rng = np.random.default_rng(2)
    statuses = set()
    for _ in range(30):
        gamma = llr((rng.random(code.n_vars) < 0.08).astype(np.uint8), Bsc(0.08))
        moved = np.empty_like(gamma)
        moved[perm] = gamma
        a = decode(gamma, code)
        b = decode(moved, relabeled)
        assert np.array_equal(a.hard_decision, b.hard_decision[perm])
        assert (a.status, a.iterations) == (b.status, b.iterations)
        assert np.abs(a.x - b.x[perm]).max() <= 1e-9
        statuses.add(a.status)
    assert statuses == {STATUS_CONVERGED, STATUS_MAX_ITERS}


class TestDegenerateInputs:
    CODE = gen_regular_ldpc(30, 3, 6, seed=1)

    def test_all_zero_llrs(self):
        # BSC p = 0.5: every codeword costs 0.  ADMM's first x-update is 0
        # everywhere and dual ascent's Heaviside is 0 at 0, so both stop
        # after one iteration on the certified zero word.  BP's beliefs
        # stay exactly 0, never strictly decided, so it runs to t_max.
        gamma = llr(np.zeros(30, dtype=np.uint8), Bsc(0.5))
        assert np.all(gamma == 0.0)
        for out in (decode(gamma, self.CODE), decode_dual_ascent(gamma, self.CODE)):
            assert (out.status, out.iterations) == (STATUS_CONVERGED, 1)
            assert out.ml_certificate and np.all(out.x == 0.0)
        bp = decode_bp(gamma, self.CODE)
        assert (bp.status, bp.iterations) == (STATUS_MAX_ITERS, 1000)
        assert not bp.hard_decision.any() and not bp.integral

    @pytest.mark.parametrize("llr_bit", [-5.0, 0.0, 2.0])
    def test_lone_degree_one_check(self, llr_bit):
        # PP_1 = {0}: the only point of the check's polytope.
        out = decode(np.array([llr_bit]), ParityCheckMatrix(1, [[0]]))
        assert out.status == STATUS_CONVERGED
        assert out.x.tolist() == [0.0] and out.ml_certificate

    def test_degree_one_check_forces_its_variable_to_zero(self):
        # An extra check on variable 4 alone; its LLR favours 1 strongly.
        code = ParityCheckMatrix(30, list(check_neighborhoods(self.CODE)) + [[4]])
        rng = np.random.default_rng(3)
        certified = 0
        for _ in range(12):
            gamma = llr((rng.random(30) < 0.05).astype(np.uint8), Bsc(0.05))
            gamma[4] = -3.0
            out = decode(gamma, code)
            assert out.x[4] <= INTEGRALITY_TOL and out.hard_decision[4] == 0
            certified += out.ml_certificate
        assert certified >= 6

    def test_duplicated_check_leaves_integral_outputs_unchanged(self):
        # A repeated check adds no constraint, so the LP and its integral
        # optima are the same.  ADMM's path differs (the repeated check's
        # variables average one more replica), so only frames that end
        # integral are compared.
        code = self.CODE
        doubled = ParityCheckMatrix(30, list(check_neighborhoods(code)) + [check_neighborhoods(code)[2]])
        rng = np.random.default_rng(5)
        compared = 0
        for _ in range(30):
            gamma = llr((rng.random(30) < 0.08).astype(np.uint8), Bsc(0.08))
            a = decode(gamma, code)
            b = decode(gamma, doubled)
            if a.status == STATUS_CONVERGED and a.integral:
                assert b.status == STATUS_CONVERGED and b.integral
                assert np.abs(a.x - b.x).max() <= 1e-9
                assert np.array_equal(a.hard_decision, b.hard_decision)
                compared += 1
        assert compared >= 10
