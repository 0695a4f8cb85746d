import numpy as np
import pytest

from polylp import (
    DualAscentConfig,
    STATUS_MAX_ITERS,
    gen_regular_ldpc,
    ParityCheckMatrix,
    STATUS_CONVERGED,
    Bsc,
    decode,
    decode_dual_ascent,
    is_codeword,
    llr,
)
from oracles import check_slice, hamming_7_4, interleaved_code, maximize_linear, maximize_linear_scalar

SINGLE_CHECK = ParityCheckMatrix.from_dense([[1, 1, 1, 1]])


class TestDualAscent:
    def test_heaviside_at_zero_duals(self):
        # gamma = -1 turns the bit on; gamma = 2 leaves it off.
        code = ParityCheckMatrix.from_dense([[1, 1]])
        out = decode_dual_ascent(np.array([-1.0, 2.0]), code, DualAscentConfig(t_max=1))
        assert out.x.tolist() == [1.0, 0.0]

    def test_replica_step_is_linear_maximization(self):
        lam = np.array([3.0, 1.0, -2.0])
        assert np.array_equal(maximize_linear(lam), [1, 1, 0])

    def test_all_positive_immediate_convergence(self):
        code = ParityCheckMatrix.from_dense([[1, 1, 0, 1], [0, 1, 1, 1]])
        out = decode_dual_ascent(np.full(4, 0.7), code)
        assert out.status == STATUS_CONVERGED
        assert out.iterations == 1
        assert not out.hard_decision.any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode_dual_ascent(np.ones(3), SINGLE_CHECK)

    def test_step_validation(self):
        for name, values in [("step", [0.0, np.nan, np.inf, True, "3"]), ("t_max", [0, 2.5, True])]:
            for value in values:
                with pytest.raises(ValueError, match=name):
                    DualAscentConfig(**{name: value})

    @pytest.mark.parametrize(
        "code",
        [gen_regular_ldpc(48, 3, 6, seed=2), interleaved_code(24, 14, seed=5), hamming_7_4()],
        ids=["regular", "interleaved", "hamming"],
    )
    def test_converged_output_is_a_certified_codeword(self, code):
        # The loop stops only at exact consensus, where every check's
        # variables sit on one of its even vertices.
        rng = np.random.default_rng(4)
        converged = 0
        for p in (0.02, 0.06):
            for _ in range(15):
                gamma = llr((rng.random(code.n_vars) < p).astype(np.uint8), Bsc(p))
                out = decode_dual_ascent(gamma, code, DualAscentConfig(t_max=300))
                if out.status == STATUS_CONVERGED:
                    converged += 1
                    assert is_codeword(code, out.hard_decision)
                    assert out.integral and out.ml_certificate
        assert converged >= 10

    def test_max_iters_codeword_is_not_certified(self):
        # At t_max the Heaviside step can be a codeword without consensus.
        # Here it is the zero word (cost 0), but ADMM converges to a
        # codeword of cost -0.367, so the zero word is not ML.
        code = hamming_7_4()
        gamma = np.array([-0.551, 0.881, 1.053, -0.582, 1.39, -0.287, 2.458])
        out = decode_dual_ascent(gamma, code)
        assert (out.status, out.iterations) == (STATUS_MAX_ITERS, 1000)
        assert out.integral and not out.hard_decision.any()
        assert not out.ml_certificate
        ml = decode(gamma, code)
        assert ml.status == STATUS_CONVERGED and ml.ml_certificate
        assert ml.hard_decision.tolist() == [1, 0, 1, 1, 0, 1, 0]
        assert float(gamma @ ml.hard_decision) < 0.0

    def test_agrees_with_admm_when_both_converge(self):
        # Fixture sweep: whenever dual ascent reaches zero residual with
        # an integral iterate, its hard decision matches ADMM's.
        rng = np.random.default_rng(0)
        fixtures = [SINGLE_CHECK, hamming_7_4()]
        compared = 0
        for code in fixtures:
            for _ in range(40):
                gamma = rng.normal(0.9, 1.0, code.n_vars)
                da = decode_dual_ascent(gamma, code, DualAscentConfig(step=0.1, t_max=2000))
                ad = decode(gamma, code)
                if da.status == STATUS_CONVERGED and ad.status == STATUS_CONVERGED \
                        and da.integral and ad.integral:
                    compared += 1
                    assert np.array_equal(da.hard_decision, ad.hard_decision)
        assert compared >= 20  # agreement check must not be vacuous

    def test_needs_more_iterations_than_admm(self):
        # Benchmark expectation, not a hard guarantee: on a fixed seed
        # set the subgradient baseline is slower than ADMM on average.
        rng = np.random.default_rng(1)
        code = hamming_7_4()
        da_iters, admm_iters = [], []
        for _ in range(30):
            y = (rng.random(7) < 0.05).astype(np.uint8)
            gamma = llr(y, Bsc(0.05))
            da_iters.append(
                decode_dual_ascent(gamma, code, DualAscentConfig(step=0.1, t_max=500)).iterations
            )
            admm_iters.append(decode(gamma, code).iterations)
        assert np.mean(da_iters) > np.mean(admm_iters)


def per_check_dual_ascent(gamma, code, config):
    """The dual-ascent loop with one scalar vertex rule per check."""
    ev = code.edge_var
    lam = np.zeros(code.n_edges)
    for t in range(1, config.t_max + 1):
        load = np.bincount(ev, weights=lam, minlength=code.n_vars)
        x = ((-gamma - load) > 0.0).astype(float)
        z = np.empty(code.n_edges)
        for j in range(code.n_checks):
            sl = check_slice(code, j)
            z[sl] = maximize_linear_scalar(lam[sl])
        residual = x[ev] - z
        if not residual.any():
            return x, t, STATUS_CONVERGED
        lam += config.step * residual
    return x, config.t_max, STATUS_MAX_ITERS


@pytest.mark.parametrize(
    "code",
    [gen_regular_ldpc(36, 3, 6, seed=2), interleaved_code(24, 14, seed=5)],
    ids=["regular", "interleaved"],
)
def test_degree_blocks_match_per_check_loop(code):
    # The batched replica step reads each degree group as one block (an
    # (m, d) view, or edge-index rows for the interleaved code) and must
    # reproduce the per-check loop exactly, iteration counts included.
    rng = np.random.default_rng(21)
    cfg = DualAscentConfig(t_max=150)
    statuses = set()
    for _ in range(12):
        gamma = llr((rng.random(code.n_vars) < 0.06).astype(np.uint8), Bsc(0.06))
        out = decode_dual_ascent(gamma, code, cfg)
        x, iterations, status = per_check_dual_ascent(gamma, code, cfg)
        assert np.array_equal(out.x, x)
        assert (out.iterations, out.status) == (iterations, status)
        statuses.add(status)
    assert STATUS_CONVERGED in statuses
