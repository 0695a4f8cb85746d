import numpy as np
import pytest

from polylp import (
    BpConfig,
    ParityCheckMatrix,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    Bsc,
    decode_bp,
    gen_regular_ldpc,
    is_codeword,
    llr,
)
from polylp import bp_decoder
from polylp.bp_decoder import posterior_llrs
from oracles import (
    check_neighborhoods,
    exact_marginals,
    interleaved_code,
    leave_one_out_products_rowwise,
    loopy_bp_by_check,
    posterior_llrs_reference,
    random_tree_code,
    relabel_vars,
)


@pytest.fixture
def fixed_rounds(monkeypatch):
    """BP runs all t_max rounds: its codeword exit never fires."""
    monkeypatch.setattr(bp_decoder, "is_codeword", lambda code, x: False)


class TestBpDecoder:
    def test_zero_llrs_stay_at_symmetric_fixed_point(self):
        code = ParityCheckMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
        out = decode_bp(np.zeros(3), code, BpConfig(t_max=9))
        assert out.status == STATUS_MAX_ITERS
        assert out.iterations == 9  # undecided bits never trigger the early exit
        assert not out.hard_decision.any()
        beliefs, _, _ = posterior_llrs(np.zeros(3), code, BpConfig(t_max=9))
        assert np.all(beliefs == 0.0)

    def test_single_check_one_iteration_is_exact(self):
        code = ParityCheckMatrix.from_dense([[1, 1, 1]])
        gamma = np.array([2.0, 2.0, -0.5])
        beliefs, _, _ = posterior_llrs(gamma, code, BpConfig(t_max=1))
        assert np.abs(beliefs - exact_marginals(gamma, code)).max() <= 1e-10

    @pytest.mark.usefixtures("fixed_rounds")
    def test_tree_codes_are_exact(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(25):
            code = random_tree_code(rng, n_max=12)
            gamma = rng.normal(0.0, 1.5, code.n_vars)
            beliefs, _, _ = posterior_llrs(
                gamma, code, BpConfig(t_max=40, llr_clip=500.0)
            )
            worst = max(worst, float(np.abs(beliefs - exact_marginals(gamma, code)).max()))
        assert worst <= 1e-6

    def test_check_node_odd_symmetry(self):
        # Negating one input LLR of a single check negates the outgoing
        # extrinsic messages of the others.
        code = ParityCheckMatrix.from_dense([[1, 1, 1]])
        gamma = np.array([1.3, 0.8, 0.5])
        b_pos, _, _ = posterior_llrs(gamma, code, BpConfig(t_max=1))
        flipped = gamma * np.array([1.0, 1.0, -1.0])
        b_neg, _, _ = posterior_llrs(flipped, code, BpConfig(t_max=1))
        ext_pos = b_pos - gamma
        ext_neg = b_neg - flipped
        # The message toward the flipped bit ignores it and is unchanged;
        # messages toward the other bits flip sign with the odd input.
        assert ext_pos[2] == pytest.approx(ext_neg[2], abs=1e-12)
        assert ext_pos[0] == pytest.approx(-ext_neg[0], abs=1e-12)
        assert ext_pos[1] == pytest.approx(-ext_neg[1], abs=1e-12)

    def test_early_exit_output_is_codeword(self):
        rng = np.random.default_rng(1)
        code = random_tree_code(rng, n_max=10)
        for _ in range(50):
            gamma = rng.normal(0.5, 1.5, code.n_vars)
            out = decode_bp(gamma, code, BpConfig(t_max=50))
            if out.status == STATUS_CONVERGED:
                assert is_codeword(code, out.hard_decision)

    def test_messages_saturate(self):
        code = ParityCheckMatrix.from_dense([[1, 1]])
        gamma = np.array([200.0, 200.0])
        beliefs, _, _ = posterior_llrs(gamma, code, BpConfig(t_max=5, llr_clip=30.0))
        assert np.all(beliefs <= 200.0 + 30.0)

    def test_soft_output_convention(self):
        code = ParityCheckMatrix.from_dense([[1, 1, 1]])
        out = decode_bp(np.array([4.0, 4.0, -6.0]), code, BpConfig(t_max=3))
        # Positive channel LLR pushes the bit-1 probability below half.
        assert out.x[0] < 0.5
        assert (out.hard_decision == (out.x > 0.5)).all()

    def test_config_validation(self):
        for name, values in [("t_max", [0, 2.5, True]),
                             ("llr_clip", [0.0, np.nan, np.inf, True, "3"])]:
            for value in values:
                with pytest.raises(ValueError, match=name):
                    BpConfig(**{name: value})

    def test_dimension_mismatch(self):
        code = ParityCheckMatrix.from_dense([[1, 1, 1]])
        with pytest.raises(ValueError):
            decode_bp(np.ones(2), code)

    @pytest.mark.usefixtures("fixed_rounds")
    def test_interleaved_degrees_invariant_under_check_permutation(self):
        # Degree groups read and written through edge indices give the
        # same beliefs as the same checks in another order.
        code = interleaved_code(24, 14, seed=5)
        assert len(code.checks_by_degree) > 1
        order = np.random.default_rng(3).permutation(code.n_checks)
        shuffled = ParityCheckMatrix(code.n_vars, [check_neighborhoods(code)[j] for j in order])
        rng = np.random.default_rng(4)
        cfg = BpConfig(t_max=20)
        for _ in range(10):
            gamma = rng.normal(0.5, 1.5, code.n_vars)
            a, _, _ = posterior_llrs(gamma, code, cfg)
            b, _, _ = posterior_llrs(gamma, shuffled, cfg)
            assert np.abs(a - b).max() <= 1e-9


@pytest.mark.usefixtures("fixed_rounds")
def test_loopy_messages_match_a_per_check_reference_under_saturation():
    # Twenty rounds on a (3,6) code with cycles, with channel LLRs past
    # the clip on both sides, so the variable-to-check saturation binds
    # at +3 and at -3 from the first round on.
    code = gen_regular_ldpc(48, 3, 6, seed=4)
    cfg = BpConfig(t_max=20, llr_clip=3.0)
    rng = np.random.default_rng(8)
    for _ in range(10):
        gamma = rng.normal(0.5, 2.5, code.n_vars)
        assert gamma.max() > cfg.llr_clip and gamma.min() < -cfg.llr_clip
        beliefs, iterations, _ = posterior_llrs(gamma, code, cfg)
        assert iterations == 20
        want = loopy_bp_by_check(gamma, code, 20, cfg.llr_clip)
        assert np.abs(beliefs - want).max() <= 1e-12


@pytest.mark.parametrize(
    "code",
    [gen_regular_ldpc(48, 3, 6, seed=4), interleaved_code(24, 14, seed=5)],
    ids=["regular", "interleaved"],
)
def test_decode_invariant_under_variable_relabeling(code):
    # Renaming the variables only reorders the leave-one-out products
    # inside a check.  On frames that oscillate to t_max that rounding
    # can grow past 1e-9 (1.3e-9 on one of 100 seeded frames of this
    # (3,6) code), so the posteriors are compared on frames that end on
    # a codeword.
    perm = np.random.default_rng(10).permutation(code.n_vars)
    relabeled = relabel_vars(code, perm)
    rng = np.random.default_rng(2)
    cfg = BpConfig(t_max=100)
    statuses = set()
    for _ in range(30):
        gamma = llr((rng.random(code.n_vars) < 0.08).astype(np.uint8), Bsc(0.08))
        moved = np.empty_like(gamma)
        moved[perm] = gamma
        a = decode_bp(gamma, code, cfg)
        b = decode_bp(moved, relabeled, cfg)
        assert np.array_equal(a.hard_decision, b.hard_decision[perm])
        assert (a.status, a.iterations) == (b.status, b.iterations)
        if a.status == STATUS_CONVERGED:
            assert np.abs(a.x - b.x[perm]).max() <= 1e-9
        statuses.add(a.status)
    assert statuses == {STATUS_CONVERGED, STATUS_MAX_ITERS}


@pytest.mark.parametrize("n,frames", [(96, 24), (1002, 8)])
def test_posterior_llrs_match_the_reference_loop(n, frames):
    # Parity first, the zero-belief scan second: the same beliefs, bit for
    # bit, the same iteration and the same verdict as the loop that scanned
    # first, on frames that end on a codeword and frames that run to t_max.
    code = gen_regular_ldpc(n, 3, 6, seed=7)
    cfg = BpConfig(t_max=60)
    rng = np.random.default_rng(n)
    found = set()
    for p in np.linspace(0.02, 0.1, frames):
        gamma = llr((rng.random(n) < p).astype(np.uint8), Bsc(p))
        got = posterior_llrs(gamma, code, cfg)
        want = posterior_llrs_reference(gamma, code, cfg)
        assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
        found.add(got[2])
    assert found == {True, False}


@pytest.mark.parametrize("gamma_last", [0.0, -0.0, 1.5, -1.5])
def test_an_undecided_isolated_variable_runs_to_t_max(gamma_last):
    # Variable 6 is in no check, so its belief is its LLR.  The word
    # passes parity from the first iteration on, but a zero LLR leaves
    # that bit undecided, and the frame runs to t_max.
    code = ParityCheckMatrix(7, [[0, 1, 2], [2, 3, 4], [4, 5]])
    gamma = np.array([1.0, 2.0, 0.5, 1.0, 3.0, 2.0, gamma_last])
    cfg = BpConfig(t_max=12)
    got = posterior_llrs(gamma, code, cfg)
    want = posterior_llrs_reference(gamma, code, cfg)
    assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
    assert got[1:] == ((12, False) if gamma_last == 0.0 else (1, True))


@pytest.mark.parametrize("gamma", [[0.0, 0.0], [0.0, 1.8e-107]], ids=["zero", "tiny"])
def test_a_bit_at_probability_one_half_is_undecided(gamma):
    # A belief of 1.8e-107 is not 0, but 1 - tanh(belief / 2) rounds to 1,
    # so the bit's reported probability is exactly 1/2, as for a zero belief.
    out = decode_bp(np.array(gamma), ParityCheckMatrix.from_dense([[1, 1]]))
    assert (out.status, out.iterations) == (STATUS_MAX_ITERS, BpConfig().t_max)
    assert out.x.tolist() == [0.5, 0.5]


def tanh_halves(m, d, seed):
    """tanh halves of (m, d) saturated messages, with exact zeros and -0.0."""
    rng = np.random.default_rng(seed)
    t = np.tanh(0.5 * np.clip(rng.normal(0.0, 4.0, (m, d)), -30.0, 30.0))
    t[rng.random((m, d)) < 0.05] = 0.0
    t[rng.random((m, d)) < 0.05] = -0.0
    return t


@pytest.mark.parametrize(
    "m,d", [(501, 6), (148, 32), (8, 6), (300, 1), (3, 1), (300, 2), (4, 2)],
    ids=lambda v: str(v),
)
def test_leave_one_out_products_match_the_rowwise_products(m, d):
    # Tall and short batches, and degree-1 and degree-2 groups.
    t = tanh_halves(m, d, seed=m + d)
    got = bp_decoder._leave_one_out_products(t)
    assert got.shape == (m, d)
    assert np.ascontiguousarray(got).tobytes() == leave_one_out_products_rowwise(t).tobytes()


@pytest.mark.parametrize(
    "code",
    [interleaved_code(24, 14, seed=5), interleaved_code(400, 900, seed=6, degrees=(1, 2, 6, 6, 6, 32))],
    ids=["interleaved", "degrees-1-2-6-32"],
)
def test_check_update_matches_the_rowwise_products(code, monkeypatch):
    # The check update over every degree group (the second code's groups
    # range from a few checks to 450), and BP's beliefs after some rounds,
    # are the bytes of the row-wise cumulative products.
    rng = np.random.default_rng(7)
    t = np.tanh(0.5 * rng.normal(0.0, 4.0, code.n_edges))
    got = code.map_checks(bp_decoder._leave_one_out_products, t)
    assert got.tobytes() == code.map_checks(leave_one_out_products_rowwise, t).tobytes()
    gamma = rng.normal(0.5, 2.0, code.n_vars)
    cfg = BpConfig(t_max=8)
    fast = posterior_llrs(gamma, code, cfg)
    monkeypatch.setattr(bp_decoder, "_leave_one_out_products", leave_one_out_products_rowwise)
    slow = posterior_llrs(gamma, code, cfg)
    assert fast[0].tobytes() == slow[0].tobytes() and fast[1:] == slow[1:]


# (rows, m) blocks of few and many checks, and degenerate ones: no rows,
# one row, two rows, one column.
SCAN_SHAPES = [(5, 8), (31, 148), (5, 501), (5, 5000), (31, 1000),
               (0, 7), (1, 1), (1, 300), (2, 1), (2, 300), (5, 1)]


def scan_layout(a, layout):
    """a's values in C order, in Fortran order, or as every other column of a wider block."""
    if layout == "c-order":
        return a.copy()
    if layout == "f-order":
        return np.asfortranarray(a)
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return wide[:, ::2]


@pytest.mark.parametrize("layout", ["c-order", "f-order", "column-stride"])
@pytest.mark.parametrize("shape", SCAN_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_prefix_products_match_accumulate_byte_for_byte(shape, layout):
    # The vector steps against numpy's accumulate, with input and output
    # laid out alike, so the steps run over rows of any stride.
    rows, m = shape
    a = tanh_halves(rows, m, seed=rows * m + 1)
    want = np.multiply.accumulate(a, axis=0)
    out = scan_layout(np.empty_like(a), layout)
    bp_decoder._prefix_products(scan_layout(a, layout), out)
    assert out.tobytes() == want.tobytes()
    # Between views with reversed rows, as the suffix products run.
    flipped = scan_layout(a[::-1], layout)
    out = scan_layout(np.empty((rows + 1, m)), layout)
    bp_decoder._prefix_products(flipped[::-1], out[-1:0:-1])
    assert out[-1:0:-1].tobytes() == want.tobytes()
