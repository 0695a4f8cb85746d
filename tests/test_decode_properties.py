"""Property-based tests of the three decoders on random small codes.

Codes have at most 12 variables, so the codebook is the oracle: a
certified output must be a codeword of minimum cost.  Codes are cycle-free
trees, codes with interleaved check degrees, or random dense matrices (which
may leave variables in no check); LLRs are drawn with ties and zeros.
"""

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polylp import (STATUS_CONVERGED, STATUS_MAX_ITERS, ParityCheckMatrix, decode, decode_bp,
                    decode_dual_ascent)
from polylp.admm_decoder import AdmmConfig
from polylp.bp_decoder import BpConfig
from polylp.dual_ascent import DualAscentConfig
from oracles import codebook, interleaved_code, random_tree_code, relabel_vars

# Fixed examples and no example database, so every run tries the same codes.
FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# Short caps keep the frames that never converge cheap; the properties
# hold at any cap.
ADMM = AdmmConfig(t_max=200)
DECODERS = {"admm": partial(decode, config=ADMM),
            "dual-ascent": partial(decode_dual_ascent, config=DualAscentConfig(t_max=200))}
BP = BpConfig(t_max=200)


@st.composite
def dense_codes(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(1, 2**n - 1), min_size=m, max_size=m))
    return ParityCheckMatrix.from_dense([[(r >> i) & 1 for i in range(n)] for r in rows])


CODES = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda s: random_tree_code(np.random.default_rng(s))),
    st.builds(lambda n, m, s: interleaved_code(n, m, seed=s),
              st.integers(5, 12), st.integers(1, 6), st.integers(0, 2**32 - 1)),
    dense_codes(),
)
# Few distinct magnitudes, so ties between bits and between codewords are common.
LLR = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0]), st.floats(-3.0, 3.0))


@st.composite
def frames(draw):
    code = draw(CODES)
    gamma = np.array(draw(st.lists(LLR, min_size=code.n_vars, max_size=code.n_vars)))
    return code, gamma


@FIXED
@given(frames())
def test_certificate_implies_minimum_cost_codeword(frame):
    code, gamma = frame
    words = codebook(code.to_dense())
    best = (words @ gamma).min()
    for name, run in DECODERS.items():
        out = run(gamma, code)
        if out.ml_certificate:
            # Only a converged integral output carries the LP's certificate.
            assert out.status == STATUS_CONVERGED and out.integral, name
            hard = out.hard_decision
            assert (words == hard).all(axis=1).any(), name
            assert gamma @ hard <= best + 1e-9 * (1.0 + np.abs(gamma).sum()), name


@FIXED
@given(frames())
def test_x_in_unit_box_and_hard_decision_rounds_it(frame):
    code, gamma = frame
    for name, run in DECODERS.items():
        out = run(gamma, code)
        assert ((out.x >= 0.0) & (out.x <= 1.0)).all(), name
        assert np.array_equal(out.hard_decision, out.x > 0.5), name
        # integral: every coordinate within 1e-5 of its bit.
        assert out.integral == (np.abs(out.x - out.hard_decision).max() <= 1e-5), name
    # BP's x is a bit-1 probability; its hard decision is the belief's sign,
    # which rounding the probability need not reproduce at a belief near 0.
    x = decode_bp(gamma, code, BP).x
    assert ((x >= 0.0) & (x <= 1.0)).all()


# BP has no certificate: it stops on a codeword hard decision with no
# bit at probability exactly 1/2, or runs to t_max.
@FIXED
@given(frames())
def test_bp_stops_on_a_codeword_or_at_t_max(frame):
    code, gamma = frame
    out = decode_bp(gamma, code, BP)
    assert out.ml_certificate is False
    if out.status == STATUS_CONVERGED:
        assert (codebook(code.to_dense()) == out.hard_decision).all(axis=1).any()
        assert (out.x != 0.5).all()
    else:
        assert (out.status, out.iterations) == (STATUS_MAX_ITERS, BP.t_max)


# Relabelling the checks is left out: it reorders the edges that x_update's
# bincount sums onto each variable, so x moves in its last bits, and a frame
# whose residual sits at the stopping threshold could stop an iteration
# earlier or later.  Renaming the variables keeps each variable's edges in order.
@FIXED
@given(frames(), st.data())
def test_admm_equivariant_under_variable_relabelling(frame, data):
    code, gamma = frame
    perm = np.array(data.draw(st.permutations(range(code.n_vars))))
    moved = np.empty_like(gamma)
    moved[perm] = gamma
    a = decode(gamma, code, ADMM)
    b = decode(moved, relabel_vars(code, perm), ADMM)
    assert (a.status, a.iterations) == (b.status, b.iterations)
    assert np.array_equal(a.hard_decision, b.hard_decision[perm])
    assert np.abs(a.x - b.x[perm]).max() <= 1e-9
