"""Property-based tests of the batch projection and its cut test.

Rows are drawn to be adversarial: ties at 0, 1/2 and 1, exact 0/1
entries, constant rows, degrees 1 and 2, and entries near +-1e6 and far
beyond.  Every property compares ``project_batch`` with an independent
mechanism: membership, odd-set facet enumeration, the scalar breakpoint
march, the hull QP, or the kernel that finds its facet by sorted position.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polylp.admm_decoder
from polylp import Awgn, Bsc, decode, gen_regular_ldpc, llr, membership, project_batch
from polylp.channels import transmit
from polylp.parity_polytope import even_floor
from oracles import (
    even_weight_vertices,
    hull_project,
    interleaved_code,
    project_batch_two_sort,
    project_breakpoint_march,
)

# Fixed examples and no example database, so every run tries the same rows.
FIXED = settings(derandomize=True, database=None, deadline=None)

SPECIAL = st.sampled_from([0.0, 0.5, 1.0, -0.0, 0.25, 0.75, -1.0, 2.0])
MODERATE = st.floats(-3.0, 4.0)
NEAR_1E6 = st.sampled_from([1e6, -1e6]).flatmap(
    lambda c: st.floats(-2.0, 2.0).map(lambda t: c + t)
)
HUGE = st.floats(-1e300, 1e300).filter(lambda x: abs(x) >= 1e7)
# Non-dyadic entries: their sums round, so they expose the summation order.
ONE_DECIMAL = st.integers(-20, 30).map(lambda k: k / 10)


def rows(entries, max_d):
    """A row of 1..max_d entries, or a constant row of one entry."""
    free = st.integers(1, max_d).flatmap(lambda d: st.lists(entries, min_size=d, max_size=d))
    constant = st.tuples(entries, st.integers(1, max_d)).map(lambda t: [t[0]] * t[1])
    return st.one_of(free, constant).map(lambda r: np.array(r, dtype=float))


def project_row(u):
    return project_batch(u[None, :])[0]


def max_facet_violation(z):
    """max over odd subsets S of f_S . z - (|S| - 1), by enumeration."""
    worst = -np.inf
    for mask in itertools.product((0, 1), repeat=z.size):
        if sum(mask) % 2:
            f = np.where(np.array(mask) == 1, 1.0, -1.0)
            worst = max(worst, float(f @ z) - (sum(mask) - 1))
    return worst


BOUNDED = rows(st.one_of(SPECIAL, MODERATE, NEAR_1E6), 12)


@settings(FIXED, max_examples=400)
@given(BOUNDED)
def test_cut_test_passes_exactly_the_rows_inside(u):
    # z_hat comes back bit for bit when every odd-set facet holds, and
    # only then; a row on a facet to rounding may take either path.
    z_hat = np.clip(u, 0.0, 1.0)
    z = project_row(u)
    unchanged = np.array_equal(z, z_hat)
    if unchanged:
        assert membership(z_hat)
    if membership(z_hat):
        assert np.abs(z - z_hat).max() <= 1e-9
    if u.size <= 10:
        violation = max_facet_violation(z_hat)
        if violation < -1e-12:
            assert unchanged
        elif violation > 1e-12:
            assert not unchanged


@settings(FIXED, max_examples=400)
@given(BOUNDED)
def test_agrees_with_breakpoint_march(u):
    z = project_row(u)
    assert np.abs(z - project_breakpoint_march(u)).max() <= 1e-9
    assert membership(z, 1e-9)


@settings(FIXED, max_examples=150)
@given(rows(st.one_of(SPECIAL, MODERATE), 10))
def test_agrees_with_hull_qp(u):
    # z is the projection iff (u - z) . (w - z) <= 0 for every vertex w.
    verts = even_weight_vertices(u.size)
    z = project_row(u)
    assert membership(z, 1e-9)
    assert float((verts @ (u - z)).max() - (u - z) @ z) <= 1e-9
    # The QP's penalty solve can stall on tie-heavy rows; compare only
    # where the oracle certifies its own answer.
    zo = hull_project(u, verts, certify=False)
    assume(float((verts @ (u - zo)).max() - (u - zo) @ zo) <= 1e-7)
    assert np.abs(z - zo).max() <= 1e-6


@settings(FIXED, max_examples=300)
@given(rows(st.one_of(SPECIAL, MODERATE, HUGE), 12))
def test_huge_entries_stay_within_their_rounding(u):
    # Beyond ~1e6 no double-precision projection is exact to 1e-9: a
    # fractional output coordinate is a difference of entries this large.
    # The output stays in the box, and near the polytope and the march by
    # a few units in the last place of the largest entry.
    z = project_row(u)
    tol = 1e-9 + 16.0 * np.finfo(float).eps * np.abs(u).max()
    assert np.all(np.isfinite(z)) and np.all((z >= 0.0) & (z <= 1.0))
    assert membership(z, tol)
    assert np.abs(z - project_breakpoint_march(u)).max() <= tol


def batches(max_d, max_m):
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(
            st.lists(st.one_of(SPECIAL, MODERATE, NEAR_1E6, ONE_DECIMAL), min_size=d, max_size=d),
            min_size=1,
            max_size=max_m,
        )
    ).map(lambda b: np.array(b, dtype=float))


@settings(FIXED, max_examples=300)
@given(batches(32, 20))
def test_rows_are_independent(values):
    # Sums over a row add in one fixed order, whatever the batch size.
    whole = project_batch(values)
    for i, u in enumerate(values):
        assert np.array_equal(whole[i], project_row(u))


def facet_rows(rng, m, d):
    """Rows whose hypercube projection lies on an odd-set facet in exact
    arithmetic: bits plus tenths whose costs min(z, 1 - z) sum to 1, with
    an odd count above 1/2.  Rounding alone decides their cut test."""
    rows = rng.integers(0, 2, (m, d)).astype(float)
    for row in rows:
        tenths = []
        while sum(tenths) < 10:
            tenths.append(int(rng.integers(1, min(5, 10 - sum(tenths)) + 1)))
        cost = np.array(tenths) / 10
        row[rng.choice(d, cost.size, replace=False)] = np.where(
            rng.random(cost.size) < 0.5, cost, 1.0 - cost
        )
        if (row > 0.5).sum() % 2 == 0:
            j = np.flatnonzero((row == 0.0) | (row == 1.0))[0]
            row[j] = 1.0 - row[j]
    return rows


def test_rows_on_a_facet_are_independent():
    # numpy sums one column pairwise but a wider array row by row; the
    # batch must not inherit that difference (d >= 8 is where it shows).
    rng = np.random.default_rng(11)
    for d in range(8, 33):
        values = facet_rows(rng, 40, d)
        whole = project_batch(values)
        for i, u in enumerate(values):
            assert np.array_equal(whole[i], project_row(u))


def layouts(values):
    """The same (m, d) values as C-ordered, F-ordered and strided arrays."""
    m, d = values.shape
    wide = np.full((2 * m, 2 * d), 7.0)
    wide[::2, ::2] = values
    return [values.copy(), np.asfortranarray(values), wide[::2, ::2]]


def assert_layout_free(values):
    expected = project_batch(values.copy())
    assert expected.shape == values.shape
    for arr in layouts(values):
        before = arr.copy()
        assert np.array_equal(project_batch(arr), expected)
        assert np.array_equal(arr, before)


@settings(FIXED, max_examples=150)
@given(batches(12, 8))
def test_input_unchanged_and_layout_free(values):
    assert_layout_free(values)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 6), (1, 32), (2, 1), (7, 1), (3, 6), (5, 32)])
def test_single_row_and_single_column_batches(shape):
    # Entries outside [0, 1] would show any clipping of the caller's array.
    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        assert_layout_free(np.round(rng.uniform(-1.0, 2.0, shape), 1))


def assert_matches_march(values):
    z = project_batch(values)
    for i, u in enumerate(values):
        assert np.abs(z[i] - project_breakpoint_march(u)).max() <= 1e-9
        assert membership(z[i], 1e-9)
    return z


def two_ramp_rows(rng, m, d):
    """Rows with r = 0 whose root has exactly two active ramps, the + ramp
    of the largest entry v0 and the - ramp of the next one v1: the root
    is (v0 - v1) / 2, the largest beta before f_r would change."""
    rows = np.empty((m, d))
    for row in rows:
        v0 = rng.uniform(0.2, 2.5)
        v1 = rng.uniform(0.05, min(1.95, 2.0 * v0)) - v0
        beta = 0.5 * (v0 - v1)
        row[:] = -(beta + rng.uniform(0.0, 2.0, d))
        row[:2] = v0, v1
        rng.shuffle(row)
    return rows


def test_root_at_the_edge_of_its_facet():
    # From an N=1002 frame: r = 0, and the root sits where f_r's -1 entry
    # v1 = -0.4972 would change sides.
    u = np.array([[0.6616, -0.7242, -0.7242, -0.7242, -0.7242, -0.4972]])
    z = assert_matches_march(u)
    beta = 0.5 * (0.6616 + 0.4972)
    assert np.abs(z[0] - np.clip(u[0] - beta * np.array([1, -1, -1, -1, -1, -1]), 0, 1)).max() <= 1e-12
    rng = np.random.default_rng(23)
    for d in range(2, 13):
        values = two_ramp_rows(rng, 30, d)
        # Constituent parity 0: the even floor of each clipped row's sum.
        assert all(even_floor(float(np.clip(u, 0.0, 1.0).sum())) == 0 for u in values)
        z = assert_matches_march(values)
        top = values.max(axis=1, keepdims=True)
        second = np.sort(values, axis=1)[:, -2:-1]
        sign = np.where(values == top, 1.0, -1.0)
        expected = np.clip(values - 0.5 * (top - second) * sign, 0.0, 1.0)
        assert np.abs(z - expected).max() <= 1e-9


def tied_facet_rows(rng):
    """Rows whose z_hat lies on an odd-set facet, with the parity r one
    rounding away from even and the (r+1)-th largest entry tied: a ones,
    two entries t > 1/2 and one 2 - 2t, so z_hat sums to a + 2."""
    rows = []
    for a in (0, 2, 4):
        for k in range(51, 100):
            t = k / 100
            for zeros in range(3):
                row = np.concatenate([
                    rng.uniform(1.0, 2.0, a), [t, t, 2.0 - 2.0 * t], rng.uniform(-1.0, 0.0, zeros)
                ])
                rng.shuffle(row)
                rows.append(row)
    return rows


def test_tie_at_the_last_plus_entry():
    # z_hat is in the polytope, so it is its own projection; when its sum
    # rounds below a + 2 the tie at v_r leaves f_r one +1 entry short of
    # what ``v >= v_r`` selects, and the root must still come out as 0.
    u = np.array([[0.8, 1.8, 2.0, 0.8, 0.4, -0.6, -0.4, -1.0]])
    z = assert_matches_march(u)
    assert np.abs(z - np.clip(u, 0, 1)).max() <= 1e-12
    for u in tied_facet_rows(np.random.default_rng(29)):
        z = assert_matches_march(u[None, :])
        assert np.abs(z[0] - np.clip(u, 0.0, 1.0)).max() <= 1e-9


@pytest.mark.parametrize("d", [1, 2])
def test_degrees_one_and_two(d):
    # PP_1 is {0}; PP_2 is the diagonal segment from (0, 0) to (1, 1).
    rng = np.random.default_rng(d)
    values = np.concatenate([
        rng.uniform(-3.0, 4.0, (200, d)),
        np.round(rng.uniform(-1.0, 2.0, (200, d)), 1),
        np.array(list(itertools.product([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0], repeat=d))),
    ])
    z = assert_matches_march(values)
    if d == 1:
        # The only point of PP_1 comes back exactly.
        assert np.all(z == 0.0)
    else:
        assert np.abs(z[:, 0] - z[:, 1]).max() <= 1e-9
        mean = np.clip(values.mean(axis=1), 0.0, 1.0)
        assert np.abs(z[:, 0] - mean).max() <= 1e-9


def test_every_ramp_active():
    # r + 1 entries just above 1 and the rest just below 0, all within
    # 1/d of the box: every ramp starts below the root (1 + sum s) / d.
    rng = np.random.default_rng(31)
    for d in range(1, 17):
        for r in range(0, d, 2):
            values = -rng.uniform(0.0, 1.0 / d, (20, d))
            values[:, : r + 1] = 1.0 - values[:, : r + 1]
            for row in values:
                rng.shuffle(row)
            z = assert_matches_march(values)
            sign = np.where(values > 0.5, 1.0, -1.0)
            starts = np.where(sign > 0.0, values - 1.0, -values)
            beta = (1.0 + starts.sum(axis=1)) / d
            assert np.all(starts.max(axis=1) < beta)
            expected = np.clip(values - beta[:, None] * sign, 0.0, 1.0)
            assert np.abs(z - expected).max() <= 1e-9


def facet_tie(values):
    """Rows whose (r+1)-th largest entry ties the next one, r the even
    floor of the clipped row's sum: their facet f_r by sorted position is
    one of two equally violated ones, so the row is on a facet (any
    violation is rounding) and either side of the tie may take the +1."""
    r = 2 * (np.cumsum(np.clip(values, 0.0, 1.0), axis=1)[:, -1] // 2).astype(np.intp)
    desc = np.pad(-np.sort(-values, axis=1), ((0, 0), (0, 1)), constant_values=np.nan)
    rows = np.arange(len(values))
    r = np.minimum(r, values.shape[1] - 1)
    return desc[rows, r] == desc[rows, r + 1]


def cut_test_facet(u):
    """The facet the cut test names: the entries above 1/2, with the entry
    nearest 1/2 (first on a tie) flipped when their count is even."""
    z_hat = np.clip(u, 0.0, 1.0)
    theta = z_hat > 0.5
    if theta.sum() % 2 == 0:
        theta[np.argmax(np.minimum(z_hat, 1.0 - z_hat))] ^= True
    return theta


def assert_matches_two_sort(values):
    """project_batch equals the two-sort kernel bit for bit, except on rows
    with a tie at the facet's edge, which may differ by a few units in the
    last place; and on every row the projection moved, without such a tie,
    the cut test's facet is the top r + 1 entries."""
    z = project_batch(values)
    ref = project_batch_two_sort(values)
    tie = facet_tie(values)
    assert np.array_equal(z[~tie], ref[~tie])
    ulps = 8.0 * np.finfo(float).eps * (1.0 + np.abs(values[tie]).max(axis=1, initial=0.0))
    assert np.all(np.abs(z[tie] - ref[tie]).max(axis=1, initial=0.0) <= ulps)
    moved = ~tie & np.any(z != np.clip(values, 0.0, 1.0), axis=1)
    for u in values[moved]:
        r = even_floor(float(np.cumsum(np.clip(u, 0.0, 1.0))[-1]))
        assert np.array_equal(cut_test_facet(u), u >= np.sort(u)[::-1][r])
    return int(moved.sum())


def test_matches_two_sort_on_the_batch_families():
    # The families of test_batch_equals_single.
    rng = np.random.default_rng(3)
    moved = 0
    for d in [*range(1, 11), 20, 32, 64]:
        odd = rng.integers(0, 2, size=(100, d))
        odd[:, 0] ^= 1 - odd.sum(axis=1) % 2  # odd-weight vertices
        mats = np.concatenate(
            [
                rng.uniform(-2, 3, size=(300, d)),
                rng.integers(-1, 3, size=(100, d)).astype(float),
                np.round(rng.uniform(-1, 2, size=(100, d)) * 4) / 4,
                odd + rng.normal(0.0, 0.5 / d, size=(100, d)),
                np.where(rng.random((100, d)) < 0.3, 1e6, 1.0)
                * rng.uniform(-1, 1, size=(100, d)),
            ]
        )
        moved += assert_matches_two_sort(mats)
    assert moved > 3000


@settings(FIXED, max_examples=400)
@given(rows(st.one_of(SPECIAL, MODERATE, NEAR_1E6, ONE_DECIMAL), 12))
def test_matches_two_sort_on_single_rows(u):
    assert_matches_two_sort(u[None, :])


@settings(FIXED, max_examples=300)
@given(batches(32, 20))
def test_matches_two_sort_on_batches(values):
    assert_matches_two_sort(values)


def test_matches_two_sort_on_admm_iterates(monkeypatch):
    # The projection inputs of seeded decodes: BSC and AWGN frames on a
    # (3,6) code, and BSC frames on a code of check degrees 3, 4 and 5.
    seen = []

    def recording(v):
        seen.append(np.array(v))
        return project_batch(v)

    monkeypatch.setattr(polylp.admm_decoder, "project_batch", recording)
    for code, channel in ((gen_regular_ldpc(96, 3, 6, seed=7), Bsc(0.04)),
                          (gen_regular_ldpc(96, 3, 6, seed=7), Awgn(2.0, 0.5)),
                          (interleaved_code(40, 24, seed=2), Bsc(0.05))):
        for frame in range(6):
            received = transmit(np.zeros(code.n_vars, dtype=np.uint8), channel, frame)
            decode(llr(received, channel), code)
    assert sum(assert_matches_two_sort(v) for v in seen) > 1000
