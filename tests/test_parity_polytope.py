import math

import numpy as np
import pytest

import polylp
from polylp import (
    Bsc,
    ProjectionWorkspace,
    decode,
    gen_regular_ldpc,
    llr,
    maximize_linear_batch,
    membership,
    project_batch,
    project_parity_polytope,
)
from polylp import admm_decoder
from polylp.parity_polytope import even_floor
from oracles import (
    even_weight_vertices,
    hull_membership,
    hull_project,
    maximize_by_enumeration,
    maximize_linear,
    maximize_linear_scalar,
    project_batch_reference,
    project_breakpoint_march,
)

PROJECTORS = [project_parity_polytope, project_breakpoint_march]


def test_public_names_resolve_and_are_listed_once():
    names = polylp.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(polylp, name) is not None


@pytest.mark.parametrize("a,want", [(3.7, 2), (4.0, 4), (1.2, 0), (0.0, 0), (-0.5, -2)])
def test_even_floor(a, want):
    assert even_floor(a) == want


def test_even_floor_nan_rejected():
    with pytest.raises(ValueError):
        even_floor(float("nan"))


@pytest.mark.parametrize(
    "v,want",
    [
        ([0.9, 0.8, 0.4, 0.1], 2),
        ([1.5, 0.7, -0.3], 0),
        ([1, 1, 1, 1], 4),
    ],
)
def test_workspace_parity(v, want):
    # The workspace reports the even floor of the clipped input's l1 norm.
    ws = ProjectionWorkspace()
    project_parity_polytope(np.array(v, float), ws)
    assert ws.r == want


class TestMembership:
    def test_even_weight_vertex(self):
        assert membership(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_odd_weight_vertex(self):
        assert not membership(np.array([1.0, 0.0, 0.0]))

    def test_interior_point_against_lp_oracle(self):
        u = np.array([0.8, 0.8, 0.1])
        assert membership(u)
        assert hull_membership(u, even_weight_vertices(3))

    def test_all_ones_odd_dimension(self):
        # Inside the box with an integer sum, but above the top slice.
        assert not membership(np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_outside(self, bad):
        # The cube test rejects it before the parity of the sum is taken.
        assert membership(np.array([bad, 0.5])) is False

    @pytest.mark.parametrize("u", [[], [[0.5, 0.5]]], ids=["empty", "2-D"])
    def test_rejects_a_vector_that_is_not_1d(self, u):
        with pytest.raises(ValueError, match="non-empty 1-D vector"):
            membership(np.array(u))

    def test_against_lp_oracle_random(self):
        rng = np.random.default_rng(1)
        checked_in = checked_out = 0
        for _ in range(300):
            d = int(rng.integers(1, 7))
            verts = even_weight_vertices(d)
            if rng.random() < 0.5:
                u = verts.T @ rng.dirichlet(np.ones(len(verts)))
                u *= 1.0 + rng.uniform(-0.3, 0.3)  # sometimes pushed outside
            else:
                u = rng.uniform(-0.2, 1.2, d)
            ours = membership(u, 1e-9)
            lp = hull_membership(u, verts)
            if ours != lp:
                # Disagreement is only tolerable on the boundary.
                z = hull_project(u, verts)
                assert np.abs(z - u).max() <= 1e-6
            checked_in += lp
            checked_out += not lp
        assert checked_in > 30 and checked_out > 30


def batch_test_matrices():
    """Rows of every degree in 1-10, 20, 32 and 64: uniform, with ties at
    0, 1/2 and 1, near odd-weight vertices, and with entries of 1e6."""
    rng = np.random.default_rng(3)
    for d in [*range(1, 11), 20, 32, 64]:
        odd = rng.integers(0, 2, size=(100, d))
        odd[:, 0] ^= 1 - odd.sum(axis=1) % 2  # odd-weight vertices
        yield np.concatenate(
            [
                rng.uniform(-2, 3, size=(300, d)),
                rng.integers(-1, 3, size=(100, d)).astype(float),
                np.round(rng.uniform(-1, 2, size=(100, d)) * 4) / 4,
                odd + rng.normal(0.0, 0.5 / d, size=(100, d)),
                np.where(rng.random((100, d)) < 0.3, 1e6, 1.0)
                * rng.uniform(-1, 1, size=(100, d)),
            ]
        )


def decoder_projection_inputs():
    """Every project_batch input of seeded ADMM decodes of perfbench's N=96
    code at BSC 0.015 and 0.05."""
    code = gen_regular_ldpc(96, 3, 6, seed=7)
    rng = np.random.default_rng(25)
    calls = []

    def record(values):
        calls.append(np.array(values))
        return project_batch(values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(admm_decoder, "project_batch", record)
        for p in (0.015, 0.05):
            for _ in range(20):
                decode(llr((rng.random(code.n_vars) < p).astype(np.uint8), Bsc(p)), code)
    return calls


class TestProjection:
    @pytest.mark.parametrize("project", PROJECTORS)
    @pytest.mark.parametrize(
        "u,want",
        [
            ([1, 1, 0, 0], [1, 1, 0, 0]),
            ([1, 0, 0], [2 / 3, 1 / 3, 1 / 3]),
            ([1, -0.2], [0.4, 0.4]),
            ([0, 0, 1], [1 / 3, 1 / 3, 2 / 3]),
        ],
    )
    def test_reference_values(self, project, u, want):
        got = project(np.array(u, float))
        assert np.allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("project", PROJECTORS)
    def test_degenerate_dimension_one(self, project):
        # The only even-weight vector of length one is zero, and the
        # single-row kernel returns it exactly.
        for u in (0.7, -3.0, 0.1, 0.2):
            z = project(np.array([u]))
            assert z == pytest.approx(0.0)
            if project is project_parity_polytope:
                assert z[0] == 0.0

    @pytest.mark.parametrize("project", PROJECTORS)
    def test_domain_errors(self, project):
        with pytest.raises(ValueError):
            project(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            project(np.array([]))

    def test_batch_rejects_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            project_batch(np.array([[0.5, np.inf]]))
        with pytest.raises(ValueError, match=r"\(m, d\)"):
            project_batch(np.ones(3))
        with pytest.raises(ValueError, match=r"\(m, d\)"):
            project_batch(np.ones((2, 0)))

    def test_input_never_mutated(self):
        u = np.array([1.3, -0.7, 0.4])
        keep = u.copy()
        for project in PROJECTORS:
            project(u)
        assert np.array_equal(u, keep)

    def test_workspace_contents(self):
        ws = ProjectionWorkspace()
        z = project_parity_polytope(np.array([1.0, 0.0, 0.0]), ws)
        assert np.allclose(z, [2 / 3, 1 / 3, 1 / 3], atol=1e-12)
        assert ws.r == 0
        assert ws.beta_opt == pytest.approx(1 / 3, abs=1e-12)
        # f_r changes at beta_max = (v[r] - v[r+1]) / 2 (at v[r] when r + 1
        # = d), so beta_opt may not pass it by more than a few ulps, on
        # rows with ties and with entries of 1e6.
        rng = np.random.default_rng(6)
        for d in [*range(2, 9), 12, 20]:
            rows = np.concatenate(
                [
                    rng.integers(-1, 3, size=(200, d)).astype(float),
                    np.round(rng.uniform(-1, 2, size=(200, d)) * 4) / 4,
                    np.where(rng.random((200, d)) < 0.3, 1e6, 1.0)
                    * rng.uniform(-1, 1, size=(200, d)),
                ]
            )
            for u in rows:
                project_parity_polytope(u, ws)
                v, r = -np.sort(-u), ws.r
                if ws.beta_opt > 0.0:
                    beta_max = v[r] if r == d - 1 else 0.5 * (v[r] - v[r + 1])
                    ulp = np.spacing(max(1.0, np.abs(v[r : r + 2]).max()))
                    assert ws.beta_opt <= beta_max + 4 * ulp, (u, ws.beta_opt)

    # The running sum of the ramp starts overflows to inf on this row.
    @pytest.mark.filterwarnings("error")
    def test_huge_entries_project_without_warning(self):
        ws = ProjectionWorkspace()
        z = project_parity_polytope(np.array([1e308, 1e308, 0.5]), ws)
        assert z.tolist() == [1.0, 1.0, 0.0]
        assert (ws.beta_opt, ws.r) == (0.5, 2)

    def test_march_equals_direct_on_adversarial_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(3000):
            d = int(rng.integers(1, 13))
            style = rng.integers(0, 3)
            if style == 0:
                u = rng.uniform(-2, 3, d)
            elif style == 1:
                u = rng.integers(-2, 4, d).astype(float)  # exact ties at 0 and 1
            else:
                u = np.round(rng.uniform(-1, 2, d) * 4) / 4
            z1 = project_parity_polytope(u)
            z2 = project_breakpoint_march(u)
            assert np.abs(z1 - z2).max() <= 1e-9

    def test_batch_equals_single(self):
        for mats in batch_test_matrices():
            zb = project_batch(mats)
            zs = np.array([project_parity_polytope(u) for u in mats])
            assert np.abs(zb - zs).max() <= 1e-9

    def test_rows_just_outside_a_facet_are_projected_not_clipped(self):
        # With w > 0 summing to 1 and each w_i < 1/2, x = 1 - w on an odd
        # set theta and w off it lies on theta's facet, sum_theta (1 - x)
        # + sum_off x = 1, and in the polytope: moving two coordinates
        # between theta and its complement adds 2 - 2 (w_i + w_j) > 0.
        # Pushed 1e-7 along the facet's unit normal, the row is outside
        # the polytope but inside the unit box, and projects back onto x.
        rng = np.random.default_rng(12)
        for d in range(3, 13):
            for size in range(1, d + 1, 2):
                w = rng.uniform(1.0, 1.5, d)
                w /= w.sum()
                theta = np.zeros(d, dtype=bool)
                theta[rng.choice(d, size, replace=False)] = True
                x = np.where(theta, 1.0 - w, w)
                u = x + 1e-7 / math.sqrt(d) * np.where(theta, 1.0, -1.0)
                assert not membership(u)
                ws = ProjectionWorkspace()
                z = project_parity_polytope(u, ws)
                assert (ws.r, ws.beta_opt > 0.0) == (size - 1, True)
                assert np.abs(z - x).max() <= 1e-12
                assert np.abs(z - project_batch(u[None])[0]).max() <= 1e-12

    def test_output_in_polytope_and_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            d = int(rng.integers(1, 10))
            u = rng.uniform(-2, 3, d)
            z = project_parity_polytope(u)
            assert membership(z, 1e-7)
            assert np.abs(project_parity_polytope(z) - z).max() <= 1e-9

    def test_matches_hull_oracle_small(self):
        rng = np.random.default_rng(5)
        for d in range(1, 7):
            verts = even_weight_vertices(d)
            for _ in range(200):
                u = rng.uniform(-2, 3, d)
                z = project_parity_polytope(u)
                zo = hull_project(u, verts)
                assert np.abs(z - zo).max() <= 1e-6


class TestBatchKernelBytes:
    """``project_batch`` gives the bytes of the reference kernel it was cut
    down from, and keeps its finiteness contract."""

    @staticmethod
    def assert_same_bytes(values):
        want = project_batch_reference(values)
        got = project_batch(values)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_matches_reference_on_test_matrices(self):
        for mats in batch_test_matrices():
            self.assert_same_bytes(mats)
            # Lone rows take the cumulative sum, not the column sum.
            for row in mats[::7]:
                self.assert_same_bytes(row[None])

    def test_matches_reference_on_rational_grids(self):
        # Entries k/q put many rows exactly on the cut test's boundary,
        # where the slack is 0 after rounding.
        rng = np.random.default_rng(25)
        for d in range(3, 9):
            for q in (3, 6, 7, 9, 10):
                self.assert_same_bytes(rng.integers(-1, q + 2, size=(2000, d)) / q)

    def test_matches_reference_on_decoder_inputs(self):
        calls = decoder_projection_inputs()
        assert len(calls) > 200
        for values in calls:
            self.assert_same_bytes(values)

    def test_decoder_inputs_hold_no_negative_zero(self):
        # ADMM keeps a check's replicas when its dual step is zero, which
        # leaves its projection input unchanged only if no entry is -0.0.
        for values in decoder_projection_inputs():
            assert not np.signbit(values[values == 0.0]).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(5, 6), (1, 6), (5, 1)])
    def test_non_finite_entry_anywhere_rejected(self, bad, shape):
        m, d = shape
        for i in sorted({0, m // 2, m - 1}):
            for j in sorted({0, d // 2, d - 1}):
                values = np.full(shape, 0.3)
                values[i, j] = bad
                with pytest.raises(ValueError, match="finite"):
                    project_batch(values)

    # The finiteness test is entrywise: no sum of inf and -inf is taken, so nothing warns.
    @pytest.mark.filterwarnings("error")
    def test_opposite_infinities_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            project_batch(np.array([[np.inf, 0.5, -np.inf]]))

    # The threshold scan (np.add.accumulate) of the second and the last input
    # overflows on its huge row, and so does the sum this test asserts on.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("values", [
        [[1e308, 1e308, -1.0]],
        [[-1e308, -1e308, 0.7]],
        [[1e308, 0.2, 0.9], [1e308, 0.6, 0.1]],
        [[1.7e308, -0.4, 0.6, 1.7e308], [0.2, 0.4, 0.6, 0.8]],
    ])
    def test_finite_rows_with_overflowing_sum_accepted(self, values):
        values = np.array(values)
        assert not math.isfinite(values.sum())
        self.assert_same_bytes(values)


class TestMaximizeLinear:
    @pytest.mark.parametrize(
        "c,want_value",
        [
            ([3, 1, -2], 4.0),
            ([3, -1, -2], 2.0),
            ([-1, -2, -3], 0.0),
            ([1, -2], 0.0),
        ],
    )
    def test_reference_values(self, c, want_value):
        c = np.array(c, float)
        z = maximize_linear(c)
        assert z.sum() % 2 == 0
        assert float(c @ z) == pytest.approx(want_value, abs=1e-12)

    def test_expected_vertices(self):
        assert np.array_equal(maximize_linear(np.array([3.0, 1.0, -2.0])), [1, 1, 0])
        assert np.array_equal(maximize_linear(np.array([3.0, -1.0, -2.0])), [1, 1, 0])
        assert np.array_equal(maximize_linear(np.array([-1.0, -2.0, -3.0])), [0, 0, 0])

    def test_all_positive_odd_count(self):
        c = np.array([2.0, 3.0, 4.0])
        z = maximize_linear(c)
        assert z.sum() % 2 == 0
        assert float(c @ z) == pytest.approx(7.0)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            d = int(rng.integers(1, 11))
            c = rng.normal(0, 2, d)
            if rng.random() < 0.3:
                c[rng.random(d) < 0.4] = 0.0
            z = maximize_linear(c)
            assert z.sum() % 2 == 0
            best = maximize_by_enumeration(c)
            assert float(c @ z) == pytest.approx(best, abs=1e-12)


class TestMaximizeLinearBatch:
    @staticmethod
    def rows(rng, m, d):
        # Normal costs with exact zeros and repeated values, so ties hit
        # both the smallest positive and the largest non-positive entry.
        c = rng.normal(0, 2, (m, d))
        c[rng.random((m, d)) < 0.25] = 0.0
        c[rng.random((m, d)) < 0.15] = 1.0
        c[rng.random((m, d)) < 0.1] = -1.0
        return c

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 7, 10, 32])
    def test_matches_scalar_rule(self, d):
        c = self.rows(np.random.default_rng(40 + d), 600, d)
        z = maximize_linear_batch(c)
        assert z.dtype == np.int8 and z.shape == c.shape
        for row, got in zip(c, z):
            assert np.array_equal(got, maximize_linear_scalar(row))
            assert np.array_equal(got, maximize_linear(row))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 10])
    def test_matches_enumeration(self, d):
        c = self.rows(np.random.default_rng(50 + d), 300, d)
        z = maximize_linear_batch(c)
        assert np.all(z.sum(axis=1) % 2 == 0)
        best = (c @ even_weight_vertices(d).T).max(axis=1)
        assert np.abs((c * z).sum(axis=1) - best).max() <= 1e-12

    def test_rows_are_independent(self):
        c = self.rows(np.random.default_rng(60), 200, 6)
        z = maximize_linear_batch(c)
        for k in (1, 7, 50):
            assert np.array_equal(maximize_linear_batch(c[k : k + 3]), z[k : k + 3])
        assert maximize_linear_batch(np.empty((0, 6))).shape == (0, 6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            maximize_linear_batch(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match=r"\(m, d\)"):
            maximize_linear_batch(np.ones(3))
        with pytest.raises(ValueError, match=r"\(m, d\)"):
            maximize_linear_batch(np.ones((2, 0)))


class TestOrderAndSymmetry:
    def test_order_preservation(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(2, 10))
            u = rng.uniform(-2, 3, d)
            z = project_parity_polytope(u)
            i, j = rng.integers(0, d, 2)
            if u[i] > u[j]:
                assert z[i] >= z[j] - 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            d = int(rng.integers(2, 10))
            u = rng.uniform(-2, 3, d)
            sigma = rng.permutation(d)
            z = project_parity_polytope(u)
            assert np.abs(project_parity_polytope(u[sigma]) - z[sigma]).max() <= 1e-12

    def test_norm_bracket(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            d = int(rng.integers(1, 10))
            u = rng.uniform(-2, 3, d)
            s = float(np.clip(u, 0, 1).sum())
            norm = float(project_parity_polytope(u).sum())
            assert even_floor(s) - 1e-9 <= norm <= 2 * math.ceil(s / 2) + 1e-9


def test_single_projection_scales_linearithmically():
    # One sort plus linear passes: 16x the input should cost well under
    # 20x the time.  Medians over repeats to dampen scheduler noise, with
    # the two sizes' samples interleaved, alternating which runs first, so
    # load from other processes falls on both alike.
    import time

    rng = np.random.default_rng(10)
    warm, small, big = (rng.uniform(-2, 3, d) for d in (4096, 256, 4096))

    def timed(u):
        t0 = time.perf_counter()
        project_parity_polytope(u)
        return time.perf_counter() - t0

    for _ in range(3):  # warm up
        timed(warm)
    samples = {256: [], 4096: []}
    for k in range(200):
        for u in (small, big) if k % 2 == 0 else (big, small):
            samples[u.size].append(timed(u))
    t_small, t_big = (float(np.median(samples[d])) for d in (256, 4096))
    assert t_big <= 20.0 * t_small, (t_small, t_big)
