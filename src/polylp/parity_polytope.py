"""Geometry of the parity polytope: membership, exact Euclidean
projection, and linear maximization.

The parity polytope ``PP_d`` is the convex hull of all even-weight binary
vectors of length ``d``.  Projection onto it is the workhorse of the
ADMM LP decoder: every check-node update is one projection.  Both
projections run in O(d log d) and solve for their scalar in closed form;
the batch kernel takes every row's facet from an O(d) cut test.  The
paper's two-slice lemma lives in :func:`membership`, as its majorization test.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

# Absolute tolerance for comparisons against the constituent parity r.
PARITY_TOL = 1e-9


def even_floor(a: float) -> int:
    """Largest even integer less than or equal to ``a``; NaN raises ``ValueError``."""
    return 2 * math.floor(a / 2.0)


def membership(u: ArrayLike, tol: float = PARITY_TOL) -> bool:
    """Test whether ``u`` lies in the parity polytope, within ``tol``.

    Uses the majorization characterization: ``u`` must lie in the unit
    hypercube and every sorted prefix sum must stay below the convex mix
    of the two slice bounds ``alpha*min(q, r) + (1-alpha)*min(q, r+2)``.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("membership expects a non-empty 1-D vector")
    d = u.size
    if not ((u >= -tol) & (u <= 1.0 + tol)).all():
        return False
    s = min(max(float(u.sum()), 0.0), float(d))
    # Snap sums that sit a rounding error below an even integer.
    r = even_floor(s + PARITY_TOL)
    alpha = min(max((2.0 + r - s) / 2.0, 0.0), 1.0)
    if r + 2 > d and alpha < 1.0 - tol:
        # The upper slice does not exist; only an exactly-even total works.
        return False
    prefix = np.cumsum(np.sort(u)[::-1])
    q = np.arange(1, d + 1)
    bound = alpha * np.minimum(q, r) + (1.0 - alpha) * np.minimum(q, r + 2)
    return bool(np.all(prefix <= bound + tol))


@dataclass
class ProjectionWorkspace:
    """Diagnostics of one projection call, owned by one caller at a time.

    After a call that received this workspace, the fields describe the
    solved instance: the constituent parity ``r`` and the located
    ``beta_opt`` (0 when the clipped input is already in the polytope).
    """

    r: int = 0
    beta_opt: float = 0.0


def project_parity_polytope(
    u: ArrayLike, workspace: ProjectionWorkspace | None = None
) -> NDArray[np.float64]:
    """Exact Euclidean projection of ``u`` onto the parity polytope.

    The projection preserves the componentwise order of ``u``, so after a
    descending sort ``v`` the answer is ``clip(v - beta_opt * f_r, 0, 1)``
    in sorted coordinates.  As in Barman et al., ``f_r`` is taken by
    sorted position: +1 on the r+1 largest entries, with r the even floor
    of the clipped input's sum, and -1 on the rest.  On ``f_r`` the line
    value is r+1 less a sum of unit ramps, one starting at each
    ``s_i`` (``v_i - 1`` on the +1 entries, ``-v_i`` on the others), and
    its root at r is the root of ``sum_i (beta - s_i)_+ = 1``.  With the
    starts sorted and ``S_k`` the sum of the k smallest, that root has
    the closed form ``beta_opt = max(0, min_k (1 + S_k) / k)``.  Cost is
    two sorts plus linear passes, O(d log d).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("projection expects a non-empty 1-D vector")
    if not np.all(np.isfinite(u)):
        raise ValueError("projection input must be finite")
    d = u.size
    perm = np.argsort(-u, kind="stable")
    v = u[perm]
    z_hat = np.clip(v, 0.0, 1.0)
    r = even_floor(float(z_hat.sum()))

    beta_opt = 0.0
    z_sorted = z_hat
    # At r == d the clipped sum is d, so fz == r and nothing is projected.
    fz = 2.0 * float(z_hat[: r + 1].sum()) - float(z_hat.sum())
    if fz > r + PARITY_TOL:
        f = np.ones(d)
        f[r + 1 :] = -1.0
        starts = np.sort(np.concatenate([v[: r + 1] - 1.0, -v[r + 1 :]]))
        # Every start exceeds -1, so huge entries can overflow the scan only
        # to +inf, which never undercuts the finite k = 1 ratio 1 + s_1.
        with np.errstate(over="ignore"):
            ratios = (1.0 + np.cumsum(starts)) / np.arange(1, d + 1)
        beta_opt = max(float(ratios.min()), 0.0)
        # PP_1 = {0}; the threshold would leave (v - 1) + 1 - v.
        z_sorted = np.zeros(1) if d == 1 else np.clip(v - beta_opt * f, 0.0, 1.0)

    if workspace is not None:
        workspace.r = r
        workspace.beta_opt = beta_opt

    out = np.empty(d)
    out[perm] = z_sorted
    return out


@functools.cache
def _ranks(d: int) -> NDArray[np.float64]:
    """The divisors 1..d of the threshold candidates, as a (d, 1) column."""
    return np.arange(1.0, d + 1.0)[:, None]


def project_batch(values: ArrayLike) -> NDArray[np.float64]:
    """Row-wise parity-polytope projection of an (m, d) array.

    Intended for the per-check projections of a decoder iteration, where
    ``d`` is a check degree.  Every row takes the facet of the O(d) cut
    test of Zhang and Siegel: the odd-set facet that the hypercube
    projection ``z_hat`` violates most is ``theta = (z_hat > 1/2)``, with
    its parity fixed at the coordinate nearest 1/2.  The root ``beta`` on
    ``theta`` is the sort-based simplex threshold of Duchi et al.: the
    minimum over k of ``(1 + S_k) / k``, where ``S_k`` sums the k smallest
    ramp starts, so one sort and no search run.  A row whose ``beta`` is
    past a rounding band fails (or passes) the cut test; inside it the
    test's slack decides.  A passing row returns ``z_hat`` unchanged.
    Scratch memory is O(m * d).  The input is left unchanged, and each
    row of the result is the same, bit for bit, whatever the batch.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[1] == 0:
        raise ValueError("project_batch expects an (m, d) array with d >= 1")
    # NaN and inf propagate through the max, which also bounds the rounding
    # below; as a Python float it overflows in the bounds without a warning.
    big = float(np.abs(vals).max(initial=0.0))
    if not math.isfinite(big):
        raise ValueError("projection input must be finite")
    d = vals.shape[1]
    if d == 1:
        # PP_1 = {0}; the threshold below would leave (v - 1) + 1 - v.
        return np.zeros(vals.shape)
    # numpy's fixed cost per call dominates here: each step uses the cheapest call.
    out = np.minimum(np.maximum(vals, 0.0), 1.0)
    # The cut test runs on a C-contiguous (d, m) copy: a reduction over a
    # row's d entries is then d vector operations across all rows.
    cols = out.T.copy()
    cost = np.minimum(cols, 1.0 - cols)
    above = cols > 0.5
    odd = np.logical_xor.reduce(above, axis=0)
    top = cost.max(axis=0)
    # theta: the entries above 1/2, with an even row's parity fixed at its
    # costliest entry.  On a failing row that entry is unique: two costs at
    # the top sum to at least 2 max, rounded or not, and the row would pass.
    theta = np.greater(cost == top, odd)
    theta ^= above
    on = theta.T.astype(float, order="C")
    # On f (+1 on theta, -1 off it) the line value is |theta| minus unit
    # ramps clip(beta - s_i, 0, 1), s_i = v_i f_i - theta_i, exact as f = +-1.
    # The first ramp saturates where their sum already reaches 1, so the
    # root at |theta| - 1 is that of h(beta) = sum_i (beta - s_i)_+ = 1.
    # With S_k the sum of the k smallest starts, c_k = (1 + S_k) / k has
    # h(c_k) >= k c_k - S_k = 1, and c_k of the active prefix is the root:
    # beta = min_k c_k.
    f = on * 2.0
    f -= 1.0
    starts = vals * f
    starts -= on
    starts.sort(axis=1)
    # c_k and their minimum run down the columns of a (d, m) copy.  The
    # sums can overflow, and numpy warn, only once big > max / (d + 2).
    c = starts.T.copy()
    with np.errstate(over="ignore") if math.isinf(big * (d + 2)) else contextlib.nullcontext():
        np.add.accumulate(c, axis=0, out=c)
    c += 1.0
    c /= _ranks(d)
    beta = c.min(axis=0)
    # Rounding moves beta by less than tau / 2 from the exact root, which is
    # at most tau / 2 on a row the cut test passes and at least -tau / 2 on
    # one it fails (README, "Notes on the projection").
    tau = (big + 1.0) * (d + 2) ** 2 * 2.0**-51
    if np.abs(beta).min(initial=math.inf) <= tau:
        # The slack of theta, sum(min(z, 1 - z)) - 1 + fix with the parity fix
        # 1 - 2 max(cost) on an even theta, is negative iff total - 1 < -fix: a
        # rounded sum has the exact sum's sign and negation is exact.  One fixed
        # order, first row to last, keeps each row's projection independent of
        # the batch: numpy's sum adds a lone column pairwise once d >= 8.
        total = np.add.accumulate(cost, axis=0)[-1]
        total -= 1.0
        neg_fix = 2.0 * top - 1.0
        neg_fix[odd] = 0.0
        failing = total < neg_fix
        np.maximum(beta, 0.0, out=beta)
    else:
        # A failing row's beta is above tau > 0, and a passing row's step
        # is not used, so beta needs no clamp.
        failing = beta > tau
    f *= beta[:, None]
    np.subtract(vals, f, out=f)
    np.copyto(out, np.minimum(np.maximum(f, 0.0, out=f), 1.0, out=f), where=failing[:, None])
    return out


def maximize_linear_batch(costs: ArrayLike) -> NDArray[np.int8]:
    """Row-wise parity-polytope vertex maximizing each row of an (m, d)
    cost array.

    Sets ones on the strictly positive entries of a row; if their count
    is odd, takes the better of turning on the largest non-positive entry
    or dropping the smallest positive one (dropping on a tie, and always
    when every entry is positive).  Ties inside either choice go to the
    first such entry.
    """
    c = np.asarray(costs, dtype=float)
    if c.ndim != 2 or c.shape[1] == 0:
        raise ValueError("maximize_linear_batch expects an (m, d) array with d >= 1")
    if not np.isfinite(c).all():
        raise ValueError("maximize_linear input must be finite")
    pos = c > 0.0
    z = pos.astype(np.int8)
    odd = np.logical_xor.reduce(pos, axis=1).nonzero()[0]
    c, pos = c.take(odd, axis=0), pos.take(odd, axis=0)
    up = np.where(pos, c, np.inf)
    down = np.where(pos, -np.inf, c)
    # With no non-positive entry the gain is -inf, so the row drops one.
    add = up.min(axis=1) + down.max(axis=1) > 0.0
    z[odd, np.where(add, down.argmax(axis=1), up.argmin(axis=1))] = add
    return z
