"""Independent reference implementations used as test oracles.

Everything here is brute force, a scalar loop, or delegates to a generic
solver: vertex enumeration, a hull-projection QP with an optimality
certificate, the incremental breakpoint march, the batch projection
that finds its facet by sorted position, the batch kernel and the
x-update as they stood before their numpy calls were cut, GF(2) codebook
enumeration, exhaustive marginalization, the decoding LP solved over
the explicit facet description, BP's leave-one-out products by
cumulative products along each row, per-check loopy belief propagation, the
per-check loop that builds a code's neighborhoods, the line-by-line
alist parser and writer, the scaled-form ADMM loop, and the codeword
test and BP loop as they stood before their stop tests were reordered.
None of it shares code paths with the package under test, except that
the ADMM loop calls the package's projection and output step, so that
only its recurrence differs from ``decode``'s, and the BP loop calls the
package's check update, so that only its stop test differs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog, nnls

from polylp import (
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    AdmmConfig,
    AlistParseError,
    DecodeOutput,
    ParityCheckMatrix,
    emit_alist,
    maximize_linear_batch,
    project_batch,
)
from polylp.admm_decoder import make_output
from polylp.bp_decoder import BpConfig, _check_node_update
from polylp.codes import check_llrs


def even_weight_vertices(d: int) -> np.ndarray:
    """All even-weight binary vectors of length d, as a (V, d) float array."""
    vs = [v for v in itertools.product((0, 1), repeat=d) if sum(v) % 2 == 0]
    return np.array(vs, dtype=float)


def hull_project(u: np.ndarray, vertices: np.ndarray, certify: bool = True) -> np.ndarray:
    """Euclidean projection of u onto conv(vertices), via nonneg least squares.

    Solves min ||V^T w - u|| over the simplex, with the sum-to-one
    constraint enforced by a heavily weighted penalty row, then verifies
    the variational optimality condition over every vertex.
    """
    scale = 1e6
    a = np.vstack([vertices.T, scale * np.ones(vertices.shape[0])])
    b = np.concatenate([u, [scale]])
    w, _ = nnls(a, b)
    w = np.maximum(w, 0.0)
    w /= w.sum()
    z = vertices.T @ w
    if certify:
        resid = u - z
        gap = float((vertices @ resid).max() - resid @ z)
        assert gap <= 1e-7, f"hull projection not optimal, gap {gap}"
    return z


def hull_membership(u: np.ndarray, vertices: np.ndarray) -> bool:
    """Feasibility LP: is u a convex combination of the given vertices?"""
    nv = vertices.shape[0]
    a_eq = np.vstack([vertices.T, np.ones(nv)])
    b_eq = np.concatenate([u, [1.0]])
    res = linprog(np.zeros(nv), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * nv,
                  method="highs")
    return res.status == 0


def project_breakpoint_march(u: np.ndarray) -> np.ndarray:
    """Parity-polytope projection via the incremental breakpoint march.

    An independent second implementation of the projection, as a scalar
    loop: after a descending sort it walks the activation breakpoints in
    ascending order while updating the active range ``[a, b]`` and the
    running sum ``V``, and solves the crossing segment in closed form.
    The package's projections must agree with it to 1e-9.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("projection expects a non-empty 1-D vector")
    if not np.all(np.isfinite(u)):
        raise ValueError("projection input must be finite")
    d = u.size
    perm = np.argsort(-u, kind="stable")
    v = u[perm]
    z_sorted = np.clip(v, 0.0, 1.0)
    r = 2 * math.floor(float(z_sorted.sum()) / 2.0)

    if r < d:
        fz = 2.0 * float(z_sorted[: r + 1].sum()) - float(z_sorted.sum())
        beta_max = 0.5 * (v[r] - v[r + 1]) if r <= d - 2 else float(v[r])
        if fz > r + 1e-9 and beta_max > 0.0:
            # 1-based active range: a..r+1 among the large block,
            # r+2..b among the small block.
            a = 1 + int(np.count_nonzero(v[: r + 1] >= 1.0))
            b = (r + 1) + int(np.count_nonzero(v[r + 1 :] > 0.0))
            run_v = float(v[a - 1 : r + 1].sum() - v[r + 1 : b].sum())

            # Tag each breakpoint with which side activates there.
            tagged = sorted(
                [(float(v[i] - 1.0), 0) for i in range(r + 1)]
                + [(float(-v[i]), 1) for i in range(r + 1, d)]
            )
            tagged = [t for t in tagged if 0.0 <= t[0] <= beta_max]

            prev_beta, prev_g, prev_n = 0.0, fz, b - a + 1
            i = 0
            crossed = False
            while i < len(tagged):
                beta = tagged[i][0]
                while i < len(tagged) and tagged[i][0] == beta:
                    if tagged[i][1] == 0:
                        a -= 1
                        run_v += v[a - 1]
                    else:
                        b += 1
                        run_v -= v[b - 1]
                    i += 1
                n_act = b - a + 1
                g = (a - 1) + run_v - beta * n_act
                if g <= r:
                    # A crossing cannot sit on a flat segment; the guard
                    # only protects against rounding drift.
                    beta_opt = (
                        prev_beta + (prev_g - r) / prev_n if prev_n > 0 else beta
                    )
                    crossed = True
                    break
                prev_beta, prev_g, prev_n = beta, g, n_act
            if not crossed:
                if prev_n > 0:
                    beta_opt = min(prev_beta + (prev_g - r) / prev_n, beta_max)
                else:
                    beta_opt = beta_max
            sign = np.where(np.arange(d) <= r, 1.0, -1.0)
            z_sorted = np.clip(v - beta_opt * sign, 0.0, 1.0)

    out = np.empty(d)
    out[perm] = z_sorted
    return out


def project_batch_two_sort(values: np.ndarray) -> np.ndarray:
    """Row-wise projection with Barman et al.'s facet f_r, found by
    sorted position, and two sorts per failing row.

    Rows that pass the cut test come back as ``z_hat``; each other row is
    sorted to find r = even_floor(sum z_hat) and its (r+1)-th largest
    entry v_r, and f_r is +1 on ``v >= v_r``.  Then its ramp starts are
    sorted and thresholded as ``project_batch`` does.  Sums add a row's
    entries first to last, as the package does, so a row whose facet has
    no tie at v_r gets the package's bits.
    """
    vals = np.asarray(values, dtype=float)
    d = vals.shape[1]
    if d == 1:
        return np.zeros(vals.shape)
    out = np.minimum(np.maximum(vals, 0.0), 1.0)
    cols = out.T.copy()
    cost = np.minimum(cols, 1.0 - cols)
    odd = np.logical_xor.reduce(cols > 0.5, axis=0)
    slack = np.cumsum(cost, axis=0)[-1] - 1.0 + np.where(odd, 0.0, 1.0 - 2.0 * cost.max(axis=0))
    bad = np.flatnonzero(slack < 0.0)
    if bad.size == 0:
        return out
    v = vals[bad]
    r = 2 * (np.cumsum(cols, axis=0)[-1][bad] // 2).astype(np.intp)
    asc = np.sort(v, axis=1)
    top = d - 1 - r
    v_r = asc[np.arange(bad.size), top]
    sign = np.where(v >= v_r[:, None], 1.0, -1.0)
    k = np.arange(1, d + 1)
    starts = np.sort(np.where(k > top[:, None], asc - 1.0, -asc), axis=1)
    c = (1.0 + np.cumsum(starts.T, axis=0)) / k[:, None]
    beta = np.maximum(c.min(axis=0), 0.0)
    out[bad] = np.minimum(np.maximum(v - beta[:, None] * sign, 0.0), 1.0)
    return out


def project_batch_reference(values: np.ndarray) -> np.ndarray:
    """``project_batch`` as it was before its calls were cut, kept verbatim:
    the byte-for-byte reference for the kernel's call-count changes."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[1] == 0:
        raise ValueError("project_batch expects an (m, d) array with d >= 1")
    if not np.isfinite(vals).all():
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

    # Slack of the facet theta: sum(min(z, 1 - z)) - 1, less the cost of
    # the parity fix when |theta| is even.
    cost = np.minimum(cols, 1.0 - cols)
    odd = np.logical_xor.reduce(cols > 0.5, axis=0)
    # numpy sums the columns of a (d, m) array with m >= 2 first row to
    # last, but a lone column pairwise once d >= 8; one fixed order keeps
    # each row's projection independent of the batch.
    total = np.add.accumulate(cost, axis=0)[-1] if cols.shape[1] == 1 else cost.sum(axis=0)
    fix = 1.0 - 2.0 * cost.max(axis=0)
    fix[odd] = 0.0
    bad = (total - 1.0 + fix < 0.0).nonzero()[0]
    if bad.size == 0:
        return out

    v = vals.take(bad, axis=0)
    theta = v > 0.5
    even = (~odd[bad]).nonzero()[0]
    theta[even, cost.take(bad[even], axis=1).argmax(axis=0)] ^= True
    # On f_r (+1 on theta, -1 off it) the line value is |theta| minus unit
    # ramps clip(beta - s_i, 0, 1), s_i = v_i - 1 on theta and -v_i off it.
    # The first ramp saturates where their sum already reaches 1, so the
    # root at |theta| - 1 is that of h(beta) = sum_i (beta - s_i)_+ = 1.
    # With S_k the sum of the k smallest starts, c_k = (1 + S_k) / k has
    # h(c_k) >= k c_k - S_k = 1, and c_k of the active prefix is the root:
    # beta = min_k c_k.
    starts = np.where(theta, v - 1.0, -v)
    starts.sort(axis=1)
    # c_k and their minimum run down the columns of a (d, rows) copy.
    c = starts.T.copy()
    np.add.accumulate(c, axis=0, out=c)
    c += 1.0
    c /= np.arange(1, d + 1)[:, None]
    beta = np.maximum(c.min(axis=0), 0.0)[:, None]
    v -= np.where(theta, beta, -beta)
    out[bad] = np.minimum(np.maximum(v, 0.0), 1.0)
    return out


def x_update_reference(
    z: np.ndarray, v: np.ndarray, code: ParityCheckMatrix, gamma_mu: np.ndarray
) -> np.ndarray:
    """``admm_decoder.x_update`` as one expression, each step in a fresh array."""
    acc = np.bincount(code.edge_var, weights=2.0 * z - v, minlength=code.n_vars)
    return np.minimum(np.maximum((acc - gamma_mu) / code.var_divisor, 0.0), 1.0)


def maximize_by_enumeration(c: np.ndarray) -> float:
    """Maximum of c . z over the even-weight vertices, by enumeration."""
    return float((even_weight_vertices(c.size) @ c).max())


def maximize_linear_scalar(c: np.ndarray) -> np.ndarray:
    """The vertex rule of the dual-ascent replica step, one entry at a
    time: ones on the positive entries; with an odd count, either turn on
    the largest non-positive entry (when that gains strictly) or drop the
    smallest positive one.  Ties go to the first such entry."""
    c = [float(a) for a in c]
    z = [1 if a > 0.0 else 0 for a in c]
    if sum(z) % 2 == 0:
        return np.array(z, dtype=np.int8)
    i_p = min((i for i in range(len(c)) if z[i]), key=lambda i: (c[i], i))
    rest = [i for i in range(len(c)) if not z[i]]
    if rest:
        i_n = max(rest, key=lambda i: (c[i], -i))
        if c[i_p] + c[i_n] > 0.0:
            z[i_n] = 1
            return np.array(z, dtype=np.int8)
    z[i_p] = 0
    return np.array(z, dtype=np.int8)


def maximize_linear(c: np.ndarray) -> np.ndarray:
    """The library's vertex step on one cost vector: a batch of one."""
    return maximize_linear_batch(np.asarray(c, dtype=float)[None])[0]


def check_slice(code: ParityCheckMatrix, j: int) -> slice:
    """The edges of check ``j``, ``check_ptr[j]:check_ptr[j+1]``."""
    return slice(int(code.check_ptr[j]), int(code.check_ptr[j + 1]))


def check_neighborhoods(code: ParityCheckMatrix) -> tuple[np.ndarray, ...]:
    """The variables of each check: its slice of ``edge_var``, a view."""
    return tuple(code.edge_var[check_slice(code, j)] for j in range(code.n_checks))


def var_neighborhoods(code: ParityCheckMatrix) -> tuple[np.ndarray, ...]:
    """The checks of each variable, 0-based, as the column lines of the
    code's ``emit_alist`` text list them."""
    columns = emit_alist(code).splitlines()[4 : 4 + code.n_vars]
    return tuple(np.array(line.split(), dtype=np.int64) - 1 for line in columns)


def neighborhoods_by_loop(
    n_vars: int, check_neighborhoods: list
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Check and variable neighborhoods of a code, one check and one edge
    at a time, as read-only int64 arrays; raises ``ValueError`` with
    ``ParityCheckMatrix``'s message for the first check at fault."""
    if n_vars <= 0:
        raise ValueError("n_vars must be positive")
    if len(check_neighborhoods) == 0:
        raise ValueError("need at least one check")
    checks = []
    for j, nbhd in enumerate(check_neighborhoods):
        arr = np.asarray(nbhd)
        if arr.ndim == 1 and arr.size == 0:
            raise ValueError(f"check {j} has no variables")
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise ValueError(f"check {j} must be a 1-D array of integer variable indices")
        arr = np.sort(arr.astype(np.int64))
        if arr[0] < 0 or arr[-1] >= n_vars:
            raise ValueError(f"check {j} has a variable index out of range")
        if np.any(np.diff(arr) == 0):
            raise ValueError(f"check {j} has a parallel edge")
        arr.flags.writeable = False
        checks.append(arr)
    var_lists: list[list[int]] = [[] for _ in range(n_vars)]
    for j, arr in enumerate(checks):
        for i in arr:
            var_lists[int(i)].append(j)
    vars_ = []
    for lst in var_lists:
        a = np.asarray(lst, dtype=np.int64)
        a.flags.writeable = False
        vars_.append(a)
    return tuple(checks), tuple(vars_)


def gf2_nullspace(h: np.ndarray) -> np.ndarray:
    """Basis of the GF(2) null space of a binary matrix, rows as vectors."""
    h = np.array(h, dtype=np.uint8) % 2
    m, n = h.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        pick = None
        for rr in range(row, m):
            if h[rr, col]:
                pick = rr
                break
        if pick is None:
            continue
        h[[row, pick]] = h[[pick, row]]
        for rr in range(m):
            if rr != row and h[rr, col]:
                h[rr] ^= h[row]
        pivots.append(col)
        row += 1
        if row == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(n, dtype=np.uint8)
        v[f] = 1
        for rr, pc in enumerate(pivots):
            if rr < row and h[rr, f]:
                v[pc] = 1
        basis.append(v)
    return np.array(basis, dtype=np.uint8) if basis else np.zeros((0, n), np.uint8)


def codebook(h: np.ndarray) -> np.ndarray:
    """Every codeword of the code with parity-check matrix h (dense 0/1)."""
    basis = gf2_nullspace(h)
    k = basis.shape[0]
    if k == 0:
        return np.zeros((1, h.shape[1]), dtype=np.uint8)
    combos = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.uint8)
    return (combos @ basis) % 2


def exact_marginals(gamma: np.ndarray, code: ParityCheckMatrix) -> np.ndarray:
    """Posterior bit LLRs by summing over every valid configuration.

    The distribution weights configuration x by exp(-gamma . x) times the
    indicator that all checks are satisfied; feasible only for small N.
    """
    n = code.n_vars
    xs = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)
    ok = np.ones(len(xs), dtype=bool)
    for nb in check_neighborhoods(code):
        ok &= xs[:, nb].sum(axis=1) % 2 == 0
    xs = xs[ok]
    w = np.exp(-(xs @ gamma))
    p0 = np.array([w[xs[:, i] == 0].sum() for i in range(n)])
    p1 = np.array([w[xs[:, i] == 1].sum() for i in range(n)])
    return np.log(p0 / p1)


def leave_one_out_products_rowwise(t: np.ndarray) -> np.ndarray:
    """Each entry's product of the other entries of its row of an (m, d)
    array, as a prefix product times a suffix product, each a cumulative
    product along the row."""
    left = np.ones_like(t)
    right = np.ones_like(t)
    np.cumprod(t[:, :-1], axis=1, out=left[:, 1:])
    np.cumprod(t[:, :0:-1], axis=1, out=right[:, -2::-1])
    return left * right


def loopy_bp_by_check(
    gamma: np.ndarray, code: ParityCheckMatrix, iterations: int, clip: float
) -> np.ndarray:
    """Posterior LLRs after ``iterations`` flooding sum-product rounds,
    one check and one edge at a time.

    Every round recomputes each variable's total from the channel and
    the last check messages, saturates the variable-to-check message at
    ``clip`` and its half at ``clip / 2`` before the tanh, and saturates
    the check-to-variable message at ``clip``.
    """
    guard = 1.0 - 1e-15
    nbhds = check_neighborhoods(code)
    c2v = [np.zeros(len(nb)) for nb in nbhds]
    for _ in range(iterations):
        totals = np.array(gamma, dtype=float)
        for nb, msg in zip(nbhds, c2v):
            totals[nb] += msg
        new = []
        for nb, msg in zip(nbhds, c2v):
            v2c = [min(max(totals[i] - m, -clip), clip) for i, m in zip(nb, msg)]
            half = [math.tanh(min(max(0.5 * v, -0.5 * clip), 0.5 * clip)) for v in v2c]
            out = []
            for k in range(len(nb)):
                prod = math.prod(half[:k] + half[k + 1:])
                prod = min(max(prod, -guard), guard)
                out.append(min(max(2.0 * math.atanh(prod), -clip), clip))
            new.append(np.array(out))
        c2v = new
    beliefs = np.array(gamma, dtype=float)
    for nb, msg in zip(nbhds, c2v):
        beliefs[nb] += msg
    return beliefs


def _all_bits_reference(x: np.ndarray) -> bool:
    """``codes._all_bits`` as it was before bool words skipped the scan, kept verbatim."""
    if x.dtype.kind in "bu":
        return bool(np.maximum.reduce(x, axis=None, initial=0) <= 1)
    return bool(((x == 0) | (x == 1)).all())


def is_codeword_reference(code: ParityCheckMatrix, x: np.ndarray) -> bool:
    """``codes.is_codeword`` as it was before bool words skipped the 0/1 scan
    and the copy, kept verbatim: the reference for its verdicts and errors."""
    x = np.asarray(x)
    if x.shape != (code.n_vars,):
        raise ValueError(f"expected a length-{code.n_vars} vector")
    if not _all_bits_reference(x):
        raise ValueError("codeword entries must be 0 or 1")
    bits = x.astype(np.uint8, copy=False)
    # Parity of each check is the XOR down its column: d vector ops.
    return not any(
        np.bitwise_xor.reduce(bits[cols], axis=0).any() for cols in code.check_columns
    )


def posterior_llrs_reference(
    gamma: np.ndarray, code: ParityCheckMatrix, config: BpConfig = BpConfig()
) -> tuple[np.ndarray, int, bool]:
    """``bp_decoder.posterior_llrs`` as it was before it tested parity first,
    kept verbatim, with the codeword test above: the byte-for-byte
    reference for the order of its stop tests.  It counts any nonzero
    belief as decided; ``posterior_llrs`` also counts a belief within
    ~2e-16 of 0, whose probability rounds to 1/2, as undecided."""
    gamma = check_llrs(code, gamma)
    ev = code.edge_var
    clip = config.llr_clip
    c2v = np.zeros(code.n_edges)
    # Each iteration's variable totals are the last beliefs; the first
    # ones add zero messages, so -0.0 LLRs come in as 0.0.
    beliefs = gamma + 0.0
    found = False
    for t in range(1, config.t_max + 1):
        v2c = np.clip(beliefs[ev] - c2v, -clip, clip)
        c2v = _check_node_update(v2c, code, clip)
        beliefs = gamma + np.bincount(ev, weights=c2v, minlength=code.n_vars)
        hard = (beliefs < 0.0).astype(np.uint8)
        if (beliefs != 0.0).all() and is_codeword_reference(code, hard):
            found = True
            break
    return beliefs, t, found


def fundamental_lp(gamma: np.ndarray, code: ParityCheckMatrix) -> tuple[float, np.ndarray]:
    """Solve the decoding LP directly over its facet description.

    Per check, every odd-size subset S of its neighborhood contributes
    sum(S) - sum(complement) <= |S| - 1; plus the unit box.
    """
    n = code.n_vars
    rows, rhs = [], []
    for nb in check_neighborhoods(code):
        d = len(nb)
        for mask in itertools.product((0, 1), repeat=d):
            if sum(mask) % 2 == 1:
                row = np.zeros(n)
                for i, m in zip(nb, mask):
                    row[i] = 1.0 if m else -1.0
                rows.append(row)
                rhs.append(sum(mask) - 1.0)
    res = linprog(gamma, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(0, 1)] * n, method="highs")
    assert res.status == 0
    return float(res.fun), res.x


def decode_scaled_form(
    gamma: np.ndarray, code: ParityCheckMatrix, config: AdmmConfig = AdmmConfig()
) -> DecodeOutput:
    """ADMM in the scaled form of Boyd et al. (2011, section 3.1.1), the
    reference for ``decode``'s two-array recurrence: it carries the duals
    ``u`` beside the replicas, builds each projection input as
    ``rho x + (1 - rho) z + u`` and then steps ``u`` to ``v - z``."""
    gamma = np.asarray(gamma, dtype=float)
    z = u = np.zeros(code.n_edges)
    threshold = config.epsilon**2 * code.n_edges
    status = STATUS_MAX_ITERS
    for t in range(1, config.t_max + 1):
        acc = np.bincount(code.edge_var, weights=z - u, minlength=code.n_vars)
        x = np.minimum(np.maximum((acc - gamma / config.mu) / code.var_divisor, 0.0), 1.0)
        free = code.isolated_vars
        if free.size:
            x[free] = gamma[free] < 0.0
        x_edges = x[code.edge_var]
        v = config.rho * x_edges + (1.0 - config.rho) * z
        v += u
        z_new = code.map_checks(project_batch, v)
        dz = z_new - z
        settled = float(dz @ dz) < threshold
        if settled:
            r = x_edges - z_new
            settled = float(r @ r) < threshold
        u = v - z_new
        z = z_new
        if settled:
            status = STATUS_CONVERGED
            break
    return make_output(x, status, t, code)


def random_tree_code(rng: np.random.Generator, n_max: int = 12) -> ParityCheckMatrix:
    """Random cycle-free code: each check joins one existing variable to
    fresh ones, so every check has degree >= 2 and the graph is a tree."""
    checks: list[list[int]] = []
    n = 1
    variables = [0]
    while True:
        deg = int(rng.integers(2, 5))
        if n + (deg - 1) > n_max:
            break
        anchor = int(rng.choice(variables))
        fresh = list(range(n, n + deg - 1))
        n += deg - 1
        variables.extend(fresh)
        checks.append(sorted([anchor] + fresh))
        if len(checks) >= 2 and rng.random() < 0.25:
            break
    if not checks:
        checks = [[0, 1]]
        n = 2
    return ParityCheckMatrix(n, [np.array(c) for c in checks])


def interleaved_code(n: int, m: int, seed: int, degrees: tuple[int, ...] = (3, 5, 4)) -> ParityCheckMatrix:
    """Random code whose check degrees cycle through ``degrees``, so no
    degree's checks sit next to each other in check order."""
    rng = np.random.default_rng(seed)
    checks = [rng.choice(n, degrees[j % len(degrees)], replace=False) for j in range(m)]
    return ParityCheckMatrix(n, checks)


def relabel_vars(code: ParityCheckMatrix, perm: np.ndarray) -> ParityCheckMatrix:
    """The same code with variable ``i`` renamed ``perm[i]``; a vector
    ``y`` of the original code is ``y2[perm] = y`` in the new one."""
    return ParityCheckMatrix(code.n_vars, [perm[nb] for nb in check_neighborhoods(code)])


def hamming_7_4() -> ParityCheckMatrix:
    return ParityCheckMatrix.from_dense(
        [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ]
    )


def _alist_tokens_of_line(lines: list[str], idx: int, label: str) -> list[int]:
    if idx >= len(lines):
        raise AlistParseError(f"line {idx + 1}: missing {label}")
    try:
        return [int(t) for t in lines[idx].split()]
    except ValueError as exc:
        raise AlistParseError(f"line {idx + 1}: non-integer token in {label}") from exc


def _alist_first_fault(*faults: tuple[np.ndarray, str]) -> tuple[int, str] | None:
    found = [(int(js.min()), fault) for js, fault in faults if js.size]
    return min(found, key=lambda f: f[0]) if found else None


def parse_alist_reference(text: str) -> ParityCheckMatrix:
    """``parse_alist`` one line at a time: each line's tokens through
    ``int()``, each entry line checked for its count and then its range
    before the next is read.  Same codes and same error messages."""
    lines = [ln for ln in text.splitlines()]
    # Drop trailing blank lines but keep interior numbering intact.
    while lines and not lines[-1].strip():
        lines.pop()

    header = _alist_tokens_of_line(lines, 0, "size header")
    if len(header) != 2:
        raise AlistParseError("line 1: expected 'N M'")
    n, m = header
    if n <= 0 or m <= 0:
        raise AlistParseError("line 1: dimensions must be positive")

    max_degs = _alist_tokens_of_line(lines, 1, "maximum degrees")
    if len(max_degs) != 2:
        raise AlistParseError("line 2: expected maximum column and row degree")
    max_col, max_row = max_degs

    col_degs = _alist_tokens_of_line(lines, 2, "column degrees")
    if len(col_degs) != n:
        raise AlistParseError(f"line 3: expected {n} column degrees, got {len(col_degs)}")
    row_degs = _alist_tokens_of_line(lines, 3, "row degrees")
    if len(row_degs) != m:
        raise AlistParseError(f"line 4: expected {m} row degrees, got {len(row_degs)}")
    if any(d < 0 or d > max_col for d in col_degs):
        raise AlistParseError("line 3: column degree exceeds declared maximum")
    if any(d < 1 or d > max_row for d in row_degs):
        raise AlistParseError("line 4: row degree out of range")

    expected = 4 + n + m
    if len(lines) != expected:
        raise AlistParseError(
            f"line {min(len(lines), expected) + 1}: expected {expected} lines, got {len(lines)}"
        )

    checks = _alist_section(lines, 4, col_degs, m, "column", "check")
    variables = _alist_section(lines, 4 + n, row_degs, n, "row", "variable")

    # The two sections must describe the same matrix.  Key each edge by
    # (row, variable), as listed by the rows and by the columns.
    by_row = np.sort(np.repeat(np.arange(m), row_degs) * n + variables)
    by_col = np.sort(checks * n + np.repeat(np.arange(n), col_degs))
    fault = _alist_first_fault(
        (np.setxor1d(by_row, by_col) // n, "disagrees with the column section"),
        (by_row[1:][np.diff(by_row) == 0] // n, "lists a variable twice"),
    )
    if fault:
        j, what = fault
        raise AlistParseError(f"line {4 + n + j + 1}: row {j + 1} {what}")
    # The rows name each edge once, so a key the columns repeat is a
    # column that lists a check twice.
    twice = by_col[1:][np.diff(by_col) == 0] % n
    if twice.size:
        k = int(twice.min())
        raise AlistParseError(f"line {4 + k + 1}: column {k + 1} lists a check twice")

    return ParityCheckMatrix(n, np.split(variables, np.cumsum(row_degs)[:-1]))


def _alist_section(
    lines: list[str], first: int, degs: list[int], bound: int, kind: str, item: str
) -> np.ndarray:
    """The 0-based entries of the ``len(degs)`` alist lines from ``first``
    on, concatenated, after checking each line's count and range."""
    flat: list[int] = []
    for k, deg in enumerate(degs):
        ln = first + k
        entries = [e for e in _alist_tokens_of_line(lines, ln, f"{kind} entries") if e != 0]
        if len(entries) != deg:
            raise AlistParseError(
                f"line {ln + 1}: {kind} {k + 1} lists {len(entries)} {item}s, degree says {deg}"
            )
        if any(e < 1 or e > bound for e in entries):
            raise AlistParseError(f"line {ln + 1}: {item} index out of range")
        flat += entries
    return np.array(flat, dtype=np.int64) - 1


def emit_alist_reference(code: ParityCheckMatrix) -> str:
    """``emit_alist`` one line at a time: each column's checks and each
    row's variables sliced out of one word list and joined alone.  Same text."""
    checks = np.repeat(np.arange(code.n_checks), code.check_degrees)
    by_var = checks[np.argsort(code.edge_var, kind="stable")]
    words = list(map(str, (np.concatenate([by_var, code.edge_var]) + 1).tolist()))
    var_degs, check_degs = code.var_degrees.tolist(), code.check_degrees.tolist()
    bounds = [0, *itertools.accumulate(var_degs + check_degs)]
    out = [
        f"{code.n_vars} {code.n_checks}",
        f"{max(var_degs)} {max(check_degs)}",
        " ".join(map(str, var_degs)),
        " ".join(map(str, check_degs)),
        *(" ".join(words[a:b]) for a, b in zip(bounds, bounds[1:])),
    ]
    return "\n".join(out) + "\n"
