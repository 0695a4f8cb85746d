"""ADMM solver for the relaxed decoding LP.

``decode`` carries two edge-flat arrays in check order: the replicas
``z`` and the projection input ``v`` they are the projection of.  The
scaled duals of Boyd et al. (2011, section 3.1.1) are ``u = v - z``.  An
iteration averages ``2z - v = z - u`` into the variables (``x_update``),
forms the dual step ``x - z`` on the edges once, moves ``v`` by ``rho``
times it (``lambda_update``) and projects each check's rows of the new
``v`` onto the parity polytope (``z_update``).  On codes of at least
``_ACTIVE_SET_EDGES`` edges only the checks whose step is nonzero on
some edge are projected again; every other check's ``v`` has not moved,
so it keeps its ``z``, bit for bit.  It stops when the replicas have stopped
moving and agree with the variables, both to a degree-normalized tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .codes import (ParityCheckMatrix, check_integer, check_llrs, check_positive, check_real,
                    is_codeword)
from .parity_polytope import project_batch

# An iterate further than this from {0, 1} in any coordinate is fractional.
INTEGRALITY_TOL = 1e-5

STATUS_CONVERGED = "Converged"
STATUS_MAX_ITERS = "MaxIters"


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty, stopping tolerance, iteration cap, and over-relaxation."""

    mu: float = 3.0
    epsilon: float = 1e-5
    t_max: int = 1000
    rho: float = 1.9

    def __post_init__(self) -> None:
        check_positive("mu", self.mu)
        check_positive("epsilon", self.epsilon)
        check_integer("t_max", self.t_max, 1)
        check_real("rho", self.rho)
        if not (1.0 <= self.rho < 2.0):
            raise ValueError("rho must be in [1, 2)")


@dataclass(frozen=True)
class DecodeOutput:
    """Result of one decode: relaxed solution, status, and hard decision.

    ``integral`` means every coordinate is within 1e-5 of a bit value.
    ``ml_certificate`` is set when the decoder converged to an integral
    point whose hard decision satisfies every check: an integral optimum
    of the relaxation is a maximum-likelihood codeword, and an iterate
    cut off at ``t_max`` is not known to be one.
    """

    x: NDArray[np.float64]
    status: str
    integral: bool
    iterations: int
    hard_decision: NDArray[np.uint8]
    ml_certificate: bool


def make_output(
    x: NDArray[np.float64], status: str, iterations: int, code: ParityCheckMatrix
) -> DecodeOutput:
    # The hard decision is the bit value nearest each coordinate.  Every
    # decoder's x lies in [0, 1], so |x - hard| is min(x, 1 - x) exactly,
    # and all of it is within the tolerance iff its maximum is.
    ones = x > 0.5
    integral = bool(np.minimum(x, 1.0 - x).max() <= INTEGRALITY_TOL)
    cert = status == STATUS_CONVERGED and integral and is_codeword(code, ones)
    return DecodeOutput(x=x, status=status, integral=integral, iterations=iterations,
                        hard_decision=ones.view(np.uint8), ml_certificate=cert)


# OpenBLAS splits a ddot of over ~10 000 entries across its threads, and the
# split moves its rounding; a longer residual dot sums chunks of this size.
_DOT_CHUNK = 8192


def _chunked_dot(a: NDArray[np.float64], b: NDArray[np.float64]) -> float:
    """``a . b`` summed over ``_DOT_CHUNK``-entry chunks in order: the same bits
    under any BLAS thread count."""
    total = 0.0
    for k in range(0, a.size, _DOT_CHUNK):
        total += a[k : k + _DOT_CHUNK].dot(b[k : k + _DOT_CHUNK])
    return total


def x_update(
    z: NDArray[np.float64],
    v: NDArray[np.float64],
    code: ParityCheckMatrix,
    gamma_mu: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Average the dual-adjusted replicas ``2z - v``, step against ``gamma / mu``, clamp."""
    w = z + z
    w -= v
    acc = np.bincount(code.edge_var, weights=w, minlength=code.n_vars)
    acc -= gamma_mu
    acc /= code.var_divisor
    return np.minimum(np.maximum(acc, 0.0, out=acc), 1.0, out=acc)


def lambda_update(
    v: NDArray[np.float64],
    step: NDArray[np.float64],
    config: AdmmConfig,
) -> NDArray[np.float64]:
    """Over-relaxed scaled dual step ``v + rho * step``, with ``step = x_edges - z``;
    returns the next projection input."""
    # Built in one fresh array; no input is written.
    s = step * config.rho
    s += v
    return s


# Codes with fewer edges project every check each iteration.  Two cases
# hold the cut-over here: small codes such as N=96 (288 edges), where
# picking the moved checks costs more numpy calls than skipping the other
# rows saves, and (5,6,7) codes at BSC 0.05, where ~47 % of rows move and
# the moved path is slower below ~4 000 edges.  (3,6) codes alone would
# pay from 576 edges or fewer at BSC 0.015 (the timings are in the README).
_ACTIVE_SET_EDGES = 2048


def _project_moved(v: NDArray, step: NDArray, z: NDArray) -> NDArray:
    """``z`` with the rows whose ``step`` is nonzero somewhere replaced by the
    projections of their rows of ``v``; one degree group's (m_d, d) rows."""
    # A sum of magnitudes is 0 only when each one is, in any order of
    # summation, and one matrix-vector product is cheaper than any(axis=1).
    moved = np.abs(step).dot(np.ones(step.shape[1])).nonzero()[0]
    out = z.copy()
    if moved.size:
        out[moved] = project_batch(v.take(moved, axis=0))
    return out


def z_update(
    v: NDArray[np.float64],
    z: NDArray[np.float64],
    step: NDArray[np.float64],
    code: ParityCheckMatrix,
) -> NDArray[np.float64]:
    """Project each check's rows of ``v`` onto the parity polytope.

    ``z`` is the projection of the previous ``v``, and ``step`` the dual
    step that moved it.  A check whose step is zero on every edge kept its
    ``v`` bit for bit (``v`` never holds -0.0), so on codes of at least
    ``_ACTIVE_SET_EDGES`` edges it keeps its ``z``, and only the other
    checks are projected again: ``project_batch`` gives each row the same
    bytes whatever batch it is in.
    """
    # project_batch is looked up on every call, so a wrapper put on this
    # module's name sees each projection.
    if code.n_edges < _ACTIVE_SET_EDGES:
        return code.map_checks(project_batch, v)
    return code.map_checks(_project_moved, v, step, z)


def _start(bits: NDArray[np.float64]) -> NDArray[np.float64]:
    """One degree group's start rows from the hard decision's (m_d, d) bits: the
    bits on an even check, the centroid 1/2 on an odd one, 0 at degree 1."""
    if bits.shape[1] == 1:
        return np.zeros(bits.shape)  # PP_1 = {0}
    # The row sums are exact; BLAS and an integer parity cost less than a float %.
    return np.where((bits @ np.ones(bits.shape[1])).astype(np.int64)[:, None] & 1, 0.5, bits)


def decode(
    gamma: ArrayLike,
    code: ParityCheckMatrix,
    config: AdmmConfig = AdmmConfig(),
) -> DecodeOutput:
    """Solve the decoding LP for the LLR vector ``gamma``.

    Replicas and projection inputs start at one point of each check's
    parity polytope, from the hard decision ``gamma < 0``: its bits on a
    check it satisfies, the centroid 1/2 on one it violates, 0 on a
    degree-1 check.  So the scaled duals start at 0, each start row is its
    own projection, and on the BSC the path does not depend, beyond
    rounding, on the sent codeword.  Convergence requires both the replica
    movement and the replica-to-variable residual to fall below
    ``epsilon^2`` times the total edge count; the residual is only computed
    once the movement is below it.
    """
    gamma = check_llrs(code, gamma)
    # No step writes its inputs, so z and v can share the start.
    z = v = code.map_checks(_start, (gamma < 0.0)[code.edge_var] * 1.0)
    gamma_mu = gamma / config.mu
    threshold = config.epsilon**2 * code.n_edges
    dot = np.ndarray.dot if code.n_edges <= _DOT_CHUNK else _chunked_dot
    status = STATUS_MAX_ITERS
    for t in range(1, config.t_max + 1):
        x = x_update(z, v, code, gamma_mu)
        x_edges = x[code.edge_var]
        step = x_edges - z
        v = lambda_update(v, step, config)
        z_new = z_update(v, z, step, code)
        dz = z_new - z
        z = z_new
        if dot(dz, dz) < threshold:
            r = x_edges - z
            if dot(r, r) < threshold:
                status = STATUS_CONVERGED
                break
    # No edge reads a variable in no check: it takes its cost term's minimizer.
    free = code.isolated_vars
    if free.size:
        x[free] = gamma[free] < 0.0
    return make_output(x, status, t, code)
