"""ADMM solver for the relaxed decoding LP.

``decode`` carries two edge-flat arrays in check order: the replicas
``z`` and the projection input ``v`` they are the projection of.  The
scaled duals of Boyd et al. (2011, section 3.1.1) are ``u = v - z``.  An
iteration averages ``2z - v = z - u`` into the variables (``x_update``),
takes the over-relaxed dual step ``v + rho (x - z)`` on the edges
(``lambda_update``) and projects each check's rows of the new ``v`` onto
the parity polytope (``z_update``).  It stops when the replicas have
stopped moving and agree with the variables, both to a degree-normalized
tolerance.
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
    hard = (x > 0.5).astype(np.uint8)
    # The hard decision is the bit value nearest each coordinate.
    integral = bool((np.abs(x - hard) <= INTEGRALITY_TOL).all())
    cert = status == STATUS_CONVERGED and integral and is_codeword(code, hard)
    return DecodeOutput(x=x, status=status, integral=integral, iterations=iterations,
                        hard_decision=hard, ml_certificate=cert)


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
    x_edges: NDArray[np.float64],
    z: NDArray[np.float64],
    config: AdmmConfig,
) -> NDArray[np.float64]:
    """Over-relaxed scaled dual step; returns the next projection input."""
    # v + rho * (x_edges - z), built in one fresh array; no input is written.
    s = x_edges - z
    s *= config.rho
    s += v
    return s


def z_update(v: NDArray[np.float64], code: ParityCheckMatrix) -> NDArray[np.float64]:
    """Project each check's rows of ``v`` onto the parity polytope."""
    # project_batch is looked up here on every call, so a wrapper put on
    # this module's name sees each projection.
    return code.map_checks(project_batch, v)


def decode(
    gamma: ArrayLike,
    code: ParityCheckMatrix,
    config: AdmmConfig = AdmmConfig(),
) -> DecodeOutput:
    """Solve the decoding LP for the LLR vector ``gamma``.

    Replicas and projection inputs start at zero.  Convergence requires
    both the replica movement and the replica-to-variable residual to
    fall below ``epsilon^2`` times the total edge count; the residual is
    only computed once the movement is below it.
    """
    gamma = check_llrs(code, gamma)
    # No step writes its inputs, so z and v can share zeros.
    z = v = np.zeros(code.n_edges)
    gamma_mu = gamma / config.mu
    threshold = config.epsilon**2 * code.n_edges
    status = STATUS_MAX_ITERS
    for t in range(1, config.t_max + 1):
        x = x_update(z, v, code, gamma_mu)
        x_edges = x[code.edge_var]
        v = lambda_update(v, x_edges, z, config)
        z_new = z_update(v, code)
        dz = z_new - z
        z = z_new
        if dz.dot(dz) < threshold:
            r = x_edges - z
            if r.dot(r) < threshold:
                status = STATUS_CONVERGED
                break
    # No edge reads a variable in no check: it takes its cost term's minimizer.
    free = code.isolated_vars
    if free.size:
        x[free] = gamma[free] < 0.0
    return make_output(x, status, t, code)
