"""ADMM solver for the relaxed decoding LP.

``decode`` holds its iterates as edge-flat arrays in check order: the
replicas ``z`` and the scaled duals ``u = lambda / mu`` of Boyd et al.
(2011, section 3.1.1).  Each phase takes and returns arrays.  An
iteration averages ``z - u`` into the variables (``x_update``), projects
each check's over-relaxed mixture plus ``u``, the input ``v``, onto the
parity polytope (``z_update``), and steps the duals to ``v - z``
(``lambda_update``).  It stops when the replicas have stopped moving and
agree with the variables, both to a degree-normalized tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .codes import ParityCheckMatrix, check_integer, check_llrs, check_positive, is_codeword
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
        if not (1.0 <= self.rho < 2.0):
            raise ValueError("rho must be in [1, 2)")


@dataclass(frozen=True)
class DecodeOutput:
    """Result of one decode: relaxed solution, status, and hard decision.

    ``integral`` means every coordinate is within 1e-5 of a bit value.
    ``ml_certificate`` is set when the output is integral and its hard
    decision satisfies every check: an integral optimum of the relaxation
    is a maximum-likelihood codeword.
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
    cert = integral and is_codeword(code, hard)
    return DecodeOutput(
        x=x,
        status=status,
        integral=integral,
        iterations=iterations,
        hard_decision=hard,
        ml_certificate=cert,
    )


def x_update(
    z: NDArray[np.float64],
    u: NDArray[np.float64],
    code: ParityCheckMatrix,
    gamma: NDArray[np.float64],
    config: AdmmConfig,
) -> NDArray[np.float64]:
    """Average the dual-adjusted replicas, step against the LLRs, clamp."""
    acc = np.bincount(code.edge_var, weights=z - u, minlength=code.n_vars)
    x = np.minimum(np.maximum((acc - gamma / config.mu) / code.var_divisor, 0.0), 1.0)
    free = code.isolated_vars
    if free.size:
        # Unconstrained variables take the minimizer of their cost term.
        x[free] = gamma[free] < 0.0
    return x


def z_update(
    x_edges: NDArray[np.float64],
    z: NDArray[np.float64],
    u: NDArray[np.float64],
    code: ParityCheckMatrix,
    config: AdmmConfig,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Project each check's over-relaxed replica target onto the polytope;
    returns the projection input ``v`` and the new replicas."""
    v = config.rho * x_edges + (1.0 - config.rho) * z
    v += u
    # project_batch is looked up here on every call, so a wrapper put on
    # this module's name sees each projection.
    return v, code.map_checks(project_batch, v)


def lambda_update(v: NDArray[np.float64], z: NDArray[np.float64]) -> NDArray[np.float64]:
    """Scaled dual step against the residual of the mixture the replicas
    saw: ``u + (mixture - z)``, which is ``v - z``."""
    return v - z


def decode(
    gamma: ArrayLike,
    code: ParityCheckMatrix,
    config: AdmmConfig = AdmmConfig(),
) -> DecodeOutput:
    """Solve the decoding LP for the LLR vector ``gamma``.

    Replicas and duals start at zero.  Convergence requires both the
    replica movement and the replica-to-variable residual to fall below
    ``epsilon^2`` times the total edge count; the residual is only
    computed once the movement is below it.
    """
    gamma = check_llrs(code, gamma)
    # No step writes its inputs, so the replicas and duals can share zeros.
    z = u = np.zeros(code.n_edges)
    threshold = config.epsilon**2 * code.n_edges
    status = STATUS_MAX_ITERS
    for t in range(1, config.t_max + 1):
        x = x_update(z, u, code, gamma, config)
        x_edges = x[code.edge_var]
        v, z_new = z_update(x_edges, z, u, code, config)
        dz = z_new - z
        settled = float(dz @ dz) < threshold
        if settled:
            r = x_edges - z_new
            settled = float(r @ r) < threshold
        u = lambda_update(v, z_new)
        z = z_new
        if settled:
            status = STATUS_CONVERGED
            break
    return make_output(x, status, t, code)
