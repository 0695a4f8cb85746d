"""ADMM solver for the relaxed decoding LP.

Each iteration averages adjusted per-check replicas into the variable
estimates, projects every check's over-relaxed replica onto the parity
polytope, and takes a dual ascent step.  The duals are kept in the
scaled form of Boyd et al. (2011, section 3.1.1), ``u = lambda / mu``,
so the dual step is the difference between the projection's input and
its output.  The iteration stops when the replicas have stopped moving
and agree with the variables, both to a degree-normalized tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class AdmmState:
    """Iterates of one decode: variables, replicas, and scaled duals.

    Replicas and duals are stored edge-flat in check order; the slice for
    check ``j`` is ``code.check_slice(j)``.  ``u`` is the scaled dual
    ``lambda / mu`` of the consensus constraints.  The replica update
    leaves ``x_edges``, the variables gathered onto the edges, for the
    stopping rule, and ``v``, the projection input (the over-relaxed
    consensus mixture plus ``u``), for the dual update.
    """

    x: NDArray[np.float64]
    z: NDArray[np.float64]
    u: NDArray[np.float64]
    z_prev: NDArray[np.float64]
    x_edges: NDArray[np.float64] = field(default_factory=lambda: np.empty(0))
    v: NDArray[np.float64] = field(default_factory=lambda: np.empty(0))
    iterations: int = 0

    @classmethod
    def initial(cls, code: ParityCheckMatrix) -> "AdmmState":
        e = code.n_edges
        return cls(
            x=np.zeros(code.n_vars),
            z=np.zeros(e),
            u=np.zeros(e),
            z_prev=np.zeros(e),
        )


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
    state: AdmmState,
    code: ParityCheckMatrix,
    gamma: NDArray[np.float64],
    config: AdmmConfig,
) -> NDArray[np.float64]:
    """Average the dual-adjusted replicas, step against the LLRs, clamp."""
    acc = np.bincount(code.edge_var, weights=state.z - state.u, minlength=code.n_vars)
    x = np.minimum(np.maximum((acc - gamma / config.mu) / code.var_divisor, 0.0), 1.0)
    free = code.isolated_vars
    if free.size:
        # Unconstrained variables take the minimizer of their cost term.
        x[free] = gamma[free] < 0.0
    state.x = x
    return state.x


def z_update(
    state: AdmmState, code: ParityCheckMatrix, config: AdmmConfig
) -> NDArray[np.float64]:
    """Project each check's over-relaxed replica target onto the polytope."""
    state.x_edges = state.x[code.edge_var]
    v = config.rho * state.x_edges + (1.0 - config.rho) * state.z
    v += state.u
    # project_batch is looked up here on every call, so a wrapper put on
    # this module's name sees each projection.
    z_new = code.map_checks(project_batch, v)
    state.z_prev = state.z
    state.v = v
    state.z = z_new
    return z_new


def lambda_update(
    state: AdmmState, code: ParityCheckMatrix, config: AdmmConfig
) -> NDArray[np.float64]:
    """Scaled dual step against the residual of the mixture the replicas
    saw: ``u + (mixture - z)``, which is ``v - z``."""
    state.u = state.v - state.z
    return state.u


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
    state = AdmmState.initial(code)
    threshold = config.epsilon**2 * code.n_edges
    status = STATUS_MAX_ITERS
    for t in range(1, config.t_max + 1):
        x_update(state, code, gamma, config)
        z_update(state, code, config)
        dz = state.z - state.z_prev
        settled = float(dz @ dz) < threshold
        if settled:
            r = state.x_edges - state.z
            settled = float(r @ r) < threshold
        lambda_update(state, code, config)
        state.iterations = t
        if settled:
            status = STATUS_CONVERGED
            break
    return make_output(state.x, status, state.iterations, code)
