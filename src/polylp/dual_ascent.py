"""Dual subgradient ascent baseline on the un-augmented Lagrangian.

Variables snap to a Heaviside of the accumulated duals, replicas solve a
linear maximization over the parity polytope, and the duals move by a
constant step against the consensus residual.  The variable and replica
phases of one iteration read only the previous duals, so they are fully
parallel.  Kept as a baseline: it needs far more iterations than ADMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .admm_decoder import DecodeOutput, STATUS_CONVERGED, STATUS_MAX_ITERS, make_output
from .codes import ParityCheckMatrix, check_integer, check_llrs, check_positive
from .parity_polytope import maximize_linear_batch


@dataclass(frozen=True)
class DualAscentConfig:
    """Constant dual step size and iteration cap."""

    step: float = 0.1
    t_max: int = 1000

    def __post_init__(self) -> None:
        check_positive("step", self.step)
        check_integer("t_max", self.t_max, 1)


def decode_dual_ascent(
    gamma: ArrayLike,
    code: ParityCheckMatrix,
    config: DualAscentConfig = DualAscentConfig(),
) -> DecodeOutput:
    """Decode by subgradient ascent on the dual of the decoding LP.

    Stops at exact consensus, where every replica equals its variables'
    0/1 values, or at ``t_max``.  Consensus puts every check's variables
    on an even vertex, so a ``Converged`` output is a codeword.
    """
    gamma = check_llrs(code, gamma)
    ev = code.edge_var
    lam = np.zeros(code.n_edges)
    status = STATUS_MAX_ITERS
    for t in range(1, config.t_max + 1):
        dual_load = np.bincount(ev, weights=lam, minlength=code.n_vars)
        # Heaviside with theta(0) = 0.
        x = ((-gamma - dual_load) > 0.0).astype(float)
        z = code.map_checks(maximize_linear_batch, lam)
        residual = x[ev] - z
        if not residual.any():
            status = STATUS_CONVERGED
            break
        lam += config.step * residual
    return make_output(x, status, t, code)
