"""Flooding-schedule sum-product belief propagation with saturating LLRs.

Baseline decoder for the comparative experiments.  Messages live in the
same nats-valued convention as the channel LLRs (positive favors bit 0),
check updates use the tanh rule with guarded hyperbolic arguments, and
every message saturates at ``llr_clip``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .admm_decoder import INTEGRALITY_TOL, DecodeOutput, STATUS_CONVERGED, STATUS_MAX_ITERS
from .codes import ParityCheckMatrix, check_integer, check_llrs, check_positive, is_codeword

_ATANH_GUARD = 1.0 - 1e-15


@dataclass(frozen=True)
class BpConfig:
    """Iteration cap and saturation magnitude (nats)."""

    t_max: int = 1000
    llr_clip: float = 30.0

    def __post_init__(self) -> None:
        check_integer("t_max", self.t_max, 1)
        check_positive("llr_clip", self.llr_clip)


def _prefix_products(a: NDArray[np.float64], out: NDArray[np.float64]) -> None:
    # Inclusive prefix products down axis 0 of a (rows, m) block into out.
    # numpy accumulates one column at a time, so the block takes rows - 1
    # vector steps across all columns instead; they multiply first to last,
    # as the accumulate does, to the same bytes.
    out[:1] = a[:1]
    for k in range(1, a.shape[0]):
        np.multiply(out[k - 1], a[k], out=out[k])


def _leave_one_out_products(t: NDArray[np.float64]) -> NDArray[np.float64]:
    # Each entry's product of the other entries of its row, as prefix *
    # suffix so that a zero message never forces a division.  The scans
    # run down a (d, m) copy, one column per check.
    cols = t.T.copy()
    left = np.empty_like(cols)
    right = np.empty_like(cols)
    left[0] = right[-1] = 1.0
    _prefix_products(cols[:-1], left[1:])
    _prefix_products(cols[:0:-1], right[-2::-1])
    left *= right
    return left.T


def _check_node_update(
    v2c: NDArray[np.float64], code: ParityCheckMatrix, clip: float
) -> NDArray[np.float64]:
    # tanh rule over the leave-one-out products of each check.
    half = np.tanh(0.5 * v2c)
    prod = code.map_checks(_leave_one_out_products, half)
    prod = np.clip(prod, -_ATANH_GUARD, _ATANH_GUARD)
    return np.clip(2.0 * np.arctanh(prod), -clip, clip)


def _p_one(beliefs: NDArray[np.float64]) -> NDArray[np.float64]:
    # Stable sigmoid of -belief: probability that the bit is 1.
    return 0.5 * (1.0 - np.tanh(0.5 * beliefs))


def posterior_llrs(
    gamma: ArrayLike,
    code: ParityCheckMatrix,
    config: BpConfig = BpConfig(),
) -> tuple[NDArray[np.float64], int, bool]:
    """Run flooding sum-product; return (beliefs, iterations, codeword_found).

    Beliefs are posterior LLRs in the channel convention.  The loop exits
    once the hard decision satisfies every check and each bit is strictly
    decided: its reported probability is not exactly 1/2, as it is for a
    zero belief and for one so small that ``1 - tanh(belief / 2)`` rounds to 1.
    """
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
        # Parity fails on all but the last iteration of most frames, so it
        # is tested first, and the undecided-bit scan runs only once it holds.
        if is_codeword(code, beliefs < 0.0) and (_p_one(beliefs) != 0.5).all():
            found = True
            break
    return beliefs, t, found


def decode_bp(
    gamma: ArrayLike,
    code: ParityCheckMatrix,
    config: BpConfig = BpConfig(),
) -> DecodeOutput:
    """Sum-product decode; soft outputs are posterior bit-1 probabilities."""
    beliefs, iterations, found = posterior_llrs(gamma, code, config)
    p_one = _p_one(beliefs)
    hard = (beliefs < 0.0).astype(np.uint8)
    integral = bool((np.minimum(p_one, 1.0 - p_one) <= INTEGRALITY_TOL).all())
    return DecodeOutput(x=p_one, status=STATUS_CONVERGED if found else STATUS_MAX_ITERS,
                        integral=integral, iterations=iterations, hard_decision=hard,
                        ml_certificate=False)
