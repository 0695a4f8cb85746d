"""A standing digest of seeded decodes across the three decoders.

Each case decodes a fixed seeded corpus of frames and hashes every
output field.  A change that moves any seeded decode, even by one ulp of
``x``, changes a digest, so a refactor that claims to keep outputs the
same can show it here.  Re-pin only on purpose, with the old and new
digests in CHANGES.md.

The discrete fields (status, iterations, hard decision, integrality and
certificate) are pinned on every numpy.  The bytes of ``x`` may move in
their last bits with numpy's reduction order, so they are pinned on
numpy 2 and later only.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from polylp import (
    STATUS_MAX_ITERS,
    Awgn,
    Bsc,
    decode,
    decode_bp,
    decode_dual_ascent,
    gen_regular_ldpc,
    llr,
    transmit,
)
from test_codes import array_code_q37

NUMPY_2 = int(np.__version__.split(".")[0]) >= 2


def _digests(decoder, code, channel, frames, seed):
    """Discrete-field and ``x`` digests of ``frames`` all-zero codewords sent
    over ``channel`` from ``default_rng(seed)``, and the frames that hit t_max."""
    rng = np.random.default_rng(seed)
    zero = np.zeros(code.n_vars, dtype=np.uint8)
    discrete, xs = hashlib.sha256(), hashlib.sha256()
    at_t_max = 0
    for _ in range(frames):
        out = decoder(llr(transmit(zero, channel, rng), channel), code)
        discrete.update(repr((out.status, out.iterations, out.integral,
                              out.ml_certificate)).encode())
        discrete.update(np.ascontiguousarray(out.hard_decision, dtype=np.uint8).tobytes())
        xs.update(np.ascontiguousarray(out.x, dtype=np.float64).tobytes())
        at_t_max += out.status == STATUS_MAX_ITERS
    return discrete.hexdigest()[:16], xs.hexdigest()[:16], at_t_max


CASES = {
    "admm-n96-bsc0.015": (decode, lambda: gen_regular_ldpc(96, 3, 6, seed=7), Bsc(0.015), 100),
    "admm-n96-bsc0.03": (decode, lambda: gen_regular_ldpc(96, 3, 6, seed=7), Bsc(0.03), 100),
    "admm-n96-bsc0.05": (decode, lambda: gen_regular_ldpc(96, 3, 6, seed=7), Bsc(0.05), 100),
    "admm-n1002-bsc0.05": (decode, lambda: gen_regular_ldpc(1002, 3, 6, seed=7), Bsc(0.05), 20),
    "admm-array-d32-awgn5.5": (decode, array_code_q37, Awgn(5.5, 0.875), 10),
    "bp-n1002-bsc0.05": (decode_bp, lambda: gen_regular_ldpc(1002, 3, 6, seed=7), Bsc(0.05), 10),
    "dual-ascent-n48-bsc0.03": (decode_dual_ascent, lambda: gen_regular_ldpc(48, 3, 6, seed=3),
                                Bsc(0.03), 10),
}

# (discrete digest, x digest, frames at t_max) of each case, seed 2024.  The
# array code's AWGN rate is its design rate, 1 - 148/1184.
PINNED = {
    "admm-n96-bsc0.015": ("b003e306e2199ebe", "327e885c698ddcf8", 0),
    "admm-n96-bsc0.03": ("4f72a8c12e9c6203", "be0e649d41c23133", 3),
    "admm-n96-bsc0.05": ("313abab78dd60e86", "45797d6df0eee282", 14),
    "admm-n1002-bsc0.05": ("f67549eb2dfa5b02", "f1928b8ec2751d9a", 0),
    "admm-array-d32-awgn5.5": ("632933466a1bbd9a", "017b23808471bcf7", 0),
    "bp-n1002-bsc0.05": ("e03e7ef028c21211", "b8c61b57265e1688", 0),
    "dual-ascent-n48-bsc0.03": ("e22340d6b1b0e89a", "505930ab058e0970", 1),
}


@pytest.mark.parametrize("name", list(CASES))
def test_seeded_decodes_match_pinned_digest(name):
    decoder, build, channel, frames = CASES[name]
    discrete, xs, at_t_max = _digests(decoder, build(), channel, frames, seed=2024)
    want_discrete, want_x, want_t_max = PINNED[name]
    assert (discrete, at_t_max) == (want_discrete, want_t_max)
    if NUMPY_2:
        assert xs == want_x
