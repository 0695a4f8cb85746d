"""Workload table and set-up for the decode benchmark.

Each workload fixes a code (with its own code seed), a channel point and
a decoder with its default config.  The frames are drawn by
``polylp.simulator.run_point`` from the benchmark's frame seed, in
``chunks`` calls of ``chunk_size`` trials each; chunk ``c`` uses
``point_index=c`` so that every frame of a run is distinct and depends
only on (frame seed, chunk, trial).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_polylp() -> None:
    """Import polylp from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "polylp" / "__init__.py").is_file():
        raise ImportError(f"no polylp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import polylp

    if Path(polylp.__file__).resolve().parent != SRC / "polylp":
        raise ImportError(f"polylp was imported from {polylp.__file__}, not from {SRC}")


_import_polylp()

import numpy as np  # noqa: E402

from polylp.channels import Awgn, Bsc, ChannelModel, llr  # noqa: E402
from polylp.codes import (  # noqa: E402
    ParityCheckMatrix,
    emit_alist,
    gen_regular_ldpc,
    parse_alist,
)
from polylp.simulator import DecoderRef  # noqa: E402


def array_code(q: int, col_weight: int, row_weight: int) -> ParityCheckMatrix:
    """Array LDPC code: a ``col_weight`` x ``row_weight`` grid of q x q
    circulants, block (a, b) being the identity shifted by ``a * b``.

    Check ``(a, r)`` holds variable ``(b, (r + a*b) mod q)`` for every block
    column ``b``.  For prime ``q`` with both weights at most ``q`` the code
    is (col_weight, row_weight)-regular and has no 4-cycles: two checks
    sharing two variables would need ``(a1 - a2)(b1 - b2) = 0 mod q``.
    """
    if q < 2 or any(q % f == 0 for f in range(2, int(q**0.5) + 1)):
        raise ValueError("q must be prime")
    if not (1 <= col_weight <= q and 1 <= row_weight <= q):
        raise ValueError("weights must lie in [1, q]")
    blocks = np.arange(row_weight)
    checks = [
        blocks * q + (r + a * blocks) % q
        for a in range(col_weight)
        for r in range(q)
    ]
    return ParityCheckMatrix(row_weight * q, checks)


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    build_code: Callable[[], ParityCheckMatrix]
    channel: Callable[[ParityCheckMatrix], ChannelModel]
    chunks: int
    chunk_size: int
    # Median time of the calibration kernel of this workload's shape on a
    # shared 2-core Intel Xeon (numpy 2.4, Python 3.11); see calibration.py.
    kernel_seconds: float

    @property
    def frames(self) -> int:
        return self.chunks * self.chunk_size


def _regular(n: int) -> Callable[[], ParityCheckMatrix]:
    return lambda: gen_regular_ldpc(n, 3, 6, seed=7)


def _array_q37() -> ParityCheckMatrix:
    return array_code(37, 4, 32)


# Frame counts are sized so that one untraced pass takes about 6 s, in
# chunks of about 0.3 s, on a 2-core Xeon.  admm-n96-bsc is the exception:
# its t_max tail needs every frame a run can afford, so it makes a single
# pass of about 23 s in chunks of about 0.5 s.  See NOTES.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="admm-n1002-bsc",
            algo="admm",
            build_code=_regular(1002),
            channel=lambda code: Bsc(0.035),
            chunks=22,
            chunk_size=15,
            kernel_seconds=0.0073,
        ),
        Workload(
            name="admm-n96-bsc",
            algo="admm",
            build_code=_regular(96),
            channel=lambda code: Bsc(0.015),
            chunks=44,
            chunk_size=200,
            kernel_seconds=0.011,
        ),
        Workload(
            name="admm-array-d32-awgn",
            algo="admm",
            build_code=_array_q37,
            channel=lambda code: Awgn(5.5, code.design_rate),
            chunks=18,
            chunk_size=4,
            kernel_seconds=0.0045,
        ),
        Workload(
            name="bp-n1002-bsc",
            algo="bp",
            build_code=_regular(1002),
            channel=lambda code: Bsc(0.035),
            chunks=18,
            chunk_size=300,
            kernel_seconds=0.0073,
        ),
    )
}


@dataclass
class Bench:
    """A set-up workload: the code as the CLI would load it, its channel
    point and decoder."""

    workload: Workload
    code: ParityCheckMatrix
    channel: ChannelModel
    decoder: DecoderRef


def set_up(workload: Workload) -> Bench:
    """Build the code, round-trip it through alist text as the CLI loads
    it, and decode one noiseless frame so the code's cached tables fill."""
    code = parse_alist(emit_alist(workload.build_code()))
    channel = workload.channel(code)
    decoder = DecoderRef(workload.algo)
    sent = np.zeros(code.n_vars, dtype=np.uint8)
    received = sent if isinstance(channel, Bsc) else 1.0 - 2.0 * sent
    decoder.bind(code)(llr(received, channel))
    return Bench(workload, code, channel, decoder)
