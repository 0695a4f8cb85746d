"""LP decoding of binary LDPC codes via ADMM consensus optimization.

The core primitive is an exact O(d log d) Euclidean projection onto the
parity polytope; around it sit the ADMM decoder, sum-product BP and
dual-ascent baselines, channel models, and a seeded Monte-Carlo harness.
"""

from .admm_decoder import (
    AdmmConfig,
    DecodeOutput,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    decode,
)
from .bp_decoder import BpConfig, decode_bp
from .channels import Awgn, Bsc, ChannelModel, llr, transmit
from .codes import (
    AlistParseError,
    CodeGenerationError,
    ParityCheckMatrix,
    emit_alist,
    gen_regular_ldpc,
    is_codeword,
    parse_alist,
)
from .dual_ascent import DualAscentConfig, decode_dual_ascent
from .parity_polytope import (
    ProjectionWorkspace,
    membership,
    project_batch,
    project_parity_polytope,
)
from .simulator import (
    DecoderRef,
    TrialStats,
    run_point,
    stats_to_csv,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "AlistParseError",
    "Awgn",
    "BpConfig",
    "Bsc",
    "ChannelModel",
    "CodeGenerationError",
    "DecodeOutput",
    "DecoderRef",
    "DualAscentConfig",
    "ParityCheckMatrix",
    "ProjectionWorkspace",
    "STATUS_CONVERGED",
    "STATUS_MAX_ITERS",
    "TrialStats",
    "decode",
    "decode_bp",
    "decode_dual_ascent",
    "emit_alist",
    "gen_regular_ldpc",
    "is_codeword",
    "llr",
    "membership",
    "parse_alist",
    "project_batch",
    "project_parity_polytope",
    "run_point",
    "stats_to_csv",
    "sweep",
    "transmit",
]
