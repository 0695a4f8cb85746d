"""Command-line front end: code generation, decoding, projection debugging,
and Monte-Carlo channel sweeps.

Exit status is 0 on success, 1 on a usage error (bad flags or flag
values), and 2 on a runtime failure (missing files, malformed inputs).
Flag values beat an optional key=value config file, which beats the
defaults; the decoder flags default to the decoder configs' defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .admm_decoder import AdmmConfig, DecodeOutput
from .bp_decoder import BpConfig
from .channels import Awgn, Bsc, ChannelModel
from .codes import check_llrs, gen_regular_ldpc, emit_alist, parse_alist
from .dual_ascent import DualAscentConfig
from .parity_polytope import ProjectionWorkspace, project_parity_polytope
from .simulator import DECODERS, DecoderRef, check_run_args, stats_to_csv, sweep


class UsageError(Exception):
    """Bad argument content; reported with usage text, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _config_flags(path: str) -> list[str]:
    """Read a config file of ``key=value`` lines as ``--key=value`` flags.

    Blank lines and ``#`` comments are skipped, and underscores in a key
    become dashes, so any long flag of the subcommand that takes a value
    may appear.
    """
    flags = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _default_workers() -> int:
    text = os.environ.get("POLYLP_WORKERS", "1")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"POLYLP_WORKERS must be an integer, got {text!r}") from None


def _add_decoder_flags(p: argparse.ArgumentParser) -> None:
    # Defaults come from the decoder configs; --tmax is shared, and every
    # config defaults it alike.
    p.add_argument("--mu", type=float, default=AdmmConfig.mu,
                   help="ADMM penalty parameter")
    p.add_argument("--epsilon", type=float, default=AdmmConfig.epsilon,
                   help="ADMM stopping tolerance")
    p.add_argument("--tmax", dest="t_max", metavar="TMAX", type=int,
                   default=AdmmConfig.t_max, help="maximum iterations")
    p.add_argument("--rho", type=float, default=AdmmConfig.rho,
                   help="over-relaxation parameter")
    p.add_argument("--step", type=float, default=DualAscentConfig.step,
                   help="dual-ascent step size")
    p.add_argument("--llr-clip", type=float, default=BpConfig.llr_clip,
                   help="BP saturation (nats)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="polylp",
        description="LP decoding of binary LDPC codes via ADMM, "
        "with BP and dual-ascent baselines.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("gen-code", help="generate a random regular LDPC code",
                       formatter_class=fmt)
    p.add_argument("--n", type=int, required=True, help="code length")
    p.add_argument("--dv", type=int, required=True, help="variable degree")
    p.add_argument("--dc", type=int, required=True, help="check degree")
    p.add_argument("--seed", type=int, default=0, help="ensemble seed")
    p.add_argument("--out", help="alist output path (default stdout)")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=_cmd_gen_code)

    p = sub.add_parser("decode", help="decode one LLR vector",
                       formatter_class=fmt)
    p.add_argument("--code", required=True, help="alist file of the code")
    p.add_argument("--llr", required=True,
                   help="LLR vector: inline whitespace-separated or a file path")
    p.add_argument("--algo", choices=DECODERS, default=DecoderRef.algo)
    _add_decoder_flags(p)
    p.add_argument("--out", help="JSON output path (default stdout)")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser(
        "project",
        help="project a vector (stdin) onto the parity polytope",
        formatter_class=fmt,
    )
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("simulate", help="Monte-Carlo sweep over channel points",
                       formatter_class=fmt)
    p.add_argument("--code", required=True, help="alist file of the code")
    p.add_argument("--channel", choices=["bsc", "awgn"], required=True)
    p.add_argument("--points", required=True,
                   help="comma-separated channel parameters (p or Eb/N0 dB)")
    p.add_argument("--rate", type=float, default=None,
                   help="code rate for AWGN only (default: design rate)")
    p.add_argument("--decoder", choices=DECODERS, default=DecoderRef.algo)
    _add_decoder_flags(p)
    p.add_argument("--trials", type=int, default=None, help="fixed trials per point")
    p.add_argument("--target-errors", type=int, default=None,
                   help="stop each point after this many word errors")
    p.add_argument("--max-trials", type=int, default=1_000_000,
                   help="trial ceiling in target-errors mode")
    p.add_argument("--seed", type=int, default=0, help="sweep seed")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel workers (default: POLYLP_WORKERS or 1)")
    p.add_argument("--timing", action=argparse.BooleanOptionalAction, default=True,
                   help="include wall-time columns in the CSV")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=_cmd_simulate)

    return parser


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _decoder_ref(algo: str, args: argparse.Namespace) -> DecoderRef:
    """The decoder ``algo``, configured from the flags; every decoder's config is checked."""
    try:
        configs = {name: cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                                if hasattr(args, f.name)}) for name, cls in DECODERS.items()}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return DecoderRef(algo, configs[algo])


def _flag_error(exc: ValueError) -> UsageError:
    """``exc`` as a usage error that names each argument by its flag."""
    flags = dict(n_trials="--trials", target_errors="--target-errors", max_trials="--max-trials",
                 seed="--seed", n="--n", var_deg="--dv", check_deg="--dc")
    return UsageError(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc)))


def _cmd_gen_code(args: argparse.Namespace) -> int:
    try:
        code = gen_regular_ldpc(args.n, args.dv, args.dc, args.seed)
    except ValueError as exc:
        raise _flag_error(exc) from exc
    _write(emit_alist(code), args.out)
    return 0


def _output_json(out: DecodeOutput) -> str:
    record = {
        "x": [float(v) for v in out.x],
        "status": out.status,
        "iterations": out.iterations,
        "integral": out.integral,
        "hard_decision": [int(b) for b in out.hard_decision],
        "ml_certificate": out.ml_certificate,
    }
    return json.dumps(record) + "\n"


def _cmd_decode(args: argparse.Namespace) -> int:
    code = parse_alist(Path(args.code).read_text())
    gamma_text = Path(args.llr).read_text() if os.path.exists(args.llr) else args.llr
    try:
        gamma = check_llrs(code, [float(t) for t in gamma_text.split()])
    except ValueError as exc:
        raise UsageError(f"--llr: {exc}") from exc
    out = _decoder_ref(args.algo, args).bind(code)(gamma)
    _write(_output_json(out), args.out)
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    tokens = sys.stdin.read().split()
    if not tokens:
        raise RuntimeError("no vector on standard input")
    try:
        u = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise RuntimeError(f"cannot parse input vector: {exc}") from exc
    ws = ProjectionWorkspace()
    z = project_parity_polytope(u, ws)
    lines = [
        " ".join(f"{v:.12g}" for v in z),
        f"beta_opt {ws.beta_opt:.12g}",
        f"r {ws.r}",
    ]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.rate is not None and args.channel == "bsc":
        raise UsageError("--rate applies to --channel awgn only")
    code = parse_alist(Path(args.code).read_text())
    try:
        params = [float(t) for t in args.points.split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse --points: {exc}") from exc
    if not params:
        raise UsageError("--points needs at least one value")
    rate = args.rate if args.rate is not None else code.design_rate
    try:
        points: list[ChannelModel] = [
            Bsc(p) if args.channel == "bsc" else Awgn(p, rate) for p in params
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    workers = args.workers if args.workers is not None else _default_workers()
    try:
        check_run_args(args.trials, args.target_errors, args.max_trials, workers, args.seed)
    except ValueError as exc:
        # workers keeps its name: it may come from POLYLP_WORKERS.
        raise _flag_error(exc) from exc
    ref = _decoder_ref(args.decoder, args)
    stats = sweep(
        code,
        points,
        ref,
        n_trials=args.trials,
        target_errors=args.target_errors,
        max_trials=args.max_trials,
        seed=args.seed,
        workers=workers,
    )
    _write(stats_to_csv(stats, timing=args.timing), args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The file's flags go first, so the command line's win.
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        sys.stderr.write(f"polylp {args.subcommand}: error: {exc}\n")
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"polylp {args.subcommand}: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
