"""Seeded decode benchmark for polylp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Drives the library from outside through ``polylp.simulator.run_point``
with ``workers=1`` and the default decoder configs.  With ``--trace 0``
it decodes the workload's seeded frames in repeated passes for about
``S`` seconds and reports the end-to-end metrics; with ``--trace 1`` it
makes one untraced and one traced pass over the same frames and reports
the per-layer metrics.  ``--workload all`` runs every workload both ways,
each in its own process, and prints every metric with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment, goes to ``.bench_out/`` in the checkout, and so do
the spans of a traced pass.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from polylp.simulator import TrialStats

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MAX_PASSES = 9
SEEDED_FIELDS = (
    "trials",
    "word_errors",
    "bit_errors",
    "iter_sum_correct",
    "iter_sum_erroneous",
    "ml_errors",
)
END_TO_END = {
    "trials_per_s": "frames/s",
    "us_per_iter": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Chunk:
    """One ``run_point`` call: its statistics (None if it raised) and wall time."""

    stats: TrialStats | None
    wall: float


def seeded(stats) -> tuple:
    return tuple(getattr(stats, f) for f in SEEDED_FIELDS)


def sane(stats, trials: int, n_vars: int) -> bool:
    iters = stats.iter_sum_correct + stats.iter_sum_erroneous
    return (
        stats.trials == trials
        and 0 <= stats.word_errors <= trials
        and stats.word_errors <= stats.bit_errors <= stats.word_errors * n_vars
        and 0 <= stats.ml_errors <= stats.word_errors
        and iters >= trials
    )


def run_chunk(bench, seed: int, index: int) -> Chunk:
    from polylp import simulator

    t0 = time.perf_counter()
    try:
        stats = simulator.run_point(
            bench.code,
            bench.channel,
            bench.decoder,
            n_trials=bench.workload.chunk_size,
            seed=seed,
            point_index=index,
            workers=1,
        )
    except Exception:
        # A raising decode fails its chunk's frames; the run goes on.
        traceback.print_exc(file=sys.stderr)
        stats = None
    return Chunk(stats, time.perf_counter() - t0)


@dataclass
class Pass:
    """One pass over the first ``len(chunks)`` chunks of a workload.

    ``scales[c]`` scales chunk ``c``'s times to the decode kernel's
    nominal speed (see calibration.py).  ``setups`` holds the set-up times
    taken after each chunk, already scaled by the set-up kernel, when they
    were asked for.
    """

    chunks: list[Chunk]
    scales: list[float]
    setups: list[float]

    def scaled_wall(self) -> float:
        return sum(s * c.wall for s, c in zip(self.scales, self.chunks))


def set_up_seconds(workload) -> float:
    from workloads import set_up

    t0 = time.perf_counter()
    set_up(workload)
    return time.perf_counter() - t0


def run_pass(bench, seed: int, chunks: int, kernel, setup_kernel=None) -> Pass:
    """Decode chunks 0 .. chunks-1, timing ``kernel`` before the first
    chunk and after each.  With a ``setup_kernel``, also time one set-up
    after each chunk, and that kernel before the first set-up and after
    each."""
    done, setups = [], []
    samples = [kernel.seconds()]
    setup_samples = [] if setup_kernel is None else [setup_kernel.seconds()]
    for c in range(chunks):
        done.append(run_chunk(bench, seed, c))
        if setup_kernel is not None:
            setups.append(set_up_seconds(bench.workload))
            setup_samples.append(setup_kernel.seconds())
        samples.append(kernel.seconds())
    setup_scales = [] if setup_kernel is None else setup_kernel.scales(setup_samples)
    return Pass(done, kernel.scales(samples), [t * s for t, s in zip(setups, setup_scales)])


class Tally:
    """Frames attempted and failed, judged a chunk at a time against the
    first pass's statistics."""

    def __init__(self, bench):
        self.k = bench.workload.chunk_size
        self.n_vars = bench.code.n_vars
        self.first: list[tuple | None] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, chunks: list[Chunk], label: str) -> None:
        for c, chunk in enumerate(chunks):
            self.attempted += self.k
            ok = chunk.stats is not None and sane(chunk.stats, self.k, self.n_vars)
            key = seeded(chunk.stats) if ok else None
            if c == len(self.first):
                self.first.append(key)
            elif ok and key != self.first[c]:
                ok = False
                self.problems.append(f"{label}: chunk {c} statistics differ from the first pass")
            if not ok:
                self.failed += self.k

    def fail(self, frames: int, note: str) -> None:
        self.failed += frames
        self.problems.append(note)


def traced_pass(bench, seed: int, chunks: int, tally: Tally, kernel):
    """One traced pass with per-frame output checks and sampled
    projection checks; returns the tracer and the pass."""
    from layers import hooks, projection_failures
    from tracer import Tracer

    with Tracer(hooks(bench.code)) as tracer:
        passed = run_pass(bench, seed, chunks, kernel)
    tally.add(passed.chunks, "traced pass")
    bad = tracer.counts.get("frames_failed", 0)
    if bad:
        tally.fail(bad, f"{bad} frames failed the output check")
    bad = projection_failures(tracer.samples)
    if bad:
        tally.fail(0, f"{bad} of {len(tracer.samples)} sampled projections are wrong")
    return tracer, passed


def iteration_total(chunks: list[Chunk]) -> int:
    return sum(c.stats.iter_sum_correct + c.stats.iter_sum_erroneous for c in chunks)


def decode_time(chunk: Chunk) -> float:
    return chunk.stats.time_sum_correct + chunk.stats.time_sum_erroneous


def measure(bench, args, tally: Tally, kernel) -> dict[str, float]:
    """Untraced passes over the seeded frames for about ``args.seconds``.

    Each chunk counts with the median over the passes of its scaled
    time, so every frame counts once and one slow pass is outvoted.
    """
    from calibration import SetupKernel

    w = bench.workload
    setup_kernel = SetupKernel()
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(bench, args.seed, w.chunks, kernel, setup_kernel))
        tally.add(passes[-1].chunks, f"pass {len(passes)}")
        elapsed = time.perf_counter() - t0
        if len(passes) == MAX_PASSES or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    if tally.failed:
        return {}

    def total(of, scaled: bool = True) -> float:
        return sum(
            statistics.median(of(p.chunks[c]) * (p.scales[c] if scaled else 1.0) for p in passes)
            for c in range(w.chunks)
        )

    return {
        "trials_per_s": w.frames / total(lambda c: c.wall),
        "us_per_iter": 1e6 * total(decode_time) / iteration_total(passes[0].chunks),
        "setup_s": statistics.median(t for p in passes for t in p.setups),
        "passes": len(passes),
        "machine_scale": statistics.median(s for p in passes for s in p.scales),
        "unscaled_trials_per_s": w.frames / total(lambda c: c.wall, scaled=False),
        **outcome(passes[0].chunks),
    }


def outcome(chunks: list[Chunk]) -> dict[str, float]:
    trials = sum(c.stats.trials for c in chunks)
    return {
        "wer": sum(c.stats.word_errors for c in chunks) / trials,
        "iters_per_trial": iteration_total(chunks) / trials,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "frame_seed": seed,
        "workers": 1,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_workload(args) -> dict:
    from calibration import DecodeKernel
    from layers import PER_LAYER, layer_metrics, self_seconds_by_layer
    from workloads import WORKLOADS, set_up

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    bench = set_up(workload)
    tally = Tally(bench)
    extra: dict[str, float] = {}

    code = bench.code
    kernel = DecodeKernel(
        code.n_vars, code.n_checks, int(code.check_degrees.max()), workload.kernel_seconds
    )
    if not args.trace:
        figures = measure(bench, args, tally, kernel)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Per-frame output checks on the first chunk, outside the timing.
        tracer, _ = traced_pass(bench, args.seed, 1, tally, kernel)
        metrics = {}
        if figures:
            metrics = {
                "trials_per_s": figures.pop("trials_per_s"),
                "us_per_iter": figures.pop("us_per_iter"),
                "setup_s": figures.pop("setup_s"),
                "peak_rss_mb": peak_rss_mb,
            }
            extra = figures
        units = END_TO_END
    else:
        plain = run_pass(bench, args.seed, workload.chunks, kernel)
        tally.add(plain.chunks, "untraced pass")
        tracer, traced = traced_pass(bench, args.seed, workload.chunks, tally, kernel)
        metrics = {}
        if not tally.failed:
            spans = tracer.table()
            spans.save(OUT / f"spans-{workload.name}-seed{args.seed}.npz")
            untraced_wall = plain.scaled_wall()
            traced_wall = traced.scaled_wall()
            metrics = layer_metrics(spans, tracer.counts, tracer.missing, workload.frames)
            metrics["trace.overhead_frac"] = 1.0 - untraced_wall / traced_wall
            metrics.update(outcome(plain.chunks))
            extra = {
                "spans": len(spans.start),
                "untraced_trials_per_s": workload.frames / untraced_wall,
                "traced_pass_machine_scale": statistics.median(traced.scales),
                **{f"self_s.{k}": v for k, v in self_seconds_by_layer(spans).items()},
            }
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}

    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "frames": workload.frames,
        "env": env,
        "extra": extra,
        "problems": tally.problems,
        "missing_hooks": tracer.missing,
        **result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"env": env}))
    for problem in tally.problems:
        print(f"check failed: {problem}")
    for hook in tracer.missing:
        print(f"hook not found, its metrics are left out: {hook}")
    for name, figure in {**extra, **metrics}.items():
        unit = units.get(name, "")
        print(f"{workload.name:20s} {name:36s} {figure:14.6g} {unit}")
    return result


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[1:-1]), flush=True)
            if done.returncode != 0 or not lines:
                merged["correct"] = False
                continue
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = entry
    return merged


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True, help="frame seed")
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # numpy reads these when it loads, so they are set before any import.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import polylp: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
