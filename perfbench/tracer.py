"""Outside-in span tracer for the decode benchmark.

While installed, the tracer replaces named functions in the ``polylp``
module namespaces where their callers look them up (for example
``polylp.admm_decoder.project_batch``), so the library itself is not
changed.  Each call records one span: name, start and end (ns), parent
span and frame id, plus two integers a hook may note from the call's
arguments or result.  Spans stay in memory until the run writes them
out once, at its end.

Work a hook does after a call (checks, counters) is recorded as a
``tracer.analysis`` span, so it is subtracted from the caller's self time
instead of being billed to a layer.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

ANALYSIS = "tracer.analysis"

Note = Callable[[tuple, Any], tuple[int, int]]
After = Callable[["Tracer", tuple, Any], None]


@dataclass(frozen=True)
class Hook:
    """One function to trace: ``module.attr``.

    The span is named after the module that defines the function, e.g.
    ``parity_polytope.project_batch``, whichever namespace it is hooked in.
    ``note`` returns two integers kept on the span; ``after`` runs outside
    the span.  ``starts_frame`` marks the call that begins a new frame.
    """

    module: str
    attr: str
    note: Note | None = None
    after: After | None = None
    starts_frame: bool = False


class Tracer:
    def __init__(self, hooks: list[Hook]):
        self.hooks = hooks
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.frame = array("i")
        self.note_a = array("q")
        self.note_b = array("q")
        self.counts: dict[str, int] = {}
        self.samples: list[Any] = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._frame = -1
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installing -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for hook in self.hooks:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.attr, None)
            if not callable(original):
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            setattr(module, hook.attr, self._wrap(original, hook))
            self._saved.append((module, hook.attr, original))
        return self

    def __exit__(self, *exc: object) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _span_name(self, fn: Callable) -> str:
        module = getattr(fn, "__module__", "") or ""
        return f"{module.rsplit('.', 1)[-1]}.{fn.__name__}"

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.frame.append(self._frame)
        self.start.append(0)
        self.end.append(0)
        self.note_a.append(0)
        self.note_b.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        name_id = self._id(self._span_name(fn))
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            if hook.starts_frame:
                self._frame += 1
            idx = self._open(name_id)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if hook.note is not None:
                self.note_a[idx], self.note_b[idx] = hook.note(args, result)
            if hook.after is not None:
                with self.span(ANALYSIS):
                    hook.after(self, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self._id(name))
        self.start[idx] = time.perf_counter_ns()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- reading ----------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.int64).copy(),
            end=np.frombuffer(self.end, dtype=np.int64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            frame=np.frombuffer(self.frame, dtype=np.int32).copy(),
            note_a=np.frombuffer(self.note_a, dtype=np.int64).copy(),
            note_b=np.frombuffer(self.note_b, dtype=np.int64).copy(),
        )


@dataclass
class SpanTable:
    """Column view of recorded spans, with per-name totals."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    frame: np.ndarray
    note_a: np.ndarray
    note_b: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    @property
    def self_time(self) -> np.ndarray:
        """Duration minus the time covered by direct child spans.

        Spans on one thread nest, so the children of a span are disjoint
        and their durations add.
        """
        dur = self.duration
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur - covered

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def save(self, path: Path) -> None:
        """Write every span once, compressed, with the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self.name,
            start=self.start,
            end=self.end,
            parent=self.parent,
            frame=self.frame,
            note_a=self.note_a,
            note_b=self.note_b,
        )
