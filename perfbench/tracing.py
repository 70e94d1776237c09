"""Spans and counters recorded from outside the library.

A Tracer replaces module-level names such as ``lanespace.pipeline.nms_select``
with wrappers that record one span per call: name, start, end, parent span
and image id. Callers inside the library look those names up at call time,
so the wrappers see every call without any change to the library. Names are
resolved when the wrappers are installed; a name that no longer exists is
reported as an absent layer instead of failing the run.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    image: str | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times(spans) -> dict[int, int]:
    """Self time of every span: its duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children[span.id], key=lambda c: c.start_ns):
            lo = max(child.start_ns, cursor)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration_ns - covered
    return out


@dataclass(frozen=True)
class Target:
    """One module-level name to wrap.

    path is the dotted name looked up at install time; layer is the span
    name it records under. observe(tracer, args, kwargs, result) turns a
    call into counts. With span=False the wrapper only counts calls, for
    functions called thousands of times per image.
    """

    path: str
    layer: str
    observe: Callable | None = None
    span: bool = True
    catch_warnings: bool = False


def _resolve(path: str):
    """(owner, attribute, current value) for a dotted path, or None."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        value = getattr(owner, parts[-1], None)
        if value is None:
            return None
        return owner, parts[-1], value
    return None


class Tracer:
    """Records spans and counts at wrapped boundaries of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.sets: dict[str, set] = defaultdict(set)
        self.image: str | None = None
        self.active = False
        self.absent: list[str] = []
        self.absent_paths: list[str] = []
        self.unobserved: set[str] = set()
        self.setup_counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- spans opened by the benchmark's own code -------------------------
    def open(self, name: str) -> tuple[int, str, int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, name, time.perf_counter_ns(), parent

    def close(self, token) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, parent = token
        self._stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent, self.image))

    # -- wrappers over library names ---------------------------------------
    def _wrap(self, fn, target: Target):
        tracer = self
        counts = self.counts
        calls_key = target.layer + ".calls"

        if not target.span:

            def counting(*args, **kwargs):
                if tracer.active:
                    counts[calls_key] += 1
                return fn(*args, **kwargs)

            return counting

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            counts[calls_key] += 1
            token = tracer.open(target.layer)
            try:
                if target.catch_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    counts[target.layer + ".warnings"] += sum(
                        issubclass(w.category, UserWarning) for w in caught
                    )
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer.close(token)
            if target.observe is not None:
                try:
                    target.observe(tracer, args, kwargs, result)
                except (LookupError, AttributeError, TypeError, ValueError):
                    # the wrapped function changed its signature or result
                    tracer.unobserved.add(target.layer)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap every target that resolves and note the paths that do not.

        A layer counts as absent when none of its paths resolved.
        """
        wrapped = set()
        for target in targets:
            found = _resolve(target.path)
            if found is None or not callable(found[2]):
                self.absent_paths.append(target.path)
                continue
            owner, attr, value = found
            self._installed.append((owner, attr, value))
            setattr(owner, attr, self._wrap(value, target))
            wrapped.add(target.layer)
        self.absent = sorted({t.layer for t in targets} - wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    # -- reports ------------------------------------------------------------
    def durations_ms(self, name: str, window) -> list[float]:
        """Durations of the spans called name that started inside window."""
        lo, hi = window
        return [
            s.duration_ns / 1e6
            for s in self.spans
            if s.name == name and lo <= s.start_ns < hi
        ]

    def self_ms_by_name(self, window) -> dict[str, list[float]]:
        """Self times, grouped by span name, of the spans started inside window."""
        own = self_times(self.spans)
        lo, hi = window
        out = defaultdict(list)
        for span in self.spans:
            if lo <= span.start_ns < hi:
                out[span.name].append(own[span.id] / 1e6)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "parent": s.parent,
                            "image": s.image,
                        }
                    )
                    + "\n"
                )
