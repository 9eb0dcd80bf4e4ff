"""A span-based phase tracer that dumps Chrome-trace-event JSON.

Metrics answer "how often / how slow on aggregate"; the tracer answers
"where did *this* run spend its time".  A :class:`PhaseTracer` records
complete spans — named, categorized, wall-clock-bounded phases such as
engine initialization, one singleton pass, a cache revalidation, a delta
apply — and serializes them as Chrome trace events (``ph: "X"``) that Perfetto or
``chrome://tracing`` render as a flame chart.

The instrumentation sites never hold a tracer: they call
:func:`trace_span`, which consults the process-global active tracer and
returns a shared no-op span when none is installed (the common case — the
hot path pays one function call and one ``is None`` test).  Callers that
want a trace install one around the work:

    tracer = PhaseTracer()
    with use_tracer(tracer):
        run_workload()
    tracer.dump(path)
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional


class Span:
    """One open phase; close it (or use it as a context manager) to record."""

    __slots__ = ("tracer", "name", "category", "args", "start", "_done")

    def __init__(self, tracer: "PhaseTracer", name: str, category: str, args):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.start = time.perf_counter()
        self._done = False

    def annotate(self, **args: Any) -> None:
        """Attach extra key/values shown in the trace viewer's args pane."""
        if self.args is None:
            self.args = {}
        self.args.update(args)

    def close(self) -> None:
        if self._done:
            return
        self._done = True
        self.tracer._record(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _NullSpan:
    """The span handed out when no tracer is active: every op is a no-op."""

    __slots__ = ()

    def annotate(self, **args: Any) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class PhaseTracer:
    """An append-only log of complete spans, one per recorded phase.

    Events are stored in the Chrome trace event format's units (µs since
    the tracer's epoch) so :meth:`dump` is a plain JSON write.  The tracer
    is thread-safe: the asyncio server and its sidecar share one.
    """

    def __init__(self, pid: Optional[int] = None):
        self.pid = os.getpid() if pid is None else pid
        self.epoch = time.perf_counter()
        self._events: List[dict] = []
        self._lock = threading.Lock()

    def span(self, name: str, category: str = "phase", **args: Any) -> Span:
        return Span(self, name, category, dict(args) if args else None)

    def _record(self, span: Span) -> None:
        now = time.perf_counter()
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": (span.start - self.epoch) * 1e6,
            "dur": (now - span.start) * 1e6,
            "pid": self.pid,
            "tid": threading.get_ident() % 1_000_000,
        }
        if span.args:
            event["args"] = span.args
        with self._lock:
            self._events.append(event)

    def instant(self, name: str, category: str = "mark", **args: Any) -> None:
        """Record a zero-duration marker (``ph: "i"``)."""
        event = {
            "name": name,
            "cat": category,
            "ph": "i",
            "s": "p",
            "ts": (time.perf_counter() - self.epoch) * 1e6,
            "pid": self.pid,
            "tid": threading.get_ident() % 1_000_000,
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def events(self) -> List[dict]:
        """A copy of the recorded events (wire-safe: plain JSON types)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def to_chrome_trace(self) -> dict:
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def dump(self, path: str) -> str:
        """Write the trace as Chrome trace-event JSON (Perfetto-loadable)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle)
            handle.write("\n")
        return path


# --------------------------------------------------------------------------- #
# the process-global active tracer
# --------------------------------------------------------------------------- #
_ACTIVE: Optional[PhaseTracer] = None


def get_tracer() -> Optional[PhaseTracer]:
    return _ACTIVE


def set_tracer(tracer: Optional[PhaseTracer]) -> None:
    global _ACTIVE
    _ACTIVE = tracer


@contextmanager
def use_tracer(tracer: PhaseTracer):
    """Install ``tracer`` as the process-global active tracer for a block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def trace_span(name: str, category: str = "phase", **args: Any):
    """A span on the active tracer, or the shared no-op span when none is."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, category, **args)


def trace_instant(name: str, category: str = "mark", **args: Any) -> None:
    tracer = _ACTIVE
    if tracer is not None:
        tracer.instant(name, category, **args)


def summarize_events(events: List[dict]) -> Dict[str, dict]:
    """Per-name totals over complete spans: count, total/max duration (µs)."""
    summary: Dict[str, dict] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        entry = summary.setdefault(
            event["name"], {"count": 0, "total_us": 0.0, "max_us": 0.0}
        )
        duration = float(event.get("dur", 0.0))
        entry["count"] += 1
        entry["total_us"] += duration
        entry["max_us"] = max(entry["max_us"], duration)
    return summary
