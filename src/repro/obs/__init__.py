"""Zero-dependency telemetry: tracing spans, metrics, events, profiling.

One :class:`Telemetry` session may be active per process at a time
(installed by :func:`telemetry_session`, usually via the CLI's
``--telemetry <path>`` flag).  The module-level helpers — :func:`span`,
:func:`count`, :func:`set_gauge`, :func:`observe`, :func:`emit` — are
sprinkled through the hot paths of the codebase; when no session is
active each costs a single global load + ``is None`` check and does
nothing, which the ``telemetry_overhead`` bench workload keeps under 2%
on episode evaluation.

Fork safety: a session records its owning pid.  Worker processes forked
by :class:`~repro.perf.executor.EpisodeExecutor` inherit the module
global but every helper no-ops in them, so per-episode telemetry always
comes from the supervisor side and the event stream is identical for
any worker count (see :func:`suspended`).

Sub-modules: :mod:`~repro.obs.trace` (span tree), :mod:`~repro.obs.metrics`
(counters/gauges/fixed-bucket histograms), :mod:`~repro.obs.events`
(JSONL sink + the one human-readable formatter), :mod:`~repro.obs.tapeprof`
(autodiff tape/memory profiler), :mod:`~repro.obs.timing` (median+IQR
measurement shared with the bench), :mod:`~repro.obs.report`
(aggregated run report behind ``repro obs report``).
"""

from __future__ import annotations

import contextlib
import os
import time

from repro.obs.events import (
    SCHEMA_VERSION,
    BufferSink,
    JsonlSink,
    render_event,
    sibling_paths,
)
from repro.obs.metrics import (
    DEFAULT_REGISTRY,
    LATENCY_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import build_report, load_events, render_report
from repro.obs.tapeprof import TapeProfile, profile_tape
from repro.obs.timing import TimingStat, measure
from repro.obs.trace import Tracer

__all__ = [
    "Telemetry",
    "telemetry_session",
    "active",
    "enabled",
    "suspended",
    "span",
    "count",
    "set_gauge",
    "observe",
    "emit",
    "Tracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_REGISTRY",
    "LATENCY_MS_BUCKETS",
    "JsonlSink",
    "BufferSink",
    "render_event",
    "sibling_paths",
    "SCHEMA_VERSION",
    "TapeProfile",
    "profile_tape",
    "TimingStat",
    "measure",
    "load_events",
    "build_report",
    "render_report",
]

_ACTIVE: "Telemetry | None" = None


class _NoopSpan:
    """Returned by :func:`span` when telemetry is off; reusable singleton."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


class Telemetry:
    """One telemetry session: a tracer, a metrics registry, and a sink.

    ``path=None`` buffers records in memory (``session.sink.records``);
    a path appends JSONL.  ``clock`` must be monotonic and is shared by
    the tracer and every span, so injecting a fake clock makes span
    durations fully deterministic in tests.
    """

    def __init__(self, path: str | None = None, clock=time.perf_counter):
        from repro import __version__

        self.pid = os.getpid()
        self.clock = clock
        self.t0 = clock()
        self.registry = MetricsRegistry()
        self.sink = JsonlSink(path) if path else BufferSink()
        self.tracer = Tracer(self.sink.write, clock, t0=self.t0)
        self._suspended = 0
        self._closed = False
        self.sink.write({"kind": "session", "version": __version__,
                         "schema_version": SCHEMA_VERSION})

    def emit(self, name: str, **fields) -> None:
        record = {"kind": "event", "name": name,
                  "t": round(self.clock() - self.t0, 9)}
        record.update(fields)
        self.sink.write(record)

    def close(self) -> None:
        """Write the final metrics snapshot and release the sink."""
        if self._closed:
            return
        self._closed = True
        self.sink.write({"kind": "metrics", **self.registry.snapshot()})
        self.sink.close()


def active() -> "Telemetry | None":
    """The current session, or ``None``."""
    return _ACTIVE


def enabled() -> bool:
    """True when a session is active, owned by this process, not suspended."""
    t = _ACTIVE
    return t is not None and t.pid == os.getpid() and not t._suspended


@contextlib.contextmanager
def telemetry_session(path: str | None = None, clock=time.perf_counter):
    """Activate a :class:`Telemetry` session for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    session = Telemetry(path, clock=clock)
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous
        session.close()


@contextlib.contextmanager
def suspended():
    """Mute the active session inside the block (no-op when none).

    Used around work that must not record — e.g. an episode that
    ``evaluate_method`` scores in-process, so the event stream is
    identical whether episodes run in-process or in forked workers.
    """
    t = _ACTIVE
    if t is None:
        yield
        return
    t._suspended += 1
    try:
        yield
    finally:
        t._suspended -= 1


# ----------------------------------------------------------------------
# Hot-path helpers: first check is a single global load + ``is None``.
# ----------------------------------------------------------------------

def span(name: str, **attrs):
    """Open a tracing span; a shared no-op when telemetry is off."""
    t = _ACTIVE
    if t is None:
        return _NOOP
    if t.pid != os.getpid() or t._suspended:
        return _NOOP
    return t.tracer.span(name, attrs)


def count(name: str, n: int | float = 1) -> None:
    """Increment counter ``name`` on the active session's registry."""
    t = _ACTIVE
    if t is None:
        return
    if t.pid != os.getpid() or t._suspended:
        return
    t.registry.counter(name).inc(n)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` on the active session's registry."""
    t = _ACTIVE
    if t is None:
        return
    if t.pid != os.getpid() or t._suspended:
        return
    t.registry.gauge(name).set(value)


def observe(name: str, value: float,
            buckets: tuple[float, ...] | None = None,
            trace_id: str | None = None) -> None:
    """Record ``value`` into histogram ``name`` on the active session.

    ``trace_id`` attaches a latency exemplar: the histogram remembers
    the trace behind the bucket-max sample so reports can link tail
    quantiles to concrete request traces.
    """
    t = _ACTIVE
    if t is None:
        return
    if t.pid != os.getpid() or t._suspended:
        return
    t.registry.histogram(name, buckets).observe(value, trace_id)


def emit(name: str, **fields) -> None:
    """Write a structured event record to the active session's sink."""
    t = _ACTIVE
    if t is None:
        return
    if t.pid != os.getpid() or t._suspended:
        return
    t.emit(name, **fields)
