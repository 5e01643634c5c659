"""Distributed request tracing and the per-process flight recorder.

One serving request crosses several processes: gateway admission,
priority queueing, routing, hedged retries, replica decode, delivery.
``repro.obs`` spans are thread-local and per-process, so on their own
they cannot answer "what happened to request X and where did its
latency go."  This module adds Dapper-style trace-context propagation
over the existing JSONL event streams:

* :class:`TraceContext` — a deterministic ``trace_id`` minted from the
  gateway seed and the request ticket (:func:`mint`).  No wall-clock,
  no ``os.urandom``: the same seeded run always produces byte-identical
  ids, so the chaos oracle can assert on whole traces.
* :func:`hop` — emit one per-hop span record (``trace.hop`` event) into
  whatever telemetry session is active *in the current process*.  A
  replica writes its hops into its own ``<path>.replica-<id>`` sibling
  stream; :func:`repro.obs.report.assemble_traces` stitches the sibling
  streams back into one cross-process timeline per trace.
* :class:`FlightRecorder` — a bounded in-memory ring of recent events
  that dumps to ``flight-<pid>.jsonl`` on incidents (breaker open,
  replica crash/rebuild) so post-mortem forensics
  work even when full telemetry was off.

Hot-path discipline matches ``repro.obs``: every helper starts with a
single global load and an ``is None`` / early-return check, so the cost
with tracing disabled is a few nanoseconds per call site and stays
under the repo's <2% disabled-overhead gate.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from repro import obs
from repro.obs.events import SCHEMA_VERSION

#: Event name carried by every per-hop span record.
TRACE_EVENT = "trace.hop"

#: The hop taxonomy, in causal order.  ``HOP_ORDER`` is the assembler's
#: primary sort key — sibling streams have *independent* clocks (each
#: process measures ``t`` from its own session start), so stitching
#: must never compare ``t`` across files.
HOPS = ("admit", "route", "queue", "hedge", "dispatch",
        "decode", "shed", "expire", "respond")
HOP_ORDER = {name: index for index, name in enumerate(HOPS)}

#: Hops that end a request's life: delivered, dropped, or timed out.
TERMINAL_HOPS = frozenset({"respond", "shed", "expire"})


def mint(seed: int, ticket: int) -> str:
    """Deterministic 16-hex trace id from the run seed and ticket."""
    digest = hashlib.sha256(f"{int(seed)}:{int(ticket)}".encode("ascii"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one request's trace, minted at gateway admission."""

    trace_id: str
    span_id: str

    @classmethod
    def for_request(cls, seed: int, ticket: int) -> "TraceContext":
        trace_id = mint(seed, ticket)
        return cls(trace_id=trace_id, span_id=span_for(trace_id, "admit"))

    def child(self, hop_name: str, qualifier: str = "") -> "TraceContext":
        return TraceContext(
            trace_id=self.trace_id,
            span_id=span_for(self.trace_id, hop_name, qualifier),
        )


def span_for(trace_id: str, hop_name: str, qualifier: str = "") -> str:
    """Deterministic 8-hex span id for one hop of one trace."""
    digest = hashlib.sha256(
        f"{trace_id}/{hop_name}/{qualifier}".encode("ascii", "replace")
    )
    return digest.hexdigest()[:8]


# ----------------------------------------------------------------------
# The process-wide tracing switch.
#
# Only the *gateway* consults this switch (to decide whether to mint a
# context at admission).  Replicas and services never read it: they
# emit hops whenever a non-None trace id arrives over the pipe, so a
# forked replica that inherited a stale copy of the global still does
# the right thing.

_TRACING = False


def tracing_enabled() -> bool:
    return _TRACING


@contextmanager
def request_tracing():
    """Enable trace-context minting at gateway admission for the block."""
    global _TRACING
    previous = _TRACING
    _TRACING = True
    try:
        yield
    finally:
        _TRACING = previous


def hop(trace, hop_name: str, **fields) -> None:
    """Record one hop of a request's journey.

    ``trace`` is a :class:`TraceContext`, a bare trace-id string (the
    wire form replicas receive), or ``None`` — in which case this is a
    no-op, which is the fast path the disabled-overhead gate measures.

    The record goes to the active telemetry session (if any) *and* to
    the flight-recorder ring (if one is installed); either can be off
    independently, which is what makes post-incident forensics work
    with full telemetry disabled.
    """
    if trace is None:
        return
    trace_id = trace.trace_id if isinstance(trace, TraceContext) else str(trace)
    qualifier = fields.get("replica")
    span_id = span_for(trace_id, hop_name,
                       "" if qualifier is None else str(qualifier))
    recorder = _FLIGHT
    if recorder is not None:
        recorder.record({"name": TRACE_EVENT, "trace": trace_id,
                         "span": span_id, "hop": hop_name, **fields})
    obs.emit(TRACE_EVENT, trace=trace_id, span=span_id, hop=hop_name, **fields)


def wire_id(trace) -> str | None:
    """The pickle-safe form of a trace for the replica pipe protocol."""
    if trace is None:
        return None
    return trace.trace_id if isinstance(trace, TraceContext) else str(trace)


# ----------------------------------------------------------------------
# Flight recorder


class FlightRecorder:
    """Bounded ring of recent events, dumped to disk on incidents.

    The ring lives purely in memory until :meth:`dump` — recording is a
    deque append, cheap enough to leave on in production.  Each process
    dumps to its own ``flight-<pid>.jsonl`` (a forked replica inherits
    the recorder object but writes under its own pid), appending one
    header record per incident followed by the ring contents.  The ring
    is cleared after a dump so consecutive incidents don't re-dump the
    same history.
    """

    def __init__(self, directory: str, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.directory = str(directory)
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._seq = 0
        self.dumps = 0

    def record(self, entry: dict) -> None:
        self._seq += 1
        self._ring.append({"seq": self._seq, **entry})

    def path(self) -> str:
        return os.path.join(self.directory, f"flight-{os.getpid()}.jsonl")

    def dump(self, reason: str, fields: dict | None = None) -> str:
        os.makedirs(self.directory, exist_ok=True)
        path = self.path()
        header = {
            "kind": "flight",
            "schema_version": SCHEMA_VERSION,
            "reason": reason,
            "pid": os.getpid(),
            "dump": self.dumps,
            "events": len(self._ring),
        }
        if fields:
            header.update(fields)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for entry in self._ring:
                fh.write(json.dumps({"kind": "event", **entry},
                                    sort_keys=True) + "\n")
            fh.flush()
        self.dumps += 1
        self._ring.clear()
        return path


_FLIGHT: FlightRecorder | None = None


def flight_active() -> FlightRecorder | None:
    return _FLIGHT


@contextmanager
def flight_recorder(directory: str, capacity: int = 256):
    """Install a process-wide flight recorder for the block."""
    global _FLIGHT
    previous = _FLIGHT
    recorder = FlightRecorder(directory, capacity=capacity)
    _FLIGHT = recorder
    try:
        yield recorder
    finally:
        _FLIGHT = previous


def record(name: str, **fields) -> None:
    """Feed one event into the flight ring (no-op without a recorder).

    This is the sessionless sibling of :func:`repro.obs.emit` — it
    works with telemetry fully off, which is the whole point of the
    flight recorder.
    """
    recorder = _FLIGHT
    if recorder is None:
        return
    recorder.record({"name": name, **fields})


def incident(reason: str, **fields) -> str | None:
    """Record an incident and dump the ring; returns the dump path.

    Called at breaker-open, replica crash, and SIGKILL-survivor rebuild.
    """
    recorder = _FLIGHT
    if recorder is None:
        return None
    recorder.record({"name": f"incident.{reason}", **fields})
    dumped = len(recorder._ring)
    path = recorder.dump(reason, fields)
    obs.emit("flight.dump", reason=reason, path=path, events=dumped, **fields)
    return path
