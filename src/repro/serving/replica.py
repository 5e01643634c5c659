"""Replica handles: where one :class:`TaggingService` actually runs.

The gateway core (:mod:`repro.serving.gateway`) is a pure routing /
supervision state machine over this small handle interface, so the same
failover, hedging and reload logic is exercised by two backends:

* :class:`InProcessReplica` — the service lives in the supervisor
  process; completions are released against an injectable clock through
  an optional ``service_time_s`` latency model, which makes hedging and
  failover *deterministically* testable (advance a
  :class:`~repro.serving.deadline.ManualClock`, watch the hedge fire).
  ``kill()`` simulates a replica death: in-flight work is dropped on
  the floor, exactly like a SIGKILL'd process losing its pipe.
* :class:`ProcessReplica` — a forked worker process hosting the
  service, supervised like the workers of
  :class:`repro.perf.executor.EpisodeExecutor`.  The service factory is
  published in a lock-guarded module slot *before* the fork so models
  are inherited copy-on-write (never pickled), each replica gets its
  own request and response ``SimpleQueue`` (single writer, single
  reader — a SIGKILL'd replica can strand only its *own* queue locks),
  and a rebuild always starts from **fresh queues**, so a worker killed
  mid-``put`` can never poison its replacement.

Messages crossing the pipe are small tuples of primitives and frozen
result dataclasses; requests a dead replica never answered are the
*gateway's* responsibility (it tracks every dispatched ticket and
requeues on death), so nothing is lost with the pipe.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Sequence

#: Fork-inherited replica payload: ``(service_factory, telemetry_path)``.
#: Held only around ``Process.start()`` under :data:`_PAYLOAD_LOCK`, so
#: two fleets spawning concurrently cannot clobber each other.
_PAYLOAD = None
_PAYLOAD_LOCK = threading.Lock()

#: Exit code a replica uses for a clean shutdown.
_CLEAN_EXIT = 0


def fork_available() -> bool:
    """True when a fork-backed replica fleet can run here and now."""
    import multiprocessing

    if not hasattr(os, "fork"):
        return False
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    return not multiprocessing.current_process().daemon


def _replica_main(replica_id: int, generation: int, request_q, response_q):
    """Worker entry point: serve requests until told to stop.

    Runs the fork-inherited service factory, announces readiness, then
    answers ``("req", ticket, tokens, deadline_ms, priority, trace)``
    messages with ``("res", ticket, result)`` until a ``("stop",)``
    message (or EOF) arrives.  ``trace`` is the request's trace id (or
    ``None``); five-field messages from an older supervisor are still
    accepted.  If a telemetry path was active in the supervisor, the
    replica opens its *own* child session on a per-replica sibling file
    (``<path>.replica-<id>``), so fleet events are never interleaved
    into the parent's stream — ``repro obs report`` merges the siblings
    back into one report.
    """
    import contextlib

    factory, telemetry_path = _PAYLOAD
    session = contextlib.nullcontext()
    if telemetry_path is not None:
        from repro import obs

        # A fresh pid-owned session: the inherited parent session is
        # foreign here (its sink pid-guard would drop every write).
        session = obs.telemetry_session(
            f"{telemetry_path}.replica-{replica_id}"
        )
    with session:
        service = factory(replica_id)
        response_q.put(("ready", replica_id, generation, os.getpid()))
        while True:
            try:
                message = request_q.get()
            except (EOFError, OSError):  # supervisor went away
                break
            if message is None or message[0] == "stop":
                break
            _kind, ticket, tokens, deadline_ms, priority, trace = message
            try:
                # Equality, not identity: the sentinel was pickled
                # through the request queue.
                if deadline_ms == _UNSET_SENTINEL:
                    result = service.tag(tokens, priority=priority,
                                         trace=trace)
                else:
                    result = service.tag(tokens, deadline_ms=deadline_ms,
                                         priority=priority, trace=trace)
            except Exception as exc:  # the service never raises by design
                from repro.serving.service import Overloaded

                result = Overloaded(
                    f"replica {replica_id} failed "
                    f"({type(exc).__name__}: {exc})"
                )
            response_q.put(("res", ticket, result))
    os._exit(_CLEAN_EXIT)


#: Pipe-safe stand-in for "caller did not pass a deadline" (the service
#: distinguishes an explicit ``None`` from an unset argument).
_UNSET_SENTINEL = "__unset__"


class InProcessReplica:
    """A replica living in the supervisor process, on a virtual clock.

    ``service_time_s(tokens, ticket) -> float`` models per-request
    latency: a request sent at ``t`` becomes collectable at
    ``t + service_time_s(...)`` on ``clock``.  The default (``None``)
    completes everything immediately.  The tag result itself is
    computed eagerly at ``send`` time — latency modelling never changes
    *what* is answered, only *when*.
    """

    backend = "in-process"

    def __init__(self, replica_id: int,
                 service_factory: Callable[[int], object],
                 clock: Callable[[], float] = time.monotonic,
                 service_time_s=None):
        self.replica_id = int(replica_id)
        self._factory = service_factory
        self._clock = clock
        self._service_time = service_time_s
        self.generation = 0
        self._alive = False
        #: (release_at, ticket, result) not yet collected.
        self._pending: list[tuple[float, int, object]] = []
        self.service = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.service = self._factory(self.replica_id)
        self._pending = []
        self._alive = True

    def restart(self) -> None:
        self.generation += 1
        self.start()

    def alive(self) -> bool:
        return self._alive

    def ready(self) -> bool:
        return self._alive

    def send(self, ticket: int, tokens: Sequence[str], deadline_ms,
             priority: str = "standard", trace: str | None = None) -> None:
        if not self._alive:
            return  # like writing into a dead process's pipe buffer
        if deadline_ms == _UNSET_SENTINEL:
            result = self.service.tag(tokens, priority=priority, trace=trace)
        else:
            result = self.service.tag(tokens, deadline_ms=deadline_ms,
                                      priority=priority, trace=trace)
        delay = (self._service_time(tokens, ticket)
                 if self._service_time is not None else 0.0)
        self._pending.append((self._clock() + delay, int(ticket), result))

    def poll(self) -> list[tuple[int, object]]:
        if not self._alive:
            return []
        now = self._clock()
        due = [(t, r) for release, t, r in self._pending if release <= now]
        self._pending = [entry for entry in self._pending
                         if entry[0] > now]
        return due

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Simulated SIGKILL: drop in-flight answers, go dead."""
        self._alive = False
        self._pending = []

    def stop(self, timeout_s: float = 5.0) -> None:
        self._alive = False
        self._pending = []


class ProcessReplica:
    """A replica in a forked worker process, queues in both directions."""

    backend = "process"

    def __init__(self, replica_id: int,
                 service_factory: Callable[[int], object],
                 telemetry_path: str | None = None,
                 start_method: str = "fork"):
        import multiprocessing

        self.replica_id = int(replica_id)
        self._factory = service_factory
        self._telemetry_path = telemetry_path
        self._context = multiprocessing.get_context(start_method)
        self.generation = 0
        self._proc = None
        self._request_q = None
        self._response_q = None
        self._ready = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        global _PAYLOAD
        # Fresh queues per generation: a replica killed mid-``put`` may
        # die holding its old queue's write lock; the replacement must
        # never share that lock.
        self._request_q = self._context.SimpleQueue()
        self._response_q = self._context.SimpleQueue()
        self._ready = False
        with _PAYLOAD_LOCK:
            _PAYLOAD = (self._factory, self._telemetry_path)
            try:
                self._proc = self._context.Process(
                    target=_replica_main,
                    args=(self.replica_id, self.generation,
                          self._request_q, self._response_q),
                    daemon=True,
                )
                self._proc.start()
            finally:
                _PAYLOAD = None

    def restart(self) -> None:
        self.stop(timeout_s=0.0)
        self.generation += 1
        self.start()

    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def ready(self) -> bool:
        return self._ready

    @property
    def pid(self) -> int | None:
        return None if self._proc is None else self._proc.pid

    @property
    def exitcode(self) -> int | None:
        return None if self._proc is None else self._proc.exitcode

    # ------------------------------------------------------------------
    def send(self, ticket: int, tokens: Sequence[str], deadline_ms,
             priority: str = "standard", trace: str | None = None) -> None:
        try:
            self._request_q.put(("req", int(ticket), list(tokens),
                                 deadline_ms, priority, trace))
        except (OSError, ValueError):  # torn pipe to a dead replica
            pass  # the gateway's death sweep requeues the ticket

    def poll(self) -> list[tuple[int, object]]:
        """Collect every complete response waiting on the pipe.

        Responses are small (well under ``PIPE_BUF``), so a SIGKILL
        mid-``put`` leaves either nothing or a whole message; anything
        unreadable anyway (torn frame, unpicklable bytes) is treated as
        replica death — the gateway requeues the in-flight tickets.
        """
        out: list[tuple[int, object]] = []
        if self._response_q is None:
            return out
        try:
            while not self._response_q.empty():
                message = self._response_q.get()
                if message[0] == "ready":
                    self._ready = True
                    continue
                _kind, ticket, result = message
                out.append((int(ticket), result))
        except (EOFError, OSError, ValueError, IndexError, TypeError,
                ImportError, AttributeError):
            pass  # treated as death; liveness sweep handles the rest
        return out

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Hard SIGKILL — the chaos scenario's weapon of choice."""
        import signal

        if self._proc is not None and self._proc.is_alive():
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join(timeout=5.0)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Graceful shutdown; escalates to terminate past the timeout."""
        if self._proc is None:
            return
        if self._proc.is_alive():
            try:
                self._request_q.put(("stop",))
            except (OSError, ValueError):
                pass
            if timeout_s > 0:
                self._proc.join(timeout=timeout_s)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=5.0)
        else:
            self._proc.join(timeout=0.1)
