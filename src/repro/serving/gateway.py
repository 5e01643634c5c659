"""The sharded serving gateway: a supervised fleet of tagging replicas.

:class:`ShardedGateway` routes tag requests across N replicas, each
hosting its own :class:`~repro.serving.TaggingService` (in a forked
worker process, or in-process on a virtual clock for deterministic
tests — see :mod:`repro.serving.replica`).  The robustness ladder, in
request order:

1. **Admission** — the request is consistent-hash routed
   (:mod:`repro.serving.routing`) to its owning shard; when that
   shard's circuit breaker is open, or the shard is draining or dead,
   the *least-loaded* healthy shard takes it instead.  Each shard's
   queue is bounded: past ``max_shard_queue`` outstanding requests the
   gateway sheds at admission with :class:`~repro.serving.Overloaded`
   (backpressure, never unbounded queueing).
2. **Supervision** — every dispatched ticket is tracked until its
   response arrives.  A replica that dies (SIGKILL, crash) or wedges
   past ``replica_timeout_s`` is detected on the next pump: its
   in-flight tickets are *refunded* (requeued to surviving replicas at
   the front of the line), its breaker records the failure, and the
   replica is rebuilt on fresh queues after a jittered backoff — the
   crash/hang detection of :class:`repro.perf.executor.EpisodeExecutor`,
   with refunds and rebuilds for a long-lived fleet.
3. **Hedging** — a request in flight longer than ``hedge_after_ms`` is
   duplicated to the least-loaded other healthy replica.  The first
   response wins and is delivered exactly once; the loser is cancelled
   (its eventual response, if any, is discarded, never double-
   delivered).  Replicas are deterministic clones, so either answer is
   bit-identical to the other.
4. **Rolling reload** — :meth:`start_rolling_reload` swaps the service
   factory (e.g. to a newer
   :class:`~repro.reliability.checkpoint.CheckpointStore` checkpoint)
   one replica at a time: drain → swap → readmit, with at most one
   replica draining at any moment and zero failed requests — traffic
   for the draining shard simply routes around it.

Every run is accounted in a :class:`GatewayReport` (the serving
analogue of :class:`~repro.perf.executor.ExecutionReport`): admissions,
sheds, hedges won/cancelled, deaths, wedges, rebuilds, refunds and
breaker transitions, so the ``gateway-replica-kill`` chaos scenario can
assert that *every* kill is visible in the ledger.
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.obs import reqtrace
from repro.obs.metrics import MetricsRegistry, histogram_quantile
from repro.serving.breaker import BREAKER_STATE_CODES, OPEN, CircuitBreaker
from repro.serving.replica import (
    _UNSET_SENTINEL,
    InProcessReplica,
    ProcessReplica,
    fork_available,
)
from repro.serving.priority import PRIORITIES, STANDARD, validate_priority
from repro.serving.routing import HashRing, request_key
from repro.serving.service import Overloaded

_UNSET = object()

#: Shard lifecycle states.
READY = "ready"
DRAINING = "draining"
REBUILDING = "rebuilding"


class GatewayStalled(RuntimeError):
    """``drain`` gave up: tickets still pending past its wall timeout."""


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GatewayConfig:
    """Operating limits of a :class:`ShardedGateway`."""

    #: Replica count; shards map 1:1 onto replicas.
    replicas: int = 3
    #: Virtual nodes per shard on the consistent-hash ring.
    virtual_nodes: int = 16
    #: Outstanding (queued + in-flight) requests a shard may hold;
    #: admission past this sheds with backpressure.
    max_shard_queue: int = 64
    #: In-flight longer than this hedges to a second replica
    #: (``None`` = hedging off).
    hedge_after_ms: float | None = None
    #: In-flight longer than this declares the replica wedged: it is
    #: killed, rebuilt, and its work refunded (``None`` = off).
    replica_timeout_s: float | None = None
    #: Consecutive replica-level failures (death, wedge) tripping the
    #: per-replica breaker.
    breaker_threshold: int = 1
    #: Cool-down before a tripped replica breaker half-opens.
    breaker_cooldown_ms: float = 250.0
    #: Base for the jittered exponential rebuild backoff (0 = rebuild
    #: immediately); jitter is seeded from ``(seed, rebuilds, replica)``
    #: so a mass rebuild never retries in lockstep.
    rebuild_backoff_s: float = 0.0
    #: Seed for the deterministic rebuild jitter.
    seed: int = 0
    #: Sleep between supervision passes in :meth:`ShardedGateway.drain`.
    poll_interval_s: float = 0.002

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.max_shard_queue < 1:
            raise ValueError(
                f"max_shard_queue must be >= 1, got {self.max_shard_queue}"
            )
        if self.hedge_after_ms is not None and self.hedge_after_ms < 0:
            raise ValueError(
                f"hedge_after_ms must be >= 0, got {self.hedge_after_ms}"
            )
        if self.replica_timeout_s is not None and self.replica_timeout_s <= 0:
            raise ValueError(
                f"replica_timeout_s must be positive, "
                f"got {self.replica_timeout_s}"
            )
        if self.rebuild_backoff_s < 0:
            raise ValueError(
                f"rebuild_backoff_s must be >= 0, got {self.rebuild_backoff_s}"
            )


# ----------------------------------------------------------------------
# Results and accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RoutedResult:
    """One delivered answer, with its routing history."""

    ticket: int
    result: object  #: TagResult | Rejected | Overloaded
    #: Replica that produced the winning response (None for a
    #: gateway-side shed).
    replica: int | None
    #: Milliseconds between admission and delivery.
    latency_ms: float
    #: True when a hedge was launched for this request.
    hedged: bool = False
    #: Times the request was requeued off a dead/wedged replica.
    requeues: int = 0
    #: Priority class the request was admitted with.
    priority: str = STANDARD
    #: Request-trace id minted at admission (``None`` when tracing off).
    trace: str | None = None


@dataclass
class GatewayReport:
    """What the fleet actually did — the serving ExecutionReport."""

    backend: str
    replicas: int
    admitted: int = 0
    completed: int = 0
    shed: int = 0
    #: In-flight tickets requeued off dead/wedged replicas, uncharged.
    refunds: int = 0
    #: Queued (not yet dispatched) tickets rerouted off a draining or
    #: dead shard.
    rerouted: int = 0
    hedges: int = 0
    #: Hedge responses that arrived first and were delivered.
    hedges_won: int = 0
    #: Hedge legs cancelled because the other leg answered first.
    hedges_cancelled: int = 0
    #: Responses discarded because their ticket was already answered.
    late_responses: int = 0
    #: Replica deaths detected (SIGKILL, crash).
    deaths: int = 0
    #: Replicas killed by the gateway for exceeding replica_timeout_s.
    wedges: int = 0
    rebuilds: int = 0
    #: Replicas restarted by rolling reload.
    reloads: int = 0
    breaker_transitions: int = 0
    #: Highest number of simultaneously draining replicas ever seen
    #: (rolling reload must keep this at 1).
    max_concurrent_draining: int = 0
    #: Per-priority queue-wait quantiles (admission → first dispatch),
    #: filled at shutdown: ``{priority: {count, p50_ms, p95_ms, p99_ms}}``.
    queue_wait: dict = field(default_factory=dict)
    per_replica: list[dict] = field(default_factory=list)

    @property
    def pending(self) -> int:
        return self.admitted - self.completed

    @property
    def clean(self) -> bool:
        """True when nothing needed healing."""
        return (self.deaths == 0 and self.wedges == 0 and self.hedges == 0
                and self.refunds == 0 and self.pending == 0)

    def summary(self) -> dict:
        """JSON-serialisable digest for journals, CLIs and chaos."""
        return {
            "backend": self.backend,
            "replicas": self.replicas,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "refunds": self.refunds,
            "rerouted": self.rerouted,
            "hedges": self.hedges,
            "hedges_won": self.hedges_won,
            "hedges_cancelled": self.hedges_cancelled,
            "late_responses": self.late_responses,
            "deaths": self.deaths,
            "wedges": self.wedges,
            "rebuilds": self.rebuilds,
            "reloads": self.reloads,
            "breaker_transitions": self.breaker_transitions,
            "max_concurrent_draining": self.max_concurrent_draining,
            "queue_wait": dict(self.queue_wait),
            "per_replica": list(self.per_replica),
        }

    def render(self) -> str:
        line = (f"gateway: backend={self.backend} replicas={self.replicas} "
                f"admitted={self.admitted} completed={self.completed} "
                f"shed={self.shed} hedges={self.hedges} "
                f"deaths={self.deaths} wedges={self.wedges} "
                f"rebuilds={self.rebuilds} refunds={self.refunds} "
                f"reloads={self.reloads} "
                f"breaker_transitions={self.breaker_transitions}")
        if self.queue_wait:
            parts = []
            for name in ("interactive", "standard", "batch"):
                qw = self.queue_wait.get(name)
                if qw:
                    parts.append(
                        f"{name} p50={qw['p50_ms']:g}/p95={qw['p95_ms']:g}"
                        f"/p99={qw['p99_ms']:g} (n={qw['count']})"
                    )
            if parts:
                line += "\nqueue wait ms: " + ", ".join(parts)
        return line


# ----------------------------------------------------------------------
# Internal request / shard state
# ----------------------------------------------------------------------
@dataclass
class _Request:
    ticket: int
    tokens: tuple[str, ...]
    deadline_ms: object
    submitted_at: float
    #: Shard preference order fixed at admission (consistent hash).
    preference: tuple[int, ...]
    #: Shards the ticket currently sits queued or in-flight on.
    inflight_on: set[int] = field(default_factory=set)
    first_sent_at: float | None = None
    hedged: bool = False
    #: Shard the hedge leg was sent to (None until a hedge launches).
    hedge_shard: int | None = None
    requeues: int = 0
    priority: str = STANDARD
    #: Trace id minted at admission (``None`` when tracing is off).
    trace: str | None = None


class _Shard:
    def __init__(self, shard_id: int, handle, breaker: CircuitBreaker):
        self.id = shard_id
        self.handle = handle
        self.breaker = breaker
        self.state = READY
        self.queue: collections.deque[int] = collections.deque()
        self.inflight: dict[int, float] = {}
        self.served = 0
        self.deaths = 0
        self.rebuilds = 0
        self.rebuild_at: float | None = None

    @property
    def load(self) -> int:
        return len(self.queue) + len(self.inflight)

    def status(self) -> dict:
        return {
            "replica": self.id,
            "state": self.state,
            "alive": bool(self.handle.alive()),
            "generation": self.handle.generation,
            "breaker": self.breaker.state,
            "queued": len(self.queue),
            "inflight": len(self.inflight),
            "served": self.served,
            "deaths": self.deaths,
            "rebuilds": self.rebuilds,
        }


# ----------------------------------------------------------------------
# The gateway
# ----------------------------------------------------------------------
class ShardedGateway:
    """Route tagging requests across a supervised replica fleet.

    ``service_factory(replica_id)`` builds one replica's
    :class:`~repro.serving.TaggingService`; replicas must be
    deterministic clones (same model, same config), which is what makes
    failover and hedging transparent — any replica's answer is
    bit-identical to any other's.

    ``backend`` is ``"process"`` (forked workers), ``"in-process"``
    (virtual-clock replicas, deterministic tests) or ``"auto"``
    (process when fork is available, else in-process).
    ``service_time_s(tokens, ticket) -> float`` is the in-process
    latency model (ignored by the process backend).
    """

    def __init__(self, service_factory: Callable[[int], object],
                 config: GatewayConfig | None = None,
                 backend: str = "auto",
                 clock: Callable[[], float] = time.monotonic,
                 telemetry_path: str | None = None,
                 service_time_s=None):
        if backend not in ("auto", "process", "in-process"):
            raise ValueError(
                f"backend must be 'auto', 'process' or 'in-process', "
                f"got {backend!r}"
            )
        self.config = config or GatewayConfig()
        self.clock = clock
        self._factory = service_factory
        if backend == "auto":
            backend = "process" if fork_available() else "in-process"
        if backend == "process" and not fork_available():
            raise RuntimeError("process backend requires fork support")
        self.backend = backend
        self.ring = HashRing(range(self.config.replicas),
                             virtual_nodes=self.config.virtual_nodes)
        self.report = GatewayReport(backend=backend,
                                    replicas=self.config.replicas)
        self.metrics = MetricsRegistry()
        self._next_ticket = 0
        self._requests: dict[int, _Request] = {}
        self._done: dict[int, RoutedResult] = {}
        #: Admitted tickets with nowhere routable to go right now; they
        #: are re-routed every pump until a replica comes back.
        self._limbo: collections.deque[int] = collections.deque()
        self._reload_pending: list[int] = []
        self._shards: list[_Shard] = []
        for i in range(self.config.replicas):
            if backend == "process":
                handle = ProcessReplica(i, service_factory,
                                        telemetry_path=telemetry_path)
            else:
                handle = InProcessReplica(i, service_factory, clock=clock,
                                          service_time_s=service_time_s)
            breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_ms / 1000.0,
                clock=clock,
                on_transition=self._make_breaker_observer(i),
            )
            self._shards.append(_Shard(i, handle, breaker))
        self._closed = False
        for shard in self._shards:
            shard.handle.start()
        self._publish_gauges()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.report.queue_wait = self._queue_wait_stats()
        for shard in self._shards:
            shard.handle.stop()

    def _queue_wait_stats(self) -> dict:
        """Per-priority queue-wait quantiles (admission → first dispatch)."""
        out: dict[str, dict] = {}
        for name in PRIORITIES:
            hist = self.metrics.existing_histogram(
                f"gateway.queue_wait_ms.{name}"
            )
            if hist is None or not hist.count:
                continue
            out[name] = {
                "count": hist.count,
                "p50_ms": histogram_quantile(hist, 0.50),
                "p95_ms": histogram_quantile(hist, 0.95),
                "p99_ms": histogram_quantile(hist, 0.99),
            }
        return out

    def _observe_queue_wait(self, priority: str, wait_ms: float,
                            trace_id: str | None = None) -> None:
        name = f"gateway.queue_wait_ms.{priority}"
        self.metrics.histogram(name).observe(wait_ms, trace_id)
        obs.observe(name, wait_ms, trace_id=trace_id)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _make_breaker_observer(self, shard_id: int):
        def observer(old: str, new: str, _breaker) -> None:
            self.report.breaker_transitions += 1
            self.metrics.counter("gateway.breaker_transitions").inc()
            self.metrics.gauge(
                f"gateway.replica.{shard_id}.breaker_state"
            ).set(BREAKER_STATE_CODES[new])
            obs.count("gateway.breaker_transitions")
            obs.set_gauge(f"gateway.replica.{shard_id}.breaker_state",
                          BREAKER_STATE_CODES[new])
            obs.emit("gateway.breaker", replica=shard_id, old=old, new=new)
            reqtrace.record("gateway.breaker", replica=shard_id,
                            old=old, new=new)
            if new == OPEN:
                reqtrace.incident("breaker_open", replica=shard_id)
        return observer

    def _count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(f"gateway.{name}").inc(n)
        obs.count(f"gateway.{name}", n)

    def _publish_gauges(self) -> None:
        for shard in self._shards:
            self.metrics.gauge(
                f"gateway.replica.{shard.id}.breaker_state"
            ).set(BREAKER_STATE_CODES[shard.breaker.state])
            obs.set_gauge(f"gateway.replica.{shard.id}.breaker_state",
                          BREAKER_STATE_CODES[shard.breaker.state])
            self.metrics.gauge(
                f"gateway.replica.{shard.id}.queue_depth"
            ).set(shard.load)
        self.report.per_replica = [s.status() for s in self._shards]

    # ------------------------------------------------------------------
    # Admission and routing
    # ------------------------------------------------------------------
    def submit(self, tokens: Sequence[str], deadline_ms=_UNSET,
               priority: str = STANDARD) -> int:
        """Admit (or shed) one request; returns its ticket."""
        ticket = self._next_ticket
        self._next_ticket += 1
        request = _Request(
            ticket=ticket,
            tokens=tuple(str(t) for t in tokens),
            deadline_ms=(_UNSET_SENTINEL if deadline_ms is _UNSET
                         else deadline_ms),
            submitted_at=self.clock(),
            preference=self.ring.preference(request_key(tokens)),
            priority=validate_priority(priority),
            trace=(reqtrace.mint(self.config.seed, ticket)
                   if reqtrace.tracing_enabled() else None),
        )
        shard = self._choose_shard(request)
        if shard is None:
            self._shed_ticket(
                ticket, request,
                "no replica can take the request "
                "(queues full or fleet unhealthy)",
            )
            return ticket
        self.report.admitted += 1
        self._count("admitted")
        self._requests[ticket] = request
        shard.queue.append(ticket)
        request.inflight_on.add(shard.id)
        if request.trace is not None:
            reqtrace.hop(request.trace, "admit", ticket=ticket,
                         where="gateway", priority=request.priority)
            reqtrace.hop(request.trace, "route", ticket=ticket,
                         where="gateway", replica=shard.id, attempt=0)
        return ticket

    def _shed_ticket(self, ticket: int, request: _Request,
                     reason: str) -> None:
        """Deliver a gateway-side admission shed with full stats parity.

        Sheds never reach a replica, so the gateway itself records the
        ``serving.shed`` counter and the ``serving.queue_wait_ms``
        observation — identically for both replica backends — keeping
        fleet-merged ``repro obs report`` counts honest (drops would
        otherwise be invisible with forked replicas).
        """
        wait_ms = max(0.0, (self.clock() - request.submitted_at) * 1000.0)
        priority = request.priority
        trace = request.trace
        self.report.shed += 1
        self._count("shed")
        self.metrics.counter("serving.shed").inc()
        obs.count("serving.shed")
        self.metrics.histogram("serving.queue_wait_ms").observe(wait_ms, trace)
        obs.observe("serving.queue_wait_ms", wait_ms, trace_id=trace)
        self._observe_queue_wait(priority, wait_ms, trace)
        if trace is not None:
            reqtrace.hop(trace, "shed", ticket=ticket, where="gateway",
                         priority=priority, wait_ms=round(wait_ms, 3),
                         queued=False)
        self._done[ticket] = RoutedResult(
            ticket, Overloaded(reason, queue_wait_ms=wait_ms),
            replica=None, latency_ms=wait_ms, priority=priority,
            trace=trace,
        )

    def _routable(self, shard: _Shard, exclude: Iterable[int] = ()) -> bool:
        return (shard.state == READY and shard.handle.alive()
                and shard.id not in set(exclude))

    def _choose_shard(self, request: _Request,
                      exclude: Iterable[int] = (),
                      bounded: bool = True) -> _Shard | None:
        """Pick the shard for a (re)dispatch.

        Consistent-hash owner first; when it is unroutable, breaker-open
        or full, fall back to the *least-loaded* other candidate
        (ties broken by ring preference order, so fallback is as
        deterministic as primary routing).  ``bounded=False`` skips the
        queue bound — used for requeues of already-admitted tickets,
        whose zero-loss promise outranks backpressure.
        """
        exclude = set(exclude)
        candidates = [self._shards[i] for i in request.preference
                      if self._routable(self._shards[i], exclude)]
        if not candidates:
            return None
        ordered = [candidates[0]] + sorted(
            candidates[1:],
            key=lambda s: (s.load, request.preference.index(s.id)),
        )
        for shard in ordered:
            if bounded and shard.load >= self.config.max_shard_queue:
                continue
            if shard.breaker.state == OPEN:
                continue
            if not shard.breaker.allow():
                continue  # half-open probe already taken by another
            return shard
        return None

    def _requeue(self, ticket: int, *, refund: bool) -> None:
        """Put an admitted ticket back in line after its replica died."""
        request = self._requests.get(ticket)
        if request is None or ticket in self._done:
            return
        if refund:
            self.report.refunds += 1
            self._count("refunds")
        else:
            self.report.rerouted += 1
        request.requeues += 1
        request.first_sent_at = None
        shard = self._choose_shard(request, exclude=request.inflight_on,
                                   bounded=False)
        if shard is None:
            self._limbo.append(ticket)
            return
        shard.queue.appendleft(ticket)  # innocents go to the front
        request.inflight_on.add(shard.id)
        if request.trace is not None:
            reqtrace.hop(request.trace, "route", ticket=ticket,
                         where="gateway", replica=shard.id,
                         attempt=request.requeues)

    # ------------------------------------------------------------------
    # Supervision pump
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """One supervision pass; returns the number of new deliveries.

        Order matters: deaths are swept before dispatch (never feed a
        corpse), rebuilds come back before hedging (a revived replica is
        a hedge target), and collection runs last so a request
        dispatched this pass can complete this pass on the in-process
        backend.
        """
        if self._closed:
            raise RuntimeError("gateway is shut down")
        now = self.clock()
        self._sweep_deaths(now)
        self._sweep_rebuilds(now)
        self._advance_reload(now)
        self._sweep_wedges(now)
        self._launch_hedges(now)
        self._retry_limbo()
        self._dispatch(now)
        delivered = self._collect()
        self._publish_gauges()
        return delivered

    # -- death / rebuild ------------------------------------------------
    def _fail_replica(self, shard: _Shard, now: float, *, kind: str) -> None:
        if kind == "death":
            shard.deaths += 1
            self.report.deaths += 1
            self._count("deaths")
        else:
            self.report.wedges += 1
            self._count("wedges")
        obs.emit("gateway.replica_down", replica=shard.id, kind=kind,
                 inflight=len(shard.inflight), queued=len(shard.queue))
        reqtrace.record("gateway.replica_down", replica=shard.id,
                        failure=kind, inflight=len(shard.inflight),
                        queued=len(shard.queue))
        reqtrace.incident("replica_down", replica=shard.id, failure=kind)
        shard.breaker.record_failure()
        # Refund in-flight work (the replica died, not the request) and
        # reroute anything still queued.
        inflight = list(shard.inflight)
        queued = list(shard.queue)
        shard.inflight.clear()
        shard.queue.clear()
        for ticket in inflight + queued:
            request = self._requests.get(ticket)
            if request is not None:
                request.inflight_on.discard(shard.id)
        for ticket in inflight:
            self._requeue(ticket, refund=True)
        for ticket in queued:
            self._requeue(ticket, refund=False)
        shard.state = REBUILDING
        shard.rebuild_at = now + self._rebuild_backoff(shard)
        shard.rebuilds += 1

    def _rebuild_backoff(self, shard: _Shard) -> float:
        """Jittered exponential backoff, seeded per (seed, attempt,
        replica) — rebuilds after a correlated failure fan out instead
        of thundering back in lockstep."""
        base = self.config.rebuild_backoff_s
        if base <= 0:
            return 0.0
        jitter = np.random.default_rng(
            (self.config.seed, 6271, shard.rebuilds, shard.id)
        ).random()
        return base * (2.0 ** min(shard.rebuilds, 8)) * (0.5 + jitter)

    def _sweep_deaths(self, now: float) -> None:
        for shard in self._shards:
            if shard.state in (READY, DRAINING) and not shard.handle.alive():
                self._fail_replica(shard, now, kind="death")

    def _sweep_rebuilds(self, now: float) -> None:
        for shard in self._shards:
            if shard.state == REBUILDING and now >= (shard.rebuild_at or 0.0):
                shard.handle.restart()
                shard.rebuild_at = None
                shard.state = READY
                self.report.rebuilds += 1
                self._count("rebuilds")
                obs.emit("gateway.replica_rebuilt", replica=shard.id,
                         generation=shard.handle.generation)
                reqtrace.record("gateway.replica_rebuilt", replica=shard.id,
                                generation=shard.handle.generation)
                reqtrace.incident("replica_rebuilt", replica=shard.id,
                                  generation=shard.handle.generation)

    def _sweep_wedges(self, now: float) -> None:
        if self.config.replica_timeout_s is None:
            return
        for shard in self._shards:
            if shard.state not in (READY, DRAINING) or not shard.inflight:
                continue
            oldest = min(shard.inflight.values())
            if now - oldest > self.config.replica_timeout_s:
                shard.handle.kill()
                self._fail_replica(shard, now, kind="wedge")

    # -- rolling reload -------------------------------------------------
    def start_rolling_reload(self, service_factory=None) -> None:
        """Begin a drain → swap → readmit pass over the whole fleet.

        One replica drains at a time; its hash-routed traffic falls
        back to the others, so no admitted request ever fails.  The new
        ``service_factory`` (``None`` = re-run the current one, e.g. a
        factory that loads ``CheckpointStore.load_latest()`` picks up
        the newest checkpoint by construction) applies to each replica
        as it restarts.
        """
        if service_factory is not None:
            self._factory = service_factory
            for shard in self._shards:
                shard.handle._factory = service_factory
        self._reload_pending = [s.id for s in self._shards]

    @property
    def reloading(self) -> bool:
        return bool(self._reload_pending) or any(
            s.state == DRAINING for s in self._shards
        )

    def _advance_reload(self, now: float) -> None:
        draining = [s for s in self._shards if s.state == DRAINING]
        self.report.max_concurrent_draining = max(
            self.report.max_concurrent_draining, len(draining)
        )
        for shard in draining:
            # Queued-but-undispatched work reroutes immediately; only
            # genuinely in-flight requests hold the drain open.
            queued = list(shard.queue)
            shard.queue.clear()
            for ticket in queued:
                request = self._requests.get(ticket)
                if request is not None:
                    request.inflight_on.discard(shard.id)
                self._requeue(ticket, refund=False)
            if not shard.inflight:
                shard.handle.stop(timeout_s=2.0)
                shard.handle.generation += 1
                shard.handle.start()
                shard.state = READY
                self.report.reloads += 1
                self._count("reloads")
                obs.emit("gateway.replica_reloaded", replica=shard.id,
                         generation=shard.handle.generation)
        if not any(s.state == DRAINING for s in self._shards):
            while self._reload_pending:
                nxt = self._shards[self._reload_pending.pop(0)]
                if nxt.state == READY:
                    nxt.state = DRAINING
                    obs.emit("gateway.replica_draining", replica=nxt.id)
                    break

    # -- hedging --------------------------------------------------------
    def _launch_hedges(self, now: float) -> None:
        budget_ms = self.config.hedge_after_ms
        if budget_ms is None:
            return
        for ticket, request in self._requests.items():
            if (ticket in self._done or request.hedged
                    or request.first_sent_at is None
                    or len(request.inflight_on) != 1):
                continue
            if (now - request.first_sent_at) * 1000.0 < budget_ms:
                continue
            shard = self._choose_shard(request, exclude=request.inflight_on,
                                       bounded=False)
            if shard is None:
                continue  # nobody to hedge to; the primary keeps the job
            request.hedged = True
            request.hedge_shard = shard.id
            self.report.hedges += 1
            self._count("hedges")
            primary = next(iter(request.inflight_on))
            obs.emit("gateway.hedge", ticket=ticket,
                     primary=primary, hedge=shard.id)
            reqtrace.record("gateway.hedge", ticket=ticket,
                            primary=primary, hedge=shard.id)
            if request.trace is not None:
                reqtrace.hop(request.trace, "hedge", ticket=ticket,
                             where="gateway", primary=primary,
                             replica=shard.id)
            shard.inflight[ticket] = now
            request.inflight_on.add(shard.id)
            shard.handle.send(ticket, list(request.tokens),
                              request.deadline_ms,
                              priority=request.priority,
                              trace=request.trace)

    def _retry_limbo(self) -> None:
        for _ in range(len(self._limbo)):
            ticket = self._limbo.popleft()
            if ticket in self._done:
                continue
            request = self._requests.get(ticket)
            shard = (self._choose_shard(request, exclude=request.inflight_on,
                                        bounded=False)
                     if request is not None else None)
            if shard is None:
                self._limbo.append(ticket)
                continue
            shard.queue.appendleft(ticket)
            request.inflight_on.add(shard.id)

    # -- dispatch / collect ---------------------------------------------
    def _dispatch(self, now: float) -> None:
        for shard in self._shards:
            if shard.state != READY or not shard.handle.alive():
                continue
            while shard.queue:
                ticket = shard.queue.popleft()
                if ticket in self._done:
                    continue  # answered elsewhere while queued
                request = self._requests[ticket]
                shard.inflight[ticket] = now
                if request.first_sent_at is None:
                    request.first_sent_at = now
                    wait_ms = max(
                        0.0, (now - request.submitted_at) * 1000.0
                    )
                    self._observe_queue_wait(request.priority, wait_ms,
                                             request.trace)
                    if request.trace is not None:
                        reqtrace.hop(request.trace, "dispatch",
                                     ticket=ticket, where="gateway",
                                     replica=shard.id,
                                     attempt=request.requeues,
                                     wait_ms=round(wait_ms, 3))
                elif request.trace is not None:
                    reqtrace.hop(request.trace, "dispatch", ticket=ticket,
                                 where="gateway", replica=shard.id,
                                 attempt=request.requeues)
                shard.handle.send(ticket, list(request.tokens),
                                  request.deadline_ms,
                                  priority=request.priority,
                                  trace=request.trace)

    def _collect(self) -> int:
        delivered = 0
        for shard in self._shards:
            for ticket, result in shard.handle.poll():
                shard.inflight.pop(ticket, None)
                request = self._requests.get(ticket)
                if request is None or ticket in self._done:
                    # Cancelled-hedge or post-requeue duplicate: discard
                    # (already counted hedges_cancelled at delivery).
                    self.report.late_responses += 1
                    continue
                request.inflight_on.discard(shard.id)
                latency_ms = max(
                    0.0, (self.clock() - request.submitted_at) * 1000.0
                )
                self._done[ticket] = RoutedResult(
                    ticket, result, replica=shard.id,
                    latency_ms=latency_ms, hedged=request.hedged,
                    requeues=request.requeues, priority=request.priority,
                    trace=request.trace,
                )
                delivered += 1
                shard.served += 1
                shard.breaker.record_success()
                self.report.completed += 1
                self._count("completed")
                self.metrics.histogram("gateway.latency_ms").observe(
                    latency_ms, request.trace
                )
                obs.observe("gateway.latency_ms", latency_ms,
                            trace_id=request.trace)
                if request.trace is not None:
                    reqtrace.hop(request.trace, "respond", ticket=ticket,
                                 where="gateway", replica=shard.id,
                                 latency_ms=round(latency_ms, 3),
                                 status=getattr(result, "status", "?"),
                                 hedged=request.hedged)
                # Cancel the losing hedge leg: stop tracking it there.
                for other_id in list(request.inflight_on):
                    other = self._shards[other_id]
                    other.inflight.pop(ticket, None)
                    if ticket in other.queue:
                        try:
                            other.queue.remove(ticket)
                        except ValueError:  # pragma: no cover
                            pass
                    request.inflight_on.discard(other_id)
                    if request.hedged:
                        self.report.hedges_cancelled += 1
                if request.hedged and shard.id == request.hedge_shard:
                    self.report.hedges_won += 1
                    self._count("hedges_won")
        return delivered

    # ------------------------------------------------------------------
    # Draining and convenience
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Admitted tickets not yet answered."""
        return self.report.admitted - self.report.completed

    def collect(self) -> dict[int, RoutedResult]:
        """Hand back everything finished so far (and forget it)."""
        done, self._done = self._done, {}
        for ticket in done:
            self._requests.pop(ticket, None)
        return done

    def drain(self, timeout_s: float | None = None,
              pump_reload: bool = False) -> dict[int, RoutedResult]:
        """Pump until every admitted ticket has an answer.

        With a :class:`~repro.serving.ManualClock` the clock is advanced
        by ``poll_interval_s`` per idle pass; with a real clock the
        gateway sleeps instead.  ``pump_reload=True`` also keeps pumping
        until a rolling reload completes.  ``timeout_s`` bounds *wall*
        time and raises :class:`GatewayStalled` when exceeded — zero
        tickets are ever silently dropped.
        """
        t0 = time.monotonic()
        while True:
            delivered = self.pump()
            busy = self.outstanding > 0 or (pump_reload and self.reloading)
            if not busy:
                return self.collect()
            if timeout_s is not None and time.monotonic() - t0 > timeout_s:
                pending = [t for t in self._requests if t not in self._done]
                raise GatewayStalled(
                    f"{len(pending)} ticket(s) still pending after "
                    f"{timeout_s:g}s: {sorted(pending)[:10]}"
                )
            if not delivered:
                if hasattr(self.clock, "advance"):
                    self.clock.advance(self.config.poll_interval_s)
                else:
                    time.sleep(self.config.poll_interval_s)

    def tag_many(self, requests: Iterable[Sequence[str]],
                 deadline_ms=_UNSET, priority: str = STANDARD,
                 timeout_s: float | None = None) -> list:
        """Service-compatible batch API: one result per request, in order."""
        tickets = [self.submit(tokens, deadline_ms=deadline_ms,
                               priority=priority)
                   for tokens in requests]
        done = self.drain(timeout_s=timeout_s)
        return [done[t].result for t in tickets]

    def kill_replica(self, replica_id: int) -> None:
        """Hard-kill one replica (chaos hook; detection is the pump's job)."""
        self._shards[replica_id].handle.kill()

    def health(self) -> dict:
        """Fleet-level health view: per-replica status + breaker states."""
        statuses = [shard.status() for shard in self._shards]
        healthy = sum(1 for s in statuses
                      if s["alive"] and s["state"] == READY
                      and s["breaker"] != OPEN)
        health = {
            "backend": self.backend,
            "replicas": len(statuses),
            "healthy": healthy,
            "reloading": self.reloading,
            "outstanding": self.outstanding,
            "queue_wait": self._queue_wait_stats(),
            "per_replica": statuses,
        }
        return health
