"""The hardened tagging service: validate → budget → decode → degrade.

:class:`TaggingService` wraps any model exposing ``decode_within`` (the
CNN-BiGRU-CRF backbone, the LM baselines) in the pipeline a loaded
production tagger needs:

1. **Admission** — a bounded queue: past ``max_pending`` requests, new
   work is shed immediately with an :class:`Overloaded` result (bounded
   latency beats unbounded queueing).
2. **Validation/sanitization** — NFC normalization, control-character
   stripping, length caps; garbage becomes a structured
   :class:`Rejected` result, never a traceback.
3. **Micro-batching** — admitted requests are sorted by token count
   (stable, so FIFO among equal lengths) and cut into batches of
   ``max_batch_size``, each encoded once with little padding.
4. **Deadline-bounded decode** — each request's monotonic-clock
   :class:`~repro.serving.deadline.Deadline` (started at admission, so
   queue wait counts) is threaded into the batched decode; once budget
   is spent remaining sentences get the greedy decode, flagged
   ``degraded=True``.
5. **Circuit breaker** — repeated Viterbi overruns or exceptions trip
   the breaker; while open, every request goes straight to greedy and
   the breaker half-opens after its cool-down to probe recovery.

Every response carries quality flags (``degraded``, ``oov_rate``,
``modified``) so callers can decide whether a cheap answer is good
enough.  The service itself never raises to the caller from corpus
content or decode failures — only a
:class:`~repro.reliability.faults.SimulatedCrash` (``BaseException``)
passes through, by design.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

from repro.data.sentence import Sentence
from repro.data.tags import TagScheme
from repro.models.decoding import (
    DEGRADED_BREAKER,
    DEGRADED_DEADLINE,
    DEGRADED_ERROR,
    DEGRADED_STATUSES,
    FAILURE_STATUSES,
    FULL,
    OVERRUN,
)
from repro import obs
from repro.obs import reqtrace
from repro.obs.metrics import MetricsRegistry
from repro.serving.breaker import OPEN, CircuitBreaker
from repro.serving.deadline import Clock, Deadline
from repro.serving.priority import STANDARD, validate_priority
from repro.serving.sanitize import InvalidRequest, RequestSanitizer, SanitizerConfig

_UNSET = object()

_STATUS_NOTES = {
    OVERRUN: "viterbi decode overran the deadline",
    DEGRADED_DEADLINE: "deadline expired; greedy decode served",
    DEGRADED_ERROR: "viterbi decode raised; greedy decode served",
    DEGRADED_BREAKER: "circuit breaker open; greedy decode served",
}


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TagResult:
    """A served answer, with quality flags."""

    tokens: tuple[str, ...]
    spans: tuple[tuple[int, int, str], ...]
    #: True when the greedy fallback (not full Viterbi) produced the tags.
    degraded: bool = False
    #: Fraction of tokens unknown to the model's word vocabulary.
    oov_rate: float = 0.0
    #: True when sanitization had to rewrite or truncate the input.
    modified: bool = False
    #: Why the answer is not a full-quality one (``None`` when it is).
    note: str | None = None
    #: Milliseconds the request waited between admission (:meth:`~TaggingService.submit`)
    #: and the start of its micro-batch decode.
    queue_wait_ms: float = 0.0

    status: ClassVar[str] = "ok"

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class Rejected:
    """A structurally invalid request (the 400 of this service)."""

    reason: str
    field: str = "tokens"
    index: int | None = None

    status: ClassVar[str] = "invalid"

    @property
    def ok(self) -> bool:
        return False

    @classmethod
    def from_error(cls, exc: InvalidRequest) -> "Rejected":
        return cls(exc.reason, field=exc.field, index=exc.index)


@dataclass(frozen=True)
class Overloaded:
    """Load was shed before any work happened (the 503 of this service)."""

    reason: str
    #: Milliseconds the request waited in a queue before being shed
    #: (zero when shed at admission).
    queue_wait_ms: float = 0.0

    status: ClassVar[str] = "overloaded"

    @property
    def ok(self) -> bool:
        return False


@dataclass(frozen=True)
class Expired:
    """The request's deadline was spent before decode started (the 504).

    Distinct from :class:`Overloaded` (the service had no room) and from
    a degraded :class:`TagResult` (a cheap answer was still served):
    here the budget was already gone, so serving anything — even greedy
    — would arrive after the caller stopped listening.
    """

    reason: str
    queue_wait_ms: float = 0.0

    status: ClassVar[str] = "expired"

    @property
    def ok(self) -> bool:
        return False


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceConfig:
    """Operating limits of a :class:`TaggingService`."""

    sanitizer: SanitizerConfig = field(default_factory=SanitizerConfig)
    #: Budget per request in milliseconds; ``None`` = unbounded.
    default_deadline_ms: float | None = None
    #: Sentences decoded per micro-batch.
    max_batch_size: int = 16
    #: Requests admitted per processing cycle; the rest are shed.
    max_pending: int = 64
    #: Consecutive Viterbi failures (overrun or exception) that trip the
    #: breaker.
    breaker_threshold: int = 3
    #: Cool-down before a tripped breaker half-opens.
    breaker_cooldown_ms: float = 1000.0

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")


@dataclass
class _Pending:
    """An admitted, sanitized request waiting for its micro-batch."""

    key: int
    sentence: Sentence
    deadline: Deadline | None
    modified: bool
    #: Service-clock time of admission (queue-wait measurement origin).
    admitted_at: float = 0.0
    #: Priority class; ``standard`` when unset.
    priority: str = STANDARD
    #: Request-trace id carried from gateway admission (``None`` = untraced).
    trace: str | None = None


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
class TaggingService:
    """Serve tag requests through the validated, bounded pipeline.

    ``model`` is anything with ``decode_within`` (and optionally a
    ``word_vocab`` for OOV rates); ``clock`` and ``fault_injector`` are
    injectable for deterministic tests — see
    :class:`~repro.serving.deadline.ManualClock` and the decode hooks of
    :class:`~repro.reliability.faults.FaultInjector`.
    """

    def __init__(self, model, scheme: TagScheme,
                 config: ServiceConfig | None = None,
                 clock: Clock = time.monotonic,
                 fault_injector=None, phi=None):
        self.model = model
        self.scheme = scheme
        self.config = config or ServiceConfig()
        self.clock = clock
        self.phi = phi
        self._injector = fault_injector
        self.sanitizer = RequestSanitizer(self.config.sanitizer)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_ms / 1000.0,
            clock=clock,
            on_transition=self._on_breaker_transition,
        )
        self._pending: list[_Pending] = []
        self._done: dict[int, TagResult | Rejected | Overloaded | Expired] = {}
        self._next_ticket = 0
        self.stats = {
            "served": 0, "degraded": 0, "invalid": 0, "shed": 0,
            "decode_errors": 0, "batches": 0, "expired": 0,
        }
        #: Per-instance metrics (two services never share counters); the
        #: active telemetry session, when any, gets mirrored updates.
        self.metrics = MetricsRegistry()

    def _bump(self, name: str, n: int = 1) -> None:
        self.stats[name] += n
        self.metrics.counter(f"serving.{name}").inc(n)
        obs.count(f"serving.{name}", n)

    def _observe_ms(self, name: str, value_ms: float,
                    trace_id: str | None = None) -> None:
        self.metrics.histogram(name).observe(value_ms, trace_id)
        obs.observe(name, value_ms, trace_id=trace_id)

    def _on_breaker_transition(self, old: str, new: str, breaker) -> None:
        self.metrics.counter("serving.breaker_transitions").inc()
        obs.count("serving.breaker_transitions")
        obs.emit("breaker", old=old, new=new,
                 failures=breaker._consecutive_failures, trips=breaker.trips)
        reqtrace.record("breaker", old=old, new=new)
        if new == OPEN:
            reqtrace.incident("breaker_open", old=old,
                              trips=breaker.trips)

    # ------------------------------------------------------------------
    # Checkpoint loading
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(cls, path: str,
                        config: ServiceConfig | None = None,
                        clock: Clock = time.monotonic,
                        fault_injector=None) -> "TaggingService":
        """Build a service around a ``repro train`` checkpoint.

        The model is rebuilt exactly as ``repro evaluate`` does — from
        the checkpoint's metadata (method, dataset, scale, seed) — and
        served with φ = None, i.e. the task-independent parameters θ.
        The tag scheme is the abstract N-way space the checkpoint was
        trained with (way slots ``0..N-1``).
        """
        from repro.data.splits import split_by_types
        from repro.data.synthetic import generate_dataset
        from repro.data.vocab import CharVocabulary, Vocabulary
        from repro.meta import MethodConfig, build_method
        from repro.nn import load_module, load_state

        _state, metadata = load_state(path)
        method = metadata.get("method", "FewNER")
        seed = metadata.get("seed", 0)
        n_way = metadata.get("n_way", 5)
        dataset = generate_dataset(
            metadata.get("dataset", "GENIA"),
            scale=metadata.get("scale", 0.05),
            seed=seed,
        )
        n_types = len(dataset.types)
        holdout = metadata.get("holdout_types", 5)
        counts = (n_types - 2 * holdout, holdout, holdout)
        train, _val, _test = split_by_types(dataset, counts, seed=seed + 1)
        word_vocab = Vocabulary.from_datasets([train], min_count=2)
        char_vocab = CharVocabulary.from_datasets([train])
        adapter = build_method(method, word_vocab, char_vocab, n_way,
                               MethodConfig(seed=seed))
        model = getattr(adapter, "model", None) or getattr(adapter, "tagger")
        load_module(model, path)
        scheme = TagScheme(tuple(str(way) for way in range(n_way)))
        return cls(model, scheme, config=config, clock=clock,
                   fault_injector=fault_injector)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def tag(self, tokens: Sequence[str], deadline_ms=_UNSET,
            priority: str = STANDARD, trace: str | None = None,
            ) -> TagResult | Rejected | Overloaded | Expired:
        """Tag one sentence through the full pipeline."""
        return self.tag_many([tokens], deadline_ms=deadline_ms,
                             priority=priority, trace=trace)[0]

    def tag_many(self, requests: Iterable[Sequence[str]],
                 deadline_ms=_UNSET, priority: str = STANDARD,
                 trace: str | None = None,
                 ) -> list[TagResult | Rejected | Overloaded | Expired]:
        """Tag a batch of sentences; one result per request, same order."""
        tickets = [
            self.submit(tokens, deadline_ms=deadline_ms, priority=priority,
                        trace=trace)
            for tokens in requests
        ]
        done = self.drain()
        return [done[ticket] for ticket in tickets]

    def submit(self, tokens: Sequence[str], deadline_ms=_UNSET,
               priority: str = STANDARD, trace: str | None = None) -> int:
        """Admit (or immediately shed/reject) one request; returns a ticket.

        The request's deadline starts *now*: time spent waiting in the
        queue for :meth:`drain` is part of its budget.  A request that
        arrives with its budget already spent (``deadline_ms <= 0``) is
        failed immediately with an :class:`Expired` result rather than
        wasting a decode slot.
        """
        priority = validate_priority(priority)
        trace = reqtrace.wire_id(trace)
        ticket = self._next_ticket
        self._next_ticket += 1
        if len(self._pending) >= self.config.max_pending:
            self._bump("shed")
            self._done[ticket] = Overloaded(
                f"queue full ({self.config.max_pending} pending requests)")
            if trace is not None:
                reqtrace.hop(trace, "shed", ticket=ticket, where="service",
                             priority=priority, wait_ms=0.0)
            return ticket
        try:
            clean = self.sanitizer.sanitize(tokens)
        except InvalidRequest as exc:
            self._bump("invalid")
            self._done[ticket] = Rejected.from_error(exc)
            if trace is not None:
                reqtrace.hop(trace, "respond", ticket=ticket,
                             where="service", status="invalid")
            return ticket
        budget = (
            self.config.default_deadline_ms
            if deadline_ms is _UNSET else deadline_ms
        )
        if budget is not None and budget <= 0:
            self._bump("expired")
            self._done[ticket] = Expired(
                "deadline budget already spent at admission")
            if trace is not None:
                reqtrace.hop(trace, "expire", ticket=ticket,
                             where="service", wait_ms=0.0)
            return ticket
        deadline = (
            Deadline.after_ms(budget, clock=self.clock)
            if budget is not None else None
        )
        self._pending.append(_Pending(
            ticket, Sentence(clean.tokens), deadline, clean.modified,
            admitted_at=self.clock(), priority=priority, trace=trace,
        ))
        self.metrics.gauge("serving.queue_depth").set(len(self._pending))
        obs.set_gauge("serving.queue_depth", len(self._pending))
        if trace is not None:
            reqtrace.hop(trace, "queue", ticket=ticket, where="service",
                         priority=priority, depth=len(self._pending))
        return ticket

    def drain(self) -> dict[int, TagResult | Rejected | Overloaded]:
        """Process all queued work and hand back every finished result.

        Each served :class:`TagResult` reports its admission→decode
        queue wait (``queue_wait_ms``), also folded into the
        ``serving.queue_wait_ms`` latency histogram.
        """
        pending, self._pending = self._pending, []
        self.metrics.gauge("serving.queue_depth").set(0)
        obs.set_gauge("serving.queue_depth", 0)
        for batch in self._micro_batches(pending):
            self._process_batch(batch)
        done, self._done = self._done, {}
        return done

    # ------------------------------------------------------------------
    # Pipeline internals
    # ------------------------------------------------------------------
    def _micro_batches(self, pending: list[_Pending]) -> Iterable[list[_Pending]]:
        """Cut the drain into batches of at most ``max_batch_size``.

        One stable sort by token count groups sentences of similar
        length, so a batch pads little, and keeps FIFO order among equal
        lengths.
        """
        ordered = sorted(pending, key=lambda it: len(it.sentence))
        size = self.config.max_batch_size
        for i in range(0, len(ordered), size):
            yield ordered[i : i + size]

    def _batch_deadline(self, batch: list[_Pending]) -> Deadline | None:
        """The tightest member deadline governs the whole micro-batch.

        Conservative when budgets are mixed: an unbounded request batched
        with bounded ones may degrade early, but no bounded request is
        ever decoded past its own deadline.
        """
        deadlines = [p.deadline for p in batch if p.deadline is not None]
        if not deadlines:
            return None
        return min(deadlines, key=lambda d: d.remaining())

    def _oov_rate(self, tokens: tuple[str, ...]) -> float:
        vocab = getattr(self.model, "word_vocab", None)
        if vocab is None or not tokens:
            return 0.0
        known = sum(map(vocab.__contains__, tokens))
        return (len(tokens) - known) / len(tokens)

    def _on_decode(self, index: int) -> None:
        if self._injector is not None:
            self._injector.before_decode()

    def _trace_served(self, p: _Pending, wait_ms: float, status: str,
                      degraded: bool = False,
                      decode_ms: float | None = None) -> None:
        """Emit the service-side decode+respond hops for one request."""
        if p.trace is None:
            return
        fields = {"ticket": p.key, "where": "service",
                  "wait_ms": round(wait_ms, 3), "status": status}
        if decode_ms is not None:
            fields["decode_ms"] = round(decode_ms, 3)
        if degraded:
            fields["degraded"] = True
        reqtrace.hop(p.trace, "decode", **fields)
        reqtrace.hop(p.trace, "respond", ticket=p.key, where="service",
                     status=status)

    def _process_batch(self, batch: list[_Pending]) -> None:
        deadline = self._batch_deadline(batch)
        decode_started = self.clock()
        waits = {
            p.key: max(0.0, (decode_started - p.admitted_at) * 1000.0)
            for p in batch
        }
        for p in batch:
            self._observe_ms("serving.queue_wait_ms", waits[p.key],
                             trace_id=p.trace)
        sentences = [p.sentence for p in batch]
        try:
            if self._injector is not None:
                before_batch = getattr(self._injector, "before_batch", None)
                if before_batch is not None:
                    before_batch()  # whole-batch worker-style fault
            # No injector → no per-sentence hook, which lets the decoder
            # take its batched bulk path when the deadline allows.
            on_sentence = self._on_decode if self._injector is not None else None
            paths, statuses = self.model.decode_within(
                sentences, phi=self.phi, deadline=deadline,
                on_sentence=on_sentence,
                allow_viterbi=self.breaker.allow(),
            )
        except Exception as exc:  # encoding/emissions failed outright
            decode_ms = (self.clock() - decode_started) * 1000.0
            self._observe_ms("serving.decode_ms", decode_ms)
            self._bump("decode_errors")
            self.breaker.record_failure()
            for p in batch:
                self._bump("served")
                self._bump("degraded")
                self._done[p.key] = TagResult(
                    p.sentence.tokens, (), degraded=True,
                    oov_rate=self._oov_rate(p.sentence.tokens),
                    modified=p.modified,
                    note=f"decode failed ({type(exc).__name__}: {exc}); "
                         f"no spans served",
                    queue_wait_ms=waits[p.key],
                )
                self._trace_served(p, waits[p.key], "error", degraded=True,
                                   decode_ms=decode_ms)
            return
        decode_ms = (self.clock() - decode_started) * 1000.0
        self._observe_ms("serving.decode_ms", decode_ms)
        self._bump("batches")
        for p, path, status in zip(batch, paths, statuses):
            if status == FULL:
                self.breaker.record_success()
            elif status in FAILURE_STATUSES:
                self.breaker.record_failure()
                if status == DEGRADED_ERROR:
                    self._bump("decode_errors")
            degraded = status in DEGRADED_STATUSES
            self._bump("served")
            if degraded:
                self._bump("degraded")
            note = _STATUS_NOTES.get(status)
            spans = tuple(
                (start, end, label)
                for start, end, label in self.scheme.decode(path)
            )
            self._done[p.key] = TagResult(
                p.sentence.tokens, spans, degraded=degraded,
                oov_rate=self._oov_rate(p.sentence.tokens),
                modified=p.modified, note=note,
                queue_wait_ms=waits[p.key],
            )
            self._trace_served(p, waits[p.key], status, degraded=degraded,
                               decode_ms=decode_ms)
