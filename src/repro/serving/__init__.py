"""Hardened inference: the serving layer of the reproduction.

Production counterpart to the training-side :mod:`repro.reliability`
package.  Five cooperating pieces (see ``docs/serving.md``):

* :mod:`~repro.serving.sanitize` — :class:`RequestSanitizer` turns
  hostile input (control characters, zero-width junk, kilobyte tokens)
  into clean bounded token sequences or structured
  :class:`InvalidRequest` errors;
* :mod:`~repro.serving.deadline` — :class:`Deadline` carries a
  monotonic-clock budget through the whole pipeline; :class:`ManualClock`
  makes every timing path deterministic in tests;
* :mod:`~repro.serving.breaker` — :class:`CircuitBreaker` trips on
  repeated Viterbi overruns/exceptions and half-opens after a cool-down;
* :mod:`~repro.serving.service` — :class:`TaggingService` wires it all
  together: bounded admission queue, length-sorted micro-batching,
  deadline-bounded decode with greedy degradation, quality-flagged
  :class:`TagResult` / :class:`Rejected` / :class:`Overloaded` results.

Above the single service sits the sharded fleet tier:

* :mod:`~repro.serving.routing` — :class:`HashRing` consistent-hash
  request routing with a deterministic fallback order;
* :mod:`~repro.serving.replica` — replica handles (forked worker
  process, or in-process on a virtual clock for deterministic tests);
* :mod:`~repro.serving.gateway` — :class:`ShardedGateway`: supervised
  replica fleet with per-replica circuit breakers, hedged retries,
  bounded shard queues, zero-loss failover and rolling reload, all
  accounted in a :class:`GatewayReport`;
* :mod:`~repro.serving.loadgen` — seeded open-/closed-loop load
  generation with a histogram-backed :class:`SLOReport`.

The CLI front-ends are ``repro tag``, ``repro serve``,
``repro loadgen`` and ``repro validate``; the corpus-side counterpart
is :mod:`repro.data.lint`.
"""

from repro.serving.breaker import (
    BREAKER_STATE_CODES,
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from repro.serving.deadline import Deadline, DeadlineExceeded, ManualClock
from repro.serving.gateway import (
    GatewayConfig,
    GatewayReport,
    GatewayStalled,
    RoutedResult,
    ShardedGateway,
)
from repro.serving.loadgen import SLOReport, run_load, synthetic_requests
from repro.serving.priority import (
    BATCH,
    INTERACTIVE,
    PRIORITIES,
    PRIORITY_RANK,
    STANDARD,
    assign_priorities,
    parse_priority_mix,
)
from repro.serving.routing import HashRing, request_key
from repro.serving.sanitize import (
    InvalidRequest,
    RequestSanitizer,
    SanitizedRequest,
    SanitizerConfig,
)
from repro.serving.service import (
    Expired,
    Overloaded,
    Rejected,
    ServiceConfig,
    TaggingService,
    TagResult,
)

__all__ = [
    "CircuitBreaker",
    "BREAKER_STATE_CODES",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "HashRing",
    "request_key",
    "ShardedGateway",
    "GatewayConfig",
    "GatewayReport",
    "GatewayStalled",
    "RoutedResult",
    "SLOReport",
    "run_load",
    "synthetic_requests",
    "Deadline",
    "DeadlineExceeded",
    "ManualClock",
    "InvalidRequest",
    "RequestSanitizer",
    "SanitizedRequest",
    "SanitizerConfig",
    "Expired",
    "Overloaded",
    "Rejected",
    "ServiceConfig",
    "TaggingService",
    "TagResult",
    "INTERACTIVE",
    "STANDARD",
    "BATCH",
    "PRIORITIES",
    "PRIORITY_RANK",
    "parse_priority_mix",
    "assign_priorities",
]
