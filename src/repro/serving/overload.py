"""Adaptive overload control for the serving fleet.

Four cooperating mechanisms, all deterministic and clock-injectable:

- **Priority classes** — every request carries one of ``interactive`` >
  ``standard`` > ``batch``.  Admission and shedding are weighted: when
  something must go, the lowest-priority, freshest work goes first.
- **CoDel queue discipline** (:class:`CoDelController`) — sheds by queue
  *staleness* (sojourn time above a target for a full interval) rather
  than only by depth, with the classic sqrt-law drop cadence.
- **AIMD concurrency limiter** (:class:`AIMDLimiter`) — per-replica
  in-flight cap grown additively on success and cut multiplicatively on
  observed congestion (deadline misses, sheds).
- **Retry budget** (:class:`RetryBudget`) — a token bucket fed by a
  fraction of recent successes; hedged retries are denied when the
  bucket is empty, failover reroutes overdraw it (zero-loss guarantee
  wins, but the overdraw is counted).
- **Brownout ladder** (:class:`BrownoutLadder`) — a single pressure
  level driven by a hysteresis controller on the deadline-miss rate.
  Each priority class maps the level to a serving mode: full Viterbi →
  greedy → shed.  Batch degrades first, interactive last; recovery steps
  down one level per clean interval streak.

Everything in this module is pure bookkeeping over an injected
monotonic clock — no threads, no wall-clock reads — so overload
behaviour is exactly reproducible under ``ManualClock``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .deadline import Clock

# --------------------------------------------------------------------------
# Priority classes
# --------------------------------------------------------------------------

INTERACTIVE = "interactive"
STANDARD = "standard"
BATCH = "batch"

#: Highest to lowest priority.
PRIORITIES = (INTERACTIVE, STANDARD, BATCH)

#: Rank 0 is the most important class.
PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITIES)}


def validate_priority(priority: str) -> str:
    if priority not in PRIORITY_RANK:
        raise ValueError(
            f"unknown priority {priority!r}; expected one of {PRIORITIES}")
    return priority


def parse_priority_mix(spec: str) -> Dict[str, float]:
    """Parse ``"interactive=0.2,standard=0.5,batch=0.3"`` into weights.

    Weights need not sum to one; they are normalised at assignment time.
    Omitted classes get weight zero.
    """
    mix = {name: 0.0 for name in PRIORITIES}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad priority-mix entry {part!r}; want name=weight")
        name, raw = part.split("=", 1)
        name = validate_priority(name.strip())
        weight = float(raw)
        if weight < 0:
            raise ValueError(f"priority weight must be >= 0, got {weight}")
        mix[name] = weight
    if not any(mix.values()):
        raise ValueError(f"priority mix {spec!r} has no positive weight")
    return mix


def assign_priorities(n: int, mix: Dict[str, float], seed: int = 0) -> List[str]:
    """Deterministically assign ``n`` priorities according to ``mix``.

    Uses largest-remainder apportionment followed by a seeded shuffle so
    the class counts are exact for the mix and the interleaving is
    reproducible.
    """
    import numpy as np

    total = sum(mix.get(name, 0.0) for name in PRIORITIES)
    if n <= 0 or total <= 0:
        return []
    ideal = {name: n * mix.get(name, 0.0) / total for name in PRIORITIES}
    counts = {name: int(math.floor(ideal[name])) for name in PRIORITIES}
    remainder = n - sum(counts.values())
    by_frac = sorted(PRIORITIES, key=lambda p: ideal[p] - counts[p], reverse=True)
    for name in by_frac[:remainder]:
        counts[name] += 1
    assigned: List[str] = []
    for name in PRIORITIES:
        assigned.extend([name] * counts[name])
    generator = np.random.default_rng((seed, 6173))
    generator.shuffle(assigned)
    return assigned


# --------------------------------------------------------------------------
# Brownout modes
# --------------------------------------------------------------------------

MODE_FULL = "full"
MODE_GREEDY = "greedy"
MODE_SHED = "shed"

#: Serving modes from best fidelity to none.
MODES = (MODE_FULL, MODE_GREEDY, MODE_SHED)

#: Ladder steps between adjacent priority classes: batch reaches ``shed``
#: before standard leaves ``full``.  A class is shed from its second step
#: on, so this is one more than ``len(MODES) - 1``: the spare step keeps
#: ``MAX_PRESSURE`` at 9, which fixes how many miss-rate windows the
#: ladder takes to escalate and to recover (the ``overload-storm`` chaos
#: scenario depends on that timing).
STEPS_PER_CLASS = 3

#: Highest ladder level (9); interactive traffic is shed from level 8.
MAX_PRESSURE = STEPS_PER_CLASS * len(PRIORITIES)


def mode_for(pressure: int, priority: str) -> str:
    """Map a ladder pressure level to the serving mode for ``priority``.

    Lower-priority classes absorb pressure first: at a given level the
    mode index for a class is the pressure minus a head start of
    ``STEPS_PER_CLASS`` per class above it.
    """
    rank = PRIORITY_RANK[validate_priority(priority)]
    head_start = STEPS_PER_CLASS * (len(PRIORITIES) - 1 - rank)
    index = max(0, min(len(MODES) - 1, pressure - head_start))
    return MODES[index]


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OverloadConfig:
    """Tuning knobs for the overload-control layer.

    Attaching an instance to ``ServiceConfig.overload`` /
    ``GatewayConfig.overload`` switches the layer on; ``None`` keeps the
    legacy binary behaviour bit-for-bit.
    """

    #: CoDel: sojourn time a queued request may accumulate before the
    #: queue is considered standing.
    codel_target_ms: float = 50.0
    #: CoDel: how long sojourn must stay above target before drops start.
    codel_interval_ms: float = 500.0
    #: Brownout ladder: tumbling window over which miss rate is measured.
    ladder_interval_ms: float = 250.0
    #: Escalate one ladder level when the windowed miss rate reaches this.
    escalate_miss_rate: float = 0.5
    #: A window is "clean" (counts toward recovery) below this miss rate.
    recover_miss_rate: float = 0.1
    #: Consecutive clean windows required to step down one level.
    recover_intervals: int = 2
    #: AIMD: hard floor/ceiling and starting value for per-replica inflight.
    min_inflight: int = 1
    max_inflight: int = 64
    initial_inflight: int = 8
    #: AIMD: multiplicative backoff factor on congestion.
    backoff_ratio: float = 0.7
    #: AIMD: at most one multiplicative cut per this many milliseconds.
    backoff_cooldown_ms: float = 100.0
    #: Retry budget: tokens deposited per observed success.
    retry_ratio: float = 0.1
    #: Retry budget: starting balance (lets a cold fleet hedge at all).
    retry_floor: float = 1.0
    #: Retry budget: balance ceiling.
    retry_cap: float = 10.0

    def __post_init__(self) -> None:
        if self.codel_target_ms <= 0 or self.codel_interval_ms <= 0:
            raise ValueError("CoDel target and interval must be positive")
        if self.ladder_interval_ms <= 0:
            raise ValueError("ladder interval must be positive")
        if not 0 < self.escalate_miss_rate <= 1:
            raise ValueError("escalate_miss_rate must be in (0, 1]")
        if not 0 <= self.recover_miss_rate < self.escalate_miss_rate:
            raise ValueError(
                "recover_miss_rate must be in [0, escalate_miss_rate)")
        if self.recover_intervals < 1:
            raise ValueError("recover_intervals must be >= 1")
        if not 1 <= self.min_inflight <= self.initial_inflight <= self.max_inflight:
            raise ValueError(
                "need 1 <= min_inflight <= initial_inflight <= max_inflight")
        if not 0 < self.backoff_ratio < 1:
            raise ValueError("backoff_ratio must be in (0, 1)")
        if not 0 < self.retry_ratio <= 1:
            raise ValueError("retry_ratio must be in (0, 1]")
        if self.retry_floor < 0 or self.retry_cap < self.retry_floor:
            raise ValueError("need 0 <= retry_floor <= retry_cap")


# --------------------------------------------------------------------------
# CoDel queue discipline
# --------------------------------------------------------------------------


class CoDelController:
    """Controlled-delay drop decisions over an injected clock.

    ``offer(sojourn_ms)`` is called with the head-of-queue sojourn at
    each dequeue opportunity and returns True when a request should be
    shed.  Drops begin only after sojourn has exceeded the target for a
    full interval, then recur on the ``interval / sqrt(count)`` cadence
    until sojourn falls back under the target.
    """

    def __init__(self, target_ms: float, interval_ms: float,
                 clock: Clock = time.monotonic) -> None:
        self.target_ms = float(target_ms)
        self._interval_s = float(interval_ms) / 1000.0
        self._clock = clock
        self._first_above: Optional[float] = None
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0
        self.drops = 0

    @property
    def dropping(self) -> bool:
        return self._dropping

    def offer(self, sojourn_ms: float) -> bool:
        """Return True if the request observed with this sojourn should drop."""
        now = self._clock()
        if sojourn_ms < self.target_ms:
            self._first_above = None
            self._dropping = False
            return False
        if self._first_above is None:
            self._first_above = now + self._interval_s
            return False
        if self._dropping:
            if now >= self._drop_next:
                self._drop_count += 1
                self._drop_next = now + self._interval_s / math.sqrt(self._drop_count)
                self.drops += 1
                return True
            return False
        if now >= self._first_above:
            self._dropping = True
            self._drop_count = 1
            self._drop_next = now + self._interval_s / math.sqrt(self._drop_count)
            self.drops += 1
            return True
        return False


# --------------------------------------------------------------------------
# AIMD concurrency limiter
# --------------------------------------------------------------------------


class AIMDLimiter:
    """Additive-increase / multiplicative-decrease in-flight limit."""

    def __init__(self, config: OverloadConfig, clock: Clock = time.monotonic) -> None:
        self._config = config
        self._clock = clock
        self._limit = float(config.initial_inflight)
        self._cooldown_s = config.backoff_cooldown_ms / 1000.0
        self._last_backoff = -math.inf
        self.backoffs = 0

    @property
    def limit(self) -> int:
        """Current integer in-flight cap."""
        return int(self._limit)

    def on_success(self) -> None:
        self._limit = min(float(self._config.max_inflight),
                          self._limit + 1.0 / max(self._limit, 1.0))

    def on_congestion(self) -> None:
        now = self._clock()
        if now - self._last_backoff < self._cooldown_s:
            return
        self._last_backoff = now
        self._limit = max(float(self._config.min_inflight),
                          self._limit * self._config.backoff_ratio)
        self.backoffs += 1


# --------------------------------------------------------------------------
# Retry budget
# --------------------------------------------------------------------------


class RetryBudget:
    """Token bucket capping retry volume at a fraction of successes.

    Hedged retries call ``try_spend()`` and are denied on an empty
    bucket.  Failover reroutes call ``try_spend(forced=True)``: the
    zero-loss guarantee means the reroute always proceeds, but the
    overdraw is recorded so the ledger still balances.
    """

    def __init__(self, ratio: float, floor: float = 1.0,
                 cap: float = 10.0) -> None:
        self.ratio = float(ratio)
        self.cap = float(cap)
        self.balance = float(floor)
        self.granted = 0
        self.denied = 0
        self.forced = 0

    def on_success(self) -> None:
        self.balance = min(self.cap, self.balance + self.ratio)

    def try_spend(self, forced: bool = False) -> bool:
        if self.balance >= 1.0:
            self.balance -= 1.0
            self.granted += 1
            return True
        if forced:
            self.balance = 0.0
            self.forced += 1
            return True
        self.denied += 1
        return False

    def snapshot(self) -> Dict[str, float]:
        return {"balance": round(self.balance, 4), "granted": self.granted,
                "denied": self.denied, "forced": self.forced}


# --------------------------------------------------------------------------
# Brownout ladder
# --------------------------------------------------------------------------


class BrownoutLadder:
    """Hysteresis controller mapping deadline-miss pressure to modes.

    Outcomes are observed into a tumbling window of ``ladder_interval_ms``;
    when the window closes, the miss rate either escalates pressure by
    one, counts toward a recovery streak, or resets the streak.  Recovery
    needs ``recover_intervals`` consecutive clean windows per step, so
    the ladder never flaps level-to-level on a single good window.
    """

    def __init__(self, config: OverloadConfig, clock: Clock = time.monotonic,
                 on_transition: Optional[Callable[[int, int, float], None]] = None,
                 ) -> None:
        self._config = config
        self._clock = clock
        self._on_transition = on_transition
        self._interval_s = config.ladder_interval_ms / 1000.0
        self._window_start = clock()
        self._observed = 0
        self._misses = 0
        self._clean_streak = 0
        self.pressure = 0
        self.max_pressure = 0
        self.transitions = 0

    def mode(self, priority: str) -> str:
        return mode_for(self.pressure, priority)

    def observe(self, miss: bool) -> None:
        """Record one request outcome and roll the window if it closed."""
        self._observed += 1
        if miss:
            self._misses += 1
        self._evaluate()

    def tick(self) -> None:
        """Advance window bookkeeping without an outcome (idle recovery)."""
        self._evaluate()

    def _evaluate(self) -> None:
        now = self._clock()
        if now - self._window_start < self._interval_s:
            return
        miss_rate = self._misses / self._observed if self._observed else 0.0
        self._window_start = now
        self._observed = 0
        self._misses = 0
        if miss_rate >= self._config.escalate_miss_rate:
            self._clean_streak = 0
            self._set_pressure(self.pressure + 1, miss_rate)
        elif miss_rate <= self._config.recover_miss_rate:
            self._clean_streak += 1
            if self._clean_streak >= self._config.recover_intervals:
                self._clean_streak = 0
                self._set_pressure(self.pressure - 1, miss_rate)
        else:
            self._clean_streak = 0

    def _set_pressure(self, pressure: int, miss_rate: float) -> None:
        pressure = max(0, min(MAX_PRESSURE, pressure))
        if pressure == self.pressure:
            return
        old = self.pressure
        self.pressure = pressure
        self.max_pressure = max(self.max_pressure, pressure)
        self.transitions += 1
        if self._on_transition is not None:
            try:
                self._on_transition(old, pressure, miss_rate)
            except Exception:  # pragma: no cover - observers must not break control
                pass

    def snapshot(self) -> Dict[str, object]:
        return {
            "level": self.pressure,
            "max_level": self.max_pressure,
            "transitions": self.transitions,
            "modes": {name: self.mode(name) for name in PRIORITIES},
        }


def deadline_missed(result: object) -> bool:
    """True when a service result indicates its deadline was blown.

    Used as the congestion signal feeding the AIMD limiter and the
    brownout ladder: overruns, deadline-degraded answers, and requests
    that expired before decode all count; plain sheds and brownout
    degradations do not (they are the *response* to congestion).
    """
    status = getattr(result, "status", "")
    if status == "expired":
        return True
    note = getattr(result, "note", "") or ""
    return "deadline" in note or "overran" in note
