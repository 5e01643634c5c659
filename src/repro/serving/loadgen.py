"""Load generation and latency SLO reporting for the serving gateway.

Two textbook arrival models, both fully seeded:

* **open** — requests arrive on a Poisson process at ``rate_rps``
  (exponential inter-arrivals), independent of how fast the system
  answers.  This is what real user traffic looks like: a slow fleet
  does not slow the arrivals down, it grows the queues — so open-loop
  numbers expose queueing collapse that closed-loop runs hide
  (coordinated omission).
* **closed** — a fixed population of ``concurrency`` virtual clients,
  each submitting its next request only after its previous one
  completed.  This is the classic benchmark loop; throughput is
  self-clocked by the system under test.

Latency is accounted through a :class:`repro.obs.metrics.Histogram`
with the shared fixed :data:`~repro.obs.metrics.LATENCY_MS_BUCKETS`
bounds, and the p50/p95/p99 in the :class:`SLOReport` are read from the
histogram's cumulative bucket counts (Prometheus-style upper-bound
quantiles) — deterministic for a given run, byte-identical across
re-runs of the same seed on the in-process backend.

The CLI front-end is ``repro loadgen`` (see ``docs/cli.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.obs.metrics import (
    LATENCY_MS_BUCKETS,
    Histogram,
    histogram_quantile,
)

#: Default token pool for synthetic traffic: common-ish words plus
#: novel-entity-shaped tokens, so requests mix in-vocabulary and OOV.
_DEFAULT_POOL = (
    "the", "a", "of", "in", "visited", "reports", "arrived", "today",
    "yesterday", "company", "river", "city", "Kavox", "Zuqev", "Mirelle",
    "Tordan", "Quibex", "Halvern",
)


def synthetic_requests(n: int, seed: int = 0,
                       pool: tuple[str, ...] = _DEFAULT_POOL,
                       min_len: int = 2, max_len: int = 9) -> list[list[str]]:
    """``n`` seeded synthetic token sequences drawn from ``pool``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng((seed, 9341))
    out = []
    for _ in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        out.append([pool[int(i)] for i in rng.integers(0, len(pool), length)])
    return out


@dataclass(frozen=True)
class SLOReport:
    """Latency/throughput digest of one load-generation run."""

    model: str                 #: "open" or "closed"
    offered: int               #: requests the generator submitted
    completed: int             #: answered with a served result
    shed: int                  #: backpressured at gateway admission
    rejected: int              #: invalid input (sanitizer)
    degraded: int              #: served by the greedy fallback
    duration_s: float
    throughput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    #: Raw bucket snapshot backing the quantiles.
    histogram: dict
    #: Requests whose deadline was spent before decode (``Expired``).
    expired: int = 0
    #: Per-priority-class breakdown (only when the run carried
    #: priorities): class → offered/completed/shed/expired/degraded,
    #: p50/p95/p99, shed_rate, degraded_rate.
    per_priority: dict | None = None

    def summary(self) -> dict:
        out = {
            "model": self.model,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "expired": self.expired,
            "duration_s": round(self.duration_s, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": round(self.mean_ms, 3),
        }
        if self.per_priority is not None:
            out["per_priority"] = self.per_priority
        return out

    def render(self) -> str:
        def ms(v: float) -> str:
            return "inf" if v == float("inf") else f"{v:g}"

        lines = [
            f"load report ({self.model} loop)",
            f"  offered {self.offered}, completed {self.completed}, "
            f"shed {self.shed}, rejected {self.rejected}, "
            f"degraded {self.degraded}, expired {self.expired}",
            f"  duration {self.duration_s:.3f} s, "
            f"throughput {self.throughput_rps:.1f} req/s",
            f"  latency p50 <= {ms(self.p50_ms)} ms, "
            f"p95 <= {ms(self.p95_ms)} ms, p99 <= {ms(self.p99_ms)} ms "
            f"(mean {self.mean_ms:.3f} ms)",
        ]
        for name, stats in (self.per_priority or {}).items():
            lines.append(
                f"  [{name}] offered {stats['offered']}, "
                f"completed {stats['completed']}, "
                f"shed {stats['shed']} ({stats['shed_rate']:.1%}), "
                f"degraded {stats['degraded']} "
                f"({stats['degraded_rate']:.1%}), "
                f"p50 <= {ms(stats['p50_ms'])} ms, "
                f"p95 <= {ms(stats['p95_ms'])} ms, "
                f"p99 <= {ms(stats['p99_ms'])} ms"
            )
        return "\n".join(lines)


def _classify(result) -> str:
    status = getattr(result, "status", "?")
    if status == "ok":
        return "degraded" if getattr(result, "degraded", False) else "ok"
    if status in ("rejected", "invalid"):
        return "rejected"
    if status == "expired":
        return "expired"
    return "shed"  # Overloaded: gateway admission or replica queue


def run_load(gateway, requests, model: str = "open",
             rate_rps: float = 200.0, concurrency: int = 8,
             seed: int = 0, timeout_s: float | None = 60.0,
             priorities=None) -> SLOReport:
    """Drive ``gateway`` with ``requests`` under one arrival model.

    ``gateway`` needs the :class:`~repro.serving.gateway.ShardedGateway`
    surface (``submit`` / ``pump`` / ``collect`` / ``clock`` /
    ``outstanding``).  On a manual clock the generator *advances* time
    instead of sleeping, so open-loop schedules are exact and tests are
    instant.  ``priorities`` (one class per request, e.g. from
    :func:`repro.serving.priority.assign_priorities`) attaches priority
    classes and switches on the per-class breakdown in the report.
    Returns the :class:`SLOReport`; per-request latencies are also
    mirrored into the active telemetry session as the
    ``loadgen.latency_ms`` histogram.
    """
    if model not in ("open", "closed"):
        raise ValueError(f"model must be 'open' or 'closed', got {model!r}")
    if model == "open" and rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    if model == "closed" and concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    requests = [list(r) for r in requests]
    n = len(requests)
    if priorities is not None and len(priorities) != n:
        raise ValueError(
            f"priorities ({len(priorities)}) must match requests ({n})"
        )
    clock = gateway.clock
    manual = hasattr(clock, "advance")
    poll_s = getattr(gateway.config, "poll_interval_s", 0.002)
    hist = Histogram("loadgen.latency_ms", LATENCY_MS_BUCKETS)
    outcomes = {"ok": 0, "degraded": 0, "rejected": 0, "shed": 0,
                "expired": 0}
    per: dict[str, dict] | None = None
    ticket_priority: dict[int, str] = {}
    if priorities is not None:
        per = {}
        for name in priorities:
            if name not in per:
                per[name] = {
                    "offered": 0, "completed": 0, "shed": 0,
                    "expired": 0, "degraded": 0, "rejected": 0,
                    "hist": Histogram(f"loadgen.latency_ms.{name}",
                                      LATENCY_MS_BUCKETS),
                }
    t_wall0 = time.monotonic()
    t0 = clock()

    def wait(dt: float) -> None:
        if dt <= 0:
            return
        if manual:
            clock.advance(dt)
        else:
            time.sleep(dt)

    def offer(index: int) -> None:
        if priorities is None:
            gateway.submit(requests[index])
            return
        name = priorities[index]
        ticket = gateway.submit(requests[index], priority=name)
        ticket_priority[ticket] = name
        per[name]["offered"] += 1

    def absorb() -> int:
        got = 0
        for ticket, routed in gateway.collect().items():
            got += 1
            kind = _classify(routed.result)
            outcomes[kind] += 1
            if routed.replica is not None:
                trace = getattr(routed, "trace", None)
                hist.observe(routed.latency_ms, trace_id=trace)
                obs.observe("loadgen.latency_ms", routed.latency_ms,
                            trace_id=trace)
            if per is not None and ticket in ticket_priority:
                stats = per[ticket_priority.pop(ticket)]
                if kind in ("ok", "degraded"):
                    stats["completed"] += 1
                    if kind == "degraded":
                        stats["degraded"] += 1
                else:
                    stats[kind] += 1
                if routed.replica is not None:
                    stats["hist"].observe(routed.latency_ms,
                                          trace_id=trace)
        return got

    submitted = 0
    done = 0
    if model == "open":
        rng = np.random.default_rng((seed, 4721))
        arrivals = t0 + np.cumsum(rng.exponential(1.0 / rate_rps, size=n))
        while done < n:
            now = clock()
            while submitted < n and arrivals[submitted] <= now:
                offer(submitted)
                submitted += 1
            gateway.pump()
            done += absorb()
            if done >= n:
                break
            if timeout_s is not None and time.monotonic() - t_wall0 > timeout_s:
                break
            if submitted < n:
                wait(min(poll_s, max(0.0, arrivals[submitted] - clock())))
            else:
                wait(poll_s)
    else:
        while done < n:
            while submitted < n and (submitted - done) < concurrency:
                offer(submitted)
                submitted += 1
            gateway.pump()
            delivered = absorb()
            done += delivered
            if done >= n:
                break
            if timeout_s is not None and time.monotonic() - t_wall0 > timeout_s:
                break
            if not delivered:
                wait(poll_s)

    duration = max(clock() - t0, 1e-9)
    completed = outcomes["ok"] + outcomes["degraded"]
    per_priority = None
    if per is not None:
        per_priority = {}
        for name, stats in per.items():
            offered = stats["offered"]
            class_hist = stats.pop("hist")
            per_priority[name] = {
                **stats,
                "shed_rate": stats["shed"] / offered if offered else 0.0,
                "degraded_rate": (stats["degraded"] / offered
                                  if offered else 0.0),
                "p50_ms": histogram_quantile(class_hist, 0.50),
                "p95_ms": histogram_quantile(class_hist, 0.95),
                "p99_ms": histogram_quantile(class_hist, 0.99),
            }
    return SLOReport(
        model=model,
        offered=submitted,
        completed=completed,
        shed=outcomes["shed"],
        rejected=outcomes["rejected"],
        degraded=outcomes["degraded"],
        expired=outcomes["expired"],
        duration_s=duration,
        throughput_rps=done / duration,
        p50_ms=histogram_quantile(hist, 0.50),
        p95_ms=histogram_quantile(hist, 0.95),
        p99_ms=histogram_quantile(hist, 0.99),
        mean_ms=hist.mean,
        histogram=hist.snapshot(),
        per_priority=per_priority,
    )
