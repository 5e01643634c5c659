"""Aggregate a telemetry JSONL stream into a run report.

:func:`load_events` reads a stream written by :class:`~repro.obs.Telemetry`
(tolerating a torn final line from a crashed run), :func:`build_report`
folds it into a JSON-ready dict, and :func:`render_report` formats that
dict for terminals.  This backs the ``repro obs report`` CLI verb.

The report sections:

* **phases** — wall-time totals per span name, with the paper-relevant
  trio (encode / inner_loop / decode) broken out as percentages of
  their combined time;
* **executor** — retry/quarantine/error/pool-restart/refund counters
  from ``evaluate_method``'s parallel path;
* **cache** — adaptation-cache hit rate;
* **metrics** — the final merged counter/gauge/histogram snapshot;
* **events** — non-span events (breaker transitions, guard anomalies,
  checkpoint activity) rendered through the one formatting path.
"""

from __future__ import annotations

import json
import os

from repro.obs.events import (
    SCHEMA_MAJOR,
    SCHEMA_VERSION,
    render_event,
    sibling_paths,
)
from repro.obs.reqtrace import HOP_ORDER, TERMINAL_HOPS, TRACE_EVENT

#: Span names that make up the per-episode adaptation pipeline.
PHASE_NAMES = ("encode", "inner_loop", "decode")

#: Internal tag marking which sibling file a record came from.
_SOURCE_KEY = "_source"


class SchemaVersionError(ValueError):
    """A telemetry stream was written by an incompatibly newer repro."""


def check_schema(records: list[dict]) -> None:
    """Refuse streams written with a future-major telemetry schema.

    Streams without a ``schema_version`` predate versioning and are
    read as 1.0.  Minor bumps are additive and accepted; a major bump
    means the record shapes changed incompatibly, so reading on would
    silently mis-aggregate — raise with a clear upgrade message
    instead.
    """
    for record in records:
        if record.get("kind") != "session":
            continue
        version = record.get("schema_version")
        if version is None:
            continue
        try:
            major = int(str(version).split(".", 1)[0])
        except ValueError:
            raise SchemaVersionError(
                f"unrecognized telemetry schema_version {version!r} "
                f"(this build reads schema {SCHEMA_VERSION})"
            ) from None
        if major > SCHEMA_MAJOR:
            source = record.get(_SOURCE_KEY) or "this stream"
            raise SchemaVersionError(
                f"{source} was written with telemetry schema {version}; "
                f"this build reads schema major {SCHEMA_MAJOR} "
                f"({SCHEMA_VERSION}) — upgrade repro to read it"
            )


def _load_one(path: str, source: str | None) -> list[dict]:
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a crashed writer
            if isinstance(record, dict):
                if source is not None:
                    record[_SOURCE_KEY] = source
                records.append(record)
    return records


def load_events(path: str, include_siblings: bool = True) -> list[dict]:
    """Read a telemetry JSONL file, skipping torn/blank lines.

    With ``include_siblings`` (the default) the per-replica and
    per-fork sibling files a fleet run leaves next to ``path``
    (``<path>.replica-<id>``, ``<path>.fork-<pid>``) are read too, so
    one ``repro obs report`` aggregates the whole fleet.  Each record
    is tagged with its source file so metrics snapshots from different
    processes are *summed*, never overwritten.
    """
    paths = sibling_paths(path) if include_siblings else [path]
    if not paths:
        paths = [path]  # let open() raise the natural error
    records: list[dict] = []
    for p in paths:
        # Single-stream loads stay byte-for-byte round-trippable; only
        # a genuine fleet merge tags records with their source file.
        source = os.path.basename(p) if len(paths) > 1 else None
        records.extend(_load_one(p, source=source))
    return records


def _merge_metrics(records: list[dict]) -> dict:
    """Fold metrics snapshots into one fleet-wide view.

    Within one source file, a later snapshot supersedes an earlier one
    (snapshots are cumulative).  *Across* source files the final
    snapshots describe different processes, so counters and histogram
    tallies are summed; gauges are point-in-time values and keep the
    last writer's reading.
    """
    finals: dict[str, dict] = {}
    order: list[str] = []
    for record in records:
        if record.get("kind") != "metrics":
            continue
        source = record.get(_SOURCE_KEY, "")
        if source not in finals:
            order.append(source)
        finals[source] = record
    merged = {"counters": {}, "gauges": {}, "histograms": {}}
    for source in order:
        record = finals[source]
        for name, value in record.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["gauges"].update(record.get("gauges", {}))
        for name, snap in record.get("histograms", {}).items():
            have = merged["histograms"].get(name)
            if have is None or have.get("buckets") != snap.get("buckets"):
                merged["histograms"][name] = {
                    "buckets": list(snap.get("buckets", [])),
                    "counts": list(snap.get("counts", [])),
                    "count": snap.get("count", 0),
                    "sum": snap.get("sum", 0.0),
                }
            else:
                have["counts"] = [a + b for a, b in
                                  zip(have["counts"], snap.get("counts", []))]
                have["count"] += snap.get("count", 0)
                have["sum"] = round(have["sum"] + snap.get("sum", 0.0), 6)
            _merge_exemplars(merged["histograms"][name], snap)
    return merged


def _merge_exemplars(have: dict, snap: dict) -> None:
    """Keep, per bucket, the exemplar with the largest sample value."""
    exemplars = snap.get("exemplars")
    if not exemplars:
        return
    merged = have.setdefault("exemplars", {})
    for bucket, entry in exemplars.items():
        current = merged.get(bucket)
        if current is None or entry.get("value", 0.0) >= current.get("value", 0.0):
            merged[bucket] = dict(entry)


# ----------------------------------------------------------------------
# Trace assembly: stitch per-hop records from all sibling streams back
# into one cross-process timeline per trace id.


def assemble_traces(records: list[dict]) -> list[dict]:
    """Stitch ``trace.hop`` records into per-trace timelines.

    Sibling streams have *independent* clocks (each process measures
    ``t`` from its own session start), so hops are ordered by the causal
    hop taxonomy (``HOP_ORDER``), then source file, then in-file
    position — never by comparing ``t`` across files.  The result is
    sorted by trace id and fully deterministic for a seeded run.

    Each entry carries ``rooted`` (the trace starts at an admission or
    an admission-time drop), ``terminal`` (the hop that ended it, or
    ``None`` if it was still in flight when the stream stopped) and
    ``complete`` (rooted *and* terminated — no gaps at either end).
    """
    traces: dict[str, dict] = {}
    for index, record in enumerate(records):
        if record.get("kind") != "event" or record.get("name") != TRACE_EVENT:
            continue
        trace_id = record.get("trace")
        if not isinstance(trace_id, str):
            continue
        entry = traces.setdefault(
            trace_id,
            {"trace": trace_id, "ticket": None, "hops": [], "sources": set()},
        )
        hop = {key: value for key, value in record.items()
               if key not in ("kind", "name")}
        hop["source"] = hop.pop(_SOURCE_KEY, "") or ""
        hop["_index"] = index
        entry["hops"].append(hop)
        entry["sources"].add(hop["source"])
        if entry["ticket"] is None and hop.get("ticket") is not None:
            entry["ticket"] = hop["ticket"]

    out: list[dict] = []
    unknown = len(HOP_ORDER)
    for trace_id in sorted(traces):
        entry = traces[trace_id]
        entry["hops"].sort(key=lambda h: (
            HOP_ORDER.get(h.get("hop"), unknown), h["source"], h["_index"]
        ))
        for hop in entry["hops"]:
            del hop["_index"]
        entry["sources"] = sorted(entry["sources"])
        names = [h.get("hop") for h in entry["hops"]]
        entry["rooted"] = ("admit" in names
                           or (bool(names) and names[0] in TERMINAL_HOPS))
        entry["terminal"] = next(
            (n for n in reversed(names) if n in TERMINAL_HOPS), None
        )
        entry["complete"] = bool(entry["rooted"] and entry["terminal"])
        out.append(entry)
    return out


def find_traces(traces: list[dict], needle: str) -> list[dict]:
    """Traces whose id matches ``needle`` exactly or by prefix."""
    exact = [t for t in traces if t["trace"] == needle]
    if exact:
        return exact
    return [t for t in traces if t["trace"].startswith(needle)]


def _trace_breakdown(trace: dict) -> dict:
    """Queue-wait / decode / delivery split along the critical path."""
    hops = trace["hops"]
    wait_ms = next((h.get("wait_ms") for h in hops
                    if h.get("hop") == "dispatch" and "wait_ms" in h), None)
    decode_values = [h["decode_ms"] for h in hops
                     if h.get("hop") == "decode" and "decode_ms" in h]
    decode_ms = max(decode_values) if decode_values else None
    total_ms = next((h["latency_ms"] for h in reversed(hops)
                     if h.get("hop") == "respond" and "latency_ms" in h), None)
    other_ms = None
    if total_ms is not None:
        other_ms = round(
            max(0.0, total_ms - (wait_ms or 0.0) - (decode_ms or 0.0)), 3
        )
    return {"queue_wait_ms": wait_ms, "decode_ms": decode_ms,
            "other_ms": other_ms, "total_ms": total_ms,
            "hedged": any(h.get("hop") == "hedge" for h in hops)}


def render_trace(trace: dict) -> str:
    """Format one assembled trace as a per-hop timeline for terminals."""
    status = ("complete" if trace.get("complete")
              else "orphan" if not trace.get("rooted") else "incomplete")
    ticket = trace.get("ticket")
    ticket_txt = f"ticket {ticket}" if ticket is not None else "ticket ?"
    sources = trace.get("sources", [])
    lines = [
        f"trace {trace['trace']} — {ticket_txt}, {status}, "
        f"{len(sources)} stream(s)"
    ]
    for hop in trace.get("hops", []):
        where = hop.get("source") or "main"
        extras = " ".join(
            f"{key}={hop[key]}" for key in sorted(hop)
            if key not in ("hop", "span", "trace", "source", "ticket", "t")
        )
        lines.append(f"  {hop.get('hop', '?'):<9} [{where}]"
                     + (f" {extras}" if extras else ""))
    breakdown = _trace_breakdown(trace)
    if breakdown["total_ms"] is not None:
        parts = [f"total {breakdown['total_ms']:.3f} ms"]
        if breakdown["queue_wait_ms"] is not None:
            parts.append(f"queue wait {breakdown['queue_wait_ms']:.3f} ms")
        if breakdown["decode_ms"] is not None:
            parts.append(f"decode {breakdown['decode_ms']:.3f} ms")
        if breakdown["other_ms"] is not None:
            parts.append(f"other {breakdown['other_ms']:.3f} ms")
        line = "  critical path: " + ", ".join(parts)
        if breakdown["hedged"]:
            line += " (hedged)"
        lines.append(line)
    return "\n".join(lines)


def build_report(records: list[dict]) -> dict:
    """Fold a list of telemetry records into an aggregated report dict.

    Raises :class:`SchemaVersionError` when any session header declares
    a future-major ``schema_version``.
    """
    check_schema(records)
    spans: dict[str, dict] = {}
    events: list[dict] = []
    sessions = 0
    sources = sorted({r[_SOURCE_KEY] for r in records if _SOURCE_KEY in r})
    for record in records:
        kind = record.get("kind")
        if kind == "span":
            name = record.get("name", "?")
            agg = spans.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0, "errors": 0}
            )
            dur = float(record.get("dur_s", 0.0))
            agg["count"] += 1
            agg["total_s"] += dur
            if dur > agg["max_s"]:
                agg["max_s"] = dur
            if record.get("status") == "error":
                agg["errors"] += 1
        elif kind == "event":
            if record.get("name") == TRACE_EVENT:
                continue  # hop records are aggregated into `traces`
            events.append({k: v for k, v in record.items()
                           if k != _SOURCE_KEY})
        elif kind == "session":
            sessions += 1

    for agg in spans.values():
        agg["total_s"] = round(agg["total_s"], 9)
        agg["max_s"] = round(agg["max_s"], 9)

    phase_total = sum(spans[p]["total_s"] for p in PHASE_NAMES if p in spans)
    phases = {}
    for name in PHASE_NAMES:
        if name not in spans:
            continue
        total = spans[name]["total_s"]
        phases[name] = {
            "total_s": total,
            "count": spans[name]["count"],
            "share_pct": round(100.0 * total / phase_total, 1) if phase_total else 0.0,
        }

    metrics = _merge_metrics(records)
    counters = metrics["counters"]
    executor = {
        "episodes": counters.get("executor.episodes", 0),
        "retried": counters.get("executor.retries", 0),
        "quarantined": counters.get("executor.quarantined", 0),
        "errors": counters.get("executor.errors", 0),
        "pool_restarts": counters.get("executor.pool_restarts", 0),
    }
    hits = counters.get("adaptation_cache.hit", 0)
    misses = counters.get("adaptation_cache.miss", 0)
    cache = {
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / (hits + misses), 4) if hits + misses else None,
    }
    gateway = {
        key: counters.get(f"gateway.{key}", 0)
        for key in ("admitted", "completed", "shed", "refunds", "hedges",
                    "hedges_won", "deaths", "wedges", "rebuilds", "reloads",
                    "breaker_transitions")
    }
    serving = {"expired": counters.get("serving.expired", 0)}
    traces = assemble_traces(records)
    trace_section = {
        "count": len(traces),
        "complete": sum(1 for t in traces if t["complete"]),
        "incomplete": sum(1 for t in traces
                          if t["rooted"] and not t["complete"]),
        "orphans": [t["trace"] for t in traces if not t["rooted"]][:8],
        "exemplars": _exemplar_links(metrics["histograms"]),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "sessions": sessions,
        "sources": sources,
        "spans": {name: spans[name] for name in sorted(spans)},
        "phases": phases,
        "executor": executor,
        "cache": cache,
        "gateway": gateway,
        "serving": serving,
        "traces": trace_section,
        "metrics": metrics,
        "events": events,
    }


def _exemplar_links(histograms: dict) -> dict:
    """Per histogram, the trace behind the slowest recorded sample."""
    links: dict[str, dict] = {}
    for name in sorted(histograms):
        exemplars = histograms[name].get("exemplars") or {}
        if not exemplars:
            continue
        top = max(exemplars, key=lambda bucket: int(bucket))
        entry = exemplars[top]
        links[name] = {"value": entry.get("value"),
                       "trace": entry.get("trace")}
    return links


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    return f"{seconds * 1000.0:.2f} ms"


def render_report(report: dict) -> str:
    """Format a :func:`build_report` dict for a terminal."""
    lines: list[str] = ["run report"]

    sources = report.get("sources", [])
    if len(sources) > 1:
        lines.append(f"  fleet run: merged {len(sources)} event streams")

    phases = report.get("phases", {})
    if phases:
        lines.append("  phase breakdown (encode / inner-loop / decode):")
        for name in PHASE_NAMES:
            if name not in phases:
                continue
            p = phases[name]
            lines.append(
                f"    {name:<11} {_fmt_seconds(p['total_s']):>10}"
                f"  {p['share_pct']:5.1f}%  ({p['count']} spans)"
            )

    other = {n: s for n, s in report.get("spans", {}).items()
             if n not in phases}
    if other:
        lines.append("  other spans:")
        for name in sorted(other):
            s = other[name]
            err = f", {s['errors']} errors" if s.get("errors") else ""
            lines.append(
                f"    {name:<16} {_fmt_seconds(s['total_s']):>10}"
                f"  ({s['count']} spans{err})"
            )

    executor = report.get("executor", {})
    if executor.get("episodes"):
        lines.append(
            "  executor: {episodes} episodes — retried {retried}, "
            "quarantined {quarantined}, errors {errors}, "
            "pool restarts {pool_restarts}".format(**executor)
        )

    gateway = report.get("gateway", {})
    if gateway.get("admitted"):
        lines.append(
            "  gateway: {admitted} admitted, {completed} completed, "
            "{shed} shed — hedges {hedges} ({hedges_won} won), "
            "deaths {deaths}, wedges {wedges}, rebuilds {rebuilds}, "
            "refunds {refunds}, reloads {reloads}, "
            "breaker transitions {breaker_transitions}".format(**gateway)
        )

    expired = report.get("serving", {}).get("expired")
    if expired:
        lines.append(f"  serving: {expired} expired before decode")

    cache = report.get("cache", {})
    if cache.get("hit_rate") is not None:
        lines.append(
            f"  adaptation cache: {cache['hits']} hits / {cache['misses']} misses"
            f" (hit rate {100.0 * cache['hit_rate']:.1f}%)"
        )

    gauges = report.get("metrics", {}).get("gauges", {})
    if "tape.max_nodes_per_backward" in gauges:
        lines.append(
            f"  tape: max {int(gauges['tape.max_nodes_per_backward'])} nodes/backward"
            f", peak live {int(gauges.get('tape.peak_live_bytes', 0))} bytes"
        )

    traces = report.get("traces", {})
    if traces.get("count"):
        orphans = traces.get("orphans", [])
        lines.append(
            f"  traces: {traces['count']} assembled — "
            f"{traces.get('complete', 0)} complete, "
            f"{traces.get('incomplete', 0)} incomplete, "
            f"{len(orphans)} orphan"
        )
        for name, link in sorted(traces.get("exemplars", {}).items()):
            lines.append(
                f"    slowest {name}: {link.get('value', 0.0):.3f} ms "
                f"-> trace {link.get('trace', '?')}"
            )

    histograms = report.get("metrics", {}).get("histograms", {})
    for name in sorted(histograms):
        h = histograms[name]
        if not h.get("count"):
            continue
        mean = h["sum"] / h["count"]
        lines.append(f"  {name}: n={h['count']}, mean={mean:.3f}")

    # Healthy per-episode events are already aggregated into the
    # executor counters; rendering them individually would drown the
    # report, so only eventful ones (retries, failures) are listed.
    def notable(record: dict) -> bool:
        if record.get("name") != "episode":
            return True
        return record.get("outcome") != "ok" or record.get("attempts", 1) > 1

    events = [r for r in report.get("events", []) if notable(r)]
    if events:
        lines.append("  events:")
        for record in events:
            lines.append(f"    {render_event(record)}")

    if len(lines) == 1:
        lines.append("  (no telemetry records)")
    return "\n".join(lines)
