"""Event sinks and the single human-readable formatting path.

Two sinks implement the same tiny protocol (``write(record)``,
``close()``):

* :class:`JsonlSink` — appends one JSON object per line, flushing each
  write so a crashed run still leaves a readable (at worst torn-tail)
  stream.  Fork-safe in two modes: ``on_fork="drop"`` (default) makes a
  child process inheriting the sink silently drop writes instead of
  interleaving bytes with the parent; ``on_fork="split"`` makes the
  child transparently reopen its *own* sibling file
  (``<path>.fork-<pid>``) on first write — nothing is lost, nothing is
  interleaved, and :func:`sibling_paths` + ``repro obs report`` merge
  the siblings back into one fleet-wide report.
* :class:`BufferSink` — keeps records in a list; used by tests and the
  overhead bench.

:func:`render_event` is the *one* place structured records become
human-readable lines.  The CLI's self-healing output, ``repro obs
report`` and journal note rendering all call it, so wording never
drifts between the stderr path and the report path.
"""

from __future__ import annotations

import glob
import json
import os

#: Version of the telemetry JSONL schema, stamped into every session
#: header record.  Major bumps mean "old readers must refuse" (record
#: shapes changed incompatibly); minor bumps are additive.  Readers
#: treat a missing ``schema_version`` as 1.0 (pre-versioning streams).
SCHEMA_VERSION = "1.0"

#: Highest major version this build knows how to read.
SCHEMA_MAJOR = 1


class JsonlSink:
    """Append-only JSONL event stream with per-record flush.

    ``on_fork`` picks the behaviour when a forked child writes through
    an inherited sink: ``"drop"`` (historical default) silently drops
    the record — the parent owns the file handle; ``"split"`` lazily
    reopens a per-child sibling file ``<path>.fork-<pid>`` so fleet
    worker events survive without ever sharing a file descriptor with
    the parent.
    """

    def __init__(self, path: str, on_fork: str = "drop"):
        if on_fork not in ("drop", "split"):
            raise ValueError(
                f"on_fork must be 'drop' or 'split', got {on_fork!r}"
            )
        self.path = str(path)
        self.on_fork = on_fork
        self._pid = os.getpid()
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def _split_for_fork(self) -> None:
        """First write after a fork (split mode): take over a sibling.

        The inherited handle is *abandoned*, never closed — closing
        would flush/close the parent's descriptor state from the child.
        """
        pid = os.getpid()
        self.path = f"{self.path}.fork-{pid}"
        self._fh = open(self.path, "a", encoding="utf-8")
        self._pid = pid

    def write(self, record: dict) -> None:
        if os.getpid() != self._pid:
            if self.on_fork == "drop":
                return  # forked child: parent owns the file handle
            self._split_for_fork()
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if os.getpid() == self._pid and not self._fh.closed:
            self._fh.close()


def sibling_paths(path: str) -> list[str]:
    """Event files belonging to one fleet run, main stream first.

    Siblings are the per-replica streams gateway workers open
    (``<path>.replica-<id>``) and the per-child streams a split-mode
    sink creates (``<path>.fork-<pid>``), including nested combinations
    (a fork under a replica).  Sorted for deterministic merge order.
    """
    out = [path] if os.path.exists(path) else []
    seen = set(out)
    frontier = [path]
    while frontier:
        base = frontier.pop()
        found = sorted(
            glob.glob(glob.escape(base) + ".replica-*")
            + glob.glob(glob.escape(base) + ".fork-*")
        )
        for p in found:
            if p not in seen and os.path.isfile(p):
                seen.add(p)
                out.append(p)
                frontier.append(p)
    return out


class BufferSink:
    """In-memory sink for tests and overhead measurement."""

    def __init__(self):
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


def render_event(record: dict) -> str:
    """Format one structured record as a human-readable line.

    Unknown kinds/names fall back to a compact key=value dump so new
    event types are never invisible, and **no record can raise**: a
    malformed record (wrong field types, non-dict, exotic values) falls
    back to a compact repr-style line instead of killing the report.
    """
    try:
        return _render_event(record)
    except Exception:
        try:
            return f"unrenderable record: {record!r:.300}"
        except Exception:
            return "unrenderable record"


def _render_event(record: dict) -> str:
    kind = record.get("kind", "event")
    name = record.get("name", "")
    if kind == "span":
        status = "" if record.get("status") == "ok" else f" [{record.get('error', 'error')}]"
        return (f"span {record.get('name')}: {record.get('dur_s', 0.0) * 1000.0:.3f} ms"
                f" (depth {record.get('depth', 0)}){status}")
    if name == "execution":
        def n(key):  # summaries carry index lists, counters carry ints
            value = record.get(key, 0)
            return len(value) if isinstance(value, (list, tuple)) else value

        where = "/".join(
            str(record[k]) for k in ("method", "setting") if k in record
        ) or "?"
        if "k_shot" in record:
            where += f"/{record['k_shot']}-shot"
        return (f"self-healing: {where} — retried {n('retried')}, "
                f"quarantined {n('quarantined')}, errors {n('errors')}, "
                f"pool restarts {n('pool_restarts')}")
    if name == "breaker":
        return (f"breaker: {record.get('old', '?')} -> {record.get('new', '?')}"
                f" (failures {record.get('failures', 0)}, trips {record.get('trips', 0)})")
    if name == "gateway.breaker":
        return (f"gateway breaker[{record.get('replica', '?')}]: "
                f"{record.get('old', '?')} -> {record.get('new', '?')}")
    if name == "gateway.replica_down":
        return (f"gateway replica {record.get('replica', '?')} down "
                f"({record.get('kind', '?')}): "
                f"{record.get('inflight', 0)} in-flight refunded, "
                f"{record.get('queued', 0)} queued rerouted")
    if name == "gateway.replica_rebuilt":
        return (f"gateway replica {record.get('replica', '?')} rebuilt "
                f"(generation {record.get('generation', '?')})")
    if name == "gateway.replica_draining":
        return f"gateway replica {record.get('replica', '?')} draining for reload"
    if name == "gateway.replica_reloaded":
        return (f"gateway replica {record.get('replica', '?')} reloaded "
                f"(generation {record.get('generation', '?')})")
    if name == "gateway.hedge":
        return (f"gateway hedge: ticket {record.get('ticket', '?')} "
                f"replica {record.get('primary', '?')} -> "
                f"{record.get('hedge', '?')}")
    if name and name.startswith("checkpoint."):
        action = name.split(".", 1)[1]
        return f"checkpoint {action}: {record.get('path', '?')}"
    if name == "guard.anomaly":
        actions = ",".join(record.get("actions", ())) or "none"
        return (f"guard anomaly at iteration {record.get('iteration', '?')}: "
                f"{record.get('reason', '?')} -> {actions}")
    if name == "episode":
        return (f"episode {record.get('index', '?')}: {record.get('outcome', '?')}"
                f" (attempts {record.get('attempts', 1)})")
    if name == "trace.hop":
        extras = " ".join(
            f"{key}={record[key]}" for key in sorted(record)
            if key not in ("kind", "name", "t", "trace", "span", "hop")
        )
        line = (f"trace {record.get('trace', '?')} "
                f"{record.get('hop', '?')}")
        return f"{line} {extras}" if extras else line
    if name == "flight.dump":
        return (f"flight recorder dumped to {record.get('path', '?')} "
                f"({record.get('reason', '?')}, "
                f"{record.get('events', 0)} events)")
    skip = {"kind", "name", "t"}
    body = " ".join(f"{k}={record[k]}" for k in sorted(record) if k not in skip)
    label = name or kind
    return f"{label}: {body}" if body else str(label)
