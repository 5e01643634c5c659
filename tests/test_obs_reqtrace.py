"""Request tracing primitives: ids, hops, the flight recorder."""

import json
import os

import pytest

from repro import obs
from repro.obs import reqtrace
from repro.obs.events import SCHEMA_VERSION, render_event
from repro.obs.report import (
    SchemaVersionError,
    assemble_traces,
    check_schema,
    find_traces,
    render_trace,
)
from repro.obs.reqtrace import (
    HOPS,
    TERMINAL_HOPS,
    FlightRecorder,
    TraceContext,
    flight_recorder,
    hop,
    incident,
    mint,
    request_tracing,
    span_for,
    tracing_enabled,
    wire_id,
)


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestIds:
    def test_mint_is_deterministic(self):
        assert mint(0, 7) == mint(0, 7)
        assert len(mint(0, 7)) == 16
        int(mint(0, 7), 16)  # hex

    def test_mint_separates_seeds_and_tickets(self):
        assert mint(0, 7) != mint(1, 7)
        assert mint(0, 7) != mint(0, 8)

    def test_span_for_qualifier_separates_replicas(self):
        tid = mint(0, 1)
        assert span_for(tid, "dispatch", "0") != span_for(tid, "dispatch", "1")
        assert span_for(tid, "dispatch", "0") == span_for(tid, "dispatch", "0")

    def test_context_child_keeps_trace_id(self):
        ctx = TraceContext.for_request(3, 11)
        child = ctx.child("dispatch", "2")
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id

    def test_wire_id_forms(self):
        ctx = TraceContext.for_request(0, 1)
        assert wire_id(None) is None
        assert wire_id(ctx) == ctx.trace_id
        assert wire_id("abc123") == "abc123"


class TestTracingSwitch:
    def test_disabled_by_default_and_restored(self):
        assert not tracing_enabled()
        with request_tracing():
            assert tracing_enabled()
            with request_tracing():
                assert tracing_enabled()
            assert tracing_enabled()
        assert not tracing_enabled()


class TestHop:
    def test_none_trace_is_a_noop(self):
        with obs.telemetry_session() as session:
            hop(None, "decode", ticket=1)
        assert all(r.get("name") != "trace.hop"
                   for r in session.sink.records)

    def test_hop_emits_into_the_active_session(self):
        with obs.telemetry_session() as session:
            hop("aabbccdd00112233", "dispatch", ticket=4, replica=1)
        records = [r for r in session.sink.records
                   if r.get("name") == "trace.hop"]
        assert len(records) == 1
        record = records[0]
        assert record["trace"] == "aabbccdd00112233"
        assert record["hop"] == "dispatch"
        assert record["replica"] == 1
        assert record["span"] == span_for("aabbccdd00112233", "dispatch", "1")

    def test_hop_accepts_a_context(self):
        ctx = TraceContext.for_request(0, 9)
        with obs.telemetry_session() as session:
            hop(ctx, "admit", ticket=9)
        record = [r for r in session.sink.records
                  if r.get("name") == "trace.hop"][0]
        assert record["trace"] == ctx.trace_id

    def test_hop_without_session_is_safe(self):
        hop("aabbccdd00112233", "respond", ticket=1)  # must not raise

    def test_taxonomy_shape(self):
        assert HOPS[0] == "admit"
        assert TERMINAL_HOPS <= set(HOPS)
        assert "respond" in TERMINAL_HOPS


class TestFlightRecorder:
    def test_ring_is_bounded(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path), capacity=4)
        for i in range(10):
            recorder.record({"name": "x", "i": i})
        assert len(recorder._ring) == 4
        assert [e["i"] for e in recorder._ring] == [6, 7, 8, 9]
        assert [e["seq"] for e in recorder._ring] == [7, 8, 9, 10]

    def test_capacity_validated(self, tmp_path):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(str(tmp_path), capacity=0)

    def test_dump_writes_header_then_ring_and_clears(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path), capacity=8)
        recorder.record({"name": "a"})
        recorder.record({"name": "b"})
        path = recorder.dump("breaker_open", {"replica": 1})
        records = read_jsonl(path)
        assert records[0]["kind"] == "flight"
        assert records[0]["reason"] == "breaker_open"
        assert records[0]["replica"] == 1
        assert records[0]["events"] == 2
        assert records[0]["schema_version"] == SCHEMA_VERSION
        assert [r["name"] for r in records[1:]] == ["a", "b"]
        assert not recorder._ring  # cleared: no re-dump of old history
        assert recorder.dumps == 1

    def test_consecutive_dumps_append(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path))
        recorder.record({"name": "a"})
        recorder.dump("one")
        recorder.record({"name": "b"})
        path = recorder.dump("two")
        headers = [r for r in read_jsonl(path) if r["kind"] == "flight"]
        assert [h["reason"] for h in headers] == ["one", "two"]
        assert [h["dump"] for h in headers] == [0, 1]

    def test_works_with_telemetry_fully_off(self, tmp_path):
        assert obs.active() is None
        with flight_recorder(str(tmp_path)) as recorder:
            reqtrace.record("breaker", replica=0)
            hop("aabbccdd00112233", "decode", ticket=3)
            path = incident("breaker_open", replica=0)
        assert path == recorder.path()
        names = [r["name"] for r in read_jsonl(path)
                 if r["kind"] == "event"]
        assert names == ["breaker", "trace.hop", "incident.breaker_open"]

    def test_incident_emits_flight_dump_event(self, tmp_path):
        with obs.telemetry_session() as session:
            with flight_recorder(str(tmp_path)):
                reqtrace.record("breaker", replica=0)
                incident("breaker_open", replica=0)
        dumps = [r for r in session.sink.records
                 if r.get("name") == "flight.dump"]
        assert len(dumps) == 1
        assert dumps[0]["reason"] == "breaker_open"
        assert dumps[0]["events"] == 2  # the record + the incident marker

    def test_record_and_incident_noop_without_recorder(self, tmp_path):
        reqtrace.record("breaker", replica=0)
        assert incident("breaker_open", replica=0) is None


class TestAssembler:
    @staticmethod
    def _hop_record(trace, hop_name, source=None, **fields):
        record = {"kind": "event", "name": "trace.hop", "t": 0.0,
                  "trace": trace, "span": span_for(trace, hop_name),
                  "hop": hop_name, **fields}
        if source is not None:
            record["_source"] = source
        return record

    def test_cross_stream_stitching_orders_by_taxonomy(self):
        tid = mint(0, 1)
        records = [
            # Replica stream first in the list, with a *larger* t than
            # the gateway's — taxonomy order must win, never t.
            self._hop_record(tid, "decode", source="ev.jsonl.replica-0",
                             t=99.0, ticket=1),
            self._hop_record(tid, "respond", source="ev.jsonl",
                             ticket=1, latency_ms=4.0),
            self._hop_record(tid, "admit", source="ev.jsonl", ticket=1),
            self._hop_record(tid, "dispatch", source="ev.jsonl",
                             ticket=1, wait_ms=1.0),
        ]
        entry = assemble_traces(records)[0]
        assert [h["hop"] for h in entry["hops"]] == [
            "admit", "dispatch", "decode", "respond",
        ]
        assert entry["complete"] and entry["rooted"]
        assert entry["terminal"] == "respond"
        assert entry["sources"] == ["ev.jsonl", "ev.jsonl.replica-0"]
        assert entry["ticket"] == 1

    def test_orphan_and_incomplete_flags(self):
        stranded = assemble_traces([
            self._hop_record(mint(0, 2), "decode", ticket=2),
        ])[0]
        assert not stranded["rooted"] and not stranded["complete"]
        inflight = assemble_traces([
            self._hop_record(mint(0, 3), "admit", ticket=3),
            self._hop_record(mint(0, 3), "dispatch", ticket=3),
        ])[0]
        assert inflight["rooted"] and not inflight["complete"]
        assert inflight["terminal"] is None

    def test_admissionless_shed_counts_as_rooted(self):
        entry = assemble_traces([
            self._hop_record(mint(0, 4), "shed", ticket=4),
        ])[0]
        assert entry["rooted"] and entry["complete"]
        assert entry["terminal"] == "shed"

    def test_find_traces_prefers_exact_over_prefix(self):
        traces = [{"trace": "aa00"}, {"trace": "aa0011"}]
        assert find_traces(traces, "aa00") == [{"trace": "aa00"}]
        assert len(find_traces(traces, "aa0")) == 2
        assert find_traces(traces, "zz") == []

    def test_render_trace_breaks_down_the_critical_path(self):
        tid = mint(0, 5)
        entry = assemble_traces([
            self._hop_record(tid, "admit", ticket=5),
            self._hop_record(tid, "dispatch", ticket=5, wait_ms=2.0,
                             replica=1),
            self._hop_record(tid, "decode", ticket=5, decode_ms=3.0),
            self._hop_record(tid, "respond", ticket=5, latency_ms=8.0,
                             replica=1),
        ])[0]
        text = render_trace(entry)
        assert text.startswith(f"trace {tid}")
        assert "admit" in text and "respond" in text
        assert "total 8.000 ms" in text
        assert "queue wait 2.000 ms" in text
        assert "decode 3.000 ms" in text


class TestSchemaVersion:
    def test_header_carries_schema_version(self):
        with obs.telemetry_session() as session:
            pass
        header = session.sink.records[0]
        assert header["kind"] == "session"
        assert header["schema_version"] == SCHEMA_VERSION

    def test_current_and_versionless_streams_accepted(self):
        check_schema([{"kind": "session",
                       "schema_version": SCHEMA_VERSION}])
        check_schema([{"kind": "session"}])  # pre-versioning stream

    def test_future_minor_accepted_future_major_rejected(self):
        check_schema([{"kind": "session", "schema_version": "1.9"}])
        with pytest.raises(SchemaVersionError, match="upgrade repro"):
            check_schema([{"kind": "session", "schema_version": "2.0"}])

    def test_unparseable_version_rejected_with_clear_message(self):
        with pytest.raises(SchemaVersionError, match="unrecognized"):
            check_schema([{"kind": "session", "schema_version": "next"}])


class TestRenderEventHardening:
    def test_trace_hop_renders(self):
        text = render_event({"kind": "event", "name": "trace.hop",
                             "t": 0.1, "trace": "aabb", "span": "cc",
                             "hop": "dispatch", "ticket": 3, "replica": 1})
        assert "trace aabb" in text
        assert "dispatch" in text

    def test_flight_dump_renders(self):
        text = render_event({"kind": "event", "name": "flight.dump",
                             "reason": "breaker_open", "events": 12,
                             "path": "/tmp/flight-1.jsonl"})
        assert "breaker_open" in text

    @pytest.mark.parametrize("record", [
        None,
        "not a dict",
        {"kind": "span", "dur_s": "not-a-number"},
        {"kind": "event", "name": "gateway.breaker", "replica": object()},
        {"kind": "metrics", "counters": "nope"},
        {"kind": "event", "name": "execution", "retried_indices": 3.5},
    ])
    def test_malformed_records_never_raise(self, record):
        text = render_event(record)
        assert isinstance(text, str) and text
