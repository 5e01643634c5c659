"""JSONL round-trip, report aggregation, and the one formatting path."""

import json

from repro import obs
from repro.obs import (
    build_report,
    load_events,
    render_event,
    render_report,
)


def write_session(path):
    with obs.telemetry_session(str(path)) as session:
        with obs.span("encode"):
            pass
        with obs.span("inner_loop", steps=2):
            pass
        with obs.span("decode"):
            pass
        obs.count("adaptation_cache.hit", 3)
        obs.count("adaptation_cache.miss", 1)
        obs.count("executor.episodes", 4)
        obs.count("executor.retries", 1)
        obs.observe("serving.decode_ms", 2.0)
        obs.emit("breaker", old="closed", new="open", failures=3, trips=1)
    return session


class TestJsonlRoundTrip:
    def test_every_line_is_valid_json_and_reloads(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_session(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        parsed = [json.loads(line) for line in lines]  # no torn lines
        assert parsed[0]["kind"] == "session"
        assert parsed[-1]["kind"] == "metrics"
        assert load_events(str(path)) == parsed

    def test_records_are_key_sorted_on_disk(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_session(path)
        for line in path.read_text(encoding="utf-8").splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_torn_tail_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_session(path)
        n = len(load_events(str(path)))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
            fh.write('{"kind": "event", "name": "trun')  # crash mid-write
        assert len(load_events(str(path))) == n

    def test_sessions_append_not_truncate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_session(path)
        write_session(path)
        report = build_report(load_events(str(path)))
        assert report["sessions"] == 2


class TestBuildReport:
    def test_aggregates_phases_executor_and_cache(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_session(path)
        report = build_report(load_events(str(path)))
        assert set(report["phases"]) == {"encode", "inner_loop", "decode"}
        shares = [p["share_pct"] for p in report["phases"].values()]
        assert abs(sum(shares) - 100.0) < 0.5
        assert report["executor"]["episodes"] == 4
        assert report["executor"]["retried"] == 1
        assert report["cache"] == {"hits": 3, "misses": 1, "hit_rate": 0.75}

    def test_span_errors_are_counted(self):
        records = [
            {"kind": "span", "name": "s", "dur_s": 0.1, "status": "ok"},
            {"kind": "span", "name": "s", "dur_s": 0.3, "status": "error"},
        ]
        report = build_report(records)
        assert report["spans"]["s"]["count"] == 2
        assert report["spans"]["s"]["errors"] == 1
        assert report["spans"]["s"]["max_s"] == 0.3

    def test_empty_stream(self):
        report = build_report([])
        assert report["phases"] == {}
        assert report["cache"]["hit_rate"] is None
        assert "(no telemetry records)" in render_report(report)


class TestRenderReport:
    def test_renders_all_sections(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_session(path)
        text = render_report(build_report(load_events(str(path))))
        assert "phase breakdown" in text
        assert "encode" in text and "inner_loop" in text and "decode" in text
        assert "executor: 4 episodes" in text
        assert "hit rate 75.0%" in text
        assert "serving.decode_ms: n=1" in text
        assert "breaker: closed -> open" in text

    def test_expired_count_renders(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.telemetry_session(str(path)):
            obs.count("serving.expired", 2)
        report = build_report(load_events(str(path)))
        assert report["serving"] == {"expired": 2}
        assert "serving: 2 expired before decode" in render_report(report)

    def test_healthy_episode_events_are_suppressed(self):
        records = [
            {"kind": "event", "name": "episode", "index": 0,
             "outcome": "ok", "attempts": 1},
            {"kind": "event", "name": "episode", "index": 1,
             "outcome": "ok", "attempts": 2},
        ]
        text = render_report(build_report(records))
        assert "episode 0" not in text
        assert "episode 1: ok (attempts 2)" in text


class TestRenderEvent:
    def test_execution_accepts_lists_and_ints(self):
        # Journal notes and ExecutionReport.summary() carry index lists;
        # counter-derived reports carry plain ints.  Same wording either way.
        base = {"kind": "event", "name": "execution", "method": "FewNER",
                "setting": "NNE", "k_shot": 5, "pool_restarts": 1}
        with_lists = render_event(
            {**base, "retried": [3, 7], "quarantined": [7], "errors": []})
        with_ints = render_event(
            {**base, "retried": 2, "quarantined": 1, "errors": 0})
        assert with_lists == with_ints
        assert ("self-healing: FewNER/NNE/5-shot — retried 2, quarantined 1, "
                "errors 0, pool restarts 1") == with_lists

    def test_span_and_fallback_rendering(self):
        line = render_event({"kind": "span", "name": "decode",
                             "dur_s": 0.002, "depth": 1, "status": "ok"})
        assert "decode" in line and "2.000 ms" in line
        fallback = render_event({"kind": "event", "name": "custom",
                                 "t": 1.0, "alpha": 1, "beta": "x"})
        assert fallback == "custom: alpha=1 beta=x"

    def test_guard_checkpoint_and_breaker_lines(self):
        assert render_event(
            {"kind": "event", "name": "guard.anomaly", "iteration": 3,
             "reason": "nan_loss", "actions": ["skip"]}
        ) == "guard anomaly at iteration 3: nan_loss -> skip"
        assert render_event(
            {"kind": "event", "name": "checkpoint.saved", "path": "x.npz"}
        ) == "checkpoint saved: x.npz"
        assert render_event(
            {"kind": "event", "name": "breaker", "old": "open",
             "new": "half_open", "failures": 0, "trips": 2}
        ) == "breaker: open -> half_open (failures 0, trips 2)"
