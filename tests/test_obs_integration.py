"""Telemetry is observably rich and behaviourally invisible.

The invariants this file pins:

* scores are bit-identical with telemetry on or off;
* the event stream is identical for any worker count, modulo wall-time;
* serving exposes admission-to-decode queue wait per request;
* shared timing returns median+IQR, not best-case minima;
* the disabled-telemetry overhead on episode evaluation stays < 2%.
"""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.data.synthetic import generate_dataset
from repro.experiments.configs import SCALES
from repro.experiments.harness import AdaptationSetting, run_adaptation
from repro.obs import TimingStat, load_events, measure


class DeterministicAdapter:
    """Cheap, deterministic stand-in for a meta-learning method."""

    def __init__(self, name, config):
        self.name = name

    def fit(self, sampler, iterations):
        return [0.0] * iterations

    def predict_episode(self, episode):
        predictions = []
        for i, sent in enumerate(episode.query):
            if (i + len(self.name)) % 2 == 0:
                predictions.append([span.as_tuple() for span in sent.spans])
            else:
                predictions.append([])
        return predictions


@pytest.fixture
def patched_build(monkeypatch):
    monkeypatch.setattr(
        "repro.experiments.harness.build_method",
        lambda name, wv, cv, n_way, config: DeterministicAdapter(name, config),
    )


@pytest.fixture
def setting():
    ds = generate_dataset("OntoNotes", scale=0.02, seed=0)
    half = len(ds) // 2
    return AdaptationSetting(name="toy", train=ds[:half], test=ds[half:])


def cells_by_key(result):
    return {(c.method, c.setting, c.k_shot): c.ci.mean for c in result.cells}


def run_traced(path, setting, workers):
    with obs.telemetry_session(str(path)):
        return run_adaptation("t", [setting], ("A",), SCALES["smoke"],
                              workers=workers)


#: Fields that legitimately vary between runs (wall time, worker count).
_VOLATILE = ("t", "t_start", "dur_s", "wall_s")


def normalized(records):
    out = []
    for record in records:
        record = {k: v for k, v in record.items() if k not in _VOLATILE}
        attrs = record.get("attrs")
        if attrs:
            record["attrs"] = {k: v for k, v in attrs.items()
                               if k != "workers"}
        out.append(record)
    return out


class TestBehaviouralInvisibility:
    def test_scores_bit_identical_with_telemetry_on_or_off(
            self, patched_build, setting, tmp_path):
        bare = run_adaptation("t", [setting], ("A",), SCALES["smoke"])
        with obs.telemetry_session(str(tmp_path / "run.jsonl")):
            traced = run_adaptation("t", [setting], ("A",), SCALES["smoke"])
        assert cells_by_key(traced) == cells_by_key(bare)

    def test_event_stream_identical_across_worker_counts(
            self, patched_build, setting, tmp_path):
        one = run_traced(tmp_path / "w1.jsonl", setting, workers=1)
        two = run_traced(tmp_path / "w2.jsonl", setting, workers=2)
        assert cells_by_key(one) == cells_by_key(two)
        stream_one = normalized(load_events(str(tmp_path / "w1.jsonl")))
        stream_two = normalized(load_events(str(tmp_path / "w2.jsonl")))
        assert stream_one == stream_two

    def test_default_run_records_evaluate_and_train_spans_and_episode_events(
            self, patched_build, setting, tmp_path):
        """A default run has the one contract of every worker count:
        ``evaluate`` and ``train`` spans, one supervisor-side ``episode``
        event per episode, executor counters, and no span from inside
        an episode."""
        path = tmp_path / "default.jsonl"
        with obs.telemetry_session(str(path)):
            run_adaptation("t", [setting], ("A",), SCALES["smoke"])
        records = load_events(str(path))
        names = {r.get("name") for r in records if r.get("kind") == "span"}
        assert {"evaluate", "train"} <= names
        assert "episode" not in names
        (metrics,) = [r for r in records if r.get("kind") == "metrics"]
        episodes = metrics["counters"]["executor.episodes"]
        assert episodes == 2 * SCALES["smoke"].eval_episodes  # two shots
        episode_events = [r for r in records if r.get("kind") == "event"
                          and r.get("name") == "episode"]
        assert len(episode_events) == episodes

    def test_parallel_run_records_executor_counters(
            self, patched_build, setting, tmp_path):
        path = tmp_path / "parallel.jsonl"
        run_traced(path, setting, workers=2)
        records = load_events(str(path))
        (metrics,) = [r for r in records if r.get("kind") == "metrics"]
        episodes = metrics["counters"]["executor.episodes"]
        assert episodes == 2 * SCALES["smoke"].eval_episodes  # two shots
        assert metrics["counters"]["executor.errors"] == 0
        episode_events = [r for r in records if r.get("name") == "episode"]
        assert len(episode_events) == episodes
        assert all(e["outcome"] == "ok" for e in episode_events)


class TestServingQueueWait:
    def make_service(self, clock):
        from repro.data.tags import TagScheme
        from repro.data.vocab import CharVocabulary, Vocabulary
        from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
        from repro.serving import ServiceConfig, TaggingService

        tokens = ["the", "Kavox", "visited", "Zuqev"]
        scheme = TagScheme(("0", "1"))
        model = CNNBiGRUCRF(
            Vocabulary(tokens), CharVocabulary(tokens), scheme.num_tags,
            BackboneConfig(), np.random.default_rng(7),
            tag_names=scheme.tags,
        )
        return TaggingService(model, scheme, ServiceConfig(), clock=clock)

    def test_queue_wait_measured_from_admission_to_decode(self):
        from repro.serving import ManualClock

        clock = ManualClock()
        service = self.make_service(clock)
        early = service.submit(["Kavox", "visited"])
        clock.advance(0.05)  # first request sits in the queue for 50 ms
        late = service.submit(["Zuqev"])
        done = service.drain()
        assert len(done) == 2
        assert done[early].queue_wait_ms >= 50.0
        assert done[late].queue_wait_ms < done[early].queue_wait_ms
        hist = service.metrics.histogram("serving.queue_wait_ms")
        assert hist.count == 2

    def test_queue_wait_flows_into_session_histogram(self, tmp_path):
        from repro.serving import ManualClock

        path = tmp_path / "serve.jsonl"
        with obs.telemetry_session(str(path)):
            service = self.make_service(ManualClock())
            service.submit(["Kavox"])
            service.drain()
        (metrics,) = [r for r in load_events(str(path))
                      if r.get("kind") == "metrics"]
        assert metrics["histograms"]["serving.queue_wait_ms"]["count"] == 1
        assert metrics["histograms"]["serving.decode_ms"]["count"] == 1
        assert metrics["counters"]["serving.served"] == 1


class TestSharedTiming:
    def test_measure_returns_median_and_iqr(self):
        ticks = iter(range(100))

        def clock():
            return float(next(ticks))

        stat = measure(lambda: None, reps=5, clock=clock)
        assert isinstance(stat, TimingStat)
        assert float(stat) == 1.0   # every rep takes one tick
        assert stat.iqr == 0.0
        assert stat.reps == 5

    def test_timing_stat_behaves_like_a_float(self):
        stat = TimingStat(0.25, iqr=0.01, reps=3)
        assert stat + 0.75 == 1.0
        assert json.loads(json.dumps(stat)) == 0.25

    def test_experiment_timing_report_renders_iqr(self):
        from repro.experiments.timing import TimingReport

        stats = {f: TimingStat(0.1, iqr=0.02, reps=3)
                 for f in TimingReport.__dataclass_fields__}
        text = TimingReport(**stats).render()
        assert "median seconds" in text
        assert "0.1000±0.0200" in text
        # Plain floats still render (backwards compatibility).
        plain = TimingReport(**{f: 0.1
                                for f in TimingReport.__dataclass_fields__})
        assert "0.1000   " in plain.render()


def _wall_time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def telemetry_overhead_pct(seed: int = 0, rounds: int = 3,
                           n_episodes: int = 2) -> dict:
    """Disabled-telemetry cost on FEWNER episode evaluation.

    Un-instrumented code no longer exists, so the disabled cost cannot
    be measured as a wall-time difference; it is instead *bounded* from
    its parts: count how many obs-helper calls one evaluation makes
    (by temporarily wrapping the helpers), microbenchmark the per-call
    cost of the disabled fast path (global load + ``is None`` check),
    and take their product relative to the best evaluation wall time.
    """
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.meta.base import MethodConfig
    from repro.meta.evaluate import (
        build_method,
        evaluate_method,
        fixed_episodes,
    )

    dataset = generate_dataset("GENIA", scale=0.02, seed=seed)
    adapter = build_method(
        "FewNER", Vocabulary.from_datasets([dataset]),
        CharVocabulary.from_datasets([dataset]), 3,
        MethodConfig(seed=seed, pretrain_iterations=0),
    )
    episodes = fixed_episodes(
        dataset, 3, 1, n_episodes, seed=seed + 99, query_size=4
    )

    def run_eval():
        evaluate_method(adapter, episodes, fast=True)

    run_eval()  # warm-up
    best = min(_wall_time(run_eval) for _ in range(max(1, rounds)))

    helper_names = ("span", "count", "set_gauge", "observe", "emit",
                    "enabled")
    calls = 0
    originals = {name: getattr(obs, name) for name in helper_names}

    def counting(fn):
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            return fn(*args, **kwargs)
        return wrapper

    try:
        for name, fn in originals.items():
            setattr(obs, name, counting(fn))
        run_eval()
    finally:
        for name, fn in originals.items():
            setattr(obs, name, fn)

    # Per-call disabled cost: exercise the hottest helper shape (span
    # enter/exit with no session active) in a tight loop.
    loops = 20_000
    span = obs.span
    t0 = time.perf_counter()
    for _ in range(loops):
        with span("x"):  # call + no-op enter/exit, all charged to it
            pass
        span("x")
    per_call_s = (time.perf_counter() - t0) / (2 * loops)

    overhead = 100.0 * calls * per_call_s / best if best > 0 else 0.0
    return {
        "disabled_s": round(best, 6),
        "helper_calls": calls,
        "per_call_ns": round(per_call_s * 1e9, 1),
        "overhead_pct": round(overhead, 3),
    }


def request_tracing_overhead_pct(seed: int = 0, rounds: int = 3,
                                 n_requests: int = 24) -> dict:
    """Disabled request-tracing cost on the serving path.

    Same bounding construction as :func:`telemetry_overhead_pct`, for
    the :mod:`repro.obs.reqtrace` hop sites on the serving hot path:
    count how many hop calls one fully *traced* serve pass makes (by
    wrapping ``reqtrace.hop``), microbenchmark the disabled fast path
    (``hop(None, ...)`` returns on its first check — the worst case for
    a site whose guard was compiled in but whose trace is ``None``),
    and take their product relative to the untraced serve wall time.
    """
    from repro.data.tags import TagScheme
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
    from repro.obs import reqtrace
    from repro.serving import TaggingService
    from repro.serving.loadgen import synthetic_requests

    pool = ("the", "visited", "today", "reports", "arrived",
            "Kavox", "Zuqev", "Mirelle")
    scheme = TagScheme(("0", "1"))
    model = CNNBiGRUCRF(
        Vocabulary(pool), CharVocabulary(pool), scheme.num_tags,
        BackboneConfig(), np.random.default_rng(seed),
        tag_names=scheme.tags,
    )
    service = TaggingService(model, scheme)
    requests = synthetic_requests(n_requests, seed=seed, pool=pool)

    def serve_all(traced: bool = False) -> None:
        for i, tokens in enumerate(requests):
            service.tag(list(tokens),
                        trace=f"{i:016x}" if traced else None)

    serve_all()  # warm-up
    best = min(_wall_time(serve_all) for _ in range(max(1, rounds)))

    original = reqtrace.hop
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    try:
        reqtrace.hop = counting
        serve_all(traced=True)
    finally:
        reqtrace.hop = original

    loops = 20_000
    hop = reqtrace.hop
    t0 = time.perf_counter()
    for _ in range(loops):
        hop(None, "decode")
    per_call_s = (time.perf_counter() - t0) / loops

    overhead = 100.0 * calls * per_call_s / best if best > 0 else 0.0
    return {
        "disabled_s": round(best, 6),
        "hop_calls": calls,
        "per_call_ns": round(per_call_s * 1e9, 1),
        "overhead_pct": round(overhead, 3),
    }


class TestDisabledOverhead:
    def test_disabled_overhead_under_two_percent(self):
        result = telemetry_overhead_pct(seed=0, rounds=3, n_episodes=2)
        assert result["disabled_s"] > 0
        assert result["helper_calls"] > 0  # the eval path is instrumented
        assert result["overhead_pct"] < 2.0, result

    def test_disabled_tracing_overhead_under_two_percent(self):
        # Request tracing compiled into the serving path but switched
        # off must honour the same gate as the rest of telemetry.
        result = request_tracing_overhead_pct(seed=0, rounds=3)
        assert result["disabled_s"] > 0
        assert result["hop_calls"] > 0  # the serving path is traced
        assert result["overhead_pct"] < 2.0, result
