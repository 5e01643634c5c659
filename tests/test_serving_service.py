"""TaggingService: deadlines, degradation, breaker, shedding — deterministic."""

import numpy as np
import pytest

from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
from repro.reliability import FaultInjector
from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    Expired,
    ManualClock,
    Overloaded,
    Rejected,
    ServiceConfig,
    TaggingService,
    TagResult,
)

TOKENS = ["the", "Kavox", "visited", "Zuqev", "today", "reports", "arrived"]


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(7)
    scheme = TagScheme(("0", "1"))
    word_vocab = Vocabulary(TOKENS)
    char_vocab = CharVocabulary(TOKENS)
    return CNNBiGRUCRF(word_vocab, char_vocab, scheme.num_tags,
                       BackboneConfig(), rng, tag_names=scheme.tags)


@pytest.fixture
def scheme():
    return TagScheme(("0", "1"))


def make_service(model, scheme, clock=None, injector=None, **config_kwargs):
    clock = clock or ManualClock()
    return TaggingService(
        model, scheme, ServiceConfig(**config_kwargs),
        clock=clock, fault_injector=injector,
    )


class TestHappyPath:
    def test_tags_and_flags(self, model, scheme):
        service = make_service(model, scheme, default_deadline_ms=1000)
        result = service.tag(["Kavox", "visited", "Zuqev"])
        assert isinstance(result, TagResult)
        assert result.ok and result.status == "ok"
        assert not result.degraded
        assert result.note is None
        for start, end, label in result.spans:
            assert 0 <= start < end <= 3
            assert label in scheme.labels

    def test_matches_direct_predict_spans(self, model, scheme):
        service = make_service(model, scheme)
        sentences = [["Kavox", "visited", "Zuqev"], ["reports", "arrived"]]
        results = service.tag_many(sentences)
        from repro.data.sentence import Sentence

        direct = model.predict_spans(
            [Sentence(tuple(s)) for s in sentences], scheme
        )
        assert [list(r.spans) for r in results] == direct

    def test_oov_rate_reported(self, model, scheme):
        service = make_service(model, scheme)
        result = service.tag(["Kavox", "zzzunseen"])
        assert result.oov_rate == pytest.approx(0.5)

    def test_sanitized_input_flagged(self, model, scheme):
        result = make_service(model, scheme).tag(["Kav\x00ox", "ok"])
        assert result.ok and result.modified
        assert result.tokens == ("Kavox", "ok")

    def test_empty_batch_returns_empty(self, model, scheme):
        assert make_service(model, scheme).tag_many([]) == []
        assert model.decode([]) == []
        assert model.predict_spans([], scheme) == []
        assert model.decode_within([]) == ([], [])


class TestValidation:
    def test_invalid_requests_become_rejected_results(self, model, scheme):
        service = make_service(model, scheme)
        for payload in FaultInjector.malformed_token_sequences():
            result = service.tag(payload)
            assert isinstance(result, (TagResult, Rejected))
            if isinstance(result, Rejected):
                assert result.reason

    def test_mixed_batch_keeps_order(self, model, scheme):
        service = make_service(model, scheme)
        results = service.tag_many([["ok"], [], ["fine", "too"]])
        assert results[0].ok
        assert isinstance(results[1], Rejected)
        assert results[2].ok

    def test_unknown_priority_rejected(self, model, scheme):
        service = make_service(model, scheme)
        with pytest.raises(ValueError, match="unknown priority"):
            service.tag(["the"], priority="urgent")


class TestLoadShedding:
    def test_overflow_is_shed_not_queued(self, model, scheme):
        service = make_service(model, scheme, max_pending=2)
        results = service.tag_many([["a"], ["b"], ["c"], ["d"]])
        statuses = [r.status for r in results]
        assert statuses == ["ok", "ok", "overloaded", "overloaded"]
        assert all(isinstance(r, Overloaded) for r in results[2:])
        assert service.stats["shed"] == 2

    def test_queue_frees_after_drain(self, model, scheme):
        service = make_service(model, scheme, max_pending=2)
        assert all(r.ok for r in service.tag_many([["a"], ["b"]]))
        assert all(r.ok for r in service.tag_many([["c"], ["d"]]))


def record_batches(service):
    """Spy on ``_process_batch``: one ``[(ticket, tokens, priority)]`` per
    micro-batch, in processing order."""
    batches = []
    process = service._process_batch

    def spy(batch):
        batches.append([(p.key, p.sentence.tokens, p.priority)
                        for p in batch])
        process(batch)

    service._process_batch = spy
    return batches


class TestMicroBatching:
    def test_batches_respect_size_and_sort_by_length(self, model, scheme):
        service = make_service(model, scheme, max_batch_size=2)
        batches = record_batches(service)
        long, short = ["w"] * 9, ["a"]
        results = service.tag_many([long, short, long, short, short])
        assert all(r.ok for r in results)
        # Sorted lengths 1, 1, 1, 9, 9 cut into pairs.
        assert [[len(t) for _k, t, _p in b] for b in batches] == [
            [1, 1], [1, 9], [9],
        ]
        assert service.stats["batches"] == 3

    def test_shortest_first_with_fifo_among_equal_lengths(self, model, scheme):
        service = make_service(model, scheme, max_batch_size=16)
        batches = record_batches(service)
        requests = [TOKENS[:n] for n in (5, 2, 7, 2, 5, 1, 2)]
        service.tag_many(requests)
        (batch,) = batches
        # Lengths 1, 2, 2, 2, 5, 5, 7; the three 2s and the two 5s keep
        # their ticket order.
        assert [k for k, _t, _p in batch] == [5, 1, 3, 6, 0, 4, 2]

    def test_sorting_leaves_answers_in_submission_order(self, model, scheme):
        from repro.data.sentence import Sentence

        rng = np.random.default_rng(5)
        requests = [list(rng.choice(TOKENS, size=int(n)))
                    for n in rng.integers(1, 12, size=24)]
        results = make_service(model, scheme, max_batch_size=4).tag_many(
            requests)
        direct = model.predict_spans(
            [Sentence(tuple(r)) for r in requests], scheme)
        assert [list(r.spans) for r in results] == direct

    def test_priority_classes_share_batches(self, model, scheme):
        service = make_service(model, scheme, max_batch_size=2)
        batches = record_batches(service)
        plan = [("batch", 1), ("interactive", 6), ("standard", 2),
                ("interactive", 1), ("batch", 4), ("standard", 1),
                ("interactive", 3)]
        for priority, n in plan:
            service.submit(TOKENS[:n], priority=priority)
        assert all(r.ok for r in service.drain().values())
        # Priority labels a request; batching sorts by length alone.
        assert [[(p, len(t)) for _k, t, p in b] for b in batches] == [
            [("batch", 1), ("interactive", 1)],
            [("standard", 1), ("standard", 2)],
            [("interactive", 3), ("batch", 4)],
            [("interactive", 6)],
        ]


class TestDeadlines:
    def test_slow_decode_degrades_remaining_sentences(self, model, scheme):
        clock = ManualClock()
        # Each Viterbi attempt "costs" 60ms against a 100ms budget:
        # sentence 0 completes in time, sentence 1's Viterbi overruns
        # (full answer, late), sentence 2 finds no budget left and gets
        # the greedy decode.
        injector = FaultInjector(slow_decode_s=0.06, clock=clock)
        service = make_service(
            model, scheme, clock=clock, injector=injector,
            default_deadline_ms=100, breaker_threshold=100,
        )
        first, second, third = service.tag_many(
            [["Kavox"], ["Zuqev"], ["today"]]
        )
        assert not first.degraded and first.note is None
        assert not second.degraded and "overran" in second.note
        assert third.degraded and "deadline" in third.note
        assert service.stats["degraded"] == 1

    def test_degraded_result_is_within_deadline_and_never_raises(
            self, model, scheme):
        clock = ManualClock()
        injector = FaultInjector(slow_decode_s=10.0, clock=clock)
        service = make_service(
            model, scheme, clock=clock, injector=injector,
            default_deadline_ms=50, breaker_threshold=1,
        )
        # First request eats the fault; once the breaker is open every
        # further request is answered greedily without touching the
        # (slow) Viterbi path, i.e. within its own deadline.
        service.tag(["Kavox", "visited"])
        before = clock()
        result = service.tag(["Zuqev", "today"])
        assert result.ok and result.degraded
        assert "breaker" in result.note
        assert clock() - before < 0.05
        assert injector.decode_calls == 1  # slow path never re-entered

    def test_per_request_deadline_overrides_default(self, model, scheme):
        clock = ManualClock()
        injector = FaultInjector(slow_decode_s=0.2, clock=clock)
        service = make_service(
            model, scheme, clock=clock, injector=injector,
            default_deadline_ms=None, breaker_threshold=100,
        )
        unbounded = service.tag(["Kavox"])
        assert not unbounded.degraded
        overrun = service.tag(["Kavox"], deadline_ms=100)
        assert overrun.ok and "overran" in overrun.note


class TestCircuitBreaker:
    def test_overruns_trip_then_cooldown_recloses(self, model, scheme):
        clock = ManualClock()
        injector = FaultInjector(slow_decode_s=0.3, slow_decode_for=2,
                                 clock=clock)
        service = make_service(
            model, scheme, clock=clock, injector=injector,
            default_deadline_ms=100, breaker_threshold=2,
            breaker_cooldown_ms=1000,
        )
        # Two overruns trip the breaker.
        assert "overran" in service.tag(["Kavox"]).note
        assert "overran" in service.tag(["Zuqev"]).note
        assert service.breaker.state == OPEN
        assert service.breaker.trips == 1
        # While open: greedy, flagged, served.
        shed_free = service.tag(["today"])
        assert shed_free.degraded and "breaker" in shed_free.note
        # After the cool-down the breaker half-opens; the injector's slow
        # phase is over (slow_decode_for=2), so the trial succeeds and
        # the breaker re-closes.
        clock.advance(1.0)
        assert service.breaker.state == HALF_OPEN
        recovered = service.tag(["reports"])
        assert not recovered.degraded
        assert service.breaker.state == CLOSED

    def test_decode_raise_faults_degrade_and_trip(self, model, scheme):
        clock = ManualClock()
        injector = FaultInjector(decode_raise_at=range(3), clock=clock)
        service = make_service(
            model, scheme, clock=clock, injector=injector,
            breaker_threshold=3,
        )
        for _ in range(3):
            result = service.tag(["Kavox", "visited"])
            assert result.ok and result.degraded
            assert "raised" in result.note
        assert service.breaker.state == OPEN
        assert service.stats["decode_errors"] == 3

    def test_half_open_failure_reopens(self, model, scheme):
        clock = ManualClock()
        injector = FaultInjector(decode_raise_at=range(10), clock=clock)
        service = make_service(
            model, scheme, clock=clock, injector=injector,
            breaker_threshold=1, breaker_cooldown_ms=500,
        )
        service.tag(["Kavox"])
        assert service.breaker.state == OPEN
        clock.advance(0.5)
        result = service.tag(["Zuqev"])  # half-open trial fails again
        assert result.ok and result.degraded
        assert service.breaker.state == OPEN

    def test_never_raises_under_any_injected_fault(self, model, scheme):
        clock = ManualClock()
        injector = FaultInjector(
            decode_raise_at={0, 2, 4}, slow_decode_s=0.04, clock=clock,
        )
        service = make_service(
            model, scheme, clock=clock, injector=injector,
            default_deadline_ms=60, breaker_threshold=2,
            breaker_cooldown_ms=200, max_pending=4,
        )
        payloads = [["Kavox"], [], ["visited", "Zuqev"], "bare",
                    ["today"], ["reports"], ["arrived"]]
        for _ in range(5):
            for payload in payloads:
                result = service.tag(payload)
                assert result.status in ("ok", "invalid", "overloaded")
            clock.advance(0.25)


class TestSubmitDrain:
    def test_tickets_map_to_results(self, model, scheme):
        service = make_service(model, scheme)
        t1 = service.submit(["Kavox"])
        t2 = service.submit([])
        t3 = service.submit(["Zuqev", "today"])
        done = service.drain()
        assert set(done) == {t1, t2, t3}
        assert done[t1].ok
        assert isinstance(done[t2], Rejected)
        assert done[t3].ok
        assert service.drain() == {}

    def test_queue_wait_counts_against_budget(self, model, scheme):
        clock = ManualClock()
        service = make_service(model, scheme, clock=clock,
                               default_deadline_ms=100)
        ticket = service.submit(["Kavox"])
        clock.advance(0.2)  # waits in queue past its whole budget
        done = service.drain()
        assert done[ticket].ok and done[ticket].degraded
        assert "deadline" in done[ticket].note


class TestExpiredAtAdmission:
    def test_zero_budget_fails_before_decode(self, model, scheme):
        service = make_service(model, scheme)
        result = service.tag(["the"], deadline_ms=0)
        assert isinstance(result, Expired)
        assert not result.ok and result.status == "expired"
        assert "already spent" in result.reason
        assert service.stats["expired"] == 1
        assert service.stats["served"] == 0  # no decode slot wasted

    def test_negative_budget_same_path(self, model, scheme):
        service = make_service(model, scheme)
        assert isinstance(service.tag(["the"], deadline_ms=-5), Expired)

    def test_queued_expiry_stays_legacy_without_overload(self, model, scheme):
        # A request whose budget ran out while queued is still decoded
        # (and degraded), not failed with Expired.
        clock = ManualClock()
        service = make_service(model, scheme, clock=clock,
                               default_deadline_ms=50)
        ticket = service.submit(["the", "visited"])
        clock.advance(0.2)
        result = service.drain()[ticket]
        assert isinstance(result, TagResult) and result.ok


class TestLMTagger:
    def test_lm_baseline_serves_too(self, scheme, rng):
        from repro.embeddings.contextual import SimulatedContextualEmbedder
        from repro.models.lm_crf import LMTagger

        embedder = SimulatedContextualEmbedder("sim-lm", dim=16, seed=3)
        tagger = LMTagger(embedder, scheme.num_tags, rng,
                          tag_names=scheme.tags)
        assert tagger.decode([]) == []
        service = TaggingService(tagger, scheme, clock=ManualClock())
        result = service.tag(["Kavox", "visited", "Zuqev"])
        assert result.ok
        assert result.oov_rate == 0.0  # no word vocab on the LM path


class TestStats:
    def test_counters_add_up(self, model, scheme):
        service = make_service(model, scheme, max_pending=2)
        service.tag_many([["a"], [], ["b", "c"], ["d"]])
        stats = service.stats
        assert stats["served"] == 2
        assert stats["invalid"] == 1
        assert stats["shed"] == 1
