"""TaggingService under overload control: expiry, eviction, brownout."""

import numpy as np
import pytest

from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
from repro.reliability import FaultInjector
from repro.serving import (
    HALF_OPEN,
    OPEN,
    Expired,
    ManualClock,
    Overloaded,
    OverloadConfig,
    ServiceConfig,
    TaggingService,
    TagResult,
)
from repro.serving.overload import BATCH, INTERACTIVE, STANDARD

TOKENS = ["the", "Kavox", "visited", "Zuqev", "today", "reports", "arrived"]


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(7)
    scheme = TagScheme(("0", "1"))
    return CNNBiGRUCRF(Vocabulary(TOKENS), CharVocabulary(TOKENS),
                       TagScheme(("0", "1")).num_tags, BackboneConfig(), rng,
                       tag_names=scheme.tags)


@pytest.fixture
def scheme():
    return TagScheme(("0", "1"))


def make_service(model, scheme, clock=None, injector=None, overload=True,
                 **config_kwargs):
    clock = clock or ManualClock()
    overload_config = OverloadConfig() if overload is True else overload
    return TaggingService(
        model, scheme, ServiceConfig(overload=overload_config,
                                     **config_kwargs),
        clock=clock, fault_injector=injector,
    )


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

    def test_admission_expiry_works_without_overload_control(self, model,
                                                             scheme):
        service = make_service(model, scheme, overload=None)
        result = service.tag(["the"], deadline_ms=0)
        assert isinstance(result, Expired)

    def test_expiry_while_queued_under_overload(self, model, scheme):
        clock = ManualClock()
        service = make_service(model, scheme, clock=clock,
                               default_deadline_ms=50)
        ticket = service.submit(["the", "visited"])
        clock.advance(0.2)  # budget gone while queued
        result = service.drain()[ticket]
        assert isinstance(result, Expired)
        assert "while queued" in result.reason
        assert result.queue_wait_ms == pytest.approx(200.0)

    def test_queued_expiry_stays_legacy_without_overload(self, model, scheme):
        # Without overload control the legacy path still decodes (and
        # degrades) an expired-in-queue request instead of failing it.
        clock = ManualClock()
        service = make_service(model, scheme, clock=clock, overload=None,
                               default_deadline_ms=50)
        ticket = service.submit(["the", "visited"])
        clock.advance(0.2)
        result = service.drain()[ticket]
        assert isinstance(result, TagResult) and result.ok


class TestPriorityEviction:
    def test_interactive_arrival_evicts_queued_batch(self, model, scheme):
        service = make_service(model, scheme, max_pending=1)
        victim = service.submit(["the"], priority=BATCH)
        arrival = service.submit(["visited"], priority=INTERACTIVE)
        done = service.drain()
        assert isinstance(done[victim], Overloaded)
        assert "evicted by a interactive arrival" in done[victim].reason
        assert isinstance(done[arrival], TagResult) and done[arrival].ok
        assert service.overload_snapshot()["shed_by_priority"][BATCH] == 1

    def test_no_eviction_within_the_same_class(self, model, scheme):
        service = make_service(model, scheme, max_pending=1)
        queued = service.submit(["the"], priority=STANDARD)
        arrival = service.submit(["visited"], priority=STANDARD)
        done = service.drain()
        assert isinstance(done[queued], TagResult)   # kept its slot
        assert isinstance(done[arrival], Overloaded)  # shed, not evicted
        assert "queue full" in done[arrival].reason

    def test_batch_never_displaces_interactive(self, model, scheme):
        service = make_service(model, scheme, max_pending=1)
        queued = service.submit(["the"], priority=INTERACTIVE)
        arrival = service.submit(["visited"], priority=BATCH)
        done = service.drain()
        assert isinstance(done[queued], TagResult)
        assert isinstance(done[arrival], Overloaded)


class TestBrownoutModes:
    def test_shed_mode_rejects_at_admission(self, model, scheme):
        service = make_service(model, scheme)
        service.ladder.pressure = 3        # batch -> shed
        result = service.tag(["the"], priority=BATCH)
        assert isinstance(result, Overloaded)
        assert "brownout" in result.reason and "level 3" in result.reason

    def test_greedy_mode_serves_degraded_without_breaker(self, model, scheme):
        service = make_service(model, scheme)
        service.ladder.pressure = 4        # standard -> greedy
        result = service.tag(["the", "visited"], priority=STANDARD)
        assert isinstance(result, TagResult) and result.ok
        assert result.degraded
        assert "brownout: greedy decode served (level 4)" in result.note
        # The service breaker never saw the browned-out decode.
        assert service.breaker.state == "closed"
        assert service.breaker.trips == 0

    def test_interactive_keeps_full_fidelity_under_batch_shed(self, model,
                                                              scheme):
        service = make_service(model, scheme)
        baseline = make_service(model, scheme, overload=None)
        service.ladder.pressure = 3
        result = service.tag(["Kavox", "visited", "Zuqev"],
                             priority=INTERACTIVE)
        assert result.ok and not result.degraded
        assert result.spans == baseline.tag(
            ["Kavox", "visited", "Zuqev"]).spans

    def test_standard_traffic_shed_at_pressure_5(self, model, scheme):
        service = make_service(model, scheme)
        service.ladder.pressure = 5        # standard -> shed
        result = service.tag(["the"], priority=STANDARD)
        assert isinstance(result, Overloaded)
        assert "brownout" in result.reason and "level 5" in result.reason

    def test_priority_order_processed_highest_first(self, model, scheme):
        served = []
        service = make_service(model, scheme)
        original = service._process_batch

        def spy(batch):
            served.extend(p.priority for p in batch)
            original(batch)

        service._process_batch = spy
        service.submit(["the"], priority=BATCH)
        service.submit(["visited"], priority=INTERACTIVE)
        service.submit(["today"], priority=STANDARD)
        service.drain()
        assert served == [INTERACTIVE, STANDARD, BATCH]


class TestBreakerLadderInterplay:
    """Satellite: the half-open probe must survive brownout greedy mode."""

    def make_tripped(self, model, scheme, clock):
        injector = FaultInjector(slow_decode_s=0.3, slow_decode_for=2,
                                 clock=clock)
        service = make_service(model, scheme, clock=clock, injector=injector,
                               default_deadline_ms=100, breaker_threshold=2,
                               breaker_cooldown_ms=1000)
        service.tag(["the"], priority=INTERACTIVE)
        service.tag(["visited"], priority=INTERACTIVE)
        assert service.breaker.state == OPEN
        return service

    def test_greedy_mode_does_not_consume_the_probe(self, model, scheme):
        clock = ManualClock()
        service = self.make_tripped(model, scheme, clock)
        clock.advance(1.1)
        assert service.breaker.state == HALF_OPEN
        # Ladder pushed interactive to greedy while the probe is open.
        service.ladder.pressure = 7
        result = service.tag(["today"], priority=INTERACTIVE)
        assert result.ok and result.degraded
        assert "brownout: greedy" in result.note
        # The probe was not spent on browned-out work...
        assert service.breaker.state == HALF_OPEN
        # ...and greedy mode cannot re-escalate to full Viterbi: the
        # breaker saw neither a success nor a failure (no new trip,
        # no re-close).
        assert service.breaker.trips == 1

    def test_probe_still_recloses_after_brownout_recovers(self, model,
                                                          scheme):
        clock = ManualClock()
        service = self.make_tripped(model, scheme, clock)
        clock.advance(1.1)
        service.ladder.pressure = 7
        service.tag(["today"], priority=INTERACTIVE)
        service.ladder.pressure = 0        # brownout over; probe intact
        probe = service.tag(["reports"], priority=INTERACTIVE)
        assert probe.ok and not probe.degraded
        assert service.breaker.state == "closed"


class TestUnloadedParity:
    def test_results_identical_with_and_without_overload(self, model, scheme):
        plain = make_service(model, scheme, overload=None,
                             default_deadline_ms=1000)
        guarded = make_service(model, scheme, default_deadline_ms=1000)
        requests = [["Kavox", "visited", "Zuqev"], ["the", "today"],
                    ["reports", "arrived", "the", "Kavox"]]
        for tokens in requests:
            a = plain.tag(tokens)
            b = guarded.tag(tokens)
            assert a == b  # frozen dataclass: spans, flags, note, wait

    def test_snapshot_only_when_enabled(self, model, scheme):
        assert make_service(model, scheme,
                            overload=None).overload_snapshot() is None
        snap = make_service(model, scheme).overload_snapshot()
        assert snap["level"] == 0
        assert set(snap) >= {"level", "max_level", "transitions", "modes",
                             "codel_drops", "shed_by_priority", "expired"}

    def test_unknown_priority_rejected(self, model, scheme):
        service = make_service(model, scheme)
        with pytest.raises(ValueError, match="unknown priority"):
            service.tag(["the"], priority="urgent")
