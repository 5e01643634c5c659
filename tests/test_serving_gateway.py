"""The sharded gateway on the deterministic in-process backend."""

import numpy as np
import pytest

from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
from repro.serving import (
    BREAKER_STATE_CODES,
    CLOSED,
    OPEN,
    GatewayConfig,
    GatewayStalled,
    ManualClock,
    ServiceConfig,
    ShardedGateway,
    TaggingService,
)
from repro.serving.loadgen import run_load, synthetic_requests
from repro.serving.priority import BATCH, INTERACTIVE, STANDARD

TOKENS = ["the", "Kavox", "visited", "Zuqev", "today", "reports", "arrived"]


@pytest.fixture(scope="module")
def model():
    scheme = TagScheme(("0", "1"))
    return CNNBiGRUCRF(
        Vocabulary(TOKENS), CharVocabulary(TOKENS), scheme.num_tags,
        BackboneConfig(), np.random.default_rng(0), tag_names=scheme.tags,
    ), scheme


def make_gateway(model, config=None, clock=None, service_time_s=None,
                 max_pending=256):
    backbone, scheme = model
    clock = clock or ManualClock()

    def factory(replica_id):
        return TaggingService(backbone, scheme,
                              ServiceConfig(max_pending=max_pending),
                              clock=clock)

    gateway = ShardedGateway(
        factory, config or GatewayConfig(replicas=3),
        backend="in-process", clock=clock, service_time_s=service_time_s,
    )
    return gateway, clock, factory


class TestRoutingAndDelivery:
    def test_tag_many_matches_single_service_oracle(self, model):
        gateway, clock, factory = make_gateway(model)
        with gateway:
            requests = [["the", "Kavox"], ["Zuqev", "today"],
                        ["reports", "arrived", "today"]] * 3
            results = gateway.tag_many(requests, timeout_s=10)
            oracle = factory(-1)
            for result, tokens in zip(results, requests):
                assert result.ok
                assert result.spans == oracle.tag(tokens).spans
        assert gateway.report.admitted == len(requests)
        assert gateway.report.completed == len(requests)
        assert gateway.report.pending == 0

    def test_same_tokens_route_to_same_replica(self, model):
        gateway, _clock, _f = make_gateway(model)
        with gateway:
            first = gateway.submit(["the", "Kavox"])
            second = gateway.submit(["the", "Kavox"])
            done = gateway.drain(timeout_s=10)
            assert done[first].replica == done[second].replica

    def test_results_delivered_exactly_once(self, model):
        gateway, _clock, _f = make_gateway(model)
        with gateway:
            tickets = [gateway.submit(["the"]) for _ in range(8)]
            done = gateway.drain(timeout_s=10)
            assert sorted(done) == sorted(tickets)
            assert gateway.collect() == {}  # nothing left behind

    def test_shutdown_rejects_further_pumps(self, model):
        gateway, _clock, _f = make_gateway(model)
        gateway.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            gateway.pump()


class TestBackpressure:
    def test_admission_sheds_past_bounded_queues(self, model):
        config = GatewayConfig(replicas=2, max_shard_queue=2)
        gateway, clock, _f = make_gateway(
            model, config, service_time_s=lambda t, k: 1000.0,
        )
        with gateway:
            tickets = [gateway.submit(["the", "Kavox"]) for _ in range(12)]
            gateway.pump()
            shed = [t for t in tickets if t in gateway._done
                    and gateway._done[t].replica is None]
            # 2 shards x 2 slots = 4 admitted, the rest shed.
            assert len(shed) == 8
            assert gateway.report.shed == 8
            assert gateway.report.admitted == 4
            for ticket in shed:
                result = gateway._done[ticket].result
                assert result.status == "overloaded"

    def test_requeue_bypasses_the_bound(self, model):
        # Zero-loss beats backpressure for already-admitted tickets: a
        # dead replica's work lands on a full survivor, never drops.
        config = GatewayConfig(replicas=2, max_shard_queue=1)
        gateway, clock, _f = make_gateway(model, config)
        with gateway:
            seen = set()
            while len(seen) < 2:  # one ticket owned by each shard
                ticket = gateway.submit([TOKENS[len(seen)], "Kavox"])
                owner = next(iter(gateway._requests[ticket].inflight_on))
                seen.add(owner)
            gateway.kill_replica(0)
            done = gateway.drain(timeout_s=10)
            assert all(r.result.ok for r in done.values())


class TestFailover:
    def test_killed_replica_work_is_refunded_and_completes(self, model):
        gateway, clock, factory = make_gateway(
            model, service_time_s=lambda t, k: 0.5,
        )
        with gateway:
            requests = [[TOKENS[i % 7], "visited"] for i in range(9)]
            tickets = [gateway.submit(tokens) for tokens in requests]
            gateway.pump()  # dispatch everywhere
            victim = next(s.id for s in gateway._shards if s.inflight)
            gateway.kill_replica(victim)
            done = gateway.drain(timeout_s=10)
            oracle = factory(-1)
            for ticket, tokens in zip(tickets, requests):
                routed = done[ticket]
                assert routed.result.ok
                assert routed.result.spans == oracle.tag(tokens).spans
        report = gateway.report
        assert report.deaths == 1
        assert report.rebuilds == 1
        assert report.refunds >= 1
        assert report.completed == report.admitted

    def test_death_trips_breaker_and_updates_gauge(self, model):
        gateway, clock, _f = make_gateway(model)
        with gateway:
            gateway.kill_replica(1)
            gateway.pump()
            assert gateway._shards[1].breaker.state == OPEN
            gauge = gateway.metrics.gauge("gateway.replica.1.breaker_state")
            assert gauge.value == BREAKER_STATE_CODES[OPEN]
            assert gateway.report.breaker_transitions >= 1
            # Cooldown passes, replica rebuilt, traffic re-closes it.
            clock.advance(1.0)
            ticket = gateway.submit(["the"])
            done = gateway.drain(timeout_s=10)
            assert done[ticket].result.ok

    def test_wedged_replica_is_killed_and_rebuilt(self, model):
        # First dispatch hangs; the post-refund retry is instant.
        delays = iter([10.0])

        config = GatewayConfig(replicas=2, replica_timeout_s=0.2)
        gateway, clock, _f = make_gateway(
            model, config, service_time_s=lambda t, k: next(delays, 0.0),
        )
        with gateway:
            ticket = gateway.submit(["the", "Kavox"])
            gateway.pump()
            clock.advance(0.3)  # past replica_timeout_s
            gateway.pump()      # wedge sweep kills + refunds
            assert gateway.report.wedges == 1
            done = gateway.drain(timeout_s=10)
            assert done[ticket].result.ok
            assert done[ticket].requeues >= 1

    def test_drain_timeout_raises_stalled(self, model):
        # Every dispatch takes 1000 virtual seconds; wall timeout fires
        # long before the manual clock gets there.
        gateway, clock, _f = make_gateway(
            model, service_time_s=lambda t, k: 1000.0,
        )
        with gateway:
            gateway.submit(["the"])
            with pytest.raises(GatewayStalled, match="1 ticket"):
                gateway.drain(timeout_s=0.05)


class TestHedging:
    def test_hedge_fires_after_budget_and_wins(self, model):
        slow_replica = {}

        def service_time(tokens, ticket):
            return slow_replica.get("delay", 0.0)

        config = GatewayConfig(replicas=3, hedge_after_ms=100.0)
        gateway, clock, _f = make_gateway(
            model, config, service_time_s=service_time,
        )
        with gateway:
            slow_replica["delay"] = 60.0   # primary will sit forever
            ticket = gateway.submit(["the", "Kavox"])
            gateway.pump()
            assert gateway.report.hedges == 0
            clock.advance(0.2)             # > hedge_after_ms
            slow_replica["delay"] = 0.0    # hedge leg is instant
            gateway.pump()                 # launches + completes hedge
            assert gateway.report.hedges == 1
            done = gateway.drain(timeout_s=10)
            routed = done[ticket]
            assert routed.result.ok and routed.hedged
            assert gateway.report.hedges_won == 1
            assert gateway.report.hedges_cancelled == 1

    def test_primary_win_cancels_hedge(self, model):
        config = GatewayConfig(replicas=3, hedge_after_ms=100.0)
        gateway, clock, _f = make_gateway(
            model, config, service_time_s=lambda t, k: 0.4,
        )
        with gateway:
            ticket = gateway.submit(["Zuqev"])
            gateway.pump()
            clock.advance(0.2)
            gateway.pump()                 # hedge launched at t=0.2
            assert gateway.report.hedges == 1
            clock.advance(0.25)            # t=0.45: primary done first
            gateway.pump()
            done = gateway.collect()
            assert done[ticket].result.ok
            assert gateway.report.hedges_won == 0
            assert gateway.report.hedges_cancelled == 1
            # The loser's answer eventually lands and is discarded.
            clock.advance(0.5)
            gateway.pump()
            assert gateway.report.late_responses == 1
            assert gateway.report.completed == 1


class TestRollingReload:
    def test_one_replica_drains_at_a_time_zero_failures(self, model):
        gateway, clock, _f = make_gateway(model)
        with gateway:
            gateway.start_rolling_reload()
            tickets = []
            while gateway.reloading:
                tickets.append(gateway.submit([TOKENS[len(tickets) % 7]]))
                gateway.pump()
                if len(tickets) > 500:  # pragma: no cover - safety
                    pytest.fail("reload never completed")
            done = gateway.drain(timeout_s=10)
            assert all(done[t].result.ok for t in tickets)
        report = gateway.report
        assert report.reloads == 3
        assert report.max_concurrent_draining == 1
        assert report.deaths == 0
        assert all(s.handle.generation == 1 for s in gateway._shards)

    def test_reload_swaps_the_factory(self, model):
        backbone, scheme = model
        clock = ManualClock()
        builds = []

        def make_factory(tag):
            def factory(replica_id):
                builds.append((tag, replica_id))
                return TaggingService(backbone, scheme,
                                      ServiceConfig(max_pending=256),
                                      clock=clock)
            return factory

        gateway = ShardedGateway(make_factory("v1"),
                                 GatewayConfig(replicas=2),
                                 backend="in-process", clock=clock)
        with gateway:
            gateway.start_rolling_reload(make_factory("v2"))
            gateway.drain(timeout_s=10, pump_reload=True)
        assert [b for b in builds if b[0] == "v2"] == [("v2", 0), ("v2", 1)]


class TestReloadFromCheckpointStore:
    def test_quarantined_latest_falls_back_mid_reload(self, model, tmp_path):
        """A rolling reload whose newest checkpoint is damaged must
        quarantine it and bring every replica up on the previous one."""
        import os

        from repro.reliability import CheckpointStore, TrainingCheckpoint
        from repro.reliability.checkpoint import QUARANTINE_SUFFIX

        backbone, scheme = model
        clock = ManualClock()
        store = CheckpointStore(str(tmp_path / "ckpts"), keep=3)
        for it in (1, 2):
            store.save(TrainingCheckpoint(
                iteration=it,
                module_state={"w": np.arange(3.0) * it},
            ))
        loaded = []

        def factory(replica_id):
            checkpoint = store.load_latest()
            loaded.append(checkpoint.iteration)
            return TaggingService(backbone, scheme,
                                  ServiceConfig(max_pending=256),
                                  clock=clock)

        gateway = ShardedGateway(factory, GatewayConfig(replicas=2),
                                 backend="in-process", clock=clock)
        with gateway:
            assert loaded == [2, 2]  # boot from the healthy latest
            # The newest checkpoint is damaged between boot and reload.
            latest = store.latest_path()
            size = os.path.getsize(latest)
            with open(latest, "r+b") as fh:
                fh.seek(size // 2)
                byte = fh.read(1)
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte[0] ^ 0xFF]))
            gateway.start_rolling_reload()
            ticket = gateway.submit(["the", "Kavox"])
            done = gateway.drain(timeout_s=10, pump_reload=True)
            assert done[ticket].result.ok
        assert loaded == [2, 2, 1, 1]  # reload fell back, fleet-wide
        assert store.quarantined == [latest]
        assert os.path.exists(latest + QUARANTINE_SUFFIX)
        assert gateway.report.reloads == 2
        assert gateway.report.deaths == 0


class TestDispatch:
    def test_legacy_fifo_without_overload(self, model):
        gateway, clock, _f = make_gateway(
            model, GatewayConfig(replicas=1),
            service_time_s=lambda toks, ticket: 0.01,
        )
        order = []
        with gateway:
            submitted = [gateway.submit(["the"]), gateway.submit(["visited"]),
                         gateway.submit(["today"])]
            for _ in range(40):
                gateway.pump()
                order.extend(gateway.collect())
                if len(order) == 3:
                    break
                clock.advance(0.02)
        assert order == submitted

    def test_legacy_gateway_dispatches_everything(self, model):
        gateway, _clock, _f = make_gateway(
            model, GatewayConfig(replicas=1),
            service_time_s=lambda toks, ticket: 10.0,
        )
        with gateway:
            for i in range(6):
                gateway.submit([TOKENS[i % len(TOKENS)]])
            gateway.pump()
            assert len(gateway._shards[0].inflight) == 6


class TestReportAndHealth:
    def test_health_view_reflects_breakers_and_states(self, model):
        gateway, clock, _f = make_gateway(model)
        with gateway:
            health = gateway.health()
            assert health["healthy"] == 3
            assert [s["breaker"] for s in health["per_replica"]] == [CLOSED] * 3
            gateway.kill_replica(2)
            gateway.pump()
            health = gateway.health()
            assert health["replicas"] == 3
            assert health["per_replica"][2]["deaths"] == 1

    def test_report_summary_and_render_round_trip(self, model):
        gateway, _clock, _f = make_gateway(model)
        with gateway:
            gateway.tag_many([["the"], ["Kavox"]], timeout_s=10)
        summary = gateway.report.summary()
        assert summary["admitted"] == 2
        assert summary["completed"] == 2
        assert len(summary["per_replica"]) == 3
        rendered = gateway.report.render()
        assert "admitted=2" in rendered and "backend=in-process" in rendered
        assert gateway.report.clean

    def test_latency_histogram_populated(self, model):
        gateway, _clock, _f = make_gateway(model)
        with gateway:
            gateway.tag_many([["the"]] * 4, timeout_s=10)
        hist = gateway.metrics.histogram("gateway.latency_ms")
        assert hist.count == 4

    def test_legacy_report_has_no_overload_section(self, model):
        gateway, _clock, _f = make_gateway(model, GatewayConfig(replicas=2))
        with gateway:
            gateway.tag_many([["the"]], timeout_s=10)
            assert "overload" not in gateway.health()
        assert "overload" not in gateway.report.summary()
        assert "overload:" not in gateway.report.render()


class TestLoadgenPriorities:
    def test_per_priority_breakdown_in_slo_report(self, model):
        gateway, _clock, _f = make_gateway(model, GatewayConfig(replicas=2))
        requests = synthetic_requests(30, seed=1, pool=tuple(TOKENS))
        priorities = ([INTERACTIVE] * 10 + [STANDARD] * 10 + [BATCH] * 10)
        with gateway:
            slo = run_load(gateway, requests, model="closed", concurrency=4,
                           seed=1, priorities=priorities)
        assert slo.per_priority is not None
        assert set(slo.per_priority) == {INTERACTIVE, STANDARD, BATCH}
        for stats in slo.per_priority.values():
            assert stats["offered"] == 10
            assert stats["completed"] == 10
            assert stats["shed_rate"] == 0.0
            assert stats["p99_ms"] >= stats["p50_ms"]
        rendered = slo.render()
        for name in (INTERACTIVE, STANDARD, BATCH):
            assert f"[{name}]" in rendered
        assert "per_priority" in slo.summary()

    def test_priorities_length_mismatch_rejected(self, model):
        gateway, _clock, _f = make_gateway(model, GatewayConfig(replicas=1))
        with gateway:
            with pytest.raises(ValueError, match="must match"):
                run_load(gateway, [["the"]], priorities=[STANDARD, BATCH])

    def test_no_priorities_keeps_report_shape(self, model):
        gateway, _clock, _f = make_gateway(model, GatewayConfig(replicas=1))
        with gateway:
            slo = run_load(gateway, [["the"], ["visited"]], model="closed",
                           concurrency=2)
        assert slo.per_priority is None
        assert "per_priority" not in slo.summary()


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"replicas": 0},
        {"max_shard_queue": 0},
        {"hedge_after_ms": -1.0},
        {"replica_timeout_s": 0.0},
        {"rebuild_backoff_s": -0.1},
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GatewayConfig(**kwargs)

    def test_bad_backend_rejected(self, model):
        with pytest.raises(ValueError, match="backend"):
            make_gateway_backend = ShardedGateway(
                lambda i: None, GatewayConfig(), backend="threads",
            )
            del make_gateway_backend
