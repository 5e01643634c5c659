"""The store as a backing tier: parity, degradation, reporting surfaces.

The contract under test is "cache errors degrade, never fail": with a
store active, every consumer — adaptation, embeddings, serving — must
produce results bit-identical to a store-less run, cold or warm, and a
legacy run with no session must behave exactly as before the store
existed.
"""

import numpy as np
import pytest

from repro.store import active, store_session

TOKENS = ("the", "Kavox", "visited", "Zuqev", "today", "reports", "arrived")


# ----------------------------------------------------------------------
# Adaptation (FewNER evaluation)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def eval_fixture():
    from repro.data.synthetic import generate_dataset
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.meta.base import MethodConfig
    from repro.meta.evaluate import build_method, fixed_episodes

    dataset = generate_dataset("GENIA", scale=0.02, seed=0)
    word_vocab = Vocabulary.from_datasets([dataset])
    char_vocab = CharVocabulary.from_datasets([dataset])
    config = MethodConfig(seed=0, pretrain_iterations=0)
    adapter = build_method("FewNER", word_vocab, char_vocab, 3, config)
    episodes = fixed_episodes(dataset, 3, 1, 2, seed=7, query_size=4)
    return adapter, episodes


def _evaluate(fixture):
    from repro.meta.evaluate import evaluate_method

    adapter, episodes = fixture
    return repr(vars(evaluate_method(adapter, episodes, fast=True)))


def test_evaluation_bit_identical_cold_and_warm(eval_fixture, tmp_path):
    baseline = _evaluate(eval_fixture)
    with store_session(str(tmp_path)) as session:
        assert _evaluate(eval_fixture) == baseline  # cold: misses + puts
        assert session.counters["puts"] >= 2
    with store_session(str(tmp_path)) as session:
        assert _evaluate(eval_fixture) == baseline  # warm: pure hits
        assert session.counters["hits"] >= 2
        assert session.counters["errors"] == 0


def test_legacy_store_less_evaluation_untouched(eval_fixture):
    assert active() is None
    baseline = _evaluate(eval_fixture)
    assert _evaluate(eval_fixture) == baseline


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service_fixture():
    from repro.data.tags import TagScheme
    from repro.data.vocab import CharVocabulary, Vocabulary
    from repro.models.backbone import BackboneConfig, CNNBiGRUCRF

    scheme = TagScheme(("0", "1"))
    model = CNNBiGRUCRF(
        Vocabulary(TOKENS), CharVocabulary(TOKENS), scheme.num_tags,
        BackboneConfig(), np.random.default_rng(0), tag_names=scheme.tags,
    )
    return model, scheme


def _serve(fixture):
    from repro.serving import TaggingService

    model, scheme = fixture
    service = TaggingService(model, scheme)
    requests = [["the", "Kavox"], ["Zuqev", "today"],
                ["reports", "arrived", "today"]]
    results = [service.tag(tokens) for tokens in requests]
    assert all(r.ok and not r.degraded for r in results)
    return service, [r.spans for r in results]


def test_serving_bit_identical_and_skips_decode_when_warm(
        service_fixture, tmp_path):
    _, baseline = _serve(service_fixture)
    with store_session(str(tmp_path)):
        service, cold = _serve(service_fixture)
        assert cold == baseline
        assert service.stats["store_hits"] == 0
    with store_session(str(tmp_path)) as session:
        service, warm = _serve(service_fixture)
        assert warm == baseline
        assert service.stats["store_hits"] == 3  # all Viterbi skipped
        assert session.counters["hits"] == 3


def test_legacy_store_less_serving_untouched(service_fixture):
    assert active() is None
    service, spans = _serve(service_fixture)
    assert service.stats["store_hits"] == 0
    _, again = _serve(service_fixture)
    assert again == spans


def test_gateway_reports_store_traffic(service_fixture, tmp_path):
    from repro.serving import GatewayConfig, ShardedGateway, TaggingService

    model, scheme = service_fixture

    def run():
        gateway = ShardedGateway(
            lambda replica_id: TaggingService(model, scheme),
            GatewayConfig(replicas=2), backend="in-process",
        )
        with gateway:
            results = gateway.tag_many([list(TOKENS[:3])] * 4, timeout_s=10)
            assert all(r.ok for r in results)
            health = gateway.health()
        return health, gateway.report

    with store_session(str(tmp_path)):
        health, report = run()
        assert health["store"]["directory"] == str(tmp_path)
        assert report.store["puts"] + report.store["hits"] >= 1

    health, report = run()  # legacy: no session, empty store sections
    assert health["store"] == {}
    assert report.store == {}


# ----------------------------------------------------------------------
# Embeddings
# ----------------------------------------------------------------------
def test_static_matrix_cached_bit_identical(tmp_path):
    from repro.data.vocab import Vocabulary
    from repro.embeddings.static import StaticEmbeddings

    vocab = Vocabulary(TOKENS)
    baseline = StaticEmbeddings(dim=16, seed=3).matrix(vocab)
    with store_session(str(tmp_path)) as session:
        cold = StaticEmbeddings(dim=16, seed=3).matrix(vocab)
        warm = StaticEmbeddings(dim=16, seed=3).matrix(vocab)
        assert session.counters["hits"] == 1
        other = StaticEmbeddings(dim=16, seed=4).matrix(vocab)
    assert cold.tobytes() == baseline.tobytes()
    assert warm.tobytes() == baseline.tobytes()
    assert other.tobytes() != baseline.tobytes()  # seed is in the key


def test_contextual_encode_cached_bit_identical(tmp_path):
    from repro.embeddings.contextual import SimulatedContextualEmbedder

    tokens = list(TOKENS[:4])

    def embedder():
        return SimulatedContextualEmbedder("elmo", dim=24, seed=5)

    baseline = embedder().encode(tokens)
    with store_session(str(tmp_path)) as session:
        cold = embedder().encode(tokens)
        warm = embedder().encode(tokens)
        assert session.counters["hits"] == 1
    assert cold.tobytes() == baseline.tobytes()
    assert warm.tobytes() == baseline.tobytes()


# ----------------------------------------------------------------------
# Reporting surfaces
# ----------------------------------------------------------------------
def test_obs_report_includes_store_section():
    from repro.obs.report import build_report, render_report

    records = [
        {"kind": "metrics", "counters": {
            "store.hit": 6, "store.miss": 2, "store.put": 2,
            "store.errors": 1, "store.quarantined_segments": 1,
        }, "gauges": {}, "histograms": {}},
    ]
    report = build_report(records)
    assert report["store"]["hits"] == 6
    assert report["store"]["hit_rate"] == 0.75
    assert report["store"]["quarantined"] == 1
    rendered = render_report(report)
    assert "persistent store: 6 hits / 2 misses" in rendered
    assert "1 errors, 1 quarantined" in rendered


def test_obs_report_omits_store_section_when_unused():
    from repro.obs.report import build_report, render_report

    report = build_report([])
    assert report["store"]["hit_rate"] is None
    assert "persistent store" not in render_report(report)
