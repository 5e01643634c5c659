"""FEWNER's shared support + query encoder pass.

``FewNER.predict_episode`` encodes the support and query sentences of an
episode with one ``encoder_features`` call on the recurrent encoders and
slices the rows back to each set's own width.  The adapted φ, the
query's emission scores and the predicted spans must be byte-identical
to the two-pass route (support encoded inside ``_inner_adapt``, query
through ``predict_spans``), for every conditioning site.  A set of one
sentence (BLAS runs its products as matrix-vector calls) and the
transformer keep two passes.

``FewNER.fit`` encodes the support sets of a meta-batch in one pass
per outer iteration.  Its losses and the trained ``state_dict`` bytes
must equal a per-task loop (each support set encoded inside
``_inner_adapt``, as Algorithm 1 is written); a one-sentence support
set, ``second_order`` and ``inner_dropout`` keep per-task passes.
"""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor

from repro.data.episodes import EpisodeSampler
from repro.data.synthetic import generate_dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.meta import MethodConfig, build_method
from repro.meta.evaluate import fixed_episodes
from repro.models import BackboneConfig

N_WAY = 3
CONDITIONING = ("head", "film", "concat", "film+bias")


@pytest.fixture(scope="module")
def corpus():
    dataset = generate_dataset("OntoNotes", scale=0.02, seed=0)
    episodes = fixed_episodes(dataset, N_WAY, 1, 6, seed=11, query_size=5)
    return (dataset, Vocabulary.from_datasets([dataset]),
            CharVocabulary.from_datasets([dataset]), episodes)


def _adapter(corpus, encoder, conditioning):
    dataset, word_vocab, char_vocab, _episodes = corpus
    config = MethodConfig(
        seed=2, meta_batch=2, pretrain_iterations=0, inner_lr=3.0,
        backbone=BackboneConfig(word_dim=10, char_dim=6, char_filters=6,
                                hidden=8, context_dim=4, dropout=0.1,
                                encoder=encoder, conditioning=conditioning),
    )
    adapter = build_method("FewNER", word_vocab, char_vocab, N_WAY, config)
    adapter.fit(EpisodeSampler(dataset, N_WAY, 1, query_size=3, seed=1), 3)
    return adapter


def _shared_route(adapter, episode, monkeypatch):
    """Spans, φ bytes, query score bytes and encoder passes of
    ``predict_episode``."""
    model = adapter.model
    seen = {"passes": 0}
    encoder_features = model.encoder_features
    inner_adapt = adapter._inner_adapt
    viterbi = model.crf.viterbi_decode_batch

    def counting_features(*args, **kwargs):
        seen["passes"] += 1
        return encoder_features(*args, **kwargs)

    def keeping_phi(*args, **kwargs):
        phi = inner_adapt(*args, **kwargs)
        seen["phi"] = phi.data.tobytes()
        return phi

    def keeping_scores(scores, mask):
        seen["scores"] = scores.tobytes()
        return viterbi(scores, mask)

    with monkeypatch.context() as patch:
        patch.setattr(model, "encoder_features", counting_features)
        patch.setattr(adapter, "_inner_adapt", keeping_phi)
        patch.setattr(model.crf, "viterbi_decode_batch", keeping_scores)
        spans = adapter.predict_episode(episode)
    return spans, seen


def _two_pass_route(adapter, episode):
    model = adapter.model
    model.eval()
    phi = adapter._inner_adapt(episode, adapter.config.inner_steps_test,
                               create_graph=False).detach()
    query = list(episode.query)
    _batch, scores = model._inference_scores(query, phi)
    spans = model.predict_spans(query, episode.scheme, phi=phi)
    return spans, phi.data.tobytes(), scores.tobytes()


@pytest.mark.parametrize("conditioning", CONDITIONING)
@pytest.mark.parametrize("encoder", ["bigru", "bilstm"])
def test_one_pass_is_byte_identical_to_two(corpus, monkeypatch, encoder,
                                           conditioning):
    adapter = _adapter(corpus, encoder, conditioning)
    predicted = []
    passes = []
    for episode in corpus[3]:
        spans, seen = _shared_route(adapter, episode, monkeypatch)
        one = len(episode.support) > 1
        assert seen["passes"] == (1 if one else 2)
        passes.append(seen["passes"])
        ref_spans, ref_phi, ref_scores = _two_pass_route(adapter, episode)
        assert seen["phi"] == ref_phi
        assert seen["scores"] == ref_scores
        assert spans == ref_spans
        predicted.extend(spans)
    assert any(predicted)  # the parity is over real spans, not all-empty
    assert sorted(set(passes)) == [1, 2]  # both routes were exercised


@pytest.mark.parametrize("conditioning", ["head", "film"])
def test_transformer_keeps_two_passes(corpus, monkeypatch, conditioning):
    adapter = _adapter(corpus, "transformer", conditioning)
    episode = corpus[3][0]
    spans, seen = _shared_route(adapter, episode, monkeypatch)
    assert seen["passes"] == 2
    ref_spans, ref_phi, _scores = _two_pass_route(adapter, episode)
    assert seen["phi"] == ref_phi
    assert spans == ref_spans


def test_query_gold_spans_are_not_read(corpus):
    """Predictions do not change when the query's gold spans are dropped."""
    from repro.data.episodes import Episode
    from repro.data.sentence import Sentence

    adapter = _adapter(corpus, "bigru", "head")
    for episode in corpus[3]:
        blind = Episode(episode.types, episode.support,
                        tuple(Sentence(q.tokens) for q in episode.query))
        assert adapter.predict_episode(blind) \
            == adapter.predict_episode(episode)


# ----------------------------------------------------------------------
# fit: one support pass per meta-batch
# ----------------------------------------------------------------------
def _untrained(corpus, encoder, conditioning, **overrides):
    _dataset, word_vocab, char_vocab, _episodes = corpus
    config = MethodConfig(
        seed=2, meta_batch=3, pretrain_iterations=0, inner_lr=3.0,
        backbone=BackboneConfig(word_dim=10, char_dim=6, char_filters=6,
                                hidden=8, context_dim=4, dropout=0.1,
                                encoder=encoder, conditioning=conditioning),
        **overrides,
    )
    return build_method("FewNER", word_vocab, char_vocab, N_WAY, config)


def _sampler(corpus, tasks=None):
    sampler = EpisodeSampler(corpus[0], N_WAY, 1, query_size=3, seed=4)
    if tasks is not None:
        sampler.sample_many = lambda n: list(tasks[:n])
    return sampler


def per_task_fit(adapter, sampler, iterations):
    """``FewNER.fit`` with each task's support set encoded on its own,
    inside ``_inner_adapt`` (no warm-up)."""
    from repro.perf.fastpath import fastpath, fused_nll_enabled

    config, model = adapter.config, adapter.model
    adapter._begin_report()
    guard = adapter._make_guard(adapter.optimizer, sampler)
    model.train()
    losses = []
    with fastpath(fused_nll_enabled() and not config.second_order):
        for _ in range(iterations):
            tasks = sampler.sample_many(config.meta_batch)
            model.zero_grad()
            total = 0.0
            for episode in tasks:
                phi = adapter._inner_adapt(
                    episode, config.inner_steps_train,
                    create_graph=config.second_order,
                )
                if not config.second_order:
                    phi = phi.detach()
                query = model.encode(list(episode.query), episode.scheme)
                loss = model.loss(query, phi)
                (loss * Tensor(np.array(1.0 / config.meta_batch))).backward()
                total += loss.item()
                adapter.schedule.step()
            guard.step(total / config.meta_batch)
            losses.append(total / config.meta_batch)
    return losses


def _state_bytes(adapter):
    return [(name, value.tobytes())
            for name, value in adapter.model.state_dict().items()]


def _routed_fit(adapter, sampler, iterations, monkeypatch):
    """``fit``'s losses, plus per ``_inner_adapt`` call whether its
    support set was one-pass eligible and whether it came pre-encoded,
    and the number of ``encoder_features`` calls."""
    routes = []
    seen = {"passes": 0}
    inner_adapt = adapter._inner_adapt
    encoder_features = adapter.model.encoder_features

    def recording(episode, steps, create_graph, support=None):
        routes.append((adapter._one_pass(list(episode.support)),
                       support is not None))
        return inner_adapt(episode, steps, create_graph, support=support)

    def counting(*args, **kwargs):
        seen["passes"] += 1
        return encoder_features(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(adapter, "_inner_adapt", recording)
        patch.setattr(adapter.model, "encoder_features", counting)
        losses = adapter.fit(sampler, iterations)
    return losses, routes, seen["passes"]


@pytest.mark.parametrize("conditioning", ["head", "film"])
@pytest.mark.parametrize("encoder", ["bigru", "bilstm"])
def test_fit_is_byte_identical_to_per_task_passes(corpus, monkeypatch,
                                                  encoder, conditioning):
    iterations = 4
    adapter = _untrained(corpus, encoder, conditioning)
    losses, routes, passes = _routed_fit(adapter, _sampler(corpus),
                                         iterations, monkeypatch)
    reference = _untrained(corpus, encoder, conditioning)
    assert losses == per_task_fit(reference, _sampler(corpus), iterations)
    assert _state_bytes(adapter) == _state_bytes(reference)
    # Exactly the eligible support sets came pre-encoded, and each outer
    # iteration ran one shared pass, the per-task passes and the queries.
    assert [eligible for eligible, _ in routes] \
        == [shared for _, shared in routes]
    assert any(shared for _, shared in routes)
    per_task = sum(not shared for _, shared in routes)
    meta_batch = adapter.config.meta_batch
    shared_passes = sum(
        any(shared for _, shared in routes[i:i + meta_batch])
        for i in range(0, len(routes), meta_batch)
    )
    assert passes == shared_passes + per_task + len(routes)


def test_one_sentence_support_set_takes_its_own_pass(corpus, monkeypatch):
    episodes = corpus[3]
    single = [e for e in episodes if len(e.support) == 1]
    several = [e for e in episodes if len(e.support) > 1]
    assert single and len(several) >= 2
    tasks = [several[0], single[0], several[1]]
    adapter = _untrained(corpus, "bigru", "head")
    losses, routes, _passes = _routed_fit(
        adapter, _sampler(corpus, tasks), 2, monkeypatch)
    assert [shared for _, shared in routes] == [True, False, True] * 2
    reference = _untrained(corpus, "bigru", "head")
    assert losses == per_task_fit(reference, _sampler(corpus, tasks), 2)
    assert _state_bytes(adapter) == _state_bytes(reference)


@pytest.mark.parametrize("overrides", [{"second_order": True},
                                       {"inner_dropout": True}],
                         ids=["second_order", "inner_dropout"])
def test_second_order_and_inner_dropout_keep_per_task_passes(
        corpus, monkeypatch, overrides):
    adapter = _untrained(corpus, "bigru", "film", **overrides)
    losses, routes, passes = _routed_fit(adapter, _sampler(corpus), 2,
                                         monkeypatch)
    assert routes and not any(shared for _, shared in routes)
    assert any(eligible for eligible, _ in routes)
    reference = _untrained(corpus, "bigru", "film", **overrides)
    assert losses == per_task_fit(reference, _sampler(corpus), 2)
    assert _state_bytes(adapter) == _state_bytes(reference)
