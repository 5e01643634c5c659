"""FEWNER's shared support + query encoder pass.

``FewNER.predict_episode`` encodes the support and query sentences of an
episode with one ``encoder_features`` call on the recurrent encoders and
slices the rows back to each set's own width.  The adapted φ, the
query's emission scores and the predicted spans must be byte-identical
to the two-pass route (support encoded inside ``_inner_adapt``, query
through ``predict_spans``), for every conditioning site.  A set of one
sentence (BLAS runs its products as matrix-vector calls) and the
transformer keep two passes.
"""

import pytest

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
