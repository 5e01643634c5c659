"""Tests for the frozen-LM + CRF tagger."""

import numpy as np
import pytest

from repro.data.sentence import Sentence
from repro.data.tags import TagScheme
from repro.embeddings import make_embedder
from repro.models import LMTagger
from repro.perf import fastpath
from tests.reference import crf as reference


@pytest.fixture
def scheme():
    return TagScheme(("PER", "LOC"))


@pytest.fixture
def tagger(scheme):
    return LMTagger(
        make_embedder("Flair"), scheme.num_tags,
        np.random.default_rng(0), tag_names=scheme.tags,
    )


class TestLMTagger:
    def test_loss_finite(self, tagger, tiny_dataset, scheme):
        loss = tagger.loss(tiny_dataset.sentences[:3], scheme)
        assert np.isfinite(loss.item())

    def test_only_projection_and_crf_trainable(self, tagger):
        names = {n for n, _ in tagger.named_parameters()}
        assert names == {
            "projection.weight", "projection.bias",
            "crf.transitions", "crf.start_scores", "crf.end_scores",
        }

    def test_feature_cache_reused(self, tagger, tiny_dataset, scheme):
        sents = tiny_dataset.sentences[:2]
        tagger.loss(sents, scheme)
        cached = len(tagger._feature_cache)
        tagger.loss(sents, scheme)
        assert len(tagger._feature_cache) == cached

    def test_decode_lengths(self, tagger, tiny_dataset, scheme):
        paths = tagger.decode(tiny_dataset.sentences[:3])
        assert [len(p) for p in paths] == [
            len(s) for s in tiny_dataset.sentences[:3]
        ]

    def test_predict_spans_valid(self, tagger, tiny_dataset, scheme):
        for sent_spans in tagger.predict_spans(tiny_dataset.sentences[:3], scheme):
            for s, e, label in sent_spans:
                assert label in scheme.labels
                assert s < e

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "graph"])
    def test_loss_is_per_sentence_mean(self, tagger, tiny_dataset, scheme,
                                       fused):
        """The padded loss equals the per-sentence oracle's mean NLL."""
        sents = tiny_dataset.sentences[:4]
        assert len({len(s) for s in sents}) > 1  # a ragged batch
        singles = []
        for s in sents:
            scores, _mask = tagger.emissions([s])
            tags = scheme.encode([sp.as_tuple() for sp in s.spans], len(s))
            singles.append(reference.nll(tagger.crf, scores[0], tags).item())
        with fastpath(fused):
            loss = tagger.loss(sents, scheme).item()
        assert np.isclose(loss, np.mean(singles))

    def test_emissions_are_padded(self, tagger, tiny_dataset):
        sents = tiny_dataset.sentences[:3]
        scores, mask = tagger.emissions(sents)
        lengths = [len(s) for s in sents]
        assert scores.shape == (3, max(lengths), tagger.num_tags)
        assert mask.sum(axis=1).tolist() == lengths

    def test_gradients_flow_to_head_only(self, tagger, tiny_dataset, scheme):
        loss = tagger.loss(tiny_dataset.sentences[:2], scheme)
        loss.backward()
        assert all(p.grad is not None for p in tagger.parameters())


@pytest.mark.parametrize("route", ["decode", "decode_within"])
def test_empty_sentence_rejected_with_its_index(tagger, tiny_dataset, route):
    sents = [tiny_dataset.sentences[0], Sentence(())]
    with pytest.raises(ValueError,
                       match=r"^sentence 1: empty token sequence$"):
        getattr(tagger, route)(sents)
