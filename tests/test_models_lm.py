"""Tests for the frozen-LM + CRF tagger."""

import numpy as np
import pytest

from repro.data.sentence import Sentence
from repro.data.tags import TagScheme
from repro.embeddings import make_embedder
from repro.models import LMTagger


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
