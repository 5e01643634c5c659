"""Inference records no autodiff tape: decode, deadline decode, the service."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff.tensor import is_grad_enabled, no_grad
from repro.data.sentence import Sentence
from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.embeddings.contextual import SimulatedContextualEmbedder
from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
from repro.models.lm_crf import LMTagger
from repro.obs import profile_tape
from repro.serving import Deadline, ManualClock, TaggingService

TOKENS = ["the", "Kavox", "visited", "Zuqev", "today", "reports", "arrived"]
SENTENCES = [Sentence(("Kavox", "visited", "Zuqev")),
             Sentence(("reports", "arrived", "today", "unseen")),
             Sentence(("the",))]


@pytest.fixture(scope="module")
def scheme():
    return TagScheme(("0", "1"))


@pytest.fixture(scope="module")
def model(scheme):
    rng = np.random.default_rng(3)
    return CNNBiGRUCRF(Vocabulary(TOKENS), CharVocabulary(TOKENS),
                       scheme.num_tags, BackboneConfig(), rng,
                       tag_names=scheme.tags)


@pytest.fixture(scope="module")
def phi(model):
    rng = np.random.default_rng(4)
    return Tensor(rng.normal(size=model.context_size), requires_grad=True)


def _recorded_paths(model, phi):
    """Viterbi paths from emissions computed with the tape recording."""
    model.eval()
    try:
        batch = model.encode(SENTENCES)
        scores = model.emission_scores(batch, phi)
    finally:
        model.train()
    assert scores.requires_grad
    return model.crf.viterbi_decode_batch(scores.data, batch.mask)


@pytest.fixture(scope="module")
def served(scheme, model, phi):
    """``(model, decode args, paths from tape-recorded emissions)`` for
    the backbone and for the LM-CRF baseline."""
    tagger = LMTagger(SimulatedContextualEmbedder("sim-lm", dim=16, seed=3),
                      scheme.num_tags, np.random.default_rng(5),
                      tag_names=scheme.tags)
    recorded = tagger.emissions(SENTENCES)
    assert all(e.requires_grad for e in recorded)
    return [
        (model, (phi,), _recorded_paths(model, phi)),
        (tagger, (), [tagger.crf.viterbi_decode(e.data) for e in recorded]),
    ]


class TestNoTape:
    def test_decode(self, served):
        for model, args, recorded in served:
            with profile_tape() as profile:
                paths = model.decode(SENTENCES, *args)
            assert profile.nodes_created == 0, type(model).__name__
            assert paths == recorded

    def test_decode_within_with_deadline(self, served):
        for model, args, recorded in served:
            deadline = Deadline(1.0, clock=ManualClock())
            with profile_tape() as profile:
                paths, statuses = model.decode_within(SENTENCES, *args,
                                                      deadline=deadline)
            assert profile.nodes_created == 0, type(model).__name__
            assert statuses == ["full"] * len(SENTENCES)
            assert paths == recorded

    def test_decode_within_without_deadline(self, served):
        for model, args, recorded in served:
            with profile_tape() as profile:
                paths, statuses = model.decode_within(SENTENCES, *args)
            assert profile.nodes_created == 0, type(model).__name__
            assert statuses == ["full"] * len(SENTENCES)
            assert paths == recorded

    def test_service_tag(self, served, scheme):
        for model, args, _recorded in served:
            service = TaggingService(model, scheme,
                                     phi=args[0] if args else None)
            with profile_tape() as profile:
                result = service.tag(list(SENTENCES[0].tokens))
            assert profile.nodes_created == 0, type(model).__name__
            assert result.ok and not result.degraded


class TestGradModeRestored:
    def test_restored_after_decode(self, model, phi):
        model.decode(SENTENCES, phi)
        model.decode_within(SENTENCES, phi)
        assert is_grad_enabled()
        assert model.training

    def test_outer_no_grad_kept(self, model, phi):
        with no_grad():
            model.decode(SENTENCES, phi)
            assert not is_grad_enabled()
        assert is_grad_enabled()

    @pytest.mark.parametrize("method", ["decode", "decode_within"])
    def test_restored_when_decode_raises(self, model, method):
        wrong_size = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="head context"):
            getattr(model, method)(SENTENCES, wrong_size)
        assert is_grad_enabled()
        assert model.training
