"""Inference records no autodiff tape: decode, deadline decode, the service."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff.tensor import is_grad_enabled, no_grad
from repro.data.sentence import Sentence
from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.models.backbone import BackboneConfig, CNNBiGRUCRF
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


class TestNoTape:
    def test_decode(self, model, phi):
        with profile_tape() as profile:
            paths = model.decode(SENTENCES, phi)
        assert profile.nodes_created == 0
        assert paths == _recorded_paths(model, phi)

    def test_decode_within_with_deadline(self, model, phi):
        deadline = Deadline(1.0, clock=ManualClock())
        with profile_tape() as profile:
            paths, statuses = model.decode_within(SENTENCES, phi,
                                                  deadline=deadline)
        assert profile.nodes_created == 0
        assert statuses == ["full"] * len(SENTENCES)
        assert paths == _recorded_paths(model, phi)

    def test_decode_within_without_deadline(self, model, phi):
        with profile_tape() as profile:
            paths, statuses = model.decode_within(SENTENCES, phi)
        assert profile.nodes_created == 0
        assert statuses == ["full"] * len(SENTENCES)
        assert paths == _recorded_paths(model, phi)

    def test_service_tag(self, model, scheme, phi):
        service = TaggingService(model, scheme, phi=phi)
        with profile_tape() as profile:
            result = service.tag(list(SENTENCES[0].tokens))
        assert profile.nodes_created == 0
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
