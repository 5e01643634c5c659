"""Tests for the CNN-BiGRU-CRF backbone and context conditioning."""

import numpy as np
import pytest

from repro.autodiff import Tensor, grad, no_grad
from repro.data.sentence import Sentence
from repro.data.tags import TagScheme
from repro.models import BackboneConfig, CNNBiGRUCRF, encode_batch


@pytest.fixture
def scheme():
    return TagScheme(("PER", "LOC"))


def build_model(vocabs, scheme, **overrides):
    wv, cv = vocabs
    defaults = dict(word_dim=10, char_dim=6, char_filters=6, hidden=8,
                    context_dim=4, dropout=0.0)
    defaults.update(overrides)
    cfg = BackboneConfig(**defaults)
    return CNNBiGRUCRF(wv, cv, scheme.num_tags, cfg,
                       np.random.default_rng(0), tag_names=scheme.tags)


class TestConfig:
    def test_invalid_conditioning(self):
        with pytest.raises(ValueError):
            BackboneConfig(conditioning="bogus")

    def test_char_filters_divisibility(self):
        with pytest.raises(ValueError):
            BackboneConfig(char_filters=7)

    @pytest.mark.parametrize("max_chars", [0, -3])
    def test_max_chars_must_be_positive(self, max_chars):
        with pytest.raises(ValueError, match="max_chars must be at least 1"):
            BackboneConfig(max_chars=max_chars)


class TestEncoding:
    def test_batch_shapes(self, tiny_dataset, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme)
        batch = model.encode(tiny_dataset.sentences[:3], scheme)
        assert batch.word_ids.shape == batch.mask.shape
        assert batch.char_ids.shape[:2] == batch.word_ids.shape
        assert len(batch.tag_ids) == 3

    def test_empty_batch_raises(self, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme)
        with pytest.raises(ValueError):
            model.encode([], scheme)

    def test_encode_without_scheme_has_no_tags(self, tiny_dataset, tiny_vocabs,
                                               scheme):
        model = build_model(tiny_vocabs, scheme)
        batch = model.encode(tiny_dataset.sentences[:2])
        assert batch.tag_ids is None
        with pytest.raises(ValueError):
            model.loss(batch)


class TestForward:
    def test_emission_shapes_match_lengths(self, tiny_dataset, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme)
        sents = tiny_dataset.sentences[:3]
        batch = model.encode(sents, scheme)
        emissions = model.emissions(batch)
        for e, s in zip(emissions, sents):
            assert e.shape == (len(s), scheme.num_tags)

    def test_loss_finite_and_positive(self, tiny_dataset, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme)
        batch = model.encode(tiny_dataset.sentences[:3], scheme)
        loss = model.loss(batch)
        assert np.isfinite(loss.item())
        assert loss.item() > 0

    def test_gradients_reach_all_parameters(self, tiny_dataset, tiny_vocabs,
                                            scheme):
        model = build_model(tiny_vocabs, scheme)
        batch = model.encode(tiny_dataset.sentences[:3], scheme)
        phi = model.new_context()
        loss = model.loss(batch, phi)
        loss.backward()
        missing = [
            n for n, p in model.named_parameters() if p.grad is None
        ]
        # The word-embedding rows of unused tokens legitimately get zero
        # gradient but the tensor itself must exist for all parameters.
        assert missing == []

    def test_no_char_cnn_variant(self, tiny_dataset, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme, use_char_cnn=False)
        batch = model.encode(tiny_dataset.sentences[:2], scheme)
        assert np.isfinite(model.loss(batch).item())
        assert "char_cnn.char_embedding.weight" not in dict(
            model.named_parameters()
        )


class TestContextConditioning:
    @pytest.mark.parametrize("site", ["film", "concat", "film+bias", "head"])
    def test_sites_buildable(self, tiny_dataset, tiny_vocabs, scheme, site):
        model = build_model(tiny_vocabs, scheme, conditioning=site)
        batch = model.encode(tiny_dataset.sentences[:2], scheme)
        phi = model.new_context()
        assert np.isfinite(model.loss(batch, phi).item())

    @pytest.mark.parametrize("site", ["film", "film+bias", "head"])
    def test_zero_phi_matches_unconditioned(self, tiny_dataset, tiny_vocabs,
                                            scheme, site):
        """φ = 0 must be exactly the unconditioned backbone for the FiLM
        sites (needed for the supervised-pretrain handover)."""
        model = build_model(tiny_vocabs, scheme, conditioning=site)
        model.eval()
        batch = model.encode(tiny_dataset.sentences[:2], scheme)
        with no_grad():
            base = model.loss(batch).item()
            conditioned = model.loss(batch, model.new_context()).item()
        assert np.isclose(base, conditioned)

    def test_phi_changes_loss(self, tiny_dataset, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme)
        model.eval()
        batch = model.encode(tiny_dataset.sentences[:2], scheme)
        # A non-uniform probe: with the head site, a *uniform* φ adds the
        # same value to every tag column and the CRF NLL is invariant to
        # per-position constant shifts (see test_crf_properties).
        probe = np.random.default_rng(0).normal(size=model.context_size)
        phi = Tensor(probe, requires_grad=True)
        with no_grad():
            base = model.loss(batch).item()
            conditioned = model.loss(batch, phi).item()
        assert not np.isclose(base, conditioned)

    def test_uniform_head_phi_is_crf_invariant(self, tiny_dataset,
                                               tiny_vocabs, scheme):
        """Corollary of CRF shift invariance: an all-ones head adds the
        same score to every tag and must leave the NLL unchanged."""
        model = build_model(tiny_vocabs, scheme, conditioning="head")
        model.eval()
        batch = model.encode(tiny_dataset.sentences[:2], scheme)
        phi = Tensor(np.ones(model.context_size))
        with no_grad():
            base = model.loss(batch).item()
            shifted = model.loss(batch, phi).item()
        assert base == pytest.approx(shifted)

    def test_head_context_size(self, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme, conditioning="head")
        assert model.context_size == model.encoder.output_dim * scheme.num_tags
        assert model.new_context().shape == (model.context_size,)

    def test_head_rejects_wrong_size(self, tiny_dataset, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme, conditioning="head")
        batch = model.encode(tiny_dataset.sentences[:2], scheme)
        with pytest.raises(ValueError):
            model.loss(batch, Tensor(np.zeros(3)))

    def test_context_dim_zero_rejects_phi(self, tiny_dataset, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme, context_dim=0,
                            conditioning="film")
        batch = model.encode(tiny_dataset.sentences[:2], scheme)
        with pytest.raises(ValueError):
            model.loss(batch, Tensor(np.zeros(4)))

    def test_inner_step_second_order_flow(self, tiny_dataset, tiny_vocabs, scheme):
        """One φ inner step then outer grad w.r.t. θ (the FEWNER pattern).

        Second order needs the graph NLL: the fused kernel is first-order
        only, so the whole outer iteration runs under ``fastpath(False)``."""
        from repro.perf import fastpath

        model = build_model(tiny_vocabs, scheme)
        model.eval()
        batch = model.encode(tiny_dataset.sentences[:3], scheme)
        with fastpath(False):
            phi = model.new_context()
            (g_phi,) = grad(model.loss(batch, phi), [phi], create_graph=True)
            phi1 = phi - Tensor(np.array(0.1)) * g_phi
            outer = model.loss(batch, phi1)
            grads = grad(outer, model.parameters(), allow_unused=True)
        assert any(g is not None and np.abs(g.data).sum() > 0 for g in grads)


class TestDecode:
    def test_decode_lengths(self, tiny_dataset, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme)
        sents = tiny_dataset.sentences[:3]
        paths = model.decode(sents)
        assert [len(p) for p in paths] == [len(s) for s in sents]

    def test_decode_respects_bio(self, tiny_dataset, tiny_vocabs, scheme):
        model = build_model(tiny_vocabs, scheme)
        tags = scheme.tags
        for path in model.decode(tiny_dataset.sentences[:4]):
            assert not tags[path[0]].startswith("I-")

    def test_predict_spans_types_in_scheme(self, tiny_dataset, tiny_vocabs,
                                           scheme):
        model = build_model(tiny_vocabs, scheme)
        spans = model.predict_spans(tiny_dataset.sentences[:3], scheme)
        for sent_spans in spans:
            for _s, _e, label in sent_spans:
                assert label in scheme.labels

    def test_decode_restores_training_mode(self, tiny_dataset, tiny_vocabs,
                                           scheme):
        model = build_model(tiny_vocabs, scheme)
        model.train()
        model.decode(tiny_dataset.sentences[:1])
        assert model.training


class TestEmptySentence:
    """Every decode route rejects an empty sentence before encoding, with
    the index and the serving sanitizer's reason."""

    ROUTES = {
        "decode": lambda model, sents, scheme: model.decode(sents),
        "decode_within": lambda model, sents, scheme:
            model.decode_within(sents),
        "predict_spans": lambda model, sents, scheme:
            model.predict_spans(sents, scheme),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_lone_empty_sentence(self, tiny_vocabs, scheme, route):
        model = build_model(tiny_vocabs, scheme)
        with pytest.raises(ValueError,
                           match=r"^sentence 0: empty token sequence$"):
            self.ROUTES[route](model, [Sentence(())], scheme)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_empty_among_others_fails_before_encoding(
            self, tiny_dataset, tiny_vocabs, scheme, route, monkeypatch):
        model = build_model(tiny_vocabs, scheme)
        sents = [tiny_dataset.sentences[0], Sentence(()),
                 tiny_dataset.sentences[1]]

        def encoder_must_not_run(*args, **kwargs):
            raise AssertionError("encoded a batch holding an empty sentence")

        monkeypatch.setattr(model, "encode", encoder_must_not_run)
        with pytest.raises(ValueError,
                           match=r"^sentence 1: empty token sequence$"):
            self.ROUTES[route](model, sents, scheme)
