"""FEWNER's fused first-order inner loop.

With θ frozen, dropout off, the token CE loss and φ on the emission
head, ``FewNER._inner_adapt`` runs every φ step in one numpy kernel
(``repro.perf.kernels.inner_loop_fused``) instead of one tape sweep per
step.  The adapted φ must be byte-identical to the tape loop that
re-runs the whole forward pass at every step
(``tests/reference/fewner.py``), and every other configuration must keep
the tape loop.
"""

import numpy as np
import pytest

from repro.data.episodes import Episode, EpisodeSampler
from repro.data.sentence import Sentence, Span
from repro.data.synthetic import generate_dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.meta import MethodConfig, build_method
from repro.meta import fewner as fewner_module
from repro.meta.evaluate import fixed_episodes
from repro.perf import fastpath, kernels
from tests.reference.fewner import recompute_inner_adapt
from tests.test_perf_fused_checkpoints import checkpoint_after_fit

N_WAY = 3
STEPS = (0, 1, 2, 8)


@pytest.fixture(scope="module")
def corpus():
    dataset = generate_dataset("GENIA", scale=0.02, seed=0)
    return (dataset, Vocabulary.from_datasets([dataset]),
            CharVocabulary.from_datasets([dataset]))


@pytest.fixture(scope="module")
def episodes(corpus):
    return fixed_episodes(corpus[0], N_WAY, 1, 3, seed=42, query_size=3)


def _adapter(corpus, fit_iterations=0, **overrides):
    dataset, word_vocab, char_vocab = corpus
    config = MethodConfig(seed=3, pretrain_iterations=0, **overrides)
    adapter = build_method("FewNER", word_vocab, char_vocab, N_WAY, config)
    if fit_iterations:
        sampler = EpisodeSampler(dataset, N_WAY, 1, query_size=3, seed=1)
        adapter.fit(sampler, fit_iterations)
    return adapter


@pytest.fixture(scope="module")
def adapters(corpus):
    return {"untrained": _adapter(corpus), "fit": _adapter(corpus, 3)}


@pytest.fixture
def routes(monkeypatch):
    """Count kernel calls and tape sweeps of FEWNER's inner loop."""
    calls = {"kernel": 0, "grad": 0}
    kernel, grad = kernels.inner_loop_fused, fewner_module.grad

    def counting_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    def counting_grad(*args, **kwargs):
        calls["grad"] += 1
        return grad(*args, **kwargs)

    monkeypatch.setattr(kernels, "inner_loop_fused", counting_kernel)
    monkeypatch.setattr(fewner_module, "grad", counting_grad)
    return calls


def _reference_phi(adapter, episode, steps):
    adapter.model.eval()
    return recompute_inner_adapt(adapter, episode, steps,
                                 create_graph=False).data


def _assert_fused_matches_tape(adapter, episode, steps, routes):
    before = routes["kernel"]
    phi = adapter.adapt_context(episode, steps=steps).data
    assert routes["kernel"] == before + 1
    reference = _reference_phi(adapter, episode, steps)
    assert phi.dtype == reference.dtype and phi.shape == reference.shape
    assert phi.tobytes() == reference.tobytes()


def _episode(types, support):
    query = (Sentence(("the", "cells")),)
    return Episode(tuple(types), tuple(support), query)


class TestPhiBytes:
    """φ_k bytes: the kernel against the recompute-every-step tape."""

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("state", ["untrained", "fit"])
    def test_benchmark_style_episodes(self, adapters, episodes, routes,
                                      state, steps):
        for episode in episodes:
            _assert_fused_matches_tape(adapters[state], episode, steps,
                                       routes)

    @pytest.mark.parametrize("steps", STEPS)
    def test_single_gold_tag(self, adapters, episodes, routes, steps):
        # Every support token is O: one tag count, one weight.
        types = episodes[0].types
        support = [Sentence(s.tokens) for s in episodes[0].support]
        episode = _episode(types, support)
        _assert_fused_matches_tape(adapters["fit"], episode, steps, routes)

    @pytest.mark.parametrize("steps", STEPS)
    def test_one_sentence_of_one_token(self, adapters, episodes, routes,
                                       steps):
        types = episodes[0].types
        support = [Sentence(("protein",), (Span(0, 1, types[0]),))]
        episode = _episode(types, support)
        for adapter in adapters.values():
            _assert_fused_matches_tape(adapter, episode, steps, routes)

    @pytest.mark.parametrize("steps", STEPS)
    def test_all_tied_scores(self, corpus, episodes, routes, steps):
        # A zeroed projection ties every tag at φ = 0, so the first
        # step's max gradient splits evenly over all tags.
        adapter = _adapter(corpus)
        adapter.model.projection.weight.data[...] = 0.0
        adapter.model.projection.bias.data[...] = 0.0
        for episode in episodes:
            _assert_fused_matches_tape(adapter, episode, steps, routes)

    def test_zero_steps_is_the_initial_context(self, adapters, episodes,
                                               routes):
        phi = adapters["fit"].adapt_context(episodes[0], steps=0)
        assert routes == {"kernel": 1, "grad": 0}
        assert not phi.data.any()
        assert phi.shape == adapters["fit"].model.new_context().shape


class TestRouting:
    """Only the first-order, head-site, token-CE loop leaves the tape."""

    def test_default_adaptation_uses_the_kernel(self, adapters, episodes,
                                                routes):
        adapters["untrained"].adapt_context(episodes[0])
        assert routes == {"kernel": 1, "grad": 0}

    def test_fastpath_off_uses_the_tape(self, adapters, episodes, routes):
        adapter = adapters["untrained"]
        with fastpath(False):
            phi = adapter.adapt_context(episodes[0], steps=3)
        assert routes == {"kernel": 0, "grad": 3}
        reference = _reference_phi(adapter, episodes[0], 3)
        assert phi.data.tobytes() == reference.tobytes()

    def test_second_order_uses_the_tape(self, adapters, episodes, routes):
        adapter = adapters["untrained"]
        adapter.model.eval()
        phi = adapter._inner_adapt(episodes[0], 2, create_graph=True)
        assert routes == {"kernel": 0, "grad": 2}
        assert phi._node is not None  # still a function of θ

    def test_crf_inner_loss_uses_the_tape(self, corpus, episodes, routes):
        adapter = _adapter(corpus, inner_loss="crf")
        adapter.adapt_context(episodes[0], steps=2)
        assert routes == {"kernel": 0, "grad": 2}

    def test_inner_dropout_in_training_uses_the_tape(self, corpus, episodes,
                                                     routes):
        adapter = _adapter(corpus, inner_dropout=True)
        adapter.model.train()
        adapter._inner_adapt(episodes[0], 2, create_graph=False)
        assert routes == {"kernel": 0, "grad": 2}
        assert adapter.model.training

    @pytest.mark.parametrize("conditioning", ["film", "concat", "film+bias"])
    def test_other_conditioning_sites_use_the_tape(self, corpus, episodes,
                                                   routes, conditioning):
        config = MethodConfig(seed=3, pretrain_iterations=0)
        config = config.with_backbone(conditioning=conditioning)
        _dataset, word_vocab, char_vocab = corpus
        adapter = build_method("FewNER", word_vocab, char_vocab, N_WAY,
                               config)
        adapter.adapt_context(episodes[0], steps=2)
        assert routes == {"kernel": 0, "grad": 2}

    @pytest.mark.parametrize("fused", [True, False])
    def test_zero_steps_on_both_routes(self, adapters, episodes, routes,
                                       fused):
        with fastpath(fused):
            phi = adapters["untrained"].adapt_context(episodes[0], steps=0)
        assert not phi.data.any()
        assert routes == {"kernel": int(fused), "grad": 0}

    def test_fused_checkpoint_case_sets_the_kernel_against_the_tape(
            self, routes):
        """The default FewNER case of ``test_perf_fused_checkpoints``:
        its fused run adapts with the kernel, its ``fastpath(False)``
        run with the tape, and the checkpoints agree."""
        dataset = generate_dataset("OntoNotes", scale=0.02, seed=0)
        corpus = (dataset, Vocabulary.from_datasets([dataset]),
                  CharVocabulary.from_datasets([dataset]))
        overrides = {"pretrain_iterations": 1}
        fused = checkpoint_after_fit(corpus, "FewNER", overrides)
        assert routes["kernel"] > 0
        counts = dict(routes)
        with fastpath(False):
            tape = checkpoint_after_fit(corpus, "FewNER", overrides)
        assert routes["kernel"] == counts["kernel"]
        assert routes["grad"] > counts["grad"]
        assert fused == tape


def test_first_order_tape_steps_record_no_chain(adapters, episodes):
    """A first-order tape step returns a fresh leaf, not a graph node."""
    adapter = adapters["untrained"]
    with fastpath(False):
        phi = adapter._inner_adapt(episodes[0], 3, create_graph=False)
    assert phi._node is None and phi.requires_grad


def test_gold_targets_match_a_per_token_count(adapters, episodes):
    model = adapters["untrained"].model
    episode = episodes[0]
    batch = model.encode(list(episode.support), episode.scheme)
    tags, weights = model.gold_targets(batch)
    real = batch.mask > 0
    for i, gold in enumerate(batch.tag_ids):
        assert (tags[i, : len(gold)] == gold).all()
        assert not tags[i, len(gold):].any()
    counts = np.zeros(model.num_tags)
    for tag in tags[real]:
        counts[tag] += 1
    assert weights[real].tobytes() == (1.0 / counts[tags[real]]).tobytes()
    assert not weights[~real].any()
    plain_tags, plain = model.gold_targets(batch, balanced=False)
    assert (plain_tags == tags).all()
    assert (plain == batch.mask).all()
