"""Cross-variant coverage: every conditioning site and both update orders
run through the full FEWNER algorithm; MAML's exact second-order path."""

import dataclasses

import numpy as np
import pytest

from repro.data.episodes import EpisodeSampler
from repro.data.synthetic import generate_dataset
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.meta import FewNER, MAML, MethodConfig
from repro.models import BackboneConfig
from repro.nn.module import override_params

N_WAY = 3


@pytest.fixture(scope="module")
def env():
    corpus = generate_dataset("OntoNotes", scale=0.02, seed=0)
    wv = Vocabulary.from_datasets([corpus])
    cv = CharVocabulary.from_datasets([corpus])
    sampler = EpisodeSampler(corpus, N_WAY, 1, query_size=3, seed=1)
    episode = EpisodeSampler(corpus, N_WAY, 1, query_size=3, seed=2).sample()
    return wv, cv, sampler, episode


def make_config(**overrides):
    backbone_kwargs = dict(word_dim=10, char_dim=6, char_filters=6,
                           hidden=8, context_dim=4, dropout=0.0)
    backbone_kwargs.update(overrides.pop("backbone", {}))
    return MethodConfig(
        seed=0, meta_batch=2, inner_steps_train=1, inner_steps_test=2,
        pretrain_iterations=1,
        backbone=BackboneConfig(**backbone_kwargs),
        **overrides,
    )


class TestConditioningSites:
    @pytest.mark.parametrize("site", ["film", "concat", "film+bias", "head"])
    def test_full_algorithm_runs(self, env, site):
        wv, cv, sampler, episode = env
        adapter = FewNER(wv, cv, N_WAY, make_config(
            backbone={"conditioning": site}))
        losses = adapter.fit(sampler, 2)
        assert all(np.isfinite(l) for l in losses)
        predictions = adapter.predict_episode(episode)
        assert len(predictions) == len(episode.query)

    @pytest.mark.parametrize("site", ["film", "concat", "film+bias", "head"])
    def test_context_size_consistent(self, env, site):
        wv, cv, _sampler, _episode = env
        adapter = FewNER(wv, cv, N_WAY, make_config(
            backbone={"conditioning": site}))
        phi = adapter.model.new_context()
        assert phi.shape == (adapter.model.context_size,)
        if site == "head":
            expected = adapter.model.encoder.output_dim * (2 * N_WAY + 1)
            assert adapter.model.context_size == expected
        else:
            assert adapter.model.context_size == 4


class TestUpdateOrders:
    @pytest.mark.parametrize("second_order", [False, True])
    def test_fewner_orders(self, env, second_order):
        wv, cv, sampler, _episode = env
        adapter = FewNER(wv, cv, N_WAY, make_config(second_order=second_order))
        losses = adapter.fit(sampler, 2)
        assert all(np.isfinite(l) for l in losses)

    def test_maml_exact_second_order(self, env):
        wv, cv, sampler, episode = env
        adapter = MAML(wv, cv, N_WAY, make_config(second_order=True))
        before = adapter.model.state_dict()
        losses = adapter.fit(sampler, 1)
        assert all(np.isfinite(l) for l in losses)
        after = adapter.model.state_dict()
        moved = sum(not np.allclose(before[k], after[k]) for k in before)
        assert moved > 0
        predictions = adapter.predict_episode(episode)
        assert len(predictions) == len(episode.query)


    def test_maml_second_order_inner_adapt_outside_fit(self, env):
        """A lone second-order MAML inner loop scopes itself off both
        first-order fused kernels, as ``fit`` does: same fast weights,
        and the query loss still reaches θ through them."""
        from repro.perf import DEFAULT_FASTPATH_STATE, fastpath, fastpath_state

        wv, cv, _sampler, episode = env
        adapter = MAML(wv, cv, N_WAY, make_config(second_order=True))
        fast = adapter._inner_adapt(episode, 1, create_graph=True)
        assert fastpath_state() == DEFAULT_FASTPATH_STATE
        with fastpath(False):
            reference = adapter._inner_adapt(episode, 1, create_graph=True)
        assert all((fast[n].data == reference[n].data).all() for n in fast)
        with fastpath(False):
            batch = adapter.model.encode(list(episode.query), episode.scheme)
            with override_params(adapter.model, fast):
                adapter.model.loss(batch).backward()
        assert any(p.grad is not None and np.abs(p.grad.data).sum() > 0
                   for p in adapter.model.parameters())


class TestInnerLossChoice:
    @pytest.mark.parametrize("inner_loss", ["ce", "crf"])
    def test_both_inner_losses_run(self, env, inner_loss):
        wv, cv, sampler, episode = env
        adapter = FewNER(wv, cv, N_WAY, make_config(inner_loss=inner_loss))
        adapter.fit(sampler, 1)
        predictions = adapter.predict_episode(episode)
        assert len(predictions) == len(episode.query)

    def test_second_order_crf_inner_step_runs_on_graph_nll(self, env):
        """A lone second-order φ step (the E6 timing pattern) with the
        CRF inner loss scopes itself off the first-order fused NLL."""
        from repro.perf import fused_nll_enabled

        wv, cv, _sampler, episode = env
        adapter = FewNER(wv, cv, N_WAY, make_config(inner_loss="crf"))
        phi = adapter._inner_adapt(episode, 1, create_graph=True)
        assert phi._node is not None and np.isfinite(phi.data).all()
        assert fused_nll_enabled()

    def test_inner_dropout_flag(self, env):
        wv, cv, sampler, episode = env
        adapter = FewNER(wv, cv, N_WAY, make_config(
            inner_dropout=True, backbone={"dropout": 0.2}))
        adapter.fit(sampler, 1)
        assert len(adapter.predict_episode(episode)) == len(episode.query)


class TestEncoderVariants:
    @pytest.mark.parametrize("encoder", ["bigru", "bilstm", "transformer"])
    def test_fewner_with_each_encoder(self, env, encoder):
        wv, cv, sampler, episode = env
        adapter = FewNER(wv, cv, N_WAY, make_config(
            backbone={"encoder": encoder}))
        losses = adapter.fit(sampler, 1)
        assert all(np.isfinite(l) for l in losses)
        assert len(adapter.predict_episode(episode)) == len(episode.query)
