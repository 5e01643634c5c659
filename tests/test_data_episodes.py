"""Tests for the greedy-including N-way K-shot episode sampler (§3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.episodes import Episode, EpisodeSampler
from repro.data.sentence import Dataset, Sentence, Span
from repro.data.synthetic import generate_dataset


@pytest.fixture(scope="module")
def corpus():
    return generate_dataset("GENIA", scale=0.05, seed=0)


class TestSamplerValidation:
    def test_rejects_bad_params(self, corpus):
        with pytest.raises(ValueError):
            EpisodeSampler(corpus, 0, 1)
        with pytest.raises(ValueError):
            EpisodeSampler(corpus, 5, 0)

    def test_rejects_too_few_types(self):
        ds = Dataset("x", [Sentence(("a",), (Span(0, 1, "T"),))])
        with pytest.raises(ValueError):
            EpisodeSampler(ds, 5, 1)

    def test_rejects_unannotated_dataset(self):
        ds = Dataset("x", [Sentence(("a",))])
        with pytest.raises(ValueError):
            EpisodeSampler(ds, 1, 1)


class TestEpisodeInvariants:
    @pytest.mark.parametrize("n_way,k_shot", [(3, 1), (5, 1), (5, 5), (2, 3)])
    def test_way_and_shot_satisfied(self, corpus, n_way, k_shot):
        sampler = EpisodeSampler(corpus, n_way, k_shot, query_size=4, seed=0)
        for episode in sampler.sample_many(5):
            assert episode.n_way == n_way
            counts = episode.support_counts()
            assert set(counts) <= set(episode.types)
            for t in episode.types:
                assert counts[t] >= k_shot

    def test_support_minimality(self, corpus):
        """Removing any support sentence must break the N-way K-shot
        guarantee (final clause of §3.1)."""
        sampler = EpisodeSampler(corpus, 5, 1, query_size=4, seed=1)
        for episode in sampler.sample_many(5):
            for drop in range(len(episode.support)):
                remaining = [
                    s for i, s in enumerate(episode.support) if i != drop
                ]
                counts = {}
                for s in remaining:
                    for span in s.spans:
                        counts[span.label] = counts.get(span.label, 0) + 1
                broken = len(counts) < 5 or any(
                    counts.get(t, 0) < 1 for t in episode.types
                )
                assert broken, "support set is not minimal"

    def test_query_disjoint_from_support(self, corpus):
        sampler = EpisodeSampler(corpus, 5, 1, query_size=6, seed=2)
        episode = sampler.sample()
        support_keys = {s.tokens for s in episode.support}
        assert all(q.tokens not in support_keys for q in episode.query)

    def test_labels_restricted_to_task_types(self, corpus):
        sampler = EpisodeSampler(corpus, 5, 1, query_size=6, seed=3)
        episode = sampler.sample()
        for sent in episode.support + episode.query:
            assert {s.label for s in sent.spans} <= set(episode.types)

    def test_query_sentences_mention_task_types(self, corpus):
        sampler = EpisodeSampler(corpus, 5, 1, query_size=6, seed=4)
        episode = sampler.sample()
        assert all(sent.spans for sent in episode.query)

    def test_fixed_seed_reproducible(self, corpus):
        eps_a = EpisodeSampler(corpus, 5, 1, query_size=4, seed=9).sample_many(3)
        eps_b = EpisodeSampler(corpus, 5, 1, query_size=4, seed=9).sample_many(3)
        for a, b in zip(eps_a, eps_b):
            assert a.types == b.types
            assert [s.tokens for s in a.support] == [s.tokens for s in b.support]
            assert [s.tokens for s in a.query] == [s.tokens for s in b.query]

    def test_scheme_uses_binding_order(self, corpus):
        episode = EpisodeSampler(corpus, 3, 1, seed=5).sample()
        scheme = episode.scheme
        assert scheme.tags[0] == "O"
        assert scheme.tags[1] == f"B-{episode.types[0]}"


class TestGreedyGain:
    def test_paper_example(self):
        """The worked example of §3.1: a sentence with no way/shot gain is
        skipped."""
        sentences = [
            Sentence(("Jordan", "is", "a", "NBA", "player"),
                     (Span(0, 1, "PER"), Span(3, 4, "ORG"))),
            Sentence(("The", "Chicago", "Bulls", "selected", "Jordan"),
                     (Span(0, 3, "ORG"), Span(4, 5, "PER"))),
            Sentence(("Jordan", "was", "seen", "in", "Atlantic", "City"),
                     (Span(0, 1, "PER"), Span(4, 6, "LOC"))),
            Sentence(("extra", "Atlantic", "mention"), (Span(1, 2, "LOC"),)),
            Sentence(("another", "NBA", "note"), (Span(1, 2, "ORG"),)),
        ]
        ds = Dataset("example", sentences)
        sampler = EpisodeSampler(ds, 3, 1, query_size=1, seed=0)
        episode = sampler.sample()
        assert set(episode.types) == {"PER", "ORG", "LOC"}
        counts = episode.support_counts()
        assert all(counts[t] >= 1 for t in episode.types)


class TestQueryPoolIndex:
    @pytest.mark.parametrize("seed,n_way,k_shot", [
        (0, 5, 1), (1, 3, 5), (7, 2, 3), (11, 5, 5),
    ])
    def test_episodes_match_the_span_scan(self, corpus, seed, n_way,
                                          k_shot):
        from tests.reference.episodes import ScanEpisodeSampler

        fast = EpisodeSampler(corpus, n_way, k_shot, query_size=8, seed=seed)
        scan = ScanEpisodeSampler(corpus, n_way, k_shot, query_size=8,
                                  seed=seed)
        assert fast.sample_many(12) == scan.sample_many(12)
        assert fast.rng_state() == scan.rng_state()


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 50))
def test_sampler_invariants_property(n_way, k_shot, seed):
    corpus = generate_dataset("OntoNotes", scale=0.03, seed=1)
    sampler = EpisodeSampler(corpus, n_way, k_shot, query_size=3, seed=seed)
    episode = sampler.sample()
    counts = episode.support_counts()
    assert len(episode.types) == n_way
    assert all(counts[t] >= k_shot for t in episode.types)
