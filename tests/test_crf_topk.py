"""Tests for top-k Viterbi decoding."""

import itertools

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.crf import LinearChainCRF
from tests.reference.crf import viterbi_top_k_reference


@pytest.fixture
def rng():
    return np.random.default_rng(29)


def all_path_scores(crf, emissions):
    length, num_tags = emissions.shape
    trans = crf.transitions.data + crf._transition_penalty
    start = crf.start_scores.data + crf._start_penalty
    end = crf.end_scores.data
    out = []
    for path in itertools.product(range(num_tags), repeat=length):
        s = start[path[0]] + emissions[0, path[0]]
        for t in range(1, length):
            s += trans[path[t - 1], path[t]] + emissions[t, path[t]]
        s += end[path[-1]]
        out.append((list(path), s))
    out.sort(key=lambda item: item[1], reverse=True)
    return out


class TestTopK:
    def test_top1_matches_viterbi(self, rng):
        crf = LinearChainCRF(3, rng)
        em = rng.normal(size=(5, 3))
        (best_path, _score), = crf.viterbi_top_k(em, k=1)
        assert best_path == crf.viterbi_decode(em)

    def test_matches_brute_force_ranking(self, rng):
        crf = LinearChainCRF(3, rng)
        em = rng.normal(size=(4, 3)) * 2
        top = crf.viterbi_top_k(em, k=5)
        brute = all_path_scores(crf, em)[:5]
        for (path, score), (b_path, b_score) in zip(top, brute):
            assert score == pytest.approx(b_score)
        # Paths with distinct scores must match exactly.
        assert top[0][0] == brute[0][0]

    def test_scores_descend(self, rng):
        crf = LinearChainCRF(4, rng)
        em = rng.normal(size=(6, 4))
        scores = [s for _p, s in crf.viterbi_top_k(em, k=4)]
        assert scores == sorted(scores, reverse=True)

    def test_paths_unique(self, rng):
        crf = LinearChainCRF(3, rng)
        em = rng.normal(size=(5, 3))
        paths = [tuple(p) for p, _s in crf.viterbi_top_k(em, k=6)]
        assert len(paths) == len(set(paths))

    def test_k_larger_than_path_space(self, rng):
        crf = LinearChainCRF(2, rng)
        em = rng.normal(size=(2, 2))
        results = crf.viterbi_top_k(em, k=10)
        assert len(results) <= 10

    def test_validation(self, rng):
        crf = LinearChainCRF(2, rng)
        with pytest.raises(ValueError):
            crf.viterbi_top_k(np.zeros((2, 2)), k=0)
        with pytest.raises(ValueError):
            crf.viterbi_top_k(np.zeros((2, 5)), k=2)

    def test_accepts_tensor(self, rng):
        crf = LinearChainCRF(2, rng)
        out = crf.viterbi_top_k(Tensor(rng.normal(size=(3, 2))), k=2)
        assert len(out) == 2


class TestHeapMergeParity:
    """The heap-merge top-k must reproduce the full-sort scan exactly."""

    def test_matches_reference_random(self, rng):
        for _ in range(30):
            num_tags = int(rng.integers(2, 6))
            length = int(rng.integers(1, 8))
            k = int(rng.integers(1, 7))
            crf = LinearChainCRF(num_tags, rng)
            em = rng.normal(size=(length, num_tags))
            assert crf.viterbi_top_k(em, k) == \
                viterbi_top_k_reference(crf, em, k)

    def test_matches_reference_tie_heavy(self, rng):
        """Quantised emissions and zero transitions force score ties; the
        merge must break them identically (smaller previous tag first,
        then better beam rank)."""
        for trial in range(20):
            num_tags = int(rng.integers(2, 5))
            length = int(rng.integers(2, 6))
            crf = LinearChainCRF(num_tags, rng)
            crf.transitions.data[:] = 0.0
            crf.start_scores.data[:] = 0.0
            crf.end_scores.data[:] = 0.0
            em = np.round(rng.normal(size=(length, num_tags)))
            if trial % 2:
                em[:] = 0.0  # every path ties
            for k in (1, 3, 8):
                assert crf.viterbi_top_k(em, k) == \
                    viterbi_top_k_reference(crf, em, k)

    def test_matches_reference_constrained(self, rng):
        from repro.crf import bio_start_mask, bio_transition_mask

        names = ["O", "B-0", "I-0", "B-1", "I-1"]
        crf = LinearChainCRF(
            5, rng, bio_transition_mask(names), bio_start_mask(names)
        )
        em = rng.normal(size=(6, 5))
        assert crf.viterbi_top_k(em, 4) == \
            viterbi_top_k_reference(crf, em, 4)
