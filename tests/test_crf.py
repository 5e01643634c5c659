"""Tests for the linear-chain CRF against brute-force enumeration."""

import itertools

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.crf import (
    LinearChainCRF,
    bio_start_mask,
    bio_transition_mask,
)
from tests.reference import crf as reference
from tests.reference.crf import padded_nll
from tests.reference.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(8)


def brute_force_paths(crf, emissions):
    """Score every path exhaustively."""
    length, num_tags = emissions.shape
    trans = crf.transitions.data + crf._transition_penalty
    start = crf.start_scores.data + crf._start_penalty
    end = crf.end_scores.data
    scores = {}
    for path in itertools.product(range(num_tags), repeat=length):
        s = start[path[0]] + emissions[0, path[0]]
        for t in range(1, length):
            s += trans[path[t - 1], path[t]] + emissions[t, path[t]]
        s += end[path[-1]]
        scores[path] = s
    return scores


def log_z(scores):
    values = np.array(list(scores.values()))
    return values.max() + np.log(np.exp(values - values.max()).sum())


class TestPartition:
    """log Z read off the shipped NLL: ``NLL(path) + score(path)``."""

    def test_matches_brute_force(self, rng):
        crf = LinearChainCRF(3, rng)
        em = rng.normal(size=(4, 3))
        scores = brute_force_paths(crf, em)
        expected = log_z(scores)
        for path in [(0, 1, 2, 1), (2, 2, 0, 0)]:
            z = padded_nll(crf, em, path).item() + scores[path]
            assert np.isclose(z, expected)
        assert np.isclose(reference.log_partition(crf, em).item(), expected)

    def test_single_token(self, rng):
        crf = LinearChainCRF(4, rng)
        em = rng.normal(size=(1, 4))
        expected = np.logaddexp.reduce(
            crf.start_scores.data + em[0] + crf.end_scores.data
        )
        for tag in range(4):
            z = padded_nll(crf, em, [tag]).item() + (
                crf.start_scores.data[tag] + em[0, tag]
                + crf.end_scores.data[tag]
            )
            assert np.isclose(z, expected)

    def test_partition_exceeds_gold(self, rng):
        crf = LinearChainCRF(3, rng)
        em = rng.normal(size=(5, 3))
        tags = rng.integers(0, 3, size=5)
        assert padded_nll(crf, em, tags).item() > 0.0
        assert (reference.log_partition(crf, em).item()
                > reference.gold_score(crf, em, tags).item())


class TestNLL:
    def test_gradcheck(self, rng):
        crf = LinearChainCRF(3, rng)
        em = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        tags = np.array([0, 1, 2, 1])
        gradcheck(
            lambda e, tr, st, en: padded_nll(crf, e, tags),
            [em, crf.transitions, crf.start_scores, crf.end_scores],
        )

    def test_nll_is_proper_probability(self, rng):
        """exp(-NLL) over all tag paths sums to one."""
        crf = LinearChainCRF(2, rng)
        em = rng.normal(size=(3, 2))
        total = 0.0
        for path in itertools.product(range(2), repeat=3):
            total += np.exp(-padded_nll(crf, em, path).item())
        assert np.isclose(total, 1.0)

    def test_tags_shape_mismatch(self, rng):
        crf = LinearChainCRF(2, rng)
        with pytest.raises(ValueError):
            crf.batch_nll_padded(Tensor(rng.normal(size=(1, 3, 2))),
                                 np.array([[0, 1]]), np.ones((1, 3)))

    def test_batch_nll_is_mean(self, rng):
        crf = LinearChainCRF(3, rng)
        em = rng.normal(size=(2, 4, 3))
        tags = np.array([[0, 1, 2, 0], [1, 1, 0, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]])
        batch = crf.batch_nll_padded(Tensor(em), tags, mask).item()
        singles = [padded_nll(crf, em[0], tags[0]).item(),
                   padded_nll(crf, em[1, :2], tags[1, :2]).item()]
        assert np.isclose(batch, np.mean(singles))

    def test_batch_nll_validation(self, rng):
        crf = LinearChainCRF(2, rng)
        with pytest.raises(ValueError, match="empty batch"):
            crf.batch_nll_padded(Tensor(np.zeros((0, 2, 2))),
                                 np.zeros((0, 2), dtype=int), np.ones((0, 2)))
        with pytest.raises(ValueError, match="shape mismatch"):
            crf.batch_nll_padded(Tensor(np.zeros((1, 2, 2))), np.zeros(0),
                                 np.ones((1, 2)))


class TestBatchedPadded:
    def test_matches_per_sentence(self, rng):
        """On the fused route and on the graph route."""
        from repro.perf import fastpath

        crf = LinearChainCRF(4, rng)
        lens = [5, 2, 4]
        batch, max_len = len(lens), max(lens)
        em = rng.normal(size=(batch, max_len, 4))
        tags = np.zeros((batch, max_len), dtype=int)
        mask = np.zeros((batch, max_len))
        for i, l in enumerate(lens):
            tags[i, :l] = rng.integers(0, 4, size=l)
            mask[i, :l] = 1
        ref = np.mean([
            reference.nll(crf, em[i, :l], tags[i, :l]).item()
            for i, l in enumerate(lens)
        ])
        for fused in (True, False):
            with fastpath(fused):
                got = crf.batch_nll_padded(Tensor(em), tags, mask).item()
            assert np.isclose(ref, got)

    def test_gradcheck(self, rng):
        crf = LinearChainCRF(3, rng)
        em = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        tags = np.array([[0, 1, 2], [1, 0, 0]])
        mask = np.array([[1, 1, 1], [1, 1, 0]])
        gradcheck(
            lambda e, tr, st, en: crf.batch_nll_padded(e, tags, mask),
            [em, crf.transitions, crf.start_scores, crf.end_scores],
        )

    MALFORMED = {
        "empty-batch": ((0, 3, 3), np.zeros((0, 3)), np.ones((0, 3))),
        "zero-length": ((2, 0, 3), np.zeros((2, 0)), np.ones((2, 0))),
        "tag-count": ((2, 3, 4), np.zeros((2, 3)), np.ones((2, 3))),
        "tag-out-of-range": ((2, 3, 3), np.array([[0, 3, 1], [0, 0, 0]]),
                             np.ones((2, 3))),
        "non-prefix-mask": ((2, 4, 3), np.zeros((2, 4)),
                            np.array([[1, 0, 1, 1], [1, 1, 1, 1]])),
    }

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "graph"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_batch_rejected_on_both_routes(self, rng, case, fused):
        from repro.perf import fastpath

        crf = LinearChainCRF(3, rng)
        shape, tags, mask = self.MALFORMED[case]
        emissions = Tensor(rng.normal(size=shape), requires_grad=True)
        with fastpath(fused), pytest.raises(ValueError):
            crf.batch_nll_padded(emissions, tags.astype(int), mask)

    def test_empty_first_token_rejected(self, rng):
        crf = LinearChainCRF(2, rng)
        with pytest.raises(ValueError):
            crf.batch_nll_padded(
                Tensor(np.zeros((1, 2, 2))), np.zeros((1, 2), dtype=int),
                np.zeros((1, 2)),
            )


class TestViterbi:
    def test_matches_brute_force(self, rng):
        crf = LinearChainCRF(3, rng)
        for _ in range(10):
            em = rng.normal(size=(5, 3)) * 2
            scores = brute_force_paths(crf, em)
            best = max(scores, key=lambda p: scores[p])
            assert crf.viterbi_decode(em) == list(best)

    def test_accepts_tensor_input(self, rng):
        crf = LinearChainCRF(2, rng)
        em = Tensor(rng.normal(size=(3, 2)))
        assert len(crf.viterbi_decode(em)) == 3

    def test_tag_count_mismatch(self, rng):
        crf = LinearChainCRF(2, rng)
        with pytest.raises(ValueError):
            crf.viterbi_decode(rng.normal(size=(3, 5)))


class TestConstraints:
    TAGS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]

    def test_transition_mask_shape(self):
        mask = bio_transition_mask(self.TAGS)
        assert mask.shape == (5, 5)
        tags = self.TAGS
        # I-PER only after B-PER / I-PER
        i_per = tags.index("I-PER")
        assert not mask[tags.index("O"), i_per]
        assert not mask[tags.index("B-LOC"), i_per]
        assert mask[tags.index("B-PER"), i_per]
        assert mask[i_per, i_per]

    def test_start_mask(self):
        mask = bio_start_mask(self.TAGS)
        assert mask[0] and mask[1] and not mask[2]

    def test_decode_never_violates_bio(self, rng):
        crf = LinearChainCRF(
            5, rng, bio_transition_mask(self.TAGS), bio_start_mask(self.TAGS)
        )
        for _ in range(30):
            em = rng.normal(size=(6, 5)) * 4
            path = crf.viterbi_decode(em)
            assert self.TAGS[path[0]][0] != "I"
            for prev, cur in zip(path, path[1:]):
                if self.TAGS[cur].startswith("I-"):
                    cur_type = self.TAGS[cur][2:]
                    assert self.TAGS[prev] in (f"B-{cur_type}", f"I-{cur_type}")

    def test_invalid_tag_string(self):
        with pytest.raises(ValueError):
            bio_transition_mask(["O", "X-PER"])

    def test_mask_shape_validation(self, rng):
        with pytest.raises(ValueError):
            LinearChainCRF(3, rng, transition_mask=np.ones((2, 2), dtype=bool))
