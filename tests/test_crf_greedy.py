"""Greedy argmax decode: the serving layer's cheap fallback for Viterbi."""

import numpy as np
import pytest

from repro.crf import LinearChainCRF, bio_start_mask, bio_transition_mask

TAGS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]


class TestAgreementWithViterbi:
    def test_exact_when_transitions_are_zero(self, rng):
        """With a uniform (zero) transition matrix the per-step argmax IS
        the global optimum, so greedy and Viterbi must agree exactly —
        even with random start/end scores."""
        crf = LinearChainCRF(4, rng)
        crf.transitions.data[:] = 0.0
        for _ in range(20):
            length = int(rng.integers(1, 12))
            emissions = rng.normal(size=(length, 4))
            assert crf.argmax_decode(emissions) == crf.viterbi_decode(emissions)

    def test_exact_with_zero_transitions_and_bio_masks(self, rng):
        crf = LinearChainCRF(
            len(TAGS), rng,
            transition_mask=bio_transition_mask(TAGS),
            start_mask=bio_start_mask(TAGS),
        )
        crf.transitions.data[:] = 0.0
        for _ in range(20):
            length = int(rng.integers(1, 10))
            emissions = rng.normal(size=(length, len(TAGS)))
            greedy = crf.argmax_decode(emissions)
            viterbi = crf.viterbi_decode(emissions)
            score = lambda p: (
                crf.start_scores.data[p[0]]
                + sum(emissions[t, p[t]] for t in range(length))
                + sum(crf.transitions.data[p[t - 1], p[t]]
                      for t in range(1, length))
                + crf.end_scores.data[p[-1]]
            )
            # The mask couples steps, so paths may differ — but with zero
            # transitions a legal greedy path can never score better than
            # Viterbi's optimum and both must be mask-legal.
            assert score(greedy) <= score(viterbi) + 1e-9

    def test_matches_on_length_one(self, rng):
        crf = LinearChainCRF(6, rng)
        emissions = rng.normal(size=(1, 6))
        assert crf.argmax_decode(emissions) == crf.viterbi_decode(emissions)


class TestStructuralLegality:
    def test_respects_bio_masks(self, rng):
        """Greedy must never emit an illegal transition or start tag."""
        transition_mask = bio_transition_mask(TAGS)
        start_mask = bio_start_mask(TAGS)
        crf = LinearChainCRF(
            len(TAGS), rng,
            transition_mask=transition_mask, start_mask=start_mask,
        )
        # Emissions that scream for the illegal I- tags.
        for _ in range(10):
            length = int(rng.integers(2, 9))
            emissions = np.full((length, len(TAGS)), -5.0)
            emissions[:, 2] = 10.0  # I-PER everywhere, including position 0
            emissions += rng.normal(scale=0.1, size=emissions.shape)
            path = crf.argmax_decode(emissions)
            assert start_mask[path[0]]
            for prev, cur in zip(path, path[1:]):
                assert transition_mask[prev, cur]

    def test_accepts_tensor_emissions(self, rng):
        from repro.autodiff import Tensor

        crf = LinearChainCRF(3, rng)
        emissions = rng.normal(size=(4, 3))
        assert crf.argmax_decode(Tensor(emissions)) == crf.argmax_decode(
            emissions
        )

    def test_wrong_tag_count_rejected(self, rng):
        crf = LinearChainCRF(3, rng)
        with pytest.raises(ValueError, match="expects 3"):
            crf.argmax_decode(rng.normal(size=(4, 5)))


class _OpenDeadline:
    """A deadline with budget left: forces the per-sentence route."""

    expired = False


def _within(**kwargs):
    from repro.models.decoding import decode_emissions_within

    def route(crf, emissions):
        # A well-formed sentence first: the bad one must still raise.
        good = np.zeros((3, crf.num_tags))
        return decode_emissions_within(crf, [good, emissions], **kwargs)
    return route


DECODE_ROUTES = {
    "viterbi": lambda crf, e: crf.viterbi_decode(e),
    "greedy": lambda crf, e: crf.argmax_decode(e),
    "viterbi-batch": lambda crf, e: crf.viterbi_decode_batch(
        e[None], np.ones((1, e.shape[0]))),
    "greedy-batch": lambda crf, e: crf.argmax_decode_batch(
        e[None], np.ones((1, e.shape[0]))),
    "within-batched": _within(),
    "within-deadline": _within(deadline=_OpenDeadline()),
    "within-breaker-open": _within(allow_viterbi=False),
}


class TestMalformedEmissions:
    """Every decode route rejects bad emissions with one typed error."""

    @pytest.mark.parametrize("route", sorted(DECODE_ROUTES))
    def test_zero_length_raises_value_error(self, rng, route):
        crf = LinearChainCRF(4, rng)
        with pytest.raises(ValueError, match="at least one token"):
            DECODE_ROUTES[route](crf, np.zeros((0, 4)))

    @pytest.mark.parametrize("route", sorted(DECODE_ROUTES))
    def test_tag_count_mismatch_raises_value_error(self, rng, route):
        crf = LinearChainCRF(4, rng)
        with pytest.raises(ValueError, match="CRF expects 4"):
            DECODE_ROUTES[route](crf, np.zeros((3, 5)))
