"""Property-based tests for CRF invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.crf import LinearChainCRF, bio_start_mask, bio_transition_mask
from tests.reference import crf as reference
from tests.reference.crf import padded_nll

finite = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)


@st.composite
def crf_and_emissions(draw, max_tags=4, max_len=5):
    num_tags = draw(st.integers(2, max_tags))
    length = draw(st.integers(1, max_len))
    seed = draw(st.integers(0, 10_000))
    em = draw(
        hnp.arrays(dtype=np.float64, shape=(length, num_tags), elements=finite)
    )
    crf = LinearChainCRF(num_tags, np.random.default_rng(seed))
    return crf, em


@settings(max_examples=40, deadline=None)
@given(crf_and_emissions())
def test_partition_upper_bounds_every_path(args):
    """log Z >= every path's score: the shipped B=1 NLL is never
    negative, and it equals the per-sentence oracle's."""
    crf, em = args
    length, num_tags = em.shape
    rng = np.random.default_rng(0)
    for _ in range(5):
        tags = rng.integers(0, num_tags, size=length)
        nll = padded_nll(crf, em, tags).item()
        assert nll >= -1e-9
        assert np.isclose(nll, reference.nll(crf, em, tags).item())


@settings(max_examples=40, deadline=None)
@given(crf_and_emissions())
def test_nll_nonnegative(args):
    crf, em = args
    length, num_tags = em.shape
    tags = np.random.default_rng(1).integers(0, num_tags, size=length)
    assert padded_nll(crf, em, tags).item() >= -1e-9


@settings(max_examples=40, deadline=None)
@given(crf_and_emissions())
def test_viterbi_is_argmax_of_gold_score(args):
    """The Viterbi path has the highest score, so the lowest NLL."""
    crf, em = args
    path = crf.viterbi_decode(em)
    viterbi_nll = padded_nll(crf, em, path).item()
    rng = np.random.default_rng(2)
    length, num_tags = em.shape
    for _ in range(10):
        tags = rng.integers(0, num_tags, size=length)
        assert viterbi_nll <= padded_nll(crf, em, tags).item() + 1e-9


@settings(max_examples=40, deadline=None)
@given(crf_and_emissions())
def test_emission_shift_invariance(args):
    """Adding a constant to every emission shifts both Z and the gold
    score by L * c, so the NLL is invariant."""
    crf, em = args
    length, num_tags = em.shape
    tags = np.random.default_rng(3).integers(0, num_tags, size=length)
    base = padded_nll(crf, em, tags).item()
    shifted = padded_nll(crf, em + 2.5, tags).item()
    assert np.isclose(base, shifted, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 1000))
def test_constrained_decode_always_legal(n_types, seed):
    labels = [f"T{i}" for i in range(n_types)]
    tags = ["O"]
    for lab in labels:
        tags += [f"B-{lab}", f"I-{lab}"]
    rng = np.random.default_rng(seed)
    crf = LinearChainCRF(
        len(tags), rng, bio_transition_mask(tags), bio_start_mask(tags)
    )
    em = rng.normal(size=(6, len(tags))) * 5
    path = crf.viterbi_decode(em)
    assert not tags[path[0]].startswith("I-")
    for prev, cur in zip(path, path[1:]):
        if tags[cur].startswith("I-"):
            t = tags[cur][2:]
            assert tags[prev] in (f"B-{t}", f"I-{t}")
