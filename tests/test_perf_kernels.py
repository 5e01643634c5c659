"""Property tests: batched CRF kernels vs the per-sentence recursions."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.autodiff.tensor import Tensor, grad
from repro.crf import LinearChainCRF, bio_start_mask, bio_transition_mask
from repro.perf import (
    DEFAULT_FASTPATH_STATE,
    fastpath,
    fastpath_state,
    fused_nll_enabled,
)
from repro.perf.kernels import crf_nll_fused


@pytest.fixture
def rng():
    return np.random.default_rng(101)


def random_batch(rng, batch=None, length=None, num_tags=None):
    batch = batch or int(rng.integers(1, 7))
    length = length or int(rng.integers(1, 10))
    num_tags = num_tags or int(rng.integers(2, 7))
    emissions = rng.normal(size=(batch, length, num_tags)) * 2
    tags = rng.integers(0, num_tags, size=(batch, length))
    lengths = rng.integers(1, length + 1, size=batch)
    lengths[0] = length  # at least one full-length row
    mask = (np.arange(length)[None, :] < lengths[:, None]).astype(float)
    return emissions, tags, mask, lengths, num_tags


def grad_of(x):
    """Gradient as an array, or ``None`` for a never-touched parameter
    (both routes skip the transitions entirely for length-1 batches)."""
    if x.grad is None:
        return None
    return np.asarray(x.grad.data if hasattr(x.grad, "data") else x.grad)


class TestDecodeParity:
    def test_viterbi_bit_identical(self, rng):
        for _ in range(15):
            emissions, _tags, mask, lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            batched = crf.viterbi_decode_batch(emissions, mask)
            serial = [
                crf.viterbi_decode(emissions[b, : lengths[b]])
                for b in range(emissions.shape[0])
            ]
            assert batched == serial

    def test_greedy_bit_identical(self, rng):
        for _ in range(15):
            emissions, _tags, mask, lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            batched = crf.argmax_decode_batch(emissions, mask)
            serial = [
                crf.argmax_decode(emissions[b, : lengths[b]])
                for b in range(emissions.shape[0])
            ]
            assert batched == serial

    def test_viterbi_identical_under_ties(self, rng):
        """Quantised emissions tie scores; argmax tie-breaking must match."""
        crf = LinearChainCRF(4, rng)
        crf.transitions.data[:] = 0.0
        emissions = np.round(rng.normal(size=(5, 7, 4)))
        mask = np.ones((5, 7))
        assert crf.viterbi_decode_batch(emissions, mask) == [
            crf.viterbi_decode(emissions[b]) for b in range(5)
        ]

    def test_constrained_crf_parity(self, rng):
        names = ["O", "B-0", "I-0", "B-1", "I-1"]
        crf = LinearChainCRF(
            5, rng, bio_transition_mask(names), bio_start_mask(names)
        )
        emissions, _tags, mask, lengths, _ = random_batch(
            rng, batch=5, length=8, num_tags=5
        )
        assert crf.viterbi_decode_batch(emissions, mask) == [
            crf.viterbi_decode(emissions[b, : lengths[b]]) for b in range(5)
        ]
        assert crf.argmax_decode_batch(emissions, mask) == [
            crf.argmax_decode(emissions[b, : lengths[b]]) for b in range(5)
        ]

    def test_tensor_input_accepted(self, rng):
        crf = LinearChainCRF(3, rng)
        emissions = rng.normal(size=(2, 4, 3))
        mask = np.ones((2, 4))
        assert crf.viterbi_decode_batch(Tensor(emissions), mask) == \
            crf.viterbi_decode_batch(emissions, mask)

    def test_shape_validation(self, rng):
        crf = LinearChainCRF(3, rng)
        with pytest.raises(ValueError):
            crf.viterbi_decode_batch(np.zeros((4, 3)), np.ones((4, 3)))
        with pytest.raises(ValueError):
            crf.viterbi_decode_batch(np.zeros((2, 4, 3)), np.ones((2, 5)))
        with pytest.raises(ValueError):  # empty first row
            crf.viterbi_decode_batch(np.zeros((2, 4, 3)),
                                     np.array([[1, 1, 0, 0], [0, 0, 0, 0]]))
        with pytest.raises(ValueError):  # tag-count mismatch
            crf.viterbi_decode_batch(np.zeros((2, 4, 5)), np.ones((2, 4)))


def viterbi_case(case_seed, batch, length, num_tags, grid, infs):
    """A CRF and a ragged ``(B, L, T)`` batch for the Viterbi parity test.

    ``grid`` puts every emission and CRF score on a 0.5 grid, so step
    maxima tie; ``infs`` scatters ``±inf`` into the real emissions.  Pad
    cells hold NaN, which the batched kernel must never read.
    """
    rng = np.random.default_rng(case_seed)
    crf = LinearChainCRF(num_tags, rng)
    if grid:
        for p in (crf.transitions, crf.start_scores, crf.end_scores):
            p.data[...] = rng.integers(-3, 4, size=p.data.shape) * 0.5
    shape = (batch, length, num_tags)
    emissions = (rng.integers(-4, 5, size=shape) * 0.5 if grid
                 else rng.normal(size=shape) * 2)
    if infs:
        picks = rng.random(shape)
        emissions[picks < 0.1] = np.inf
        emissions[picks > 0.9] = -np.inf
    lengths = rng.integers(1, length + 1, size=batch)
    mask = (np.arange(length)[None, :] < lengths[:, None]).astype(float)
    emissions[mask == 0] = np.nan
    return crf, emissions, mask, lengths


def viterbi_ties(crf, emissions):
    """How many step or final maxima of the per-sentence recursion over
    ``(L, T)`` ``emissions`` are reached by more than one tag."""
    trans, start, end = crf._constrained_scores()
    score = start + emissions[0]
    ties = 0
    for t in range(1, len(emissions)):
        candidate = score[:, None] + trans
        peak = candidate.max(axis=0)
        ties += int(((candidate == peak).sum(axis=0) > 1).sum())
        score = peak + emissions[t]
    final = score + end
    return ties + int((final == final.max()).sum() > 1)


class TestViterbiParity:
    """The batched Viterbi kernel against ``LinearChainCRF.viterbi_decode``
    sentence by sentence: equal paths of Python ints."""

    def assert_parity(self, crf, emissions, mask, lengths):
        # ``inf + -inf`` is a NaN score on both routes, by design.
        with np.errstate(invalid="ignore"):
            batched = crf.viterbi_decode_batch(emissions, mask)
            serial = [crf.viterbi_decode(emissions[b, :n])
                      for b, n in enumerate(lengths)]
        assert batched == serial
        assert [len(path) for path in batched] == list(lengths)
        assert all(type(tag) is int for path in batched for tag in path)

    @seed(27)
    @settings(max_examples=150, deadline=None)
    @given(case_seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6),
           length=st.integers(1, 8), num_tags=st.integers(1, 6),
           grid=st.booleans(), infs=st.booleans())
    def test_batched_paths_equal_per_sentence(self, case_seed, batch, length,
                                              num_tags, grid, infs):
        self.assert_parity(*viterbi_case(case_seed, batch, length, num_tags,
                                         grid, infs))

    @pytest.mark.parametrize("batch,length,num_tags", [
        (1, 1, 1), (1, 1, 5), (1, 6, 1), (4, 1, 3), (1, 6, 4), (4, 6, 1),
    ])
    @pytest.mark.parametrize("infs", [False, True])
    def test_unit_dimensions(self, batch, length, num_tags, infs):
        for case_seed in range(10):
            self.assert_parity(*viterbi_case(case_seed, batch, length,
                                             num_tags, True, infs))

    def test_grid_cases_tie(self):
        """The 0.5 grid really does tie step maxima, so the parity test
        checks the first-index rule."""
        ties = 0
        for case_seed in range(20):
            crf, emissions, mask, lengths = viterbi_case(
                case_seed, 4, 8, 5, True, False)
            self.assert_parity(crf, emissions, mask, lengths)
            ties += sum(viterbi_ties(crf, emissions[b, :n])
                        for b, n in enumerate(lengths))
        assert ties >= 50

    def test_constrained_crf_with_infinite_emissions(self):
        names = ["O", "B-0", "I-0", "B-1", "I-1"]
        for case_seed in range(20):
            crf, emissions, mask, lengths = viterbi_case(
                case_seed, 5, 8, 5, case_seed % 2 == 0, True)
            constrained = LinearChainCRF(
                5, np.random.default_rng(case_seed),
                bio_transition_mask(names), bio_start_mask(names))
            constrained.load_state_dict(crf.state_dict())
            self.assert_parity(constrained, emissions, mask, lengths)


def nll_and_grads(crf, emissions, tags, mask, fused, history=False):
    """Value and the four gradients of the padded NLL on one route.

    ``history`` puts an autodiff op between the leaf and the emissions,
    so the kernel's emission gradient must flow on into the graph."""
    for p in (crf.transitions, crf.start_scores, crf.end_scores):
        p.grad = None
    leaf = Tensor(emissions, requires_grad=True)
    scores = leaf * Tensor(np.array(1.5)) if history else leaf
    with fastpath(fused):
        loss = crf.batch_nll_padded(scores, tags, mask)
    (loss * Tensor(np.array(0.25))).backward()
    return loss.item(), [
        grad_of(t)
        for t in (leaf, crf.transitions, crf.start_scores, crf.end_scores)
    ]


def assert_routes_identical(crf, emissions, tags, mask, history=False):
    graph_value, graph_grads = nll_and_grads(
        crf, emissions, tags, mask, False, history
    )
    fused_value, fused_grads = nll_and_grads(
        crf, emissions, tags, mask, True, history
    )
    assert fused_value == graph_value
    for name, fast, slow in zip(("emissions", "transitions", "start", "end"),
                                fused_grads, graph_grads):
        if slow is None:
            assert fast is None, name
        else:
            assert fast.shape == slow.shape, name
            # Byte equality: bit-identical, signed zeros included.
            assert fast.tobytes() == slow.tobytes(), name


class TestFusedNLL:
    def test_value_matches_autodiff(self, rng):
        for _ in range(10):
            emissions, tags, mask, _lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            with fastpath(False):
                slow = crf.batch_nll_padded(Tensor(emissions), tags, mask)
            fast = crf_nll_fused(crf, Tensor(emissions), tags, mask)
            assert fast.item() == slow.item()

    def test_gradients_match_autodiff(self, rng):
        for _ in range(8):
            emissions, tags, mask, _lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            e_slow = Tensor(emissions, requires_grad=True)
            with fastpath(False):
                crf.batch_nll_padded(e_slow, tags, mask).backward()
            expected = {
                name: grad_of(p)
                for name, p in (("trans", crf.transitions),
                                ("start", crf.start_scores),
                                ("end", crf.end_scores))
            }
            for p in (crf.transitions, crf.start_scores, crf.end_scores):
                p.grad = None
            e_fast = Tensor(emissions, requires_grad=True)
            crf_nll_fused(crf, e_fast, tags, mask).backward()
            assert np.array_equal(grad_of(e_fast), grad_of(e_slow))
            for name, p in (("trans", crf.transitions),
                            ("start", crf.start_scores),
                            ("end", crf.end_scores)):
                if expected[name] is None:
                    assert grad_of(p) is None, name
                else:
                    assert np.array_equal(grad_of(p), expected[name]), name

    def test_second_order_rejected(self, rng):
        crf = LinearChainCRF(3, rng)
        emissions = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        tags = rng.integers(0, 3, size=(2, 4))
        loss = crf_nll_fused(crf, emissions, tags, np.ones((2, 4)))
        with pytest.raises(RuntimeError, match="first-order"):
            loss.backward(create_graph=True)

    def test_default_route_names_the_switch_under_create_graph(self, rng):
        crf = LinearChainCRF(3, rng)
        emissions = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        tags = rng.integers(0, 3, size=(2, 4))
        loss = crf.batch_nll_padded(emissions, tags, np.ones((2, 4)))
        with pytest.raises(RuntimeError, match=r"fastpath\(False\)"):
            grad(loss, [emissions], create_graph=True)
        with fastpath(False):
            loss = crf.batch_nll_padded(emissions, tags, np.ones((2, 4)))
            (g,) = grad(loss, [emissions], create_graph=True)
            (gg,) = grad((g * g).sum(), [emissions])
        assert np.isfinite(gg.data).all()

    def test_validation(self, rng):
        crf = LinearChainCRF(3, rng)
        with pytest.raises(ValueError):  # tag-count mismatch
            crf_nll_fused(
                crf, Tensor(np.zeros((2, 4, 5))),
                np.zeros((2, 4), dtype=int), np.ones((2, 4)),
            )
        with pytest.raises(ValueError):  # tags shape mismatch
            crf_nll_fused(
                crf, Tensor(np.zeros((2, 4, 3))),
                np.zeros((2, 3), dtype=int), np.ones((2, 4)),
            )


class TestFusedNLLBitIdentity:
    """The kernel against the graph it replays: ``==`` on the value and
    on all four gradients, signed zeros included."""

    def test_random_ragged_batches(self, rng):
        for _ in range(60):
            emissions, tags, mask, _lengths, num_tags = random_batch(rng)
            assert_routes_identical(
                LinearChainCRF(num_tags, rng), emissions, tags, mask
            )

    def test_bio_constraints(self, rng):
        names = ["O", "B-0", "I-0", "B-1", "I-1"]
        for _ in range(20):
            crf = LinearChainCRF(
                5, rng, bio_transition_mask(names), bio_start_mask(names)
            )
            emissions, tags, mask, _lengths, _ = random_batch(
                rng, num_tags=5
            )
            assert_routes_identical(crf, emissions, tags, mask)

    def test_quantised_emissions_tie(self, rng):
        """Integer scores and zero transitions tie the max of the
        log-sum-exp; the tie-split mask must be replayed exactly."""
        for _ in range(20):
            emissions, tags, mask, _lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            crf.transitions.data[:] = 0.0
            assert_routes_identical(crf, np.round(emissions), tags, mask)

    def test_single_sentence_and_single_tag(self, rng):
        for batch, num_tags in ((1, 4), (1, 1), (3, 1)):
            for _ in range(5):
                emissions, tags, mask, _lengths, _ = random_batch(
                    rng, batch=batch, num_tags=num_tags
                )
                assert_routes_identical(
                    LinearChainCRF(num_tags, rng), emissions, tags, mask
                )

    def test_emissions_with_history(self, rng):
        for _ in range(10):
            emissions, tags, mask, _lengths, num_tags = random_batch(rng)
            assert_routes_identical(
                LinearChainCRF(num_tags, rng), emissions, tags, mask,
                history=True,
            )

    def test_tenth_rounded_emissions_tie(self, rng):
        """Emissions on a 0.1 grid with zero start and transition scores
        tie in every step's ``from`` column: equal emissions give equal
        forward scores.  The stacked tie-split masks must split them as
        the graph's ``max_`` does."""
        tied = 0
        for _ in range(20):
            _emissions, tags, mask, _lengths, num_tags = random_batch(rng)
            emissions = np.round(
                rng.integers(-3, 4, size=tags.shape + (num_tags,)) * 0.1, 1
            )
            crf = LinearChainCRF(num_tags, rng)
            crf.transitions.data[:] = 0.0
            crf.start_scores.data[:] = 0.0
            assert_routes_identical(crf, emissions, tags, mask)
            tied += any(len(set(row)) < num_tags for row in emissions[:, 0])
        assert tied

    @pytest.mark.parametrize("batch,length", [(1, 1), (1, 2), (1, 9),
                                              (4, 1), (5, 2)])
    def test_edge_shapes(self, rng, batch, length):
        for _ in range(5):
            emissions, tags, mask, _lengths, num_tags = random_batch(
                rng, batch=batch, length=length
            )
            assert_routes_identical(
                LinearChainCRF(num_tags, rng), np.round(emissions, 1),
                tags, mask,
            )

    def test_ragged_masks(self, rng):
        """Every row a different length, one row cut to a single token
        and padded steps in the middle of the batch."""
        for length in (2, 5, 11):
            for _ in range(5):
                emissions, tags, _mask, _lengths, num_tags = random_batch(
                    rng, batch=length, length=length
                )
                lengths = rng.permutation(np.arange(1, length + 1))
                mask = (np.arange(length)[None, :]
                        < lengths[:, None]).astype(float)
                assert_routes_identical(
                    LinearChainCRF(num_tags, rng), emissions, tags, mask
                )

    def test_length_one_leaves_transitions_without_gradient(self, rng):
        emissions, tags, mask, _lengths, num_tags = random_batch(
            rng, batch=3, length=1
        )
        crf = LinearChainCRF(num_tags, rng)
        assert_routes_identical(crf, emissions, tags, mask)
        _value, grads = nll_and_grads(crf, emissions, tags, mask, True)
        assert grads[1] is None
        assert all(g is not None for g in (grads[0], grads[2], grads[3]))


class TestFastpathSwitches:
    def test_defaults(self):
        assert fastpath_state() == DEFAULT_FASTPATH_STATE
        assert fused_nll_enabled()

    def test_fastpath_routes_padded_nll(self, rng):
        emissions, tags, mask, _lengths, num_tags = random_batch(rng)
        crf = LinearChainCRF(num_tags, rng)
        routed = crf.batch_nll_padded(
            Tensor(emissions, requires_grad=True), tags, mask
        )
        # The fused loss is a single tape node: its parents are exactly
        # the emissions and the three CRF parameter tensors.
        assert len(routed._node.parents) == 4
        with fastpath(False):
            assert not fused_nll_enabled()
            graph = crf.batch_nll_padded(
                Tensor(emissions, requires_grad=True), tags, mask
            )
        assert fused_nll_enabled()
        assert len(graph._node.parents) == 2  # sum / batch size

    def test_only_semantic_switches_remain(self):
        """Each switch left guards a first-order-only fast path."""
        assert set(fastpath_state()) == {"fused_nll", "recurrent_kernel"}
        with fastpath():
            assert fused_nll_enabled()
        assert fastpath_state() == DEFAULT_FASTPATH_STATE

    def test_decode_paths_route_identically(self, rng):
        """The batched decode route equals per-sentence Viterbi."""
        emissions, _tags, mask, lengths, num_tags = random_batch(rng)
        crf = LinearChainCRF(num_tags, rng)
        from repro.models.decoding import FULL, decode_emissions_within

        paths, statuses = decode_emissions_within(crf, emissions, mask)
        assert paths == [
            crf.viterbi_decode(emissions[b, : lengths[b]])
            for b in range(emissions.shape[0])
        ]
        assert statuses == [FULL] * len(paths)
