"""Property tests: batched CRF kernels vs the per-sentence recursions."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.crf import LinearChainCRF, bio_start_mask, bio_transition_mask
from repro.perf import (
    DEFAULT_FASTPATH_STATE,
    fastpath,
    fastpath_state,
    fused_nll_enabled,
)
from repro.perf.kernels import crf_forward_batch, crf_nll_fused


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
    """Gradient as an array; a never-touched parameter counts as zeros
    (the legacy graph skips transitions entirely for length-1 batches,
    while the fused kernel reports an explicit zero gradient)."""
    if x.grad is None:
        return np.zeros(np.shape(x.data))
    return np.asarray(x.grad.data if hasattr(x.grad, "data") else x.grad)


class TestForwardParity:
    def test_log_partition_matches_per_sentence(self, rng):
        for _ in range(15):
            emissions, _tags, mask, lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            trans = crf.transitions.data + crf._transition_penalty
            start = crf.start_scores.data + crf._start_penalty
            log_z = crf_forward_batch(
                trans, start, crf.end_scores.data, emissions, mask
            )
            for b in range(emissions.shape[0]):
                expected = crf.log_partition(
                    Tensor(emissions[b, : lengths[b]])
                ).item()
                assert log_z[b] == pytest.approx(expected, abs=1e-10)


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


class TestFusedNLL:
    def test_value_matches_autodiff(self, rng):
        for _ in range(10):
            emissions, tags, mask, _lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            slow = crf.batch_nll_padded(Tensor(emissions), tags, mask)
            fast = crf_nll_fused(crf, Tensor(emissions), tags, mask)
            assert fast.item() == pytest.approx(slow.item(), abs=1e-10)

    def test_gradients_match_autodiff(self, rng):
        for _ in range(8):
            emissions, tags, mask, _lengths, num_tags = random_batch(rng)
            crf = LinearChainCRF(num_tags, rng)
            e_slow = Tensor(emissions, requires_grad=True)
            crf.batch_nll_padded(e_slow, tags, mask).backward()
            expected = {
                name: grad_of(p).copy()
                for name, p in (("trans", crf.transitions),
                                ("start", crf.start_scores),
                                ("end", crf.end_scores))
            }
            for p in (crf.transitions, crf.start_scores, crf.end_scores):
                p.grad = None
            e_fast = Tensor(emissions, requires_grad=True)
            crf_nll_fused(crf, e_fast, tags, mask).backward()
            np.testing.assert_allclose(
                grad_of(e_fast), grad_of(e_slow), atol=1e-8
            )
            for name, p in (("trans", crf.transitions),
                            ("start", crf.start_scores),
                            ("end", crf.end_scores)):
                np.testing.assert_allclose(
                    grad_of(p), expected[name], atol=1e-8, err_msg=name
                )

    def test_second_order_rejected(self, rng):
        crf = LinearChainCRF(3, rng)
        emissions = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        tags = rng.integers(0, 3, size=(2, 4))
        loss = crf_nll_fused(crf, emissions, tags, np.ones((2, 4)))
        with pytest.raises(RuntimeError, match="first-order"):
            loss.backward(create_graph=True)

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


class TestFastpathSwitches:
    def test_defaults(self):
        assert fastpath_state() == DEFAULT_FASTPATH_STATE
        assert not fused_nll_enabled()

    def test_fastpath_routes_padded_nll(self, rng):
        emissions, tags, mask, _lengths, num_tags = random_batch(rng)
        crf = LinearChainCRF(num_tags, rng)
        with fastpath():
            assert fused_nll_enabled()
            routed = crf.batch_nll_padded(
                Tensor(emissions, requires_grad=True), tags, mask
            )
        assert not fused_nll_enabled()
        # The fused loss is a single tape node: its parents are exactly
        # the emissions and the three CRF parameter tensors.
        assert len(routed._node.parents) == 4

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

        rows = [
            Tensor(emissions[b, : lengths[b]])
            for b in range(emissions.shape[0])
        ]
        paths, statuses = decode_emissions_within(crf, rows)
        assert paths == [crf.viterbi_decode(row) for row in rows]
        assert statuses == [FULL] * len(rows)
