"""Tests for composite functional ops (softmax family, losses, dropout)."""

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_lse
from scipy.special import softmax as scipy_softmax

from repro.autodiff import (
    Tensor,
    cross_entropy,
    dropout_mask,
    log_softmax,
    logsumexp,
    mse_loss,
    nll_loss,
    softmax,
)
from tests.reference.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestLogsumexp:
    def test_matches_scipy(self, rng):
        x = rng.normal(size=(3, 5)) * 10
        assert np.allclose(logsumexp(Tensor(x), axis=1).data, scipy_lse(x, axis=1))
        assert np.allclose(logsumexp(Tensor(x)).data, scipy_lse(x))
        assert np.allclose(
            logsumexp(Tensor(x), axis=0, keepdims=True).data,
            scipy_lse(x, axis=0, keepdims=True),
        )

    def test_extreme_values_stable(self):
        x = Tensor(np.array([1000.0, 1000.0]))
        assert np.isclose(logsumexp(x).item(), 1000.0 + np.log(2))
        x = Tensor(np.array([-1000.0, -999.0]))
        assert np.isfinite(logsumexp(x).item())

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        gradcheck(lambda x: logsumexp(x, axis=1).sum(), [x])
        gradcheck(lambda x: logsumexp(x), [x])

    def test_negative_axis(self, rng):
        x = rng.normal(size=(2, 3, 4))
        assert np.allclose(
            logsumexp(Tensor(x), axis=-1).data, scipy_lse(x, axis=-1)
        )


class TestSoftmax:
    def test_matches_scipy(self, rng):
        x = rng.normal(size=(3, 6))
        assert np.allclose(softmax(Tensor(x), axis=1).data, scipy_softmax(x, axis=1))

    def test_rows_sum_to_one(self, rng):
        out = softmax(Tensor(rng.normal(size=(5, 7))), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_log_softmax_consistency(self, rng):
        x = Tensor(rng.normal(size=(2, 4)))
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data))

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        gradcheck(lambda x: (softmax(x, axis=-1) ** 2).sum(), [x])


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.normal(size=(4, 3))
        targets = np.array([0, 2, 1, 1])
        manual = -np.mean(
            np.log(scipy_softmax(logits, axis=1))[np.arange(4), targets]
        )
        got = cross_entropy(Tensor(logits), targets).item()
        assert np.isclose(got, manual)

    def test_cross_entropy_reductions(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)))
        targets = np.array([1, 0, 3])
        none = cross_entropy(logits, targets, reduction="none")
        assert none.shape == (3,)
        assert np.isclose(
            cross_entropy(logits, targets, reduction="sum").item(),
            none.data.sum(),
        )

    def test_nll_loss_rejects_bad_reduction(self, rng):
        with pytest.raises(ValueError):
            nll_loss(Tensor(rng.normal(size=(2, 2))), [0, 1], reduction="bogus")

    def test_cross_entropy_gradcheck(self, rng):
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        targets = np.array([0, 1, 2, 3, 0])
        gradcheck(lambda x: cross_entropy(x, targets), [logits])

    def test_mse(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)))
        assert np.isclose(mse_loss(a, b).item(), np.mean((a.data - b.data) ** 2))
        gradcheck(lambda a: mse_loss(a, b), [a])


class TestDropoutMask:
    def test_zero_p_is_ones(self, rng):
        mask = dropout_mask((10,), 0.0, rng)
        assert np.allclose(mask.data, 1.0)

    def test_scaling_preserves_expectation(self, rng):
        mask = dropout_mask((20000,), 0.4, rng)
        assert np.isclose(mask.data.mean(), 1.0, atol=0.02)
        kept = mask.data[mask.data > 0]
        assert np.allclose(kept, 1.0 / 0.6)

    def test_invalid_p_raises(self, rng):
        with pytest.raises(ValueError):
            dropout_mask((2,), 1.0, rng)
        with pytest.raises(ValueError):
            dropout_mask((2,), -0.1, rng)
