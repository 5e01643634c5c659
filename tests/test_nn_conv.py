"""Tests for Conv1d and the character CNN."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import CharCNN, Conv1d
from tests.reference.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def naive_conv1d(x, weight, bias, k, padding):
    """Reference implementation: explicit loops."""
    batch, length, channels = x.shape
    out_channels = weight.shape[1]
    if padding == "same":
        left = (k - 1) // 2
        right = k - 1 - left
        x = np.pad(x, ((0, 0), (left, right), (0, 0)))
        length_out = length
    else:
        length_out = length - k + 1
    out = np.zeros((batch, length_out, out_channels))
    for b in range(batch):
        for t in range(length_out):
            window = x[b, t : t + k, :].reshape(-1)
            out[b, t] = window @ weight + bias
    return out


class TestConv1d:
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_naive(self, rng, padding, k):
        conv = Conv1d(3, 4, k, rng, padding=padding)
        x = rng.normal(size=(2, 6, 3))
        expected = naive_conv1d(x, conv.weight.data, conv.bias.data, k, padding)
        assert np.allclose(conv(Tensor(x)).data, expected)

    def test_same_padding_preserves_length(self, rng):
        conv = Conv1d(2, 2, 4, rng, padding="same")
        assert conv(Tensor(rng.normal(size=(1, 7, 2)))).shape == (1, 7, 2)

    def test_valid_too_short_raises(self, rng):
        conv = Conv1d(2, 2, 5, rng, padding="valid")
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(1, 3, 2))))

    def test_wrong_channels_raises(self, rng):
        conv = Conv1d(3, 2, 2, rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(1, 4, 5))))

    def test_bad_padding_mode(self, rng):
        with pytest.raises(ValueError):
            Conv1d(2, 2, 2, rng, padding="reflect")

    def test_gradcheck(self, rng):
        conv = Conv1d(2, 3, 3, rng)
        x = Tensor(rng.normal(size=(2, 5, 2)), requires_grad=True)
        gradcheck(
            lambda x, w, b: (conv(x).tanh()).sum(), [x, conv.weight, conv.bias]
        )


class TestCharCNN:
    def test_output_shape(self, rng):
        cnn = CharCNN(num_chars=30, char_dim=8, filters_total=9, rng=rng,
                      widths=(2, 3, 4))
        out = cnn(np.array([[1, 2, 3, 0, 0], [4, 5, 6, 7, 8]]))
        assert out.shape == (2, 9)

    def test_filters_must_divide(self, rng):
        with pytest.raises(ValueError):
            CharCNN(num_chars=10, char_dim=4, filters_total=10, rng=rng,
                    widths=(2, 3, 4))

    def test_padding_invariance_of_short_words(self, rng):
        """Max-pooled features should not change when trailing PAD grows,
        as long as the padded embedding row is zero and ReLU clips."""
        cnn = CharCNN(num_chars=20, char_dim=6, filters_total=6, rng=rng)
        short = cnn(np.array([[3, 4, 0, 0]])).data
        longer = cnn(np.array([[3, 4, 0, 0, 0, 0, 0]])).data
        assert np.allclose(short, longer, atol=1e-9)

    def test_differentiable(self, rng):
        cnn = CharCNN(num_chars=15, char_dim=4, filters_total=6, rng=rng)
        ids = np.array([[1, 2, 3], [4, 5, 0]])
        loss = (cnn(ids) ** 2).sum()
        loss.backward()
        assert cnn.char_embedding.weight.grad is not None
