"""Tests for the LSTM cells/layers and the BiLSTM encoder option."""

import numpy as np
import pytest

from repro.autodiff import Tensor, zeros
from repro.nn import BiLSTM, LSTM, LSTMCell
from tests.reference.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(13)


class TestLSTMCell:
    def test_shapes(self, rng):
        cell = LSTMCell(4, 3, rng)
        h, c = cell(Tensor(rng.normal(size=(2, 4))),
                    zeros((2, 3)), zeros((2, 3)))
        assert h.shape == (2, 3)
        assert c.shape == (2, 3)

    def test_forget_bias_initialised_to_one(self, rng):
        cell = LSTMCell(3, 5, rng)
        assert np.allclose(cell.bias.data[5:10], 1.0)
        assert np.allclose(cell.bias.data[:5], 0.0)

    def test_hidden_state_bounded(self, rng):
        cell = LSTMCell(3, 4, rng)
        h, c = zeros((1, 4)), zeros((1, 4))
        for _ in range(30):
            h, c = cell(Tensor(rng.normal(size=(1, 3)) * 3), h, c)
        assert np.all(np.abs(h.data) < 1.0)  # |o * tanh(c)| < 1

    def test_gradcheck(self, rng):
        cell = LSTMCell(2, 2, rng)
        x = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        h = Tensor(rng.normal(size=(1, 2)) * 0.1, requires_grad=True)
        c = Tensor(rng.normal(size=(1, 2)) * 0.1, requires_grad=True)

        def f(x, h, c, *params):
            h2, c2 = cell(x, h, c)
            return (h2 * h2).sum() + (c2.tanh()).sum()

        gradcheck(f, [x, h, c] + cell.parameters())


class TestLSTM:
    def test_output_shape(self, rng):
        lstm = LSTM(4, 3, rng)
        out = lstm(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 3)

    def test_mask_freezes_state(self, rng):
        lstm = LSTM(3, 4, rng)
        x_short = rng.normal(size=(1, 3, 3))
        x_padded = np.concatenate([x_short, rng.normal(size=(1, 2, 3))], axis=1)
        mask = np.array([[1, 1, 1, 0, 0]])
        out_short = lstm(Tensor(x_short)).data
        out_padded = lstm(Tensor(x_padded), mask).data
        assert np.allclose(out_short[:, 2], out_padded[:, 2])
        assert np.allclose(out_padded[:, 2], out_padded[:, 4])


class TestBiLSTM:
    def test_concatenates(self, rng):
        bi = BiLSTM(3, 4, rng)
        out = bi(Tensor(rng.normal(size=(2, 5, 3))))
        assert out.shape == (2, 5, 8)
        assert bi.output_dim == 8

    def test_gradients_flow(self, rng):
        bi = BiLSTM(2, 2, rng)
        x = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        (bi(x) ** 2).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in bi.parameters())


class TestBackboneEncoderChoice:
    def test_bilstm_backbone(self, tiny_dataset, tiny_vocabs):
        from repro.data.tags import TagScheme
        from repro.models import BackboneConfig, CNNBiGRUCRF

        scheme = TagScheme(("PER", "LOC"))
        wv, cv = tiny_vocabs
        cfg = BackboneConfig(word_dim=10, char_dim=6, char_filters=6,
                             hidden=8, dropout=0.0, encoder="bilstm")
        model = CNNBiGRUCRF(wv, cv, scheme.num_tags, cfg,
                            np.random.default_rng(0), tag_names=scheme.tags)
        batch = model.encode(tiny_dataset.sentences[:2], scheme)
        assert np.isfinite(model.loss(batch).item())

    def test_invalid_encoder_rejected(self):
        from repro.models import BackboneConfig

        with pytest.raises(ValueError):
            BackboneConfig(encoder="cnn-only")
