"""Tests for basic layers."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import Dropout, Embedding, LayerNorm, Linear
from tests.reference.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(4)


class TestLinear:
    def test_output_shape_and_value(self, rng):
        lin = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        out = lin(Tensor(x))
        assert out.shape == (5, 3)
        assert np.allclose(out.data, x @ lin.weight.data + lin.bias.data)

    def test_no_bias(self, rng):
        lin = Linear(4, 3, rng, bias=False)
        assert "bias" not in dict(lin.named_parameters())
        out = lin(Tensor(np.zeros((2, 4))))
        assert np.allclose(out.data, 0)

    def test_3d_input(self, rng):
        lin = Linear(4, 2, rng)
        out = lin(Tensor(rng.normal(size=(2, 3, 4))))
        assert out.shape == (2, 3, 2)

    def test_gradcheck(self, rng):
        lin = Linear(3, 2, rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        gradcheck(lambda x, w, b: (lin(x).tanh()).sum(), [x, lin.weight, lin.bias])


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng)
        ids = np.array([[1, 2], [3, 1]])
        out = emb(ids)
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.data[0, 0], emb.weight.data[1])
        assert np.allclose(out.data[1, 1], emb.weight.data[1])

    def test_padding_row_zero(self, rng):
        emb = Embedding(10, 4, rng, padding_idx=0)
        assert np.allclose(emb.weight.data[0], 0)

    def test_pretrained_weight(self, rng):
        w = rng.normal(size=(6, 3))
        emb = Embedding(6, 3, rng, weight=w)
        assert np.allclose(emb.weight.data, w)

    def test_pretrained_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            Embedding(6, 3, rng, weight=np.zeros((5, 3)))

    def test_out_of_range_raises(self, rng):
        emb = Embedding(5, 2, rng)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_accumulates_per_row(self, rng):
        emb = Embedding(4, 2, rng)
        emb(np.array([1, 1, 2])).sum().backward()
        g = emb.weight.grad.data
        assert np.allclose(g[1], 2.0)
        assert np.allclose(g[2], 1.0)
        assert np.allclose(g[0], 0.0)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        drop = Dropout(0.5, rng)
        drop.eval()
        x = Tensor(rng.normal(size=(10,)))
        assert np.allclose(drop(x).data, x.data)

    def test_train_mode_zeroes_and_scales(self, rng):
        drop = Dropout(0.5, rng)
        x = Tensor(np.ones((5000,)))
        out = drop(x).data
        zeros = (out == 0).mean()
        assert 0.4 < zeros < 0.6
        assert np.allclose(out[out != 0], 2.0)

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.5, rng)


class TestLayerNorm:
    def test_normalises_last_axis(self, rng):
        ln = LayerNorm(8)
        x = Tensor(rng.normal(size=(3, 8)) * 5 + 2)
        out = ln(x).data
        assert np.allclose(out.mean(axis=-1), 0, atol=1e-7)
        assert np.allclose(out.std(axis=-1), 1, atol=1e-3)

    def test_gradcheck(self, rng):
        ln = LayerNorm(4)
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        gradcheck(lambda x, g, b: (ln(x) ** 2).sum(), [x, ln.gamma, ln.beta])
