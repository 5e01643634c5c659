"""Tests for the transformer encoder option."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import SelfAttention, TransformerEncoder
from repro.nn.transformer import sinusoidal_positions
from tests.reference.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(19)


class TestPositions:
    def test_shape_and_range(self):
        pos = sinusoidal_positions(10, 8)
        assert pos.shape == (10, 8)
        assert np.all(np.abs(pos) <= 1.0)

    def test_rows_distinct(self):
        pos = sinusoidal_positions(6, 8)
        for i in range(5):
            assert not np.allclose(pos[i], pos[i + 1])


class TestSelfAttention:
    def test_output_shape(self, rng):
        attn = SelfAttention(6, rng)
        x = Tensor(rng.normal(size=(2, 4, 6)))
        mask = np.ones((2, 4))
        assert attn(x, mask).shape == (2, 4, 6)

    def test_padding_positions_excluded(self, rng):
        """Changing the content of a masked position must not change the
        attention output at real positions."""
        attn = SelfAttention(4, rng)
        x1 = rng.normal(size=(1, 5, 4))
        x2 = x1.copy()
        x2[0, 4] += 10.0  # padded position
        mask = np.array([[1, 1, 1, 1, 0]])
        out1 = attn(Tensor(x1), mask).data
        out2 = attn(Tensor(x2), mask).data
        assert np.allclose(out1[0, :4], out2[0, :4])

    def test_gradients_flow(self, rng):
        attn = SelfAttention(4, rng)
        x = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        (attn(x, np.ones((1, 3))) ** 2).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in attn.parameters())


class TestTransformerEncoder:
    def test_output_dim_matches_recurrent_encoders(self, rng):
        enc = TransformerEncoder(input_size=7, hidden_size=5, rng=rng)
        assert enc.output_dim == 10
        out = enc(Tensor(rng.normal(size=(2, 6, 7))), np.ones((2, 6)))
        assert out.shape == (2, 6, 10)

    def test_position_sensitivity(self, rng):
        """Unlike bag-of-words, swapping tokens changes the output."""
        enc = TransformerEncoder(input_size=4, hidden_size=3, rng=rng, depth=1)
        x = rng.normal(size=(1, 3, 4))
        swapped = x[:, [1, 0, 2], :]
        out1 = enc(Tensor(x)).data
        out2 = enc(Tensor(swapped)).data
        assert not np.allclose(out1[0, 2], out2[0, 2])

    def test_too_long_sequence_rejected(self, rng):
        enc = TransformerEncoder(4, 3, rng, max_length=5)
        with pytest.raises(ValueError):
            enc(Tensor(rng.normal(size=(1, 6, 4))))

    def test_gradcheck_small(self, rng):
        enc = TransformerEncoder(input_size=3, hidden_size=2, rng=rng, depth=1)
        x = Tensor(rng.normal(size=(1, 2, 3)), requires_grad=True)
        gradcheck(lambda x, *ps: (enc(x, np.ones((1, 2))) ** 2).sum(),
                  [x] + enc.parameters(), atol=1e-4, rtol=1e-3)


class TestBackboneTransformer:
    def test_transformer_backbone_trains(self, tiny_dataset, tiny_vocabs):
        from repro.data.tags import TagScheme
        from repro.models import BackboneConfig, CNNBiGRUCRF

        scheme = TagScheme(("PER", "LOC"))
        wv, cv = tiny_vocabs
        cfg = BackboneConfig(word_dim=10, char_dim=6, char_filters=6,
                             hidden=6, dropout=0.0, encoder="transformer")
        model = CNNBiGRUCRF(wv, cv, scheme.num_tags, cfg,
                            np.random.default_rng(0), tag_names=scheme.tags)
        batch = model.encode(tiny_dataset.sentences[:3], scheme)
        loss = model.loss(batch)
        assert np.isfinite(loss.item())
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())
