"""Tests for the conditioning layers (paper §3.2.4)."""

import numpy as np
import pytest

from repro.autodiff import Tensor, grad
from repro.nn import ConcatConditioner, FiLM
from tests.reference.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestFiLM:
    def test_zero_context_is_identity(self, rng):
        """φ = 0 (the per-task initialisation) must leave the backbone
        unmodulated — required for the pretrain/meta handover."""
        film = FiLM(6, 5, rng)
        h = Tensor(rng.normal(size=(2, 4, 5)))
        out = film(h, Tensor(np.zeros(6)))
        assert np.allclose(out.data, h.data)

    def test_modulation_changes_output(self, rng):
        film = FiLM(3, 4, rng)
        h = Tensor(rng.normal(size=(2, 4)))
        out = film(h, Tensor(np.ones(3)))
        assert not np.allclose(out.data, h.data)

    def test_gamma_eta_decomposition(self, rng):
        film = FiLM(3, 4, rng)
        phi = rng.normal(size=3)
        h = rng.normal(size=(2, 4))
        filmvec = phi @ film.weight.data + film.bias.data
        gamma, eta = filmvec[:4], filmvec[4:]
        expected = (1 + gamma) * h + eta
        assert np.allclose(film(Tensor(h), Tensor(phi)).data, expected)

    def test_gradcheck_wrt_phi_and_weights(self, rng):
        film = FiLM(2, 3, rng)
        h = Tensor(rng.normal(size=(2, 3)))
        phi = Tensor(rng.normal(size=2), requires_grad=True)
        gradcheck(
            lambda p, w, b: (film(h, p).tanh()).sum(),
            [phi, film.weight, film.bias],
        )

    def test_second_order_through_phi(self, rng):
        """The FEWNER inner/outer pattern through the conditioner."""
        film = FiLM(2, 3, rng)
        h = Tensor(rng.normal(size=(4, 3)))
        phi = Tensor(np.zeros(2), requires_grad=True)
        loss = (film(h, phi) ** 2).sum()
        (g_phi,) = grad(loss, [phi], create_graph=True)
        phi1 = phi - Tensor(np.array(0.1)) * g_phi
        outer = (film(h, phi1) ** 2).sum()
        gs = grad(outer, [film.weight, film.bias])
        assert all(g is not None and np.isfinite(g.data).all() for g in gs)


class TestConcatConditioner:
    def test_output_shape(self, rng):
        cc = ConcatConditioner(3, 5, rng)
        h = Tensor(rng.normal(size=(2, 4, 5)))
        assert cc(h, Tensor(np.zeros(3))).shape == (2, 4, 5)

    def test_phi_affects_every_position(self, rng):
        cc = ConcatConditioner(2, 3, rng)
        h = Tensor(rng.normal(size=(1, 4, 3)))
        out0 = cc(h, Tensor(np.zeros(2))).data
        out1 = cc(h, Tensor(np.ones(2))).data
        diff = np.abs(out0 - out1).sum(axis=-1)
        assert np.all(diff > 0)

    def test_gradcheck(self, rng):
        cc = ConcatConditioner(2, 3, rng)
        h = Tensor(rng.normal(size=(2, 3)))
        phi = Tensor(rng.normal(size=2), requires_grad=True)
        gradcheck(
            lambda p, w, b: (cc(h, p).tanh()).sum(), [phi, cc.weight, cc.bias]
        )
