"""Second-order differentiation tests — the capability FEWNER depends on."""

import numpy as np
import pytest

from repro.autodiff import Tensor, grad
from tests.reference.gradcheck import numerical_grad


@pytest.fixture
def rng():
    return np.random.default_rng(2)


class TestDoubleBackward:
    def test_cubic_second_derivative(self, rng):
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        (g,) = grad((x**3).sum(), [x], create_graph=True)
        (gg,) = grad(g.sum(), [x])
        assert np.allclose(gg.data, 6 * x.data)

    def test_exp_second_derivative(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (g,) = grad(x.exp().sum(), [x], create_graph=True)
        (gg,) = grad(g.sum(), [x])
        assert np.allclose(gg.data, np.exp(x.data))

    def test_tanh_second_derivative(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (g,) = grad(x.tanh().sum(), [x], create_graph=True)
        (gg,) = grad(g.sum(), [x])
        t = np.tanh(x.data)
        assert np.allclose(gg.data, -2 * t * (1 - t**2))

    def test_matmul_mixed_partials(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        loss = ((a @ b) ** 2).sum()
        (ga,) = grad(loss, [a], create_graph=True)
        # d/db of sum(ga) — a genuine mixed second-order quantity.
        (gab,) = grad(ga.sum(), [b])
        assert gab.shape == b.shape
        assert np.isfinite(gab.data).all()

    def test_logsumexp_hessian_diag(self, rng):
        from repro.autodiff import logsumexp

        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (g,) = grad(logsumexp(x), [x], create_graph=True)
        p = np.exp(x.data - x.data.max())
        p = p / p.sum()
        assert np.allclose(g.data, p)
        (h0,) = grad(g[0], [x])
        expected = -p[0] * p
        expected[0] += p[0]
        assert np.allclose(h0.data, expected, atol=1e-8)

    def test_third_order(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (g1,) = grad((x**4).sum(), [x], create_graph=True)
        (g2,) = grad(g1.sum(), [x], create_graph=True)
        (g3,) = grad(g2.sum(), [x])
        assert np.allclose(g3.data, 24 * x.data)


class TestMetaGradient:
    """The gradient-through-a-gradient pattern of MAML/FEWNER (Eqs. 5-6)."""

    @staticmethod
    def _task_loss(theta, phi, target):
        pred = theta * phi + theta**2
        return ((pred - target) ** 2).sum()

    def test_outer_gradient_matches_finite_difference(self, rng):
        target = Tensor(rng.normal(size=(3,)))
        alpha = Tensor(np.array(0.05))

        def meta_objective_value(theta_data):
            theta = Tensor(theta_data, requires_grad=True)
            phi = Tensor(np.zeros(3), requires_grad=True)
            inner = self._task_loss(theta, phi, target)
            (g_phi,) = grad(inner, [phi])
            phi1 = phi - alpha * g_phi
            return self._task_loss(theta, phi1, target)

        theta = Tensor(rng.normal(size=(3,)), requires_grad=True)
        phi = Tensor(np.zeros(3), requires_grad=True)
        inner = self._task_loss(theta, phi, target)
        (g_phi,) = grad(inner, [phi], create_graph=True)
        phi1 = phi - alpha * g_phi
        outer = self._task_loss(theta, phi1, target)
        (g_theta,) = grad(outer, [theta])

        numeric = numerical_grad(
            lambda t: meta_objective_value(t.data), [theta], 0, eps=1e-6
        )
        assert np.allclose(g_theta.data, numeric, atol=1e-5)

    def test_second_order_term_differs_from_first_order(self, rng):
        """With create_graph=False the inner step is a constant: the outer
        gradient must differ from the true second-order one whenever the
        mixed partials are non-zero."""
        target = Tensor(rng.normal(size=(3,)) + 2.0)
        alpha = Tensor(np.array(0.05))
        theta = Tensor(rng.normal(size=(3,)), requires_grad=True)

        phi = Tensor(np.zeros(3), requires_grad=True)
        (g_phi,) = grad(self._task_loss(theta, phi, target), [phi], create_graph=True)
        outer_so = self._task_loss(theta, phi - alpha * g_phi, target)
        (g_so,) = grad(outer_so, [theta])

        phi = Tensor(np.zeros(3), requires_grad=True)
        (g_phi_fo,) = grad(self._task_loss(theta, phi, target), [phi],
                           create_graph=False)
        outer_fo = self._task_loss(theta, phi - alpha * g_phi_fo.detach(), target)
        (g_fo,) = grad(outer_fo, [theta])

        assert not np.allclose(g_so.data, g_fo.data)

    def test_multiple_inner_steps(self, rng):
        """Unrolling K inner steps stays differentiable end to end."""
        target = Tensor(rng.normal(size=(2,)))
        alpha = Tensor(np.array(0.1))
        theta = Tensor(rng.normal(size=(2,)), requires_grad=True)
        phi = Tensor(np.zeros(2), requires_grad=True)
        for _k in range(3):
            loss = self._task_loss(theta, phi, target)
            (g_phi,) = grad(loss, [phi], create_graph=True)
            phi = phi - alpha * g_phi
        outer = self._task_loss(theta, phi, target)
        (g_theta,) = grad(outer, [theta])
        assert np.isfinite(g_theta.data).all()
        assert np.abs(g_theta.data).sum() > 0
