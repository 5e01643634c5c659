"""Property-based tests (hypothesis) for autodiff invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import Tensor, grad, logsumexp, softmax
from tests.reference.gradcheck import numerical_grad

finite_floats = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)


def small_arrays(max_side=4, min_dims=1, max_dims=2):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(
            min_dims=min_dims, max_dims=max_dims, min_side=1, max_side=max_side
        ),
        elements=finite_floats,
    )


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_add_gradient_is_ones(arr):
    x = Tensor(arr, requires_grad=True)
    (x + x).sum().backward()
    assert np.allclose(x.grad.data, 2.0)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_sum_then_backward_shape(arr):
    x = Tensor(arr, requires_grad=True)
    x.sum().backward()
    assert x.grad.shape == x.shape


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_softmax_is_distribution(arr):
    out = softmax(Tensor(arr), axis=-1).data
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=-1), 1.0)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_logsumexp_upper_bounds_max(arr):
    lse = logsumexp(Tensor(arr)).item()
    assert lse >= arr.max() - 1e-12
    assert lse <= arr.max() + np.log(arr.size) + 1e-12


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_exp_log_roundtrip_gradient(arr):
    x = Tensor(np.abs(arr) + 0.5, requires_grad=True)
    y = x.exp().log().sum()
    (g,) = grad(y, [x])
    assert np.allclose(g.data, 1.0, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    hnp.arrays(dtype=np.float64, shape=(3, 3), elements=finite_floats),
    hnp.arrays(dtype=np.float64, shape=(3, 3), elements=finite_floats),
)
def test_matmul_gradient_matches_numerics(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)

    def f(ta, tb):
        return ((ta @ tb).tanh()).sum()

    out = f(ta, tb)
    ga, gb = grad(out, [ta, tb])
    na = numerical_grad(f, [ta, tb], 0)
    nb = numerical_grad(f, [ta, tb], 1)
    assert np.allclose(ga.data, na, atol=1e-5)
    assert np.allclose(gb.data, nb, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(small_arrays(max_side=3))
def test_linearity_of_gradients(arr):
    """grad of (2f + 3g) equals 2 grad f + 3 grad g."""
    x = Tensor(arr, requires_grad=True)

    def f(x):
        return (x * x).sum()

    def g(x):
        return x.tanh().sum()

    (g_combined,) = grad(f(x) * 2 + g(x) * 3, [x])
    (gf,) = grad(f(x), [x])
    (gg,) = grad(g(x), [x])
    assert np.allclose(g_combined.data, 2 * gf.data + 3 * gg.data, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_side=3))
def test_second_order_of_square_is_constant(arr):
    x = Tensor(arr, requires_grad=True)
    (g,) = grad((x * x).sum(), [x], create_graph=True)
    (h,) = grad(g.sum(), [x])
    assert np.allclose(h.data, 2.0)
