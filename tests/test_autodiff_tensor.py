"""Unit tests for autodiff primitives: values, gradients, errors."""

import numpy as np
import pytest

from repro.autodiff import (
    Tensor,
    arange,
    clip,
    concatenate,
    full,
    grad,
    matmul,
    maximum,
    minimum,
    no_grad,
    enable_grad,
    is_grad_enabled,
    ones,
    scatter_add,
    stack,
    where,
    zeros,
)
from repro.autodiff.tensor import getitem, pad, scatter_to
from tests.reference.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestConstruction:
    def test_tensor_wraps_array(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4
        assert not t.requires_grad

    def test_factories(self):
        assert zeros((2, 3)).data.sum() == 0
        assert ones((4,)).data.sum() == 4
        assert full((2,), 7.0).data.tolist() == [7.0, 7.0]
        assert arange(3).data.tolist() == [0.0, 1.0, 2.0]

    def test_item_requires_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad
        assert y._node is None

    def test_backward_requires_scalar_without_grad_output(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()


class TestArithmetic:
    def test_add_sub_mul_div_values(self, rng):
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 2)) + 2.0
        ta, tb = Tensor(a), Tensor(b)
        assert np.allclose((ta + tb).data, a + b)
        assert np.allclose((ta - tb).data, a - b)
        assert np.allclose((ta * tb).data, a * b)
        assert np.allclose((ta / tb).data, a / b)
        assert np.allclose((-ta).data, -a)

    def test_scalar_operands(self):
        x = Tensor([1.0, 2.0])
        assert np.allclose((x + 1).data, [2, 3])
        assert np.allclose((1 + x).data, [2, 3])
        assert np.allclose((2 * x).data, [2, 4])
        assert np.allclose((x / 2).data, [0.5, 1])
        assert np.allclose((2 / x).data, [2, 1])
        assert np.allclose((3 - x).data, [2, 1])

    def test_pow_gradcheck(self, rng):
        x = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        gradcheck(lambda x: (x**3).sum(), [x])

    def test_broadcast_gradients(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        gradcheck(lambda a, b: ((a + b) * (a * b)).sum(), [a, b])

    def test_division_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(3,)) + 3.0, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)) + 3.0, requires_grad=True)
        gradcheck(lambda a, b: (a / b).sum(), [a, b])


class TestElementwise:
    @pytest.mark.parametrize("fn_name", ["exp", "log", "tanh", "sigmoid", "sqrt"])
    def test_unary_gradchecks(self, rng, fn_name):
        base = rng.uniform(0.5, 2.0, size=(5,))
        x = Tensor(base, requires_grad=True)
        gradcheck(lambda x: getattr(x, fn_name)().sum(), [x])

    def test_relu_values_and_grad(self):
        x = Tensor([-2.0, -0.5, 0.5, 2.0], requires_grad=True)
        y = x.relu()
        assert np.allclose(y.data, [0, 0, 0.5, 2.0])
        y.sum().backward()
        assert np.allclose(x.grad.data, [0, 0, 1, 1])

    def test_clip_gradient_mask(self):
        x = Tensor([-2.0, 0.0, 2.0], requires_grad=True)
        clip(x, -1.0, 1.0).sum().backward()
        assert np.allclose(x.grad.data, [0, 1, 0])

    def test_where_selects(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        out = where(np.array([True, False]), a, b)
        assert np.allclose(out.data, [1.0, 20.0])
        out.sum().backward()
        assert np.allclose(a.grad.data, [1, 0])
        assert np.allclose(b.grad.data, [0, 1])

    def test_maximum_minimum(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([3.0, 2.0])
        assert np.allclose(maximum(a, b).data, [3, 5])
        assert np.allclose(minimum(a, b).data, [1, 2])


class TestMatmul:
    def test_2d(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert np.allclose((a @ b).data, a.data @ b.data)
        gradcheck(lambda a, b: ((a @ b) ** 2).sum(), [a, b])

    def test_vector_cases(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert np.isclose((a @ b).item(), float(a.data @ b.data))
        m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        assert (a @ m).shape == (3,)
        assert (m.T @ a).shape == (3,)
        gradcheck(lambda a, m: (a @ m).sum(), [a, m])

    def test_batched(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        assert np.allclose((a @ b).data, a.data @ b.data)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_broadcast_batched(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert np.allclose((a @ b).data, a.data @ b.data)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])


class TestShapes:
    def test_reshape_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        gradcheck(lambda x: (x.reshape(3, 4) ** 2).sum(), [x])

    def test_transpose(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        assert x.transpose((1, 0, 2)).shape == (3, 2, 4)
        assert x.T.shape == (4, 3, 2)
        gradcheck(lambda x: (x.transpose((2, 0, 1)) * 2).sum(), [x])

    def test_concatenate(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        gradcheck(lambda a, b: (concatenate([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        gradcheck(lambda a, b: (stack([a, b], axis=1) ** 2).sum(), [a, b])

    def test_pad(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = pad(x, ((1, 0), (0, 2)))
        assert out.shape == (3, 5)
        assert out.data[0].sum() == 0
        assert np.array_equal(out.data, np.pad(x.data, ((1, 0), (0, 2))))
        gradcheck(lambda x: (pad(x, ((1, 1), (2, 0))) ** 2).sum(), [x])


class TestIndexing:
    def test_basic_slice(self, rng):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        gradcheck(lambda x: (x[1:3, ::2] ** 2).sum(), [x])

    @pytest.mark.parametrize("index", [
        (slice(1, 3), slice(None, None, 2)), 2, (Ellipsis, 1),
        (np.array([0, 2, 2]),), (slice(None), np.array([4, 0])),
    ])
    def test_result_never_aliases_input(self, rng, index):
        x = Tensor(rng.normal(size=(4, 5)))
        out = getitem(x, index)
        assert np.array_equal(out.data, x.data[index])
        assert not np.shares_memory(out.data, x.data)

    def test_integer_array_gather(self, rng):
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 5])
        out = x[idx]
        assert out.shape == (4, 3)
        gradcheck(lambda x: (x[idx] ** 2).sum(), [x])

    @pytest.mark.parametrize("shape,ids", [
        ((6, 3), [[0, 5, 2], [-1, -6, 2]]),
        ((7,), [3, -2, 3, 0]),
        ((4, 2, 3), [-4, 3, 3]),
        ((5, 2), []),
    ])
    @pytest.mark.parametrize("dtype", [np.intp, np.int32])
    def test_integer_array_gather_matches_fancy_indexing(self, rng, shape,
                                                         ids, dtype):
        """An integer-array ``getitem`` gathers with ``np.take``; its
        value and gradient must keep fancy indexing's bytes and layout."""
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        index = np.array(ids, dtype=dtype)
        out = getitem(x, index)
        want = x.data[index]
        assert out.data.tobytes() == want.tobytes()
        assert out.shape == want.shape
        assert out.data.flags.c_contiguous and want.flags.c_contiguous
        g = rng.normal(size=want.shape)
        (gx,) = grad(out, [x], Tensor(g))
        want_gx = np.zeros(shape)
        np.add.at(want_gx, index, g)
        assert gx.data.tobytes() == want_gx.tobytes()
        assert gx.data.flags.c_contiguous

    @pytest.mark.parametrize("bad", [6, 9, -7])
    def test_integer_array_gather_out_of_range_raises(self, rng, bad):
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        with pytest.raises(IndexError):
            x.data[np.array([0, bad])]
        with pytest.raises(IndexError):
            getitem(x, np.array([0, bad]))

    def test_duplicate_indices_accumulate(self):
        x = Tensor(np.zeros((3,)), requires_grad=True)
        idx = np.array([1, 1, 1])
        x[idx].sum().backward()
        assert np.allclose(x.grad.data, [0, 3, 0])

    def test_scatter_roundtrip(self, rng):
        vals = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = scatter_to((5,), np.array([0, 2, 2]), vals)
        assert np.isclose(out.data[2], vals.data[1] + vals.data[2])
        gradcheck(lambda v: (scatter_to((5,), np.array([0, 2, 2]), v) ** 2).sum(), [vals])

    def test_scatter_add(self, rng):
        base = Tensor(rng.normal(size=(4,)), requires_grad=True)
        vals = Tensor(rng.normal(size=(2,)), requires_grad=True)
        out = scatter_add(base, np.array([1, 3]), vals)
        expected = base.data.copy()
        expected[1] += vals.data[0]
        expected[3] += vals.data[1]
        assert np.allclose(out.data, expected)
        gradcheck(lambda b, v: (scatter_add(b, np.array([1, 3]), v) ** 2).sum(),
                  [base, vals])


class TestReductions:
    def test_sum_axes(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        assert x.sum().shape == ()
        assert x.sum(axis=1).shape == (2, 4)
        assert x.sum(axis=(0, 2)).shape == (3,)
        assert x.sum(axis=1, keepdims=True).shape == (2, 1, 4)
        gradcheck(lambda x: (x.sum(axis=(0, 2)) ** 2).sum(), [x])

    def test_mean(self, rng):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert np.isclose(x.mean().item(), x.data.mean())
        gradcheck(lambda x: (x.mean(axis=0) ** 2).sum(), [x])

    def test_max_values_and_grad(self):
        x = Tensor([[1.0, 3.0], [5.0, 2.0]], requires_grad=True)
        m = x.max(axis=1)
        assert np.allclose(m.data, [3, 5])
        m.sum().backward()
        assert np.allclose(x.grad.data, [[0, 1], [1, 0]])

    def test_max_tie_splits_gradient(self):
        x = Tensor([2.0, 2.0], requires_grad=True)
        x.max().backward()
        assert np.allclose(x.grad.data, [0.5, 0.5])

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_max_tie_split_along_axis(self, keepdims):
        x = Tensor([[1.0, 4.0, 4.0, 4.0], [7.0, 7.0, 0.0, 1.0]],
                   requires_grad=True)
        (g,) = grad(x.max(axis=1, keepdims=keepdims).sum(), [x])
        assert np.array_equal(g.data, [[0.0, 1 / 3, 1 / 3, 1 / 3],
                                       [0.5, 0.5, 0.0, 0.0]])

    def test_max_gradcheck_and_double_backward(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        gradcheck(lambda x: (x.max(axis=1) ** 2).sum(), [x])
        gradcheck(lambda x: (x.max(axis=0, keepdims=True) ** 3).sum(), [x])
        (g,) = grad((x.max(axis=1) ** 3).sum(), [x], create_graph=True)
        (gg,) = grad(g.sum(), [x])
        # d2/dx2 of m^3 is 6m at each row's argmax, 0 elsewhere.
        expected = np.zeros_like(x.data)
        rows = np.arange(3)
        cols = x.data.argmax(axis=1)
        expected[rows, cols] = 6 * x.data[rows, cols]
        assert np.allclose(gg.data, expected)

    def test_min(self, rng):
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        assert np.allclose(x.min(axis=0).data, x.data.min(axis=0))


class TestGradMachinery:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_enable_grad_nested(self):
        with no_grad():
            assert not is_grad_enabled()
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()

    def test_grad_accumulates_on_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        assert np.allclose(x.grad.data, [5, 5])

    def test_grad_function_does_not_touch_param_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (g,) = grad((x * 4).sum(), [x])
        assert np.allclose(g.data, [4])
        assert x.grad is None

    def test_grad_of_intermediate(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3
        z = (y * y).sum()
        (gy,) = grad(z, [y])
        assert np.allclose(gy.data, 2 * y.data)

    def test_unused_input_raises_without_flag(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            grad((x * 2).sum(), [x, y])
        gs = grad((x * 2).sum(), [x, y], allow_unused=True)
        assert gs[1] is None

    def test_diamond_graph(self):
        x = Tensor([3.0], requires_grad=True)
        a = x * 2
        b = x * 5
        (g,) = grad((a + b).sum(), [x])
        assert np.allclose(g.data, [7])

    def test_same_tensor_used_twice_in_op(self):
        x = Tensor([3.0], requires_grad=True)
        (g,) = grad((x * x).sum(), [x])
        assert np.allclose(g.data, [6])


class TestComparisons:
    def test_comparisons_return_numpy(self):
        a = Tensor([1.0, 3.0])
        b = Tensor([2.0, 2.0])
        assert (a > b).tolist() == [False, True]
        assert (a < b).tolist() == [True, False]
        assert (a >= Tensor([1.0, 4.0])).tolist() == [True, False]
        assert (a <= 1.0).tolist() == [True, False]
