"""Edge-case and failure-mode tests for the autodiff engine."""

import numpy as np
import pytest

from repro.autodiff import (
    Tensor,
    concatenate,
    grad,
    logsumexp,
    maximum,
    no_grad,
    stack,
    where,
)
from repro.autodiff.tensor import getitem, pad, reshape, scatter_to, transpose
from tests.reference.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(21)


class TestIndexingEdgeCases:
    def test_negative_index(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        x[-1].backward()
        assert np.allclose(x.grad.data, [0, 0, 0, 1])

    def test_step_slice(self, rng):
        x = Tensor(rng.normal(size=(6,)), requires_grad=True)
        gradcheck(lambda x: (x[::2] ** 2).sum(), [x])

    def test_2d_fancy_index_pairs(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        rows = np.array([0, 2, 2])
        cols = np.array([1, 3, 3])
        out = x[rows, cols]
        out.sum().backward()
        expected = np.zeros((3, 4))
        np.add.at(expected, (rows, cols), 1.0)
        assert np.allclose(x.grad.data, expected)

    def test_boolean_masking_not_needed_for_where(self, rng):
        a = Tensor(rng.normal(size=(5,)), requires_grad=True)
        out = where(a.data > 0, a, a * 0.1)
        assert np.isfinite(out.data).all()

    def test_scatter_empty_values(self):
        vals = Tensor(np.zeros((0,)), requires_grad=True)
        out = scatter_to((4,), np.array([], dtype=int), vals)
        assert np.allclose(out.data, 0)


class TestShapeEdgeCases:
    def test_scalar_reductions(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        (g,) = grad(x.sum(), [x])
        assert g.shape == ()

    def test_reshape_minus_one(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        assert x.reshape(3, -1).shape == (3, 4)

    def test_transpose_identity_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        y = transpose(transpose(x, (1, 2, 0)), (2, 0, 1))
        assert np.allclose(y.data, x.data)
        gradcheck(lambda x: (transpose(x, (2, 1, 0)) ** 2).sum(), [x])

    def test_concat_single_tensor(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = concatenate([x], axis=0)
        assert np.allclose(out.data, x.data)

    def test_stack_then_index(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        s = stack([a, b], axis=0)
        s[1].sum().backward()
        assert np.allclose(a.grad.data if a.grad else np.zeros(3), 0)
        assert np.allclose(b.grad.data, 1)

    def test_pad_zero_width(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = pad(x, ((0, 0), (0, 0)))
        assert np.allclose(out.data, x.data)


class TestHigherOrderThroughStructuredOps:
    def test_second_order_through_concat(self, rng):
        a = Tensor(rng.normal(size=(2,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = (concatenate([a, b]) ** 3).sum()
        (ga,) = grad(y, [a], create_graph=True)
        (gga,) = grad(ga.sum(), [a])
        assert np.allclose(gga.data, 6 * a.data)

    def test_second_order_through_getitem(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        y = (x[1:3] ** 3).sum()
        (g,) = grad(y, [x], create_graph=True)
        (gg,) = grad(g.sum(), [x])
        expected = np.zeros(4)
        expected[1:3] = 6 * x.data[1:3]
        assert np.allclose(gg.data, expected)

    def test_second_order_through_logsumexp(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (g,) = grad(logsumexp(x), [x], create_graph=True)
        (h0,) = grad(g[0], [x])
        assert np.isfinite(h0.data).all()

    def test_second_order_through_maximum(self, rng):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        y = (maximum(a, b) ** 2).sum()
        (ga,) = grad(y, [a], create_graph=True)
        (gga,) = grad(ga.sum(), [a], allow_unused=True)
        # a wins only at index 1: d2/da2 = 2 there, 0 elsewhere.
        assert np.allclose(gga.data, [0.0, 2.0])


class TestGraphHygiene:
    def test_no_grad_inside_graph_detaches(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = x * 2
        with no_grad():
            z = y * 3  # constant w.r.t. the graph
        w = (y + z.detach()).sum()
        (g,) = grad(w, [x])
        assert np.allclose(g.data, 2.0)

    def test_repeated_grad_same_graph(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = (x * x).sum()
        (g1,) = grad(y, [x])
        (g2,) = grad(y, [x])
        assert np.allclose(g1.data, g2.data)

    def test_grad_output_weighting(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = x * 2
        (g,) = grad(y, [x], grad_outputs=Tensor(np.array([1.0, 0.0, 2.0])))
        assert np.allclose(g.data, [2.0, 0.0, 4.0])

    def test_requires_grad_propagates(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0])
        assert (a + b).requires_grad
        assert not (b + b).requires_grad


class TestGraphLifetime:
    """A graph is freed by reference counting alone, without the cycle
    collector: no VJP closure holds its own output strongly."""

    @staticmethod
    def _dies_with_loss(build):
        import gc
        import weakref

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            loss, intermediate = build()
            probe = weakref.ref(intermediate)
            loss.backward()
            del intermediate
            assert probe() is not None  # the loss still holds its graph
            del loss
            return probe() is None
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("op", ["exp", "sqrt", "tanh", "sigmoid"])
    def test_output_capturing_ops(self, rng, op):
        x = Tensor(rng.uniform(0.5, 2.0, size=(3,)), requires_grad=True)

        def build():
            mid = getattr(x * 2.0, op)()
            return (mid * mid).sum(), mid

        assert self._dies_with_loss(build)

    def test_backbone_loss_graph(self, tiny_dataset, tiny_vocabs):
        from repro.data.tags import TagScheme
        from repro.models import BackboneConfig, CNNBiGRUCRF

        scheme = TagScheme(("PER", "LOC"))
        wv, cv = tiny_vocabs
        model = CNNBiGRUCRF(
            wv, cv, scheme.num_tags,
            BackboneConfig(word_dim=10, char_dim=6, char_filters=6,
                           hidden=8, context_dim=4, dropout=0.0),
            np.random.default_rng(0), tag_names=scheme.tags,
        )
        batch = model.encode(tiny_dataset.sentences[:3], scheme)

        def build():
            scores = model.emission_scores(batch, model.new_context())
            return model.crf.batch_nll_padded(
                scores, np.zeros(batch.mask.shape, dtype=int), batch.mask
            ), scores

        assert self._dies_with_loss(build)

    @pytest.mark.parametrize("op", ["exp", "sqrt", "tanh", "sigmoid"])
    def test_double_backward_still_checks(self, rng, op):
        x = Tensor(rng.uniform(0.5, 2.0, size=(3,)), requires_grad=True)

        def first_grad_norm(a):
            (g,) = grad(getattr(a, op)().sum(), [a], create_graph=True)
            return (g * g).sum()

        assert gradcheck(first_grad_norm, [x])


class TestScatterOracle:
    """``scatter_to`` (``np.bincount``) against the ``np.add.at`` scatter
    it replaced: bit-equal, duplicates accumulated in the same order."""

    SHAPE = (4, 5, 6)

    def cases(self, rng):
        yield (rng.integers(0, 4, 30),)  # duplicates on one axis
        yield (rng.integers(-4, 4, (3, 7)), rng.integers(-5, 5, (3, 7)))
        yield rng.random(self.SHAPE) > 0.5  # boolean
        yield (rng.integers(0, 4, (5, 1)), rng.integers(0, 5, (1, 8)))
        yield (np.array([], dtype=np.intp),)  # empty
        yield (rng.integers(0, 4, 9), slice(None), rng.integers(0, 6, 9))
        yield (slice(1, 3), rng.integers(0, 5, 12))

    def test_bit_equal_to_add_at(self, rng):
        from tests.reference.autodiff import add_at_scatter

        for _ in range(20):
            for index in self.cases(rng):
                selected = np.zeros(self.SHAPE)[index].shape
                values = rng.normal(size=selected) * 10.0 ** rng.integers(
                    -6, 6, size=selected
                )
                got = scatter_to(self.SHAPE, index, Tensor(values)).data
                want = add_at_scatter(self.SHAPE, index, values)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_broadcast_values(self, rng):
        from repro.autodiff.tensor import scatter_array
        from tests.reference.autodiff import add_at_scatter

        index = (rng.integers(0, 4, (6, 1)), rng.integers(0, 5, (1, 3)))
        values = rng.normal(size=(3, 6))  # broadcast over the index axes
        assert scatter_array(self.SHAPE, index, values).tobytes() == \
            add_at_scatter(self.SHAPE, index, values).tobytes()
