"""Tests for GRU cells and bidirectional encoders."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import BiGRU, GRU, GRUCell
from tests.reference.gradcheck import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(6)


class TestGRUCell:
    def test_shapes(self, rng):
        cell = GRUCell(4, 3, rng)
        h = cell(Tensor(rng.normal(size=(2, 4))), Tensor(np.zeros((2, 3))))
        assert h.shape == (2, 3)

    def test_output_bounded(self, rng):
        """GRU state is a convex combination of tanh output and prior state,
        so from h=0 it stays in (-1, 1)."""
        cell = GRUCell(3, 5, rng)
        h = Tensor(np.zeros((1, 5)))
        for _ in range(20):
            h = cell(Tensor(rng.normal(size=(1, 3)) * 3), h)
        assert np.all(np.abs(h.data) < 1.0)

    def test_gradcheck(self, rng):
        cell = GRUCell(3, 2, rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 2)) * 0.1, requires_grad=True)
        params = [p for _n, p in cell.named_parameters()]
        gradcheck(lambda x, h, *ps: (cell(x, h) ** 2).sum(), [x, h] + params)


class TestGRU:
    def test_output_shape(self, rng):
        gru = GRU(4, 3, rng)
        out = gru(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 3)

    def test_mask_freezes_state(self, rng):
        """Hidden state must be identical whether a sequence is padded or
        not: padding steps may not alter the final representation."""
        gru = GRU(3, 4, rng)
        x_short = rng.normal(size=(1, 3, 3))
        x_padded = np.concatenate([x_short, rng.normal(size=(1, 2, 3))], axis=1)
        mask = np.array([[1, 1, 1, 0, 0]])
        out_short = gru(Tensor(x_short)).data
        out_padded = gru(Tensor(x_padded), mask).data
        assert np.allclose(out_short[:, 2], out_padded[:, 2])
        # frozen state carried through padding
        assert np.allclose(out_padded[:, 2], out_padded[:, 4])

    def test_reverse_direction(self, rng):
        gru_fwd = GRU(2, 3, rng, reverse=False)
        gru_bwd = GRU(2, 3, rng, reverse=True)
        gru_bwd.load_state_dict(gru_fwd.state_dict())
        x = rng.normal(size=(1, 4, 2))
        out_fwd = gru_fwd(Tensor(x)).data
        out_bwd = gru_bwd(Tensor(x[:, ::-1, :].copy())).data
        # Running reversed input through the forward GRU equals running
        # the original input through the reverse GRU, mirrored.
        assert np.allclose(out_fwd[:, ::-1, :], out_bwd)

    def test_gradients_flow(self, rng):
        gru = GRU(3, 2, rng)
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        (gru(x) ** 2).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in gru.parameters())


class TestBiGRU:
    def test_concatenates_directions(self, rng):
        bi = BiGRU(3, 4, rng)
        out = bi(Tensor(rng.normal(size=(2, 5, 3))))
        assert out.shape == (2, 5, 8)
        assert bi.output_dim == 8

    def test_first_position_sees_future(self, rng):
        """The backward half at position 0 must depend on later tokens."""
        bi = BiGRU(2, 3, rng)
        x1 = rng.normal(size=(1, 4, 2))
        x2 = x1.copy()
        x2[0, 3] += 1.0
        out1 = bi(Tensor(x1)).data
        out2 = bi(Tensor(x2)).data
        fwd_slice = out1[0, 0, :3]
        assert np.allclose(fwd_slice, out2[0, 0, :3])  # forward unaffected
        assert not np.allclose(out1[0, 0, 3:], out2[0, 0, 3:])  # backward is

    def test_gradcheck_small(self, rng):
        bi = BiGRU(2, 2, rng)
        x = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        mask = np.array([[1, 1, 0]])
        gradcheck(lambda x, *ps: (bi(x, mask) ** 2).sum(),
                  [x] + bi.parameters())


def _tape_size(out):
    """Number of distinct tensors reachable from ``out`` on the tape."""
    seen = set()
    stack = [out]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._node is not None:
            stack.extend(t._node.parents)
    return len(seen)


class TestTapeBudget:
    """The step loop must add a fixed number of tape nodes per timestep.

    Before the constant-hoisting pass, every step allocated fresh
    scalar-one and mask tensors; hoisting them caps the per-step budget,
    and this test pins it so a refactor cannot silently regrow the tape.
    These bounds are about the *legacy* per-timestep path (the default
    fused kernel registers one node per sequence regardless of length —
    see ``tests/test_perf_rnn_kernels.py``), so it is forced on here.
    """

    def _per_step_nodes(self, module_cls, rng, lengths=(4, 8, 12)):
        from repro.perf.fastpath import recurrent_kernel

        sizes = []
        with recurrent_kernel(False):
            for length in lengths:
                layer = module_cls(3, 4, np.random.default_rng(0))
                x = Tensor(rng.normal(size=(2, length, 3)), requires_grad=True)
                sizes.append(_tape_size(layer(x).sum()))
        deltas = {
            (sizes[i + 1] - sizes[i]) // (lengths[i + 1] - lengths[i])
            for i in range(len(sizes) - 1)
        }
        assert len(deltas) == 1, f"tape growth is not linear: {sizes}"
        return deltas.pop()

    def test_gru_growth_is_linear_and_bounded(self, rng):
        per_step = self._per_step_nodes(GRU, rng)
        assert per_step <= 24, f"GRU tape grew to {per_step} nodes/step"

    def test_lstm_growth_is_linear_and_bounded(self, rng):
        from repro.nn import LSTM

        per_step = self._per_step_nodes(LSTM, rng)
        assert per_step <= 24, f"LSTM tape grew to {per_step} nodes/step"

    def test_scalar_one_is_shared(self, rng):
        """All GRU steps reuse the module-level constant — the tape holds
        exactly one scalar-one tensor, not one per step."""
        from repro.nn import rnn as rnn_module
        from repro.perf.fastpath import recurrent_kernel

        gru = GRU(3, 4, rng)
        with recurrent_kernel(False):
            out = gru(Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True))
        seen = set()
        stack = [out.sum()]
        ones = 0
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t is rnn_module._ONE:
                ones += 1
            if t._node is not None:
                stack.extend(t._node.parents)
        assert ones == 1


class TestLayerVsCellLoop:
    """The hoisted-projection layer loop equals per-step cell calls."""

    def test_gru_matches_manual_loop(self, rng):
        gru = GRU(3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        lengths = np.array([5, 3])
        mask = (np.arange(5)[None, :] < lengths[:, None]).astype(float)
        out = gru(Tensor(x), mask).data

        from repro.autodiff.tensor import mul
        h = Tensor(np.zeros((2, 4)))
        manual = []
        for t in range(5):
            h_new = gru.cell(Tensor(x[:, t, :]), h)
            keep = Tensor(mask[:, t : t + 1])
            frozen = Tensor(1.0 - mask[:, t : t + 1])
            h = mul(keep, h_new) + mul(frozen, h)
            manual.append(h.data)
        assert np.allclose(out, np.stack(manual, axis=1))

    def test_lstm_matches_manual_loop(self, rng):
        from repro.nn import LSTM
        from repro.autodiff.tensor import mul

        lstm = LSTM(3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        mask = np.ones((2, 5))
        out = lstm(Tensor(x), mask).data
        h = Tensor(np.zeros((2, 4)))
        c = Tensor(np.zeros((2, 4)))
        manual = []
        for t in range(5):
            h, c = lstm.cell(Tensor(x[:, t, :]), h, c)
            manual.append(h.data)
        assert np.allclose(out, np.stack(manual, axis=1))
