"""Fused recurrent kernels: bit-identity, tape shape, second-order guard.

The contract under test (see ``repro/perf/rnn_kernels.py``): the fused
single-tape-node GRU/LSTM scans produce outputs *and* gradients that are
bit-identical — exact array equality, not tolerance — to the legacy
per-timestep tape path, across directions, ragged masks and zero-length
rows; the whole sequence registers as one tape node; and, mirroring
``crf_nll_fused``, differentiating through the fused backward with
``create_graph=True`` is rejected rather than silently wrong.
"""

import warnings

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor, grad, sigmoid
from repro.nn.rnn import GRU, LSTM, BiGRU, BiLSTM
from repro.perf.fastpath import (
    fastpath_state,
    recurrent_kernel,
    recurrent_kernel_enabled,
)
from repro.perf.rnn_kernels import effective_mask


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _layers(input_size=6, hidden_size=4):
    return {
        "gru": GRU(input_size, hidden_size, np.random.default_rng(1)),
        "gru-reverse": GRU(input_size, hidden_size,
                           np.random.default_rng(2), reverse=True),
        "bigru": BiGRU(input_size, hidden_size, np.random.default_rng(3)),
        "lstm": LSTM(input_size, hidden_size, np.random.default_rng(4)),
        "lstm-reverse": LSTM(input_size, hidden_size,
                             np.random.default_rng(5), reverse=True),
        "bilstm": BiLSTM(input_size, hidden_size, np.random.default_rng(6)),
    }


def _masks(rng, batch, length):
    ragged = np.zeros((batch, length))
    for b in range(batch):
        ragged[b, : rng.integers(1, length + 1)] = 1.0
    zero_row = ragged.copy()
    zero_row[0, :] = 0.0
    return {
        "none": None,
        "all-ones": np.ones((batch, length)),
        "ragged": ragged,
        "zero-length-row": zero_row,
    }


def _run(layer, x, mask):
    """Forward + grads w.r.t. the input and every parameter."""
    out = layer(x, mask)
    grads = grad((out * out).sum(), [x] + layer.parameters())
    return out.data, [g.data for g in grads]


class TestBitIdentity:
    """Fused vs legacy tape: exact equality of outputs and gradients."""

    @pytest.mark.parametrize("layer_name", sorted(_layers()))
    @pytest.mark.parametrize("mask_name",
                             ["none", "all-ones", "ragged", "zero-length-row"])
    def test_outputs_and_gradients_bit_identical(
            self, rng, layer_name, mask_name):
        batch, length = 5, 7
        layer = _layers()[layer_name]
        mask = _masks(rng, batch, length)[mask_name]
        x = Tensor(rng.normal(size=(batch, length, 6)), requires_grad=True)

        assert recurrent_kernel_enabled()  # fused is the default
        fused_out, fused_grads = _run(layer, x, mask)
        with recurrent_kernel(False):
            tape_out, tape_grads = _run(layer, x, mask)

        assert np.array_equal(fused_out, tape_out)
        assert len(fused_grads) == len(tape_grads)
        for fused_g, tape_g in zip(fused_grads, tape_grads):
            assert np.array_equal(fused_g, tape_g)

    def test_repeated_backwards_reuse_is_sound(self, rng):
        """Distinct losses produce distinct cotangents; the per-``g``
        backward cache must not leak results across them."""
        layer = GRU(3, 4, np.random.default_rng(0))
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        out = layer(x)
        (g1,) = grad(out.sum(), [x])
        (g2,) = grad((out * out).sum(), [x])
        with recurrent_kernel(False):
            ref = layer(x)
            (r1,) = grad(ref.sum(), [x])
            (r2,) = grad((ref * ref).sum(), [x])
        assert np.array_equal(g1.data, r1.data)
        assert np.array_equal(g2.data, r2.data)
        assert not np.array_equal(g1.data, g2.data)

    def test_parameter_only_grads_match(self, rng):
        """Grads requested for a subset of inputs (just ``w_h``) agree."""
        layer = LSTM(3, 4, np.random.default_rng(0))
        mask = _masks(rng, 2, 5)["ragged"]
        x = Tensor(rng.normal(size=(2, 5, 3)))
        (fused,) = grad(layer(x, mask).sum(), [layer.cell.w_h])
        with recurrent_kernel(False):
            (tape,) = grad(layer(x, mask).sum(), [layer.cell.w_h])
        assert np.array_equal(fused.data, tape.data)

    @pytest.mark.parametrize("layer_name", ["gru", "bigru", "lstm", "bilstm"])
    def test_backward_spanning_multiple_scans_matches(self, rng, layer_name):
        """One backward over several scans of the same cell.

        The recurrent weight then receives one contribution per scan in
        both paths (the legacy scan pre-sums its per-step contributions
        on a per-scan alias node), so the gradient association order —
        and therefore the bits — agree.  This is the shape supervised
        pretraining produces when the loss encodes more than one batch.
        """
        layer = _layers(input_size=4, hidden_size=3)[layer_name]
        mask = _masks(rng, 3, 6)["ragged"]
        xs = [Tensor(rng.normal(size=(3, 6, 4)), requires_grad=True)
              for _ in range(3)]

        def run():
            loss = None
            for k, x in enumerate(xs):
                out = layer(x, mask if k % 2 else None)
                term = (out * out).sum()
                loss = term if loss is None else loss + term
            return [g.data for g in grad(loss, xs + layer.parameters())]

        fused = run()
        with recurrent_kernel(False):
            tape = run()
        for fused_g, tape_g in zip(fused, tape):
            assert np.array_equal(fused_g, tape_g)

    def test_backward_after_parameter_swap_uses_forward_weights(self, rng):
        """The fused backward must close over the weights the forward ran
        with, not re-read them from the cell — MAML's ``override_params``
        restores the originals before the outer backward runs."""
        from repro.nn.module import override_params

        layer = GRU(3, 4, np.random.default_rng(0))
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        fast = {
            name: Tensor(param.data * 1.5 + 0.1, requires_grad=True)
            for name, param in layer.named_parameters()
        }

        def run():
            with override_params(layer, fast):
                out = layer(x)
            # Backward outside the override: the cell's parameters are
            # the originals again.
            return [g.data for g in
                    grad((out * out).sum(), [x] + list(fast.values()))]

        fused = run()
        with recurrent_kernel(False):
            tape = run()
        for fused_g, tape_g in zip(fused, tape):
            assert np.array_equal(fused_g, tape_g)


class TestStackedBidirectionalScan:
    """Both directions of a bidirectional layer step in one stacked scan
    and one tape node; the output, ``dx`` and all six parameter
    gradients must equal the ``recurrent_kernel(False)`` tape's."""

    @staticmethod
    def _assert_fused_equals_tape(run):
        fused = run()
        with recurrent_kernel(False):
            tape = run()
        assert len(fused) == len(tape)
        for fused_a, tape_a in zip(fused, tape):
            assert np.array_equal(fused_a, tape_a)

    @pytest.mark.parametrize("cls", [BiGRU, BiLSTM])
    @pytest.mark.parametrize("batch,length", [(1, 1), (1, 6), (4, 1)])
    @pytest.mark.parametrize("mask_name", ["none", "zero-length-row"])
    def test_single_row_and_single_step(self, rng, cls, batch, length,
                                        mask_name):
        layer = cls(5, 3, np.random.default_rng(11))
        mask = _masks(rng, batch, length)[mask_name]
        x = Tensor(rng.normal(size=(batch, length, 5)), requires_grad=True)

        def run():
            out, grads = _run(layer, x, mask)
            return [out] + grads

        assert len(layer.parameters()) == 6
        self._assert_fused_equals_tape(run)

    @pytest.mark.parametrize("cls", [BiGRU, BiLSTM])
    def test_input_feeding_another_op(self, rng, cls):
        """``x`` gets the forward scan's, the backward scan's and another
        op's contributions; the three must be summed in the tape's order."""
        layer = cls(4, 3, np.random.default_rng(13))
        mask = _masks(rng, 3, 6)["ragged"]
        x = Tensor(rng.normal(size=(3, 6, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 6)))

        def run():
            out = layer(x, mask)
            side = (x @ weight).tanh()
            for loss in ((out * out).sum() + (side * side).sum(),
                         (side * side).sum() + (out * out).sum()):
                yield from (g.data for g in
                            grad(loss, [x] + layer.parameters()))

        self._assert_fused_equals_tape(lambda: list(run()))

    @pytest.mark.parametrize("cls", [BiGRU, BiLSTM])
    def test_fast_weights_after_override_exits(self, rng, cls):
        from repro.nn.module import override_params

        layer = cls(3, 4, np.random.default_rng(14))
        mask = _masks(rng, 2, 5)["zero-length-row"]
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        fast = {
            name: Tensor(param.data * 1.5 + 0.1, requires_grad=True)
            for name, param in layer.named_parameters()
        }

        def run():
            with override_params(layer, fast):
                out = layer(x, mask)
            return [out.data] + [
                g.data for g in
                grad((out * out).sum(), [x] + list(fast.values()))
            ]

        self._assert_fused_equals_tape(run)

    @pytest.mark.parametrize("cls", [BiGRU, BiLSTM])
    def test_create_graph_raises_naming_the_switch(self, rng, cls):
        layer = cls(3, 4, np.random.default_rng(15))
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        out = layer(x)
        with pytest.raises(RuntimeError,
                           match=r"recurrent_kernel\(False\)"):
            grad((out * out).sum(), [x], create_graph=True)

    @pytest.mark.parametrize("cls", [BiGRU, BiLSTM])
    def test_one_node_lists_x_once_per_direction(self, rng, cls):
        from repro.autodiff.tensor import no_grad

        layer = cls(3, 4, np.random.default_rng(16))
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        out = layer(x)
        assert out.shape == (2, 5, 8)
        assert len(out._node.parents) == 8  # x once per direction
        assert out._node.parents[0] is x and out._node.parents[4] is x
        with no_grad():
            assert layer(x)._node is None


def _tape_size(out):
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


class TestSaturatedGates:
    """A gate pre-activation below about -709 overflows ``exp``; the
    sigmoid's value is the exact limit 0, and no warning escapes."""

    def test_tape_sigmoid_of_minus_800_is_exactly_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = sigmoid(Tensor(np.array([-800.0, 0.0])))
        assert out.data.tolist() == [0.0, 0.5]

    @pytest.mark.parametrize("cls", [BiGRU, BiLSTM])
    def test_saturated_scan_warns_on_neither_route(self, cls):
        hidden = 4
        layer = cls(6, hidden, np.random.default_rng(1))
        for rnn in (layer.forward_rnn, layer.backward_rnn):
            bias = rnn.cell.bias.data
            bias[: 2 * hidden] = -800.0  # GRU r, z; LSTM i, f
            if cls is BiLSTM:
                bias[3 * hidden:] = -800.0  # LSTM o
        x = Tensor(np.zeros((2, 3, 6)), requires_grad=True)
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        runs = []
        for fused in (True, False):
            with warnings.catch_warnings(), recurrent_kernel(fused):
                warnings.simplefilter("error", RuntimeWarning)
                runs.append(_run(layer, x, mask))
        (fused_out, fused_grads), (tape_out, tape_grads) = runs
        assert np.array_equal(fused_out, tape_out)
        for a, b in zip(fused_grads, tape_grads):
            assert np.array_equal(a, b)
        if cls is BiLSTM:
            assert not fused_out.any()  # o = 0 exactly, so h = 0


class TestTapeShape:
    """One node per scan, regardless of sequence length."""

    def test_gru_tape_is_length_independent(self, rng):
        sizes = []
        for length in (4, 8, 16):
            layer = GRU(3, 4, np.random.default_rng(0))
            x = Tensor(rng.normal(size=(2, length, 3)), requires_grad=True)
            sizes.append(_tape_size(layer(x).sum()))
        assert len(set(sizes)) == 1, f"fused tape grew with length: {sizes}"

    def test_rnn_nodes_counted_by_tape_profiler(self, rng):
        from repro.obs import profile_tape

        layer = BiGRU(3, 4, np.random.default_rng(0))
        x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        with profile_tape() as profile:
            layer(x).sum().backward()
        assert profile.rnn_nodes == 1  # both directions in one node
        assert profile.summary()["rnn_nodes"] == 1

    def test_rnn_nodes_zero_on_legacy_path(self, rng):
        from repro.obs import profile_tape

        layer = BiGRU(3, 4, np.random.default_rng(0))
        x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        with profile_tape() as profile, recurrent_kernel(False):
            layer(x).sum().backward()
        assert profile.rnn_nodes == 0
        assert profile.nodes_created > 0

    def test_no_node_recorded_without_grad(self, rng):
        from repro.autodiff.tensor import no_grad

        layer = GRU(3, 4, np.random.default_rng(0))
        with no_grad():
            out = layer(Tensor(rng.normal(size=(2, 5, 3))))
        assert out._node is None


class TestSecondOrderGuard:
    """Mirror of the ``crf_nll_fused`` guard tests."""

    def _double_grad(self, layer, x):
        out = layer(x)
        (gx,) = grad((out * out).sum(), [x], create_graph=True)
        return grad(gx.sum(), [x])

    def test_create_graph_through_fused_scan_raises(self, rng):
        layer = GRU(3, 4, np.random.default_rng(0))
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        with pytest.raises(RuntimeError, match="first-order only"):
            self._double_grad(layer, x)

    def test_recurrent_kernel_off_allows_second_order(self, rng):
        layer = GRU(3, 4, np.random.default_rng(0))
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        with recurrent_kernel(False):
            (gg,) = self._double_grad(layer, x)
        assert np.isfinite(gg.data).all()

    def test_create_graph_not_through_scan_is_fine(self, rng):
        """FewNER-style second order: the requested input sits *after*
        the encoder, so the fused node is never on the path and its
        guard must not fire."""
        layer = GRU(3, 4, np.random.default_rng(0))
        x = Tensor(rng.normal(size=(2, 4, 3)))
        phi = Tensor(rng.normal(size=(4,)), requires_grad=True)
        out = layer(x)
        loss = ((out * phi) ** 2).sum()
        (g_phi,) = grad(loss, [phi], create_graph=True)
        (gg,) = grad((g_phi * g_phi).sum(), [phi])
        assert np.isfinite(gg.data).all()


class TestFlagPlumbing:
    def test_default_state_includes_recurrent_kernel(self):
        assert fastpath_state()["recurrent_kernel"] is True

    def test_recurrent_kernel_disables_and_restores(self):
        assert recurrent_kernel_enabled()
        with recurrent_kernel(False):
            assert not recurrent_kernel_enabled()
        assert recurrent_kernel_enabled()

    def test_recurrent_kernel_context_restores_on_error(self):
        with pytest.raises(ValueError):
            with recurrent_kernel(False):
                assert not recurrent_kernel_enabled()
                raise ValueError("boom")
        assert recurrent_kernel_enabled()


class TestEffectiveMask:
    def test_all_ones_collapses_to_none(self):
        assert effective_mask(np.ones((3, 5)), 3, 5) is None
        assert effective_mask(None, 3, 5) is None

    def test_ragged_mask_passes_through_as_float(self):
        mask = np.array([[1, 1, 0], [1, 0, 0]])
        out = effective_mask(mask, 2, 3)
        assert out is not None
        assert out.dtype == float
        assert np.array_equal(out, mask.astype(float))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mask shape"):
            effective_mask(np.ones((2, 3)), 2, 4)

    def test_full_length_batch_skips_mask_nodes_on_legacy_path(self):
        """With an all-ones mask the legacy scan emits no keep/frozen
        constants — the tape is the same size as the mask-less call."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        with recurrent_kernel(False):
            layer = GRU(3, 4, np.random.default_rng(1))
            with_ones = _tape_size(layer(x, np.ones((2, 6))).sum())
            without = _tape_size(layer(x).sum())
            ragged = _tape_size(
                layer(x, _masks(rng, 2, 6)["ragged"]).sum()
            )
        assert with_ones == without
        assert ragged > with_ones
