"""Gated recurrent units: cell, unidirectional and bidirectional layers.

The BiGRU is the context encoder of the paper's CNN-BiGRU-CRF backbone
(depth 1, hidden size 128 in the paper; sizes are configurable).

Hot-path layout: by default a layer's whole scan runs as **one** fused
tape node with a hand-derived BPTT backward; a bidirectional layer runs
both directions in one stacked loop and one node
(:mod:`repro.perf.rnn_kernels`, bit-identical to the tape path in both
outputs and gradients; toggled by
:func:`repro.perf.fastpath.recurrent_kernel`).  The per-timestep tape
path is kept as the parity reference and for second-order work: the
input-to-gates projection of a whole sequence is one
``(B, L, I) @ (I, G·H)`` matmul hoisted out of the step loop (the cells
expose :meth:`GRUCell.step` / :meth:`LSTMCell.step` that consume the
precomputed slice), the loop-invariant scalar one and the per-step
keep/frozen mask constants are allocated once instead of per timestep —
the tape then grows by a fixed number of nodes per step (see
``tests/test_nn_rnn.py::TestTapeBudget``) — and mask application is
skipped entirely for full-length batches (all-ones mask), such as a
length-sorted serving micro-batch whose sentences share one length.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import (
    Tensor,
    concatenate,
    matmul,
    mul,
    sigmoid,
    stack,
    sub,
    tanh,
    zeros,
)
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.perf.fastpath import recurrent_kernel_enabled
from repro.perf.rnn_kernels import (
    bigru_forward_batch,
    bilstm_forward_batch,
    effective_mask,
    gru_forward_batch,
    lstm_forward_batch,
)

#: Loop-invariant scalar constant shared by every gate combination step.
#: Constants never require grad and are never mutated, so one instance
#: serves all layers and threads.
_ONE = Tensor(np.array(1.0))


class GRUCell(Module):
    """Single GRU step.

    Gates follow the standard formulation:
    ``r = sigma(x W_xr + h W_hr + b_r)``, ``z = sigma(x W_xz + h W_hz + b_z)``,
    ``n = tanh(x W_xn + (r * h) W_hn + b_n)``, ``h' = (1 - z) * n + z * h``.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Parameter(init.xavier_uniform(rng, (input_size, 3 * hidden_size)))
        self.w_h = Parameter(
            np.concatenate(
                [init.orthogonal(rng, (hidden_size, hidden_size)) for _ in range(3)],
                axis=1,
            )
        )
        self.bias = Parameter(init.zeros((3 * hidden_size,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return self.step(matmul(x, self.w_x) + self.bias, h)

    def step(self, gates_x: Tensor, h: Tensor,
             w_h: Tensor | None = None) -> Tensor:
        """One step given the precomputed input projection ``x W_x + b``."""
        hs = self.hidden_size
        gates_h = matmul(h, self.w_h if w_h is None else w_h)
        xr = gates_x[:, :hs]
        xz = gates_x[:, hs : 2 * hs]
        xn = gates_x[:, 2 * hs :]
        hr = gates_h[:, :hs]
        hz = gates_h[:, hs : 2 * hs]
        hn = gates_h[:, 2 * hs :]
        r = sigmoid(xr + hr)
        z = sigmoid(xz + hz)
        n = tanh(xn + mul(r, hn))
        return mul(sub(_ONE, z), n) + mul(z, h)


def _mask_pairs(mask: np.ndarray) -> list[tuple[Tensor, Tensor]]:
    """Per-step ``(keep, frozen)`` mask constants, built once per forward.

    Callers pass masks through :func:`repro.perf.rnn_kernels.effective_mask`
    first, so an all-ones mask never reaches here — full-length batches
    skip mask application entirely.
    """
    length = mask.shape[1]
    inverse = 1.0 - mask
    return [
        (Tensor(mask[:, t : t + 1]), Tensor(inverse[:, t : t + 1]))
        for t in range(length)
    ]


def _tape_unroll(cell, x: Tensor, mask: np.ndarray | None,
                 reverse: bool, n_state: int) -> Tensor:
    """Legacy per-timestep tape scan shared by :class:`GRU` and :class:`LSTM`.

    ``cell.step`` consumes the hoisted input projection slice and returns
    the new state — a single hidden Tensor for the GRU, an ``(h, c)``
    pair for the LSTM (``n_state`` states, every one frozen on padded
    steps; ``state[0]`` is the emitted hidden sequence).
    """
    batch, length, _input = x.shape
    state = tuple(zeros((batch, cell.hidden_size)) for _ in range(n_state))
    # One big input projection instead of ``length`` small ones.
    gates_x = matmul(x, cell.w_x) + cell.bias
    # Per-scan recurrent-weight alias: the ``length`` step matmuls
    # accumulate their gradient on this node, so ``w_h`` itself receives
    # one pre-summed contribution per scan — the same grouping as the
    # fused kernel's single tape node.  Without it, a backward that
    # crosses several scans of one cell folds the per-step contributions
    # in a different association order and the two paths drift by ULPs.
    w_h = mul(cell.w_h, _ONE)
    masks = None if mask is None else _mask_pairs(mask)
    steps = range(length - 1, -1, -1) if reverse else range(length)
    outputs: list[Tensor | None] = [None] * length
    for t in steps:
        new_state = cell.step(gates_x[:, t, :], *state, w_h=w_h)
        if not isinstance(new_state, tuple):
            new_state = (new_state,)
        if masks is None:
            state = new_state
        else:
            keep, frozen = masks[t]
            state = tuple(
                mul(keep, new) + mul(frozen, old)
                for new, old in zip(new_state, state)
            )
        outputs[t] = state[0]
    return stack(outputs, axis=1)  # (batch, length, hidden)


class GRU(Module):
    """Unidirectional GRU over a padded batch ``(batch, length, input)``.

    ``mask`` is ``(batch, length)`` with 1 for real tokens; the hidden
    state is frozen on padded steps so padding cannot leak into context.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, reverse: bool = False):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size
        self.reverse = reverse

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        batch, length, _input = x.shape
        mask = effective_mask(mask, batch, length)
        if recurrent_kernel_enabled():
            return gru_forward_batch(self.cell, x, mask, reverse=self.reverse)
        return _tape_unroll(self.cell, x, mask, self.reverse, n_state=1)


class BiGRU(Module):
    """Bidirectional GRU; concatenates forward and backward states."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.forward_rnn = GRU(input_size, hidden_size, rng, reverse=False)
        self.backward_rnn = GRU(input_size, hidden_size, rng, reverse=True)
        self.output_dim = 2 * hidden_size

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        if recurrent_kernel_enabled():
            return bigru_forward_batch(self, x, mask)
        fwd = self.forward_rnn(x, mask)
        bwd = self.backward_rnn(x, mask)
        return concatenate([fwd, bwd], axis=-1)


class LSTMCell(Module):
    """Single LSTM step with the standard i/f/g/o gating.

    The forget-gate bias is initialised to 1, the usual trick that keeps
    long-range gradients alive early in training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Parameter(init.xavier_uniform(rng, (input_size, 4 * hidden_size)))
        self.w_h = Parameter(
            np.concatenate(
                [init.orthogonal(rng, (hidden_size, hidden_size)) for _ in range(4)],
                axis=1,
            )
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        return self.step(matmul(x, self.w_x) + self.bias, h, c)

    def step(self, gates_x: Tensor, h: Tensor, c: Tensor,
             w_h: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """One step given the precomputed input projection ``x W_x + b``."""
        hs = self.hidden_size
        gates = gates_x + matmul(h, self.w_h if w_h is None else w_h)
        i = sigmoid(gates[:, :hs])
        f = sigmoid(gates[:, hs : 2 * hs])
        g = tanh(gates[:, 2 * hs : 3 * hs])
        o = sigmoid(gates[:, 3 * hs :])
        c_new = mul(f, c) + mul(i, g)
        h_new = mul(o, tanh(c_new))
        return h_new, c_new


class LSTM(Module):
    """Unidirectional LSTM over a padded batch ``(batch, length, input)``."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, reverse: bool = False):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size
        self.reverse = reverse

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        batch, length, _input = x.shape
        mask = effective_mask(mask, batch, length)
        if recurrent_kernel_enabled():
            return lstm_forward_batch(self.cell, x, mask, reverse=self.reverse)
        return _tape_unroll(self.cell, x, mask, self.reverse, n_state=2)


class BiLSTM(Module):
    """Bidirectional LSTM — the classic BiLSTM-CRF context encoder."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.forward_rnn = LSTM(input_size, hidden_size, rng, reverse=False)
        self.backward_rnn = LSTM(input_size, hidden_size, rng, reverse=True)
        self.output_dim = 2 * hidden_size

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        if recurrent_kernel_enabled():
            return bilstm_forward_batch(self, x, mask)
        fwd = self.forward_rnn(x, mask)
        bwd = self.backward_rnn(x, mask)
        return concatenate([fwd, bwd], axis=-1)
