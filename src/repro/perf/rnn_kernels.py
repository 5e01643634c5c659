"""Fused batched-over-time recurrent kernels: one tape node per scan.

The GRU/LSTM layers in :mod:`repro.nn.rnn` normally emit ~24 tape nodes
per timestep (gate matmul, slice, sigmoid/tanh, combine, mask).  For a
24-token sentence that is ~580 nodes whose backward is pure Python
dispatch.  These kernels mirror the fused CRF NLL design
(:func:`repro.perf.kernels.crf_nll_fused`): the *entire* unrolled
sequence runs as plain numpy — input projection ``(B, L, G·H)``
precomputed once, one fused ``(B, G·H)`` gate matmul per timestep,
keep/frozen masking as array arithmetic — and registers as a **single**
tape node with a hand-derived BPTT backward.

Bit-identity contract
---------------------
Outputs *and* gradients (w.r.t. ``x``, ``w_x``, ``w_h``, ``bias``) are
bit-identical to the legacy per-timestep tape path, not merely close:

* the forward performs the same float operations in the same order the
  tape ops would (``1/(1+exp(-s))``, ``np.tanh``, ``(1-z)*n + z*h``,
  ``keep*h' + frozen*h``);
* the backward replays the exact VJP arithmetic of the tape — e.g. the
  sigmoid VJP is ``g * (out * (1 - out))`` with that association, and
  multi-contribution gradient sums are accumulated in the tape's
  left-associated traversal order (``((g_out + D·z) + dG·Wᵀ) + G·frozen``
  for the GRU hidden state);
* per-step activations (``r, z, n`` / ``i, f, g, o, tanh(c)``) are
  stashed during the forward scan and consumed by one reverse scan that
  carries ``dh`` (and ``dc``) across timesteps;
* the weight arrays are captured at forward time, so a backward that
  runs after the cell's parameters were swapped (MAML's
  ``override_params`` exits before the outer backward) uses the weights
  the forward actually ran with;
* when one backward spans several scans of the same cell, ``w_h``
  receives one pre-summed contribution per scan on both paths (the
  legacy scan routes its per-step contributions through a per-scan
  alias node), so the gradient association order agrees exactly.

The backward is computed *outside* the tape, so — exactly like the
fused CRF NLL — it is first-order only: differentiating through it with
``create_graph=True`` raises ``RuntimeError``.  Wrap second-order work
in :func:`repro.perf.fastpath.recurrent_kernel` ``(False)`` (MAML's
inner loop does this).

When a full-length batch makes the mask all-ones the mask arithmetic is
skipped entirely (``x·1`` and ``+ x·0`` are exact no-ops, so skipping
is itself bit-identical); see :func:`effective_mask`.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import (
    DEFAULT_DTYPE,
    Tensor,
    _make,
    concatenate,
    is_grad_enabled,
)

__all__ = [
    "bigru_forward_batch",
    "bilstm_forward_batch",
    "effective_mask",
    "gru_forward_batch",
    "lstm_forward_batch",
]

_SECOND_ORDER_MSG = (
    "the fused recurrent kernel is first-order only: its BPTT backward "
    "runs outside the tape, so create_graph=True cannot differentiate "
    "through it — wrap second-order work in "
    "repro.perf.fastpath.recurrent_kernel(False)"
)


def effective_mask(mask, batch: int, length: int) -> np.ndarray | None:
    """Normalise ``mask`` to a float array, or ``None`` when it is all-ones.

    ``None`` means "every step is kept": the scan (fused or legacy) can
    skip the keep/frozen arithmetic entirely.  Skipping is bit-identical
    because ``keep*h' == h'`` and ``frozen*h == 0`` exactly when
    ``keep == 1``.
    """
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=float)
    if mask.shape != (batch, length):
        raise ValueError(
            f"mask shape {mask.shape} does not match batch ({batch}, {length})"
        )
    if np.all(mask == 1.0):
        return None
    return mask


def _scan_inputs(cell, x: Tensor, mask):
    """Shared head of both scans: projection, mask, recording decision."""
    batch, length, _input = x.shape
    mask = effective_mask(mask, batch, length)
    inverse = None if mask is None else 1.0 - mask
    # One big input projection, exactly as the tape path hoists it.
    gates_x = x.data @ cell.w_x.data + cell.bias.data
    record = is_grad_enabled() and any(
        p.requires_grad for p in (x, cell.w_x, cell.w_h, cell.bias)
    )
    return batch, length, mask, inverse, gates_x, record


def _fused_vjps(backward, n: int, message: str):
    """VJP tuple for one fused node: shared lazy backward, grad-of-grad guard.

    All parents receive the same output cotangent ``g``; ``backward``
    runs once per distinct ``g`` and is cached by identity (the cache
    holds a reference to ``g``, so an id can never be reused while
    cached).  A ``None`` gradient means the parent is unused.  Under
    ``create_graph=True`` every VJP raises ``RuntimeError(message)``.
    """
    cache: list = []

    def run(g: Tensor):
        if is_grad_enabled():
            raise RuntimeError(message)
        if not (cache and cache[0] is g):
            cache[:] = [g, backward(np.asarray(g.data))]
        return cache[1]

    def make_vjp(index: int):
        def vjp(g: Tensor) -> Tensor | None:
            grad = run(g)[index]
            return None if grad is None else Tensor(grad)

        return vjp

    return tuple(make_vjp(i) for i in range(n))


def _guarded_vjps(bptt, n: int):
    """The recurrent kernels' fused-node VJPs around their BPTT.

    A name of its own so ``repobench``'s tracer can wrap it and time the
    BPTT apart from the CRF kernel, which calls :func:`_fused_vjps`."""
    return _fused_vjps(bptt, n, _SECOND_ORDER_MSG)


# ----------------------------------------------------------------------
# GRU
# ----------------------------------------------------------------------

def gru_forward_batch(cell, x: Tensor, mask=None, reverse: bool = False) -> Tensor:
    """Fused GRU scan over a padded batch, as one tape node.

    ``cell`` is a :class:`repro.nn.rnn.GRUCell`; ``x`` is ``(B, L, I)``;
    ``mask`` is ``(B, L)`` with 1 for real tokens (hidden state frozen on
    padded steps).  Returns ``(B, L, H)``, bit-identical to
    ``GRU.forward`` on the legacy tape path.
    """
    hs = cell.hidden_size
    batch, length, mask, inverse, gates_x, record = _scan_inputs(cell, x, mask)
    # Capture the weight arrays NOW: the backward may run after the cell's
    # parameters were swapped (e.g. MAML's override_params has exited), and
    # it must use the weights the forward actually ran with.
    w_x = cell.w_x.data
    w_h = cell.w_h.data

    h = np.zeros((batch, hs), dtype=DEFAULT_DTYPE)
    out = np.empty((batch, length, hs), dtype=gates_x.dtype)
    steps = range(length - 1, -1, -1) if reverse else range(length)
    acts: list | None = [] if record else None
    for t in steps:
        gh = h @ w_h
        gx = gates_x[:, t, :]
        r = 1.0 / (1.0 + np.exp(-(gx[:, :hs] + gh[:, :hs])))
        z = 1.0 / (1.0 + np.exp(-(gx[:, hs:2 * hs] + gh[:, hs:2 * hs])))
        hn = gh[:, 2 * hs:]
        n = np.tanh(gx[:, 2 * hs:] + r * hn)
        h_new = (1.0 - z) * n + z * h
        if mask is None:
            h_next = h_new
        else:
            h_next = mask[:, t:t + 1] * h_new + inverse[:, t:t + 1] * h
        if acts is not None:
            acts.append((h, r, z, n, hn))
        h = h_next
        out[:, t, :] = h

    if not record:
        return Tensor(out)

    def bptt(g: np.ndarray):
        dgx = np.zeros_like(gates_x)
        dwh = None
        dh = None  # cotangent carried into the chain-previous step
        order = list(steps)
        for pos in range(length - 1, -1, -1):
            t = order[pos]
            h_prev, r, z, n, hn = acts[pos]
            big_g = g[:, t, :] if dh is None else dh
            if mask is None:
                d = big_g
            else:
                d = big_g * mask[:, t:t + 1]
            # Exact tape VJP arithmetic, in tape accumulation order.
            dn = d * (1.0 - z)
            ds3 = dn * (1.0 - n * n)
            dr = ds3 * hn
            ds1 = dr * (r * (1.0 - r))
            dz = -(d * n) + d * h_prev
            ds2 = dz * (z * (1.0 - z))
            dgh = np.concatenate([ds1, ds2, ds3 * r], axis=1)
            dgx[:, t, :hs] = ds1
            dgx[:, t, hs:2 * hs] = ds2
            dgx[:, t, 2 * hs:] = ds3
            step_dwh = h_prev.T @ dgh
            dwh = step_dwh if dwh is None else dwh + step_dwh
            if pos > 0:
                prev_t = order[pos - 1]
                dh = (g[:, prev_t, :] + d * z) + dgh @ w_h.T
                if mask is not None:
                    dh = dh + big_g * inverse[:, t:t + 1]
        dx = dgx @ w_x.T
        dwx = (x.data.transpose(0, 2, 1) @ dgx).sum(axis=0)
        db = dgx.sum(axis=(0, 1))
        return dx, dwx, dwh, db

    parents = (x, cell.w_x, cell.w_h, cell.bias)
    return _make(out, parents, _guarded_vjps(bptt, len(parents)))


def bigru_forward_batch(layer, x: Tensor, mask=None) -> Tensor:
    """Fused bidirectional GRU: two fused scans, concatenated on the tape."""
    fwd = gru_forward_batch(layer.forward_rnn.cell, x, mask, reverse=False)
    bwd = gru_forward_batch(layer.backward_rnn.cell, x, mask, reverse=True)
    return concatenate([fwd, bwd], axis=-1)


# ----------------------------------------------------------------------
# LSTM
# ----------------------------------------------------------------------

def lstm_forward_batch(cell, x: Tensor, mask=None, reverse: bool = False) -> Tensor:
    """Fused LSTM scan over a padded batch, as one tape node.

    Mirrors :func:`gru_forward_batch` for :class:`repro.nn.rnn.LSTMCell`
    (both the hidden and the cell state freeze on padded steps).
    """
    hs = cell.hidden_size
    batch, length, mask, inverse, gates_x, record = _scan_inputs(cell, x, mask)
    # Captured at forward time — see gru_forward_batch.
    w_x = cell.w_x.data
    w_h = cell.w_h.data

    h = np.zeros((batch, hs), dtype=DEFAULT_DTYPE)
    c = np.zeros((batch, hs), dtype=DEFAULT_DTYPE)
    out = np.empty((batch, length, hs), dtype=gates_x.dtype)
    steps = range(length - 1, -1, -1) if reverse else range(length)
    acts: list | None = [] if record else None
    for t in steps:
        gates = gates_x[:, t, :] + h @ w_h
        i = 1.0 / (1.0 + np.exp(-gates[:, :hs]))
        f = 1.0 / (1.0 + np.exp(-gates[:, hs:2 * hs]))
        gg = np.tanh(gates[:, 2 * hs:3 * hs])
        o = 1.0 / (1.0 + np.exp(-gates[:, 3 * hs:]))
        c_new = f * c + i * gg
        th = np.tanh(c_new)
        h_new = o * th
        if mask is None:
            h_next, c_next = h_new, c_new
        else:
            keep = mask[:, t:t + 1]
            frozen = inverse[:, t:t + 1]
            h_next = keep * h_new + frozen * h
            c_next = keep * c_new + frozen * c
        if acts is not None:
            acts.append((h, c, i, f, gg, o, th))
        h, c = h_next, c_next
        out[:, t, :] = h

    if not record:
        return Tensor(out)

    def bptt(g: np.ndarray):
        dgx = np.zeros_like(gates_x)
        dwh = None
        dh = None
        dc = None  # no gradient reaches the final cell state
        order = list(steps)
        for pos in range(length - 1, -1, -1):
            t = order[pos]
            h_prev, c_prev, i, f, gg, o, th = acts[pos]
            big_g = g[:, t, :] if dh is None else dh
            if mask is None:
                keep = frozen = None
                d_h = big_g
            else:
                keep = mask[:, t:t + 1]
                frozen = inverse[:, t:t + 1]
                d_h = big_g * keep
            d_o = d_h * th
            d_th = d_h * o
            dc_new = d_th * (1.0 - th * th)
            if dc is not None:
                dc_in = dc if keep is None else dc * keep
                dc_new = dc_in + dc_new
            d_f = dc_new * c_prev
            d_i = dc_new * gg
            d_g = dc_new * i
            dgates = np.concatenate(
                [
                    d_i * (i * (1.0 - i)),
                    d_f * (f * (1.0 - f)),
                    d_g * (1.0 - gg * gg),
                    d_o * (o * (1.0 - o)),
                ],
                axis=1,
            )
            dgx[:, t, :] = dgates
            step_dwh = h_prev.T @ dgates
            dwh = step_dwh if dwh is None else dwh + step_dwh
            if pos > 0:
                prev_t = order[pos - 1]
                dh = g[:, prev_t, :] + dgates @ w_h.T
                if frozen is not None:
                    dh = dh + big_g * frozen
                dc_prev = dc_new * f
                if dc is not None and frozen is not None:
                    dc_prev = dc * frozen + dc_prev
                dc = dc_prev
        dx = dgx @ w_x.T
        dwx = (x.data.transpose(0, 2, 1) @ dgx).sum(axis=0)
        db = dgx.sum(axis=(0, 1))
        return dx, dwx, dwh, db

    parents = (x, cell.w_x, cell.w_h, cell.bias)
    return _make(out, parents, _guarded_vjps(bptt, len(parents)))


def bilstm_forward_batch(layer, x: Tensor, mask=None) -> Tensor:
    """Fused bidirectional LSTM: two fused scans, concatenated on the tape."""
    fwd = lstm_forward_batch(layer.forward_rnn.cell, x, mask, reverse=False)
    bwd = lstm_forward_batch(layer.backward_rnn.cell, x, mask, reverse=True)
    return concatenate([fwd, bwd], axis=-1)
