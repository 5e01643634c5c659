"""Fused recurrent kernels: one stacked scan and one tape node per layer.

The GRU/LSTM layers in :mod:`repro.nn.rnn` normally emit ~24 tape nodes
per timestep (gate matmul, slice, sigmoid/tanh, combine, mask).  For a
24-token sentence that is ~580 nodes whose backward is pure Python
dispatch.  These kernels mirror the fused CRF NLL design
(:func:`repro.perf.kernels.crf_nll_fused`): the *entire* unrolled
sequence runs as plain numpy and registers as a **single** tape node
with a hand-derived BPTT backward.

Both directions of a bidirectional layer run in **one** stacked scan.
Each direction keeps its own ``x @ w_x + b`` input projection (one
merged ``(I, 2·G·H)`` GEMM would be a different BLAS call shape, and
BLAS does not promise the same bits for it).  The projections are laid
out once in step order as ``(L, D, B, G·H)``: slot ``d`` at step ``s``
holds direction ``d`` at time ``s``, or at ``L-1-s`` when that
direction runs in reverse.  The keep/frozen masks are laid out the same
way as ``(L, D, B, 1)``.  Each step is then one stacked
``(D, B, H) @ (D, H, G·H)`` matmul, which numpy runs as one BLAS call
per slot with the shape of the 2-D call, plus elementwise arithmetic on
``(D, B, ·)`` arrays.  A unidirectional layer is the ``D = 1`` case.

Bit-identity contract
---------------------
Outputs *and* gradients (w.r.t. ``x``, ``w_x``, ``w_h``, ``bias``) are
bit-identical to the per-timestep tape path, not merely close:

* the forward performs the same float operations in the same order the
  tape ops would (``1/(1+exp(-s))``, ``np.tanh``, ``(1-z)*n + z*h``,
  ``keep*h' + frozen*h``); computing the GRU's ``r`` and ``z`` (the
  LSTM's ``i`` and ``f``) with one sigmoid over a ``2H`` slice is
  elementwise, so it is exact;
* the backward replays the exact VJP arithmetic of the tape — e.g. the
  sigmoid VJP is ``g * (out * (1 - out))`` with that association, and
  multi-contribution gradient sums are accumulated in the tape's
  left-associated traversal order (``((g_out + D·z) + dG·Wᵀ) + G·frozen``
  for the GRU hidden state);
* per-step activations (``r, z, n`` / ``i, f, g, o, tanh(c)``) are
  stashed during the forward scan and consumed by one reverse scan that
  carries ``dh`` (and ``dc``) across timesteps for every direction at
  once; ``x``, ``w_x`` and ``bias`` gradients are then taken per
  direction with the same calls as a single-direction scan;
* ``x`` is listed once per direction among the node's parents, so its
  two contributions reach the tape as two terms, forward first, as the
  tape route's two scans deliver them;
* the weight arrays are captured at forward time, so a backward that
  runs after the cell's parameters were swapped (MAML's
  ``override_params`` exits before the outer backward) uses the weights
  the forward actually ran with;
* when one backward spans several scans of the same cell, ``w_h``
  receives one pre-summed contribution per scan on both paths (the
  tape scan routes its per-step contributions through a per-scan
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

    ``None`` means "every step is kept": the scan (fused or tape) can
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


def _time_order(steps: np.ndarray, d: int, reverse: bool) -> np.ndarray:
    """Direction ``d`` of an ``(L, D, B, K)`` step-ordered array, as a
    ``(B, L, K)`` view in time order.

    Slot ``d`` at step ``s`` holds time ``s``, or ``L-1-s`` for a
    direction that runs in reverse.
    """
    return (steps[::-1, d] if reverse else steps[:, d]).transpose(1, 0, 2)


def _to_steps(arrays, reverses) -> np.ndarray:
    """Per-direction ``(B, L, K)`` arrays as one ``(L, D, B, K)`` array."""
    batch, length, width = arrays[0].shape
    steps = np.empty((length, len(arrays), batch, width), arrays[0].dtype)
    for d, (a, reverse) in enumerate(zip(arrays, reverses)):
        _time_order(steps, d, reverse)[...] = a
    return steps


def _input_gates(x: np.ndarray, cells, reverses) -> np.ndarray:
    """Each direction's ``x @ w_x + b``, as the tape hoists it, in step
    order ``(L, D, B, G·H)``.

    The projections are made one at a time with the bias added in place
    (the same additions), so only one is alive beside the stacked array.
    """
    gates = None
    for d, (cell, reverse) in enumerate(zip(cells, reverses)):
        proj = x @ cell.w_x.data
        proj += cell.bias.data
        if gates is None:
            batch, length, width = proj.shape
            gates = np.empty((length, len(cells), batch, width), proj.dtype)
        _time_order(gates, d, reverse)[...] = proj
        del proj
    return gates


def _stacked_scan(cells, reverses, x: Tensor, mask, loop, bptt_loop) -> Tensor:
    """One scan over every direction in ``cells``, as one tape node.

    ``loop`` runs the forward steps and ``bptt_loop`` the reverse ones
    (GRU or LSTM).  Returns ``(B, L, D·H)``: the directions' hidden
    sequences side by side in time order, forward first.
    """
    batch, length, _input = x.shape
    mask = effective_mask(mask, batch, length)
    # Capture the weight arrays NOW: the backward may run after the cells'
    # parameters were swapped (e.g. MAML's override_params has exited), and
    # it must use the weights the forward actually ran with.
    w_xs = [cell.w_x.data for cell in cells]
    if mask is None:
        keep = frozen = None
    else:
        column = mask[:, :, None]
        keep = _to_steps([column] * len(cells), reverses)
        frozen = _to_steps([1.0 - column] * len(cells), reverses)
    w_h = np.stack([cell.w_h.data for cell in cells])
    parents = tuple(
        p for cell in cells for p in (x, cell.w_x, cell.w_h, cell.bias)
    )
    record = is_grad_enabled() and any(p.requires_grad for p in parents)

    hs = cells[0].hidden_size
    # The stacked gates live only while the loop runs.  A gate
    # pre-activation below about -709 overflows ``exp`` in the sigmoid;
    # its value, the exact limit 0, is right, so the warning is noise.
    with np.errstate(over="ignore"):
        out_steps, acts = loop(_input_gates(x.data, cells, reverses), w_h,
                               keep, frozen, hs, record)
    out = np.empty((batch, length, len(cells) * hs), dtype=out_steps.dtype)
    for d, reverse in enumerate(reverses):
        out[:, :, d * hs:(d + 1) * hs] = _time_order(out_steps, d, reverse)
    if not record:
        return Tensor(out)

    def bptt(g: np.ndarray):
        g_steps = _to_steps(
            [g[:, :, d * hs:(d + 1) * hs] for d in range(len(cells))],
            reverses,
        )
        dgates, dwh = bptt_loop(g_steps, acts, w_h.transpose(0, 2, 1),
                                keep, frozen, hs)
        grads = []
        for d, (w_x, reverse) in enumerate(zip(w_xs, reverses)):
            dgx = np.ascontiguousarray(_time_order(dgates, d, reverse))
            grads += [
                dgx @ w_x.T,
                (x.data.transpose(0, 2, 1) @ dgx).sum(axis=0),
                None if dwh is None else dwh[d],
                dgx.sum(axis=(0, 1)),
            ]
        return grads

    return _make(out, parents, _guarded_vjps(bptt, len(parents)))


# ----------------------------------------------------------------------
# GRU
# ----------------------------------------------------------------------

def _gru_loop(gates, w_h, keep, frozen, hs, record):
    """Forward steps: the ``(L, D, B, H)`` states, and the per-step
    activations when ``record``."""
    length, dirs, batch, _ = gates.shape
    hs2 = 2 * hs
    h = np.zeros((dirs, batch, hs), dtype=DEFAULT_DTYPE)
    out = np.empty((length, dirs, batch, hs), dtype=gates.dtype)
    acts: list | None = [] if record else None
    for s in range(length):
        gh = h @ w_h
        gx = gates[s]
        rz = 1.0 / (1.0 + np.exp(-(gx[..., :hs2] + gh[..., :hs2])))
        r = rz[..., :hs]
        z = rz[..., hs:]
        hn = gh[..., hs2:]
        n = np.tanh(gx[..., hs2:] + r * hn)
        h_new = (1.0 - z) * n + z * h
        if keep is None:
            h_next = h_new
        else:
            h_next = keep[s] * h_new + frozen[s] * h
        if acts is not None:
            acts.append((h, r, z, n, hn))
        h = h_next
        out[s] = h
    return out, acts


def _gru_bptt_loop(g_steps, acts, w_h_t, keep, frozen, hs):
    """Reverse steps: the ``(L, D, B, G·H)`` input-gate cotangents and
    the stacked ``w_h`` gradient (``None`` when ``L = 0``)."""
    length = len(acts)
    hs2 = 2 * hs
    dgates = np.empty(g_steps.shape[:3] + (3 * hs,), dtype=g_steps.dtype)
    dwh = None
    dh = None  # cotangent carried into the chain-previous step
    for s in range(length - 1, -1, -1):
        h_prev, r, z, n, hn = acts[s]
        big_g = g_steps[s] if dh is None else dh
        d = big_g if keep is None else big_g * keep[s]
        # Exact tape VJP arithmetic, in tape accumulation order.
        dn = d * (1.0 - z)
        ds3 = dn * (1.0 - n * n)
        dr = ds3 * hn
        ds1 = dr * (r * (1.0 - r))
        dz = -(d * n) + d * h_prev
        ds2 = dz * (z * (1.0 - z))
        dgh = np.concatenate([ds1, ds2, ds3 * r], axis=-1)
        dgates[s, ..., :hs2] = dgh[..., :hs2]
        dgates[s, ..., hs2:] = ds3  # r scales only the recurrent part
        step_dwh = h_prev.transpose(0, 2, 1) @ dgh
        dwh = step_dwh if dwh is None else dwh + step_dwh
        if s > 0:
            dh = (g_steps[s - 1] + d * z) + dgh @ w_h_t
            if keep is not None:
                dh = dh + big_g * frozen[s]
    return dgates, dwh


def gru_forward_batch(cell, x: Tensor, mask=None, reverse: bool = False) -> Tensor:
    """Fused GRU scan over a padded batch, as one tape node.

    ``cell`` is a :class:`repro.nn.rnn.GRUCell`; ``x`` is ``(B, L, I)``;
    ``mask`` is ``(B, L)`` with 1 for real tokens (hidden state frozen on
    padded steps).  Returns ``(B, L, H)``, bit-identical to
    ``GRU.forward`` on the tape path.
    """
    return _stacked_scan((cell,), (reverse,), x, mask,
                         _gru_loop, _gru_bptt_loop)


def bigru_forward_batch(layer, x: Tensor, mask=None) -> Tensor:
    """Fused bidirectional GRU: both directions in one stacked scan."""
    cells = (layer.forward_rnn.cell, layer.backward_rnn.cell)
    return _stacked_scan(cells, (False, True), x, mask,
                         _gru_loop, _gru_bptt_loop)


# ----------------------------------------------------------------------
# LSTM
# ----------------------------------------------------------------------

def _lstm_loop(gates, w_h, keep, frozen, hs, record):
    """Forward steps, as :func:`_gru_loop`."""
    length, dirs, batch, _ = gates.shape
    hs2, hs3 = 2 * hs, 3 * hs
    h = np.zeros((dirs, batch, hs), dtype=DEFAULT_DTYPE)
    c = np.zeros((dirs, batch, hs), dtype=DEFAULT_DTYPE)
    out = np.empty((length, dirs, batch, hs), dtype=gates.dtype)
    acts: list | None = [] if record else None
    for s in range(length):
        pre = gates[s] + h @ w_h
        i_f = 1.0 / (1.0 + np.exp(-pre[..., :hs2]))
        i = i_f[..., :hs]
        f = i_f[..., hs:]
        gg = np.tanh(pre[..., hs2:hs3])
        o = 1.0 / (1.0 + np.exp(-pre[..., hs3:]))
        c_new = f * c + i * gg
        th = np.tanh(c_new)
        h_new = o * th
        if keep is None:
            h_next, c_next = h_new, c_new
        else:
            h_next = keep[s] * h_new + frozen[s] * h
            c_next = keep[s] * c_new + frozen[s] * c
        if acts is not None:
            acts.append((h, c, i, f, gg, o, th))
        h, c = h_next, c_next
        out[s] = h
    return out, acts


def _lstm_bptt_loop(g_steps, acts, w_h_t, keep, frozen, hs):
    """Reverse steps, as :func:`_gru_bptt_loop`."""
    length = len(acts)
    dgates = np.empty(g_steps.shape[:3] + (4 * hs,), dtype=g_steps.dtype)
    dwh = None
    dh = None
    dc = None  # no gradient reaches the final cell state
    for s in range(length - 1, -1, -1):
        h_prev, c_prev, i, f, gg, o, th = acts[s]
        big_g = g_steps[s] if dh is None else dh
        if keep is None:
            keep_s = frozen_s = None
            d_h = big_g
        else:
            keep_s = keep[s]
            frozen_s = frozen[s]
            d_h = big_g * keep_s
        d_o = d_h * th
        d_th = d_h * o
        dc_new = d_th * (1.0 - th * th)
        if dc is not None:
            dc_in = dc if keep_s is None else dc * keep_s
            dc_new = dc_in + dc_new
        d_f = dc_new * c_prev
        d_i = dc_new * gg
        d_g = dc_new * i
        dg = np.concatenate(
            [
                d_i * (i * (1.0 - i)),
                d_f * (f * (1.0 - f)),
                d_g * (1.0 - gg * gg),
                d_o * (o * (1.0 - o)),
            ],
            axis=-1,
        )
        dgates[s] = dg
        step_dwh = h_prev.transpose(0, 2, 1) @ dg
        dwh = step_dwh if dwh is None else dwh + step_dwh
        if s > 0:
            dh = g_steps[s - 1] + dg @ w_h_t
            if frozen_s is not None:
                dh = dh + big_g * frozen_s
            dc_prev = dc_new * f
            if dc is not None and frozen_s is not None:
                dc_prev = dc * frozen_s + dc_prev
            dc = dc_prev
    return dgates, dwh


def lstm_forward_batch(cell, x: Tensor, mask=None, reverse: bool = False) -> Tensor:
    """Fused LSTM scan over a padded batch, as one tape node.

    Mirrors :func:`gru_forward_batch` for :class:`repro.nn.rnn.LSTMCell`
    (both the hidden and the cell state freeze on padded steps).
    """
    return _stacked_scan((cell,), (reverse,), x, mask,
                         _lstm_loop, _lstm_bptt_loop)


def bilstm_forward_batch(layer, x: Tensor, mask=None) -> Tensor:
    """Fused bidirectional LSTM: both directions in one stacked scan."""
    cells = (layer.forward_rnn.cell, layer.backward_rnn.cell)
    return _stacked_scan(cells, (False, True), x, mask,
                         _lstm_loop, _lstm_bptt_loop)
