"""Fused character CNN: one tape node per call.

:class:`repro.nn.conv.CharCNN` on the tape records about 20 nodes per
call: for each filter width ``pad`` → window ``getitem`` → ``reshape``
→ ``matmul`` → ``+ bias`` → ``relu`` → ``max_``, then one
``concatenate``.  :func:`char_cnn_fused` runs the same arithmetic as
plain numpy and registers it as **one** node whose parents are the
char-embedding output and each width's weight and bias — the shape of
a single ``TimeDistributed(Conv1D)`` + global-max-pool char encoder.

Bit-identity contract
---------------------
The output and every gradient are bit-identical to the tape route:

* the forward pads once, with zeros sized for the widest filter, and
  gives each width its ``"same"`` offset slice of that padding; the
  windows (``sliding_window_view``) are copied to a contiguous
  ``(W, C, k·d)`` array in the tape's window-major, channel-minor
  order, and then the tape's own calls follow: the ``(W, C, k·d) @
  (k·d, F)`` matmul, ``+ bias``, the relu mask multiply, ``max`` over
  the character axis and the concatenation;
* the backward replays each node's VJP with the same numpy call: the
  tie-split ``max_`` mask, the relu mask, the bias unbroadcast sum and
  both matmul VJPs;
* the window adjoint, a ``scatter_array`` bincount on the tape, is
  ``k`` shifted slice-adds into zeros in descending window-offset
  order.  ``bincount`` adds each padded position's contributions in
  ascending window order, which is descending offset, starting from
  ``0.0`` — the same sequence of float additions;
* the widths' contributions to the char embeddings are summed in the
  order the tape's reverse sweep sums them: ``(d₂ + d₃) + d₄`` for
  widths ``(2, 3, 4)``.

The backward runs outside the tape, so it is first-order only:
differentiating through it with ``create_graph=True`` raises
``RuntimeError``.  Second-order work runs under
:func:`repro.perf.fastpath.recurrent_kernel` ``(False)``, which also
routes the char-CNN back to the tape.

Off the tape
------------
:func:`char_cnn_from_ids` is the forward alone, read straight from the
character ids and the embedding table, in blocks of at most
:data:`BLOCK_WORDS` words.  Its output bytes equal
:func:`char_cnn_fused`'s:

* one ``np.take`` from the table with a zero row appended gathers each
  word's widest windows (the ``"same"`` padding indexes the zero row);
  a narrower width's windows are the columns at its ``"same"`` offset,
  so every width runs the same ``(W, C, k·d) @ (k·d, F)`` matmul on the
  same values;
* the max over characters is taken on the matmul output, then the bias
  is added and relu applied.  ``fl(x + b)`` is monotone in ``x`` and
  relu commutes with max, so a positive result is the same float.  When
  no character is positive, every relu output is a zero and
  ``np.maximum`` returns the second of two equal operands (the tests
  pin this), so the recorded max is the last character's zero, which
  is taken as is.

The matmul is one ``(C, k·d) @ (k·d, F)`` GEMM per word, so a word's
output bytes do not depend on the other words of its call or block, and
``CharCNN.forward`` may run it on a padded batch's distinct rows
(:func:`distinct_rows`) and gather the output back.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autodiff.tensor import DEFAULT_DTYPE, Tensor, _make
from repro.perf.rnn_kernels import _fused_vjps

__all__ = ["BLOCK_WORDS", "char_cnn_fused", "char_cnn_from_ids",
           "distinct_rows"]

#: Words per block of :func:`char_cnn_from_ids`: it bounds the window
#: array a large batch allocates at once.
BLOCK_WORDS = 256

_SECOND_ORDER_MSG = (
    "the fused char-CNN is first-order only: its backward runs outside "
    "the tape, so create_graph=True cannot differentiate through it — "
    "wrap second-order work in repro.perf.fastpath.recurrent_kernel(False)"
)


def _window_adjoint(g_windows: np.ndarray, padded_len: int) -> np.ndarray:
    """Sum ``(W, C, k, d)`` window cotangents into ``(W, C+k-1, d)``.

    Position ``p`` receives ``g[:, p-j, j]`` for every offset ``j``;
    adding the offsets from ``k-1`` down to 0 is the order
    ``scatter_array`` adds them in."""
    words, chars, k, dim = g_windows.shape
    out = np.zeros((words, padded_len, dim), dtype=g_windows.dtype)
    for j in range(k - 1, -1, -1):
        out[:, j:j + chars] += g_windows[:, :, j]
    return out


def distinct_rows(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D id matrix and, per row, its index
    among them: ``rows[inverse]`` equals ``ids``."""
    ids = np.ascontiguousarray(ids)
    keys = ids.view(np.dtype((np.void, ids.dtype.itemsize * ids.shape[1])))
    _keys, first, inverse = np.unique(keys[:, 0], return_index=True,
                                      return_inverse=True)
    return ids[first], inverse


def char_cnn_fused(emb: Tensor, convs) -> Tensor:
    """Multi-width ``"same"`` conv + relu + max-over-characters, one node.

    ``emb`` is the ``(W, C, d)`` char-embedding output; ``convs`` are the
    :class:`repro.nn.conv.Conv1d` layers of a
    :class:`~repro.nn.conv.CharCNN`.  Returns ``(W, ΣF)``, bit-identical
    to ``CharCNN.forward``'s tape route in value and gradients.
    """
    data = emb.data
    words, chars, dim = data.shape
    widest = max(conv.kernel_size for conv in convs)
    lead = (widest - 1) // 2
    padded = np.zeros((words, chars + widest - 1, dim), dtype=data.dtype)
    padded[:, lead:lead + chars] = data
    # The parameter arrays are captured now: a backward that runs after
    # ``override_params`` exits must use the weights the forward used.
    params = [(conv.kernel_size, conv.weight, conv.bias) for conv in convs]
    parents = (emb,) + tuple(t for _k, w, b in params for t in (w, b))

    pooled = []
    stash = []
    for k, weight, bias in params:
        start = lead - (k - 1) // 2
        windows = sliding_window_view(
            padded[:, start:start + chars + k - 1], k, axis=1
        )  # (W, C, d, k)
        flat = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(
            (words, chars, k * dim)
        )
        lin = flat @ weight.data + bias.data
        relu_mask = (lin > 0).astype(lin.dtype)
        feat = lin * relu_mask
        peak = feat.max(axis=(1,), keepdims=True)
        pooled.append(np.squeeze(peak, axis=(1,)))
        stash.append((k, flat, weight.data, relu_mask, feat, peak))
        # The backward does not keep ``lin``: free it before the next
        # width allocates.
        del lin
    out = np.concatenate(pooled, axis=-1)

    def backward(g: np.ndarray):
        d_emb = None
        d_params = []
        hi = 0
        for k, flat, w, relu_mask, feat, peak in stash:
            lo, hi = hi, hi + w.shape[1]
            ties = (feat == peak).astype(DEFAULT_DTYPE)
            ties = ties / ties.sum(axis=(1,), keepdims=True)
            g_lin = (g[:, lo:hi].reshape((words, 1, hi - lo)) * ties) * relu_mask
            d_params.append(
                (flat.transpose(0, 2, 1) @ g_lin).sum(axis=(0,))
            )
            d_params.append(g_lin.sum(axis=(0, 1)))
            g_windows = (g_lin @ w.T).reshape((words, chars, k, dim))
            left = (k - 1) // 2
            d_k = _window_adjoint(g_windows, chars + k - 1)[:, left:left + chars]
            d_emb = d_k if d_emb is None else d_emb + d_k
        return (d_emb, *d_params)

    return _make(
        out, parents, _fused_vjps(backward, len(parents), _SECOND_ORDER_MSG)
    )


def char_cnn_from_ids(char_ids: np.ndarray, table: np.ndarray,
                      convs) -> np.ndarray:
    """:func:`char_cnn_fused`'s output for ``(W, C)`` in-range character
    ids, read from the ``(num_chars, d)`` embedding ``table``; no tape."""
    words, chars = char_ids.shape
    num_chars, dim = table.shape
    widest = max(conv.kernel_size for conv in convs)
    lead = (widest - 1) // 2
    table = np.concatenate([table, np.zeros((1, dim), dtype=table.dtype)])
    offsets = np.arange(chars)[:, None] + np.arange(widest)
    widths = [(conv.kernel_size, conv.weight.data, conv.bias.data)
              for conv in convs]
    out = np.empty((words, sum(w.shape[1] for _k, w, _b in widths)),
                   dtype=table.dtype)
    for lo in range(0, words, BLOCK_WORDS):
        block = char_ids[lo:lo + BLOCK_WORDS]
        padded = np.full((len(block), chars + widest - 1), num_chars)
        padded[:, lead:lead + chars] = block
        # ``take`` keeps the window ids, and so the gathered windows, in
        # C order: the ``(B, C, k·d)`` operand has the recorded strides.
        # ``np.take`` gathers the same rows as ``table[ids]``, faster.
        windows = np.take(table, np.take(padded, offsets, axis=1),
                          axis=0).reshape((len(block), chars, widest * dim))
        col = 0
        for k, weight, bias in widths:
            start = (lead - (k - 1) // 2) * dim
            raw = windows[:, :, start:start + k * dim] @ weight  # (B, C, F)
            peak = raw[:, 0].copy()
            for c in range(1, chars):
                np.maximum(peak, raw[:, c], out=peak)
            lin = peak + bias
            last = (raw[:, -1] + bias) * 0.0
            out[lo:lo + len(block), col:col + weight.shape[1]] = np.where(
                lin <= 0, last, lin)
            col += weight.shape[1]
    return out
