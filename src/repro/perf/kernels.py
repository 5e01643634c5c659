"""Batch-vectorised CRF kernels (decode, the fused NLL) and FEWNER's
fused first-order inner loop.

Every function here operates on a *padded* batch — emissions ``(B, L, T)``
with a ``(B, L)`` mask that is 1 on a non-empty prefix of each row and 0
after (:func:`_check_batch` rejects anything else) — and replaces a
per-sentence Python loop with one numpy op per timestep.  The decoding
kernels reproduce the per-sentence recursions' float operations and
``argmax`` tie-breaking exactly, so their outputs are bit-identical to
:meth:`~repro.crf.LinearChainCRF.viterbi_decode` /
:meth:`~repro.crf.LinearChainCRF.argmax_decode` applied sentence by
sentence.

:func:`crf_nll_fused` runs the graph of
:meth:`~repro.crf.LinearChainCRF.batch_nll_padded` as plain numpy and
registers it on the autodiff tape as a single node whose backward
replays the graph's VJPs, so the loss and its gradients are
bit-identical.  One node instead of ``O(L)`` is what makes it fast — and
what makes it first-order only: its backward runs outside the tape, so
differentiating through it is rejected with ``RuntimeError`` rather than
silently returning zeros.

:func:`inner_loop_fused` takes FEWNER's whole first-order φ loop off
the tape: with θ frozen nothing in it needs recording, so it returns φ
as plain numpy, bit-identical to the tape's steps.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import DEFAULT_DTYPE, Tensor, _make, scatter_array
from repro.perf.rnn_kernels import _fused_vjps


def _as_array(emissions) -> np.ndarray:
    data = emissions.data if isinstance(emissions, Tensor) else emissions
    return np.asarray(data, dtype=float)


def _check_batch(emissions: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``mask`` as a float array, or ``ValueError``.

    Every padded route (decode and NLL) shares this check: ``(B, L, T)``
    emissions and a ``(B, L)`` mask that is 1 on a non-empty prefix of
    each row and 0 after.
    """
    if emissions.ndim != 3:
        raise ValueError(
            f"batched kernels need (B, L, T) emissions, got shape "
            f"{emissions.shape}"
        )
    mask = np.asarray(mask, dtype=float)
    if mask.shape != emissions.shape[:2]:
        raise ValueError(
            f"mask shape {mask.shape} does not match emissions batch "
            f"{emissions.shape[:2]}"
        )
    if emissions.shape[1] == 0 or (mask[:, 0] < 1).any():
        raise ValueError("every sequence must have at least one token")
    if ((mask != 0) & (mask != 1)).any() or (np.diff(mask, axis=1) > 0).any():
        raise ValueError("mask must be 1 on a prefix of each row and 0 after")
    return mask


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def viterbi_decode_batch(trans: np.ndarray, start: np.ndarray,
                         end: np.ndarray, emissions, mask) -> list[list[int]]:
    """Vectorised Viterbi over a padded batch; one ``(B, T, T)`` op per step.

    Returns per-sentence most-likely paths, truncated to true lengths.
    Bit-identical to running the per-sentence recursion on each row: a
    step lays its candidates out ``(B, to, from)``, so ``argmax`` scans
    the same sums in the same ``from`` order along the contiguous axis
    and ties still go to the first index.  The best score is read at
    that index rather than taken with ``max``: the two can differ only
    in the sign of a zero or the payload of a NaN, which no later
    comparison sees, so the paths are the same.
    """
    emissions = _as_array(emissions)
    mask = _check_batch(emissions, mask)
    batch, length, num_tags = emissions.shape
    lengths = mask.sum(axis=1).astype(np.intp).tolist()
    trans_t = np.ascontiguousarray(trans.T)  # (to, from)
    # Flat offset of each (sentence, to) row of a step's candidates.
    rows = np.arange(batch * num_tags) * num_tags
    score = start[None, :] + emissions[:, 0, :]
    backptr = np.zeros((batch, length, num_tags), dtype=np.intp)
    for t in range(1, length):
        candidate = score[:, None, :] + trans_t  # (B, to, from)
        best = candidate.argmax(axis=2)
        backptr[:, t, :] = best
        peak = np.take(candidate, rows + best.ravel()).reshape(score.shape)
        live = (mask[:, t] > 0)[:, None]
        score = np.where(live, peak + emissions[:, t, :], score)
    final = score + end[None, :]
    # A memoryview reads one pointer as a Python int without a numpy
    # scalar in between.
    pointers = memoryview(backptr)
    paths: list[list[int]] = []
    for b, (last, n) in enumerate(zip(final.argmax(axis=1).tolist(),
                                      lengths)):
        best = [last]
        for t in range(n - 1, 0, -1):
            best.append(pointers[b, t, best[-1]])
        best.reverse()
        paths.append(best)
    return paths


def argmax_decode_batch(trans: np.ndarray, start: np.ndarray,
                        end: np.ndarray, emissions, mask) -> list[list[int]]:
    """Vectorised greedy (beam-1) decode over a padded batch.

    Matches :meth:`~repro.crf.LinearChainCRF.argmax_decode` per sentence,
    including the end-score bonus applied at each sequence's own last
    real token.
    """
    emissions = _as_array(emissions)
    mask = _check_batch(emissions, mask)
    batch, length, num_tags = emissions.shape
    lengths = mask.sum(axis=1).astype(np.intp)
    tags = np.zeros((batch, length), dtype=np.intp)
    score = start[None, :] + emissions[:, 0, :]
    score = score + np.where((lengths == 1)[:, None], end[None, :], 0.0)
    tags[:, 0] = score.argmax(axis=1)
    for t in range(1, length):
        step = trans[tags[:, t - 1]] + emissions[:, t, :]
        step = step + np.where((lengths == t + 1)[:, None], end[None, :], 0.0)
        live = mask[:, t] > 0
        tags[:, t] = np.where(live, step.argmax(axis=1), tags[:, t - 1])
    return [
        [int(tag) for tag in tags[b, : lengths[b]]] for b in range(batch)
    ]


# ----------------------------------------------------------------------
# The fused NLL
# ----------------------------------------------------------------------
_SECOND_ORDER_MSG = (
    "the fused CRF NLL kernel is first-order only: its backward runs "
    "outside the tape, so create_graph=True cannot differentiate "
    "through it — wrap second-order work in repro.perf.fastpath(False)"
)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """numpy mirror of the tape's ``_unbroadcast`` (same sums, same axes)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)), keepdims=False)
    axes = tuple(
        i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _logsumexp(x: np.ndarray, axis: int):
    """Forward of :func:`repro.autodiff.functional.logsumexp` with
    ``keepdims`` kept: the op sequence the tape records, plus the
    residuals :func:`_logsumexp_vjp` needs."""
    peak = x.max(axis=(axis,), keepdims=True)
    shifted_exp = np.exp(x - peak)
    total = shifted_exp.sum(axis=(axis,), keepdims=True)
    return peak + np.log(total), (x, peak, shifted_exp, total)


def _logsumexp_vjp(g: np.ndarray, residuals, axis: int,
                   direct: np.ndarray | None = None) -> np.ndarray:
    """Replay the tape's VJPs of ``peak + log(sum(exp(x - peak)))``.

    ``peak``'s gradient is its direct term plus the ``sub`` term, in
    that order; ``x``'s is the ``sub`` term plus the max term, whose
    tie-split mask is rebuilt exactly as ``max_`` builds it.  A
    ``direct`` gradient of ``x`` from a later consumer (``x - lse`` in a
    log-softmax) reaches ``x`` first, so it is summed first."""
    x, peak, shifted_exp, total = residuals
    g_shifted = np.broadcast_to(g / total, x.shape) * shifted_exp
    g_peak = g + _unbroadcast(-g_shifted, peak.shape)
    ties = (x == peak).astype(DEFAULT_DTYPE)
    ties = ties / ties.sum(axis=(axis,), keepdims=True)
    if direct is not None:
        g_shifted = direct + g_shifted
    return g_shifted + g_peak * ties


def crf_nll_fused(crf, emissions, tags, mask) -> Tensor:
    """Mean CRF NLL of a padded batch as one fused tape node.

    ``crf`` is a :class:`~repro.crf.LinearChainCRF`; ``emissions`` is a
    ``(B, L, T)`` tensor.  The value and the gradients for the emissions
    and the CRF's transition/start/end parameters are bit-identical to
    :meth:`~repro.crf.LinearChainCRF.batch_nll_padded`'s graph:

    * the forward runs the graph's numpy ops in its order (the batched
      forward algorithm with ``logsumexp`` as max, subtract, exp, sum,
      log, add and ``where`` on the mask; then the gold-path gathers);
    * the backward replays each primitive's VJP, and sums every
      multi-contribution gradient in the tape's order: the log-partition
      terms (transitions from step ``L-1`` down to 1) first, the gold
      path's scatter last.  The forward's per-step residuals are kept
      as ``(L-1, B, T, T)`` stacks, so what depends on them alone (the
      tie-split masks, ``1 - live``) and each step's emission and
      transition sums are one numpy call per node, not one per step;
      only the ``g_alpha`` recursion runs step by step.

    With ``L == 1`` the graph never reads the transitions, so their
    gradient is ``None``.  First-order only: backpropagating through
    this node with ``create_graph=True`` raises ``RuntimeError``.
    """
    tags, mask = crf._check_nll_batch(emissions, tags, mask)
    emissions_t = emissions if isinstance(emissions, Tensor) else Tensor(emissions)
    data = emissions_t.data
    batch, length, num_tags = data.shape
    trans, start, end = crf._constrained_scores()

    # --- log partition: the batched forward algorithm ----------------
    # _logsumexp's ops, with each step's residuals written in place into
    # (L-1, B, T, T) and (L-1, B, 1, T) stacks for the backward.
    steps = length - 1
    xs = np.empty((steps, batch, num_tags, num_tags), dtype=DEFAULT_DTYPE)
    exps = np.empty_like(xs)
    peaks = np.empty((steps, batch, 1, num_tags), dtype=DEFAULT_DTYPE)
    totals = np.empty_like(peaks)
    live = np.broadcast_to((mask[:, 1:] > 0).T[:, :, None],
                           (steps, batch, num_tags))
    alpha = start.reshape((1, num_tags)) + data[:, 0, :]
    for s in range(steps):
        np.add(
            alpha.reshape((batch, num_tags, 1))
            + trans.reshape((1, num_tags, num_tags)),
            data[:, s + 1, :].reshape((batch, 1, num_tags)), out=xs[s],
        )
        np.max(xs[s], axis=(1,), keepdims=True, out=peaks[s])
        np.exp(np.subtract(xs[s], peaks[s], out=exps[s]), out=exps[s])
        np.sum(exps[s], axis=(1,), keepdims=True, out=totals[s])
        new_alpha = peaks[s] + np.log(totals[s])
        alpha = np.where(live[s], new_alpha.reshape((batch, num_tags)), alpha)
    lives = live.astype(DEFAULT_DTYPE)
    log_z, final = _logsumexp(alpha + end.reshape((1, num_tags)), axis=1)

    # --- gold path ---------------------------------------------------
    rows = np.arange(batch)
    emit_index = (rows[:, None], np.arange(length)[None, :], tags)
    gold = start[tags[:, 0]] + (data[emit_index] * mask).sum(axis=(1,))
    trans_index = (tags[:, :-1], tags[:, 1:])
    if length > 1:
        gold = gold + (trans[trans_index] * mask[:, 1:]).sum(axis=(1,))
    last_tags = tags[rows, mask.sum(axis=1).astype(np.intp) - 1]
    gold = gold + end[last_tags]
    nll = log_z.reshape((batch,)) - gold
    value = nll.sum(axis=(0,)) / np.array(float(batch))

    def backward(g: np.ndarray):
        g_nll = np.broadcast_to(
            (g / np.array(float(batch))).reshape((1,)), (batch,)
        )
        # Log-partition contributions, in reverse step order.
        g_final = _logsumexp_vjp(g_nll.reshape((batch, 1)), final, axis=1)
        d_end = _unbroadcast(g_final, (1, num_tags)).reshape((num_tags,))
        d_emissions = np.zeros(data.shape, dtype=DEFAULT_DTYPE)
        d_trans = None
        g_alpha = g_final
        if steps:
            # Everything that depends on the residuals alone, for all
            # steps at once: the tie-split masks and ``1 - live``.
            ties = (xs == peaks).astype(DEFAULT_DTYPE)
            ties = ties / ties.sum(axis=(2,), keepdims=True)
            dead = 1.0 - lives
            g_scores = np.empty_like(xs)
            # Only the g_alpha recursion is sequential; each step is
            # _logsumexp_vjp with its residuals indexed from the stacks.
            for s in range(steps - 1, -1, -1):
                g = (g_alpha * lives[s]).reshape((batch, 1, num_tags))
                g_shifted = (g / totals[s]) * exps[s]
                g_peak = g + (-g_shifted).sum(axis=(1,), keepdims=True)
                np.add(g_shifted, g_peak * ties[s], out=g_scores[s])
                g_alpha = g_alpha * dead[s] + g_scores[s].sum(axis=(2,))
            # The emission and transition terms of every step, summed
            # over the ``from`` tags and over the batch; the transition
            # terms are then added from step L-1 down to 1.
            d_emissions[:, 1:, :] = g_scores.sum(axis=(2,)).transpose(1, 0, 2)
            step_trans = g_scores.sum(axis=(1,))
            d_trans = step_trans[-1]
            for s in range(steps - 2, -1, -1):
                d_trans = d_trans + step_trans[s]
        d_start = _unbroadcast(g_alpha, (1, num_tags)).reshape((num_tags,))
        d_emissions[:, 0, :] = g_alpha

        # Gold-path contributions come last, as scatters into zeros.
        g_gold = -g_nll
        d_emissions = d_emissions + scatter_array(
            data.shape, emit_index, g_gold.reshape((batch, 1)) * mask
        )
        if d_trans is not None:
            d_trans = d_trans + scatter_array(
                trans.shape, trans_index,
                g_gold.reshape((batch, 1)) * mask[:, 1:],
            )
        d_start = d_start + scatter_array(start.shape, tags[:, 0], g_gold)
        d_end = d_end + scatter_array(end.shape, last_tags, g_gold)
        return d_emissions, d_trans, d_start, d_end

    parents = (emissions_t, crf.transitions, crf.start_scores, crf.end_scores)
    return _make(
        value, parents, _fused_vjps(backward, len(parents), _SECOND_ORDER_MSG)
    )


# ----------------------------------------------------------------------
# The fused inner loop
# ----------------------------------------------------------------------
def inner_loop_fused(base: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                     tags: np.ndarray, weights: np.ndarray, lr: float,
                     steps: int) -> np.ndarray:
    """FEWNER's first-order φ loop on the head site, off the tape.

    ``base`` is the frozen encoder pass ``(B, L, F)``; ``weight``/``bias``
    the emission projection; ``tags`` and ``weights`` the padded gold
    tags and token weights of the balanced token CE
    (:meth:`~repro.models.CNNBiGRUCRF.gold_targets`).  Returns φ after
    ``steps`` plain gradient steps of size ``lr`` from φ = 0, flat.

    Bit-identical to the tape loop (``token_ce_loss`` and ``grad`` per
    step): everything that does not depend on φ is computed once — the
    θ-only scores ``base @ weight + bias`` and the loss's gradient with
    respect to the log-probs and their normaliser — and each step runs
    the log-softmax ops and replays their VJPs in the tape's order.
    """
    batch, length, feat = base.shape
    num_tags = weight.shape[1]
    s0 = base @ weight + bias
    # d loss / d log_probs: the mean's division, the sign, the sum's
    # broadcast, the weights and the gather's scatter, as the tape runs them.
    g_sum = np.ones(()) / np.array(float(weights.sum())) * np.array(-1.0)
    rows = np.arange(batch)[:, None]
    cols = np.arange(length)[None, :]
    g_log_probs = scatter_array(
        (batch, length, num_tags), (rows, cols, tags),
        np.broadcast_to(g_sum.reshape((1, 1)), (batch, length)) * weights,
    )
    g_lse = _unbroadcast(-g_log_probs, (batch, length, 1))
    base_t = np.transpose(base, (0, 2, 1))
    alpha = np.array(lr)
    phi = np.zeros(feat * num_tags, dtype=DEFAULT_DTYPE)
    for _ in range(steps):
        scores = s0 + base @ phi.reshape((feat, num_tags))
        _lse, residuals = _logsumexp(scores, axis=2)
        g_scores = _logsumexp_vjp(g_lse, residuals, axis=2,
                                  direct=g_log_probs)
        g_phi = _unbroadcast(base_t @ g_scores, (feat, num_tags))
        phi = phi - alpha * g_phi.reshape(phi.shape)
    return phi
