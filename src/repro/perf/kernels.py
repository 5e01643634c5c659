"""Batch-vectorised CRF kernels: decode, forward-backward, fused NLL.

Every function here operates on a *padded* batch — emissions ``(B, L, T)``
with a ``(B, L)`` mask whose first column is all ones — and replaces a
per-sentence Python loop with one numpy op per timestep.  The decoding
kernels reproduce the per-sentence recursions' float operations and
``argmax`` tie-breaking exactly, so their outputs are bit-identical to
:meth:`~repro.crf.LinearChainCRF.viterbi_decode` /
:meth:`~repro.crf.LinearChainCRF.argmax_decode` applied sentence by
sentence.

:func:`crf_nll_fused` additionally registers the analytic first-order
gradient (expected minus observed sufficient statistics, from one
forward-backward pass) on the autodiff tape as a single node.  That is
what makes it fast — and what makes it first-order only: the gradient is
a constant with respect to the tape, so differentiating through it is
rejected with ``RuntimeError`` rather than silently returning zeros.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor, _make, is_grad_enabled, mul
from repro.perf.rnn_kernels import (  # noqa: F401  (recurrent fast paths, re-exported)
    bigru_forward_batch,
    bilstm_forward_batch,
    gru_forward_batch,
    lstm_forward_batch,
)


def _as_array(emissions) -> np.ndarray:
    data = emissions.data if isinstance(emissions, Tensor) else emissions
    return np.asarray(data, dtype=float)


def _check_batch(emissions: np.ndarray, mask: np.ndarray) -> np.ndarray:
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
    return mask


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return np.squeeze(
        m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True)), axis=axis
    )


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def viterbi_decode_batch(trans: np.ndarray, start: np.ndarray,
                         end: np.ndarray, emissions, mask) -> list[list[int]]:
    """Vectorised Viterbi over a padded batch; one ``(B, T, T)`` op per step.

    Returns per-sentence most-likely paths, truncated to true lengths.
    Bit-identical to running the per-sentence recursion on each row.
    """
    emissions = _as_array(emissions)
    mask = _check_batch(emissions, mask)
    batch, length, num_tags = emissions.shape
    lengths = mask.sum(axis=1).astype(np.intp)
    score = start[None, :] + emissions[:, 0, :]
    backptr = np.zeros((batch, length, num_tags), dtype=np.intp)
    for t in range(1, length):
        candidate = score[:, :, None] + trans[None, :, :]  # (B, from, to)
        new_score = candidate.max(axis=1) + emissions[:, t, :]
        live = (mask[:, t] > 0)[:, None]
        backptr[:, t, :] = candidate.argmax(axis=1)
        score = np.where(live, new_score, score)
    final = score + end[None, :]
    best_last = final.argmax(axis=1)
    paths: list[list[int]] = []
    for b in range(batch):
        best = [int(best_last[b])]
        for t in range(int(lengths[b]) - 1, 0, -1):
            best.append(int(backptr[b, t, best[-1]]))
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
# Forward-backward and the fused NLL
# ----------------------------------------------------------------------
def crf_forward_batch(trans: np.ndarray, start: np.ndarray, end: np.ndarray,
                      emissions, mask) -> np.ndarray:
    """Batched forward-algorithm log partition functions ``(B,)``."""
    emissions = _as_array(emissions)
    mask = _check_batch(emissions, mask)
    alpha = _forward_table(trans, start, emissions, mask)
    return _logsumexp(alpha[:, -1, :] + end[None, :], axis=1)


def _forward_table(trans, start, emissions, mask) -> np.ndarray:
    """Alpha table ``(B, L, T)``; rows freeze past each true length.

    The per-step log-sum-exp runs in scaled-probability space: with the
    per-row max ``m`` subtracted, ``logsumexp_i(alpha_i + trans_ij)`` is
    ``log((exp(alpha - m) @ exp(trans))_j) + m`` — one ``(B, T) @ (T, T)``
    matmul instead of a ``(B, T, T)`` broadcast reduction.  A transition
    hard-masked to ``-1e4`` underflows to an exact zero factor, so an
    unreachable tag's alpha is ``-inf`` here (it is a slightly negative
    large number in the log-domain recursion); both round to identical
    zero marginals, and reachable entries agree to machine precision.
    """
    batch, length, num_tags = emissions.shape
    exp_trans = np.exp(trans)
    alpha = np.zeros((batch, length, num_tags))
    alpha[:, 0, :] = start[None, :] + emissions[:, 0, :]
    with np.errstate(divide="ignore"):
        for t in range(1, length):
            prev = alpha[:, t - 1, :]
            m = prev.max(axis=1, keepdims=True)
            new_alpha = (
                np.log(np.exp(prev - m) @ exp_trans) + m
                + emissions[:, t, :]
            )
            live = (mask[:, t] > 0)[:, None]
            alpha[:, t, :] = np.where(live, new_alpha, prev)
    return alpha


def _backward_table(trans, end, emissions, mask, lengths) -> np.ndarray:
    """Beta table ``(B, L, T)``; each row seeded with ``end`` at its last
    real position (entries past the true length are unused).  Uses the
    same scaled-probability matmul per step as :func:`_forward_table`."""
    batch, length, num_tags = emissions.shape
    exp_trans_t = np.ascontiguousarray(np.exp(trans).T)
    beta = np.zeros((batch, length, num_tags))
    beta[np.arange(batch), lengths - 1, :] = end[None, :]
    with np.errstate(divide="ignore"):
        for t in range(length - 2, -1, -1):
            nxt = emissions[:, t + 1, :] + beta[:, t + 1, :]
            m = nxt.max(axis=1, keepdims=True)
            recursed = np.log(np.exp(nxt - m) @ exp_trans_t) + m
            live_next = (mask[:, t + 1] > 0)[:, None]
            beta[:, t, :] = np.where(live_next, recursed, beta[:, t, :])
    return beta


def _nll_and_grads(trans, start, end, emissions, tags, mask):
    """Mean NLL of a padded batch plus analytic gradients.

    Returns ``(value, d_emissions, d_trans, d_start, d_end)`` where the
    gradients are of the *mean* NLL (matching ``batch_nll_padded``):
    expected sufficient statistics under the model (marginals from one
    forward-backward pass) minus the observed gold statistics, divided by
    the batch size.
    """
    batch, length, num_tags = emissions.shape
    lengths = mask.sum(axis=1).astype(np.intp)
    rows = np.arange(batch)

    alpha = _forward_table(trans, start, emissions, mask)
    beta = _backward_table(trans, end, emissions, mask, lengths)
    log_z = _logsumexp(alpha[:, -1, :] + end[None, :], axis=1)

    # --- expected statistics -----------------------------------------
    marginals = np.exp(alpha + beta - log_z[:, None, None]) * mask[:, :, None]
    d_emissions = marginals.copy()
    d_start = marginals[:, 0, :].sum(axis=0)
    d_end = marginals[rows, lengths - 1, :].sum(axis=0)
    d_trans = np.zeros_like(trans)
    if length > 1:
        # xi[b, t, i, j] = P(y_{t-1}=i, y_t=j | x_b) for live steps t.
        log_xi = (
            alpha[:, :-1, :, None]
            + trans[None, None, :, :]
            + (emissions[:, 1:, :] + beta[:, 1:, :])[:, :, None, :]
            - log_z[:, None, None, None]
        )
        xi = np.exp(log_xi) * mask[:, 1:, None, None]
        d_trans = xi.sum(axis=(0, 1))

    # --- observed (gold) statistics ----------------------------------
    gold = start[tags[:, 0]] + (emissions[
        rows[:, None], np.arange(length)[None, :], tags
    ] * mask).sum(axis=1)
    np.add.at(
        d_emissions, (rows[:, None], np.arange(length)[None, :], tags), -mask
    )
    np.add.at(d_start, tags[:, 0], -1.0)
    if length > 1:
        trans_steps = (tags[:, :-1], tags[:, 1:])
        gold = gold + (trans[trans_steps] * mask[:, 1:]).sum(axis=1)
        np.add.at(d_trans, trans_steps, -mask[:, 1:])
    last_tags = tags[rows, lengths - 1]
    gold = gold + end[last_tags]
    np.add.at(d_end, last_tags, -1.0)

    scale = 1.0 / batch
    value = float((log_z - gold).sum() * scale)
    return (value, d_emissions * scale, d_trans * scale,
            d_start * scale, d_end * scale)


def crf_nll_fused(crf, emissions: Tensor, tags, mask) -> Tensor:
    """Mean CRF NLL of a padded batch as one fused tape node.

    ``crf`` is a :class:`~repro.crf.LinearChainCRF`; ``emissions`` is a
    ``(B, L, T)`` tensor (gradients flow into it, and into the CRF's
    transition/start/end parameters, via the analytic CRF gradient).
    First-order only: backpropagating through this node with
    ``create_graph=True`` raises ``RuntimeError``.
    """
    tags = np.asarray(tags, dtype=np.intp)
    emissions_t = emissions if isinstance(emissions, Tensor) else Tensor(emissions)
    data = _as_array(emissions_t)
    mask = _check_batch(data, mask)
    batch, length, num_tags = data.shape
    if num_tags != crf.num_tags:
        raise ValueError(
            f"emissions have {num_tags} tags, CRF expects {crf.num_tags}"
        )
    if tags.shape != (batch, length):
        raise ValueError("tags/mask shape mismatch with emissions")
    trans, start, end = crf._constrained_scores()
    value, d_em, d_trans, d_start, d_end = _nll_and_grads(
        trans, start, end, data, tags, mask
    )

    def make_vjp(const: np.ndarray):
        const_t = Tensor(const)

        def vjp(g: Tensor) -> Tensor:
            if is_grad_enabled():
                raise RuntimeError(
                    "the fused CRF NLL kernel is first-order only: its "
                    "gradient is an analytic constant, so create_graph=True "
                    "cannot differentiate through it — leave "
                    "repro.perf.fastpath disabled for second-order work"
                )
            return mul(g, const_t)

        return vjp

    parents = (emissions_t, crf.transitions, crf.start_scores, crf.end_scores)
    vjps = tuple(make_vjp(c) for c in (d_em, d_trans, d_start, d_end))
    return _make(np.array(value), parents, vjps)
