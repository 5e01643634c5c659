"""Differentiable linear-chain CRF.

Implements Eq. (4) of the paper: the probability of a label sequence is
the product of pairwise potentials normalised by the partition function,
computed with the forward algorithm.  The negative log-likelihood is built
entirely from differentiable primitives, so gradients — including the
second-order gradients of FEWNER's outer loop — flow through the partition
function exactly.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.functional import logsumexp
from repro.autodiff.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

_NEG_INF = -1e4


class LinearChainCRF(Module):
    """CRF layer over ``num_tags`` labels.

    Parameters are a ``(T, T)`` transition matrix plus start/end scores.
    Optional boolean masks restrict transitions (BIO constraints); they are
    applied both in training (illegal transitions get a large negative
    score added) and in Viterbi decoding.
    """

    def __init__(self, num_tags: int, rng: np.random.Generator,
                 transition_mask: np.ndarray | None = None,
                 start_mask: np.ndarray | None = None):
        super().__init__()
        if num_tags < 1:
            raise ValueError(f"num_tags must be >= 1, got {num_tags}")
        self.num_tags = num_tags
        self.transitions = Parameter(init.uniform(rng, (num_tags, num_tags), 0.1))
        self.start_scores = Parameter(init.uniform(rng, (num_tags,), 0.1))
        self.end_scores = Parameter(init.uniform(rng, (num_tags,), 0.1))
        self.set_constraints(transition_mask, start_mask)

    def set_constraints(self, transition_mask: np.ndarray | None,
                        start_mask: np.ndarray | None) -> None:
        """Install (or clear) structural constraints on transitions."""
        if transition_mask is not None:
            transition_mask = np.asarray(transition_mask, dtype=bool)
            if transition_mask.shape != (self.num_tags, self.num_tags):
                raise ValueError("transition mask shape mismatch")
        if start_mask is not None:
            start_mask = np.asarray(start_mask, dtype=bool)
            if start_mask.shape != (self.num_tags,):
                raise ValueError("start mask shape mismatch")
        self._transition_penalty = (
            np.where(transition_mask, 0.0, _NEG_INF)
            if transition_mask is not None
            else np.zeros((self.num_tags, self.num_tags))
        )
        self._start_penalty = (
            np.where(start_mask, 0.0, _NEG_INF)
            if start_mask is not None
            else np.zeros(self.num_tags)
        )

    # ------------------------------------------------------------------
    # Training-side quantities (differentiable)
    # ------------------------------------------------------------------
    def _scores(self) -> tuple[Tensor, Tensor]:
        trans = self.transitions + Tensor(self._transition_penalty)
        start = self.start_scores + Tensor(self._start_penalty)
        return trans, start

    def log_partition(self, emissions: Tensor) -> Tensor:
        """Forward-algorithm log Z for ``(L, T)`` emissions."""
        length = emissions.shape[0]
        trans, start = self._scores()
        alpha = start + emissions[0, :]
        for t in range(1, length):
            # alpha[i] + trans[i, j] + emission[t, j], logsumexp over i
            scores = alpha.reshape((self.num_tags, 1)) + trans
            alpha = logsumexp(scores, axis=0) + emissions[t, :]
        alpha = alpha + self.end_scores
        return logsumexp(alpha)

    def gold_score(self, emissions: Tensor, tags: np.ndarray) -> Tensor:
        """Unnormalised score of the gold tag path."""
        tags = np.asarray(tags, dtype=np.intp)
        length = emissions.shape[0]
        if tags.shape != (length,):
            raise ValueError(
                f"tags shape {tags.shape} does not match emissions length {length}"
            )
        trans, start = self._scores()
        score = start[int(tags[0])] + emissions[0, int(tags[0])]
        for t in range(1, length):
            score = score + trans[int(tags[t - 1]), int(tags[t])]
            score = score + emissions[t, int(tags[t])]
        return score + self.end_scores[int(tags[-1])]

    def nll(self, emissions: Tensor, tags: np.ndarray) -> Tensor:
        """Negative log-likelihood of one sentence."""
        return self.log_partition(emissions) - self.gold_score(emissions, tags)

    def batch_nll(self, emissions_list: list[Tensor],
                  tags_list: list[np.ndarray]) -> Tensor:
        """Mean NLL over a batch of variable-length sentences."""
        if len(emissions_list) != len(tags_list):
            raise ValueError("batch size mismatch between emissions and tags")
        if not emissions_list:
            raise ValueError("empty batch")
        losses = [self.nll(e, t) for e, t in zip(emissions_list, tags_list)]
        total = losses[0]
        for loss in losses[1:]:
            total = total + loss
        return total / Tensor(np.array(float(len(losses))))

    def batch_nll_padded(self, emissions: Tensor, tags: np.ndarray,
                         mask: np.ndarray) -> Tensor:
        """Mean NLL over a padded batch.

        ``emissions`` is ``(B, L, T)``; ``tags`` is ``(B, L)`` integer ids
        (values at padded positions do not change the result, but must
        still be valid ids); ``mask`` is ``(B, L)`` with 1 for the real
        tokens of each row's prefix and 0 after.  Vectorising across the
        batch keeps the autodiff graph size proportional to L rather than
        B * L.  Malformed input raises ``ValueError`` on both routes (see
        :meth:`_check_nll_batch`).

        With the fused fast path on (the default; see
        :func:`repro.perf.fastpath.fastpath`) this delegates to
        :func:`repro.perf.kernels.crf_nll_fused`, which replays the graph
        below as a single tape node: the value and every gradient are
        bit-identical, but it is first-order only (backward with
        ``create_graph=True`` raises ``RuntimeError``).
        """
        from repro.autodiff.tensor import where
        from repro.perf.fastpath import fused_nll_enabled

        if fused_nll_enabled():
            from repro.perf.kernels import crf_nll_fused

            return crf_nll_fused(self, emissions, tags, mask)

        tags, mask = self._check_nll_batch(emissions, tags, mask)
        batch, length, num_tags = emissions.shape
        trans, start = self._scores()

        # --- log partition, batched forward algorithm ----------------
        alpha = start.reshape((1, num_tags)) + emissions[:, 0, :]
        for t in range(1, length):
            scores = (
                alpha.reshape((batch, num_tags, 1))
                + trans.reshape((1, num_tags, num_tags))
                + emissions[:, t, :].reshape((batch, 1, num_tags))
            )
            new_alpha = logsumexp(scores, axis=1)
            step_mask = mask[:, t : t + 1]  # (B, 1), constant
            alpha = where(
                np.broadcast_to(step_mask > 0, alpha.shape), new_alpha, alpha
            )
        log_z = logsumexp(alpha + self.end_scores.reshape((1, num_tags)), axis=1)

        # --- gold path score, batched ---------------------------------
        rows = np.arange(batch)
        emit_gold = emissions[
            rows[:, None], np.arange(length)[None, :], tags
        ]  # (B, L)
        gold = start[tags[:, 0]] + (emit_gold * Tensor(mask)).sum(axis=1)
        if length > 1:
            trans_gold = trans[tags[:, :-1], tags[:, 1:]]  # (B, L-1)
            gold = gold + (trans_gold * Tensor(mask[:, 1:])).sum(axis=1)
        last_index = mask.sum(axis=1).astype(np.intp) - 1
        last_tags = tags[rows, last_index]
        gold = gold + self.end_scores[last_tags]

        nll = log_z - gold
        return nll.sum() / Tensor(np.array(float(batch)))

    # ------------------------------------------------------------------
    # Decoding (pure numpy; no gradients needed)
    # ------------------------------------------------------------------
    def viterbi_decode_batch(self, emissions, mask) -> list[list[int]]:
        """Vectorised Viterbi over padded ``(B, L, T)`` emissions.

        ``mask`` is ``(B, L)`` with 1 for real tokens.  Returns one path
        per sentence, truncated to its true length — bit-identical to
        calling :meth:`viterbi_decode` on each unpadded row.
        """
        from repro.perf.kernels import viterbi_decode_batch

        self._check_emissions(emissions)
        return viterbi_decode_batch(
            *self._constrained_scores(), emissions, mask
        )

    def argmax_decode_batch(self, emissions, mask) -> list[list[int]]:
        """Vectorised greedy decode over padded ``(B, L, T)`` emissions.

        Bit-identical to calling :meth:`argmax_decode` on each unpadded
        row, including the end-score bonus at each sentence's own last
        real token.
        """
        from repro.perf.kernels import argmax_decode_batch

        self._check_emissions(emissions)
        return argmax_decode_batch(
            *self._constrained_scores(), emissions, mask
        )

    def _constrained_scores(self) -> tuple[np.ndarray, ...]:
        """``(transitions, start, end)`` score arrays, BIO masks applied."""
        return (
            self.transitions.data + self._transition_penalty,
            self.start_scores.data + self._start_penalty,
            self.end_scores.data,
        )

    def _check_emissions(self, emissions) -> np.ndarray:
        """``(..., L, T)`` emission scores as an array, or ``ValueError``.

        Every decode route rejects a wrong tag count or a zero-length
        sequence with the same error the batched kernels raise.
        """
        data = np.asarray(
            emissions.data if isinstance(emissions, Tensor) else emissions
        )
        if data.ndim < 2:
            raise ValueError(
                f"emissions need (..., L, T) shape, got {data.shape}"
            )
        if data.shape[-1] != self.num_tags:
            raise ValueError(
                f"emissions have {data.shape[-1]} tags, "
                f"CRF expects {self.num_tags}"
            )
        if data.shape[-2] == 0:
            raise ValueError("every sequence must have at least one token")
        return data

    def _check_nll_batch(self, emissions, tags,
                         mask) -> tuple[np.ndarray, np.ndarray]:
        """``(tags, mask)`` as arrays for a padded NLL batch, or ``ValueError``.

        Shared by both NLL routes, so malformed input fails the same way
        on each: an empty batch, a zero-length or wrong-tag-count
        emission tensor, tags or mask of the wrong shape, tag ids out of
        range, and a mask that is not 1 on a non-empty prefix and 0 after.
        """
        from repro.perf.kernels import _check_batch

        data = self._check_emissions(emissions)
        mask = _check_batch(data, mask)
        if data.shape[0] == 0:
            raise ValueError("empty batch")
        tags = np.asarray(tags, dtype=np.intp)
        if tags.shape != mask.shape:
            raise ValueError("tags/mask shape mismatch with emissions")
        if tags.min() < 0 or tags.max() >= self.num_tags:
            raise ValueError(f"tag ids must lie in [0, {self.num_tags})")
        if ((mask != 0) & (mask != 1)).any() or (np.diff(mask, axis=1) > 0).any():
            raise ValueError("mask must be 1 on a prefix of each row and 0 after")
        return tags, mask

    def viterbi_decode(self, emissions: np.ndarray) -> list[int]:
        """Most-likely tag sequence for ``(L, T)`` emission scores."""
        emissions = self._check_emissions(emissions)
        length, num_tags = emissions.shape
        trans, start, end = self._constrained_scores()
        score = start + emissions[0]
        backptr = np.zeros((length, num_tags), dtype=np.intp)
        for t in range(1, length):
            candidate = score[:, None] + trans  # (from, to)
            backptr[t] = candidate.argmax(axis=0)
            score = candidate.max(axis=0) + emissions[t]
        score = score + end
        best = [int(score.argmax())]
        for t in range(length - 1, 0, -1):
            best.append(int(backptr[t, best[-1]]))
        best.reverse()
        return best

    def argmax_decode(self, emissions: np.ndarray) -> list[int]:
        """Greedy left-to-right decode for ``(L, T)`` emission scores.

        A beam-1 approximation of Viterbi: at each position the best tag
        is chosen given only the previously-committed tag, so structural
        constraints (transition/start masks) are still respected but no
        backtracking happens.  Exact whenever the transition matrix is
        uniform (e.g. all zeros); elsewhere it is the cheap degraded
        answer the serving layer falls back to when a request's deadline
        cannot afford full Viterbi (see ``docs/serving.md``).
        """
        emissions = self._check_emissions(emissions)
        length = emissions.shape[0]
        trans, start, end = self._constrained_scores()
        scores = start + emissions[0]
        if length == 1:
            scores = scores + end
        tags = [int(scores.argmax())]
        for t in range(1, length):
            scores = trans[tags[-1]] + emissions[t]
            if t == length - 1:
                scores = scores + end
            tags.append(int(scores.argmax()))
        return tags

    def marginals(self, emissions: Tensor) -> np.ndarray:
        """Posterior tag marginals ``(L, T)`` via forward-backward (numpy)."""
        e = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions)
        length = e.shape[0]
        trans, start, end = self._constrained_scores()

        def lse(x, axis):
            m = x.max(axis=axis, keepdims=True)
            return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)

        alpha = np.zeros((length, self.num_tags))
        alpha[0] = start + e[0]
        for t in range(1, length):
            alpha[t] = lse(alpha[t - 1][:, None] + trans, axis=0) + e[t]
        beta = np.zeros((length, self.num_tags))
        beta[-1] = end
        for t in range(length - 2, -1, -1):
            beta[t] = lse(trans + (e[t + 1] + beta[t + 1])[None, :], axis=1)
        log_marg = alpha + beta
        log_z = lse(alpha[-1] + end, axis=0)
        return np.exp(log_marg - log_z)
