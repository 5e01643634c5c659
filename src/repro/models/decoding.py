"""Deadline-aware CRF decoding shared by the backbone and LM baselines.

:func:`decode_emissions_within` walks a batch of per-sentence emission
scores and picks, per sentence, the richest decode the remaining budget
allows:

* full Viterbi while the deadline has budget and the caller's circuit
  breaker permits it (``allow_viterbi``);
* the greedy :meth:`~repro.crf.LinearChainCRF.argmax_decode` once the
  budget is spent, the breaker is open, or Viterbi raised.

Every sentence gets *some* tag sequence — degradation, never an
exception (a :class:`~repro.reliability.faults.SimulatedCrash` is a
``BaseException`` and still propagates, by design).  The per-sentence
status strings tell the serving layer what happened so it can set
response flags and feed its circuit breaker.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.crf import LinearChainCRF

#: Viterbi completed within budget.
FULL = "full"
#: Viterbi completed but the deadline expired while it ran.
OVERRUN = "overrun"
#: Budget was already spent; greedy decode used.
DEGRADED_DEADLINE = "degraded-deadline"
#: Viterbi raised; greedy decode used.
DEGRADED_ERROR = "degraded-error"
#: Caller's circuit breaker is open; greedy decode used.
DEGRADED_BREAKER = "degraded-breaker"

#: Statuses that count as degraded answers.
DEGRADED_STATUSES = frozenset(
    {DEGRADED_DEADLINE, DEGRADED_ERROR, DEGRADED_BREAKER}
)
#: Statuses a circuit breaker should count as failures of the full path.
FAILURE_STATUSES = frozenset({OVERRUN, DEGRADED_ERROR})


def reject_empty(sentences) -> None:
    """Raise ``ValueError`` naming the first sentence with no tokens.

    The models' decode routes call this before encoding anything, so an
    empty sentence fails the same way whatever else is in the batch, and
    with the reason the serving sanitizer gives.
    """
    for index, sentence in enumerate(sentences):
        if not sentence.tokens:
            raise ValueError(f"sentence {index}: empty token sequence")


def decode_emissions_within(
    crf: LinearChainCRF,
    emissions,
    deadline=None,
    on_sentence: Callable[[int], None] | None = None,
    allow_viterbi: bool = True,
) -> tuple[list[list[int]], list[str]]:
    """Decode each ``(L, T)`` emission matrix; returns ``(paths, statuses)``.

    ``deadline`` is any object with an ``expired`` property (normally a
    :class:`repro.serving.Deadline`); ``on_sentence(i)`` is a test hook
    run before each Viterbi attempt — fault injectors use it to raise or
    to advance a manual clock, simulating a failing or slow decoder.

    When no deadline or hook is in play and Viterbi is allowed, the whole
    batch goes through the vectorised kernel in one shot (statuses all
    ``FULL``) — bit-identical paths, no per-sentence Python loop.

    Malformed emissions (wrong tag count, zero length) are the caller's
    error, not a decoder failure: every route raises the CRF's
    ``ValueError`` before decoding anything.
    """
    arrays = [crf._check_emissions(e) for e in emissions]
    if deadline is None and on_sentence is None and allow_viterbi and arrays:
        lengths = [a.shape[0] for a in arrays]
        max_len, num_tags = max(lengths), arrays[0].shape[1]
        padded = np.zeros((len(arrays), max_len, num_tags))
        mask = np.zeros((len(arrays), max_len))
        for i, a in enumerate(arrays):
            padded[i, : lengths[i], :] = a
            mask[i, : lengths[i]] = 1.0
        paths = crf.viterbi_decode_batch(padded, mask)
        return paths, [FULL] * len(paths)

    paths: list[list[int]] = []
    statuses: list[str] = []
    for i, data in enumerate(arrays):
        path: list[int] | None = None
        if not allow_viterbi:
            status = DEGRADED_BREAKER
        elif deadline is not None and deadline.expired:
            status = DEGRADED_DEADLINE
        else:
            try:
                if on_sentence is not None:
                    on_sentence(i)
                path = crf.viterbi_decode(data)
                status = (
                    OVERRUN
                    if deadline is not None and deadline.expired
                    else FULL
                )
            except Exception:
                path, status = None, DEGRADED_ERROR
        if path is None:
            path = crf.argmax_decode(data)
        paths.append(path)
        statuses.append(status)
    return paths, statuses
