"""The per-sentence graph NLL the CRF used to ship beside its padded one.

:meth:`repro.crf.LinearChainCRF.batch_nll_padded` is the only NLL the
package has.  The brute-force, property and padded-vs-per-sentence tests
compare it against this straightforward forward algorithm over one
unpadded ``(L, T)`` sentence, built from the same autodiff primitives.
"""

import numpy as np

from repro.autodiff.functional import logsumexp
from repro.autodiff.tensor import Tensor


def _tensor(emissions) -> Tensor:
    return emissions if isinstance(emissions, Tensor) else Tensor(emissions)


def log_partition(crf, emissions) -> Tensor:
    """Forward-algorithm log Z for ``(L, T)`` emissions."""
    emissions = _tensor(emissions)
    trans, start = crf._scores()
    alpha = start + emissions[0, :]
    for t in range(1, emissions.shape[0]):
        # alpha[i] + trans[i, j] + emission[t, j], logsumexp over i
        scores = alpha.reshape((crf.num_tags, 1)) + trans
        alpha = logsumexp(scores, axis=0) + emissions[t, :]
    return logsumexp(alpha + crf.end_scores)


def gold_score(crf, emissions, tags) -> Tensor:
    """Unnormalised score of the tag path ``tags`` (length ``L``)."""
    emissions = _tensor(emissions)
    tags = [int(tag) for tag in np.asarray(tags)]
    trans, start = crf._scores()
    score = start[tags[0]] + emissions[0, tags[0]]
    for t in range(1, len(tags)):
        score = score + trans[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    return score + crf.end_scores[tags[-1]]


def nll(crf, emissions, tags) -> Tensor:
    """Negative log-likelihood of one sentence."""
    return log_partition(crf, emissions) - gold_score(crf, emissions, tags)


def padded_nll(crf, emissions, tags) -> Tensor:
    """The shipped ``batch_nll_padded`` on one sentence, as a B=1 batch."""
    emissions = _tensor(emissions)
    tags = np.asarray(tags)[None]
    return crf.batch_nll_padded(
        emissions.reshape((1,) + emissions.shape), tags, np.ones(tags.shape)
    )
