"""Full-sort list-Viterbi: the oracle for ``LinearChainCRF.viterbi_top_k``."""

import numpy as np


def viterbi_top_k_reference(crf, emissions: np.ndarray,
                            k: int = 3) -> list[tuple[list[int], float]]:
    """The original O(T²·k log(T·k)) full-sort list-Viterbi scan.

    The heap merge in :meth:`LinearChainCRF.viterbi_top_k` must
    reproduce its output, ties included, exactly.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    emissions = crf._check_emissions(emissions)
    length, num_tags = emissions.shape
    trans, start, end = crf._constrained_scores()
    beams: list[list[tuple[float, list[int]]]] = [
        [(float(start[t] + emissions[0, t]), [t])] for t in range(num_tags)
    ]
    for step in range(1, length):
        new_beams: list[list[tuple[float, list[int]]]] = []
        for tag in range(num_tags):
            candidates: list[tuple[float, list[int]]] = []
            for prev_tag in range(num_tags):
                for score, path in beams[prev_tag]:
                    candidates.append(
                        (
                            score + trans[prev_tag, tag]
                            + emissions[step, tag],
                            path + [tag],
                        )
                    )
            candidates.sort(key=lambda item: item[0], reverse=True)
            new_beams.append(candidates[:k])
        beams = new_beams
    finals: list[tuple[float, list[int]]] = []
    for tag in range(num_tags):
        for score, path in beams[tag]:
            finals.append((score + float(end[tag]), path))
    finals.sort(key=lambda item: item[0], reverse=True)
    return [(path, score) for score, path in finals[:k]]
