"""Per-character loop: the oracle for ``CharVocabulary.encode_sentence``."""

import numpy as np


def encode_word_reference(char_vocab, word: str, max_chars: int) -> np.ndarray:
    """The original one-dict-lookup-per-character encoder."""
    ids = np.zeros(max_chars, dtype=np.intp)
    for i, c in enumerate(word[:max_chars]):
        ids[i] = char_vocab.index(c)
    return ids


def encode_sentence_reference(char_vocab, tokens,
                              max_chars: int = 12) -> np.ndarray:
    """``(num_tokens, max_chars)`` ids, one token at a time."""
    rows = [encode_word_reference(char_vocab, t, max_chars) for t in tokens]
    if not rows:
        return np.zeros((0, max_chars), dtype=np.intp)
    return np.stack(rows)
