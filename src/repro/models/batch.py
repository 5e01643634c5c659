"""Batch encoding of sentences into padded id arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.sentence import Sentence
from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary


@dataclass(frozen=True)
class Batch:
    """Padded arrays for a batch of sentences.

    ``word_ids`` and ``mask`` are ``(B, L)``; ``char_ids`` is
    ``(B, L, C)``; ``tag_ids`` is a list of per-sentence integer arrays
    (unpadded, aligned with true lengths); ``lengths`` the true lengths.
    """

    word_ids: np.ndarray
    char_ids: np.ndarray
    mask: np.ndarray
    lengths: tuple[int, ...]
    tag_ids: tuple[np.ndarray, ...] | None

    @property
    def size(self) -> int:
        return self.word_ids.shape[0]

    def rows(self, start: int, stop: int, tag_ids=None) -> "Batch":
        """Rows ``[start, stop)`` cut to their own longest sentence, with
        ``tag_ids`` for them (``None`` = no gold tags)."""
        cut = (slice(start, stop), slice(0, max(self.lengths[start:stop])))
        return Batch(self.word_ids[cut], self.char_ids[cut], self.mask[cut],
                     self.lengths[start:stop], tag_ids)


def encode_tags(sentences: list[Sentence],
                scheme: TagScheme) -> tuple[np.ndarray, ...]:
    """Per-sentence gold tag ids under ``scheme``."""
    return tuple(
        np.asarray(
            scheme.encode([sp.as_tuple() for sp in sent.spans], len(sent)),
            dtype=np.intp,
        )
        for sent in sentences
    )


def encode_batch(
    sentences: list[Sentence],
    word_vocab: Vocabulary,
    char_vocab: CharVocabulary,
    scheme: TagScheme | None = None,
    max_chars: int = 12,
) -> Batch:
    """Encode sentences (and, if a scheme is given, their gold tags)."""
    if not sentences:
        raise ValueError(
            "cannot encode an empty batch: encode_batch was called with no "
            "sentences — callers that may legitimately receive empty input "
            "(decode/predict_spans, the serving layer) must short-circuit "
            "to an empty result before encoding"
        )
    lengths = tuple(len(s) for s in sentences)
    max_len = max(lengths)
    batch = len(sentences)
    mask = (np.arange(max_len) < np.array(lengths)[:, None]).astype(float)
    # Real cells in row-major order are the batch's tokens in order, so
    # every token is encoded in one pass and scattered through the mask.
    tokens = [t for sent in sentences for t in sent.tokens]
    real = mask > 0
    word_ids = np.zeros((batch, max_len), dtype=np.intp)
    word_ids[real] = word_vocab.encode(tokens)
    char_ids = np.zeros((batch, max_len, max_chars), dtype=np.intp)
    char_ids[real] = char_vocab.encode_sentence(tokens, max_chars)
    tags = None if scheme is None else encode_tags(sentences, scheme)
    return Batch(word_ids, char_ids, mask, lengths, tags)
