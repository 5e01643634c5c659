"""Static pretrained-style word embeddings (GloVe surrogate).

GloVe's property that the experiments rely on is *transferable lexical
similarity*: words that look and behave alike get nearby vectors, before
any task-specific training.  Without downloadable vectors we synthesise
that property deterministically: a word's vector is the normalised sum of
hash-projected character n-grams (the fastText trick), so morphologically
related words — e.g. different surface forms sharing an entity-type
suffix — land close together, while unrelated words are near-orthogonal.

Vectors are frozen construction-time artifacts; like GloVe in the paper
they are used to *initialise* the word-embedding table, which is then
fine-tuned during training.
"""

from __future__ import annotations

import zlib

import numpy as np


class StaticEmbeddings:
    """Deterministic char-n-gram hash embeddings for a vocabulary."""

    def __init__(self, dim: int = 50, ngram_range: tuple[int, int] = (2, 4),
                 seed: int = 0):
        if dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {dim}")
        lo, hi = ngram_range
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid ngram range {ngram_range}")
        self.dim = dim
        self.ngram_range = ngram_range
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def _ngram_vector(self, ngram: str) -> np.ndarray:
        key = zlib.crc32(f"{self.seed}:{ngram}".encode("utf-8"))
        rng = np.random.default_rng(key)
        return rng.normal(0.0, 1.0, size=self.dim)

    def vector(self, word: str) -> np.ndarray:
        """Embedding for one word (cached)."""
        word = word.lower()
        if word in self._cache:
            return self._cache[word]
        lo, hi = self.ngram_range
        padded = f"<{word}>"
        total = np.zeros(self.dim)
        count = 0
        for n in range(lo, hi + 1):
            for i in range(len(padded) - n + 1):
                total += self._ngram_vector(padded[i : i + n])
                count += 1
        if count:
            total /= np.sqrt(count)
        norm = np.linalg.norm(total)
        vec = total / norm if norm > 0 else total
        self._cache[word] = vec
        return vec

    def matrix(self, vocabulary) -> np.ndarray:
        """Embedding matrix aligned with a :class:`~repro.data.Vocabulary`.

        Row 0 (PAD) is zeros; row 1 (UNK) is a fixed random vector.
        """
        out = np.zeros((len(vocabulary), self.dim))
        rng = np.random.default_rng(self.seed + 1)
        out[vocabulary.unk_index] = rng.normal(0, 0.1, size=self.dim)
        for idx in range(len(vocabulary)):
            if idx in (vocabulary.pad_index, vocabulary.unk_index):
                continue
            out[idx] = self.vector(vocabulary.token(idx))
        return out

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity between two word vectors."""
        va, vb = self.vector(a), self.vector(b)
        denom = np.linalg.norm(va) * np.linalg.norm(vb)
        return float(va @ vb / denom) if denom > 0 else 0.0
