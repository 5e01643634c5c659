"""Word and character vocabularies."""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Iterable

import numpy as np

PAD = "<pad>"
UNK = "<unk>"


class Vocabulary:
    """Token -> id mapping with PAD=0 and UNK=1.

    Words are lowercased by default, matching the paper's use of uncased
    GloVe vectors (character features stay cased; see
    :class:`CharVocabulary`).
    """

    def __init__(self, tokens: Iterable[str] = (), lowercase: bool = True,
                 min_count: int = 1):
        self.lowercase = lowercase
        counts = Counter(self._norm(t) for t in tokens)
        self._itos: list[str] = [PAD, UNK]
        for tok, c in sorted(counts.items()):
            if c >= min_count and tok not in (PAD, UNK):
                self._itos.append(tok)
        self._stoi = {t: i for i, t in enumerate(self._itos)}

    def _norm(self, token: str) -> str:
        return token.lower() if self.lowercase else token

    @classmethod
    def from_datasets(cls, datasets, lowercase: bool = True,
                      min_count: int = 1) -> "Vocabulary":
        def all_tokens():
            for ds in datasets:
                for sent in ds:
                    yield from sent.tokens

        return cls(all_tokens(), lowercase=lowercase, min_count=min_count)

    def __len__(self) -> int:
        return len(self._itos)

    def __contains__(self, token: str) -> bool:
        return self._norm(token) in self._stoi

    @property
    def pad_index(self) -> int:
        return 0

    @property
    def unk_index(self) -> int:
        return 1

    def token(self, index: int) -> str:
        return self._itos[index]

    def encode(self, tokens: Iterable[str]) -> np.ndarray:
        words = map(str.lower, tokens) if self.lowercase else tokens
        return np.fromiter(map(self._stoi.get, words, repeat(self.unk_index)),
                           dtype=np.intp)

    def encode_batch(self, sentences) -> tuple[np.ndarray, np.ndarray]:
        """Pad a batch of token sequences; returns ``(ids, mask)``."""
        seqs = [self.encode(s) for s in sentences]
        if not seqs:
            raise ValueError(
                "cannot pad an empty batch: Vocabulary.encode_batch was "
                "called with no sentences — short-circuit empty inputs to "
                "an empty result before encoding"
            )
        max_len = max(len(s) for s in seqs)
        ids = np.full((len(seqs), max_len), self.pad_index, dtype=np.intp)
        mask = np.zeros((len(seqs), max_len))
        for i, s in enumerate(seqs):
            ids[i, : len(s)] = s
            mask[i, : len(s)] = 1.0
        return ids, mask


class CharVocabulary:
    """Character -> id mapping (cased), with PAD=0 and UNK=1."""

    def __init__(self, tokens: Iterable[str] = ()):
        chars = sorted({c for t in tokens for c in t})
        self._itos = [PAD, UNK] + chars
        self._stoi = {c: i for i, c in enumerate(self._itos)}
        # ``chars`` is sorted by code point, so the id of ``chars[k]`` is
        # ``k + 2`` and a binary search over these codes finds it.
        self._codes = _code_points(chars)

    @classmethod
    def from_datasets(cls, datasets) -> "CharVocabulary":
        def all_tokens():
            for ds in datasets:
                for sent in ds:
                    yield from sent.tokens

        return cls(all_tokens())

    def __len__(self) -> int:
        return len(self._itos)

    @property
    def pad_index(self) -> int:
        return 0

    def index(self, char: str) -> int:
        return self._stoi.get(char, 1)

    def encode_word(self, word: str, max_chars: int) -> np.ndarray:
        return self.encode_sentence([word], max_chars)[0]

    def encode_sentence(self, tokens, max_chars: int = 12) -> np.ndarray:
        """Encode each token's characters: ``(num_tokens, max_chars)``.

        Tokens are truncated to ``max_chars`` and right-padded with
        ``pad_index``; characters outside the vocabulary get UNK (1).
        All tokens are looked up in one vectorised pass.
        """
        kept = [t[:max_chars] for t in tokens]
        lengths = np.fromiter(map(len, kept), dtype=np.intp, count=len(kept))
        codes = _code_points(kept)
        pos = np.searchsorted(self._codes, codes)
        found = pos < len(self._codes)
        found[found] = self._codes[pos[found]] == codes[found]
        out = np.zeros((len(kept), max_chars), dtype=np.intp)
        out[np.arange(max_chars) < lengths[:, None]] = np.where(
            found, pos + 2, 1
        )
        return out


def _code_points(strings) -> np.ndarray:
    """Code points of ``strings`` concatenated, lone surrogates included."""
    data = "".join(strings).encode("utf-32-le", "surrogatepass")
    return np.frombuffer(data, dtype="<u4")
