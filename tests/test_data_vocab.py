"""Tests for word and character vocabularies."""

import numpy as np
import pytest

from repro.data.sentence import Sentence
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.models.batch import encode_batch
from tests.reference.vocab import encode_sentence_reference


class TestVocabulary:
    def test_pad_unk_reserved(self):
        v = Vocabulary(["apple", "banana"])
        assert v.pad_index == 0
        assert v.unk_index == 1
        assert len(v) == 4

    def test_lowercasing(self):
        v = Vocabulary(["Apple"])
        assert v.index("APPLE") == v.index("apple")
        assert "Apple" in v

    def test_cased_mode(self):
        v = Vocabulary(["Apple"], lowercase=False)
        assert v.index("apple") == v.unk_index
        assert v.index("Apple") != v.unk_index

    def test_min_count_filters_singletons(self):
        v = Vocabulary(["a", "a", "b"], min_count=2)
        assert v.index("a") != v.unk_index
        assert v.index("b") == v.unk_index

    def test_unknown_maps_to_unk(self):
        v = Vocabulary(["x"])
        assert v.index("zzz") == v.unk_index

    def test_encode(self):
        v = Vocabulary(["a", "b"])
        ids = v.encode(["a", "zzz", "b"])
        assert ids[1] == v.unk_index
        assert v.token(ids[0]) == "a"

    def test_encode_batch_padding_and_mask(self):
        v = Vocabulary(["a", "b", "c"])
        ids, mask = v.encode_batch([["a", "b", "c"], ["a"]])
        assert ids.shape == (2, 3)
        assert ids[1, 1] == v.pad_index
        assert mask.tolist() == [[1, 1, 1], [1, 0, 0]]

    def test_encode_batch_empty_raises(self):
        with pytest.raises(ValueError):
            Vocabulary(["a"]).encode_batch([])

    def test_deterministic_ordering(self):
        v1 = Vocabulary(["b", "a", "c"])
        v2 = Vocabulary(["c", "a", "b"])
        assert [v1.token(i) for i in range(len(v1))] == [
            v2.token(i) for i in range(len(v2))
        ]


class TestCharVocabulary:
    def test_cased(self):
        cv = CharVocabulary(["Ab"])
        assert cv.index("A") != cv.index("a")

    def test_unknown_char(self):
        cv = CharVocabulary(["ab"])
        assert cv.index("z") == 1

    def test_encode_word_truncates_and_pads(self):
        cv = CharVocabulary(["abcdef"])
        ids = cv.encode_word("abcdef", max_chars=4)
        assert ids.shape == (4,)
        ids = cv.encode_word("ab", max_chars=4)
        assert ids[2] == cv.pad_index

    def test_encode_sentence_shape(self):
        cv = CharVocabulary(["ab", "cde"])
        out = cv.encode_sentence(["ab", "cde"], max_chars=5)
        assert out.shape == (2, 5)

    def test_encode_sentence_empty(self):
        cv = CharVocabulary(["ab"])
        out = cv.encode_sentence([], max_chars=5)
        assert out.shape == (0, 5)
        assert out.dtype == np.intp

    def test_encode_word_matches_sentence_row(self):
        cv = CharVocabulary(["abc"])
        assert cv.encode_word("bxa", 4).tolist() == [3, 1, 2, 0]
        assert cv.encode_word("", 3).tolist() == [0, 0, 0]


# Characters drawn by the property test: in-vocabulary ASCII, BMP and
# astral letters, lone surrogates (both halves) and characters the
# vocabulary has never seen.
_KNOWN = "aZ9-\u00e9\u4e2d\U0001f600\ud800"
_UNKNOWN = "q\u00df\u0416\U00010348\U0001f9ea\udc00\udfff\x00\uffff"


def _random_tokens(rng, n):
    alphabet = _KNOWN + _UNKNOWN
    return [
        "".join(alphabet[j] for j in rng.integers(0, len(alphabet),
                                                  rng.integers(0, 20)))
        for _ in range(n)
    ]


class TestOnePassEncoder:
    """The vectorised encoder against the per-character loop, exactly."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_character_reference(self, seed):
        rng = np.random.default_rng(seed)
        cv = CharVocabulary(_random_tokens(rng, 3) + [_KNOWN])
        tokens = _random_tokens(rng, int(rng.integers(0, 30)))
        tokens += ["", _UNKNOWN * 3, _KNOWN * 4]
        for max_chars in (1, 5, 12, 40):
            got = cv.encode_sentence(tokens, max_chars)
            want = encode_sentence_reference(cv, tokens, max_chars)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_empty_vocabulary_maps_everything_to_unk(self):
        cv = CharVocabulary()
        got = cv.encode_sentence(["ab", ""], max_chars=3)
        assert got.tolist() == [[1, 1, 0], [0, 0, 0]]
        assert np.array_equal(got, encode_sentence_reference(cv, ["ab", ""], 3))

    def test_encode_batch_matches_per_sentence_encoding(self):
        rng = np.random.default_rng(7)
        cv = CharVocabulary([_KNOWN])
        wv = Vocabulary(["a", "Z9"])
        sentences = [Sentence(tuple(_random_tokens(rng, n)))
                     for n in (3, 0, 7, 1, 5)]
        batch = encode_batch(sentences, wv, cv, max_chars=6)
        max_len = max(len(s) for s in sentences)
        assert batch.char_ids.shape == (5, max_len, 6)
        for i, sent in enumerate(sentences):
            want = np.zeros((max_len, 6), dtype=np.intp)
            want[: len(sent)] = encode_sentence_reference(cv, sent.tokens, 6)
            assert np.array_equal(batch.char_ids[i], want)
            assert np.array_equal(batch.word_ids[i, : len(sent)],
                                  wv.encode(sent.tokens))
            assert not batch.word_ids[i, len(sent):].any()
            assert batch.mask[i].tolist() == (
                [1.0] * len(sent) + [0.0] * (max_len - len(sent)))
