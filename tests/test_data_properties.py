"""Property-based tests for the data layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.sentence import Dataset, Sentence, Span
from repro.data.vocab import CharVocabulary, Vocabulary

words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu")),
    min_size=1, max_size=8,
)


@settings(max_examples=50, deadline=None)
@given(st.lists(words, min_size=1, max_size=30))
def test_vocab_encode_roundtrip_for_known_tokens(tokens):
    vocab = Vocabulary(tokens)
    for tok in tokens:
        idx = vocab.encode([tok])[0]
        assert idx >= 2  # not PAD/UNK
        assert vocab.token(idx) == tok.lower()


@settings(max_examples=50, deadline=None)
@given(st.lists(words, min_size=1, max_size=20), words)
def test_vocab_unknown_always_unk(tokens, probe):
    vocab = Vocabulary(tokens)
    if probe.lower() not in {t.lower() for t in tokens}:
        assert vocab.encode([probe])[0] == vocab.unk_index


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(words, min_size=1, max_size=6), min_size=1, max_size=5))
def test_encode_batch_mask_matches_lengths(sentences):
    vocab = Vocabulary(tok for sent in sentences for tok in sent)
    ids, mask = vocab.encode_batch(sentences)
    assert ids.shape == mask.shape
    assert np.allclose(mask.sum(axis=1), [len(s) for s in sentences])
    # Padded cells hold the PAD id.
    assert np.all(ids[mask == 0] == vocab.pad_index)


@settings(max_examples=50, deadline=None)
@given(words, st.integers(1, 10))
def test_char_encode_width(word, max_chars):
    cv = CharVocabulary([word])
    ids = cv.encode_word(word, max_chars)
    assert ids.shape == (max_chars,)
    used = min(len(word), max_chars)
    assert np.all(ids[:used] != cv.pad_index)
    assert np.all(ids[used:] == cv.pad_index)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3))
def test_restrict_labels_is_idempotent(n_tokens, n_spans):
    n_tokens = max(n_tokens, n_spans)  # room for single-token spans
    spans = tuple(Span(i, i + 1, f"T{i % 2}") for i in range(n_spans))
    sent = Sentence(tuple(f"w{i}" for i in range(max(n_tokens, 1))), spans)
    once = sent.restrict_labels(["T0"])
    twice = once.restrict_labels(["T0"])
    assert once.spans == twice.spans


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6))
def test_innermost_idempotent(depth):
    # A telescope of nested spans: only the innermost survives.
    tokens = tuple(f"w{i}" for i in range(depth + 1))
    spans = tuple(Span(0, depth + 1 - i, f"L{i}") for i in range(depth))
    sent = Sentence(tokens, spans)
    once = sent.innermost()
    assert len(once.spans) == 1
    assert once.innermost().spans == once.spans


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(words, st.booleans()), min_size=1, max_size=10))
def test_dataset_statistics_consistent(rows):
    sentences = []
    for i, (word, has_span) in enumerate(rows):
        spans = (Span(0, 1, f"T{i % 3}"),) if has_span else ()
        sentences.append(Sentence((word,), spans))
    ds = Dataset("p", sentences)
    stats = ds.statistics()
    assert stats["sentences"] == len(rows)
    assert stats["mentions"] == sum(1 for _w, h in rows if h)
    assert stats["types"] == len(ds.type_counts())
