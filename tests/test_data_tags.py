"""Tests for the BIO codec and tag schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tags import TagScheme, bio_to_spans, spans_to_bio


class TestSpansToBio:
    def test_simple(self):
        tags = spans_to_bio([(1, 3, "PER")], 5)
        assert tags == ["O", "B-PER", "I-PER", "O", "O"]

    def test_adjacent_spans(self):
        tags = spans_to_bio([(0, 2, "A"), (2, 3, "B")], 3)
        assert tags == ["B-A", "I-A", "B-B"]

    def test_adjacent_same_type_kept_separate(self):
        tags = spans_to_bio([(0, 1, "A"), (1, 2, "A")], 2)
        assert tags == ["B-A", "B-A"]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            spans_to_bio([(0, 4, "A")], 3)
        with pytest.raises(ValueError):
            spans_to_bio([(-1, 1, "A")], 3)

    def test_overlap_raises(self):
        with pytest.raises(ValueError):
            spans_to_bio([(0, 2, "A"), (1, 3, "B")], 4)


class TestBioToSpans:
    def test_roundtrip(self):
        spans = [(0, 2, "LOC"), (3, 4, "PER")]
        assert bio_to_spans(spans_to_bio(spans, 5)) == spans

    def test_span_at_end(self):
        assert bio_to_spans(["O", "B-A", "I-A"]) == [(1, 3, "A")]

    def test_orphan_i_opens_span(self):
        # conlleval-compatible lenient decoding
        assert bio_to_spans(["O", "I-A", "I-A"]) == [(1, 3, "A")]

    def test_type_switch_inside_i(self):
        assert bio_to_spans(["B-A", "I-B"]) == [(0, 1, "A"), (1, 2, "B")]

    def test_invalid_tag_raises(self):
        with pytest.raises(ValueError):
            bio_to_spans(["O", "Z-A"])

    def test_empty(self):
        assert bio_to_spans([]) == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=0, max_size=6), st.integers(8, 14))
def test_roundtrip_property(starts, length):
    """Random non-overlapping spans survive the encode/decode roundtrip."""
    spans = []
    cursor = 0
    for width in starts:
        start = cursor + 1
        end = start + width + 1
        if end > length:
            break
        spans.append((start, end, f"T{width}"))
        cursor = end
    assert bio_to_spans(spans_to_bio(spans, length)) == spans


class TestTagScheme:
    def test_tags_layout(self):
        scheme = TagScheme(("PER", "LOC"))
        assert scheme.tags == ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
        assert scheme.num_tags == 5

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            TagScheme(("A", "A"))

    def test_encode_drops_unknown_labels(self):
        scheme = TagScheme(("PER",))
        ids = scheme.encode([(0, 1, "PER"), (2, 3, "UNKNOWN")], 4)
        assert ids == [1, 0, 0, 0]

    def test_decode_roundtrip(self):
        scheme = TagScheme(("PER", "LOC"))
        spans = [(1, 2, "PER"), (3, 5, "LOC")]
        assert scheme.decode(scheme.encode(spans, 6)) == spans

    def test_tag_index(self):
        scheme = TagScheme(("X",))
        assert scheme.tag_index("B-X") == 1
        with pytest.raises(KeyError):
            scheme.tag_index("B-Y")


class _PerCallScheme:
    """Reference: the tag list and index rebuilt on every call."""

    def __init__(self, labels):
        self.labels = labels

    @property
    def tags(self):
        out = ["O"]
        for label in self.labels:
            out.append(f"B-{label}")
            out.append(f"I-{label}")
        return out

    def encode(self, spans, length):
        known = set(self.labels)
        kept = [s for s in spans if s[2] in known]
        index = {t: i for i, t in enumerate(self.tags)}
        return [index[t] for t in spans_to_bio(kept, length)]

    def decode(self, tag_ids):
        tags = self.tags
        return bio_to_spans([tags[int(i)] for i in tag_ids])


class TestTagSchemeBuiltOnce:
    """A scheme builds its tags and tag -> id map once; every output must
    equal the per-call reference's."""

    def test_outputs_match_per_call_reference(self):
        rng = np.random.default_rng(27)
        pool = ["PER", "LOC", "ORG", "0", "1", "2", "B-X", "MISC"]
        for _ in range(200):
            labels = tuple(rng.permutation(pool)[:rng.integers(0, 6)])
            scheme, ref = TagScheme(labels), _PerCallScheme(labels)
            assert scheme.tags == ref.tags
            assert scheme.num_tags == len(ref.tags)
            for tag in ref.tags:
                assert scheme.tag_index(tag) == ref.tags.index(tag)
            length = int(rng.integers(1, 12))
            cuts = sorted(rng.choice(np.arange(length + 1),
                                     size=min(4, length + 1), replace=False))
            spans = [(int(a), int(b), str(rng.choice(pool)))
                     for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
            assert scheme.encode(spans, length) == ref.encode(spans, length)
            ids = rng.integers(0, len(ref.tags), size=length)
            assert scheme.decode(ids) == ref.decode(ids)
            assert scheme.decode(ids.tolist()) == ref.decode(ids)

    def test_tags_is_a_fresh_list(self):
        scheme = TagScheme(("PER",))
        scheme.tags.append("B-LOC")
        assert scheme.tags == ["O", "B-PER", "I-PER"]
        assert scheme.encode([(0, 1, "PER")], 2) == [1, 0]

    def test_equality_hash_and_pickle_see_labels_only(self):
        import pickle

        scheme = TagScheme(("PER", "LOC"))
        assert scheme == TagScheme(("PER", "LOC"))
        assert hash(scheme) == hash(TagScheme(("PER", "LOC")))
        assert repr(scheme) == "TagScheme(labels=('PER', 'LOC'))"
        copy = pickle.loads(pickle.dumps(scheme))
        assert copy == scheme
        assert copy.decode([3, 4]) == [(0, 2, "LOC")]
        with pytest.raises(KeyError, match="not in scheme"):
            copy.tag_index("B-ORG")
