"""BIO (IOB2) tag scheme and the span <-> tag-sequence codec.

Few-shot tasks use an *abstract* label space: the N entity types of a task
are bound to way slots ``0..N-1``, and the tag set is
``["O", "B-0", "I-0", ..., "B-{N-1}", "I-{N-1}"]``.  This is what lets the
meta-learner share one output space across tasks whose concrete types
differ (paper §3.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass


def spans_to_bio(spans, length: int) -> list[str]:
    """Encode ``(start, end, label)`` spans as a BIO tag sequence.

    ``end`` is exclusive.  Spans must not overlap.
    """
    tags = ["O"] * length
    occupied = [False] * length
    for span in sorted(spans, key=lambda s: (s[0], s[1])):
        start, end, label = span[0], span[1], span[2]
        if not 0 <= start < end <= length:
            raise ValueError(f"span ({start}, {end}) out of range for length {length}")
        if any(occupied[start:end]):
            raise ValueError(f"overlapping span ({start}, {end}, {label!r})")
        for i in range(start, end):
            occupied[i] = True
        tags[start] = f"B-{label}"
        for i in range(start + 1, end):
            tags[i] = f"I-{label}"
    return tags


def bio_to_spans(tags: list[str]) -> list[tuple[int, int, str]]:
    """Decode a BIO tag sequence into ``(start, end, label)`` spans.

    Tolerant of malformed sequences (an ``I-X`` without a ``B-X`` opens a
    new span), matching conlleval behaviour, so model outputs can always
    be scored.
    """
    spans: list[tuple[int, int, str]] = []
    start: int | None = None
    label: str | None = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if start is not None:
                spans.append((start, i, label))
                start, label = None, None
        elif tag.startswith("B-"):
            if start is not None:
                spans.append((start, i, label))
            start, label = i, tag[2:]
        elif tag.startswith("I-"):
            current = tag[2:]
            if start is None or current != label:
                if start is not None:
                    spans.append((start, i, label))
                start, label = i, current
        else:
            raise ValueError(f"not a BIO tag: {tag!r}")
    if start is not None:
        spans.append((start, len(tags), label))
    return spans


def spans_to_iobes(spans, length: int) -> list[str]:
    """Encode spans in the IOBES scheme (S- for singletons, E- for ends).

    IOBES gives the decoder explicit boundary evidence and is a common
    alternative to BIO in NER toolkits.
    """
    tags = ["O"] * length
    occupied = [False] * length
    for span in sorted(spans, key=lambda s: (s[0], s[1])):
        start, end, label = span[0], span[1], span[2]
        if not 0 <= start < end <= length:
            raise ValueError(f"span ({start}, {end}) out of range for length {length}")
        if any(occupied[start:end]):
            raise ValueError(f"overlapping span ({start}, {end}, {label!r})")
        for i in range(start, end):
            occupied[i] = True
        if end - start == 1:
            tags[start] = f"S-{label}"
        else:
            tags[start] = f"B-{label}"
            for i in range(start + 1, end - 1):
                tags[i] = f"I-{label}"
            tags[end - 1] = f"E-{label}"
    return tags


def iobes_to_spans(tags: list[str]) -> list[tuple[int, int, str]]:
    """Decode an IOBES sequence to spans (lenient on malformed input)."""
    spans: list[tuple[int, int, str]] = []
    start: int | None = None
    label: str | None = None

    def close(end: int) -> None:
        nonlocal start, label
        if start is not None:
            spans.append((start, end, label))
        start, label = None, None

    for i, tag in enumerate(tags):
        if tag == "O":
            close(i)
        elif tag.startswith("S-"):
            close(i)
            spans.append((i, i + 1, tag[2:]))
        elif tag.startswith("B-"):
            close(i)
            start, label = i, tag[2:]
        elif tag.startswith("I-") or tag.startswith("E-"):
            current = tag[2:]
            if start is None or current != label:
                close(i)
                start, label = i, current
            if tag.startswith("E-"):
                close(i + 1)
        else:
            raise ValueError(f"not an IOBES tag: {tag!r}")
    close(len(tags))
    return spans


def convert_scheme(tags: list[str], source: str, target: str) -> list[str]:
    """Convert a tag sequence between ``"bio"`` and ``"iobes"``."""
    codecs = {
        "bio": (bio_to_spans, spans_to_bio),
        "iobes": (iobes_to_spans, spans_to_iobes),
    }
    if source not in codecs or target not in codecs:
        raise ValueError(f"schemes must be 'bio' or 'iobes', got {source!r}/{target!r}")
    decode, _ = codecs[source]
    _, encode = codecs[target]
    return encode(decode(list(tags)), len(tags))


@dataclass(frozen=True)
class TagScheme:
    """The indexed BIO tag set for an ordered list of entity labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in tag scheme")
        # A frozen scheme's tags never change, so the tag list and the
        # tag -> id map are built once, not on every encode and decode.
        tags = ("O",) + tuple(
            f"{prefix}-{label}" for label in self.labels for prefix in "BI")
        object.__setattr__(self, "_tags", tags)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(tags)})

    @property
    def tags(self) -> list[str]:
        return list(self._tags)

    @property
    def num_tags(self) -> int:
        return 1 + 2 * len(self.labels)

    def tag_index(self, tag: str) -> int:
        try:
            return self._index[tag]
        except KeyError:
            raise KeyError(f"tag {tag!r} not in scheme {self.tags}") from None

    def encode(self, spans, length: int) -> list[int]:
        """Span list -> integer tag ids (spans with unknown labels dropped)."""
        kept = [s for s in spans if s[2] in self.labels]
        return [self._index[t] for t in spans_to_bio(kept, length)]

    def decode(self, tag_ids) -> list[tuple[int, int, str]]:
        """Integer tag ids -> span list."""
        tags = self._tags
        return bio_to_spans([tags[int(i)] for i in tag_ids])
