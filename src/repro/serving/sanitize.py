"""Request validation and sanitization for the tagging service.

Real traffic is hostile by accident: zero-width joiners pasted from web
pages, NUL bytes from broken encoders, ten-kilobyte "tokens" from
concatenation bugs, empty lists from impatient clients.  The sanitizer
turns all of that into either a clean, bounded token sequence or a
structured :class:`InvalidRequest` whose ``field``/``index``/``reason``
a caller can act on — never a traceback from deep inside the encoder.

Normalization applied (in order): NFC unicode normalization, removal of
control/format/surrogate characters (categories Cc/Cf/Cs — this covers
NUL, bidi overrides and zero-width spaces; tabs/newlines inside a token
are token-boundary bugs and are removed too), and token-length capping.
Astral-plane letters, emoji and any printable script survive untouched:
the goal is bounding the input, not anglicizing it.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

#: Unicode categories stripped from tokens: control, format (zero-width
#: characters, bidi overrides), and surrogates (ill-formed text).
_STRIPPED_CATEGORIES = ("Cc", "Cf", "Cs")


def _stripped(c: str) -> bool:
    """Whether :meth:`RequestSanitizer.clean_token` removes character ``c``."""
    return unicodedata.category(c) in _STRIPPED_CATEGORIES or c.isspace()


#: ``str.translate`` table deleting the stripped ASCII characters.  NFC
#: is the identity on ASCII, so this table alone cleans an ASCII token.
_ASCII_TABLE = {c: None for c in range(128) if _stripped(chr(c))}


class InvalidRequest(ValueError):
    """A request the service refuses, with machine-readable context."""

    def __init__(self, reason: str, *, field: str = "tokens",
                 index: int | None = None):
        self.reason = reason
        self.field = field
        self.index = index
        where = field if index is None else f"{field}[{index}]"
        super().__init__(f"invalid request ({where}): {reason}")


@dataclass(frozen=True)
class SanitizerConfig:
    """Bounds enforced on every request."""

    #: Maximum tokens per sentence; longer requests are rejected (a
    #: sentence this long is a segmentation failure upstream, and CRF
    #: decode cost is linear in it).
    max_tokens: int = 512
    #: Characters kept per token; the overflow is truncated and the
    #: response flagged, since char-CNN features cap at
    #: ``BackboneConfig.max_chars`` anyway.
    max_token_chars: int = 64
    #: Apply NFC normalization before filtering.
    normalize_nfc: bool = True


@dataclass(frozen=True)
class SanitizedRequest:
    """A cleaned token sequence plus what cleaning had to be done."""

    tokens: tuple[str, ...]
    n_truncated: int = 0
    n_rewritten: int = 0

    @property
    def modified(self) -> bool:
        return self.n_truncated > 0 or self.n_rewritten > 0


class RequestSanitizer:
    """Validate and clean one token sequence (see module docstring)."""

    def __init__(self, config: SanitizerConfig | None = None):
        self.config = config or SanitizerConfig()

    # ------------------------------------------------------------------
    def clean_token(self, token: str) -> str:
        """Normalized, control-free, whitespace-free form of ``token``.

        May return the empty string (e.g. a token that was *only* a
        zero-width space); :meth:`sanitize` rejects those with context.
        """
        if token.isascii():
            return token.translate(_ASCII_TABLE)
        return self._clean_general(token)

    def _clean_general(self, token: str) -> str:
        """:meth:`clean_token` for any text, character by character."""
        if self.config.normalize_nfc:
            # Lone surrogates make normalize() raise; drop them first.
            token = "".join(
                c for c in token if unicodedata.category(c) != "Cs"
            )
            token = unicodedata.normalize("NFC", token)
        return "".join(c for c in token if not _stripped(c))

    def _already_clean(self, tokens: list) -> bool:
        """Whether :meth:`sanitize` would return ``tokens`` unchanged,
        judged for the whole request at once: every token is a ``str``
        of printable ASCII without a space (what cleaning keeps), none
        is empty and none is over the cap."""
        if not all(map(isinstance, tokens, repeat(str))):
            return False
        joined = "".join(tokens)
        return (joined.isascii() and joined.isprintable()
                and " " not in joined and all(tokens)
                and max(map(len, tokens)) <= self.config.max_token_chars)

    # ------------------------------------------------------------------
    def sanitize(self, tokens: Sequence[str]) -> SanitizedRequest:
        """Clean ``tokens`` or raise a structured :class:`InvalidRequest`."""
        if isinstance(tokens, (str, bytes)):
            raise InvalidRequest(
                "expected a sequence of tokens, got a bare string — "
                "tokenize before calling the service"
            )
        try:
            tokens = list(tokens)
        except TypeError:
            raise InvalidRequest(
                f"expected a sequence of tokens, got {type(tokens).__name__}"
            ) from None
        if not tokens:
            raise InvalidRequest("empty token sequence")
        if len(tokens) > self.config.max_tokens:
            raise InvalidRequest(
                f"{len(tokens)} tokens exceeds the cap of "
                f"{self.config.max_tokens}"
            )
        if self._already_clean(tokens):
            # ``str`` makes a ``np.str_`` token plain, as cleaning does.
            return SanitizedRequest(tuple(map(str, tokens)))
        cleaned: list[str] = []
        n_truncated = 0
        n_rewritten = 0
        for i, token in enumerate(tokens):
            if not isinstance(token, str):
                raise InvalidRequest(
                    f"token must be str, got {type(token).__name__}",
                    index=i,
                )
            out = self.clean_token(token)
            if not out:
                raise InvalidRequest(
                    "token is empty after removing control/format "
                    "characters and whitespace",
                    index=i,
                )
            if len(out) > self.config.max_token_chars:
                out = out[: self.config.max_token_chars]
                n_truncated += 1
            elif out != token:
                n_rewritten += 1
            cleaned.append(out)
        return SanitizedRequest(tuple(cleaned), n_truncated, n_rewritten)
