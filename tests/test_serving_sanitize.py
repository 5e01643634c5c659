"""Request sanitization: hostile unicode in, clean tokens or typed errors out."""

import unicodedata

import numpy as np
import pytest

from repro.reliability import FaultInjector
from repro.serving import (
    InvalidRequest,
    RequestSanitizer,
    SanitizedRequest,
    SanitizerConfig,
)


@pytest.fixture
def sanitizer():
    return RequestSanitizer()


class TestHappyPath:
    def test_clean_input_passes_through(self, sanitizer):
        out = sanitizer.sanitize(["Kavox", "visited", "Zuqev"])
        assert out.tokens == ("Kavox", "visited", "Zuqev")
        assert not out.modified

    def test_astral_plane_and_emoji_survive(self, sanitizer):
        tokens = ["\U0001f600", "\U00010348", "ok"]
        out = sanitizer.sanitize(tokens)
        assert out.tokens == tuple(tokens)
        assert not out.modified

    def test_nfc_normalization_merges_forms(self, sanitizer):
        out = sanitizer.sanitize(["café"])
        assert out.tokens == ("café",)
        assert out.modified


class TestCleaning:
    def test_control_chars_stripped(self, sanitizer):
        out = sanitizer.sanitize(["a\x00b", "c\x1bd"])
        assert out.tokens == ("ab", "cd")
        assert out.n_rewritten == 2

    def test_zero_width_and_bidi_stripped(self, sanitizer):
        out = sanitizer.sanitize(["a\u200bb", "\u202eevil"])
        assert out.tokens == ("ab", "evil")

    def test_embedded_whitespace_removed(self, sanitizer):
        out = sanitizer.sanitize(["to\tken", "li\nne"])
        assert out.tokens == ("token", "line")

    def test_long_token_truncated_and_flagged(self):
        sanitizer = RequestSanitizer(SanitizerConfig(max_token_chars=8))
        out = sanitizer.sanitize(["x" * 10_000, "ok"])
        assert out.tokens[0] == "x" * 8
        assert out.n_truncated == 1


class TestRejections:
    def test_empty_request(self, sanitizer):
        with pytest.raises(InvalidRequest, match="empty token sequence"):
            sanitizer.sanitize([])

    def test_bare_string(self, sanitizer):
        with pytest.raises(InvalidRequest, match="bare string"):
            sanitizer.sanitize("tokenize me")

    def test_non_sequence(self, sanitizer):
        with pytest.raises(InvalidRequest):
            sanitizer.sanitize(42)

    def test_non_string_token_carries_index(self, sanitizer):
        with pytest.raises(InvalidRequest) as info:
            sanitizer.sanitize(["ok", None])
        assert info.value.index == 1
        assert info.value.field == "tokens"

    def test_token_vanishing_to_nothing(self, sanitizer):
        with pytest.raises(InvalidRequest, match="empty after removing"):
            sanitizer.sanitize(["\u200b\u200d"])

    def test_sentence_cap(self):
        sanitizer = RequestSanitizer(SanitizerConfig(max_tokens=4))
        with pytest.raises(InvalidRequest, match="exceeds the cap"):
            sanitizer.sanitize(["a"] * 5)


class TestFuzz:
    """The sanitizer never crashes: clean output or InvalidRequest, only."""

    def test_curated_hostile_payloads(self, sanitizer):
        for payload in FaultInjector.malformed_token_sequences():
            try:
                out = sanitizer.sanitize(payload)
            except InvalidRequest:
                continue
            assert isinstance(out, SanitizedRequest)
            assert all(isinstance(t, str) and t for t in out.tokens)

    def test_random_unicode_storm(self, sanitizer):
        """10k-char tokens of arbitrary code points, astral planes included."""
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n_tokens = int(rng.integers(1, 6))
            tokens = []
            for _ in range(n_tokens):
                length = int(rng.choice([1, 3, 17, 10_000]))
                codepoints = rng.integers(0, 0x110000, size=length)
                tokens.append(
                    "".join(chr(int(c)) for c in codepoints)
                )
            try:
                out = sanitizer.sanitize(tokens)
            except InvalidRequest:
                continue
            for token in out.tokens:
                assert token
                assert len(token) <= sanitizer.config.max_token_chars
                for ch in token:
                    assert unicodedata.category(ch) not in ("Cc", "Cf", "Cs")
                    assert not ch.isspace()


class _GeneralPathSanitizer(RequestSanitizer):
    """Cleans every request token by token, and every token on the
    general (per-character) path."""

    def _already_clean(self, tokens) -> bool:
        return False

    def clean_token(self, token: str) -> str:
        return self._clean_general(token)


def _outcome(sanitizer, tokens):
    """The sanitized request, or the ``(index, reason)`` of its error."""
    try:
        return sanitizer.sanitize(tokens)
    except InvalidRequest as exc:
        return exc.index, exc.reason


#: Tokens the request-level parity test draws from: already clean ASCII
#: (``x * 6`` is at the test's cap) ...
_CLEAN_TOKENS = ["Kavox", "went", "x" * 6, "a.b-c", "!~",
                 np.str_("Zuqev"), np.str_("ok")]
#: ... and every kind of dirt the cleaner handles, over-cap tokens and
#: tokens of the wrong type.
_DIRTY_TOKENS = [
    np.str_("x" * 7), np.str_("t\tab"), np.str_(""), "x" * 7, "to\tken",
    "a b", " ", "\x00", "\x7f", "li\nne", "", "caf\u00e9", "cafe\u0301",
    "\u200bz", "\U0001f600", 7, None, b"ok",
]


class TestAsciiFastPath:
    """ASCII tokens take a ``str.translate`` shortcut, and a request of
    already clean ASCII tokens skips cleaning; results must agree."""

    @pytest.mark.parametrize("nfc", [True, False])
    def test_request_level_path_matches_general_path(self, nfc):
        config = SanitizerConfig(max_token_chars=6, normalize_nfc=nfc)
        fast = RequestSanitizer(config)
        general = _GeneralPathSanitizer(config)
        rng = np.random.default_rng(27)
        requests = []
        for pool in (_CLEAN_TOKENS, _CLEAN_TOKENS + _DIRTY_TOKENS):
            requests += [[pool[i] for i in rng.integers(0, len(pool),
                                                        rng.integers(1, 6))]
                         for _ in range(200)]
        requests += [[t] for t in _CLEAN_TOKENS + _DIRTY_TOKENS]
        requests += [["Kavox", np.str_("ok"), "x" * 6], ["a"] * 512]
        skipped = 0
        for tokens in requests:
            want = _outcome(general, tokens)
            got = _outcome(fast, tokens)
            assert got == want, tokens
            if isinstance(got, SanitizedRequest):
                assert all(type(t) is str for t in got.tokens)
            skipped += fast._already_clean(tokens)
        assert skipped >= 200
        assert fast._already_clean(["Kavox", np.str_("ok"), "x" * 6])

    @pytest.mark.parametrize("nfc", [True, False])
    def test_every_ascii_code_point_matches_general_path(self, nfc):
        sanitizer = RequestSanitizer(SanitizerConfig(normalize_nfc=nfc))
        for c in map(chr, range(128)):
            for token in (c, f"ab{c}cd", f"{c}{c}x{c}"):
                assert token.isascii()
                assert (sanitizer.clean_token(token)
                        == sanitizer._clean_general(token)), repr(token)

    @pytest.mark.parametrize("nfc", [True, False])
    def test_sanitized_request_counts_unchanged(self, nfc):
        config = SanitizerConfig(max_token_chars=6, normalize_nfc=nfc)
        fast = RequestSanitizer(config)
        general = _GeneralPathSanitizer(config)
        requests = [
            [f"w{chr(c)}rd" for c in range(128)],
            ["plain", "to\tken", "x" * 9, "a b", "cafe\u0301", "\u200bz"],
            ["ok", "\x7f", "fine"],
        ]
        for tokens in requests:
            try:
                want = general.sanitize(tokens)
            except InvalidRequest as exc:
                with pytest.raises(InvalidRequest) as got:
                    fast.sanitize(tokens)
                assert (got.value.index, got.value.reason) == (
                    exc.index, exc.reason)
                continue
            assert fast.sanitize(tokens) == want
