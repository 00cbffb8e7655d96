"""Differential tests: the single-pass normalization against the fixpoint it replaced.

The oracles below are the earlier ``preprocess``, ``_demojize``,
``_preprocess_pass``, ``_is_url_token`` and ``_is_emoji_char`` with the
bundled table and the default settings, the only ones any caller used. The
old ``_demojize`` tried every table key at every character, and the old
``preprocess`` repeated its pass until the text stopped changing; the loader
then kept the first 128 tokens. The library now demojizes with one regex and
makes one pass, which is sound because of the table facts and the
lowercasing facts checked at the end of this file; outputs must be identical.
"""

from hypothesis import given, strategies as st

from polarpipe.corpus import _EMOJI_RANGES, load_emoji_table, preprocess


# ---------------------------------------------------------------------------
# Oracles

_URL_PREFIXES = ("http://", "https://", "www.")
_TABLE = load_emoji_table()
_MAX_SEQ = max(len(key) for key in _TABLE)


def oracle_is_emoji_char(ch: str) -> bool:
    cp = ord(ch)
    for lo, hi in _EMOJI_RANGES:
        if lo <= cp <= hi:
            return True
    return False


def oracle_demojize(text: str, table: dict[str, str], max_seq: int) -> str:
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        matched = False
        for k in range(min(max_seq, n - i), 0, -1):
            name = table.get(text[i : i + k])
            if name is not None:
                out.append(" " + name + " ")
                i += k
                matched = True
                break
        if matched:
            continue
        if not oracle_is_emoji_char(text[i]):
            out.append(text[i])
        i += 1  # emoji with no table entry: delete
    return "".join(out)


def oracle_is_url_token(token: str) -> bool:
    low = token.lower()
    return any(low.startswith(p) for p in _URL_PREFIXES)


def oracle_preprocess_pass(text: str) -> str:
    text = oracle_demojize(text, _TABLE, _MAX_SEQ)
    kept = []
    for token in text.split():
        if oracle_is_url_token(token):
            continue
        if token.startswith("@"):
            continue
        kept.append(token)
    text = " ".join(kept)
    text = text.replace("#", "")
    text = text.lower()
    return " ".join(text.split())


def oracle_preprocess(raw: str) -> str:
    """The old fixpoint, then the loader's cut to the first 128 tokens."""
    text = oracle_preprocess_pass(raw)
    while True:
        again = oracle_preprocess_pass(text)
        if again == text:
            return " ".join(text.split()[:128])
        text = again


# ---------------------------------------------------------------------------
# Inputs

_BUNDLED_KEYS = sorted(_TABLE)

_CHUNKS = st.sampled_from(
    [
        "😊", "🔥", "🤦‍♂️", "🇺🇸", "❤️", "❤", "😀",
        "\U0001f9ff", "\U0001f9a9", "\U0001fa77", "⭐", "‍", "️", "⃣",
        "1", "1️⃣", "#️⃣", "ab", "AB", "aB",
        "http://x.co", "HTTPS://Y.org/Z", "WwW.a.b", "http://",
        "@user", "@", "#tag", "#", "##", "#@user", "#https://x.y/z", "#www.q", "##@a",
        "Hello", "WORLD", "MiXeD", "café", "İstanbul", "ΣΑΣ", "ß", "中文", "a-b_c", "42",
        " ", "  ", "\t", "\n", "　",
    ]
)

_TEXTS = st.lists(
    st.one_of(_CHUNKS, st.sampled_from(_BUNDLED_KEYS), st.text(max_size=4)), max_size=14
).map("".join)


# ---------------------------------------------------------------------------
# Tests


@given(_TEXTS)
def test_matches_oracle_with_bundled_table(text):
    assert preprocess(text) == oracle_preprocess(text)


@given(st.text())
def test_matches_oracle_on_arbitrary_text(text):
    assert preprocess(text) == oracle_preprocess(text)


# preprocess filters tokens only when the lowercased text holds "@", "http" or
# "www."; these put the marker inside a token, where nothing is dropped, or at
# a token's start, where it is
FILTER_CASES = {
    "a@b": "a@b",
    "xhttp://y": "xhttp://y",
    "awww.b": "awww.b",
    "a@b xhttp://y awww.b https": "a@b xhttp://y awww.b https",
    "WWW": "www",
    "a @b c": "a c",
    "#@b keep": "keep",
    "HTTP://X.co keep": "keep",
    "keep https://x": "keep",
    "Www.x.org keep": "keep",
    "a@b @c": "a@b",
    "ok 😊 @x": "ok smiling face with smiling eyes",
}


def test_filter_cases_match_oracle():
    for raw, expected in FILTER_CASES.items():
        assert preprocess(raw) == oracle_preprocess(raw) == expected, raw


def test_table_facts():
    # One demojize leaves no emoji-range codepoint behind and no key can
    # start elsewhere, so a second one finds nothing.
    assert all(oracle_is_emoji_char(key[0]) for key in _TABLE)
    assert not any(any(map(oracle_is_emoji_char, name)) for name in _TABLE.values())


def test_lowercasing_exposes_nothing_a_pass_removes():
    # One pass equals the fixpoint only if lowercasing a character never
    # yields an emoji-range codepoint, a "#", a leading "@" or a changed token
    # split, and lowercasing twice changes nothing. Checked over every
    # codepoint.
    for cp in range(0x110000):
        ch = chr(cp)
        low = ch.lower()
        if low == ch:
            continue
        if not oracle_is_emoji_char(ch):
            assert not any(map(oracle_is_emoji_char, low)), hex(cp)
        assert ("#" in low) == (ch == "#"), hex(cp)
        assert low.startswith("@") == (ch == "@"), hex(cp)
        assert any(c.isspace() for c in low) == ch.isspace(), hex(cp)
        assert low.lower() == low, hex(cp)
