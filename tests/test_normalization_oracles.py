"""Differential tests: search-then-lookup normalization against the loop it replaced.

The oracles below are the earlier ``preprocess``, ``_demojize``,
``_preprocess_pass``, ``_is_url_token`` and ``_is_emoji_char``, kept verbatim
apart from names and the table, which the oracle loads from the config on
every call as it used to. The old ``_demojize`` tried every table key at
every character, and the old ``preprocess`` always ran a confirming second
pass. The library now jumps between lead characters with a regex and skips
the second pass when it cannot change anything; outputs must be identical.
"""

import pytest
from hypothesis import given, strategies as st

from polarpipe.corpus import (
    _EMOJI_RANGES,
    PreprocessConfig,
    _emoji_table_for,
    load_emoji_table,
    preprocess,
)


# ---------------------------------------------------------------------------
# Oracles

_URL_PREFIXES = ("http://", "https://", "www.")


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


def oracle_preprocess_pass(text: str, cfg: PreprocessConfig, table, max_seq) -> str:
    if cfg.demojize:
        text = oracle_demojize(text, table, max_seq)
    if cfg.strip_urls or cfg.strip_mentions:
        kept = []
        for token in text.split():
            if cfg.strip_urls and oracle_is_url_token(token):
                continue
            if cfg.strip_mentions and token.startswith("@"):
                continue
            kept.append(token)
        text = " ".join(kept)
    if cfg.strip_hashtag_symbol:
        text = text.replace("#", "")
    if cfg.lowercase:
        text = text.lower()
    return " ".join(text.split())


def oracle_preprocess(raw: str, cfg: PreprocessConfig) -> str:
    table = load_emoji_table(cfg.emoji_table_path) if cfg.demojize else {}
    max_seq = max((len(k) for k in table), default=1)
    text = oracle_preprocess_pass(raw, cfg, table, max_seq)
    while True:
        again = oracle_preprocess_pass(text, cfg, table, max_seq)
        if again == text:
            return text
        text = again


# ---------------------------------------------------------------------------
# Inputs

# Custom tables. "keycaps" has keys that open with a plain character ("1" and
# "#" before VS16 + U+20E3); "marked" has names holding "#", "@" and URL
# prefixes; "loose" breaks both table facts the pass skip relies on, with a
# key of plain letters and a name holding an emoji-range codepoint.
_CUSTOM_TABLES = {
    "keycaps": (
        "U+0031 U+FE0F U+20E3\tkeycap one\n"
        "U+0023 U+FE0F U+20E3\tkeycap_hash\n"
        "U+1F600\tgrinning face\n"
        "U+2764 U+FE0F\tred heart\n"
    ),
    "marked": (
        "U+1F60A\t#@happy\n"
        "U+1F525\t@fire\n"
        "U+2764\t#http://x.co heart\n"
        "U+1F600\tgrin #www.smile\n"
    ),
    "loose": (
        "U+0061 U+0062\tletters\n"
        "U+1F600\tgrin \U0001F642\n"
        "U+2764 U+FE0F\tred heart\n"
    ),
}

_BUNDLED_KEYS = sorted(load_emoji_table(None))

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

_TOGGLES = st.fixed_dictionaries(
    {
        name: st.booleans()
        for name in ("strip_urls", "strip_mentions", "strip_hashtag_symbol", "lowercase")
    }
)


@pytest.fixture(scope="module")
def table_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    paths = {None: None}
    for name, body in _CUSTOM_TABLES.items():
        path = root / f"{name}.tsv"
        path.write_text(body, encoding="utf-8")
        paths[name] = str(path)
    return paths


# ---------------------------------------------------------------------------
# Tests


@given(_TEXTS)
def test_matches_oracle_with_bundled_table(text):
    assert preprocess(text) == oracle_preprocess(text, PreprocessConfig())


@given(_TEXTS, st.sampled_from(sorted(_CUSTOM_TABLES)), _TOGGLES)
def test_matches_oracle_with_custom_tables(table_paths, text, table, toggles):
    cfg = PreprocessConfig(emoji_table_path=table_paths[table], **toggles)
    assert preprocess(text, cfg) == oracle_preprocess(text, cfg)


@given(_TEXTS, _TOGGLES, st.booleans())
def test_matches_oracle_under_config_toggles(text, toggles, demojize):
    cfg = PreprocessConfig(demojize=demojize, **toggles)
    assert preprocess(text, cfg) == oracle_preprocess(text, cfg)


def test_table_facts(table_paths):
    bundled = _emoji_table_for(PreprocessConfig())
    assert bundled.confined and bundled.max_seq == 4
    # the bundled table's keys all start inside the emoji ranges, so its lead
    # class is the ranges alone
    assert all(oracle_is_emoji_char(key[0]) for key in bundled.names)
    facts = {
        name: _emoji_table_for(PreprocessConfig(emoji_table_path=table_paths[name]))
        for name in _CUSTOM_TABLES
    }
    assert facts["keycaps"].confined and facts["marked"].confined
    assert not facts["loose"].confined
    assert facts["keycaps"].lead.match("1") and facts["keycaps"].lead.match("#")
    assert not bundled.lead.match("1") and not bundled.lead.match("#")


def test_lowercasing_exposes_nothing_a_pass_removes():
    # The second pass is skipped when the first removed no "#" and the table
    # is confined. That is sound only if lowercasing a character never yields
    # an emoji-range codepoint, a "#", a leading "@" or a changed token split,
    # and lowercasing twice changes nothing. Checked over every codepoint.
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
