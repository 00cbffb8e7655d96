"""Differential tests: the corpus-wide featurizer against the per-document one it replaced.

The oracles below are the earlier ``hash_ngrams``, ``featurize`` and
``featurize_all``: each document on its own, every token and bigram hashed
with Python-integer FNV-1a, then ``np.unique`` and an L2 norm per row. The
hash is the per-byte-reduced reference ``helpers.fnv1a64``, so a long token
costs linear time here too. The library now hashes each distinct word of a
corpus once in numpy ``uint64`` and groups the whole corpus with one sort;
its matrices must be identical byte for byte.
"""

import time

import numpy as np
from hypothesis import given, settings, strategies as st

from polarpipe.linear_model import FeaturizerConfig, featurize_all

from helpers import FNV_PRIME, featurize, fnv1a64

# ---------------------------------------------------------------------------
# Oracles


def oracle_hash_ngrams(tokens: list[str], hash_dim: int) -> np.ndarray:
    states = [fnv1a64(t.encode("utf-8")) for t in tokens]
    out = [h % hash_dim for h in states]
    for h, second in zip(states, tokens[1:]):
        start = ((h ^ 0x20) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        out.append(fnv1a64(second.encode("utf-8"), start) % hash_dim)
    return np.asarray(out, dtype=np.int64)


def oracle_featurize(text: str, cfg: FeaturizerConfig) -> tuple[np.ndarray, np.ndarray]:
    raw = oracle_hash_ngrams(text.split(), cfg.hash_dim)
    if raw.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    indices, counts = np.unique(raw, return_counts=True)
    values = counts.astype(np.float64)
    return indices, values / np.sqrt(np.sum(values * values))


def oracle_featurize_all(texts: list[str], cfg: FeaturizerConfig):
    rows = [oracle_featurize(t, cfg) for t in texts]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([ids.size for ids, _ in rows], out=indptr[1:])
    if rows:
        indices = np.concatenate([ids for ids, _ in rows])
        data = np.concatenate([values for _, values in rows])
    else:
        indices = np.empty(0, dtype=np.int64)
        data = np.empty(0, dtype=np.float64)
    return indptr, indices.astype(np.int64), data.astype(np.float64)


def assert_same_matrix(texts, cfg):
    fm = featurize_all(texts, cfg)
    indptr, indices, data = oracle_featurize_all(texts, cfg)
    for got, want in ((fm.indptr, indptr), (fm.indices, indices), (fm.data, data)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert fm.n_features == cfg.hash_dim


# ---------------------------------------------------------------------------
# Inputs

# ASCII and non-ASCII whitespace; str.split() breaks on all of them, and
# none but the space encodes to the byte 0x20
separators = st.sampled_from([" ", "  ", "\t", "\n", "\xa0", " ", "\x1c", "　", "\r\n"])
tokens = st.one_of(
    st.sampled_from(["a", "b", "ab", "naïve", "日本", "🙂", "ß", "x" * 200, "é" * 70]),
    st.text(min_size=1, max_size=12),
    st.text(min_size=129, max_size=160),
)
joined = st.lists(st.tuples(separators, tokens), max_size=12).map(
    lambda parts: "".join(sep + tok for sep, tok in parts)
)
texts = st.one_of(st.text(), joined, tokens, st.just(""))
configs = st.builds(FeaturizerConfig, hash_dim=st.sampled_from([2**10, 2**18, 2**62]))


@settings(max_examples=300)
@given(st.lists(texts, max_size=8), configs)
def test_matches_oracle(texts, cfg):
    assert_same_matrix(texts, cfg)


@given(configs)
def test_empty_and_one_token_corpora(cfg):
    for corpus in ([], [""], ["one"], ["", "one", ""], ["a a a", "a"]):
        assert_same_matrix(corpus, cfg)


def test_long_token_is_linear():
    # 100,000 bytes in one token: the reduction per byte keeps the state at
    # 64 bits, so the cost follows the token's length
    text = "a " + "é" * 50_000 + " b"
    cfg = FeaturizerConfig()
    start = time.perf_counter()
    vector = featurize(text, cfg)
    elapsed = time.perf_counter() - start
    indices, values = oracle_featurize(text, cfg)
    assert vector.indices.tobytes() == indices.tobytes()
    assert vector.values.tobytes() == values.tobytes()
    assert elapsed < 5.0


def test_long_tokens_among_many_words_match_oracle():
    # more words than finish in Python integers: the short ones end in numpy
    # columns, the three long ones (and the bigrams into them) in Python
    words = [chr(0x61 + k % 26) * (1 + k) for k in range(40)]
    long_tokens = ["é" * 3000, "x" * 5001, "日" * 2500]
    texts = [" ".join(words[:20] + long_tokens[:2]), " ".join(long_tokens + words[20:]), "é" * 3000]
    for cfg in (FeaturizerConfig(), FeaturizerConfig(hash_dim=2**62)):
        assert_same_matrix(texts, cfg)


def test_both_groupings_at_the_packing_boundary():
    # pairs are packed into one int64 key while the row bits plus log2(hash_dim)
    # fit in 63 bits, and lexsorted beyond: 3 rows at 2^61 pack, 4 do not
    texts = ["b a b", "", "a c a b", "c"]
    for hash_dim, n_rows in ((2**61, 3), (2**61, 4), (2**62, 1), (2**62, 2), (2**10, 4)):
        assert_same_matrix(texts[:n_rows], FeaturizerConfig(hash_dim=hash_dim))
