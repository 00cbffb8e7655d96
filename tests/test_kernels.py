"""Correctness of the hot-loop kernels.

Token hashing is checked against published FNV-1a vectors and an independent
reference; float kernels are held to near-roundoff tolerance against dense
numpy oracles; confusion counts against a naive loop.
"""

import functools

import numpy as np
from hypothesis import given, strategies as st

import polarpipe._kernels as kernels


def reference_fnv1a64(data: bytes) -> int:
    # independent formulation: fold with reduce instead of a loop
    return functools.reduce(
        lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64, data, 0xCBF29CE484222325
    )


def test_fnv_known_vectors():
    # empty input returns the offset basis; the others are the published
    # FNV-1a 64-bit test vectors
    assert kernels.fnv1a64(b"") == 0xCBF29CE484222325
    assert kernels.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert kernels.fnv1a64(b"foobar") == 0x85944171F73967E8


@given(st.binary(max_size=64))
def test_fnv_matches_reference_on_all_backends(data):
    assert kernels.fnv1a64(data) == reference_fnv1a64(data)
    # the token-state update reduces once at the end, from the basis or from
    # a state part way through; the full 64-bit state must match
    half = len(data) // 2
    assert kernels._fnv_update(kernels.FNV_BASIS, data) == reference_fnv1a64(data)
    assert kernels._fnv_update(kernels.fnv1a64(data[:half]), data[half:]) == reference_fnv1a64(data)


def test_hash_ngrams_layout():
    dim = 2**12
    got = kernels.hash_ngrams(["aa", "bb", "cc"], True, True, dim)
    uni = [kernels.fnv1a64(t.encode()) % dim for t in ["aa", "bb", "cc"]]
    bi = [
        kernels.fnv1a64(b"aa bb") % dim,
        kernels.fnv1a64(b"bb cc") % dim,
    ]
    assert got.tolist() == uni + bi
    assert kernels.hash_ngrams([], True, True, dim).tolist() == []
    assert kernels.hash_ngrams(["x"], True, True, dim).size == 1
    only_bi = kernels.hash_ngrams(["aa", "bb"], False, True, dim)
    assert only_bi.tolist() == [kernels.fnv1a64(b"aa bb") % dim]


@given(
    st.lists(
        st.one_of(
            st.sampled_from(["", "a", "ab", "ba", "ã", "é", "naïve", "日本", "🙂", "a b"]),
            st.text(max_size=40),
        ),
        max_size=8,
    ),
    st.sampled_from([2**10, 2**14, 2**18, 2**20]),
)
def test_hash_ngrams_matches_reference(tokens, dim):
    # repeated tokens come from the small pool, so the memoized states are hit;
    # random unicode tokens run the once-per-token reduction over long and
    # multi-byte inputs against the per-byte reference
    expected = [reference_fnv1a64(t.encode()) % dim for t in tokens] + [
        reference_fnv1a64(f"{a} {b}".encode()) % dim for a, b in zip(tokens, tokens[1:])
    ]
    assert kernels.hash_ngrams(tokens, True, True, dim).tolist() == expected
    assert kernels.hash_ngrams(tokens, True, False, dim).tolist() == expected[: len(tokens)]
    assert kernels.hash_ngrams(tokens, False, True, dim).tolist() == expected[len(tokens) :]


def random_csr(rng, n, dim, max_nnz_per_row):
    indptr = [0]
    indices = []
    data = []
    for _ in range(n):
        k = rng.randint(0, max_nnz_per_row + 1)
        cols = np.sort(rng.choice(dim, size=k, replace=False))
        indices.extend(cols.tolist())
        data.extend(rng.randn(k).tolist())
        indptr.append(len(indices))
    return (
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
    )


def dense_from_csr(indptr, indices, data, n_features):
    n = len(indptr) - 1
    out = np.zeros((n, n_features))
    for i in range(n):
        for k in range(indptr[i], indptr[i + 1]):
            out[i, indices[k]] = data[k]
    return out


def test_csr_logits_matches_dense():
    rng = np.random.RandomState(1)
    dim, n_labels = 64, 3
    indptr, indices, data = random_csr(rng, 10, dim, 7)
    weights = rng.randn(dim, n_labels)
    bias = rng.randn(n_labels)
    got = kernels.csr_logits(indptr, indices, data, weights, bias)
    dense = dense_from_csr(indptr, indices, data, dim)
    np.testing.assert_allclose(got, dense @ weights + bias, rtol=1e-12, atol=1e-12)


def test_csr_grad_weights_matches_dense():
    rng = np.random.RandomState(2)
    dim, n_labels = 32, 2
    indptr, indices, data = random_csr(rng, 8, dim, 5)
    dlogits = rng.randn(8, n_labels)
    out = rng.randn(dim, n_labels)  # nonzero start: kernel must accumulate
    expected = out + dense_from_csr(indptr, indices, data, dim).T @ dlogits
    got = kernels.csr_grad_weights(indptr, indices, data, dlogits, out.copy())
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def naive_confusion(probs, gold, theta):
    tp = fp = fn = 0
    for p, g in zip(probs, gold):
        pred = p >= theta
        if pred and g:
            tp += 1
        elif pred and not g:
            fp += 1
        elif not pred and g:
            fn += 1
    return tp, fp, fn


def test_sweep_confusion_matches_naive():
    rng = np.random.RandomState(4)
    probs = rng.rand(50)
    gold = (rng.rand(50) < 0.3).astype(np.int64)
    thetas = np.array([0.0, 0.25, 0.5, 0.75, 1.0] + [0.3] * 1)
    got = kernels.sweep_confusion(probs, gold, thetas)
    for row, theta in zip(got, thetas):
        assert tuple(row) == naive_confusion(probs, gold, theta)


def test_sweep_confusion_boundary_closed():
    # the threshold itself predicts positive
    probs = np.array([0.5, 0.49999999999999994])
    gold = np.array([1, 0], dtype=np.int64)
    counts = kernels.sweep_confusion(probs, gold, np.array([0.5]))
    assert tuple(counts[0]) == (1, 0, 0)
