"""Correctness of the hot-loop kernels.

Token hashing is checked against published FNV-1a vectors and an independent
reference; float kernels are held to near-roundoff tolerance against dense
numpy oracles, and byte for byte against an in-order loop and against the
scipy CSR products they replaced; confusion counts against a naive loop
and against the numpy sweep the sort-and-bisect one replaced.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import polarpipe._kernels as kernels

from helpers import oracle_sweep_confusion


def reference_fnv1a64(data: bytes) -> int:
    # independent formulation: fold with reduce instead of a loop
    return functools.reduce(
        lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64, data, 0xCBF29CE484222325
    )


def kernel_fnv(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    """The kernel's FNV-1a state after ``data``, starting from state ``h``."""
    states = kernels._fnv_continue(
        np.array([h], dtype=np.uint64), np.frombuffer(data, dtype=np.uint8),
        np.array([0]), np.array([len(data)]),
    )
    return int(states[0])


def doc_ngrams(tokens: list[str], dim: int) -> np.ndarray:
    """The kernel's hashed ids of one document, in the kernel's order."""
    words = list(dict.fromkeys(tokens))
    token_ids = np.array([words.index(t) for t in tokens], dtype=np.int64)
    rows, ids = kernels.hash_ngrams(token_ids, words, [len(tokens)], dim)
    assert rows.tolist() == [0] * ids.size
    return ids


def test_fnv_known_vectors():
    # empty input returns the offset basis; the others are the published
    # FNV-1a 64-bit test vectors
    assert kernel_fnv(b"") == 0xCBF29CE484222325
    assert kernel_fnv(b"a") == 0xAF63DC4C8601EC8C
    assert kernel_fnv(b"foobar") == 0x85944171F73967E8


@given(st.binary(max_size=64))
def test_fnv_matches_reference_on_all_backends(data):
    assert kernel_fnv(data) == reference_fnv1a64(data)
    # the kernel continues from the basis or from a state part way through;
    # the full 64-bit state must match
    half = len(data) // 2
    assert kernel_fnv(data, kernels.FNV_BASIS) == reference_fnv1a64(data)
    assert kernel_fnv(data[half:], reference_fnv1a64(data[:half])) == reference_fnv1a64(data)


@given(
    st.lists(st.tuples(st.binary(max_size=40), st.integers(0, 2**64 - 1)), max_size=3 * kernels._TAIL_SPANS)
)
def test_fnv_many_spans_match_reference(spans):
    # spans run as numpy columns while more than _TAIL_SPANS are left, then
    # the rest finish in Python integers; every span's state must match
    buf = b"".join(data for data, _ in spans)
    lengths = np.array([len(data) for data, _ in spans], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    states = np.array([h for _, h in spans], dtype=np.uint64)
    got = kernels._fnv_continue(states, np.frombuffer(buf, dtype=np.uint8), starts, lengths)
    want = [functools.reduce(lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64, data, h) for data, h in spans]
    assert got.tolist() == want


def test_hash_ngrams_layout():
    dim = 2**12
    got = doc_ngrams(["aa", "bb", "cc"], dim)
    uni = [reference_fnv1a64(t.encode()) % dim for t in ["aa", "bb", "cc"]]
    bi = [
        reference_fnv1a64(b"aa bb") % dim,
        reference_fnv1a64(b"bb cc") % dim,
    ]
    assert got.tolist() == uni + bi
    assert doc_ngrams([], dim).tolist() == []
    assert doc_ngrams(["x"], dim).size == 1


# the kernel's words never hold a space: they come from str.split()
no_space_text = st.text(max_size=40).filter(lambda t: " " not in t)


@given(
    st.lists(
        st.one_of(
            st.sampled_from(["", "a", "ab", "ba", "ã", "é", "naïve", "日本", "🙂", "a\xa0b"]),
            no_space_text,
        ),
        max_size=8,
    ),
    st.sampled_from([2**10, 2**14, 2**18, 2**20]),
)
def test_hash_ngrams_matches_reference(tokens, dim):
    # repeated tokens come from the small pool, so a word is hashed once for
    # several tokens; random unicode tokens run long and multi-byte inputs
    # against the per-byte reference
    expected = [reference_fnv1a64(t.encode()) % dim for t in tokens] + [
        reference_fnv1a64(f"{a} {b}".encode()) % dim for a, b in zip(tokens, tokens[1:])
    ]
    assert doc_ngrams(tokens, dim).tolist() == expected


@given(
    st.lists(st.lists(st.sampled_from(["a", "bb", "ccc", "é", "x" * 130]), max_size=5), max_size=6),
)
def test_hash_ngrams_corpus_pairs(docs):
    # one call over the corpus: every document's unigrams, then every
    # document's bigrams, each tagged with its document's row
    words = sorted({t for doc in docs for t in doc})
    token_ids = np.array([words.index(t) for doc in docs for t in doc], dtype=np.int64)
    rows, ids = kernels.hash_ngrams(token_ids, words, [len(d) for d in docs], 2**62)
    assert rows.dtype == ids.dtype == np.int64
    expected = [(i, reference_fnv1a64(t.encode()) % 2**62) for i, d in enumerate(docs) for t in d] + [
        (i, reference_fnv1a64(f"{a} {b}".encode()) % 2**62)
        for i, d in enumerate(docs)
        for a, b in zip(d, d[1:])
    ]
    assert list(zip(rows.tolist(), ids.tolist())) == expected


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


def loop_logits(indptr, indices, data, weights, bias):
    # row by row, entry by entry from +0.0: the accumulation order of scipy's
    # csr_matvecs, which the kernels must reproduce bit for bit
    z = np.zeros((len(indptr) - 1, weights.shape[1]))
    for i in range(len(indptr) - 1):
        for k in range(indptr[i], indptr[i + 1]):
            z[i] += data[k] * weights[indices[k]]
    return z + bias


def loop_grad_weights(indptr, indices, data, dlogits, out):
    acc = np.zeros_like(out)
    for i in range(len(indptr) - 1):
        for k in range(indptr[i], indptr[i + 1]):
            acc[indices[k]] += data[k] * dlogits[i]
    out += acc
    return out


def scipy_logits(indptr, indices, data, weights, bias):
    # the scipy kernels as they were before the bincount rewrite
    sparse = pytest.importorskip("scipy.sparse")
    n = indptr.shape[0] - 1
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, weights.shape[0]))
    return np.asarray(matrix @ weights) + bias


def scipy_grad_weights(indptr, indices, data, dlogits, out):
    sparse = pytest.importorskip("scipy.sparse")
    n = indptr.shape[0] - 1
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, out.shape[0]))
    out += np.asarray(matrix.T @ dlogits)
    return out


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def csr_cases(draw):
    """A CSR matrix (empty rows, nnz 0, repeated and unsorted columns allowed),
    weights, bias, per-row gradients and a starting ``out``."""
    n = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 12))
    n_labels = draw(st.integers(1, 4))
    rows = [draw(st.lists(st.integers(0, dim - 1), max_size=5)) for _ in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    nnz = indices.size

    def floats(*shape):
        size = int(np.prod(shape))
        values = draw(st.lists(_FLOATS, min_size=size, max_size=size))
        return np.array(values, dtype=np.float64).reshape(shape)

    return {
        "indptr": indptr,
        "indices": indices,
        "data": floats(nnz),
        "weights": floats(dim, n_labels),
        "bias": floats(n_labels),
        "dlogits": floats(n, n_labels),
        "out": floats(dim, n_labels),
    }


def _run_kernels(case, logits, grad):
    z = logits(case["indptr"], case["indices"], case["data"], case["weights"], case["bias"])
    g = grad(case["indptr"], case["indices"], case["data"], case["dlogits"], case["out"].copy())
    return z, g


@given(csr_cases())
def test_sparse_kernels_match_loop_bytes(case):
    z, g = _run_kernels(case, kernels.csr_logits, kernels.csr_grad_weights)
    want_z, want_g = _run_kernels(case, loop_logits, loop_grad_weights)
    assert z.shape == want_z.shape and z.dtype == np.float64
    assert z.tobytes() == want_z.tobytes()
    assert g.tobytes() == want_g.tobytes()


@given(csr_cases())
def test_sparse_kernels_match_scipy_bytes(case):
    z, g = _run_kernels(case, kernels.csr_logits, kernels.csr_grad_weights)
    want_z, want_g = _run_kernels(case, scipy_logits, scipy_grad_weights)
    assert z.tobytes() == want_z.tobytes()
    assert g.tobytes() == want_g.tobytes()


def test_sparse_kernels_match_scipy_at_scale():
    # the shapes the pipeline produces: batches, a wide hash_dim, and
    # rows that are all empty
    rng = np.random.RandomState(7)
    shapes = [(32, 1500, 6, 40), (32, 1500, 1, 40), (100, 2**18, 6, 40), (3, 1024, 2, 0)]
    for n, dim, n_labels, max_nnz in shapes:
        indptr, indices, data = random_csr(rng, n, dim, max_nnz)
        case = {
            "indptr": indptr,
            "indices": indices,
            "data": data,
            "weights": rng.randn(dim, n_labels),
            "bias": rng.randn(n_labels),
            "dlogits": rng.randn(n, n_labels),
            "out": rng.randn(dim, n_labels),
        }
        for got, want in zip(
            _run_kernels(case, kernels.csr_logits, kernels.csr_grad_weights),
            _run_kernels(case, scipy_logits, scipy_grad_weights),
        ):
            assert got.tobytes() == want.tobytes()


_SCIPY_BLOCKED = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from polarpipe import cli

steps = [
    ["synth", "--n", "200", "--rates", "0.3,0.2", "--noise", "0.1", "--labels", "a,b",
     "--out", "d.jsonl"],
    ["pipeline", "--data", "d.jsonl", "--labels", "a,b", "--outdir", "run", "--max-epochs", "3"],
    ["predict", "--model", "run/model.bin", "--data", "run/eval.jsonl", "--out", "e.probs"],
    ["eval", "--probs", "e.probs", "--gold", "run/eval.jsonl", "--labels", "a,b",
     "--thresholds", "run/thresholds.tsv", "--out", "report.tsv"],
]
for argv in steps:
    status = cli.run(argv)
    assert status == 0, (argv, status)
assert "scipy" not in sys.modules
print("ok")
"""


def test_pipeline_runs_without_scipy(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


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
    got = kernels.sweep_confusion(probs.tolist(), gold.tolist(), thetas.tolist())
    assert got == [naive_confusion(probs, gold, theta) for theta in thetas]
    assert all(type(v) is int for counts in got for v in counts)


def test_sweep_confusion_boundary_closed():
    # the threshold itself predicts positive
    counts = kernels.sweep_confusion([0.5, 0.49999999999999994], [1, 0], [0.5])
    assert counts == [(1, 0, 0)]


# values from a small palette, so ties are heavy and many values sit exactly
# at a threshold; the palette holds both zeros, the ends and NaN
_PALETTE = [0.0, -0.0, 1.0, 0.5, 0.25, 0.75, 0.1, 0.3, 1e-15, 1.0 - 1e-15, 5e-324, float("nan")]
_VALUES = st.one_of(st.sampled_from(_PALETTE), st.floats(0.0, 1.0))
_THETAS = st.one_of(st.sampled_from(_PALETTE), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(0, 40))
    probs = draw(st.lists(_VALUES, min_size=n, max_size=n))
    gold = draw(
        st.one_of(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.just([1] * n),
            st.just([0] * n),
        )
    )
    # unsorted, with duplicates
    thetas = draw(st.lists(_THETAS, max_size=12))
    return probs, gold, thetas


@given(sweep_cases())
def test_sweep_confusion_matches_numpy_oracle(case):
    probs, gold, thetas = case
    got = kernels.sweep_confusion(probs, gold, thetas)
    assert got == [tuple(row) for row in oracle_sweep_confusion(probs, gold, thetas).tolist()]
    assert all(type(v) is int for counts in got for v in counts)


@pytest.mark.parametrize(
    "probs, gold",
    [
        ([0.5, 0.5, 0.0, -0.0, 1.0, 0.5], [1, 0, 1, 0, 1, 1]),
        ([0.5] * 9, [1, 0, 1] * 3),
        ([0.2, 0.9, 0.0], [1, 1, 1]),
        ([0.2, 0.9, 0.0], [0, 0, 0]),
        ([], []),
    ],
    ids=["at-thresholds", "all-tied", "all-positive", "all-negative", "empty"],
)
def test_sweep_confusion_edge_columns(probs, gold):
    thetas = [1.0, 0.5, 0.0, -0.0, 0.5, 0.25, 1.0]
    expected = oracle_sweep_confusion(probs, gold, thetas).tolist()
    assert kernels.sweep_confusion(probs, gold, thetas) == [tuple(row) for row in expected]
