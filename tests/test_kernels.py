"""Backend parity and correctness of the hot-loop kernels.

Integer kernels must agree bit-for-bit between the compiled and the pure
backends; float kernels are held to near-roundoff tolerance against dense
numpy oracles.
"""

import functools
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import polarpipe._kernels as kernels
from polarpipe._kernels import _pykernels

BACKENDS = kernels.available_backends()
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def restore_backend():
    before = kernels.active_backend()
    yield
    kernels.use_backend(before)


def reference_fnv1a64(data: bytes) -> int:
    # independent formulation: fold with reduce instead of a loop
    return functools.reduce(
        lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64, data, 0xCBF29CE484222325
    )


def test_fnv_known_vectors():
    # empty input returns the offset basis; the others are the published
    # FNV-1a 64-bit test vectors
    assert _pykernels.fnv1a64(b"") == 0xCBF29CE484222325
    assert _pykernels.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert _pykernels.fnv1a64(b"foobar") == 0x85944171F73967E8


@given(st.binary(max_size=64))
def test_fnv_matches_reference_on_all_backends(data):
    expected = reference_fnv1a64(data)
    for name in BACKENDS:
        kernels.use_backend(name)
        assert kernels.fnv1a64(data) == expected


def test_hash_ngrams_layout():
    dim = 2**12
    got = kernels.hash_ngrams(["aa", "bb", "cc"], True, True, dim)
    uni = [_pykernels.fnv1a64(t.encode()) % dim for t in ["aa", "bb", "cc"]]
    bi = [
        _pykernels.fnv1a64(b"aa bb") % dim,
        _pykernels.fnv1a64(b"bb cc") % dim,
    ]
    assert got.tolist() == uni + bi
    assert kernels.hash_ngrams([], True, True, dim).tolist() == []
    assert kernels.hash_ngrams(["x"], True, True, dim).size == 1
    only_bi = kernels.hash_ngrams(["aa", "bb"], False, True, dim)
    assert only_bi.tolist() == [_pykernels.fnv1a64(b"aa bb") % dim]


@given(
    st.lists(st.text(alphabet="abcdef ghiãé", min_size=0, max_size=6), max_size=8),
    st.sampled_from([2**10, 2**14, 2**18]),
)
def test_hash_ngrams_backend_parity(tokens, dim):
    tokens = [t.replace(" ", "") for t in tokens]
    results = []
    for name in BACKENDS:
        kernels.use_backend(name)
        results.append(kernels.hash_ngrams(tokens, True, True, dim))
    for other in results[1:]:
        assert np.array_equal(results[0], other)
    if results[0].size:
        assert results[0].min() >= 0 and results[0].max() < dim


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_csr_logits_matches_dense(backend):
    kernels.use_backend(backend)
    rng = np.random.RandomState(1)
    dim, n_labels = 64, 3
    indptr, indices, data = random_csr(rng, 10, dim, 7)
    weights = rng.randn(dim, n_labels)
    bias = rng.randn(n_labels)
    got = kernels.csr_logits(indptr, indices, data, weights, bias)
    dense = dense_from_csr(indptr, indices, data, dim)
    np.testing.assert_allclose(got, dense @ weights + bias, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
def test_csr_grad_weights_matches_dense(backend):
    kernels.use_backend(backend)
    rng = np.random.RandomState(2)
    dim, n_labels = 32, 2
    indptr, indices, data = random_csr(rng, 8, dim, 5)
    dlogits = rng.randn(8, n_labels)
    out = rng.randn(dim, n_labels)  # nonzero start: kernel must accumulate
    expected = out + dense_from_csr(indptr, indices, data, dim).T @ dlogits
    got = kernels.csr_grad_weights(indptr, indices, data, dlogits, out.copy())
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_csr_float_kernels_backend_agreement():
    rng = np.random.RandomState(3)
    dim, n_labels = 128, 4
    indptr, indices, data = random_csr(rng, 20, dim, 9)
    weights = rng.randn(dim, n_labels)
    bias = rng.randn(n_labels)
    dlogits = rng.randn(20, n_labels)
    logits = {}
    grads = {}
    for name in BACKENDS:
        kernels.use_backend(name)
        logits[name] = kernels.csr_logits(indptr, indices, data, weights, bias)
        grads[name] = kernels.csr_grad_weights(
            indptr, indices, data, dlogits, np.zeros((dim, n_labels))
        )
    names = list(BACKENDS)
    for other in names[1:]:
        np.testing.assert_allclose(logits[names[0]], logits[other], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(grads[names[0]], grads[other], rtol=1e-12, atol=1e-14)


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_sweep_confusion_matches_naive(backend):
    kernels.use_backend(backend)
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
    for name in BACKENDS:
        kernels.use_backend(name)
        counts = kernels.sweep_confusion(probs, gold, np.array([0.5]))
        assert tuple(counts[0]) == (1, 0, 0)


@given(st.integers(0, 10_000))
def test_sweep_confusion_backend_parity(seed):
    rng = np.random.RandomState(seed)
    probs = np.round(rng.rand(30), 2)
    gold = (rng.rand(30) < 0.4).astype(np.int64)
    thetas = np.arange(0, 101, 7) / 100.0
    results = []
    for name in BACKENDS:
        kernels.use_backend(name)
        results.append(kernels.sweep_confusion(probs, gold, thetas))
    for other in results[1:]:
        assert np.array_equal(results[0], other)


def test_use_backend_rejects_unknown():
    with pytest.raises(ValueError, match="not available"):
        kernels.use_backend("fortran")


def c_compiler_on_path() -> bool:
    cc = sysconfig.get_config_var("CC")
    return bool(cc) and shutil.which(shlex.split(cc)[0]) is not None


COMPILED_PARITY_CASES = (
    "test_csr_logits_matches_dense[cython]",
    "test_csr_grad_weights_matches_dense[cython]",
    "test_sweep_confusion_matches_naive[cython]",
    "test_binary_views_match_oracles[cython]",
    "test_multilabel_score_matches_oracle[cython]",
)


@pytest.mark.skipif(
    "cython" not in BACKENDS and not c_compiler_on_path(),
    reason="no compiled backend loaded and no C compiler on PATH to build one",
)
def test_compiled_backend_present(tmp_path):
    # the build in this repository compiles the extension from the shipped C
    # source; the fallback is exercised above by switching explicitly
    if "cython" in BACKENDS:
        # already loaded: an installed build, or the run below
        assert BACKENDS == ("cython", "python")
        if not os.environ.get("POLARPIPE_BACKEND"):
            assert kernels.active_backend() == "cython"
        return

    # build a copy, so nothing is written under src/ (cythonize, where
    # installed, would rewrite the tracked _ckernels.c)
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(REPO / name, tmp_path / name)
    shutil.copytree(
        REPO / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.so")
    )
    lib = tmp_path / "lib"
    build = subprocess.run(
        [sys.executable, "setup.py", "build", "--build-lib", str(lib)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    log = build.stdout + build.stderr
    assert build.returncode == 0, log
    # the extension is optional: a failed compile still exits 0
    assert list((lib / "polarpipe" / "_kernels").glob("_ckernels*.so")), log

    env = {k: v for k, v in os.environ.items() if k != "POLARPIPE_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(lib), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import polarpipe._kernels as k;"
            "print(k.__file__, *k.available_backends(), k.active_backend(), sep='\\n')",
        ],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert probe.returncode == 0, probe.stderr
    origin, *backends, active = probe.stdout.splitlines()
    assert Path(origin).is_relative_to(lib)
    assert tuple(backends) == ("cython", "python")
    assert active == "cython"

    # the parity tests above and the scoring oracles, run against the build
    oracles = str(Path(__file__).with_name("test_scoring_oracles.py"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", __file__, oracles],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    passed = {
        line.rsplit("::", 1)[-1]
        for line in run.stdout.splitlines()
        if line.startswith("PASSED ")
    }
    for case in COMPILED_PARITY_CASES:
        assert case in passed, run.stdout
