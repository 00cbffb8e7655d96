"""The hot-loop kernels: token hashing, sparse products and threshold sweeps.

One numpy implementation; the modules that use a kernel call it through this
module's namespace (``kernels.hash_ngrams(...)``), so a profiler can wrap the
names here.

Both sparse products are one ``np.bincount`` over flattened (row, label)
cells. ``bincount`` starts every cell at +0.0 and adds the weights in input
order, which here is CSR entry order, so each cell is the same chain of
float64 additions as a row-by-row, entry-by-entry loop, bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

FNV_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def active_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark environments."""
    return "python"


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over a byte string."""
    h = FNV_BASIS
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


def _fnv_update(h: int, data: bytes) -> int:
    """FNV-1a from state ``h`` over ``data``, reduced mod 2**64 once at the end.

    XOR with a byte changes only the low 8 bits, and the low 64 bits of a
    product depend only on the low 64 bits of its factors, so this equals
    reducing after every byte.
    """
    for byte in data:
        h = (h ^ byte) * FNV_PRIME
    return h & _MASK64


@functools.lru_cache(maxsize=2**16)
def _token_state(token: str) -> int:
    """FNV-1a state after the token's UTF-8 bytes; repeated tokens are cache hits."""
    return _fnv_update(FNV_BASIS, token.encode("utf-8"))


def hash_ngrams(tokens: list[str], unigrams: bool, bigrams: bool, hash_dim: int) -> np.ndarray:
    """Hashed feature indices for a token sequence: unigrams, then bigrams.

    Bigrams hash the two tokens' UTF-8 bytes joined by a single space, so the
    bigram of ("a", "b") and the unigram "a b" collide by construction. A
    bigram's hash continues from its first token's state through the space.
    """
    states = [_token_state(t) for t in tokens]
    out: list[int] = []
    if unigrams:
        out.extend(h % hash_dim for h in states)
    if bigrams:
        for h, second in zip(states, tokens[1:]):
            out.append(_fnv_update((h ^ 0x20) * FNV_PRIME, second.encode("utf-8")) % hash_dim)
    return np.asarray(out, dtype=np.int64)


def _entry_rows(indptr) -> np.ndarray:
    """Row number of every CSR entry, in entry order."""
    return np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))


def csr_logits(indptr, indices, data, weights, bias):
    """Dense ``X @ W + b`` for CSR-encoded X; returns float64 (n, L)."""
    n, n_labels = indptr.shape[0] - 1, weights.shape[1]
    cells = (_entry_rows(indptr)[:, None] * n_labels + np.arange(n_labels)).ravel()
    products = (weights[indices] * data[:, None]).ravel()
    return np.bincount(cells, products, minlength=n * n_labels).reshape(n, n_labels) + bias


def csr_grad_weights(indptr, indices, data, dlogits, out):
    """Accumulate ``X^T @ G`` into ``out`` (shape (n_features, L)); returns out."""
    n_features, n_labels = out.shape
    cells = (indices[:, None] * n_labels + np.arange(n_labels)).ravel()
    products = (data[:, None] * dlogits[_entry_rows(indptr)]).ravel()
    out += np.bincount(cells, products, minlength=n_features * n_labels).reshape(out.shape)
    return out


def sweep_confusion(probs, gold, thetas):
    """tp/fp/fn counts of ``probs >= theta`` against gold, per threshold.

    Returns int64 (K, 3) with columns tp, fp, fn.
    """
    preds = probs[None, :] >= thetas[:, None]
    positive = gold.astype(bool)
    tp = (preds & positive).sum(axis=1)
    fp = (preds & ~positive).sum(axis=1)
    fn = (~preds & positive).sum(axis=1)
    return np.stack([tp, fp, fn], axis=1).astype(np.int64)
