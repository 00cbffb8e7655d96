"""The hot-loop kernels: token hashing, sparse products and threshold sweeps.

One implementation of each; the modules that use a kernel call it through
this module's namespace (``kernels.hash_ngrams(...)``), so a profiler can wrap
the names here. The hashing and sparse-product kernels import numpy when they
run; the threshold sweep is pure Python, so scoring never loads numpy.

Both sparse products are one ``np.bincount`` over flattened (row, label)
cells. ``bincount`` starts every cell at +0.0 and adds the weights in input
order, which here is CSR entry order, so each cell is the same chain of
float64 additions as a row-by-row, entry-by-entry loop, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left

FNV_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK = 2**64 - 1
_TAIL_SPANS = 8


def active_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark environments."""
    return "python"


def _fnv_continue(states, buf, starts, lengths):
    """64-bit FNV-1a from ``states`` over the byte spans ``buf[start:start+length]``.

    Works in place on ``states`` (uint64, multiplication wraps mod 2**64) one
    byte column at a time. Spans are sorted longest first, so at column ``j``
    the spans still running are a prefix of that order. Once no more than
    ``_TAIL_SPANS`` are left, a column's few numpy calls cost more than its
    bytes, so those spans are finished one byte at a time in Python integers.
    """
    import numpy as np

    prime = np.uint64(FNV_PRIME)
    order = np.argsort(-lengths, kind="stable")
    ordered = states[order]
    starts = starts[order]
    ends = starts + lengths[order]
    # running[j]: how many spans are longer than j
    running = np.searchsorted(-lengths[order], -np.arange(int(lengths.max(initial=0))), side="left")
    for j, k in enumerate(running.tolist()):
        if k <= _TAIL_SPANS:
            for r in range(k):
                h = int(ordered[r])
                for byte in buf[starts[r] + j : ends[r]].tobytes():
                    h = ((h ^ byte) * FNV_PRIME) & _MASK
                ordered[r] = h
            break
        head = ordered[:k]
        head ^= buf[starts[:k] + j]
        head *= prime
    states[order] = ordered
    return states


def hash_ngrams(token_ids, words, doc_lengths, hash_dim: int):
    """Hashed unigram and bigram ids of a whole corpus, as ``(rows, ids)`` int64 arrays.

    ``token_ids`` lists every document's tokens in order, as indices into
    ``words``, the distinct tokens; ``doc_lengths`` counts each document's
    tokens. The pairs hold every document's unigrams, then every document's
    bigrams, and ``rows`` says whose they are. Bigrams hash the two tokens'
    UTF-8 bytes joined by a single space, so the bigram of ("a", "b") and the
    unigram "a b" collide by construction: a bigram's hash continues from its
    first word's state through the space, then over its second word's bytes.

    Each distinct word is hashed once. The words hold no whitespace (they come
    from ``str.split()``) and no multi-byte UTF-8 sequence holds the byte
    0x20, so in the space-joined buffer the 0x20 bytes are exactly the
    separators. ``hash_dim`` must lie below 2**64.
    """
    import numpy as np

    token_ids = np.asarray(token_ids, dtype=np.int64)
    doc_lengths = np.asarray(doc_lengths, dtype=np.int64)
    buf = np.frombuffer(" ".join(words).encode("utf-8"), dtype=np.uint8)
    spaces = np.flatnonzero(buf == 0x20)
    starts = np.append(0, spaces + 1)[: len(words)]
    lengths = np.append(spaces, buf.size)[: len(words)] - starts
    states = _fnv_continue(np.full(len(words), FNV_BASIS, dtype=np.uint64), buf, starts, lengths)
    dim = np.uint64(hash_dim)
    rows = np.repeat(np.arange(doc_lengths.size, dtype=np.int64), doc_lengths)
    unigram_ids = (states % dim).astype(np.int64)[token_ids]
    # every token but a document's last starts a bigram
    first = np.ones(token_ids.size, dtype=bool)
    first[np.cumsum(doc_lengths)[doc_lengths > 0] - 1] = False
    first = np.flatnonzero(first)
    left, right = token_ids[first], token_ids[first + 1]
    pair_states = _fnv_continue(
        (states[left] ^ np.uint64(0x20)) * np.uint64(FNV_PRIME), buf, starts[right], lengths[right]
    )
    bigram_ids = (pair_states % dim).astype(np.int64)
    return np.concatenate((rows, rows[first])), np.concatenate((unigram_ids, bigram_ids))


def _entry_rows(indptr):
    """Row number of every CSR entry, in entry order."""
    import numpy as np

    return np.arange(indptr.shape[0] - 1).repeat(indptr[1:] - indptr[:-1])


def csr_logits(indptr, indices, data, weights, bias):
    """Dense ``X @ W + b`` for CSR-encoded X; returns float64 (n, L)."""
    import numpy as np

    n, n_labels = indptr.shape[0] - 1, weights.shape[1]
    cells = (_entry_rows(indptr)[:, None] * n_labels + np.arange(n_labels)).ravel()
    products = weights.take(indices, axis=0)
    products *= data[:, None]
    return np.bincount(cells, products.ravel(), minlength=n * n_labels).reshape(n, n_labels) + bias


def csr_grad_weights(indptr, indices, data, dlogits, out):
    """Accumulate ``X^T @ G`` into ``out`` (shape (n_features, L)); returns out."""
    import numpy as np

    n_features, n_labels = out.shape
    cells = (indices[:, None] * n_labels + np.arange(n_labels)).ravel()
    products = dlogits.take(_entry_rows(indptr), axis=0)
    products *= data[:, None]
    out += np.bincount(cells, products.ravel(), minlength=n_features * n_labels).reshape(out.shape)
    return out


def sweep_confusion(probs, gold, thetas):
    """tp/fp/fn counts of ``probs >= theta`` against gold, per threshold.

    ``probs`` and ``gold`` are one label's column, ``gold`` true or 1 where
    the label holds. Each side of the column is sorted once; then for each
    threshold ``bisect_left`` finds how many of a side lie below it, and the
    rest are predicted positive. ``p >= theta`` is ``not p < theta`` for any
    two floats but NaN, and NaN is never ``>=`` anything, so NaN
    probabilities are left out of the sorted sides and a NaN threshold
    predicts nothing. Returns one ``(tp, fp, fn)`` tuple of ints per threshold.
    """
    pos, neg = [], []
    for p, g in zip(probs, gold):
        (pos if g else neg).append(p)
    n_pos = len(pos)
    pos = sorted(p for p in pos if p == p)
    neg = sorted(p for p in neg if p == p)
    counts = []
    for theta in thetas:
        if theta != theta:
            counts.append((0, 0, n_pos))
            continue
        tp = len(pos) - bisect_left(pos, theta)
        counts.append((tp, len(neg) - bisect_left(neg, theta), n_pos - tp))
    return counts
