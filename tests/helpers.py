"""Builders shared across test modules."""

from __future__ import annotations

import numpy as np

from polarpipe.corpus import Dataset, Instance, LabelSchema
from polarpipe.linear_model import FeatureMatrix, _loss_and_grad_csr
from polarpipe.metrics import score


FNV_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes, h: int = FNV_BASIS) -> int:
    """64-bit FNV-1a from state ``h`` over ``data``, reduced after every byte."""
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def mk_dataset(label_rows, names=None, texts=None) -> Dataset:
    """Dataset from a list of label tuples; texts default to distinct filler."""
    label_rows = [tuple(int(v) for v in row) for row in label_rows]
    width = len(label_rows[0]) if label_rows else 1
    if names is None:
        names = tuple(f"l{i}" for i in range(width))
    schema = LabelSchema(names=tuple(names))
    instances = []
    for i, row in enumerate(label_rows):
        text = texts[i] if texts is not None else f"tok{i} filler"
        instances.append(Instance(id=f"i{i:04d}", raw_text=text, text=text, labels=row))
    return Dataset(schema=schema, instances=tuple(instances))


def tuned_macro_f1(pm, gold, tv) -> float:
    """The macro-F1 threshold tuning maximizes: per-label F1, the positive class on binary."""
    return score(pm.values, gold, tv.theta, pm.label_names, "positive-f1").macro_f1


def random_prob_matrix_values(rng: np.random.RandomState, n: int, width: int, distinct: int):
    """Probabilities drawn from a small per-label palette of 0.01-grid values."""
    values = np.empty((n, width))
    for l in range(width):
        palette = rng.choice(np.arange(1, 100), size=distinct, replace=False) / 100.0
        values[:, l] = palette[rng.randint(0, distinct, size=n)]
    return values


def random_fd_case(rng, d=16, n_labels=3, n=4):
    """Random dense-ish CSR batch plus parameters for gradient checking."""
    indptr = [0]
    indices = []
    data = []
    for _ in range(n):
        k = rng.randint(1, 6)
        cols = np.sort(rng.choice(d, size=k, replace=False))
        indices.extend(cols.tolist())
        data.extend((rng.rand(k) + 0.1).tolist())
        indptr.append(len(indices))
    fm = FeatureMatrix(
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        data=np.array(data, dtype=np.float64),
        n_features=d,
    )
    W = rng.randn(d, n_labels) * 0.5
    b = rng.randn(n_labels) * 0.2
    y = (rng.rand(n, n_labels) < 0.5).astype(np.float64)
    pw = rng.uniform(0.5, 3.0, size=n_labels)
    sw = rng.uniform(0.5, 2.0, size=n) if rng.rand() < 0.5 else None
    smoothing = float(rng.choice([0.0, 0.1]))
    wd = float(rng.choice([0.0, 0.01]))
    return fm, y, W, b, pw, sw, smoothing, wd


def fd_max_rel_err(fm, y, W, b, pw, sw, smoothing, wd, h=1e-5):
    """Largest relative disagreement between analytic and central-difference grads."""

    def loss_at(W_, b_):
        return _loss_and_grad_csr(fm, y, W_, b_, pw, smoothing, wd, sw)[0]

    _, gw, gb = _loss_and_grad_csr(fm, y, W, b, pw, smoothing, wd, sw)
    worst = 0.0
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            fd = (loss_at(Wp, b) - loss_at(Wm, b)) / (2 * h)
            err = abs(gw[i, j] - fd) / max(1e-6, abs(gw[i, j]), abs(fd))
            worst = max(worst, err)
    for j in range(b.shape[0]):
        bp, bm = b.copy(), b.copy()
        bp[j] += h
        bm[j] -= h
        fd = (loss_at(W, bp) - loss_at(W, bm)) / (2 * h)
        err = abs(gb[j] - fd) / max(1e-6, abs(gb[j]), abs(fd))
        worst = max(worst, err)
    return worst
