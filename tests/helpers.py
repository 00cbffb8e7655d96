"""Builders and reference implementations shared across test modules.

The references here are what the tests check the library against; the
commands never call them.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from polarpipe import _kernels as kernels
from polarpipe.calibration import ThresholdVector, _check_shapes, _f1_per_candidate
from polarpipe.corpus import DataError, Dataset, Instance, LabelSchema
from polarpipe.linear_model import (
    FeatureMatrix,
    FeaturizerConfig,
    LinearModel,
    featurize_all,
    restrict,
)
from polarpipe.metrics import score
from polarpipe.probs import ProbabilityMatrix
from polarpipe.weighting import PosWeights


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The trainer's logistic function before it shared ``exp(-|z|)`` with the loss."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _loss_and_grad_csr(
    fm: FeatureMatrix,
    y: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    pw: np.ndarray,
    smoothing: float,
    weight_decay: float,
    sample_weights: np.ndarray | None,
):
    """Full objective and exact gradient on a featurized batch.

    Elementwise loss is pw*y'*softplus(-z) + (1-y')*softplus(z) with smoothed
    target y' = y(1-eps) + eps/2, averaged over batch x labels; the decay
    penalty weight_decay * ||W||^2 / 2 is added on top (bias excluded). The
    trainer once called this per micro-batch; it now computes a whole update
    in one pass, and must match this bit for bit.
    """
    n, n_labels = y.shape
    z = kernels.csr_logits(fm.indptr, fm.indices, fm.data, weights, bias)
    y_s = y * (1.0 - smoothing) + smoothing / 2.0
    elem = pw * y_s * _softplus(-z) + (1.0 - y_s) * _softplus(z)
    s = _sigmoid(z)
    dz = s * (1.0 - y_s + pw * y_s) - pw * y_s
    if sample_weights is not None:
        elem = elem * sample_weights[:, None]
        dz = dz * sample_weights[:, None]
    scale = 1.0 / (n * n_labels)
    loss = float(np.sum(elem) * scale)
    dz = dz * scale
    grad_w = np.zeros_like(weights)
    kernels.csr_grad_weights(fm.indptr, fm.indices, fm.data, dz, grad_w)
    grad_b = dz.sum(axis=0)
    if weight_decay:
        loss += weight_decay * 0.5 * float(np.sum(weights * weights))
        grad_w += weight_decay * weights
    return loss, grad_w, grad_b


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


# ---------------------------------------------------------------------------
# Featurizing and training one batch


class FeatureRow(NamedTuple):
    """One featurized text: strictly increasing ids and their values."""

    indices: np.ndarray
    values: np.ndarray


def featurize(text: str, cfg: FeaturizerConfig | None = None) -> FeatureRow:
    """Row 0 of ``featurize_all([text], cfg)``."""
    fm = featurize_all([text], cfg)
    return FeatureRow(indices=fm.indices, values=fm.data)


def zero_model(fcfg: FeaturizerConfig, schema: LabelSchema) -> LinearModel:
    """A model that holds no feature rows and a zero bias."""
    return LinearModel(
        feature_ids=np.empty(0, dtype=np.int64),
        weights=np.empty((0, schema.n_labels), dtype=np.float64),
        bias=np.zeros(schema.n_labels, dtype=np.float64),
        featurizer=fcfg,
        schema=schema,
    )


def loss_and_grad(
    model: LinearModel,
    batch: Sequence[Instance],
    pw: PosWeights | None = None,
    smoothing: float = 0.0,
    weight_decay: float = 0.0,
    sample_weights: Sequence[float] | None = None,
):
    """Weighted smoothed BCE over a batch, with its exact gradient.

    Returns ``(loss, grad_weights, grad_bias)``; ``grad_weights`` has one row
    per ``model.feature_ids``. The positive weights default to all ones;
    ``sample_weights`` multiplies whole examples (the binary class-weight path).
    """
    if not batch:
        raise DataError("loss_and_grad needs a non-empty batch")
    fm = featurize_all([inst.text for inst in batch], model.featurizer)
    fm = restrict(fm, model.feature_ids)
    y = np.array([inst.labels for inst in batch], dtype=np.float64)
    if y.shape[1] != model.schema.n_labels:
        raise DataError("batch labels do not match model schema")
    pw_arr = (
        np.ones(model.schema.n_labels, dtype=np.float64)
        if pw is None
        else np.asarray(pw.weights, dtype=np.float64)
    )
    if pw_arr.shape != (model.schema.n_labels,):
        raise DataError(f"expected {model.schema.n_labels} positive weights")
    sw = None if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)
    if sw is not None and sw.shape != (len(batch),):
        raise DataError("sample_weights length must match the batch")
    return _loss_and_grad_csr(
        fm, y, model.weights, model.bias, pw_arr, smoothing, weight_decay, sw
    )


# ---------------------------------------------------------------------------
# Thresholds


ORACLE_MAX_INSTANCES = 200
ORACLE_MAX_LABELS = 4


def apply_thresholds(pm: ProbabilityMatrix, tv: ThresholdVector) -> np.ndarray:
    """0/1 prediction matrix: entry is 1 iff probability >= its label's theta."""
    if tuple(tv.label_names) != tuple(pm.label_names):
        raise DataError(
            f"label mismatch: thresholds {tv.label_names} vs probabilities {pm.label_names}"
        )
    return (pm.values >= tv.theta[None, :]).astype(np.int64)


def oracle_best_thresholds(
    pm: ProbabilityMatrix, gold: np.ndarray
) -> tuple[ThresholdVector, float]:
    """Globally optimal per-label thresholds by exhaustive candidate search.

    Candidates per label are 0, 1, and the midpoints between consecutive
    distinct probability values; these realize every achievable prediction
    pattern. Macro-F1 splits into independent per-label terms, so the scan
    is per label. Guarded to small inputs.
    """
    gold = _check_shapes(pm, gold)
    if pm.n_instances > ORACLE_MAX_INSTANCES or pm.n_labels > ORACLE_MAX_LABELS:
        raise DataError(
            f"oracle guard: at most {ORACLE_MAX_INSTANCES} instances and "
            f"{ORACLE_MAX_LABELS} labels, got {pm.n_instances} x {pm.n_labels}"
        )
    theta = np.empty(pm.n_labels, dtype=np.float64)
    best_scores = []
    for l in range(pm.n_labels):
        distinct = np.unique(pm.values[:, l])
        mids = (distinct[:-1] + distinct[1:]) / 2.0
        candidates = np.concatenate(([0.0], mids, [1.0]))
        f1 = _f1_per_candidate(pm.values[:, l], gold[:, l], candidates)
        k = int(np.argmax(f1))
        theta[l] = candidates[k]
        best_scores.append(float(f1[k]))
    tv = ThresholdVector(
        label_names=tuple(pm.label_names),
        theta=theta,
        base_theta=None,
        provenance="oracle",
    )
    return tv, sum(best_scores) / len(best_scores)
