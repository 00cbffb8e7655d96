"""Builders and reference implementations shared across test modules.

The references here are what the tests check the library against; the
commands never call them.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from polarpipe import _kernels as kernels
from polarpipe.calibration import ThresholdVector, _f1_per_candidate, _gold_columns, objective
from polarpipe.corpus import CorpusStats, DataError, Dataset, GoldLabels, Instance, LabelSchema
from polarpipe.linear_model import (
    FeatureMatrix,
    FeaturizerConfig,
    LinearModel,
    featurize_all,
    restrict,
)
from polarpipe.probs import ProbabilityMatrix
from polarpipe.weighting import POS_WEIGHT_CAP, ClassWeights, PosWeights


# decorated posts: emoji (multi-codepoint ones too), URLs, @mentions, # tags
# and empty texts
RAW_POSTS = [
    "",
    "   ",
    "Habari yako 😂😂 @rafiki123 https://t.co/xyz #siasa",
    "🔥🔥🔥",
    "wanasiasa 🇰🇪 ni wezi 👍🏽 kabisa",
    "zzqunseen wwxnever qqvnothere",  # no feature a synth-trained model knows
    "I can't believe this 🙄 #politics #fail",
]

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
    """The figure threshold tuning maximizes, at ``tv``'s thresholds."""
    return objective(pm, gold, tv.theta)


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
    penalty weight_decay * ||W||^2 / 2 is added on top (bias excluded). One
    optimizer update of the trainer is one batch, and its loss and gradients
    must match this bit for bit.
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


def oracle_sweep_confusion(probs, gold, thetas):
    """tp/fp/fn counts of ``probs >= theta`` against gold, per threshold.

    The numpy kernel the sort-and-bisect sweep replaced: one (K, n) boolean
    comparison. Returns int64 (K, 3) with columns tp, fp, fn.
    """
    probs = np.asarray(probs, dtype=np.float64)
    gold = np.asarray(gold)
    thetas = np.asarray(thetas, dtype=np.float64)
    preds = probs[None, :] >= thetas[:, None]
    positive = gold.astype(bool)
    tp = (preds & positive).sum(axis=1)
    fp = (preds & ~positive).sum(axis=1)
    fn = (~preds & positive).sum(axis=1)
    return np.stack([tp, fp, fn], axis=1).astype(np.int64)


ORACLE_MAX_INSTANCES = 200
ORACLE_MAX_LABELS = 4


def apply_thresholds(pm: ProbabilityMatrix, tv: ThresholdVector) -> np.ndarray:
    """0/1 prediction matrix: entry is 1 iff probability >= its label's theta."""
    if tuple(tv.label_names) != tuple(pm.label_names):
        raise DataError(
            f"label mismatch: thresholds {tv.label_names} vs probabilities {pm.label_names}"
        )
    values = np.array(pm.values, dtype=np.float64).reshape(pm.n_instances, pm.n_labels)
    return (values >= np.array(tv.theta)[None, :]).astype(np.int64)


def oracle_best_thresholds(
    pm: ProbabilityMatrix, gold: np.ndarray
) -> tuple[ThresholdVector, float]:
    """Globally optimal per-label thresholds by exhaustive candidate search.

    Candidates per label are 0, 1, and the midpoints between consecutive
    distinct probability values; these realize every achievable prediction
    pattern. Macro-F1 splits into independent per-label terms, so the scan
    is per label. Guarded to small inputs.
    """
    gold_cols = _gold_columns(pm, gold)
    if pm.n_instances > ORACLE_MAX_INSTANCES or pm.n_labels > ORACLE_MAX_LABELS:
        raise DataError(
            f"oracle guard: at most {ORACLE_MAX_INSTANCES} instances and "
            f"{ORACLE_MAX_LABELS} labels, got {pm.n_instances} x {pm.n_labels}"
        )
    values = np.array(pm.values, dtype=np.float64)
    theta = np.empty(pm.n_labels, dtype=np.float64)
    best_scores = []
    for l in range(pm.n_labels):
        distinct = np.unique(values[:, l])
        mids = (distinct[:-1] + distinct[1:]) / 2.0
        candidates = np.concatenate(([0.0], mids, [1.0]))
        f1 = _f1_per_candidate(values[:, l], gold_cols[l], candidates)
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


# ---------------------------------------------------------------------------
# Per-label counts: the corpus statistics and the loss weights as each
# counted its own positives, row by row, before all of them took
# ``corpus.count_positives``. Kept verbatim apart from their names.


def oracle_summarize(ds: Dataset | GoldLabels) -> CorpusStats:
    rows = ds.labels
    if not rows:
        raise DataError("cannot summarize an empty dataset")
    n = len(rows)
    width = ds.schema.n_labels
    positives = [0] * width
    cardinality: Counter[int] = Counter()
    for bits in rows:
        cardinality[sum(bits)] += 1
        for i, bit in enumerate(bits):
            positives[i] += bit
    ratios = []
    for pos in positives:
        if pos == 0:
            ratios.append(math.inf)
        else:
            ratios.append((n - pos) / pos)
    return CorpusStats(
        n_instances=n,
        per_label_positive=positives,
        per_label_positive_pct=[p / n for p in positives],
        imbalance_ratio_per_label=ratios,
        all_zero_rows=cardinality.get(0, 0),
        label_cardinality_histogram=dict(sorted(cardinality.items())),
        label_names=list(ds.schema.names),
    )


def oracle_class_weights(ds: Dataset) -> ClassWeights:
    if not ds.schema.is_binary:
        raise DataError("class_weights expects a binary dataset")
    n = len(ds)
    if n == 0:
        raise DataError("cannot weight an empty dataset")
    n_pos = sum(inst.labels[0] for inst in ds.instances)
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(
            f"need both classes present, got {n_neg} negative / {n_pos} positive"
        )
    return ClassWeights(
        weights=(n / (2.0 * n_neg), n / (2.0 * n_pos)),
        counts=(n_neg, n_pos),
    )


def oracle_pos_weights(ds: Dataset) -> PosWeights:
    n = len(ds)
    if n == 0:
        raise DataError("cannot weight an empty dataset")
    weights: list[float] = []
    capped: list[bool] = []
    for l in range(ds.schema.n_labels):
        n_pos = sum(inst.labels[l] for inst in ds.instances)
        n_neg = n - n_pos
        if n_pos == 0:
            weights.append(POS_WEIGHT_CAP)
            capped.append(True)
            continue
        ratio = n_neg / n_pos
        clipped = min(max(ratio, 1.0 / POS_WEIGHT_CAP), POS_WEIGHT_CAP)
        weights.append(clipped)
        capped.append(clipped != ratio)
    return PosWeights(weights=tuple(weights), capped=tuple(capped))
