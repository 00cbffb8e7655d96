"""Hashed n-gram featurizer and weighted-BCE linear classifier.

Features are unigram/bigram counts hashed with 64-bit FNV-1a into a
power-of-two space and L2-normalized. The classifier is one logistic output
per label, trained with plain SGD: label smoothing, per-label positive
weights (or per-example class weights on the binary task), global-norm
clipping, linear warmup with cosine decay, and early stopping on validation
macro-F1 at threshold 0.5. Weight decay is decoupled: the penalty never
passes through the gradient clip.

A model holds weight rows only for the features that occur in its train set,
``feature_ids`` in increasing order, so its size and the memory training
takes follow the data, not ``hash_dim``. Any other feature's weight would
stay exactly 0 under training, and a zero row adds nothing to a logit; so
every matrix is first mapped onto the model's ids with ``restrict``, which
drops the entries of features the model does not hold.
"""

from __future__ import annotations

import json
import math
import operator
from collections import defaultdict
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _kernels as kernels
from ._rng import LegacyRandom
from .corpus import DataError, Dataset, LabelSchema, is_json_int, read_field
from .probs import ProbabilityMatrix

_MODEL_FORMAT = "polarpipe-model"
_MODEL_VERSION = 3
_PROB_FLOOR = 1e-15  # keeps predict_proba inside the open interval (0, 1)
_SCALE_FLOOR = 1e-9  # the weight scale is folded into the weights below this
_MAX_HASH_DIM = 2**62
SCORE_BLOCK_ROWS = 256  # rows predict_proba featurizes and scores at a time


@dataclass(frozen=True)
class FeaturizerConfig:
    hash_dim: int = 2**18

    def __post_init__(self):
        # the value may come from a model header, so its type is checked too;
        # hash ids are reduced in uint64 and stored as int64, hence the upper bound
        if not is_json_int(self.hash_dim):
            raise DataError(f"hash_dim must be an integer, got {self.hash_dim!r}")
        if not 2**10 <= self.hash_dim <= _MAX_HASH_DIM or self.hash_dim & (self.hash_dim - 1):
            raise DataError(f"hash_dim must be a power of two in [2**10, 2**62], got {self.hash_dim}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Row-compressed stack of sparse vectors (int64 indptr/indices, float64 data)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_features: int

    @property
    def n_rows(self) -> int:
        return self.indptr.shape[0] - 1

    def take(self, rows: np.ndarray) -> "FeatureMatrix":
        """Sub-matrix with the given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # source position of each output entry: its row's start plus its offset
        positions = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return FeatureMatrix(
            indptr=indptr,
            indices=self.indices[positions],
            data=self.data[positions],
            n_features=self.n_features,
        )


def restrict(fm: FeatureMatrix, feature_ids: np.ndarray) -> FeatureMatrix:
    """``fm`` in the column ids of ``feature_ids`` (strictly increasing).

    An entry whose feature is not in ``feature_ids`` is dropped. Against a
    weight matrix whose other rows are zero that changes no bit of a product:
    each ``csr_logits`` cell starts at +0.0, a sum that starts at +0.0 never
    becomes -0.0, and adding ``data * (+-0.0)`` to it changes nothing.
    """
    local = np.searchsorted(feature_ids, fm.indices)
    # -1 matches no id, so past-the-end positions are dropped too
    keep = np.append(feature_ids, -1)[local] == fm.indices
    kept_before = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return FeatureMatrix(
        indptr=kept_before[fm.indptr],
        indices=local[keep],
        data=fm.data[keep],
        n_features=feature_ids.size,
    )


def featurize_all(texts: Sequence[str], cfg: FeaturizerConfig | None = None) -> FeatureMatrix:
    """Featurize a batch of texts into one row-compressed matrix.

    Each row holds its text's distinct hashed unigram and bigram ids in
    increasing order, valued by count divided by the row's L2 norm. The whole
    batch is hashed in one kernel call and grouped by one sort.
    """
    if cfg is None:
        cfg = FeaturizerConfig()
    # each distinct word's id is its place in first-seen order: a missing
    # word is entered with the vocabulary's size at that moment
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__
    doc_lengths: list[int] = []

    def split_docs():
        for text in texts:
            tokens = text.split()
            doc_lengths.append(len(tokens))
            yield tokens

    ids = np.fromiter(map(vocab.__getitem__, chain.from_iterable(split_docs())), dtype=np.int64)
    # the factory is the vocabulary's own bound method: unset, the cycle
    # would keep the vocabulary alive until the next cyclic collection
    vocab.default_factory = None
    n_rows = len(doc_lengths)
    rows, hashed = kernels.hash_ngrams(ids, list(vocab), doc_lengths, cfg.hash_dim)
    # each run of equal (row, id) pairs, once sorted, is one entry; its
    # length is the count
    n_pairs = rows.size
    new_entry = np.ones(n_pairs, dtype=bool)
    shift = cfg.hash_dim.bit_length() - 1
    if n_rows.bit_length() + shift <= 63:
        # one int64 key per pair, row in the high bits and id in the low
        # ones, packed and sorted in place
        keys = rows
        keys <<= shift
        keys |= hashed
        del rows, hashed
        keys.sort()
        np.not_equal(keys[1:], keys[:-1], out=new_entry[1:])
        starts = np.flatnonzero(new_entry)
        indices = keys[starts]
        del keys
        row_counts = np.bincount(indices >> shift, minlength=n_rows)
        indices &= cfg.hash_dim - 1
    else:
        order = np.lexsort((hashed, rows))
        rows, hashed = rows[order], hashed[order]
        del order
        new_entry[1:] = (rows[1:] != rows[:-1]) | (hashed[1:] != hashed[:-1])
        starts = np.flatnonzero(new_entry)
        row_counts = np.bincount(rows[starts], minlength=n_rows)
        indices = hashed[starts]
        del rows, hashed
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    data = np.diff(np.append(starts, n_pairs)).astype(np.float64)
    # squared counts are integers, so every summation order gives the same sum
    row_sizes = np.diff(indptr)
    norms = np.sqrt(np.add.reduceat(data * data, indptr[:-1][row_sizes > 0]))
    data = data / np.repeat(norms, row_sizes[row_sizes > 0])
    return FeatureMatrix(indptr=indptr, indices=indices, data=data, n_features=cfg.hash_dim)


@dataclass(frozen=True)
class LinearModel:
    feature_ids: np.ndarray  # (k,) int64, strictly increasing, each < hash_dim
    weights: np.ndarray  # (k, n_labels) float64: the row of each feature id
    bias: np.ndarray  # (n_labels,) float64
    featurizer: FeaturizerConfig
    schema: LabelSchema

    def __post_init__(self):
        ids = self.feature_ids
        if ids.dtype != np.int64 or ids.ndim != 1:
            raise DataError(f"feature ids must be a 1-d int64 array, got {ids.dtype} {ids.shape}")
        # the range first: np.diff of ids inside it cannot overflow
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self.featurizer.hash_dim):
            raise DataError(f"feature ids must lie in [0, {self.featurizer.hash_dim})")
        if np.any(np.diff(ids) <= 0):
            raise DataError("feature ids must be strictly increasing")
        expected = (ids.size, self.schema.n_labels)
        if self.weights.shape != expected:
            raise DataError(f"weights shape {self.weights.shape}, expected {expected}")
        if self.bias.shape != (self.schema.n_labels,):
            raise DataError(f"bias shape {self.bias.shape}, expected ({self.schema.n_labels},)")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise DataError("model parameters must be finite")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-2
    weight_decay: float = 0.01
    max_epochs: int = 10
    batch_size: int = 64  # rows per optimizer update
    warmup_ratio: float = 0.1
    max_grad_norm: float = 1.0
    label_smoothing: float | None = None  # None resolves to 0.1 binary / 0.0 multi-label
    patience: int = 3
    seed: int = 42
    weighting: str = "balanced"  # "balanced" class or positive weights, or "none"

    def __post_init__(self):
        if self.weighting not in ("balanced", "none"):
            raise DataError(f"weighting must be 'balanced' or 'none', got {self.weighting!r}")
        if self.label_smoothing is not None and not 0.0 <= self.label_smoothing < 1.0:
            raise DataError("label_smoothing must lie in [0, 1)")
        if self.patience < 1:
            raise DataError("patience must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DataError("learning_rate must be finite and positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise DataError("weight_decay must be finite and >= 0")
        if not self.max_grad_norm > 0:  # inf means never clip; NaN fails
            raise DataError("max_grad_norm must be positive")
        if self.max_epochs < 0:
            raise DataError("max_epochs must be >= 0")
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise DataError("warmup_ratio must lie in [0, 1]")

    def resolve_smoothing(self, schema: LabelSchema) -> float:
        if self.label_smoothing is not None:
            return self.label_smoothing
        return 0.1 if schema.is_binary else 0.0


@dataclass(frozen=True)
class TrainReport:
    epoch_train_loss: tuple[float, ...]
    epoch_val_macro_f1: tuple[float, ...]
    best_epoch: int  # 1-based; 0 when no epoch ran
    stopped_early: bool
    weighting_mode: str


def lr_at_step(step: int, total_steps: int, warmup_steps: int, learning_rate: float) -> float:
    """Learning rate at 1-based optimizer step: linear warmup, then cosine decay."""
    if step <= warmup_steps:
        return learning_rate * step / warmup_steps
    if total_steps == warmup_steps:
        return learning_rate
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return learning_rate * 0.5 * (1.0 + math.cos(math.pi * progress))


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of ``z``; ``e`` is ``exp(-|z|)`` when the caller has it.

    Both branches divide by ``1 + e`` with ``e <= 1``, so neither overflows.
    """
    if e is None:
        e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _loss_terms(z: np.ndarray, y_s: np.ndarray, pw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise loss ``pw*y_s*softplus(-z) + (1-y_s)*softplus(z)`` and its ``z`` gradient.

    ``softplus(+-z) = max(+-z, 0) + log1p(e)`` and the sigmoid share one
    ``e = exp(-|z|)``.
    """
    e = np.exp(-np.abs(z))
    log1p_e = np.log1p(e)
    pos = pw * y_s
    neg = 1.0 - y_s
    elem = pos * (np.maximum(-z, 0.0) + log1p_e) + neg * (np.maximum(z, 0.0) + log1p_e)
    dz = _sigmoid(z, e) * (neg + pos) - pos
    return elem, dz


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values`` in increasing order: the first of
    each run of equal values once sorted."""
    ordered = np.sort(values)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def train(
    train_ds: Dataset,
    val_ds: Dataset,
    tcfg: TrainConfig | None = None,
    fcfg: FeaturizerConfig | None = None,
) -> tuple[LinearModel, TrainReport]:
    """SGD training with early stopping on validation macro-F1 at 0.5.

    The returned model carries the best epoch's parameters. ``tcfg.weighting``
    ``balanced`` uses per-example class weights on the binary task and
    per-label positive weights otherwise; ``none`` trains unweighted.
    """
    from . import metrics
    from .weighting import class_weights, pos_weights

    if tcfg is None:
        tcfg = TrainConfig()
    if fcfg is None:
        fcfg = FeaturizerConfig()
    if len(train_ds) == 0:
        raise DataError("training set is empty")
    if len(val_ds) == 0:
        raise DataError("validation set is empty")
    if train_ds.schema.names != val_ds.schema.names:
        raise DataError("train and validation schemas differ")

    schema = train_ds.schema
    n = len(train_ds)
    n_labels = schema.n_labels
    smoothing = tcfg.resolve_smoothing(schema)

    fm = featurize_all([inst.text for inst in train_ds.instances], fcfg)
    # train on local column ids: one weight row per distinct train feature.
    # Every id is kept, so searchsorted alone maps them: restrict's mask and
    # copies would add about 25 bytes per entry to the fit's peak memory
    feature_ids = _distinct(fm.indices)
    fm = FeatureMatrix(fm.indptr, np.searchsorted(feature_ids, fm.indices), fm.data, feature_ids.size)
    y = np.array([inst.labels for inst in train_ds.instances], dtype=np.float64)
    fm_val = featurize_all([inst.text for inst in val_ds.instances], fcfg)
    fm_val = restrict(fm_val, feature_ids)
    y_val = val_ds.labels

    pw_arr = np.ones(n_labels, dtype=np.float64)
    sample_w = None
    if tcfg.weighting == "balanced":
        if schema.is_binary:
            sample_w = class_weights(train_ds).per_example(y[:, 0])
        else:
            pw_arr = np.asarray(pos_weights(train_ds).weights, dtype=np.float64)

    # W = scale * V: decay multiplies the scalar, and each update writes only
    # the rows its features touch (Bottou, "Stochastic Gradient Descent
    # Tricks", 2012). The scale is folded back into V at every epoch end.
    V = np.zeros((feature_ids.size, n_labels), dtype=np.float64)
    scale = 1.0
    b = np.zeros(n_labels, dtype=np.float64)

    batch = tcfg.batch_size
    total_updates = tcfg.max_epochs * -(-n // batch)
    warmup = int(round(tcfg.warmup_ratio * total_updates))

    rng = LegacyRandom(tcfg.seed)
    losses: list[float] = []
    val_scores: list[float] = []
    best_epoch = 0
    best_score = -1.0
    best_W = V.copy()
    best_b = b.copy()
    stopped_early = False
    step = 0

    # position of each touched row among its update's touched rows; written
    # for the touched rows only, so one O(k) allocation serves every update
    pos = np.empty(feature_ids.size, dtype=np.int64)

    for epoch in range(1, tcfg.max_epochs + 1):
        order = np.array(rng.permutation(n), dtype=np.int64)
        # smoothed targets y' = y(1-eps) + eps/2 (and the binary task's
        # per-example weights) of the epoch's rows, in the epoch's order
        y_s_epoch = y[order] * (1.0 - smoothing) + smoothing / 2.0
        sw_epoch = None if sample_w is None else sample_w[order][:, None]
        epoch_losses: list[float] = []
        for start in range(0, n, batch):
            # one optimizer update over one batch, on the weight rows it
            # touches, in local column ids
            rows = order[start : start + batch]
            update = fm.take(rows)
            indptr, cols, data = update.indptr, update.indices, update.data
            touched = _distinct(cols)
            t = touched.size
            pos[touched] = np.arange(t)
            local = pos.take(cols)
            W_rows = scale * V.take(touched, axis=0)
            # the loss is pw*y'*softplus(-z) + (1-y')*softplus(z), averaged
            # over the batch's rows x labels
            z = kernels.csr_logits(indptr, local, data, W_rows, b)
            elem, dz = _loss_terms(z, y_s_epoch[start : start + batch], pw_arr)
            if sw_epoch is not None:
                sw = sw_epoch[start : start + batch]
                elem *= sw
                dz *= sw
            inv = 1.0 / (rows.size * n_labels)
            epoch_losses.append(float(elem.sum() * inv))
            dz *= inv
            # from +0.0, so a column that sums to -0.0 reads +0.0
            grad_b = 0.0 + dz.sum(axis=0)
            grad_w = np.zeros((t, n_labels), dtype=np.float64)
            kernels.csr_grad_weights(indptr, local, data, dz, grad_w)
            # untouched rows have zero gradient, so this is the full norm
            norm = math.sqrt(float((grad_w * grad_w).sum()) + float((grad_b * grad_b).sum()))
            if norm > tcfg.max_grad_norm:
                clip = tcfg.max_grad_norm / norm
                grad_w *= clip
                grad_b *= clip
            step += 1
            lr = lr_at_step(step, total_updates, warmup, tcfg.learning_rate)
            scale *= 1.0 - lr * tcfg.weight_decay
            if scale < _SCALE_FLOOR:
                # also taken when lr * weight_decay >= 1 makes the factor <= 0
                V *= scale
                scale = 1.0
            V[touched] -= lr * grad_w / scale
            b -= lr * grad_b

        V *= scale
        scale = 1.0
        # epoch train loss reported without the decay penalty; the data term
        # alone is what the curves are read for
        losses.append(float(np.mean(epoch_losses)))
        val_probs = _sigmoid(
            kernels.csr_logits(fm_val.indptr, fm_val.indices, fm_val.data, V, b)
        )
        score = metrics.score(val_probs.tolist(), y_val, (0.5,) * n_labels, schema.names).macro_f1
        val_scores.append(score)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_W = V.copy()
            best_b = b.copy()
        elif epoch - best_epoch >= tcfg.patience:
            stopped_early = True
            break

    model = LinearModel(
        feature_ids=feature_ids, weights=best_W, bias=best_b, featurizer=fcfg, schema=schema
    )
    report = TrainReport(
        epoch_train_loss=tuple(losses),
        epoch_val_macro_f1=tuple(val_scores),
        best_epoch=best_epoch,
        stopped_early=stopped_early,
        weighting_mode=tcfg.weighting,
    )
    return model, report


def predict_proba(model: LinearModel, ds: Dataset) -> ProbabilityMatrix:
    """Sigmoid probabilities for every instance; values stay inside (0, 1).

    Rows are featurized and scored ``SCORE_BLOCK_ROWS`` at a time, so the
    memory scoring takes beyond the returned rows does not grow with the
    dataset. Every step is rowwise, so each row's bits do not depend on the
    rows scored with it: ids are sorted within a row, squared counts are
    integers, each logit cell sums its row's entries in order from +0.0, and
    the sigmoid and the clip are elementwise.
    """
    if ds.schema.names != model.schema.names:
        raise DataError("dataset schema does not match model schema")

    def rows():
        instances = ds.instances
        for start in range(0, len(instances), SCORE_BLOCK_ROWS):
            texts = [inst.text for inst in instances[start : start + SCORE_BLOCK_ROWS]]
            fm = restrict(featurize_all(texts, model.featurizer), model.feature_ids)
            z = kernels.csr_logits(fm.indptr, fm.indices, fm.data, model.weights, model.bias)
            yield from np.clip(_sigmoid(z), _PROB_FLOOR, 1.0 - _PROB_FLOOR).tolist()

    # the matrix converts each row as it is drawn, so one block's rows are
    # the only ones alive twice
    return ProbabilityMatrix(ids=tuple(ds.ids), label_names=model.schema.names, values=rows())


# ---------------------------------------------------------------------------
# Model file round-trip


def save_model(model: LinearModel, path: str | Path) -> None:
    """Write the model: one JSON header line, then little-endian feature ids,
    weights and bias.

    The header's ``shape`` is ``[k, n_labels]``; the body is ``k`` ``<i8``
    ids, ``k * n_labels`` ``<f8`` weights (row-major) and ``n_labels``
    ``<f8`` biases.
    """
    header = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "schema": list(model.schema.names),
        "featurizer": asdict(model.featurizer),
        "shape": list(model.weights.shape),
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(model.feature_ids, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.bias, dtype="<f8").tobytes())


def _featurizer_from_json(fz: dict) -> FeaturizerConfig:
    # every field is required: a default must not stand in for a lost one
    return FeaturizerConfig(**{f.name: fz[f.name] for f in fields(FeaturizerConfig)})


def _shape_from_json(value) -> tuple[int, int]:
    k, n_labels = map(operator.index, value)
    return k, n_labels


def _schema_from_json(value) -> LabelSchema:
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise DataError(f"schema must be a list of label names, got {value!r}")
    return LabelSchema(names=tuple(value))


def load_model(path: str | Path) -> LinearModel:
    path = Path(path)
    with path.open("rb") as fh:
        header_line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise DataError(f"{path}: not a model file") from None
    if not isinstance(header, dict) or header.get("format") != _MODEL_FORMAT:
        raise DataError(f"{path}: not a model file")
    if header.get("version") != _MODEL_VERSION:
        raise DataError(f"{path}: unsupported model version {header.get('version')!r}")
    k, n_labels = read_field(header, "shape", path, _shape_from_json)
    fcfg = read_field(header, "featurizer", path, _featurizer_from_json)
    schema = read_field(header, "schema", path, _schema_from_json)
    expected = (k + k * n_labels + n_labels) * 8
    if min(k, n_labels) < 0 or len(body) != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, found {len(body)}")
    # views of the payload; astype copies only on a big-endian host
    ids = np.frombuffer(body, dtype="<i8", count=k)
    weights = np.frombuffer(body, dtype="<f8", count=k * n_labels, offset=k * 8)
    bias = np.frombuffer(body, dtype="<f8", offset=(k + k * n_labels) * 8)
    try:
        return LinearModel(
            feature_ids=ids.astype(np.int64, copy=False),
            weights=weights.reshape(k, n_labels).astype(np.float64, copy=False),
            bias=bias.astype(np.float64, copy=False),
            featurizer=fcfg,
            schema=schema,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_history(report: TrainReport, path: str | Path) -> None:
    """Tab-separated per-epoch curves: epoch, train loss, validation macro-F1."""
    lines = ["epoch\ttrain_loss\tval_macro_f1"]
    for i, (loss, score) in enumerate(
        zip(report.epoch_train_loss, report.epoch_val_macro_f1), start=1
    ):
        lines.append(f"{i}\t{loss:.10f}\t{score:.10f}")
    lines.append(f"# best_epoch\t{report.best_epoch}")
    lines.append(f"# stopped_early\t{str(report.stopped_early).lower()}")
    lines.append(f"# weighting_mode\t{report.weighting_mode}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
