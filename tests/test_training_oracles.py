"""Differential tests: the compact trainer against the dense ones it replaced.

``dense_train`` is the oldest training loop, kept verbatim apart from names
and the input checks. Every update built a gradient over all ``hash_dim``
rows, clipped by its global norm, decayed every weight and subtracted. The
row-sparse trainer that followed touched only the rows an update's features
hit and kept the decay in a scalar, so the two agree to rounding, and bit for
bit when there is neither decay to fold nor a clip.

``dense_v_train`` and ``dense_predict_proba`` are that row-sparse trainer and
its prediction, still holding one weight row per ``hash_dim`` bucket. The
library now keeps rows for the train set's distinct features only and drops
every other feature's entries (``restrict``); that must change no bit of the
weights, losses, validation scores or probabilities.

Both trainers make each optimizer update one full pass over one batch
(``helpers._loss_and_grad_csr``). The library's loss pass and prediction
share one ``exp(-|z|)`` between the softplus terms and the sigmoid;
``helpers._softplus`` and ``helpers._sigmoid`` are the separate functions
they replaced, and the bits must not move.

``loop_take`` is ``FeatureMatrix.take`` before it was vectorized.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polarpipe import _kernels as kernels, metrics
from polarpipe.linear_model import (
    _PROB_FLOOR,
    _SCALE_FLOOR,
    FeatureMatrix,
    FeaturizerConfig,
    LinearModel,
    TrainConfig,
    _loss_terms,
    featurize_all,
    lr_at_step,
    predict_proba,
    restrict,
    train,
)
from polarpipe.corpus import Dataset
from polarpipe.synth import generate_synthetic
from polarpipe.weighting import class_weights, pos_weights

from helpers import _loss_and_grad_csr, _sigmoid, _softplus, mk_dataset


# ---------------------------------------------------------------------------
# Oracles


def dense_train(train_ds, val_ds, tcfg, fcfg, weighting_mode="balanced"):
    schema = train_ds.schema
    n = len(train_ds)
    n_labels = schema.n_labels
    smoothing = tcfg.resolve_smoothing(schema)

    fm = featurize_all([inst.text for inst in train_ds.instances], fcfg)
    y = np.array([inst.labels for inst in train_ds.instances], dtype=np.float64)
    fm_val = featurize_all([inst.text for inst in val_ds.instances], fcfg)
    y_val = np.array([inst.labels for inst in val_ds.instances], dtype=np.int64)

    pw_arr = np.ones(n_labels, dtype=np.float64)
    sample_w = None
    if weighting_mode == "balanced":
        if schema.is_binary:
            sample_w = class_weights(train_ds).per_example(y[:, 0])
        else:
            pw_arr = np.asarray(pos_weights(train_ds).weights, dtype=np.float64)

    W = np.zeros((fcfg.hash_dim, n_labels), dtype=np.float64)
    b = np.zeros(n_labels, dtype=np.float64)

    total_updates = tcfg.max_epochs * -(-n // tcfg.batch_size)
    warmup = int(round(tcfg.warmup_ratio * total_updates))

    rng = np.random.RandomState(tcfg.seed)
    losses = []
    val_scores = []
    best_epoch = 0
    best_score = -1.0
    best_W = W.copy()
    best_b = b.copy()
    stopped_early = False
    step = 0
    clipped = False

    for epoch in range(1, tcfg.max_epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, tcfg.batch_size):
            rows = order[start : start + tcfg.batch_size]
            sw = None if sample_w is None else sample_w[rows]
            loss, grad_w, grad_b = _loss_and_grad_csr(
                fm.take(rows), y[rows], W, b, pw_arr, smoothing, 0.0, sw
            )
            epoch_losses.append(loss)
            norm = math.sqrt(float(np.sum(grad_w * grad_w)) + float(np.sum(grad_b * grad_b)))
            if norm > tcfg.max_grad_norm:
                clipped = True
                clip = tcfg.max_grad_norm / norm
                grad_w *= clip
                grad_b *= clip
            step += 1
            lr = lr_at_step(step, total_updates, warmup, tcfg.learning_rate)
            if tcfg.weight_decay:
                W *= 1.0 - lr * tcfg.weight_decay
            W -= lr * grad_w
            b -= lr * grad_b

        losses.append(float(np.mean(epoch_losses)))
        val_probs = _sigmoid(
            kernels.csr_logits(fm_val.indptr, fm_val.indices, fm_val.data, W, b)
        )
        score = metrics.score(val_probs, y_val, np.full(n_labels, 0.5), schema.names).macro_f1
        val_scores.append(score)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_W = W.copy()
            best_b = b.copy()
        elif epoch - best_epoch >= tcfg.patience:
            stopped_early = True
            break

    return best_W, best_b, tuple(losses), tuple(val_scores), best_epoch, stopped_early, clipped


def dense_v_train(train_ds, val_ds, tcfg, fcfg, weighting_mode="balanced"):
    schema = train_ds.schema
    n = len(train_ds)
    n_labels = schema.n_labels
    smoothing = tcfg.resolve_smoothing(schema)

    fm = featurize_all([inst.text for inst in train_ds.instances], fcfg)
    y = np.array([inst.labels for inst in train_ds.instances], dtype=np.float64)
    fm_val = featurize_all([inst.text for inst in val_ds.instances], fcfg)
    y_val = np.array([inst.labels for inst in val_ds.instances], dtype=np.int64)

    pw_arr = np.ones(n_labels, dtype=np.float64)
    sample_w = None
    if weighting_mode == "balanced":
        if schema.is_binary:
            sample_w = class_weights(train_ds).per_example(y[:, 0])
        else:
            pw_arr = np.asarray(pos_weights(train_ds).weights, dtype=np.float64)

    V = np.zeros((fcfg.hash_dim, n_labels), dtype=np.float64)
    scale = 1.0
    b = np.zeros(n_labels, dtype=np.float64)

    total_updates = tcfg.max_epochs * -(-n // tcfg.batch_size)
    warmup = int(round(tcfg.warmup_ratio * total_updates))

    rng = np.random.RandomState(tcfg.seed)
    losses = []
    val_scores = []
    best_epoch = 0
    best_score = -1.0
    best_W = V.copy()
    best_b = b.copy()
    stopped_early = False
    step = 0

    for epoch in range(1, tcfg.max_epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, tcfg.batch_size):
            rows = order[start : start + tcfg.batch_size]
            update = fm.take(rows)
            touched, local = np.unique(update.indices, return_inverse=True)
            update = FeatureMatrix(update.indptr, local, update.data, touched.size)
            W_rows = scale * V[touched]
            sw = None if sample_w is None else sample_w[rows]
            loss, grad_w, grad_b = _loss_and_grad_csr(
                update, y[rows], W_rows, b, pw_arr, smoothing, 0.0, sw
            )
            epoch_losses.append(loss)
            norm = math.sqrt(float(np.sum(grad_w * grad_w)) + float(np.sum(grad_b * grad_b)))
            if norm > tcfg.max_grad_norm:
                clip = tcfg.max_grad_norm / norm
                grad_w *= clip
                grad_b *= clip
            step += 1
            lr = lr_at_step(step, total_updates, warmup, tcfg.learning_rate)
            scale *= 1.0 - lr * tcfg.weight_decay
            if scale < _SCALE_FLOOR:
                V *= scale
                scale = 1.0
            V[touched] -= lr * grad_w / scale
            b -= lr * grad_b

        V *= scale
        scale = 1.0
        losses.append(float(np.mean(epoch_losses)))
        val_probs = _sigmoid(
            kernels.csr_logits(fm_val.indptr, fm_val.indices, fm_val.data, V, b)
        )
        score = metrics.score(val_probs, y_val, np.full(n_labels, 0.5), schema.names).macro_f1
        val_scores.append(score)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_W = V.copy()
            best_b = b.copy()
        elif epoch - best_epoch >= tcfg.patience:
            stopped_early = True
            break

    return best_W, best_b, tuple(losses), tuple(val_scores), best_epoch, stopped_early


def dense_predict_proba(W, b, fcfg, ds):
    fm = featurize_all([inst.text for inst in ds.instances], fcfg)
    z = kernels.csr_logits(fm.indptr, fm.indices, fm.data, W, b)
    return np.clip(_sigmoid(z), _PROB_FLOOR, 1.0 - _PROB_FLOOR)


def loop_take(fm, rows):
    rows = np.asarray(rows, dtype=np.int64)
    lengths = fm.indptr[rows + 1] - fm.indptr[rows]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    data = np.empty(int(indptr[-1]), dtype=np.float64)
    for k, r in enumerate(rows):
        lo, hi = fm.indptr[r], fm.indptr[r + 1]
        indices[indptr[k] : indptr[k + 1]] = fm.indices[lo:hi]
        data[indptr[k] : indptr[k + 1]] = fm.data[lo:hi]
    return FeatureMatrix(indptr=indptr, indices=indices, data=data, n_features=fm.n_features)


# ---------------------------------------------------------------------------
# Trainer


def assert_close(got, expected, rel=1e-10):
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    scale = max(float(np.max(np.abs(expected), initial=0.0)), np.finfo(float).tiny)
    assert float(np.max(np.abs(got - expected), initial=0.0)) <= rel * scale


def scatter(model):
    """The model's weights as one row per hash bucket, zero outside its feature ids."""
    W = np.zeros((model.featurizer.hash_dim, model.schema.n_labels))
    W[model.feature_ids] = model.weights
    return W


def run_both(train_ds, val_ds, tcfg, hash_dim=2**10, weighting_mode="balanced"):
    fcfg = FeaturizerConfig(hash_dim=hash_dim)
    model, report = train(train_ds, val_ds, dataclasses.replace(tcfg, weighting=weighting_mode), fcfg)
    got = (
        scatter(model),
        model.bias,
        report.epoch_train_loss,
        report.epoch_val_macro_f1,
        report.best_epoch,
        report.stopped_early,
    )
    return got, dense_train(train_ds, val_ds, tcfg, fcfg, weighting_mode)


BINARY = generate_synthetic(90, [0.15], noise=0.05, seed=5)
BINARY_VAL = generate_synthetic(40, [0.15], noise=0.05, seed=6)
MULTI = generate_synthetic(90, [0.4, 0.12, 0.05], noise=0.05, seed=7)
MULTI_VAL = generate_synthetic(40, [0.4, 0.12, 0.05], noise=0.05, seed=8)

CASES = {
    # class weights per example, smoothing 0.1 resolved for the binary task
    "binary-class-weights": (BINARY, BINARY_VAL, TrainConfig(max_epochs=4, batch_size=16)),
    # 8-row updates: the default clip bound of 1.0 engages
    "binary-class-weights-batch-8": (BINARY, BINARY_VAL, TrainConfig(max_epochs=4, batch_size=8)),
    "multilabel-pos-weights": (MULTI, MULTI_VAL, TrainConfig(max_epochs=4, batch_size=16)),
    # 90 = 4 * 21 + 6: the last update holds 6 rows
    "ragged-last-update": (MULTI, MULTI_VAL, TrainConfig(max_epochs=3, batch_size=21)),
    "learning-rate-2": (MULTI, MULTI_VAL, TrainConfig(max_epochs=4, learning_rate=2.0, batch_size=16)),
    # a clip bound low enough to engage
    "clipped": (BINARY, BINARY_VAL, TrainConfig(max_epochs=3, batch_size=16, max_grad_norm=0.05)),
    # lr * wd reaches 0.8: the scale drops below the floor inside an epoch
    "renormalization": (
        BINARY,
        BINARY_VAL,
        TrainConfig(max_epochs=2, learning_rate=2.0, weight_decay=0.4, batch_size=4, warmup_ratio=0.0),
    ),
    # lr * wd = 1 on the first update zeroes the old weights; > 1 flips their sign
    "lr-wd-one": (
        MULTI,
        MULTI_VAL,
        TrainConfig(max_epochs=2, learning_rate=2.0, weight_decay=0.5, batch_size=16, warmup_ratio=0.0),
    ),
    "lr-wd-above-one": (
        MULTI,
        MULTI_VAL,
        TrainConfig(max_epochs=2, learning_rate=2.0, weight_decay=0.8, batch_size=16, warmup_ratio=0.0),
    ),
}


@functools.cache
def oracle_case(name, weight_decay):
    train_ds, val_ds, tcfg = CASES[name]
    if weight_decay == 0.0:
        tcfg = dataclasses.replace(tcfg, weight_decay=0.0)
    return run_both(train_ds, val_ds, tcfg)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("weight_decay", ["config", 0.0])
def test_trainer_matches_dense_oracle(name, weight_decay):
    got, expected = oracle_case(name, weight_decay)
    W, b, losses, scores, best_epoch, stopped = got
    W_d, b_d, losses_d, scores_d, best_epoch_d, stopped_d, clipped = expected
    assert (best_epoch, stopped, len(losses)) == (best_epoch_d, stopped_d, len(losses_d))
    if weight_decay == 0.0 and not clipped:
        # no decay to fold and no clip: the same arithmetic on the same values.
        # A clip norm summed over the touched rows alone pairs its terms
        # differently from one summed over all rows, so it may differ by an ulp.
        assert W.tobytes() == W_d.tobytes()
        assert b.tobytes() == b_d.tobytes()
        assert losses == losses_d
        assert scores == scores_d
    else:
        assert_close(W, W_d)
        assert_close(b, b_d)
        assert_close(losses, losses_d)
        assert_close(scores, scores_d)


def test_oracle_cases_cover_clipped_and_exact_comparisons():
    # whether an update clipped decides the comparison above, not a case's name
    clipped = {name: oracle_case(name, 0.0)[1][-1] for name in CASES}
    assert clipped["clipped"] and clipped["binary-class-weights-batch-8"]
    assert not all(clipped.values())


# ---------------------------------------------------------------------------
# Compact trainer against the dense-V one


# texts the train sets never saw, so prediction drops features the model lacks
BINARY_NEW = generate_synthetic(30, [0.15], noise=0.05, seed=31)
MULTI_NEW = generate_synthetic(30, [0.4, 0.12, 0.05], noise=0.05, seed=32)


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_matches_dense_v(train_ds, val_ds, tcfg, fcfg, weighting_mode, new_ds):
    model, report = train(train_ds, val_ds, dataclasses.replace(tcfg, weighting=weighting_mode), fcfg)
    W_d, b_d, losses_d, scores_d, best_epoch_d, stopped_d = dense_v_train(
        train_ds, val_ds, tcfg, fcfg, weighting_mode
    )
    ids = model.feature_ids
    train_fm = featurize_all([inst.text for inst in train_ds.instances], fcfg)
    assert np.array_equal(ids, np.unique(train_fm.indices))
    assert model.weights.tobytes() == W_d[ids].tobytes()
    outside = np.ones(fcfg.hash_dim, dtype=bool)
    outside[ids] = False
    # == 0, not bytes: lr * wd >= 1 can leave an untouched row at -0.0
    assert np.all(W_d[outside] == 0)
    assert model.bias.tobytes() == b_d.tobytes()
    assert bits(report.epoch_train_loss) == bits(losses_d)
    assert bits(report.epoch_val_macro_f1) == bits(scores_d)
    assert (report.best_epoch, report.stopped_early) == (best_epoch_d, stopped_d)
    for ds in (train_ds, val_ds, new_ds):
        got = np.array(predict_proba(model, ds).values)
        assert got.tobytes() == dense_predict_proba(W_d, b_d, fcfg, ds).tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("weight_decay", ["config", 0.0])
def test_compact_trainer_matches_dense_v_oracle(name, weight_decay):
    train_ds, val_ds, tcfg = CASES[name]
    if weight_decay == 0.0:
        tcfg = dataclasses.replace(tcfg, weight_decay=0.0)
    new_ds = BINARY_NEW if train_ds is BINARY else MULTI_NEW
    assert_matches_dense_v(train_ds, val_ds, tcfg, FeaturizerConfig(hash_dim=2**10), "balanced", new_ds)


def with_texts(ds, blank):
    """``ds`` with the text of every row in ``blank`` emptied: those rows have no tokens."""
    instances = tuple(
        dataclasses.replace(inst, raw_text="", text="") if i in blank else inst
        for i, inst in enumerate(ds.instances)
    )
    return Dataset(schema=ds.schema, instances=instances)


MULTI_FEW = Dataset(schema=MULTI.schema, instances=MULTI.instances[:5])

EDGE_CASES = {
    "batch-size-1": (MULTI, MULTI_VAL, TrainConfig(max_epochs=2, batch_size=1)),
    # 5 rows in batches of 8: every update is one short batch
    "fewer-rows-than-a-micro-batch": (MULTI_FEW, MULTI_VAL, TrainConfig(max_epochs=3, batch_size=8)),
    # 90 = 4 * 22 + 2: the last update holds 2 rows
    "last-update-one-short-micro-batch": (MULTI, MULTI_VAL, TrainConfig(max_epochs=3, batch_size=22)),
    "rows-without-tokens": (
        with_texts(MULTI, set(range(0, 90, 3))),
        with_texts(MULTI_VAL, {0, 1}),
        TrainConfig(max_epochs=3, batch_size=8),
    ),
    "no-tokens-at-all": (
        with_texts(MULTI_FEW, set(range(5))),
        MULTI_VAL,
        TrainConfig(max_epochs=2, batch_size=4),
    ),
    # per-example class weights; 90 = 4 * 20 + 10: the last update holds 10 rows
    "binary-sample-weights": (BINARY, BINARY_VAL, TrainConfig(max_epochs=3, batch_size=20)),
    "max-epochs-0": (MULTI, MULTI_VAL, TrainConfig(max_epochs=0)),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
@pytest.mark.parametrize("weight_decay", ["config", 0.0])
def test_compact_trainer_matches_dense_v_oracle_on_edge_cases(name, weight_decay):
    train_ds, val_ds, tcfg = EDGE_CASES[name]
    if weight_decay == 0.0:
        tcfg = dataclasses.replace(tcfg, weight_decay=0.0)
    new_ds = BINARY_NEW if train_ds is BINARY else MULTI_NEW
    assert_matches_dense_v(train_ds, val_ds, tcfg, FeaturizerConfig(hash_dim=2**10), "balanced", new_ds)


@settings(max_examples=40)
@given(
    binary=st.booleans(),
    learning_rate=st.sampled_from([0.02, 0.5, 2.0]),
    weight_decay=st.sampled_from([0.0, 0.01, 0.4, 0.8]),
    batch_size=st.integers(1, 16),
    max_epochs=st.integers(0, 3),
    max_grad_norm=st.sampled_from([0.05, 1.0]),
    warmup_ratio=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    patience=st.integers(1, 3),
    seed=st.integers(0, 3),
    hash_dim=st.sampled_from([2**10, 2**14]),
    weighting_mode=st.sampled_from(["balanced", "none"]),
)
# binary runs (one label) of batches wider than the draws: 90 rows in
# batches of 24, 28 and 20 end with updates of 18, 6 and 10 rows
@example(binary=True, learning_rate=0.5, weight_decay=0.01, batch_size=24,
         max_epochs=3, max_grad_norm=1.0, warmup_ratio=0.1, patience=3, seed=1, hash_dim=2**10,
         weighting_mode="balanced")
@example(binary=True, learning_rate=2.0, weight_decay=0.8, batch_size=28,
         max_epochs=2, max_grad_norm=0.05, warmup_ratio=0.0, patience=1, seed=2, hash_dim=2**14,
         weighting_mode="balanced")
@example(binary=True, learning_rate=0.02, weight_decay=0.0, batch_size=20,
         max_epochs=3, max_grad_norm=1.0, warmup_ratio=0.5, patience=2, seed=3, hash_dim=2**10,
         weighting_mode="none")
def test_compact_trainer_matches_dense_v_oracle_on_drawn_configs(
    binary, hash_dim, weighting_mode, **config
):
    train_ds, val_ds, new_ds = (BINARY, BINARY_VAL, BINARY_NEW) if binary else (MULTI, MULTI_VAL, MULTI_NEW)
    assert_matches_dense_v(
        train_ds, val_ds, TrainConfig(**config), FeaturizerConfig(hash_dim=hash_dim), weighting_mode, new_ds
    )


def test_renormalization_case_crosses_the_floor():
    train_ds, _, tcfg = CASES["renormalization"]
    updates = -(-len(train_ds) // tcfg.batch_size)
    total = tcfg.max_epochs * updates
    factors = [
        1.0 - lr_at_step(k, total, 0, tcfg.learning_rate) * tcfg.weight_decay
        for k in range(1, updates + 1)
    ]
    assert np.cumprod(factors).min() < _SCALE_FLOOR
    for name, threshold in (("lr-wd-one", 1.0), ("lr-wd-above-one", 1.6)):
        tcfg = CASES[name][2]
        assert tcfg.learning_rate * tcfg.weight_decay == threshold


def test_gradients_cover_only_touched_rows(monkeypatch):
    # at hash_dim 2^20 each update makes one gradient call whose buffer holds
    # exactly the rows the update touches
    heights = []
    grad = kernels.csr_grad_weights

    def recording(indptr, indices, data, dlogits, out):
        heights.append(out.shape[0])
        return grad(indptr, indices, data, dlogits, out)

    monkeypatch.setattr(kernels, "csr_grad_weights", recording)
    tcfg, fcfg = TrainConfig(max_epochs=1), FeaturizerConfig(hash_dim=2**20)
    train(MULTI, MULTI_VAL, tcfg, fcfg)
    fm = featurize_all([inst.text for inst in MULTI.instances], fcfg)
    order = np.random.RandomState(tcfg.seed).permutation(len(MULTI))
    expected = [
        np.unique(fm.take(order[start : start + tcfg.batch_size]).indices).size
        for start in range(0, len(MULTI), tcfg.batch_size)
    ]
    # 90 rows in updates of 64 and 26
    assert len(expected) == 2
    assert heights == expected


# logits at the edges of the sigmoid and softplus: signed zeros, tiny values,
# exp underflow and overflow, plus a spread of ordinary values
EDGE_LOGITS = np.array(
    [0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.75, -36.75, 709.8, -745.2]
)


def edge_and_random_logits(n_labels):
    rng = np.random.RandomState(13)
    z = np.concatenate((EDGE_LOGITS, rng.normal(0.0, 3.0, 300), rng.normal(0.0, 60.0, 60)))
    return z[: z.size - z.size % n_labels].reshape(-1, n_labels)


@pytest.mark.parametrize("n_labels", [1, 6])
def test_loss_terms_match_separate_softplus_and_sigmoid(n_labels):
    z = edge_and_random_logits(n_labels)
    rng = np.random.RandomState(14)
    y_s = rng.randint(0, 2, size=z.shape) * 0.9 + 0.05
    pw = rng.uniform(0.5, 20.0, size=n_labels)
    elem, dz = _loss_terms(z, y_s, pw)
    assert elem.tobytes() == (pw * y_s * _softplus(-z) + (1.0 - y_s) * _softplus(z)).tobytes()
    assert dz.tobytes() == (_sigmoid(z) * (1.0 - y_s + pw * y_s) - pw * y_s).tobytes()


def test_predict_proba_matches_separate_sigmoid_at_the_edges():
    # one word per document, so no bigram: a count of 1 over a norm of 1 is
    # 1.0, and each logit is its word's weight
    n_labels = 6
    z = edge_and_random_logits(n_labels)
    ds = mk_dataset([(0,) * n_labels] * z.shape[0], texts=[f"word{i}" for i in range(z.shape[0])])
    fcfg = FeaturizerConfig()
    fm = featurize_all([inst.text for inst in ds.instances], fcfg)
    feature_ids, rows_of = np.unique(fm.indices, return_inverse=True)
    assert feature_ids.size == z.shape[0]
    weights = np.empty_like(z)
    weights[rows_of] = z
    bias = np.zeros(n_labels)
    model = LinearModel(feature_ids, weights, bias, fcfg, ds.schema)
    logits = kernels.csr_logits(fm.indptr, rows_of, fm.data, weights, bias)
    assert np.array_equal(logits, z)
    expected = np.clip(_sigmoid(logits), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    assert np.array(predict_proba(model, ds).values).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# FeatureMatrix.take


@st.composite
def matrices_and_rows(draw):
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    nnz = int(indptr[-1])
    indices = np.array(draw(st.lists(st.integers(0, 63), min_size=nnz, max_size=nnz)), dtype=np.int64)
    data = np.arange(1, nnz + 1, dtype=np.float64) / 7.0
    fm = FeatureMatrix(indptr=indptr, indices=indices, data=data, n_features=64)
    rows = draw(st.lists(st.integers(0, len(lengths) - 1), max_size=20))
    return fm, np.array(rows, dtype=np.int64)


@given(matrices_and_rows())
def test_take_matches_loop_oracle(case):
    fm, rows = case
    got = fm.take(rows)
    expected = loop_take(fm, rows)
    for field in ("indptr", "indices", "data"):
        a, e = getattr(got, field), getattr(expected, field)
        assert a.dtype == e.dtype and np.array_equal(a, e)
    assert got.n_features == expected.n_features


def test_take_edge_cases():
    fm = FeatureMatrix(
        indptr=np.array([0, 2, 2, 3], dtype=np.int64),
        indices=np.array([1, 4, 0], dtype=np.int64),
        data=np.array([0.5, 1.5, 2.0]),
        n_features=8,
    )
    empty = fm.take(np.array([], dtype=np.int64))
    assert empty.indptr.tolist() == [0] and empty.indices.size == 0 and empty.data.size == 0
    repeated = fm.take([2, 1, 0, 2])
    assert repeated.indptr.tolist() == [0, 1, 1, 3, 4]
    assert repeated.indices.tolist() == [0, 1, 4, 0]
    assert repeated.data.tolist() == [2.0, 0.5, 1.5, 2.0]


# ---------------------------------------------------------------------------
# restrict


@st.composite
def restrict_cases(draw):
    """A CSR matrix over 64 features, a sorted id subset and weights for both
    forms: compact rows for the ids, and a dense matrix that holds the same
    rows at the ids and a zero of either sign everywhere else."""
    lengths = draw(st.lists(st.integers(0, 5), max_size=8))
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    nnz = int(indptr[-1])
    indices = np.array(draw(st.lists(st.integers(0, 63), min_size=nnz, max_size=nnz)), dtype=np.int64)
    finite = st.floats(-4.0, 4.0)
    data = np.array(draw(st.lists(finite, min_size=nnz, max_size=nnz)), dtype=np.float64)
    fm = FeatureMatrix(indptr=indptr, indices=indices, data=data, n_features=64)
    ids = np.array(sorted(draw(st.sets(st.integers(0, 63), max_size=12))), dtype=np.int64)
    n_labels = draw(st.integers(1, 3))

    def floats(rows, elements):
        flat = draw(st.lists(elements, min_size=rows * n_labels, max_size=rows * n_labels))
        return np.array(flat, dtype=np.float64).reshape(rows, n_labels)

    compact = floats(ids.size, finite)
    dense = floats(64, st.sampled_from([0.0, -0.0]))
    dense[ids] = compact
    bias = floats(1, finite)[0]
    return fm, ids, compact, dense, bias


def assert_restrict_matches_dense(fm, ids, compact, dense, bias):
    sub = restrict(fm, ids)
    assert sub.n_rows == fm.n_rows and sub.n_features == ids.size
    assert np.all((sub.indices >= 0) & (sub.indices < ids.size))
    got = kernels.csr_logits(sub.indptr, sub.indices, sub.data, compact, bias)
    want = kernels.csr_logits(fm.indptr, fm.indices, fm.data, dense, bias)
    assert got.tobytes() == want.tobytes()


@given(restrict_cases())
def test_restrict_matches_dense_zero_rows(case):
    assert_restrict_matches_dense(*case)


def test_restrict_edge_cases():
    fm = FeatureMatrix(
        indptr=np.array([0, 2, 2, 5], dtype=np.int64),
        indices=np.array([3, 9, 0, 3, 63], dtype=np.int64),
        data=np.array([0.5, -1.5, 2.0, -0.0, 1.0]),
        n_features=64,
    )
    rng = np.random.RandomState(0)
    cases = {
        "empty ids": np.array([], dtype=np.int64),
        "ids absent from fm": np.array([1, 2, 62], dtype=np.int64),
        "some present": np.array([0, 5, 9, 63], dtype=np.int64),
        "all present": np.array([0, 3, 9, 63], dtype=np.int64),
    }
    empty = FeatureMatrix(np.zeros(4, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), 64)
    no_rows = FeatureMatrix(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), 64)
    for matrix in (fm, empty, no_rows):
        for ids in cases.values():
            compact = rng.randn(ids.size, 2)
            dense = np.full((64, 2), -0.0)
            dense[ids] = compact
            assert_restrict_matches_dense(matrix, ids, compact, dense, np.array([0.25, -0.0]))
    sub = restrict(fm, cases["some present"])
    assert sub.indptr.tolist() == [0, 1, 1, 3]
    assert sub.indices.tolist() == [2, 0, 3]
    assert sub.data.tolist() == [-1.5, 2.0, 1.0]
    assert restrict(fm, cases["ids absent from fm"]).indptr.tolist() == [0, 0, 0, 0]
