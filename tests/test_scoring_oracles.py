"""Differential tests: the one scoring path against the counting code it replaced.

The oracles below are the earlier implementations, kept verbatim apart from
names: ``metrics.confusion``, ``metrics.binary_two_class_counts``,
``calibration.macro_f1_at`` (now ``calibration.objective``),
``calibration._f1_per_candidate`` and the
trainer's ``_val_macro_f1_at_half``. Each counted tp/fp/fn on its own; the
library now takes every count from the sweep kernel. Counts must match as
Python ints and F1 values as the identical Python floats.
"""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from polarpipe.calibration import ThresholdVector, _f1_per_candidate, objective
from polarpipe.corpus import LabelSchema
from polarpipe.metrics import ConfusionCounts, confusion, score
from polarpipe.probs import ProbabilityMatrix

from helpers import oracle_sweep_confusion


# ---------------------------------------------------------------------------
# Oracles


def oracle_f1(c):
    denom = 2 * c.tp + c.fp + c.fn
    return 2 * c.tp / denom if denom else 0.0


def oracle_macro_f1(counts):
    return sum(oracle_f1(c) for c in counts) / len(counts)


def oracle_micro_f1(counts):
    tp, fp, fn = (sum(getattr(c, k) for c in counts) for k in ("tp", "fp", "fn"))
    return oracle_f1(ConfusionCounts("pooled", tp, fp, fn, 0))


def oracle_confusion(pred, gold, label_names):
    pred = np.asarray(pred, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    counts = []
    for l, name in enumerate(label_names):
        p = pred[:, l]
        g = gold[:, l]
        tp = int(np.sum((p == 1) & (g == 1)))
        fp = int(np.sum((p == 1) & (g == 0)))
        fn = int(np.sum((p == 0) & (g == 1)))
        tn = int(np.sum((p == 0) & (g == 0)))
        counts.append(ConfusionCounts(label=name, tp=tp, fp=fp, fn=fn, tn=tn))
    return tuple(counts)


def oracle_binary_two_class_counts(pred, gold, name):
    rows = []
    for cls in (0, 1):
        p = (pred[:, 0] == cls).astype(np.int64)
        g = (gold[:, 0] == cls).astype(np.int64)
        tp = int(np.sum((p == 1) & (g == 1)))
        fp = int(np.sum((p == 1) & (g == 0)))
        fn = int(np.sum((p == 0) & (g == 1)))
        tn = int(np.sum((p == 0) & (g == 0)))
        rows.append(ConfusionCounts(label=f"{name}={cls}", tp=tp, fp=fp, fn=fn, tn=tn))
    return tuple(rows)


def oracle_macro_f1_at(pm, gold, tv):
    pred = (np.array(pm.values) >= np.array(tv.theta)[None, :]).astype(np.int64)
    scores = []
    for l in range(pm.n_labels):
        tp = int(np.sum((pred[:, l] == 1) & (gold[:, l] == 1)))
        fp = int(np.sum((pred[:, l] == 1) & (gold[:, l] == 0)))
        fn = int(np.sum((pred[:, l] == 0) & (gold[:, l] == 1)))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return sum(scores) / len(scores)


def oracle_val_macro_f1_at_half(probs, gold, schema):
    pred = (probs >= 0.5).astype(np.int64)
    if schema.is_binary:
        counts = oracle_binary_two_class_counts(pred, gold, schema.names[0])
    else:
        counts = oracle_confusion(pred, gold, schema.names)
    return oracle_macro_f1(counts)


def oracle_f1_per_candidate(probs_col, gold_col, thetas):
    counts = oracle_sweep_confusion(probs_col, gold_col, thetas)
    denom = 2 * counts[:, 0] + counts[:, 1] + counts[:, 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = np.where(denom > 0, 2 * counts[:, 0] / np.maximum(denom, 1), 0.0)
    return f1


# ---------------------------------------------------------------------------
# Cases: probabilities and thresholds share a 1/20 lattice, so many
# probabilities sit exactly at their threshold; some gold columns are all 0.


@st.composite
def cases(draw, min_labels=1, max_labels=4):
    n = draw(st.integers(1, 30))
    width = draw(st.integers(min_labels, max_labels))
    probs = draw(arrays(np.int64, (n, width), elements=st.integers(0, 20))) / 20.0
    gold = draw(arrays(np.int64, (n, width), elements=st.integers(0, 1)))
    gold[:, draw(arrays(np.bool_, width))] = 0
    thetas = draw(arrays(np.int64, width, elements=st.integers(0, 20))) / 20.0
    names = tuple(f"l{j}" for j in range(width))
    return probs, gold, thetas, names


def assert_same_rows(got, expected):
    assert [(c.label, c.tp, c.fp, c.fn, c.tn) for c in got] == [
        (c.label, c.tp, c.fp, c.fn, c.tn) for c in expected
    ]
    for c, e in zip(got, expected):
        assert all(type(v) is int for v in (c.tp, c.fp, c.fn, c.tn))
        assert type(c.f1) is float and c.f1 == oracle_f1(e)


def assert_same_float(got, expected):
    assert type(got) is float
    assert got == expected


@given(cases())
def test_confusion_matches_oracle(case):
    probs, gold, thetas, names = case
    pred = (probs >= thetas).astype(np.int64)
    got = confusion(pred, gold, names)
    assert_same_rows(got, oracle_confusion(pred, gold, names))


@given(cases(min_labels=1, max_labels=1))
def test_binary_views_match_oracles(case):
    probs, gold, thetas, names = case
    pred = (probs >= thetas).astype(np.int64)

    two = score(probs, gold, thetas, names)
    expected = oracle_binary_two_class_counts(pred, gold, names[0])
    assert_same_rows(two.per_label, expected)
    assert_same_float(two.macro_f1, oracle_macro_f1(expected))
    assert_same_float(two.micro_f1, oracle_micro_f1(expected))
    assert two.mode == "two-class-macro"

    # the "=1" row is the positive class's own count, and the tuner's objective
    (positive,) = oracle_confusion(pred, gold, names)
    row = two.per_label[1]
    assert (row.tp, row.fp, row.fn) == (positive.tp, positive.fp, positive.fn)
    pm = ProbabilityMatrix(ids=tuple(f"i{k}" for k in range(len(probs))), label_names=names, values=probs)
    assert_same_float(objective(pm, gold, thetas), row.f1)
    assert_same_float(objective(pm, gold, thetas), oracle_f1(positive))


@given(cases(min_labels=2))
def test_multilabel_score_matches_oracle(case):
    probs, gold, thetas, names = case
    pred = (probs >= thetas).astype(np.int64)
    expected = oracle_confusion(pred, gold, names)
    report = score(probs, gold, thetas, names)
    assert_same_rows(report.per_label, expected)
    assert_same_float(report.macro_f1, oracle_macro_f1(expected))
    assert_same_float(report.micro_f1, oracle_micro_f1(expected))
    assert report.mode == "multi-label"
    assert report.n_instances == probs.shape[0]


@given(cases())
def test_tuning_metric_matches_macro_f1_at(case):
    probs, gold, thetas, names = case
    pm = ProbabilityMatrix(ids=tuple(f"i{k}" for k in range(len(probs))), label_names=names, values=probs)
    tv = ThresholdVector(label_names=names, theta=thetas, base_theta=None, provenance="oracle")
    assert_same_float(objective(pm, gold, tv.theta), oracle_macro_f1_at(pm, gold, tv))


@given(cases())
def test_early_stopping_metric_matches_oracle(case):
    probs, gold, _, names = case
    got = score(probs, gold, np.full(len(names), 0.5), names).macro_f1
    assert_same_float(got, oracle_val_macro_f1_at_half(probs, gold, LabelSchema(names=names)))


@given(cases())
def test_f1_per_candidate_matches_oracle(case):
    probs, gold, _, names = case
    candidates = np.arange(0, 21) / 20.0
    for l in range(len(names)):
        got = _f1_per_candidate(probs[:, l], gold[:, l], candidates)
        assert all(type(f1) is float for f1 in got)
        assert got == oracle_f1_per_candidate(probs[:, l], gold[:, l], candidates).tolist()

