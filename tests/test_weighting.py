import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import mk_dataset
from polarpipe.corpus import DataError
from polarpipe.weighting import POS_WEIGHT_CAP, class_weights, pos_weights


def test_class_weights_formula():
    # n/(2*n_class): 8 negatives and 2 positives out of 10
    ds = mk_dataset([(0,)] * 8 + [(1,)] * 2, names=("pol",))
    cw = class_weights(ds)
    assert cw.weights == (10 / 16, 10 / 4)
    assert cw.counts == (8, 2)
    # both classes end up contributing the same weighted mass
    assert cw.counts[0] * cw.weights[0] == pytest.approx(cw.counts[1] * cw.weights[1])


def test_class_weights_per_example():
    ds = mk_dataset([(0,)] * 3 + [(1,)], names=("pol",))
    cw = class_weights(ds)
    mapped = cw.per_example(np.array([0, 1, 0, 1]))
    assert mapped.tolist() == [cw.weights[0], cw.weights[1], cw.weights[0], cw.weights[1]]


def test_class_weights_errors():
    with pytest.raises(DataError, match="binary"):
        class_weights(mk_dataset([(0, 1)]))
    with pytest.raises(DataError, match="both classes"):
        class_weights(mk_dataset([(1,), (1,)], names=("pol",)))


def test_pos_weights_ratios_and_caps():
    rows = [
        (1, 0, 1, 1),
        (0, 0, 1, 1),
        (0, 0, 1, 1),
        (0, 0, 1, 1),
        (0, 0, 1, 1),
        (0, 0, 1, 0),
        (0, 0, 1, 0),
        (0, 0, 1, 0),
        (0, 0, 1, 0),
        (0, 0, 1, 0),
    ]
    pw = pos_weights(mk_dataset(rows))
    # label 0: 9 neg / 1 pos = 9; label 1: no positives -> cap, flagged;
    # label 2: no negatives -> ratio 0 clips to the 1/cap floor, flagged;
    # label 3: 5/5 = 1
    assert pw.weights[0] == 9.0 and not pw.capped[0]
    assert pw.weights[1] == POS_WEIGHT_CAP and pw.capped[1]
    assert pw.weights[2] == 1.0 / POS_WEIGHT_CAP and pw.capped[2]
    assert pw.weights[3] == 1.0 and not pw.capped[3]


def test_pos_weights_cap_binds_on_extreme_imbalance():
    rows = [(1,)] + [(0,)] * 150
    pw = pos_weights(mk_dataset(rows, names=("rare",)))
    assert pw.weights[0] == POS_WEIGHT_CAP == 100.0 and pw.capped[0]


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
def test_pos_weights_always_positive_and_bounded(rows):
    pw = pos_weights(mk_dataset(rows))
    n = len(rows)
    for l, w in enumerate(pw.weights):
        assert 1.0 / POS_WEIGHT_CAP <= w <= POS_WEIGHT_CAP
        n_pos = sum(r[l] for r in rows)
        if 0 < n_pos:
            raw = (n - n_pos) / n_pos
            assert pw.capped[l] == (w != raw)
        else:
            assert pw.capped[l] and w == POS_WEIGHT_CAP
