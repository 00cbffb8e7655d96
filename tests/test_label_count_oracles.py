"""Differential test: the per-label statistics and loss weights against the
row-by-row counts they replaced.

``summarize``, ``class_weights`` and ``pos_weights`` each counted their own
positives, one row and one label at a time. All three now take
``corpus.count_positives`` over the distinct label vectors, and
``pos_weights`` clips the ratios that ``summarize`` gives. The earlier
functions are kept in ``tests/helpers.py`` as oracles; every field must
match them exactly, and every refusal must carry the same message.
"""

import pytest
from hypothesis import example, given, strategies as st

from helpers import mk_dataset, oracle_class_weights, oracle_pos_weights, oracle_summarize
from polarpipe.corpus import DataError, GoldLabels, summarize
from polarpipe.weighting import POS_WEIGHT_CAP, class_weights, pos_weights


@st.composite
def label_rows(draw, max_width=6, max_rows=40):
    """Rows of 0/1 bits; each column is drawn all-negative, all-positive or mixed."""
    width = draw(st.integers(1, max_width))
    n = draw(st.integers(1, max_rows))
    columns = []
    for _ in range(width):
        kind = draw(st.sampled_from(["mixed", "mixed", "none", "all"]))
        if kind == "mixed":
            columns.append(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        else:
            columns.append([int(kind == "all")] * n)
    return list(zip(*columns))


def _outcome(fn, *args):
    """``repr`` of ``fn(*args)``, or of the DataError it raises: equal reprs
    mean equal types and equal bits, inf and dict order included."""
    try:
        return repr(fn(*args))
    except DataError as exc:
        return f"DataError({exc})"


@given(label_rows())
@example([(1,)])
@example([(0,)])
@example([(0, 1)])
@example([(0, 0, 0)] * 5)
@example([(1, 1)] * 3)
@example([(1, 0), (0, 1), (1, 1), (0, 0)])
def test_counts_match_the_row_by_row_oracles(rows):
    ds = mk_dataset(rows)
    gold = GoldLabels(schema=ds.schema, ids=tuple(ds.ids), labels=ds.labels)
    assert _outcome(summarize, ds) == _outcome(oracle_summarize, ds)
    assert _outcome(summarize, gold) == _outcome(oracle_summarize, gold)
    assert _outcome(pos_weights, ds) == _outcome(oracle_pos_weights, ds)
    assert _outcome(class_weights, ds) == _outcome(oracle_class_weights, ds)


@given(label_rows(max_width=1))
@example([(0,), (1,)])
@example([(1,)] * 4)
def test_binary_counts_match_the_row_by_row_oracles(rows):
    ds = mk_dataset(rows, names=("pol",))
    assert _outcome(summarize, ds) == _outcome(oracle_summarize, ds)
    assert _outcome(class_weights, ds) == _outcome(oracle_class_weights, ds)
    assert _outcome(pos_weights, ds) == _outcome(oracle_pos_weights, ds)


@pytest.mark.parametrize("names", [("pol",), ("a", "b")])
def test_empty_dataset_is_refused_as_before(names):
    ds = mk_dataset([], names=names)
    for new, old in ((summarize, oracle_summarize), (pos_weights, oracle_pos_weights),
                     (class_weights, oracle_class_weights)):
        assert _outcome(new, ds) == _outcome(old, ds)
        assert _outcome(new, ds).startswith("DataError(")


@given(label_rows())
@example([(1, 0)] + [(0, 0)] * 150)  # a ratio of 150 clips to the cap
@example([(1, 1)] * 150 + [(0, 1)])  # and one of 1/150 to the floor
def test_pos_weights_are_the_stats_ratios_clipped(rows):
    ds = mk_dataset(rows)
    ratios = summarize(ds).imbalance_ratio_per_label
    pw = pos_weights(ds)
    assert len(pw.weights) == len(pw.capped) == len(ratios)
    for ratio, weight, capped in zip(ratios, pw.weights, pw.capped):
        assert weight == min(max(ratio, 1.0 / POS_WEIGHT_CAP), POS_WEIGHT_CAP)
        assert capped == (not 1.0 / POS_WEIGHT_CAP <= ratio <= POS_WEIGHT_CAP)
        assert capped == (weight != ratio)
