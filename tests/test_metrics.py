import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarpipe.corpus import DataError, Dataset, GoldLabels, Instance, LabelSchema
from polarpipe.metrics import (
    align,
    confusion,
    evaluate,
    f1_from_counts,
    format_machine,
    format_report,
    macro_f1,
    micro_f1,
    score,
)
from polarpipe.probs import ProbabilityMatrix

from helpers import mk_dataset

# hand-counted reference case: 4 instances, 2 labels
PRED_4X2 = np.array([[1, 0], [0, 0], [1, 1], [0, 1]])
GOLD_4X2 = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])


class TestConfusion:
    def test_hand_counted_case(self):
        counts = confusion(PRED_4X2, GOLD_4X2, ("label0", "label1"))
        c0, c1 = counts
        assert (c0.tp, c0.fp, c0.fn, c0.tn) == (2, 0, 0, 2)
        assert (c1.tp, c1.fp, c1.fn, c1.tn) == (1, 1, 1, 1)

    def test_counts_partition_n(self):
        counts = confusion(PRED_4X2, GOLD_4X2, ("a", "b"))
        for c in counts:
            assert c.tp + c.fp + c.fn + c.tn == 4

    def test_identity_and_complement(self):
        gold = np.array([[1, 0], [0, 1], [1, 1]])
        for c in confusion(gold, gold, ("a", "b")):
            assert c.fp == 0 and c.fn == 0
        for c in confusion(1 - gold, gold, ("a", "b")):
            assert c.tp == 0 and c.tn == 0

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="shape mismatch"):
            confusion(np.zeros((3, 2)), np.zeros((4, 2)), ("a", "b"))
        with pytest.raises(DataError, match="expected shape"):
            confusion(np.zeros((3, 2)), np.zeros((3, 2)), ("a", "b", "c"))


    def test_entries_must_be_bits(self):
        # a non-0/1 entry used to drop out of all four counts
        for bad in (2, -1, 0.5):
            pred = PRED_4X2.astype(float)
            pred[0, 0] = bad
            with pytest.raises(DataError, match="pred matrix must be 0/1"):
                confusion(pred, GOLD_4X2, ("a", "b"))
            gold = GOLD_4X2.astype(float)
            gold[1, 1] = bad
            with pytest.raises(DataError, match="gold matrix must be 0/1"):
                confusion(PRED_4X2, gold, ("a", "b"))


class TestF1:
    def test_golden_macro(self):
        counts = confusion(PRED_4X2, GOLD_4X2, ("a", "b"))
        assert counts[0].f1 == 1.0
        assert counts[1].f1 == 0.5
        assert macro_f1(counts) == 0.75

    def test_golden_micro(self):
        counts = confusion(PRED_4X2, GOLD_4X2, ("a", "b"))
        # pooled tp=3, fp=1, fn=1
        assert micro_f1(counts) == f1_from_counts(3, 1, 1) == 0.75

    def test_perfect(self):
        gold = np.array([[1, 0], [0, 1], [1, 1]])
        counts = confusion(gold, gold, ("a", "b"))
        assert macro_f1(counts) == 1.0
        assert micro_f1(counts) == 1.0

    def test_zero_division_is_zero(self):
        assert f1_from_counts(0, 0, 0) == 0.0
        # one label never predicted and never present contributes 0
        pred = np.array([[1, 0], [1, 0]])
        gold = np.array([[1, 0], [0, 0]])
        counts = confusion(pred, gold, ("a", "b"))
        assert counts[1].f1 == 0.0
        assert macro_f1(counts) == pytest.approx((2 / 3) / 2)

    def test_single_label_micro_equals_per_label(self):
        counts = confusion(PRED_4X2[:, :1], GOLD_4X2[:, :1], ("a",))
        assert micro_f1(counts) == counts[0].f1

    def test_micro_equals_macro_on_identical_counts(self):
        pred = np.array([[1, 1], [0, 0], [1, 1], [0, 0]])
        gold = np.array([[1, 1], [1, 1], [0, 0], [0, 0]])
        counts = confusion(pred, gold, ("a", "b"))
        assert micro_f1(counts) == macro_f1(counts)

    def test_empty_counts_rejected(self):
        with pytest.raises(DataError):
            macro_f1(())
        with pytest.raises(DataError):
            micro_f1(())

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=2,
            max_size=30,
        ),
        st.integers(0, 2**31 - 1),
    )
    def test_random_case_matches_scripted_reference(self, rows, seed):
        rng = np.random.RandomState(seed)
        n = len(rows)
        gold = np.array([[r[0] % 2, r[1] % 2] for r in rows])
        pred = (rng.rand(n, 2) < 0.5).astype(int)
        counts = confusion(pred, gold, ("a", "b"))
        # reference: recompute per label from scratch with plain loops
        f1s = []
        tp_all = fp_all = fn_all = 0
        for l in range(2):
            tp = sum(1 for i in range(n) if pred[i, l] == 1 and gold[i, l] == 1)
            fp = sum(1 for i in range(n) if pred[i, l] == 1 and gold[i, l] == 0)
            fn = sum(1 for i in range(n) if pred[i, l] == 0 and gold[i, l] == 1)
            tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
            f1s.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
        assert macro_f1(counts) == sum(f1s) / 2
        denom = 2 * tp_all + fp_all + fn_all
        assert micro_f1(counts) == (2 * tp_all / denom if denom else 0.0)

    def test_label_permutation_invariance(self):
        counts = confusion(PRED_4X2, GOLD_4X2, ("a", "b"))
        flipped = confusion(PRED_4X2[:, ::-1], GOLD_4X2[:, ::-1], ("b", "a"))
        assert macro_f1(counts) == macro_f1(flipped)
        assert micro_f1(counts) == micro_f1(flipped)


class TestBinaryTwoClass:
    def test_rows_cover_both_classes(self):
        pred = np.array([[1], [0], [1], [0]])
        gold = np.array([[1], [1], [0], [0]])
        rows = score(pred, gold, [0.5], ("hate",)).per_label
        assert rows[0].label == "hate=0"
        assert rows[1].label == "hate=1"
        # class 1: tp=1 (row0), fp=1 (row2), fn=1 (row1), tn=1
        assert (rows[1].tp, rows[1].fp, rows[1].fn, rows[1].tn) == (1, 1, 1, 1)
        # class 0 mirrors it
        assert (rows[0].tp, rows[0].fp, rows[0].fn, rows[0].tn) == (1, 1, 1, 1)

    def test_two_class_macro_differs_from_positive_f1(self):
        # all-positive prediction: positive recall 1, negative row scores 0
        pred = np.ones((4, 1), dtype=int)
        gold = np.array([[1], [1], [1], [0]])
        rows = score(pred, gold, [0.5], ("hate",)).per_label
        assert rows[0].f1 == 0.0
        assert rows[1].f1 == pytest.approx(6 / 7)
        assert macro_f1(rows) == pytest.approx(3 / 7)


def _pm_for(ds: Dataset, values: np.ndarray) -> ProbabilityMatrix:
    return ProbabilityMatrix(
        ids=tuple(i.id for i in ds.instances),
        label_names=ds.schema.names,
        values=values,
    )


class TestEvaluate:
    def test_matches_direct_confusion(self):
        ds = mk_dataset([tuple(r) for r in GOLD_4X2], names=("a", "b"))
        probs = np.where(PRED_4X2 == 1, 0.9, 0.1)
        report = evaluate(_pm_for(ds, probs), ds, [0.5, 0.5])
        assert report.macro_f1 == 0.75
        assert report.micro_f1 == 0.75
        assert report.n_instances == 4
        assert report.mode == "multi-label"

    def test_macro_is_mean_of_per_label(self):
        rng = np.random.RandomState(3)
        ds = mk_dataset([tuple(row) for row in (rng.rand(30, 4) < 0.4).astype(int)])
        report = evaluate(_pm_for(ds, rng.rand(30, 4)), ds, [0.5] * 4)
        assert report.macro_f1 == sum(c.f1 for c in report.per_label) / 4

    def test_threshold_is_closed(self):
        ds = mk_dataset([(1,)], names=("a",))
        report = evaluate(_pm_for(ds, np.array([[0.5]])), ds, [0.5])
        assert report.per_label[1].tp == 1

    def test_alignment_by_id(self):
        ds = mk_dataset([(1,), (0,)], names=("a",))
        # probability rows in reverse order of the dataset
        pm = ProbabilityMatrix(
            ids=(ds.instances[1].id, ds.instances[0].id),
            label_names=("a",),
            values=np.array([[0.1], [0.9]]),
        )
        report = evaluate(pm, ds, [0.5])
        assert report.per_label[1].tp == 1
        assert report.per_label[1].fp == 0

    def test_missing_id_rejected(self):
        ds = mk_dataset([(1,), (0,)], names=("a",))
        pm = ProbabilityMatrix(
            ids=(ds.instances[0].id, "stranger"),
            label_names=("a",),
            values=np.array([[0.9], [0.1]]),
        )
        with pytest.raises(DataError, match="missing id 'i0001'"):
            evaluate(pm, ds, [0.5])

    def test_extra_probability_rows_ignored(self):
        ds = mk_dataset([(1,)], names=("a",))
        pm = ProbabilityMatrix(
            ids=(ds.instances[0].id, "extra"),
            label_names=("a",),
            values=np.array([[0.9], [0.9]]),
        )
        report = evaluate(pm, ds, [0.5])
        assert report.n_instances == 1

    def test_align_passes_matching_rows_through(self):
        ds = mk_dataset([(1, 0), (0, 1), (1, 1)])
        pm = _pm_for(ds, np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.7]]))
        aligned, gold = align(pm, ds)
        assert aligned is pm
        assert gold == ds.labels
        gold_only = GoldLabels(schema=ds.schema, ids=tuple(ds.ids), labels=ds.labels)
        assert align(pm, gold_only)[0] is pm

    @pytest.mark.parametrize("order", [(2, 0, 1), (1, 2), (0, 2), (2,)])
    def test_align_reorders_and_subsets_rows(self, order):
        ds_full = mk_dataset([(1, 0), (0, 1), (1, 1)])
        pm = _pm_for(ds_full, np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.7]]))
        ds = Dataset(schema=ds_full.schema, instances=tuple(ds_full.instances[i] for i in order))
        aligned, gold = align(pm, ds)
        assert aligned.ids == tuple(ds.ids)
        assert aligned.label_names == pm.label_names
        assert aligned.values == tuple(pm.values[i] for i in order)
        assert gold == ds.labels

    def test_align_label_mismatch_rejected(self):
        ds = mk_dataset([(1,)], names=("a",))
        pm = ProbabilityMatrix(ids=(ds.instances[0].id,), label_names=("b",), values=[[0.9]])
        with pytest.raises(DataError, match=r"label mismatch: probabilities \('b',\) vs schema \('a',\)"):
            align(pm, ds)

    def test_binary_mode_rows(self):
        schema = LabelSchema(names=("hate",))
        ds = Dataset(
            schema=schema,
            instances=(
                Instance(id="a", raw_text="x", text="x", labels=(1,)),
                Instance(id="b", raw_text="y", text="y", labels=(0,)),
            ),
        )
        pm = _pm_for(ds, np.array([[0.9], [0.2]]))
        two = evaluate(pm, ds, [0.5])
        assert [c.label for c in two.per_label] == ["hate=0", "hate=1"]
        assert two.mode == "two-class-macro"

    def test_threshold_count_checked(self):
        ds = mk_dataset([(1, 0)], names=("a", "b"))
        with pytest.raises(DataError, match="2 thresholds"):
            evaluate(_pm_for(ds, np.array([[0.9, 0.1]])), ds, [0.5])

    def test_label_name_mismatch(self):
        ds = mk_dataset([(1, 0)], names=("a", "b"))
        pm = ProbabilityMatrix(
            ids=(ds.instances[0].id,),
            label_names=("a", "c"),
            values=np.array([[0.9, 0.1]]),
        )
        with pytest.raises(DataError, match="label mismatch"):
            evaluate(pm, ds, [0.5, 0.5])


class TestFormatting:
    def test_table_layout(self):
        ds = mk_dataset([tuple(r) for r in GOLD_4X2], names=("a", "b"))
        probs = np.where(PRED_4X2 == 1, 0.9, 0.1)
        report = evaluate(_pm_for(ds, probs), ds, [0.5, 0.5])
        text = format_report(report)
        lines = text.splitlines()
        assert lines[0] == "label\ttp\tfp\tfn\tprecision\trecall\tf1"
        assert lines[1] == "a\t2\t0\t0\t1.0000\t1.0000\t1.0000"
        assert lines[2] == "b\t1\t1\t1\t0.5000\t0.5000\t0.5000"
        assert lines[3] == ""
        assert "macro_f1\t0.7500" in lines
        assert "micro_f1\t0.7500" in lines
        assert "n_instances\t4" in lines
        assert "mode\tmulti-label" in lines

    def test_machine_layout(self):
        ds = mk_dataset([tuple(r) for r in GOLD_4X2], names=("a", "b"))
        probs = np.where(PRED_4X2 == 1, 0.9, 0.1)
        report = evaluate(_pm_for(ds, probs), ds, [0.5, 0.5])
        text = format_machine(report)
        lines = text.splitlines()
        assert "a.tp\t2" in lines
        assert "b.f1\t0.5" in lines
        assert "macro_f1\t0.75" in lines
        assert "mode\tmulti-label" in lines
