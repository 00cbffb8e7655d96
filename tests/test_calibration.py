import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarpipe.calibration import (
    COARSE_GRID,
    ThresholdVector,
    _f1_per_candidate,
    coarse_search,
    default_thresholds,
    fine_candidates,
    load_thresholds,
    objective,
    refine_per_label,
    save_thresholds,
    tune,
    window,
)
from polarpipe.corpus import DataError
from polarpipe.metrics import score
from polarpipe.probs import ProbabilityMatrix

from helpers import (
    apply_thresholds,
    oracle_best_thresholds,
    random_prob_matrix_values,
    tuned_macro_f1,
)


def mk_pm(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = tuple(names) if names else tuple(f"l{j}" for j in range(values.shape[1]))
    return ProbabilityMatrix(
        ids=tuple(f"i{k}" for k in range(values.shape[0])),
        label_names=names,
        values=values,
    )


def multi_pass_refine(pm, gold, base, passes):
    """The per-label sweep as it was when it took a pass count, kept as an oracle."""
    candidates = fine_candidates(base)
    values = np.array(pm.values)
    theta = np.full(pm.n_labels, base, dtype=np.float64)
    for _ in range(passes):
        for l in range(pm.n_labels):
            f1 = _f1_per_candidate(values[:, l], gold[:, l], candidates)
            theta[l] = candidates[int(np.argmax(f1))]
    return theta


def plain_f1(probs_col, gold_col, theta):
    """Loop-and-count F1 at one threshold, independent of the library path."""
    tp = fp = fn = 0
    for p, g in zip(probs_col, gold_col):
        pred = 1 if p >= theta else 0
        if pred and g:
            tp += 1
        elif pred:
            fp += 1
        elif g:
            fn += 1
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


class TestGridSpec:
    def test_default_coarse_grid(self):
        grid = COARSE_GRID
        assert len(grid) == 13
        assert grid[0] == 0.20
        assert grid[-1] == 0.80
        assert all(b - a == pytest.approx(0.05) for a, b in zip(grid, grid[1:]))

    def test_windows_clamp(self):
        assert window(0.20) == (pytest.approx(0.10), pytest.approx(0.35))
        assert window(0.80) == (pytest.approx(0.65), pytest.approx(0.90))
        assert window(0.50) == (pytest.approx(0.35), pytest.approx(0.65))

    def test_fine_candidates_are_lattice_points(self):
        low = fine_candidates(0.20)
        assert low[0] == 0.10
        assert low[-1] == 0.35
        assert len(low) == 26
        high = fine_candidates(0.80)
        assert high[0] == 0.65
        assert high[-1] == 0.90
        assert len(high) == 26
        mid = fine_candidates(0.50)
        assert len(mid) == 31
        assert 0.29 not in set(mid)
        assert 0.39 in set(mid)
        # every candidate is an exact hundredth
        assert all(c == round(c * 100) / 100 for c in mid)


class TestThresholdVector:
    def test_validation(self):
        with pytest.raises(DataError, match="does not match"):
            ThresholdVector(("a", "b"), np.array([0.5]), 0.5, "tuned")
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            ThresholdVector(("a",), np.array([1.5]), 0.5, "tuned")
        with pytest.raises(DataError, match="provenance"):
            ThresholdVector(("a",), np.array([0.5]), 0.5, "guessed")
        with pytest.raises(DataError, match="base_theta"):
            ThresholdVector(("a",), np.array([0.5]), -0.1, "tuned")

    def test_nan_rejected(self):
        with pytest.raises(DataError, match="thresholds must lie in"):
            ThresholdVector(("a", "b"), np.array([0.5, np.nan]), 0.5, "tuned")
        with pytest.raises(DataError, match="base_theta must lie in"):
            ThresholdVector(("a",), np.array([0.5]), float("nan"), "tuned")

    def test_defaults(self):
        tv = default_thresholds(("a", "b"))
        assert tv.theta == (0.5, 0.5)
        assert tv.provenance == "default"
        assert tv.base_theta == 0.5


class TestApplyThresholds:
    def test_closed_at_threshold(self):
        pm = mk_pm([[0.5]])
        tv = ThresholdVector(pm.label_names, np.array([0.5]), None, "default")
        assert apply_thresholds(pm, tv).tolist() == [[1]]

    def test_degenerate_thresholds(self):
        pm = mk_pm([[0.0, 0.99], [0.7, 0.3]])
        tv = ThresholdVector(pm.label_names, np.array([0.0, 1.0]), None, "default")
        pred = apply_thresholds(pm, tv)
        assert pred[:, 0].tolist() == [1, 1]
        assert pred[:, 1].tolist() == [0, 0]

    def test_label_mismatch(self):
        pm = mk_pm([[0.5]])
        tv = ThresholdVector(("other",), np.array([0.5]), None, "default")
        with pytest.raises(DataError, match="label mismatch"):
            apply_thresholds(pm, tv)


class TestCoarseSearch:
    def test_two_point_example(self):
        pm = mk_pm([[0.3], [0.6]])
        gold = np.array([[0], [1]])
        # theta in {0.35..0.60} all score F1 1; tie goes to the smallest
        assert coarse_search(pm, gold) == 0.35

    def test_all_zero_gold_returns_grid_minimum(self):
        pm = mk_pm([[0.3], [0.6]])
        assert coarse_search(pm, np.array([[0], [0]])) == 0.20

    def test_perfect_probabilities_tie_break_low(self):
        values = np.array([[0.0], [1.0], [1.0]])
        pm = mk_pm(values)
        assert coarse_search(pm, values.astype(int)) == 0.20

    def test_matches_hand_oracle_on_random_input(self):
        rng = np.random.RandomState(8)
        values = random_prob_matrix_values(rng, 40, 3, 12)
        gold = (rng.rand(40, 3) < 0.3).astype(int)
        pm = mk_pm(values)
        grid = [c / 100.0 for c in range(20, 81, 5)]
        scores = [
            sum(plain_f1(values[:, l], gold[:, l], c) for l in range(3)) / 3
            for c in grid
        ]
        best = max(scores)
        expected = next(c for c, s in zip(grid, scores) if s == best)
        assert coarse_search(pm, gold) == expected

    @given(
        st.integers(1, 40),
        st.integers(1, 10),
        st.integers(0, 2**31 - 1),
    )
    def test_first_grid_point_maximizing_the_reported_macro_f1(self, n, labels, seed):
        # the search maximizes the macro-F1 that tune reports, at every label
        # count, including 8 and more, where numpy's pairwise row mean can differ
        rng = np.random.RandomState(seed)
        values = np.round(rng.rand(n, labels), rng.randint(1, 4))
        gold = (rng.rand(n, labels) < rng.rand()).astype(int)
        pm = mk_pm(values)
        scores = [objective(pm, gold, (theta,) * labels) for theta in COARSE_GRID]
        assert coarse_search(pm, gold) == COARSE_GRID[scores.index(max(scores))]

    def test_eight_labels_take_the_reported_mean_not_numpys_pairwise_one(self):
        # per label, on its own rows: positives at 0.27, positives at 0.22,
        # negatives at 0.27, negatives at 0.22. The per-label F1 at 0.20 and
        # at 0.25 are the same eight values in different orders, so the two
        # macro-F1 differ only by rounding, and the two sums round them apart
        blocks = [(1, 1, 0, 0), (2, 1, 0, 0), (1, 0, 0, 1), (1, 1, 1, 1),
                  (2, 1, 0, 0), (1, 0, 1, 1), (2, 0, 0, 1), (2, 0, 0, 1)]
        cells = []
        for label, (p1, p2, n1, n2) in enumerate(blocks):
            cells += [(label, 0.27, 1)] * p1 + [(label, 0.22, 1)] * p2
            cells += [(label, 0.27, 0)] * n1 + [(label, 0.22, 0)] * n2
        values = np.zeros((len(cells), len(blocks)))
        gold = np.zeros(values.shape, dtype=int)
        for row, (label, p, g) in enumerate(cells):
            values[row, label], gold[row, label] = p, g
        pm = mk_pm(values)
        reports = [
            score(pm.values, gold, (theta,) * len(blocks), pm.label_names)
            for theta in COARSE_GRID
        ]
        f1_rows = np.array([[c.f1 for c in r.per_label] for r in reports])
        assert sorted(f1_rows[0]) == sorted(f1_rows[1])
        assert int(np.argmax(f1_rows.mean(axis=1))) == 0  # numpy's pairwise mean
        scores = [r.macro_f1 for r in reports]
        assert scores.index(max(scores)) == 1  # the left-to-right mean tune reports
        assert coarse_search(pm, gold) == COARSE_GRID[1] == 0.25

    def test_shape_and_content_checks(self):
        pm = mk_pm([[0.3], [0.6]])
        with pytest.raises(DataError, match="shape mismatch"):
            coarse_search(pm, np.array([[0]]))
        with pytest.raises(DataError, match="0/1"):
            coarse_search(pm, np.array([[0], [2]]))
        empty = ProbabilityMatrix(ids=(), label_names=("a",), values=np.zeros((0, 1)))
        with pytest.raises(DataError, match="at least one"):
            coarse_search(empty, np.zeros((0, 1), dtype=int))

    def test_objective_takes_one_threshold_per_label(self):
        pm = mk_pm([[0.3, 0.7], [0.6, 0.2]])
        gold = np.array([[0, 1], [1, 0]])
        assert objective(pm, gold, (0.5, 0.5)) == 1.0
        with pytest.raises(DataError, match="expected 2 thresholds, got 1"):
            objective(pm, gold, (0.5,))


class TestRefine:
    def test_single_label_equals_window_argmax(self):
        rng = np.random.RandomState(4)
        values = random_prob_matrix_values(rng, 30, 1, 11)
        gold = (rng.rand(30, 1) < 0.4).astype(int)
        pm = mk_pm(values)
        for base in (0.2, 0.4, 0.65):
            tv = refine_per_label(pm, gold, base)
            cands = [k / 100.0 for k in range(
                int(math.ceil(max(0.1, base - 0.15) * 100 - 1e-9)),
                int(math.floor(min(0.9, base + 0.15) * 100 + 1e-9)) + 1,
            )]
            scores = [plain_f1(values[:, 0], gold[:, 0], c) for c in cands]
            best = max(scores)
            expected = next(c for c, s in zip(cands, scores) if s == best)
            assert tv.theta[0] == expected
            assert tv.base_theta == base
            assert tv.provenance == "tuned"

    def test_block_diagonal_labels_solve_independently(self):
        # each label's probabilities live on its own rows; off-block rows are
        # 0.0 with gold 0, so they never enter that label's confusion counts
        col0 = [0.32, 0.45, 0.58, 0.71, 0.0, 0.0, 0.0, 0.0]
        col1 = [0.0, 0.0, 0.0, 0.0, 0.22, 0.41, 0.63, 0.84]
        gold = np.array(
            [[0, 0], [1, 0], [1, 0], [0, 0], [0, 1], [0, 0], [0, 1], [0, 1]]
        )
        pm = mk_pm(np.column_stack([col0, col1]))
        base = 0.5
        tv = refine_per_label(pm, gold, base)
        solo0 = refine_per_label(mk_pm(np.array(col0)[:, None]), gold[:, :1], base)
        solo1 = refine_per_label(mk_pm(np.array(col1)[:, None]), gold[:, 1:], base)
        assert tv.theta[0] == solo0.theta[0]
        assert tv.theta[1] == solo1.theta[0]

    def test_label_permutation_equivariance(self):
        rng = np.random.RandomState(12)
        blocks = []
        gold_cols = []
        for l in range(3):
            col = np.zeros(18)
            col[l * 6 : (l + 1) * 6] = random_prob_matrix_values(rng, 6, 1, 6)[:, 0]
            blocks.append(col)
            g = np.zeros(18, dtype=int)
            g[l * 6 : (l + 1) * 6] = (rng.rand(6) < 0.5).astype(int)
            gold_cols.append(g)
        values = np.column_stack(blocks)
        gold = np.column_stack(gold_cols)
        perm = [2, 0, 1]
        tv = tune(mk_pm(values, names=("a", "b", "c")), gold)
        permuted = tune(
            mk_pm(values[:, perm], names=("c", "a", "b")), gold[:, perm]
        )
        assert permuted.base_theta == tv.base_theta
        assert list(permuted.theta) == [tv.theta[l] for l in perm]

    @given(
        st.integers(1, 60),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
        st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8]),
    )
    def test_extra_passes_are_idempotent_here(self, n, labels, seed, base):
        # the refinement once took a pass count; one and three passes of that
        # loop must give the thresholds the single pass gives
        rng = np.random.RandomState(seed)
        values = np.round(rng.rand(n, labels), rng.randint(1, 4))
        gold = (rng.rand(n, labels) < rng.rand()).astype(int)
        pm = mk_pm(values)
        tv = refine_per_label(pm, gold, base)
        for passes in (1, 3):
            assert multi_pass_refine(pm, gold, base, passes).tobytes() == np.array(tv.theta).tobytes()

    def test_input_validation(self):
        pm = mk_pm([[0.5]])
        gold = np.array([[1]])
        with pytest.raises(DataError, match="outside"):
            refine_per_label(pm, gold, 1.5)


class TestTune:
    def test_never_worse_than_uniform_base(self):
        rng = np.random.RandomState(77)
        for _ in range(10):
            values = random_prob_matrix_values(rng, 40, 3, 12)
            gold = (rng.rand(40, 3) < 0.3).astype(int)
            pm = mk_pm(values)
            tv = tune(pm, gold)
            uniform = ThresholdVector(
                pm.label_names,
                np.full(3, tv.base_theta),
                tv.base_theta,
                "default",
            )
            assert tuned_macro_f1(pm, gold, tv) >= tuned_macro_f1(pm, gold, uniform)

    def test_window_containment(self):
        rng = np.random.RandomState(21)
        values = random_prob_matrix_values(rng, 50, 3, 12)
        gold = (rng.rand(50, 3) < 0.25).astype(int)
        tv = tune(mk_pm(values), gold)
        lo = max(0.1, tv.base_theta - 0.15)
        hi = min(0.9, tv.base_theta + 0.15)
        assert all(lo - 1e-12 <= t <= hi + 1e-12 for t in tv.theta)

    def test_deterministic(self):
        rng = np.random.RandomState(31)
        values = random_prob_matrix_values(rng, 35, 3, 10)
        gold = (rng.rand(35, 3) < 0.3).astype(int)
        pm = mk_pm(values)
        a = tune(pm, gold)
        b = tune(pm, gold)
        assert np.array(a.theta).tobytes() == np.array(b.theta).tobytes()
        assert a.base_theta == b.base_theta

    def test_refined_theta_may_sit_one_ulp_outside_float_window(self):
        # base 0.45 gives a float window lo of 0.30000000000000004; the 0.30
        # lattice candidate is one ulp below it and must still be accepted.
        # Two labels peak exactly at 0.45, the third needs theta <= 0.30.
        values = np.zeros((20, 3))
        gold = np.zeros((20, 3), dtype=int)
        values[:10, 0] = values[:10, 1] = 0.45
        gold[:10, 0] = gold[:10, 1] = 1
        values[10:, 0] = values[10:, 1] = 0.44
        values[:10, 2] = 0.05
        values[10:15, 2] = 0.46
        values[15:, 2] = 0.30
        gold[10:, 2] = 1
        tv = tune(mk_pm(values), gold)
        assert tv.base_theta == 0.45
        assert tv.theta[0] == tv.theta[1] == pytest.approx(0.45)
        assert tv.theta[2] == pytest.approx(0.30)
        assert tuned_macro_f1(mk_pm(values), gold, tv) == 1.0

    def test_matches_cartesian_oracle(self):
        # joint exhaustive search over every stage-2 combination reachable
        # from the independently recomputed stage-1 winner
        rng = np.random.RandomState(99)
        for _ in range(3):
            n = 24
            values = random_prob_matrix_values(rng, n, 3, 12)
            gold = (rng.rand(n, 3) < 0.35).astype(int)
            pm = mk_pm(values)
            tv = tune(pm, gold)

            grid = [c / 100.0 for c in range(20, 81, 5)]
            scores = [
                sum(plain_f1(values[:, l], gold[:, l], c) for l in range(3)) / 3
                for c in grid
            ]
            best = max(scores)
            base = next(c for c, s in zip(grid, scores) if s == best)
            assert tv.base_theta == base

            cands = [k / 100.0 for k in range(
                int(math.ceil(max(0.1, base - 0.15) * 100 - 1e-9)),
                int(math.floor(min(0.9, base + 0.15) * 100 + 1e-9)) + 1,
            )]
            combos = np.array(list(itertools.product(cands, repeat=3)))
            macro = np.zeros(len(combos))
            for l in range(3):
                pred = values[:, l][:, None] >= combos[:, l][None, :]
                g = gold[:, l][:, None].astype(bool)
                tp = np.sum(pred & g, axis=0)
                fp = np.sum(pred & ~g, axis=0)
                fn = np.sum(~pred & g, axis=0)
                denom = 2 * tp + fp + fn
                f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
                macro += f1
            macro /= 3
            assert abs(tuned_macro_f1(pm, gold, tv) - macro.max()) <= 1e-12


class TestOracle:
    def test_separable_single_label(self):
        pm = mk_pm([[0.2], [0.8]])
        tv, best = oracle_best_thresholds(pm, np.array([[0], [1]]))
        assert best == 1.0
        assert 0.2 < tv.theta[0] <= 0.8
        assert tv.provenance == "oracle"
        assert tv.base_theta is None

    def test_all_ones_gold(self):
        pm = mk_pm([[0.37], [0.62], [0.91]])
        tv, best = oracle_best_thresholds(pm, np.ones((3, 1), dtype=int))
        assert best == 1.0
        assert tv.theta[0] <= 0.37

    def test_dominates_tuned(self):
        rng = np.random.RandomState(17)
        for _ in range(6):
            values = random_prob_matrix_values(rng, 50, 3, 12)
            gold = (rng.rand(50, 3) < 0.3).astype(int)
            pm = mk_pm(values)
            tv = tune(pm, gold)
            _, best = oracle_best_thresholds(pm, gold)
            assert best >= tuned_macro_f1(pm, gold, tv) - 1e-12

    def test_beats_every_lattice_vector(self):
        rng = np.random.RandomState(23)
        values = random_prob_matrix_values(rng, 20, 2, 6)
        gold = (rng.rand(20, 2) < 0.4).astype(int)
        pm = mk_pm(values)
        _, best = oracle_best_thresholds(pm, gold)
        lattice = [k / 50.0 for k in range(51)]
        for t0 in lattice:
            for t1 in lattice:
                tv = ThresholdVector(
                    pm.label_names, np.array([t0, t1]), None, "oracle"
                )
                assert tuned_macro_f1(pm, gold, tv) <= best + 1e-12

    def test_guard(self):
        big = ProbabilityMatrix(
            ids=tuple(f"i{k}" for k in range(201)),
            label_names=("a",),
            values=np.full((201, 1), 0.5),
        )
        with pytest.raises(DataError, match="oracle guard"):
            oracle_best_thresholds(big, np.zeros((201, 1), dtype=int))
        wide = mk_pm(np.full((2, 5), 0.5))
        with pytest.raises(DataError, match="oracle guard"):
            oracle_best_thresholds(wide, np.zeros((2, 5), dtype=int))


class TestThresholdsFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.RandomState(3)
        values = random_prob_matrix_values(rng, 30, 3, 10)
        gold = (rng.rand(30, 3) < 0.3).astype(int)
        tv = tune(mk_pm(values, names=("pol", "rac", "rel")), gold)
        path = tmp_path / "thresholds.tsv"
        save_thresholds(tv, path)
        back = load_thresholds(path)
        assert back.label_names == tv.label_names
        assert np.array(back.theta).tobytes() == np.array(tv.theta).tobytes()
        assert back.base_theta == tv.base_theta
        assert back.provenance == "tuned"

    def test_none_base_round_trip(self, tmp_path):
        tv = ThresholdVector(("a",), np.array([0.25]), None, "oracle")
        path = tmp_path / "t.tsv"
        save_thresholds(tv, path)
        back = load_thresholds(path)
        assert back.base_theta is None
        assert back.provenance == "oracle"

    def test_layout(self, tmp_path):
        tv = ThresholdVector(("x", "y"), np.array([0.35, 0.4]), 0.35, "tuned")
        path = tmp_path / "t.tsv"
        save_thresholds(tv, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "__provenance__\ttuned"
        assert lines[1] == "__base__\t0.350000"
        assert lines[2] == "x\t0.350000"
        assert lines[3] == "y\t0.400000"

    def test_nan_and_bad_base_name_the_path(self, tmp_path):
        path = tmp_path / "bad.tsv"
        for text, message in (
            ("__provenance__\ttuned\n__base__\t0.5\nx\tnan\n", "NaN"),
            ("__provenance__\ttuned\n__base__\tnan\nx\t0.5\n", "NaN"),
            ("__provenance__\ttuned\n__base__\thalf\nx\t0.5\n", "bad threshold at line 2"),
        ):
            path.write_text(text)
            with pytest.raises(DataError, match=message) as info:
                load_thresholds(path)
            assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "cell, expected",
        [
            ("nan", "must lie in [0, 1] and not be NaN"),
            ("inf", "must lie in [0, 1] and not be NaN"),
            ("-0.0", "-0x0.0p+0"),
            ("1e-400", "0x0.0p+0"),  # underflows to +0.0, which is accepted
            ("1.0000000000000002", "must lie in [0, 1] and not be NaN"),
        ],
    )
    def test_edge_values_load_or_refuse_as_before(self, tmp_path, cell, expected):
        path = tmp_path / "edge.tsv"
        for what, text in (
            ("thresholds", f"__provenance__\ttuned\n__base__\t0.5\nx\t{cell}\n"),
            ("base_theta", f"__provenance__\ttuned\n__base__\t{cell}\nx\t0.5\n"),
        ):
            path.write_text(text)
            try:
                tv = load_thresholds(path)
            except DataError as exc:
                assert str(exc) == f"{path}: {what} {expected}"
                continue
            loaded = tv.theta[0] if what == "thresholds" else tv.base_theta
            assert type(loaded) is float and loaded.hex() == expected

    def test_malformed_files(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("x\t0.5\n")
        with pytest.raises(DataError, match="missing __provenance__"):
            load_thresholds(path)
        path.write_text("__provenance__\ttuned\n__base__\t0.5\nx 0.5\n")
        with pytest.raises(DataError, match="malformed line 3"):
            load_thresholds(path)
        path.write_text("__provenance__\ttuned\n__base__\t0.5\nx\tabc\n")
        with pytest.raises(DataError, match="bad threshold"):
            load_thresholds(path)
        path.write_bytes(b"__provenance__\ttuned\n__base__\t0.5\nx\xe9\t0.5\n")
        with pytest.raises(DataError, match="not valid UTF-8 at line 3") as info:
            load_thresholds(path)
        assert str(path) in str(info.value)
