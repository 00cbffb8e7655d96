"""End-to-end acceptance checks for the pipeline.

Each test covers one numbered release criterion and prints a single
``[criterion N] PASS/FAIL`` line with the measured numbers, so a plain
``pytest -v -s tests/test_acceptance.py`` reads as the acceptance report.
Criteria with a runtime budget enforce it with a wall-clock assert.
"""

import json
import time
from pathlib import Path

import numpy as np

from polarpipe import cli
from polarpipe.calibration import tune
from polarpipe.corpus import preprocess, save_dataset
from polarpipe.linear_model import TrainConfig, predict_proba, train
from polarpipe.metrics import confusion, evaluate, macro_f1, micro_f1
from polarpipe.probs import ProbabilityMatrix
from polarpipe.splitter import SplitConfig, balanced_merge, iterative_stratified_split, stratified_split
from polarpipe.synth import generate_synthetic

from helpers import fd_max_rel_err, oracle_best_thresholds, random_fd_case, tuned_macro_f1

GOLDEN_PATH = Path(__file__).parent / "data" / "preprocess_golden.jsonl"


def _check(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _mk_pm(values: np.ndarray) -> ProbabilityMatrix:
    return ProbabilityMatrix(
        ids=tuple(f"i{k}" for k in range(values.shape[0])),
        label_names=tuple(f"l{j}" for j in range(values.shape[1])),
        values=values,
    )


def test_criterion_01_tuned_thresholds_near_exhaustive_oracle():
    # 20 seeded 50x3 matrices, each label drawing from a shared palette of
    # 12 lattice values; gold is sampled from a sharpened copy of the scores
    # so they are informative but under-confident, like an undertrained
    # classifier. Tuned macro-F1 must reach 95% of the exhaustive oracle in
    # every case and match it exactly in at least 16.
    t0 = time.perf_counter()
    equal = 0
    worst_ratio = 1.0
    for seed in range(20):
        rng = np.random.RandomState(seed)
        palette = rng.choice(np.arange(15, 86), size=12, replace=False) / 100.0
        values = np.column_stack([palette[rng.randint(0, 12, size=50)] for _ in range(3)])
        rates = np.clip(0.5 + 2.0 * (values - 0.5), 0.0, 1.0)
        gold = (rng.rand(50, 3) < rates).astype(int)
        pm = _mk_pm(values)
        tuned = tuned_macro_f1(pm, gold, tune(pm, gold))
        _, best = oracle_best_thresholds(pm, gold)
        worst_ratio = min(worst_ratio, tuned / best if best > 0 else 1.0)
        equal += abs(tuned - best) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst_ratio >= 0.95 and equal >= 16 and elapsed < 5.0
    _check(
        1,
        ok,
        f"worst tuned/oracle ratio {worst_ratio:.4f} (floor 0.95), "
        f"exact matches {equal}/20 (floor 16), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_02_tuning_gain_on_imbalanced_multilabel():
    # Five labels at rates 35.7% down to 2.2%, N=3000, 10% label noise.
    # Training runs unweighted so this criterion isolates the thresholding
    # contribution; criterion 3 isolates the weighting contribution. The
    # evaluation slice is carved before tuning and the tuner only ever sees
    # validation probabilities.
    t0 = time.perf_counter()
    ds = generate_synthetic(
        3000, [0.357, 0.10, 0.05, 0.022, 0.08], noise=0.1, seed=42
    )
    carve = iterative_stratified_split(ds, SplitConfig(val_fraction=0.2, seed=42))
    split = iterative_stratified_split(carve.train, SplitConfig(val_fraction=0.2, seed=42))
    model, _ = train(split.train, split.val, TrainConfig(weighting="none"))

    gold_val = np.array([inst.labels for inst in split.val.instances], dtype=np.int64)
    tv = tune(predict_proba(model, split.val), gold_val)

    eval_pm = predict_proba(model, carve.val)
    at_default = evaluate(eval_pm, carve.val, [0.5] * 5).macro_f1
    at_tuned = evaluate(eval_pm, carve.val, tv.theta).macro_f1
    elapsed = time.perf_counter() - t0
    gain = at_tuned - at_default
    ok = gain >= 0.15 and elapsed < 120.0
    _check(
        2,
        ok,
        f"held-out macro-F1 {at_default:.4f} -> {at_tuned:.4f}, "
        f"gain {gain:.4f} (floor 0.15), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_03_class_weighting_gain_on_rare_binary():
    # 95/5 binary corpus, N=2000, 5% noise; both arms share the seed and
    # differ only in the weighting mode. Macro-F1 compared at threshold 0.5.
    t0 = time.perf_counter()
    ds = generate_synthetic(2000, [0.05], noise=0.05, seed=42)
    split = stratified_split(ds, SplitConfig(val_fraction=0.2, seed=42))
    scores = {}
    for mode in ("balanced", "none"):
        model, _ = train(split.train, split.val, TrainConfig(weighting=mode))
        pm = predict_proba(model, split.val)
        scores[mode] = evaluate(pm, split.val, [0.5]).macro_f1
    elapsed = time.perf_counter() - t0
    gap = scores["balanced"] - scores["none"]
    ok = gap >= 0.05 and elapsed < 60.0
    _check(
        3,
        ok,
        f"balanced {scores['balanced']:.4f} vs unweighted {scores['none']:.4f}, "
        f"gap {gap:.4f} (floor 0.05), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_04_analytic_gradients_match_finite_differences():
    # 100 random (model, batch, pos-weight, smoothing) tuples; every weight
    # and bias coordinate checked against central differences.
    rng = np.random.RandomState(20260819)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, fd_max_rel_err(*random_fd_case(rng)))
    ok = worst < 1e-4
    _check(4, ok, f"worst relative gradient error {worst:.3e} (limit 1e-4)")


def test_criterion_05_iterative_split_preserves_label_rates():
    # 20 seeds at N=200 with label rates 50%/10%/2%: every label's validation
    # rate stays within 2 points of its corpus rate, the split partitions the
    # corpus at the exact requested size, and resplitting reproduces it.
    worst_gap = 0.0
    for seed in range(20):
        ds = generate_synthetic(200, [0.5, 0.1, 0.02], seed=seed)
        cfg = SplitConfig(val_fraction=0.2, seed=seed)
        split = iterative_stratified_split(ds, cfg)
        total = np.array([inst.labels for inst in ds.instances], dtype=float)
        val = np.array([inst.labels for inst in split.val.instances], dtype=float)
        worst_gap = max(worst_gap, float(np.abs(val.mean(0) - total.mean(0)).max()))

        assert len(split.val) == 40 and len(split.train) == 160
        assert sorted(split.train.ids + split.val.ids) == sorted(ds.ids)
        again = iterative_stratified_split(ds, cfg)
        assert again.train.ids == split.train.ids and again.val.ids == split.val.ids
    ok = worst_gap <= 0.02
    _check(5, ok, f"worst val-rate deviation {worst_gap:.4f} (limit 0.02) over 20 seeds")


def test_criterion_06_metric_golden_values():
    pred = np.array([[1, 0], [0, 0], [1, 1], [0, 1]])
    gold = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
    counts = confusion(pred, gold, ("a", "b"))
    hand = macro_f1(counts)
    pooled = micro_f1(counts)

    perfect = confusion(gold, gold, ("a", "b"))
    empty = confusion(np.zeros((3, 1), dtype=int), np.zeros((3, 1), dtype=int), ("z",))
    ok = (
        hand == 0.75
        and pooled == 0.75
        and macro_f1(perfect) == 1.0
        and empty[0].f1 == 0.0
    )
    _check(
        6,
        ok,
        f"4x2 hand case macro {hand} micro {pooled} (expect exactly 0.75), "
        f"perfect {macro_f1(perfect)}, all-negative label F1 {empty[0].f1}",
    )


def test_criterion_07_balanced_merge_doubles_primary():
    primary = generate_synthetic(3222, [0.022], seed=42)
    donor = generate_synthetic(7000, [0.5], seed=43)
    merged = balanced_merge(primary, donor, seed=42)
    n_pos = sum(inst.labels[0] for inst in merged.instances)
    ok = (
        len(merged) == 6444
        and n_pos == 3222
        and len(set(merged.ids)) == 6444
        and set(primary.ids) <= set(merged.ids)
    )
    _check(7, ok, f"merged {len(merged)} instances (expect 6444), {n_pos} positive (expect 3222)")


def test_criterion_08_pipeline_reruns_byte_identical(tmp_path):
    data = tmp_path / "corpus.jsonl"
    save_dataset(generate_synthetic(400, [0.4, 0.12, 0.05], noise=0.1, seed=7), data)
    outs = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        rc = cli.run(
            [
                "pipeline",
                "--data", str(data),
                "--labels", "label0,label1,label2",
                "--outdir", str(outdir),
                "--seed", "42",
                "--hash-dim", "65536",
                "--max-epochs", "3",
            ]
        )
        assert rc == 0
        outs.append(outdir)

    identical = {
        name: (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("manifest.json", "model.bin", "thresholds.tsv", "report.tsv")
    }
    ok = all(identical.values())
    _check(8, ok, f"byte-identical artifacts across reruns: {identical}")


def test_criterion_09_preprocessing_golden_and_idempotent():
    cases = [json.loads(line) for line in GOLDEN_PATH.read_text().splitlines() if line]
    assert len(cases) == 30
    mismatches = [c["name"] for c in cases if preprocess(c["raw"]) != c["expected"]]

    chunks = [
        "😊", "🔥", "🤦‍♂️", "🇺🇸", "🧿", "\U0001f9a9",
        "http://x.co", "https://Y.org/z", "www.a.b", "http://",
        "@user", "@", "#tag", "#", "##",
        "Hello", "WORLD", "MiXeD", "café", "中文", "a-b_c", "42",
        " ", "  ", "\t", "\n",
    ]
    rng = np.random.RandomState(99)
    unstable = 0
    for _ in range(1000):
        text = "".join(chunks[i] for i in rng.randint(0, len(chunks), size=rng.randint(0, 13)))
        once = preprocess(text)
        if preprocess(once) != once:
            unstable += 1
    ok = not mismatches and unstable == 0
    _check(
        9,
        ok,
        f"golden mismatches {mismatches or 'none'} of 30, "
        f"non-idempotent fuzz cases {unstable} of 1000",
    )
