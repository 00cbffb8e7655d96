"""Each checker passes on real program outputs and fails on a corrupted copy.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import checks
import hostspeed
import workloads
from polarpipe.cli import run
from polarpipe.corpus import preprocess, save_dataset

LABELS = ("a", "b", "c")


def _cli(*args: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(list(args)) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    """A small multi-label pipeline run: (run dir, corpus path, stdout)."""
    base = tmp_path_factory.mktemp("fit")
    corpus = base / "corpus.jsonl"
    _cli("synth", "--n", "400", "--rates", "0.4,0.2,0.1", "--noise", "0.05",
         "--labels", ",".join(LABELS), "--seed", "3", "--out", str(corpus))
    stdout = _cli("pipeline", "--data", str(corpus), "--labels", ",".join(LABELS),
                  "--outdir", str(base / "run"), "--hash-dim", "4096", "--seed", "3")
    return base / "run", corpus, stdout


@pytest.fixture
def run_copy(fit_run, tmp_path):
    run_dir, corpus, stdout = fit_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    shutil.copy2(corpus, tmp_path / corpus.name)
    return copy, tmp_path / corpus.name, stdout


def _printed_f1(stdout: str) -> float:
    return float(next(l for l in stdout.splitlines() if l.startswith("eval_macro_f1")).split("\t")[1])


def _eval_inputs(run_dir: Path):
    _, _, gold = checks.read_jsonl(run_dir / "eval.jsonl", LABELS)
    _, _, probs = checks.read_probs(run_dir / "eval.probs")
    _, thetas = checks.read_thresholds(run_dir / "thresholds.tsv")
    return probs, gold, thetas


def test_manifest_passes_and_fails_on_one_changed_byte(run_copy):
    run_dir, corpus, _ = run_copy
    assert checks.check_manifest(run_dir, corpus) > 0
    data = bytearray((run_dir / "train.jsonl").read_bytes())
    data[10] ^= 0x01
    (run_dir / "train.jsonl").write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailed, match="train.jsonl"):
        checks.check_manifest(run_dir, corpus)


def test_corpus_stats_pass_and_fail_on_one_changed_count(fit_run):
    _, corpus, _ = fit_run
    _, _, gold = checks.read_jsonl(corpus, LABELS)
    stdout = _cli("stats", str(corpus), "--labels", ",".join(LABELS))
    checks.check_corpus_stats(stdout, gold, LABELS)
    lines = stdout.splitlines()
    i = next(j for j, line in enumerate(lines) if line.startswith("b\t"))
    cells = lines[i].split("\t")
    cells[1] = str(int(cells[1]) + 1)
    lines[i] = "\t".join(cells)
    with pytest.raises(checks.CheckFailed, match="stats b"):
        checks.check_corpus_stats("\n".join(lines), gold, LABELS)
    with pytest.raises(checks.CheckFailed, match="no all_zero_rows"):
        checks.check_corpus_stats(stdout.replace("all_zero_rows", "zero_rows"), gold, LABELS)


def test_eval_f1_passes_and_fails_on_one_probability_across_its_threshold(run_copy):
    run_dir, _, stdout = run_copy
    probs, gold, thetas = _eval_inputs(run_dir)
    report = checks.read_report(run_dir / "report.tsv")
    checks.check_eval_f1(_printed_f1(stdout), probs, gold, thetas, LABELS, report)
    # a gold positive scored below its threshold moves just above it
    rows, labels = np.nonzero((gold == 1) & (probs < thetas))
    i, l = rows[0], labels[0]
    lines = (run_dir / "eval.probs").read_text().splitlines()
    cells = lines[i + 1].split("\t")
    cells[l + 1] = "%.17e" % (thetas[l] + 0.001)
    lines[i + 1] = "\t".join(cells)
    (run_dir / "eval.probs").write_text("\n".join(lines) + "\n")
    probs, gold, thetas = _eval_inputs(run_dir)
    with pytest.raises(checks.CheckFailed, match="printed macro-F1"):
        checks.check_eval_f1(_printed_f1(stdout), probs, gold, thetas, LABELS, report)


def test_eval_f1_fails_on_report_counts(run_copy):
    run_dir, _, stdout = run_copy
    probs, gold, thetas = _eval_inputs(run_dir)
    rows, n = checks.read_report(run_dir / "report.tsv")
    rows["a"]["fp"] += 1
    with pytest.raises(checks.CheckFailed, match="report a"):
        checks.check_eval_f1(_printed_f1(stdout), probs, gold, thetas, LABELS, (rows, n))


def test_two_class_view_scores_both_classes():
    gold = np.array([[1], [0], [0], [1]])
    pred = np.array([[1], [1], [0], [0]])
    rows = checks.confusion_rows(pred, gold, ("p",), two_class=True)
    assert rows == {"p=0": (1, 1, 1, 1), "p=1": (1, 1, 1, 1)}
    assert checks.macro_f1(rows) == 0.5


def test_partition_passes_and_fails(run_copy):
    run_dir, corpus, _ = run_copy
    whole, _, _ = checks.read_jsonl(corpus, LABELS)
    pool, _, _ = checks.read_jsonl(run_dir / "pool.jsonl", LABELS)
    held, _, _ = checks.read_jsonl(run_dir / "eval.jsonl", LABELS)
    checks.check_partition(whole, pool, held, 0.2, "carve")
    assert len(held) == math.floor(len(whole) * 0.2 + 0.5)
    with pytest.raises(checks.CheckFailed, match="both sides"):
        checks.check_partition(whole, pool, held + pool[:1], 0.2, "carve")
    with pytest.raises(checks.CheckFailed, match="cover"):
        checks.check_partition(whole, pool[1:], held, 0.2, "carve")
    with pytest.raises(checks.CheckFailed, match="expected"):
        checks.check_partition(whole, pool[1:], held + pool[:1], 0.2, "carve")


def test_thresholds_pass_and_fail(run_copy):
    run_dir, _, _ = run_copy
    names, thetas = checks.read_thresholds(run_dir / "thresholds.tsv")
    checks.check_thresholds(names, thetas, LABELS)
    for bad in (0.455, 0.95, 0.05, float("nan")):
        broken = thetas.copy()
        broken[0] = bad
        with pytest.raises(checks.CheckFailed):
            checks.check_thresholds(names, broken, LABELS)


def test_tuning_gain_passes_and_fails(run_copy):
    run_dir, _, _ = run_copy
    _, _, gold = checks.read_jsonl(run_dir / "val.jsonl", LABELS)
    _, _, probs = checks.read_probs(run_dir / "val.probs")
    _, thetas = checks.read_thresholds(run_dir / "thresholds.tsv")
    checks.check_tuning_gain(probs, gold, thetas, LABELS)
    gold = np.array([[1], [1], [0]])
    probs = np.array([[0.6], [0.7], [0.2]])
    with pytest.raises(checks.CheckFailed, match="validation macro-F1"):
        checks.check_tuning_gain(probs, gold, np.array([0.8]), ("p",))


def test_probabilities_pass_and_fail(run_copy):
    run_dir, _, _ = run_copy
    ids, _, _ = checks.read_jsonl(run_dir / "eval.jsonl", LABELS)
    p_ids, _, probs = checks.read_probs(run_dir / "eval.probs")
    checks.check_probabilities(p_ids, probs, ids, "eval")
    with pytest.raises(checks.CheckFailed, match="order"):
        checks.check_probabilities(p_ids[::-1], probs, ids, "eval")
    for bad in (float("nan"), 1.0, 0.0):
        broken = probs.copy()
        broken[3, 1] = bad
        with pytest.raises(checks.CheckFailed):
            checks.check_probabilities(p_ids, broken, ids, "eval")


def test_oracle_band():
    texts = ["filler01 topic0tok2 filler07", "topic1tok0 topic1tok3", "filler02"]
    assert checks.signal_oracle(texts, 2).tolist() == [[1, 0], [0, 1], [0, 0]]
    checks.check_oracle_band(0.60, oracle_f1=0.64, floor=0.40, slack=0.02)
    with pytest.raises(checks.CheckFailed, match="beats the signal oracle"):
        checks.check_oracle_band(0.67, oracle_f1=0.64, floor=0.40, slack=0.02)
    with pytest.raises(checks.CheckFailed, match="below the floor"):
        checks.check_oracle_band(0.39, oracle_f1=0.64, floor=0.40, slack=0.02)


@pytest.fixture(scope="module")
def social_sample(tmp_path_factory):
    table_file = resources.files("polarpipe").joinpath("data", "emoji_table.tsv")
    table = workloads.parse_emoji_table(Path(str(table_file)))
    ds, expected = workloads.social_corpus(200, 5, 6, table)
    path = tmp_path_factory.mktemp("social") / "social.jsonl"
    save_dataset(ds, path)
    ids, raws, _ = checks.read_jsonl(path, workloads.SUBTASK2)
    normalized = {i: preprocess(raw) for i, raw in zip(ids, raws)}
    return expected, normalized


def test_normalization_passes_on_the_program(social_sample):
    expected, normalized = social_sample
    again = {i: preprocess(t) for i, t in normalized.items()}
    checks.check_normalization(expected, normalized, again)


@pytest.mark.parametrize("kept", [" https://t.co/abc", " www.example.org/x", " #siasa", " @juma"])
def test_normalization_fails_when_a_text_keeps_a_url_or_hash(social_sample, kept):
    expected, normalized = social_sample
    broken = dict(normalized)
    ident = next(iter(broken))
    broken[ident] += kept
    for want in (expected, {**expected, ident: broken[ident]}):
        with pytest.raises(checks.CheckFailed):
            checks.check_normalization(want, broken, broken)


def test_normalization_fails_when_not_a_fixpoint(social_sample):
    expected, normalized = social_sample
    again = dict(normalized)
    ident = next(iter(again))
    again[ident] = again[ident] + " x"
    with pytest.raises(checks.CheckFailed, match="again"):
        checks.check_normalization(expected, normalized, again)


def test_same_outputs():
    checks.check_same_outputs({"a": "1", "b": "2"}, {"a": "1", "b": "2"}, "rerun")
    with pytest.raises(checks.CheckFailed, match="b differs"):
        checks.check_same_outputs({"a": "1", "b": "2"}, {"a": "1", "b": "3"}, "rerun")


def test_clock_scales_by_the_reference_on_either_side(monkeypatch):
    times = iter([9.0, 0.4, 0.8, 0.2])  # warm-up, before, after, after
    monkeypatch.setattr(hostspeed, "reference", lambda: next(times))
    clock = hostspeed.Clock()
    assert clock.scale(3.0) == pytest.approx(3.0 * hostspeed.NOMINAL_S / 0.6)
    assert clock.scale(1.0) == pytest.approx(1.0 * hostspeed.NOMINAL_S / 0.5)
    assert clock.refs == [0.4, 0.8, 0.2]
