"""Regenerate the golden output digests that ``tests/test_golden_digests.py`` checks.

    PYTHONPATH=src python3 tools/golden_digests.py

Runs a fixed set of small commands in process from a scratch directory and
writes the SHA-256 of every output file and of each command's stdout to
``tests/data/golden/digests.json``, next to numpy's version and the SIMD
targets it dispatches to on this machine: the model and probability bytes
depend on both. Run it only when a change alters output bytes on purpose,
and say which digests changed and why: it prints the name of every digest
that changed, was added or was removed against the file it replaces.

The cases: a ``subtask3`` synth corpus with its ``stats`` and ``pipeline``;
a ``subtask1`` corpus with a ``pipeline`` at ``--hash-dim 1048576``; an
iterative ``split`` of the first corpus and a ``train`` on its two halves, a
stratified ``split`` of the second, and a ``merge`` of the second with a
synth donor; two ``eval`` runs of the first pipeline's held-out
probabilities, one at the 0.5 default thresholds and one at its tuned
``--thresholds``, some of which differ from 0.5, and a machine-format
``eval`` of the second pipeline's held-out probabilities at its tuned
thresholds, whose ``polarized=1`` row is the figure ``tune`` maximizes on the
binary task. Four cases give
``--hash-dim``, every train flag and ``--val-fraction`` a value other than
its default: a ``pipeline`` of the first corpus with ``--warmup-ratio`` and
``--weighting none``, a ``pipeline`` of the second with ``--warmup-ratio 0``
(no warmup), a ``split`` of the first, and a ``train`` on the stratified
halves. Then decorated posts from
``perfbench/workloads.social_corpus``, scored with ``predict``, ``eval``
(machine and table) and ``tune`` against a model that a ``pipeline`` trains
on other posts from the same generator, and a ``train`` on that pipeline's
``train.jsonl`` and ``val.jsonl``, whose raw texts differ from their
normalized forms. A second ``predict`` scores more posts from that
generator, enough for several of ``predict_proba``'s row blocks and a
partial last one. Last, a small hand-written multi-label corpus in which one
label has no positives and one has no negatives: its ``stats`` prints an
``inf`` and a ``0.00`` ratio, and a ``train`` on its two halves takes the
positive-weight cap on the first label and the ``1/cap`` floor on the second.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden" / "digests.json"

SUBTASK3 = "stereotype,vilification,dehumanization,extreme_language,lack_of_empathy,invalidation"
SOCIAL_TRAIN_DOCS = 300
SOCIAL_SCORE_DOCS = 200
SOCIAL_BLOCKS_DOCS = 1000  # more than three scoring blocks of 256 rows, the last one partial

# (text, labels): "never" has no positives and "always" no negatives
EDGE_LABELS = "common,rare,never,always"
EDGE_ROWS = (
    ("the match was great fun", ["common", "always"]),
    ("rain again on the weekend", ["always"]),
    ("they never listen to anyone", ["common", "rare", "always"]),
    ("a quiet morning with coffee", ["always"]),
    ("what a loud and angry crowd", ["common", "always"]),
    ("the bus came late today", ["always"]),
    ("nobody asked for this nonsense", ["common", "always"]),
    ("fresh bread from the market", ["always"]),
    ("stop shouting at the referee", ["common", "rare", "always"]),
    ("long walk by the river", ["always"]),
    ("those people ruin everything", ["common", "always"]),
    ("new books at the library", ["always"]),
)


def _workloads():
    """``perfbench/workloads.py``, loaded by path: ``perfbench`` is not a package."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _commands(workloads):
    """(case, argv, output paths); each path is a file or a run directory."""
    yield "synth-subtask3", ["synth", "--n", "300", "--rates", "0.3,0.2,0.15,0.1,0.06,0.04", "--noise", "0.1",
                             "--labels", SUBTASK3, "--seed", "7", "--out", "c3.jsonl"], ["c3.jsonl"]
    yield "stats-subtask3", ["stats", "c3.jsonl", "--schema", "subtask3"], []
    yield "pipeline-subtask3", ["pipeline", "--data", "c3.jsonl", "--schema", "subtask3",
                                "--outdir", "run3", "--seed", "7"], ["run3"]
    yield "synth-subtask1", ["synth", "--n", "300", "--rates", "0.25", "--noise", "0.1",
                             "--labels", "polarized", "--seed", "8", "--out", "c1.jsonl"], ["c1.jsonl"]
    yield "pipeline-subtask1", ["pipeline", "--data", "c1.jsonl", "--schema", "subtask1", "--outdir", "run1",
                                "--seed", "8", "--hash-dim", "1048576"], ["run1"]
    yield "split-iterative", ["split", "c3.jsonl", "--schema", "subtask3", "--strategy", "iterative",
                              "--seed", "11", "--out-train", "s3-train.jsonl", "--out-val", "s3-val.jsonl"], [
        "s3-train.jsonl", "s3-val.jsonl"]
    yield "train-subtask3", ["train", "--train", "s3-train.jsonl", "--val", "s3-val.jsonl", "--schema", "subtask3",
                             "--seed", "11", "--out-model", "t3-model.bin", "--out-history", "t3-history.tsv"], [
        "t3-model.bin", "t3-history.tsv"]
    yield "split-stratified", ["split", "c1.jsonl", "--schema", "subtask1", "--strategy", "stratified",
                               "--seed", "12", "--out-train", "s1-train.jsonl", "--out-val", "s1-val.jsonl"], [
        "s1-train.jsonl", "s1-val.jsonl"]
    yield "synth-donor", ["synth", "--n", "600", "--rates", "0.5", "--labels", "polarized", "--seed", "13",
                          "--out", "donor.jsonl"], ["donor.jsonl"]
    yield "merge", ["merge", "--primary", "c1.jsonl", "--donor", "donor.jsonl", "--schema", "subtask1",
                    "--seed", "14", "--out", "merged.jsonl"], ["merged.jsonl"]
    yield "pipeline-social", ["pipeline", "--data", "social-train.jsonl", "--schema", "subtask2",
                              "--outdir", "model", "--seed", "9", *workloads.SOCIAL_TRAIN_FLAGS], ["model"]
    # decorated posts whose raw and normalized texts differ, through the train command
    yield "train-social", ["train", "--train", "model/train.jsonl", "--val", "model/val.jsonl", "--schema", "subtask2",
                           "--seed", "9", *workloads.SOCIAL_TRAIN_FLAGS,
                           "--out-model", "ts-model.bin", "--out-history", "ts-history.tsv"], [
        "ts-model.bin", "ts-history.tsv"]
    yield "predict-social", ["predict", "--model", "model/model.bin", "--data", "social-score.jsonl",
                             "--out", "score.probs"], ["score.probs"]
    yield "predict-social-blocks", ["predict", "--model", "model/model.bin", "--data", "social-blocks.jsonl",
                                    "--out", "blocks.probs"], ["blocks.probs"]
    gold = ["--probs", "score.probs", "--gold", "social-score.jsonl", "--schema", "subtask2"]
    yield "eval-machine", ["eval", *gold, "--thresholds", "model/thresholds.tsv", "--format", "machine",
                           "--out", "report.txt"], ["report.txt"]
    yield "eval-table", ["eval", *gold, "--thresholds", "model/thresholds.tsv", "--out", "report.tsv"], ["report.tsv"]
    # the first pipeline tuned some thresholds away from 0.5, the social one none
    yield "eval-default", ["eval", "--probs", "run3/eval.probs", "--gold", "run3/eval.jsonl", "--schema", "subtask3",
                           "--out", "report-default.tsv"], ["report-default.tsv"]
    yield "tune-social", ["tune", *gold, "--out", "tuned.tsv"], ["tuned.tsv"]
    # the binary report's "polarized=1" row is the figure that tune maximizes
    yield "eval-binary-machine", ["eval", "--probs", "run1/eval.probs", "--gold", "run1/eval.jsonl",
                                  "--schema", "subtask1", "--thresholds", "run1/thresholds.tsv",
                                  "--format", "machine", "--out", "report-binary.txt"], ["report-binary.txt"]
    yield "eval-tuned", ["eval", "--probs", "run3/eval.probs", "--gold", "run3/eval.jsonl", "--schema", "subtask3",
                         "--thresholds", "run3/thresholds.tsv", "--out", "report-tuned.tsv"], ["report-tuned.tsv"]
    # --hash-dim, every train flag and --val-fraction away from its default
    yield "pipeline-flags", ["pipeline", "--data", "c3.jsonl", "--schema", "subtask3", "--outdir", "run-flags",
                             "--seed", "15", "--val-fraction", "0.3", "--hash-dim", "4096",
                             "--learning-rate", "0.5", "--weight-decay", "0.001", "--max-epochs", "6", "--batch-size", "16",
                             "--warmup-ratio", "0.25", "--max-grad-norm", "0.5",
                             "--label-smoothing", "0.05", "--patience", "2", "--weighting", "none"], ["run-flags"]
    # the binary task with no warmup: the first update takes the full rate
    yield "pipeline-no-warmup", ["pipeline", "--data", "c1.jsonl", "--schema", "subtask1", "--outdir", "run-no-warmup",
                                 "--seed", "16", "--val-fraction", "0.25", "--warmup-ratio", "0",
                                 "--label-smoothing", "0.0"], ["run-no-warmup"]
    yield "split-val-fraction", ["split", "c3.jsonl", "--schema", "subtask3", "--val-fraction", "0.35",
                                 "--seed", "17", "--out-train", "v3-train.jsonl", "--out-val", "v3-val.jsonl"], [
        "v3-train.jsonl", "v3-val.jsonl"]
    yield "train-flags", ["train", "--train", "s1-train.jsonl", "--val", "s1-val.jsonl", "--schema", "subtask1",
                          "--seed", "18", "--hash-dim", "2048",
                          "--learning-rate", "0.1", "--weight-decay", "0.0", "--max-epochs", "5", "--batch-size", "8",
                          "--warmup-ratio", "0.02", "--max-grad-norm", "2.0", "--label-smoothing", "0.2",
                          "--patience", "4",
                          "--out-model", "tf-model.bin", "--out-history", "tf-history.tsv"], [
        "tf-model.bin", "tf-history.tsv"]
    yield "stats-edge", ["stats", "edge.jsonl", "--labels", EDGE_LABELS], []
    yield "train-edge", ["train", "--train", "edge-train.jsonl", "--val", "edge-val.jsonl", "--labels", EDGE_LABELS,
                         "--seed", "19", "--out-model", "te-model.bin", "--out-history", "te-history.tsv"], [
        "te-model.bin", "te-history.tsv"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cases(work: Path) -> dict[str, str]:
    """``{"<case>/<file>": sha256}`` for every output file and every stdout."""
    from polarpipe import cli, corpus

    workloads = _workloads()
    table = workloads.parse_emoji_table(Path(corpus.__file__).parent / "data" / "emoji_table.tsv")
    digests = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        posts = (
            ("social-train.jsonl", SOCIAL_TRAIN_DOCS, 3),
            ("social-score.jsonl", SOCIAL_SCORE_DOCS, 4),
            ("social-blocks.jsonl", SOCIAL_BLOCKS_DOCS, 5),
        )
        for name, n_docs, seed in posts:
            corpus.save_dataset(workloads.social_corpus(n_docs, seed, seed, table)[0], name)
            digests[f"social-corpus/{name}"] = _sha256(Path(name))
        half = len(EDGE_ROWS) // 2
        for name, rows in (("edge.jsonl", EDGE_ROWS), ("edge-train.jsonl", EDGE_ROWS[:half]),
                           ("edge-val.jsonl", EDGE_ROWS[half:])):
            Path(name).write_text("".join(
                json.dumps({"id": f"e{EDGE_ROWS.index(row)}", "text": row[0], "labels": row[1]}) + "\n"
                for row in rows), encoding="utf-8")
        for case, argv, outputs in _commands(workloads):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = cli.run(argv)
            if status != 0:
                raise RuntimeError(f"{case}: polarpipe {' '.join(argv)} exited {status}")
            digests[f"{case}/stdout"] = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
            for out in map(Path, outputs):
                for path in sorted(out.iterdir()) if out.is_dir() else [out]:
                    digests[f"{case}/{path.name}"] = _sha256(path)
    finally:
        os.chdir(cwd)
    return digests


def environment() -> dict:
    """numpy's version and the SIMD targets it dispatches to on this machine."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "dispatch": active}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        digests = run_cases(Path(work))
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"] if GOLDEN.exists() else {}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps({**environment(), "digests": digests}, indent=2, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {GOLDEN.relative_to(ROOT)}")
    for name in sorted(old.keys() | digests.keys()):
        if name not in old:
            print(f"added\t{name}")
        elif name not in digests:
            print(f"removed\t{name}")
        elif old[name] != digests[name]:
            print(f"changed\t{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
