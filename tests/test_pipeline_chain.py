"""``pipeline`` writes what the commands write when run in sequence.

For a binary and a multi-label corpus, carving the held-out set and taking it
from ``--eval-data``, every file of the pipeline's run directory except the
manifest must equal, byte for byte, the file that ``split``, ``train``,
``predict``, ``tune``, ``predict`` and ``eval`` write with the same seed and
flags. The metrics the manifest records for ``train``, ``tune`` and ``eval``
must be what those commands print.
"""

import pytest

from polarpipe.cli import run
from polarpipe.corpus import save_dataset
from polarpipe.manifest import load_manifest
from polarpipe.synth import generate_synthetic

_SEED = "7"
_FIT_FLAGS = ["--max-epochs", "3", "--hash-dim", "4096", "--seed", _SEED]

# name: (positive rates, label names, noise)
_CORPORA = {
    "binary": ([0.3], "polarized", 0.1),
    "multilabel": ([0.4, 0.2, 0.08], "a,b,c", 0.1),
}


def _chain(root, data, eval_data, labels, capsys):
    """Run the commands in turn, writing into ``root`` the files the pipeline writes.

    Returns each command's stdout as ``{key: value}``, keyed by the command.
    """
    schema = ["--labels", labels]
    if eval_data is None:
        eval_data = root / "eval.jsonl"
        pool = root / "pool.jsonl"
        assert run(["split", str(data), *schema, "--val-fraction", "0.2", "--seed", _SEED,
                    "--out-train", str(pool), "--out-val", str(eval_data)]) == 0
    else:
        pool = data
    steps = [
        ["split", str(pool), *schema, "--val-fraction", "0.2", "--seed", _SEED,
         "--out-train", str(root / "train.jsonl"), "--out-val", str(root / "val.jsonl")],
        ["train", "--train", str(root / "train.jsonl"), "--val", str(root / "val.jsonl"), *schema,
         *_FIT_FLAGS, "--out-model", str(root / "model.bin"), "--out-history", str(root / "history.tsv")],
        ["predict", "--model", str(root / "model.bin"), "--data", str(root / "val.jsonl"),
         "--out", str(root / "val.probs")],
        ["tune", "--probs", str(root / "val.probs"), "--gold", str(root / "val.jsonl"), *schema,
         "--out", str(root / "thresholds.tsv")],
        ["predict", "--model", str(root / "model.bin"), "--data", str(eval_data),
         "--out", str(root / "eval.probs")],
        ["eval", "--probs", str(root / "eval.probs"), "--gold", str(eval_data), *schema,
         "--thresholds", str(root / "thresholds.tsv"), "--out", str(root / "report.tsv")],
    ]
    printed = {}
    for argv in steps:
        assert run(argv) == 0, argv
        printed[argv[0]] = _fields(capsys.readouterr().out)
    return printed


def _fields(stdout):
    return dict(line.split("\t", 1) for line in stdout.splitlines())


def _as_printed(key, value):
    """A manifest metric in its command's format."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.2f}" if key == "base_theta" else f"{value:.6f}"
    return str(value)


@pytest.mark.parametrize("carving", [True, False], ids=["carve", "eval-data"])
@pytest.mark.parametrize("corpus", sorted(_CORPORA))
def test_pipeline_equals_the_commands_in_sequence(tmp_path, capsys, corpus, carving):
    rates, labels, noise = _CORPORA[corpus]
    names = labels.split(",")
    data = tmp_path / "d.jsonl"
    save_dataset(generate_synthetic(240, rates, noise=noise, seed=31, label_names=names), data)
    eval_data = None
    argv = ["pipeline", "--data", str(data), "--labels", labels, "--outdir", str(tmp_path / "run"),
            "--eval-fraction", "0.2", "--val-fraction", "0.2", *_FIT_FLAGS]
    if not carving:
        eval_data = tmp_path / "h.jsonl"
        heldout = generate_synthetic(60, rates, noise=noise, seed=32, label_names=names)
        save_dataset(heldout, eval_data)
        argv += ["--eval-data", str(eval_data)]
    assert run(argv) == 0
    pipeline_printed = _fields(capsys.readouterr().out)
    (tmp_path / "chain").mkdir()
    printed = _chain(tmp_path / "chain", data, eval_data, labels, capsys)

    stages = {s.name: s for s in load_manifest(tmp_path / "run" / "manifest.json").stages}
    for command in ("train", "tune", "eval"):
        recorded = {k: _as_printed(k, v) for k, v in stages[command].metrics.items()}
        assert printed[command] == recorded, command
    for key in ("macro_f1", "micro_f1"):
        assert printed["eval"][key] == pipeline_printed[f"eval_{key}"], key

    written = sorted(p.name for p in (tmp_path / "run").iterdir() if p.name != "manifest.json")
    expected = ["eval.probs", "history.tsv", "model.bin", "report.tsv", "thresholds.tsv",
                "train.jsonl", "val.jsonl", "val.probs"]
    if carving:
        expected += ["eval.jsonl", "pool.jsonl"]
    assert written == sorted(expected)
    for name in written:
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "chain" / name).read_bytes(), name
