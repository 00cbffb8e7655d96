"""Each command loads only the modules it runs, and the benchmark's tracer still
finds every layer.

Both run commands in fresh interpreters, because the test process itself has
imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polarpipe.cli import run
from polarpipe.corpus import save_dataset
from polarpipe.synth import generate_synthetic

_ROOT = Path(__file__).resolve().parent.parent
_ENV = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
_LABELS = "label0,label1"

# runs one command, then prints the polarpipe modules loaded and whether
# the emoji pattern was built
_PROBE = (
    "import json, sys\n"
    "from polarpipe import cli, corpus\n"
    "status = cli.run(sys.argv[1:])\n"
    "print(json.dumps({'status': status, 'emoji_built': corpus._emoji_sub.cache_info().currsize > 0,\n"
    "    'modules': sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('polarpipe.'))}))\n"
)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A small corpus and the pipeline run on it: model, probabilities, gold."""
    root = tmp_path_factory.mktemp("commands")
    save_dataset(generate_synthetic(120, [0.4, 0.2], noise=0.05, seed=21), root / "d.jsonl")
    args = ["pipeline", "--data", str(root / "d.jsonl"), "--labels", _LABELS,
            "--outdir", str(root / "run"), "--max-epochs", "2", "--hash-dim", "4096"]
    assert run(args) == 0
    return root


def _commands(root: Path) -> dict[str, list[str]]:
    gold = str(root / "run" / "eval.jsonl")
    probs = str(root / "run" / "eval.probs")
    return {
        "predict": ["predict", "--model", str(root / "run" / "model.bin"), "--data", gold,
                    "--out", str(root / "p.probs")],
        "eval": ["eval", "--probs", probs, "--gold", gold, "--labels", _LABELS,
                 "--thresholds", str(root / "run" / "thresholds.tsv"), "--out", str(root / "r.tsv")],
        "tune": ["tune", "--probs", probs, "--gold", gold, "--labels", _LABELS, "--out", str(root / "t.tsv")],
        "stats": ["stats", str(root / "d.jsonl"), "--labels", _LABELS],
        "synth": ["synth", "--n", "20", "--rates", "0.3", "--out", str(root / "s.jsonl")],
        "pipeline": ["pipeline", "--data", str(root / "d.jsonl"), "--labels", _LABELS,
                     "--outdir", str(root / "traced"), "--max-epochs", "2", "--hash-dim", "4096"],
    }


# command: (modules it must not load, whether it may build the emoji pattern)
_NOT_LOADED = {
    "predict": ({"calibration", "metrics", "weighting", "splitter", "manifest", "synth"}, True),
    "eval": ({"linear_model", "weighting", "splitter", "manifest", "synth"}, False),
    "tune": ({"linear_model", "weighting", "splitter", "manifest", "synth"}, False),
    "stats": ({"linear_model", "metrics", "calibration", "splitter", "manifest"}, True),
    "synth": ({"linear_model", "metrics", "calibration", "splitter", "manifest"}, True),
}


@pytest.mark.parametrize("cmd", sorted(_NOT_LOADED))
def test_command_loads_only_its_modules(run_dir, cmd):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *_commands(run_dir)[cmd]],
        env=_ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["status"] == 0, proc.stderr
    not_loaded, may_build_emoji = _NOT_LOADED[cmd]
    assert not_loaded.isdisjoint(probe["modules"]), probe["modules"]
    if not may_build_emoji:
        assert not probe["emoji_built"]


# the layers the tracer records for each command, as it did while every
# stage function was imported at the top of polarpipe.cli
_LAYERS = {
    "predict": {
        "corpus.load_dataset", "linear_model.load_model", "linear_model.predict_proba",
        "linear_model.featurize_all", "kernels.hash_ngrams", "kernels.csr_logits",
        "probs.save_probabilities",
    },
    "eval": {"probs.load_probabilities", "metrics.evaluate", "kernels.sweep_confusion"},
    "pipeline": {
        "corpus.load_dataset", "corpus.save_dataset", "splitter.split", "linear_model.train",
        "linear_model.featurize_all", "linear_model.predict_proba", "linear_model.save_model",
        "calibration.tune", "metrics.evaluate", "probs.save_probabilities", "manifest.file_digest",
        "kernels.hash_ngrams", "kernels.csr_logits", "kernels.csr_grad_weights",
        "kernels.sweep_confusion",
    },
}


@pytest.mark.parametrize("cmd", sorted(_LAYERS))
def test_tracer_finds_every_layer(run_dir, cmd):
    spans_path = run_dir / f"spans-{cmd}.json"
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "tracer.py"), str(spans_path), *_commands(run_dir)[cmd]],
        env=_ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert not [line for line in proc.stderr.splitlines() if line.startswith("tracer:")], proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    recorded = {name for name, _start, _end, _parent in spans["spans"]}
    assert _LAYERS[cmd] <= recorded, _LAYERS[cmd] - recorded
    assert all(spans["counts"][f"{layer}.calls"] >= 1 for layer in _LAYERS[cmd])
