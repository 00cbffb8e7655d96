"""Each command loads only the modules it runs, ``eval``, ``tune``,
``stats``, ``synth``, ``split`` and ``merge`` run without numpy, no command loads
``numpy.random`` or OpenSSL's ``_hashlib``, and the benchmark's tracer still
finds every layer.

Both run commands in fresh interpreters, because the test process itself has
imported every module.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polarpipe
from polarpipe.cli import run
from polarpipe.corpus import save_dataset
from polarpipe.synth import generate_synthetic

_ROOT = Path(__file__).resolve().parent.parent
# the children import the same polarpipe as this process, wherever it came from
_ENV = {**os.environ, "PYTHONPATH": str(Path(polarpipe.__file__).resolve().parent.parent)}
_LABELS = "label0,label1"
# whether this interpreter has CPython's built-in SHA-256 (``_sha2`` on 3.12+,
# ``_sha256`` before); without it the manifest digests through hashlib
_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))

# runs one command, then prints the polarpipe modules loaded, whether the
# emoji pattern was built and whether numpy, numpy.random and _hashlib were
# imported
_PROBE = (
    "import json, sys\n"
    "from polarpipe import cli, corpus\n"
    "status = cli.run(sys.argv[1:])\n"
    "print(json.dumps({'status': status, 'emoji_built': corpus._emoji_sub.cache_info().currsize > 0,\n"
    "    'numpy': 'numpy' in sys.modules, 'numpy_random': 'numpy.random' in sys.modules,\n"
    "    'openssl': '_hashlib' in sys.modules,\n"
    "    'modules': sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('polarpipe.'))}))\n"
)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A small corpus and the pipeline run on it: model, probabilities, gold."""
    root = tmp_path_factory.mktemp("commands")
    save_dataset(generate_synthetic(120, [0.4, 0.2], noise=0.05, seed=21), root / "d.jsonl")
    save_dataset(generate_synthetic(60, [0.3], seed=22), root / "b.jsonl")
    save_dataset(generate_synthetic(150, [0.5], seed=23), root / "donor.jsonl")
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
        "synth": ["synth", "--n", "20", "--rates", "0.3,0.1", "--noise", "0.1", "--out", str(root / "s.jsonl")],
        "split": ["split", str(root / "d.jsonl"), "--labels", _LABELS, "--out-train", str(root / "t.jsonl"),
                  "--out-val", str(root / "v.jsonl")],
        "merge": ["merge", "--primary", str(root / "b.jsonl"), "--donor", str(root / "donor.jsonl"),
                  "--labels", "label0", "--out", str(root / "m.jsonl")],
        "train": ["train", "--train", str(root / "run" / "train.jsonl"), "--val", str(root / "run" / "val.jsonl"),
                  "--labels", _LABELS, "--max-epochs", "2", "--hash-dim", "4096", "--out-model", str(root / "m.bin")],
        "pipeline": ["pipeline", "--data", str(root / "d.jsonl"), "--labels", _LABELS,
                     "--outdir", str(root / "traced"), "--max-epochs", "2", "--hash-dim", "4096"],
    }


# command: (modules it must not load, whether it may build the emoji pattern,
# whether it may import numpy). No command may import numpy.random, nor
# _hashlib where the interpreter has the built-in SHA-256.
_NOT_LOADED = {
    "predict": ({"calibration", "metrics", "weighting", "splitter", "manifest", "synth"}, True, True),
    "eval": ({"linear_model", "weighting", "splitter", "manifest", "synth"}, False, False),
    "tune": ({"linear_model", "weighting", "splitter", "manifest", "synth"}, False, False),
    "stats": ({"linear_model", "metrics", "calibration", "splitter", "manifest"}, False, False),
    "synth": ({"linear_model", "metrics", "calibration", "splitter", "manifest"}, True, False),
    "split": ({"linear_model", "metrics", "calibration", "weighting", "manifest", "synth"}, True, False),
    "merge": ({"linear_model", "metrics", "calibration", "weighting", "manifest", "synth"}, True, False),
    "train": ({"calibration", "splitter", "manifest", "synth"}, True, True),
    "pipeline": ({"synth"}, True, True),
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
    not_loaded, may_build_emoji, may_load_numpy = _NOT_LOADED[cmd]
    assert not_loaded.isdisjoint(probe["modules"]), probe["modules"]
    if not may_build_emoji:
        assert not probe["emoji_built"]
    if not may_load_numpy:
        assert not probe["numpy"]
    assert not probe["numpy_random"]
    if _BUILTIN_SHA256:
        assert not probe["openssl"]


# refuses every import of numpy that follows it
_BLOCK_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked")
        return None

sys.meta_path.insert(0, BlockNumpy())
"""
_RUN = "import sys\nfrom polarpipe import cli\nsys.exit(cli.run(sys.argv[1:]))\n"


def _runs_with_and_without_numpy(argv: list[str], outputs: list[Path]) -> dict:
    """The stdout and output bytes of a command, run as is (False) and with numpy blocked (True)."""
    runs = {}
    for blocked in (False, True):
        # each side's bytes must come from its own run
        for path in outputs:
            path.unlink(missing_ok=True)
        code = (_BLOCK_NUMPY if blocked else "") + _RUN
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=_ENV, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        runs[blocked] = (proc.stdout, [path.read_bytes() for path in outputs])
    return runs


@pytest.mark.parametrize("fmt", ["machine", "table"])
def test_eval_runs_with_numpy_blocked(run_dir, fmt):
    report = run_dir / f"report-{fmt}.tsv"
    argv = [*_commands(run_dir)["eval"][:-1], str(report), "--format", fmt]
    runs = _runs_with_and_without_numpy(argv, [report])
    assert runs[True] == runs[False]


def test_tune_runs_with_numpy_blocked(run_dir):
    argv = _commands(run_dir)["tune"]
    runs = _runs_with_and_without_numpy(argv, [Path(argv[argv.index("--out") + 1])])
    assert runs[True] == runs[False]


@pytest.mark.parametrize("cmd", ["synth", "split", "merge"])
def test_drawing_commands_run_with_numpy_blocked(run_dir, cmd):
    argv = _commands(run_dir)[cmd]
    outputs = [Path(argv[i + 1]) for i, flag in enumerate(argv) if flag in ("--out", "--out-train", "--out-val")]
    runs = _runs_with_and_without_numpy(argv, outputs)
    assert runs[True] == runs[False]


# refuses CPython's built-in SHA-256, so the manifest falls back to hashlib
_BLOCK_BUILTIN_SHA256 = """
import sys

sys.modules["_sha256"] = sys.modules["_sha2"] = None
"""
_RUN_REPORTING_OPENSSL = (
    "import sys\nfrom polarpipe import cli\nstatus = cli.run(sys.argv[1:])\n"
    "print('openssl', '_hashlib' in sys.modules)\nsys.exit(status)\n"
)


def test_pipeline_manifest_is_the_same_from_hashlib(run_dir):
    argv = _commands(run_dir)["pipeline"]
    outdir_at = argv.index("--outdir") + 1
    runs = {}
    for blocked in (False, True):
        argv[outdir_at] = str(run_dir / f"sha-{blocked}")
        code = (_BLOCK_BUILTIN_SHA256 if blocked else "") + _RUN_REPORTING_OPENSSL
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=_ENV, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        # only the blocked run falls back to OpenSSL
        assert proc.stdout.splitlines()[-1] == f"openssl {blocked or not _BUILTIN_SHA256}"
        runs[blocked] = (Path(argv[outdir_at]) / "manifest.json").read_bytes()
    assert runs[True] == runs[False]


# the layers the tracer records for each command, as it did while every
# layer function was imported at the top of polarpipe.cli
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
