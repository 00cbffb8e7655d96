"""Property test of the command line's exit statuses.

Each example runs one command in process with a drawn set of flags. Whatever
the draw, ``run`` returns 0, 1 or 2, lets no exception escape, raises no
warning, and a status of 1 leaves exactly one ``error: `` line on stderr.
"""

import contextlib
import io
import os
import shutil
import warnings

import pytest
from hypothesis import given, strategies as st

from polarpipe.cli import run


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    """The fixed input files: a corpus, model, probabilities and thresholds of each kind."""
    base = tmp_path_factory.mktemp("fuzz-cli")

    def ok(*argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run([*argv]) == 0, argv

    d = str(base)
    ok("synth", "--n", "40", "--rates", "0.4", "--noise", "0.1", "--seed", "5", "--out", f"{d}/binary.jsonl")
    ok("synth", "--n", "100", "--rates", "0.5", "--seed", "6", "--out", f"{d}/donor.jsonl")
    ok("synth", "--n", "40", "--rates", "0.4,0.3", "--labels", "a,b", "--seed", "7", "--out", f"{d}/multi.jsonl")
    for kind, schema in (("binary", ["--schema", "subtask1"]), ("multi", ["--labels", "a,b"])):
        ok("train", "--train", f"{d}/{kind}.jsonl", "--val", f"{d}/{kind}.jsonl", *schema,
           "--hash-dim", "1024", "--max-epochs", "1", "--out-model", f"{d}/{kind}.bin")
        ok("predict", "--model", f"{d}/{kind}.bin", "--data", f"{d}/{kind}.jsonl", "--out", f"{d}/{kind}.probs")
        ok("tune", "--probs", f"{d}/{kind}.probs", "--gold", f"{d}/{kind}.jsonl", *schema,
           "--out", f"{d}/{kind}.tsv")
    (base / "garbage.txt").write_bytes(b"\xff\x00not a file of any kind\n")
    return base


# Each example picks a corpus kind, binary or multi-label. Every value is
# drawn from the valid values for that kind, except for at most two, drawn
# from the other palette of their type: boundary, NaN, infinite, negative,
# wrong-typed and empty values. A path draws a file of the wrong kind, a
# missing file, a directory or the empty string. An example runs in a fresh
# directory inside the one that holds the input files, so an input is
# ``../name`` and an empty path names the example's own directory.
_INPUTS = [
    f"../{kind}.{ext}" for kind in ("binary", "multi") for ext in ("jsonl", "bin", "probs", "tsv")
] + ["../donor.jsonl", "../garbage.txt", "../missing.jsonl", "..", ""]
# kind: its valid files and schema flags
_KINDS = {
    "binary": {
        "data": ["../binary.jsonl"],
        "donor": ["../donor.jsonl"],
        "schema": [["--schema", "subtask1"], ["--labels", "polarized"]],
        "model": ["../binary.bin"],
        "probs": ["../binary.probs"],
        "thresholds": ["../binary.tsv"],
    },
    "multi": {
        "data": ["../multi.jsonl"],
        "donor": ["../multi.jsonl"],
        "schema": [["--labels", "a,b"]],
        "model": ["../multi.bin"],
        "probs": ["../multi.probs"],
        "thresholds": ["../multi.tsv"],
    },
}
_BAD_SCHEMAS = [
    [], ["--schema", "subtask1", "--labels", "polarized"], ["--schema", "subtask2"],
    ["--schema", "bogus"], ["--labels", ""], ["--labels", ","], ["--labels", "a\tb"], ["--labels", "b,a"],
]
_BAD_INT = ["0", "-1", "nan", "inf", "1.5", "abc", ""]
_BAD_FLOAT = ["0", "1", "nan", "inf", "-0.5", "abc", ""]
_BAD_CHOICE = ["bogus", ""]

# a flag's values: (valid values, or the name of the kind's valid files;
# other values)
_DATA = ("data", _INPUTS)
_OUT = (["out", "out.jsonl"], [".", "no/such/out", ""])
_FRACTION = (["0.2", "0.5"], _BAD_FLOAT)
_FEATURIZER_FLAGS = {
    "--hash-dim": (["1024", "4096"], ["1000", "512", str(2**62), str(2**64), "-1024", "nan", "1024.0", ""]),
}
_TRAIN_FLAGS = {
    "--learning-rate": (["0.02", "0.5"], _BAD_FLOAT),
    "--weight-decay": (["0", "0.01"], _BAD_FLOAT),
    "--max-epochs": (["0", "1", "3"], ["-1", "nan", "inf", "1.5", "abc", ""]),  # at most 3
    "--batch-size": (["1", "8"], _BAD_INT),
    "--warmup-ratio": (["0", "0.1", "1"], _BAD_FLOAT),
    "--max-grad-norm": (["1", "inf"], _BAD_FLOAT),
    "--label-smoothing": (["0", "0.1"], _BAD_FLOAT),
    "--patience": (["1", "3"], _BAD_INT),  # at most 3
    "--weighting": (["balanced", "none"], _BAD_CHOICE),
}
_SEED = {"--seed": (["0", "42", str(2**32 - 1)], [str(2**32), "-1", "1.5", "nan", ""])}
_STRATEGY = {"--strategy": (["auto", "stratified", "iterative"], _BAD_CHOICE)}
_BINARY_MODE = {"--binary-mode": (["two-class-macro", "positive-f1"], _BAD_CHOICE)}

# command: (whether it takes a data file as its positional, whether it takes
# a schema, its required flags, its optional flags)
_COMMANDS = {
    "stats": (True, True, {}, {}),
    "split": (
        True, True,
        {"--out-train": _OUT, "--out-val": _OUT},
        {**_SEED, "--val-fraction": _FRACTION, **_STRATEGY},
    ),
    "merge": (False, True, {"--primary": _DATA, "--donor": ("donor", _INPUTS), "--out": _OUT}, _SEED),
    "train": (
        False, True,
        {"--train": _DATA, "--val": _DATA, "--out-model": _OUT},
        {**_SEED, **_FEATURIZER_FLAGS, **_TRAIN_FLAGS, "--out-history": _OUT},
    ),
    "predict": (False, False, {"--model": ("model", _INPUTS), "--data": _DATA, "--out": _OUT}, {}),
    "tune": (False, True, {"--probs": ("probs", _INPUTS), "--gold": _DATA, "--out": _OUT}, {}),
    "eval": (
        False, True,
        {"--probs": ("probs", _INPUTS), "--gold": _DATA, "--out": _OUT},
        {
            "--thresholds": ("thresholds", _INPUTS), **_BINARY_MODE,
            "--format": (["table", "machine"], _BAD_CHOICE),
        },
    ),
    "synth": (
        False, False,
        {
            "--n": (["1", "5", "50"], ["0", "-1", "nan", "inf", "2.5", ""]),  # at most 50
            "--rates": (["0.3", "0.4,0.2"], ["0", "1", "nan", "inf", "-0.1", "0.3,abc", ""]),
            "--out": _OUT,
        },
        {**_SEED, "--noise": (["0", "0.1"], _BAD_FLOAT), "--labels": (["a", "a,b"], ["", ",", "a\tb", "a,a"])},
    ),
    "pipeline": (
        False, True,
        {"--data": _DATA, "--outdir": (["run"], _OUT[1])},
        {
            **_SEED, "--eval-data": _DATA, "--eval-fraction": _FRACTION, "--val-fraction": _FRACTION,
            **_STRATEGY, **_FEATURIZER_FLAGS, **_TRAIN_FLAGS, **_BINARY_MODE,
        },
    ),
}

# a required flag is left out now and then, an optional one half of the time
_MOSTLY = st.sampled_from([True] * 7 + [False])


@st.composite
def invocations(draw):
    cmd = draw(st.sampled_from(sorted(_COMMANDS)))
    positional, takes_schema, required, optional = _COMMANDS[cmd]
    kind = _KINDS[draw(st.sampled_from(sorted(_KINDS)))]
    parts = []  # (flag tokens, valid values, other values); a schema value is a token list
    if positional and draw(_MOSTLY):
        parts.append(([], kind["data"], _INPUTS))
    if takes_schema:
        parts.append(([], kind["schema"], _BAD_SCHEMAS))
    for flags, present in ((required, _MOSTLY), (optional, st.booleans())):
        for name, values in flags.items():
            if not draw(present):
                continue
            good, bad = values
            parts.append(([name], kind[good] if isinstance(good, str) else good, bad))
    n_odd = draw(st.sampled_from([0, 1, 1, 2])) if parts else 0
    odd = {draw(st.integers(0, len(parts) - 1)) for _ in range(n_odd)}
    argv = [cmd]
    for i, (tokens, good, bad) in enumerate(parts):
        value = draw(st.sampled_from(bad if i in odd else good))
        argv += tokens + (value if isinstance(value, list) else [value])
    return argv


@given(argv=invocations())
def test_exit_status_is_0_1_or_2(files_dir, argv):
    work = files_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run(argv)
    finally:
        os.chdir(cwd)
    assert status in (0, 1, 2), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    if status == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
