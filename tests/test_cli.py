import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from polarpipe.calibration import default_thresholds, load_thresholds
from polarpipe import cli
from polarpipe.cli import SCHEMA_PRESETS, run
from polarpipe.corpus import LabelSchema, load_dataset
from polarpipe.manifest import file_digest, load_manifest
from polarpipe.metrics import evaluate
from polarpipe.probs import load_probabilities
from polarpipe.synth import generate_synthetic
from polarpipe.corpus import save_dataset


def synth_file(tmp_path, name, n, rates, noise=0.0, seed=42, label_names=None):
    ds = generate_synthetic(n, rates, noise=noise, seed=seed, label_names=label_names)
    path = tmp_path / name
    save_dataset(ds, path)
    return path


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


class TestSchemas:
    def test_preset_names(self):
        assert SCHEMA_PRESETS["subtask1"] == ("polarized",)
        assert SCHEMA_PRESETS["subtask2"] == (
            "political",
            "racial/ethnic",
            "religious",
            "gender/sexual",
            "other",
        )
        assert SCHEMA_PRESETS["subtask3"] == (
            "stereotype",
            "vilification",
            "dehumanization",
            "extreme_language",
            "lack_of_empathy",
            "invalidation",
        )

    def test_preset_and_labels_are_exclusive(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 10, [0.5])
        status = run(["stats", str(data), "--schema", "subtask1", "--labels", "a"])
        assert status == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_schema_required(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 10, [0.5])
        assert run(["stats", str(data)]) == 1
        assert "schema is required" in capsys.readouterr().err

    def test_label_with_cr_rejected(self, tmp_path, capsys):
        # a CR in a label name would split the header of every .probs file
        data = synth_file(tmp_path, "d.jsonl", 60, [0.4, 0.3], label_names=("ab", "c"))
        data.write_text(data.read_text(encoding="utf-8").replace('"ab"', '"a\\rb"'), encoding="utf-8")
        outdir = tmp_path / "run"
        assert run(["pipeline", "--data", str(data), "--labels", "a\rb,c", "--outdir", str(outdir)]) == 1
        assert "contains tab or line break" in capsys.readouterr().err
        assert not (outdir / "eval.probs").exists()


class TestExitCodes:
    def test_usage_errors_are_2(self, capsys):
        assert run([]) == 2
        assert run(["not-a-command"]) == 2
        assert run(["split", "x.jsonl", "--strategy", "bogus"]) == 2
        capsys.readouterr()

    def test_data_errors_are_1(self, tmp_path, capsys):
        assert run(["stats", str(tmp_path / "missing.jsonl"), "--labels", "a"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_help_is_0(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()


class TestStats:
    def test_reports_label_table(self, tmp_path, capsys):
        data = synth_file(
            tmp_path, "d.jsonl", 200, [0.357, 0.10], seed=1,
            label_names=("political", "other"),
        )
        status = run(["stats", str(data), "--labels", "political,other"])
        assert status == 0
        lines = out_lines(capsys)
        assert lines[0] == "n_instances\t200"
        assert any(l.startswith("political\t") for l in lines)
        assert "label\tpositives\tpositive_pct\tneg_pos_ratio" in lines

    def test_subtask2_preset(self, tmp_path, capsys):
        data = synth_file(
            tmp_path, "d.jsonl", 50, [0.3] * 5, seed=2,
            label_names=SCHEMA_PRESETS["subtask2"],
        )
        assert run(["stats", str(data), "--schema", "subtask2"]) == 0
        assert any(l.startswith("racial/ethnic\t") for l in out_lines(capsys))


class TestSplit:
    def test_writes_both_parts(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 40, [0.4, 0.2], seed=3)
        t, v = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
        status = run([
            "split", str(data), "--labels", "label0,label1",
            "--val-fraction", "0.25", "--out-train", str(t), "--out-val", str(v),
        ])
        assert status == 0
        schema = LabelSchema(names=("label0", "label1"))
        assert len(load_dataset(t, schema)) == 30
        assert len(load_dataset(v, schema)) == 10
        lines = out_lines(capsys)
        assert lines[0].startswith("train\t30")
        assert lines[1].startswith("val\t10")


class TestMerge:
    def test_balances_binary_corpus(self, tmp_path, capsys):
        primary = synth_file(tmp_path, "p.jsonl", 60, [0.2], seed=4)
        donor = synth_file(tmp_path, "q.jsonl", 200, [0.5], seed=5)
        out = tmp_path / "merged.jsonl"
        status = run([
            "merge", "--primary", str(primary), "--donor", str(donor),
            "--labels", "label0", "--out", str(out),
        ])
        assert status == 0
        merged = load_dataset(out, LabelSchema(names=("label0",)))
        assert len(merged) == 120
        assert sum(i.labels[0] for i in merged.instances) == 60
        assert out_lines(capsys)[0].startswith("merged\t120\tpositives\t60")

    def test_malformed_donor_is_named(self, tmp_path, capsys):
        primary = synth_file(tmp_path, "p.jsonl", 20, [0.2], seed=4)
        donor = tmp_path / "donor.jsonl"
        donor.write_text('{"id": "d1", "text": "x", "label": "yes"}\n')
        status = run([
            "merge", "--primary", str(primary), "--donor", str(donor),
            "--labels", "label0", "--out", str(tmp_path / "merged.jsonl"),
        ])
        assert status == 1
        err = capsys.readouterr().err
        assert f"{donor}: label must be 0 or 1 at line 1" in err


class TestTrainPredictTuneEval:
    @pytest.fixture()
    def corpus(self, tmp_path):
        train = synth_file(tmp_path, "train.jsonl", 160, [0.4, 0.15], seed=6)
        val = synth_file(tmp_path, "val.jsonl", 60, [0.4, 0.15], seed=7)
        return train, val

    def test_full_chain(self, corpus, tmp_path, capsys):
        train_f, val_f = corpus
        model_f = tmp_path / "model.bin"
        hist_f = tmp_path / "history.tsv"
        status = run([
            "train", "--train", str(train_f), "--val", str(val_f),
            "--labels", "label0,label1", "--max-epochs", "3",
            "--hash-dim", "4096",
            "--out-model", str(model_f), "--out-history", str(hist_f),
        ])
        assert status == 0
        lines = out_lines(capsys)
        assert lines[0].startswith("epochs_run\t")
        assert model_f.exists() and hist_f.exists()

        probs_f = tmp_path / "val.probs"
        status = run([
            "predict", "--model", str(model_f), "--data", str(val_f),
            "--out", str(probs_f),
        ])
        assert status == 0
        pm = load_probabilities(probs_f)
        assert pm.n_instances == 60
        capsys.readouterr()

        th_f = tmp_path / "thresholds.tsv"
        status = run([
            "tune", "--probs", str(probs_f), "--gold", str(val_f),
            "--labels", "label0,label1", "--out", str(th_f),
        ])
        assert status == 0
        lines = out_lines(capsys)
        assert lines[0].startswith("macro_f1_before\t")
        assert lines[1].startswith("macro_f1_after\t")
        tv = load_thresholds(th_f)
        assert tv.provenance == "tuned"

        report_f = tmp_path / "report.tsv"
        status = run([
            "eval", "--probs", str(probs_f), "--gold", str(val_f),
            "--labels", "label0,label1", "--thresholds", str(th_f),
            "--out", str(report_f),
        ])
        assert status == 0
        lines = out_lines(capsys)
        assert lines[0].startswith("macro_f1\t")
        assert report_f.read_text().startswith("label\ttp\tfp\tfn")

    def test_eval_defaults_to_half_thresholds(self, corpus, tmp_path, capsys):
        train_f, val_f = corpus
        model_f = tmp_path / "m.bin"
        run([
            "train", "--train", str(train_f), "--val", str(val_f),
            "--labels", "label0,label1", "--max-epochs", "1",
            "--hash-dim", "4096", "--out-model", str(model_f),
        ])
        probs_f = tmp_path / "v.probs"
        run(["predict", "--model", str(model_f), "--data", str(val_f), "--out", str(probs_f)])
        capsys.readouterr()
        report_f = tmp_path / "r.tsv"
        status = run([
            "eval", "--probs", str(probs_f), "--gold", str(val_f),
            "--labels", "label0,label1", "--out", str(report_f),
            "--format", "machine",
        ])
        assert status == 0
        text = report_f.read_text()
        assert "macro_f1\t" in text
        assert "label0.tp\t" in text

    def test_tune_thresholds_label_mismatch(self, corpus, tmp_path, capsys):
        train_f, val_f = corpus
        # thresholds built for different names are rejected by eval
        th_f = tmp_path / "th.tsv"
        th_f.write_text("__provenance__\ttuned\n__base__\t0.5\nx\t0.5\ny\t0.5\n")
        probs_f = tmp_path / "v.probs"
        model_f = tmp_path / "m.bin"
        run([
            "train", "--train", str(train_f), "--val", str(val_f),
            "--labels", "label0,label1", "--max-epochs", "1",
            "--hash-dim", "4096", "--out-model", str(model_f),
        ])
        run(["predict", "--model", str(model_f), "--data", str(val_f), "--out", str(probs_f)])
        capsys.readouterr()
        status = run([
            "eval", "--probs", str(probs_f), "--gold", str(val_f),
            "--labels", "label0,label1", "--thresholds", str(th_f),
            "--out", str(tmp_path / "r.tsv"),
        ])
        assert status == 1
        assert "label mismatch" in capsys.readouterr().err


class TestIdAlignment:
    # tune and eval align by the same rule: the gold ids set the rows, extra
    # probability rows are ignored, and a gold id without probabilities is an error
    @pytest.mark.parametrize(
        "prob_rows, gold_rows, expected",
        [((0, 1, 2), (1, 2), 0), ((0, 1), (0, 1, 2, 3), 1)],
    )
    def test_tune_and_eval_exit_alike(self, tmp_path, capsys, prob_rows, gold_rows, expected):
        ds = generate_synthetic(4, [0.5], seed=3)
        gold = tmp_path / "gold.jsonl"
        save_dataset(replace(ds, instances=tuple(ds.instances[i] for i in gold_rows)), gold)
        probs = tmp_path / "p.probs"
        probs.write_text(
            "id\tlabel0\n" + "".join(f"{ds.instances[i].id}\t0.{i + 2}\n" for i in prob_rows)
        )
        common = ["--probs", str(probs), "--gold", str(gold), "--labels", "label0"]
        for command, out in (("tune", "th.tsv"), ("eval", "r.tsv")):
            assert run([command, *common, "--out", str(tmp_path / out)]) == expected
            if expected:
                assert "probabilities missing id" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        status = run([
            "synth", "--n", "30", "--rates", "0.5,0.1", "--noise", "0.1",
            "--out", str(out),
        ])
        assert status == 0
        ds = load_dataset(out, LabelSchema(names=("label0", "label1")))
        assert len(ds) == 30
        assert out_lines(capsys)[0].startswith("synthetic\t30")

    def test_bad_rates_rejected(self, tmp_path, capsys):
        status = run([
            "synth", "--n", "10", "--rates", "0.5,nope",
            "--out", str(tmp_path / "s.jsonl"),
        ])
        assert status == 1
        capsys.readouterr()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 20, [0.5], seed=8)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# split settings\nval-fraction = 0.4\nstrategy = stratified\n"
        )
        t, v = tmp_path / "t.jsonl", tmp_path / "v.jsonl"
        base = [
            "split", str(data), "--labels", "label0", "--config", str(cfg),
            "--out-train", str(t), "--out-val", str(v),
        ]
        assert run(base) == 0
        assert out_lines(capsys)[1].startswith("val\t8")  # 20 * 0.4

        assert run(base + ["--val-fraction", "0.25"]) == 0
        assert out_lines(capsys)[1].startswith("val\t5")  # flag wins

    def test_unknown_key_rejected(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 10, [0.5], seed=9)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fraction = 0.4\n")
        status = run([
            "split", str(data), "--labels", "label0", "--config", str(cfg),
            "--out-train", str(tmp_path / "t"), "--out-val", str(tmp_path / "v"),
        ])
        assert status == 1
        assert "unknown key" in capsys.readouterr().err

    def test_reserved_and_malformed_keys(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 10, [0.5], seed=9)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("config = other.cfg\n")
        args = [
            "split", str(data), "--labels", "label0", "--config", str(cfg),
            "--out-train", str(tmp_path / "t"), "--out-val", str(tmp_path / "v"),
        ]
        assert run(args) == 1
        assert "not configurable" in capsys.readouterr().err
        cfg.write_text("just a line\n")
        assert run(args) == 1
        assert "not key=value" in capsys.readouterr().err
        cfg.write_bytes(b"seed = 3\n# caf\xe9\n")
        assert run(args) == 1
        assert f"{cfg}: not valid UTF-8 at line 2" in capsys.readouterr().err

    def test_choice_and_bool_values_checked(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 10, [0.5], seed=9)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strategy = sideways\n")
        args = [
            "split", str(data), "--labels", "label0", "--config", str(cfg),
            "--out-train", str(tmp_path / "t"), "--out-val", str(tmp_path / "v"),
        ]
        assert run(args) == 1
        assert "must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("val-fraction = abc", "val_fraction wants a float, got 'abc'"),
            ("seed = 1.5", "seed wants an int, got '1.5'"),
        ],
    )
    def test_wrong_type_value_named(self, tmp_path, capsys, line, message):
        data = synth_file(tmp_path, "d.jsonl", 10, [0.5], seed=9)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        args = [
            "split", str(data), "--labels", "label0", "--config", str(cfg),
            "--out-train", str(tmp_path / "t"), "--out-val", str(tmp_path / "v"),
        ]
        assert run(args) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


class TestPipeline:
    def test_produces_all_artifacts(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 150, [0.4, 0.1], seed=10)
        outdir = tmp_path / "run"
        status = run([
            "pipeline", "--data", str(data), "--labels", "label0,label1",
            "--outdir", str(outdir), "--max-epochs", "2", "--hash-dim", "4096",
        ])
        assert status == 0
        for name in (
            "pool.jsonl", "eval.jsonl", "train.jsonl", "val.jsonl",
            "model.bin", "history.tsv", "val.probs", "thresholds.tsv",
            "eval.probs", "report.tsv", "manifest.json",
        ):
            assert (outdir / name).exists(), name
        manifest = load_manifest(outdir / "manifest.json")
        assert [s.name for s in manifest.stages] == [
            "carve", "split", "train", "predict_val", "tune", "predict_eval", "eval",
        ]
        lines = out_lines(capsys)
        assert any(l.startswith("eval_macro_f1\t") for l in lines)

    def test_external_eval_data_skips_carve(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 100, [0.4], seed=11)
        heldout = synth_file(tmp_path, "h.jsonl", 40, [0.4], seed=12)
        outdir = tmp_path / "run"
        status = run([
            "pipeline", "--data", str(data), "--labels", "label0",
            "--eval-data", str(heldout), "--outdir", str(outdir),
            "--max-epochs", "2", "--hash-dim", "4096",
        ])
        assert status == 0
        capsys.readouterr()
        assert not (outdir / "pool.jsonl").exists()
        manifest = load_manifest(outdir / "manifest.json")
        assert [s.name for s in manifest.stages][0] == "split"
        eval_stage = manifest.stages[-1]
        assert "h.jsonl" in eval_stage.inputs

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 120, [0.4, 0.1], seed=13)
        args = lambda out: [
            "pipeline", "--data", str(data), "--labels", "label0,label1",
            "--outdir", str(out), "--max-epochs", "2", "--hash-dim", "4096",
        ]
        assert run(args(tmp_path / "a")) == 0
        assert run(args(tmp_path / "b")) == 0
        capsys.readouterr()
        for name in ("manifest.json", "model.bin", "thresholds.tsv", "report.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    @pytest.mark.parametrize("external_eval", [False, True])
    def test_each_file_digested_once(self, tmp_path, capsys, monkeypatch, external_eval):
        hashed = []

        def counting_digest(path):
            hashed.append(Path(path))
            return file_digest(path)

        monkeypatch.setattr(cli, "file_digest", counting_digest)
        data = synth_file(tmp_path, "d.jsonl", 120, [0.4, 0.1], seed=14)
        args = [
            "pipeline", "--data", str(data), "--labels", "label0,label1",
            "--outdir", str(tmp_path / "run"), "--max-epochs", "2", "--hash-dim", "4096",
        ]
        if external_eval:
            args += ["--eval-data", str(synth_file(tmp_path, "h.jsonl", 40, [0.4, 0.1], seed=15))]
        assert run(args) == 0
        capsys.readouterr()
        assert len(hashed) == len(set(hashed))
        # every digest the manifest records is the digest of the file as it
        # stands once the run is over
        current = {p.name: file_digest(p) for p in hashed}
        for stage in load_manifest(tmp_path / "run" / "manifest.json").stages:
            for name, digest in {**stage.inputs, **stage.outputs}.items():
                assert digest == current[name], (stage.name, name)


class TestTunedMetricIsEvaluated:
    """``tune`` reports the same macro-F1 that ``eval`` computes on the same rows."""

    @pytest.mark.parametrize(
        "rates, names, binary_mode",
        [([0.3], "label0", "positive-f1"), ([0.4, 0.15, 0.05], "a,b,c", "two-class-macro")],
    )
    def test_pipeline_tune_stage_matches_evaluate(self, tmp_path, capsys, rates, names, binary_mode):
        data = synth_file(tmp_path, "d.jsonl", 200, rates, noise=0.1, seed=21, label_names=names.split(","))
        outdir = tmp_path / "run"
        status = run([
            "pipeline", "--data", str(data), "--labels", names,
            "--outdir", str(outdir), "--max-epochs", "2", "--hash-dim", "4096",
        ])
        assert status == 0
        tune_stage = next(s for s in load_manifest(outdir / "manifest.json").stages if s.name == "tune")
        pm = load_probabilities(outdir / "val.probs")
        val = load_dataset(outdir / "val.jsonl", LabelSchema(names=tuple(names.split(","))))
        tuned = load_thresholds(outdir / "thresholds.tsv")
        after = evaluate(pm, val, tuned.theta, binary_mode=binary_mode).macro_f1
        before = evaluate(pm, val, default_thresholds(pm.label_names).theta, binary_mode=binary_mode).macro_f1
        assert tune_stage.metrics["macro_f1_after"] == after
        assert tune_stage.metrics["macro_f1_before"] == before

        capsys.readouterr()
        status = run([
            "tune", "--probs", str(outdir / "val.probs"), "--gold", str(outdir / "val.jsonl"),
            "--labels", names, "--out", str(tmp_path / "th.tsv"),
        ])
        assert status == 0
        assert f"macro_f1_after\t{after:.6f}" in out_lines(capsys)


class TestNonFiniteInputs:
    @pytest.fixture()
    def files(self, tmp_path):
        gold = synth_file(tmp_path, "gold.jsonl", 4, [0.5], seed=3)
        ids = load_dataset(gold, LabelSchema(names=("label0",))).ids
        probs = tmp_path / "p.probs"
        probs.write_text("id\tlabel0\n" + "".join(f"{i}\t0.25\n" for i in ids))
        return gold, probs

    def _eval(self, gold, probs, *extra):
        return run([
            "eval", "--probs", str(probs), "--gold", str(gold), "--labels", "label0",
            "--out", str(gold.with_name("r.tsv")), *extra,
        ])

    def test_nan_probability_exits_1(self, files, capsys):
        gold, probs = files
        assert self._eval(gold, probs) == 0
        lines = probs.read_text().splitlines()
        lines[2] = lines[2].split("\t")[0] + "\tnan"
        probs.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self._eval(gold, probs) == 1
        err = capsys.readouterr().err
        assert str(probs) in err and "NaN" in err

    def test_nan_threshold_exits_1(self, files, capsys):
        gold, probs = files
        th = gold.with_name("th.tsv")
        th.write_text("__provenance__\ttuned\n__base__\t0.5\nlabel0\tnan\n")
        capsys.readouterr()
        assert self._eval(gold, probs, "--thresholds", str(th)) == 1
        err = capsys.readouterr().err
        assert str(th) in err and "NaN" in err


@pytest.mark.skipif(shutil.which("polarpipe") is None, reason="entry point not on PATH")
def test_console_script_runs(tmp_path):
    out = tmp_path / "s.jsonl"
    proc = subprocess.run(
        ["polarpipe", "synth", "--n", "5", "--rates", "0.5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


_SRC = Path(__file__).resolve().parent.parent / "src"
_GOOD = b'{"id": "a", "text": "t", "label": 1}\n'
_PROBS = b"id\tpolarized\na\t0.5\n"
_CORPUS = b"".join(
    json.dumps({"id": f"d{i}", "text": f"w{i % 5} v{i % 3}", "label": i % 2}).encode() + b"\n" for i in range(40)
)
_STATS = ["stats", "d.jsonl", "--schema", "subtask1"]
_EVAL = ["eval", "--probs", "p.probs", "--gold", "d.jsonl", "--schema", "subtask1", "--out", "r.txt"]

# name: (expected exit status, files to write, arguments)
_MODULE_CASES = {
    "synth": (0, {}, ["synth", "--n", "5", "--rates", "0.5", "--out", "s.jsonl"]),
    "usage-error": (2, {}, ["split", "d.jsonl", "--strategy", "bogus"]),
    "no-command": (2, {}, []),
    "unknown-command": (2, {}, ["bogus", "stats"]),
    "option-before-command": (2, {"d.jsonl": _GOOD}, ["--bogus", *_STATS]),
    "eval-missing-gold": (2, {}, ["eval", "--probs", "p.probs", "--out", "r.txt"]),
    "pipeline-bad-binary-mode": (
        2, {"d.jsonl": _CORPUS},
        ["pipeline", "--data", "d.jsonl", "--schema", "subtask1", "--outdir", "run", "--binary-mode", "bogus"],
    ),
    "dataset-not-utf8": (1, {"d.jsonl": _GOOD + b'{"id": "b", "text": "caf\xe9", "label": 0}\n'}, _STATS),
    "id-with-tab": (1, {"d.jsonl": b'{"id": "a\\tb", "text": "t", "label": 1}\n'}, _STATS),
    "id-with-cr": (1, {"d.jsonl": b'{"id": "a\\rb", "text": "t", "label": 1}\n'}, _STATS),
    "id-with-lf": (1, {"d.jsonl": b'{"id": "a\\nb", "text": "t", "label": 1}\n'}, _STATS),
    "id-lone-surrogate": (1, {"d.jsonl": b'{"id": "\\ud800", "text": "t", "label": 1}\n'}, _STATS),
    "text-lone-surrogate": (1, {"d.jsonl": b'{"id": "a", "text": "\\ud800", "label": 1}\n'}, _STATS),
    "probs-not-utf8": (1, {"d.jsonl": _GOOD, "p.probs": b"id\tpolarized\n\xe9\t0.5\n"}, _EVAL),
    "thresholds-not-utf8": (
        1,
        {"d.jsonl": _GOOD, "p.probs": _PROBS,
         "t.tsv": b"__provenance__\ttuned\n__base__\t0.5\npolarized\xe9\t0.5\n"},
        _EVAL + ["--thresholds", "t.tsv"],
    ),
    "config-not-utf8": (1, {"d.jsonl": _GOOD, "c.cfg": b"# caf\xe9\n"}, _STATS + ["--config", "c.cfg"]),
    "pipeline-hash-dim-2**64": (
        1, {"d.jsonl": _CORPUS},
        ["pipeline", "--data", "d.jsonl", "--schema", "subtask1", "--outdir", "run", "--hash-dim", str(2**64)],
    ),
    "model-hash-dim-2**70": (
        1,
        {"d.jsonl": _GOOD, "m.bin": json.dumps({
            "format": "polarpipe-model", "version": 2, "schema": ["polarized"], "shape": [0, 1],
            "featurizer": {"hash_dim": 2**70, "ngram_orders": [1, 2], "tf_mode": "count", "l2_normalize": True},
        }).encode() + b"\n" + bytes(8)},
        ["predict", "--model", "m.bin", "--data", "d.jsonl", "--out", "p.probs"],
    ),
    "split-seed-negative": (
        2, {"d.jsonl": _CORPUS},
        ["split", "d.jsonl", "--labels", "label", "--seed", "-1", "--out-train", "a", "--out-val", "b"],
    ),
    "synth-seed-negative": (2, {}, ["synth", "--n", "5", "--rates", "0.5", "--out", "s.jsonl", "--seed", "-1"]),
    "pipeline-seed-2**32": (
        2, {"d.jsonl": _CORPUS},
        ["pipeline", "--data", "d.jsonl", "--schema", "subtask1", "--outdir", "run", "--seed", str(2**32)],
    ),
    "eval-seed-rejected": (2, {}, _EVAL + ["--seed", "7"]),
    "config-seed-2**32": (
        1, {"d.jsonl": _CORPUS, "c.cfg": b"seed = 4294967296\n"},
        ["pipeline", "--data", "d.jsonl", "--schema", "subtask1", "--outdir", "run", "--config", "c.cfg"],
    ),
    "config-wrong-type": (
        1,
        {"d.jsonl": _GOOD, "c.cfg": b"val-fraction = abc\n"},
        ["split", "d.jsonl", "--schema", "subtask1", "--config", "c.cfg",
         "--out-train", "t.jsonl", "--out-val", "v.jsonl"],
    ),
}


@pytest.mark.parametrize("case", sorted(_MODULE_CASES))
def test_module_exit_status(tmp_path, case):
    status, files, args = _MODULE_CASES[case]
    for name, body in files.items():
        (tmp_path / name).write_bytes(body)
    proc = subprocess.run(
        [sys.executable, "-m", "polarpipe", *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == status, proc.stderr
    assert "Traceback" not in proc.stderr
    if status:
        assert not (tmp_path / "run").exists()
    if status == 1:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


_UNSEEDED = {
    "stats": _STATS,
    "predict": ["predict", "--model", "m.bin", "--data", "d.jsonl", "--out", "p.probs"],
    "tune": ["tune", "--probs", "p.probs", "--gold", "d.jsonl", "--schema", "subtask1", "--out", "t.tsv"],
    "eval": _EVAL,
}


@pytest.mark.parametrize("cmd", sorted(_UNSEEDED))
def test_seed_only_on_commands_that_draw(tmp_path, monkeypatch, capsys, cmd):
    # these commands draw nothing at random: --seed is a usage error, and a
    # seed= config key an unknown key
    monkeypatch.chdir(tmp_path)
    assert run(_UNSEEDED[cmd] + ["--seed", "7"]) == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    Path("c.cfg").write_text("seed = 7\n")
    assert run(_UNSEEDED[cmd] + ["--config", "c.cfg"]) == 1
    assert capsys.readouterr().err == "error: c.cfg: unknown key 'seed'\n"


def test_train_checks_options_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    args = ["train", "--train", missing, "--val", missing, "--schema", "subtask1",
            "--hash-dim", "3", "--out-model", str(tmp_path / "m.bin")]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "hash_dim" in err and "missing.jsonl" not in err


_HELP = Path(__file__).resolve().parent / "data" / "help"
_COMMANDS = ("stats", "split", "merge", "train", "predict", "tune", "eval", "synth", "pipeline")


@pytest.mark.parametrize("cmd", [None, *_COMMANDS])
def test_help_text_is_unchanged(monkeypatch, capsys, cmd):
    # each command's parser gets its arguments only when that command runs;
    # every --help must still read as the golden text, written at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    assert run([cmd, "--help"] if cmd else ["--help"]) == 0
    out = capsys.readouterr().out.replace("optional arguments:", "options:")  # Python 3.10
    assert out == (_HELP / f"{cmd or 'polarpipe'}.txt").read_text(encoding="utf-8")


def test_help_lists_every_command(capsys):
    assert run(["--help"]) == 0
    listed = capsys.readouterr().out
    for cmd in _COMMANDS:
        assert f"\n    {cmd} " in listed, cmd
