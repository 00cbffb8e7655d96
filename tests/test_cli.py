import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from polarpipe.calibration import default_thresholds, load_thresholds, objective
from polarpipe import cli
from polarpipe.cli import SCHEMA_PRESETS, run
from polarpipe.corpus import LabelSchema, load_dataset
from polarpipe.linear_model import FeaturizerConfig, TrainConfig
from polarpipe.manifest import file_digest, load_manifest
from polarpipe.probs import ProbabilityMatrix, load_probabilities, save_probabilities
from polarpipe.splitter import SplitConfig
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
        # the message names the type the flag wants
        split = ["split", "x.jsonl", "--out-train", "t", "--out-val", "v"]
        assert run(split + ["--seed", "1.5"]) == 2
        assert "argument --seed: invalid int value: '1.5'" in capsys.readouterr().err
        assert run(split + ["--val-fraction", "abc"]) == 2
        assert "argument --val-fraction: invalid float value: 'abc'" in capsys.readouterr().err

    def test_unknown_weighting_is_a_usage_error(self, capsys):
        train = ["train", "--train", "t", "--val", "v", "--schema", "subtask1", "--out-model", "m"]
        assert run(train + ["--weighting", "sqrt"]) == 2
        assert "argument --weighting: invalid choice: 'sqrt'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--accumulation-steps", "2"],
            ["--warmup-steps", "3"],
            ["--ngrams", "1"],
            ["--tf-mode", "binary"],
            ["--no-l2-normalize"],
        ],
    )
    @pytest.mark.parametrize("cmd", ["train", "pipeline"])
    def test_removed_training_flags_are_usage_errors(self, capsys, cmd, flag):
        # an update is one batch of --batch-size rows, --warmup-ratio alone
        # sets the warmup, and the one featurizer is L2-normalized unigram and
        # bigram counts
        args = {
            "train": ["train", "--train", "t", "--val", "v", "--schema", "subtask1", "--out-model", "m"],
            "pipeline": ["pipeline", "--data", "d", "--schema", "subtask1", "--outdir", "o"],
        }[cmd]
        assert run(args + flag) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd", ["eval", "pipeline"])
    def test_removed_binary_mode_is_a_usage_error(self, capsys, cmd):
        # a single label is always scored as two class rows; the positive
        # class's F1 is the report's "<label>=1" row
        args = {
            "eval": ["eval", "--probs", "p", "--gold", "g", "--schema", "subtask1", "--out", "r"],
            "pipeline": ["pipeline", "--data", "d", "--schema", "subtask1", "--outdir", "o"],
        }[cmd]
        assert run(args + ["--binary-mode", "positive-f1"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --binary-mode positive-f1" in err
        assert "Traceback" not in err

    def test_data_errors_are_1(self, tmp_path, capsys):
        assert run(["stats", str(tmp_path / "missing.jsonl"), "--labels", "a"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["stats", "{empty}"], "{empty} has no instances; there is nothing to summarize"),
            (["split", "{empty}", "--out-train", "{tmp}/t.jsonl", "--out-val", "{tmp}/v.jsonl"],
             "{empty} has no instances; there is nothing to split"),
            (["train", "--train", "{empty}", "--val", "{data}", "--out-model", "{tmp}/m.bin"],
             "--train {empty} has no instances; there is nothing to train on"),
            (["train", "--train", "{data}", "--val", "{empty}", "--out-model", "{tmp}/m.bin"],
             "--val {empty} has no instances; there is nothing to score"),
            (["merge", "--primary", "{empty}", "--donor", "{data}", "--out", "{tmp}/m.jsonl"],
             "--primary {empty} has no instances; there is nothing to balance"),
            (["pipeline", "--data", "{empty}", "--outdir", "{tmp}/run"],
             "--data {empty} has no instances; there is nothing to split"),
        ],
        ids=["stats", "split", "train-train", "train-val", "merge-primary", "pipeline-data"],
    )
    def test_empty_input_names_its_file(self, tmp_path, capsys, args, message):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        paths = {"empty": empty, "data": synth_file(tmp_path, "d.jsonl", 20, [0.4]), "tmp": tmp_path}
        before = sorted(p.name for p in tmp_path.iterdir())
        assert run([arg.format(**paths) for arg in args] + ["--labels", "label0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(**paths)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

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

    def test_predict_refuses_a_version_2_model(self, corpus, tmp_path, capsys):
        # a version-2 header may name a featurizer other than the one there is
        train_f, val_f = corpus
        model_f = tmp_path / "model.bin"
        status = run([
            "train", "--train", str(train_f), "--val", str(val_f), "--labels", "label0,label1",
            "--max-epochs", "1", "--hash-dim", "4096", "--out-model", str(model_f),
        ])
        assert status == 0
        line, body = model_f.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["version"] = 2
        header["featurizer"].update(ngram_orders=[1, 2], tf_mode="binary", l2_normalize=True)
        model_f.write_bytes(json.dumps(header).encode() + b"\n" + body)
        capsys.readouterr()
        probs_f = tmp_path / "val.probs"
        assert run(["predict", "--model", str(model_f), "--data", str(val_f), "--out", str(probs_f)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {model_f}: unsupported model version 2\n"
        assert not probs_f.exists()

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


    def test_empty_gold_exits_1_for_tune_and_eval(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text("")
        probs = tmp_path / "p.probs"
        probs.write_text("id\tlabel0\nr1\t0.5\n")
        common = ["--probs", str(probs), "--gold", str(gold), "--labels", "label0"]
        for cmd, out in (("tune", "th.tsv"), ("eval", "r.tsv")):
            assert run([cmd, *common, "--out", str(tmp_path / out)]) == 1, cmd
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: --gold {gold} has no instances; there is nothing to score\n"
            )
            assert not (tmp_path / out).exists()


class TestOldProbsLayout:
    """A ``.probs`` file written with the old ``%.17e`` cells scores like the shortest form."""

    def test_eval_and_tune_write_the_same_bytes(self, tmp_path, capsys):
        gold = synth_file(tmp_path, "gold.jsonl", 60, [0.4, 0.15], noise=0.2, seed=5)
        ids = load_dataset(gold, LabelSchema(names=("label0", "label1"))).ids
        rng = random.Random(5)
        pm = ProbabilityMatrix(
            ids=ids, label_names=("label0", "label1"),
            values=[(rng.random(), rng.random()) for _ in ids],
        )
        new = tmp_path / "new.probs"
        save_probabilities(pm, new)
        old = tmp_path / "old.probs"
        old.write_text("id\tlabel0\tlabel1\n" + "".join(
            f"{i}\t{a:.17e}\t{b:.17e}\n" for i, (a, b) in zip(ids, pm.values)
        ))
        assert old.read_bytes() != new.read_bytes()

        def outputs(probs):
            common = ["--probs", str(probs), "--gold", str(gold), "--labels", "label0,label1"]
            got = []
            for argv in (
                ["tune", *common],
                ["eval", *common, "--format", "machine"],
                ["eval", *common, "--format", "table"],
            ):
                out = tmp_path / f"{probs.stem}-{len(got)}.out"
                assert run([*argv, "--out", str(out)]) == 0
                got.append((capsys.readouterr().out, out.read_bytes()))
            return got

        assert outputs(old) == outputs(new)


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
        # both predict stages record the featurizer config they scored with
        stages = {s.name: s for s in manifest.stages}
        featurizer = {"hash_dim": 4096}
        for name in ("predict_val", "predict_eval"):
            assert stages[name].config == featurizer
        assert stages["train"].config.items() >= featurizer.items()
        lines = out_lines(capsys)
        assert any(l.startswith("eval_macro_f1\t") for l in lines)

    def test_flags_not_given_take_the_config_defaults(self, tmp_path, capsys):
        # the CLI states no default of its own: a run given no training flag
        # records what the dataclasses default to
        data = synth_file(tmp_path, "d.jsonl", 60, [0.4, 0.2], seed=3)
        outdir = tmp_path / "run"
        args = ["pipeline", "--data", str(data), "--labels", "label0,label1", "--outdir", str(outdir)]
        assert run(args + ["--seed", "5"]) == 0
        stages = {s.name: s.config for s in load_manifest(outdir / "manifest.json").stages}
        expected = {**asdict(TrainConfig(seed=5)), **asdict(FeaturizerConfig())}
        assert stages["train"] == json.loads(json.dumps(expected))  # tuples become lists
        assert stages["split"] == {"strategy": "auto", **asdict(SplitConfig(seed=5))}

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

    def test_empty_eval_data_exits_1(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 100, [0.4], seed=11)
        heldout = tmp_path / "h.jsonl"
        heldout.write_text("")
        status = run([
            "pipeline", "--data", str(data), "--labels", "label0",
            "--eval-data", str(heldout), "--outdir", str(tmp_path / "run"),
            "--max-epochs", "2", "--hash-dim", "4096",
        ])
        assert status == 1
        assert capsys.readouterr().err == (
            f"error: --eval-data {heldout} has no instances; there is nothing to score\n"
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--val-fraction", "0.01"], "val_fraction 0.01 leaves an empty subset for 32 instances"),
            (["--eval-fraction", "0.99"], "--eval-fraction 0.99 leaves an empty subset for 40 instances"),
            (["--eval-fraction", "0.001"], "--eval-fraction 0.001 leaves an empty subset for 40 instances"),
            (["--eval-fraction", "1.5"], "--eval-fraction 1.5 must be strictly between 0 and 1"),
        ],
        ids=["val-fraction", "eval-fraction", "eval-fraction-too-small", "eval-fraction-outside-0-1"],
    )
    def test_refused_split_leaves_no_run_dir(self, tmp_path, capsys, flags, message):
        data = synth_file(tmp_path, "d.jsonl", 40, [0.4, 0.2], seed=3)
        status = run([
            "pipeline", "--data", str(data), "--labels", "label0,label1",
            "--outdir", str(tmp_path / "run"), "--max-epochs", "1", "--hash-dim", "1024", *flags,
        ])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_refused_run_keeps_an_existing_outdir(self, tmp_path, capsys):
        data = synth_file(tmp_path, "d.jsonl", 40, [0.4], seed=3)
        heldout = tmp_path / "h.jsonl"
        heldout.write_text("")
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / "notes.txt").write_text("kept\n")
        args = ["pipeline", "--data", str(data), "--eval-data", str(heldout), "--labels", "label0",
                "--outdir", str(outdir), "--max-epochs", "1", "--hash-dim", "1024"]
        assert run(args) == 1
        assert "has no instances" in capsys.readouterr().err
        assert [p.name for p in outdir.iterdir()] == ["notes.txt"]
        assert (outdir / "notes.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_after_writing_removes_the_run(self, tmp_path, monkeypatch, capsys, existing):
        """A run that fails part-way removes what it wrote, and the
        directories it created; other files in ``--outdir`` stay."""
        data = synth_file(tmp_path, "d.jsonl", 80, [0.4], seed=3)
        outdir = tmp_path / "a" / "b" / "run"
        if existing:
            outdir.mkdir(parents=True)
            (outdir / "notes.txt").write_text("kept\n")
            (outdir / "manifest.json").write_text("{}\n")  # an earlier run's

        def fail_mid_write(manifest, path):
            Path(path).write_text('{"seed"')
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "save_manifest", fail_mid_write)
        args = ["pipeline", "--data", str(data), "--labels", "label0",
                "--outdir", str(outdir), "--max-epochs", "1", "--hash-dim", "1024"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: No space left on device\n"
        if existing:
            assert [p.name for p in outdir.iterdir()] == ["notes.txt"]
        else:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]

    def test_interrupted_run_removes_the_run(self, tmp_path, monkeypatch):
        data = synth_file(tmp_path, "d.jsonl", 80, [0.4], seed=3)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "predict_proba", interrupt)
        args = ["pipeline", "--data", str(data), "--labels", "label0",
                "--outdir", str(tmp_path / "run"), "--max-epochs", "1", "--hash-dim", "1024"]
        with pytest.raises(KeyboardInterrupt):
            run(args)
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize(
        "flag, name, extra",
        [
            ("--data", "pool.jsonl", []),
            ("--data", "sub/../manifest.json", []),
            ("--eval-data", "train.jsonl", ["--data", "d.jsonl"]),
        ],
    )
    def test_refuses_to_overwrite_its_input(self, tmp_path, monkeypatch, capsys, flag, name, extra):
        monkeypatch.chdir(tmp_path)
        synth_file(tmp_path, "d.jsonl", 120, [0.4], seed=16)
        outdir = tmp_path / "run"
        (outdir / "sub").mkdir(parents=True)
        target = outdir / Path(name).name
        synth_file(outdir, target.name, 100, [0.4], seed=17)
        before = target.read_bytes()
        args = ["pipeline", *extra, flag, f"run/{name}", "--labels", "label0",
                "--outdir", "run", "--max-epochs", "1", "--hash-dim", "4096"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag} run/{name} is the run's output run/{target.name}; "
            "the run would overwrite its own input\n"
        )
        assert target.read_bytes() == before
        assert sorted(p.name for p in outdir.iterdir()) == sorted(["sub", target.name])

    @pytest.mark.parametrize("same_file", [True, False])
    def test_refuses_eval_data_that_shares_ids(self, tmp_path, capsys, same_file):
        data = synth_file(tmp_path, "d.jsonl", 60, [0.4], seed=18)
        heldout = data
        if not same_file:
            # other posts, then one of the training file's rows
            other = generate_synthetic(20, [0.4], seed=19)
            shared = load_dataset(data, other.schema).instances[7]
            heldout = tmp_path / "h.jsonl"
            save_dataset(replace(other, instances=other.instances + (shared,)), heldout)
        outdir = tmp_path / "run"
        args = ["pipeline", "--data", str(data), "--eval-data", str(heldout), "--labels", "label0",
                "--outdir", str(outdir), "--max-epochs", "1", "--hash-dim", "1024"]
        assert run(args) == 1
        captured = capsys.readouterr()
        first = "s18-00000" if same_file else "s18-00007"
        assert captured.out == ""
        assert captured.err == (
            f"error: --eval-data {heldout} shares id {first!r} with --data {data}; "
            "the run would score rows it trained on\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "name, stage",
        [("model.bin", "predict_eval"), ("eval.probs", "eval"), ("thresholds.tsv", "eval")],
    )
    def test_refuses_eval_data_named_like_a_stage_file(self, tmp_path, monkeypatch, capsys, name, stage):
        """The manifest names a stage's files by base name: two inputs of one
        stage with the same name would leave one digest for both."""
        data = synth_file(tmp_path, "d.jsonl", 60, [0.4], seed=18)
        (tmp_path / "ext").mkdir()
        heldout = synth_file(tmp_path / "ext", name, 20, [0.4], seed=19)

        def no_read(*args, **kwargs):
            raise AssertionError("the run read a dataset before it refused")

        monkeypatch.setattr(cli, "load_dataset", no_read)
        outdir = tmp_path / "run"
        args = ["pipeline", "--data", str(data), "--eval-data", str(heldout), "--labels", "label0",
                "--outdir", str(outdir), "--max-epochs", "1", "--hash-dim", "1024"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --eval-data {heldout} and the run's {outdir / name} share the name {name}; "
            f"the manifest's {stage} stage would record one digest for both\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize("labels, name", [("__base__,b", "__base__"), ("__provenance__", "__provenance__")])
    def test_refuses_a_label_named_after_a_thresholds_key(self, tmp_path, monkeypatch, capsys, labels, name):
        """Each label is a line of thresholds.tsv, after its two header lines:
        a label named after a header key would write a file eval cannot read."""
        data = synth_file(tmp_path, "d.jsonl", 60, [0.4] * labels.count(",") + [0.4], seed=18)

        def no_read(*args, **kwargs):
            raise AssertionError("the run read a dataset before it refused")

        monkeypatch.setattr(cli, "load_dataset", no_read)
        outdir = tmp_path / "run"
        args = ["pipeline", "--data", str(data), "--labels", labels, "--outdir", str(outdir),
                "--max-epochs", "1", "--hash-dim", "1024"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: label name {name!r} is reserved for the thresholds file\n"
        assert not outdir.exists()

    def test_inputs_may_share_a_name_with_another_stages_file(self, tmp_path, capsys):
        (tmp_path / "ext").mkdir()
        data = synth_file(tmp_path / "ext", "train.jsonl", 80, [0.4], seed=18)
        heldout = synth_file(tmp_path / "ext", "val.jsonl", 20, [0.4], seed=19)
        outdir = tmp_path / "run"
        args = ["pipeline", "--data", str(data), "--eval-data", str(heldout), "--labels", "label0",
                "--outdir", str(outdir), "--max-epochs", "1", "--hash-dim", "1024"]
        assert run(args) == 0
        capsys.readouterr()
        stages = {s.name: s for s in load_manifest(outdir / "manifest.json").stages}
        assert stages["split"].inputs == {"train.jsonl": file_digest(data)}
        assert stages["split"].outputs["train.jsonl"] == file_digest(outdir / "train.jsonl")
        assert stages["eval"].inputs["val.jsonl"] == file_digest(heldout)
        assert stages["tune"].inputs["val.jsonl"] == file_digest(outdir / "val.jsonl")

    def test_refuses_an_empty_outdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        synth_file(tmp_path, "d.jsonl", 60, [0.4], seed=20)
        args = ["pipeline", "--data", "d.jsonl", "--labels", "label0", "--outdir", "",
                "--max-epochs", "1", "--hash-dim", "1024"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --outdir is empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]

    def test_refuses_a_hard_link_to_its_input(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = synth_file(tmp_path, "d.jsonl", 120, [0.4], seed=16)
        (tmp_path / "run").mkdir()
        os.link(data, tmp_path / "run" / "pool.jsonl")
        before = data.read_bytes()
        args = ["pipeline", "--data", "d.jsonl", "--labels", "label0",
                "--outdir", "run", "--max-epochs", "1", "--hash-dim", "4096"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --data d.jsonl is the run's output run/pool.jsonl; "
            "the run would overwrite its own input\n"
        )
        assert data.read_bytes() == before
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["pool.jsonl"]

    @pytest.mark.parametrize("name", ["train.jsonl", "h.jsonl"])
    def test_refuses_its_input_under_a_missing_outdir(self, tmp_path, monkeypatch, capsys, name):
        # nodir/.. is the working directory once the run creates nodir; h.jsonl
        # is a hard link to the file the run would write as train.jsonl
        monkeypatch.chdir(tmp_path)
        data = synth_file(tmp_path, "train.jsonl", 120, [0.4], seed=16)
        if name != data.name:
            os.link(data, tmp_path / name)
        before = data.read_bytes()
        args = ["pipeline", "--data", name, "--labels", "label0",
                "--outdir", "nodir/..", "--max-epochs", "1", "--hash-dim", "4096"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --data {name} is the run's output nodir/../train.jsonl; "
            "the run would overwrite its own input\n"
        )
        assert data.read_bytes() == before
        assert not (tmp_path / "nodir").exists()

    def test_symlink_loop_input_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        args = ["pipeline", "--data", str(tmp_path / "a"), "--labels", "label0", "--outdir", str(tmp_path / "run")]
        assert run(args) == 1
        assert "Too many levels of symbolic links" in capsys.readouterr().err

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


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """Inputs for every command: corpora, a model, probabilities and thresholds."""
    root = tmp_path_factory.mktemp("run_files")
    synth_file(root, "d.jsonl", 50, [0.4], seed=24)
    synth_file(root, "donor.jsonl", 80, [0.5], seed=25)
    args = ["pipeline", "--data", str(root / "d.jsonl"), "--labels", "label0",
            "--outdir", str(root / "run"), "--max-epochs", "1", "--hash-dim", "4096"]
    assert run(args) == 0
    for name in ("train.jsonl", "val.jsonl", "model.bin", "val.probs", "thresholds.tsv"):
        shutil.copy(root / "run" / name, root / name)
    shutil.rmtree(root / "run")
    return root


# command, then (flag, file) pairs; the last two files must clash
_CLASHES = {
    "split-same-outputs": ["split", ("", "d.jsonl"), ("--out-train", "x.jsonl"), ("--out-val", "x.jsonl")],
    "split-train-is-input": ["split", ("--out-val", "v.jsonl"), ("data", "d.jsonl"), ("--out-train", "d.jsonl")],
    "split-val-is-input": ["split", ("--out-train", "t.jsonl"), ("data", "d.jsonl"), ("--out-val", "d.jsonl")],
    "merge-out-is-primary": ["merge", ("--donor", "donor.jsonl"), ("--primary", "d.jsonl"), ("--out", "d.jsonl")],
    "merge-out-is-donor": ["merge", ("--primary", "d.jsonl"), ("--donor", "donor.jsonl"), ("--out", "donor.jsonl")],
    "train-model-is-train": ["train", ("--val", "val.jsonl"), ("--train", "train.jsonl"),
                             ("--out-model", "train.jsonl")],
    "train-history-is-val": ["train", ("--train", "train.jsonl"), ("--out-model", "m.bin"), ("--val", "val.jsonl"),
                             ("--out-history", "val.jsonl")],
    "train-same-outputs": ["train", ("--train", "train.jsonl"), ("--val", "val.jsonl"), ("--out-model", "h.tsv"),
                           ("--out-history", "h.tsv")],
    "predict-out-is-data": ["predict", ("--model", "model.bin"), ("--data", "val.jsonl"), ("--out", "val.jsonl")],
    "predict-out-is-model": ["predict", ("--data", "val.jsonl"), ("--model", "model.bin"), ("--out", "model.bin")],
    "tune-out-is-probs": ["tune", ("--gold", "val.jsonl"), ("--probs", "val.probs"), ("--out", "val.probs")],
    "tune-out-is-gold": ["tune", ("--probs", "val.probs"), ("--gold", "val.jsonl"), ("--out", "val.jsonl")],
    "eval-out-is-probs": ["eval", ("--gold", "val.jsonl"), ("--probs", "val.probs"), ("--out", "val.probs")],
    "eval-out-is-gold": ["eval", ("--probs", "val.probs"), ("--gold", "val.jsonl"), ("--out", "sub/../val.jsonl")],
    "eval-out-is-thresholds": ["eval", ("--probs", "val.probs"), ("--gold", "val.jsonl"),
                               ("--thresholds", "thresholds.tsv"), ("--out", "thresholds.tsv")],
}


@pytest.mark.parametrize("case", sorted(_CLASHES))
def test_commands_refuse_to_overwrite(run_files, tmp_path, monkeypatch, capsys, case):
    cmd, *pairs = _CLASHES[case]
    for path in run_files.iterdir():
        shutil.copy(path, tmp_path / path.name)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = [cmd, "--labels", "label0"] if cmd in ("split", "merge", "train", "tune", "eval") else [cmd]
    for flag, name in pairs:
        argv += [name] if flag in ("", "data") else [flag, name]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (flag_a, a), (flag_b, b) = pairs[-2:]
    if flag_a.startswith("--out"):
        expected = f"{flag_a} {a} and {flag_b} {b} are the same file; the run would write it twice"
    else:
        expected = f"{flag_a} {a} is the run's output {b}; the run would overwrite its own input"
    assert captured.err == f"error: {expected}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


# command, then (flag, file) pairs; the last file is made a hard link to the one before it
_HARD_LINKS = {
    "split-train-is-input": ["split", ("--out-val", "v.jsonl"), ("data", "d.jsonl"), ("--out-train", "h.jsonl")],
    "split-same-outputs": ["split", ("", "d.jsonl"), ("--out-train", "t.jsonl"), ("--out-val", "h.jsonl")],
    "merge-out-is-primary": ["merge", ("--donor", "donor.jsonl"), ("--primary", "d.jsonl"), ("--out", "h.jsonl")],
    "predict-out-is-data": ["predict", ("--model", "model.bin"), ("--data", "val.jsonl"), ("--out", "h.jsonl")],
    "predict-out-is-model": ["predict", ("--data", "val.jsonl"), ("--model", "model.bin"), ("--out", "h.bin")],
}


@pytest.mark.parametrize("case", sorted(_HARD_LINKS))
def test_commands_refuse_to_overwrite_a_hard_link(run_files, tmp_path, monkeypatch, capsys, case):
    cmd, *pairs = _HARD_LINKS[case]
    for path in run_files.iterdir():
        shutil.copy(path, tmp_path / path.name)
    (flag_a, a), (flag_b, b) = pairs[-2:]
    if not (tmp_path / a).exists():
        (tmp_path / a).write_text("first output\n", encoding="utf-8")
    os.link(tmp_path / a, tmp_path / b)
    monkeypatch.chdir(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = [cmd, "--labels", "label0"] if cmd in ("split", "merge") else [cmd]
    for flag, name in pairs:
        argv += [name] if flag in ("", "data") else [flag, name]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if flag_a.startswith("--out"):
        expected = f"{flag_a} {a} and {flag_b} {b} are the same file; the run would write it twice"
    else:
        expected = f"{flag_a} {a} is the run's output {b}; the run would overwrite its own input"
    assert captured.err == f"error: {expected}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


# command, then (flag, file) pairs; the last one is an output in a missing directory
_MISSING_DIRS = {
    "split": ["split", ("", "d.jsonl"), ("--out-train", "t.jsonl"), ("--out-val", "nodir/v.jsonl")],
    "merge": ["merge", ("--primary", "d.jsonl"), ("--donor", "donor.jsonl"), ("--out", "nodir/m.jsonl")],
    "train-model": ["train", ("--train", "train.jsonl"), ("--val", "val.jsonl"),
                    ("--out-model", "nodir/m.bin")],
    "train-history": ["train", ("--train", "train.jsonl"), ("--val", "val.jsonl"), ("--out-model", "m.bin"),
                      ("--out-history", "nodir/h.tsv")],
    "predict": ["predict", ("--model", "model.bin"), ("--data", "val.jsonl"), ("--out", "nodir/p.probs")],
    "tune": ["tune", ("--probs", "val.probs"), ("--gold", "val.jsonl"), ("--out", "nodir/t.tsv")],
    "eval": ["eval", ("--probs", "val.probs"), ("--gold", "val.jsonl"), ("--out", "nodir/r.tsv")],
    "eval-file-as-directory": ["eval", ("--probs", "val.probs"), ("--gold", "val.jsonl"),
                               ("--out", "d.jsonl/r.tsv")],
    "synth": ["synth", ("--n", "20"), ("--rates", "0.3"), ("--out", "nodir/s.jsonl")],
}


@pytest.mark.parametrize("case", sorted(_MISSING_DIRS))
def test_commands_check_output_directories_first(run_files, tmp_path, monkeypatch, capsys, case):
    cmd, *pairs = _MISSING_DIRS[case]
    for path in run_files.iterdir():
        shutil.copy(path, tmp_path / path.name)
    monkeypatch.chdir(tmp_path)

    def read_input(*args, **kwargs):
        raise AssertionError("an input was read before the outputs were checked")

    for reader in ("load_dataset", "load_labels", "load_probabilities", "load_model", "generate_synthetic"):
        monkeypatch.setattr(cli, reader, read_input)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [cmd, "--labels", "label0"] if cmd in ("split", "merge", "train", "tune", "eval") else [cmd]
    if cmd == "train":
        argv += ["--max-epochs", "1", "--hash-dim", "1024"]
    for flag, name in pairs:
        argv += [name] if flag == "" else [flag, name]
    assert run(argv) == 1
    captured = capsys.readouterr()
    flag, name = pairs[-1]
    assert captured.out == ""
    assert captured.err == f"error: {flag} {name}: {os.path.dirname(name)} is not a directory\n"
    # nothing was written, the other outputs included
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestTunedMetricIsEvaluated:
    """``tune`` reports ``calibration.objective``: on the binary task the F1 of
    ``eval``'s ``<label>=1`` row, on the multi-label task its macro-F1."""

    @pytest.mark.parametrize("rates, names", [([0.3], "label0"), ([0.4, 0.15, 0.05], "a,b,c")])
    def test_pipeline_tune_stage_matches_evaluate(self, tmp_path, capsys, rates, names):
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
        after = objective(pm, val.labels, tuned.theta)
        before = objective(pm, val.labels, default_thresholds(pm.label_names).theta)
        assert tune_stage.metrics["macro_f1_after"] == after
        assert tune_stage.metrics["macro_f1_before"] == before

        # the machine report prints the same float, bit for bit: the positive
        # row's F1 on the binary task, the macro-F1 otherwise
        key = f"{names}=1.f1" if pm.n_labels == 1 else "macro_f1"
        for thresholds, expected in ((["--thresholds", str(outdir / "thresholds.tsv")], after), ([], before)):
            report = tmp_path / "report.txt"
            status = run([
                "eval", "--probs", str(outdir / "val.probs"), "--gold", str(outdir / "val.jsonl"),
                "--labels", names, *thresholds, "--format", "machine", "--out", str(report),
            ])
            assert status == 0
            machine = dict(line.split("\t") for line in report.read_text().splitlines())
            assert float(machine[key]) == expected

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
    "pipeline-hash-dim-2**64": (
        1, {"d.jsonl": _CORPUS},
        ["pipeline", "--data", "d.jsonl", "--schema", "subtask1", "--outdir", "run", "--hash-dim", str(2**64)],
    ),
    "model-hash-dim-2**70": (
        1,
        {"d.jsonl": _GOOD, "m.bin": json.dumps({
            "format": "polarpipe-model", "version": 3, "schema": ["polarized"], "shape": [0, 1],
            "featurizer": {"hash_dim": 2**70},
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
    **{
        f"pipeline-{flag}-{value}": (
            1, {"d.jsonl": _CORPUS},
            ["pipeline", "--data", "d.jsonl", "--schema", "subtask1", "--outdir", "run", f"--{flag}", value],
        )
        for flag, value in [
            ("learning-rate", "inf"),
            ("learning-rate", "-1"),
            ("weight-decay", "inf"),
            ("weight-decay", "-5"),
            ("max-grad-norm", "nan"),
        ]
    },
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
def test_seed_only_on_commands_that_draw(capsys, cmd):
    # these commands draw nothing at random: --seed is a usage error
    assert run(_UNSEEDED[cmd] + ["--seed", "7"]) == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


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

