"""Command-line interface: one executable, subcommand per pipeline stage.

Every subcommand is a pure function of its input files, flags, and seed.
``pipeline`` chains split, train, predict, tune, and eval through the same
stage functions the commands call, and writes a manifest recording each
stage's config hash and file digests.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import asdict, fields, replace
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .corpus import (
    DataError,
    Dataset,
    GoldLabels,
    LabelSchema,
    count_positives,
    load_dataset,
    load_labels,
    save_dataset,
    summarize,
)
from .probs import ProbabilityMatrix, load_probabilities, save_probabilities

if TYPE_CHECKING:
    from .linear_model import FeaturizerConfig, TrainConfig
    from .manifest import StageRecord
    from .splitter import SplitConfig

__all__ = ["run", "entry", "SCHEMA_PRESETS"]

SCHEMA_PRESETS = {
    "subtask1": ("polarized",),
    "subtask2": ("political", "racial/ethnic", "religious", "gender/sexual", "other"),
    "subtask3": (
        "stereotype",
        "vilification",
        "dehumanization",
        "extreme_language",
        "lack_of_empathy",
        "invalidation",
    ),
}


# ---------------------------------------------------------------------------
# Layer functions
#
# Each command imports only the modules it runs: ``eval`` never loads the
# trainer, ``predict`` never loads the metrics. The layer functions still
# are names on this module, which tests and the benchmark's tracer replace,
# but each one imports its module when it is first called.


def _deferred(module: str, name: str):
    """A stand-in for ``polarpipe.<module>.<name>`` that imports it at call time."""

    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


train = _deferred("linear_model", "train")
predict_proba = _deferred("linear_model", "predict_proba")
save_model = _deferred("linear_model", "save_model")
load_model = _deferred("linear_model", "load_model")
save_history = _deferred("linear_model", "save_history")
stratified_split = _deferred("splitter", "stratified_split")
iterative_stratified_split = _deferred("splitter", "iterative_stratified_split")
balanced_merge = _deferred("splitter", "balanced_merge")
file_digest = _deferred("manifest", "file_digest")
save_manifest = _deferred("manifest", "save_manifest")
generate_synthetic = _deferred("synth", "generate_synthetic")


# ---------------------------------------------------------------------------
# Small parsing helpers


def _seed(raw: str) -> int:
    """``int(raw)``, refused outside [0, 2**32 - 1].

    A seed names the stream numpy's legacy seeded generator draws from it,
    which ``_rng.LegacyRandom`` draws with ``random.Random``: the seeds are
    the ones numpy takes, and each gives the corpora, splits and shuffles it
    gave when polarpipe drew with numpy.
    """
    value = int(raw)
    if not 0 <= value < 2**32:
        raise ValueError(f"seed {value} is outside [0, 2**32 - 1]")
    return value


_seed.__name__ = "int"  # usage errors name the wanted type


def _parse_names(raw: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not names:
        raise DataError(f"no label names in {raw!r}")
    return names


def _parse_floats(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise DataError(f"expected comma-separated numbers, got {raw!r}") from None


def _resolve_schema(options: dict) -> LabelSchema:
    preset = options.get("schema")
    labels = options.get("labels")
    if preset and labels:
        raise DataError("--schema and --labels are mutually exclusive")
    if preset:
        return LabelSchema(names=SCHEMA_PRESETS[preset])
    if labels:
        return LabelSchema(names=_parse_names(labels))
    raise DataError("a schema is required: pass --schema <preset> or --labels a,b,c")


def _config(cls, options: dict):
    """A ``cls`` from the options named after its fields; a flag that was not
    given is not an option, so its field keeps its default."""
    return cls(**{f.name: options[f.name] for f in fields(cls) if f.name in options})


def _featurizer_config(options: dict) -> FeaturizerConfig:
    from .linear_model import FeaturizerConfig

    return _config(FeaturizerConfig, options)


def _train_config(options: dict) -> TrainConfig:
    from .linear_model import TrainConfig

    return _config(TrainConfig, options)


def _split_config(options: dict) -> SplitConfig:
    from .splitter import SplitConfig

    return _config(SplitConfig, options)


def _split_dataset(ds: Dataset, cfg: SplitConfig, strategy: str):
    if strategy == "auto":
        strategy = "stratified" if ds.schema.is_binary else "iterative"
    if strategy == "stratified":
        return stratified_split(ds, cfg)
    return iterative_stratified_split(ds, cfg)


def _scorable(gold: Dataset | GoldLabels, flag: str, path: str | Path):
    """``gold``, or a ``DataError`` naming ``flag`` when it has no instances."""
    if not gold.ids:
        raise DataError(f"{flag} {path} has no instances; there is nothing to score")
    return gold


def _load_gold(path: str, schema: LabelSchema) -> GoldLabels:
    """``--gold``'s ids and labels; a file with no instances raises DataError."""
    return _scorable(load_labels(path, schema), "--gold", path)


def _print_metrics(metrics_: dict) -> None:
    """A stage's metrics, one per line: floats at 6 places (``base_theta`` at
    2), booleans in lowercase."""
    for key, value in metrics_.items():
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, float):
            value = f"{value:.2f}" if key == "base_theta" else f"{value:.6f}"
        print(f"{key}\t{value}")


# ---------------------------------------------------------------------------
# Stages
#
# One function per stage of the paper's chain. Each takes values in memory,
# writes the stage's outputs, and returns its result and the metrics that its
# command prints and the manifest records. The commands call them on what
# they read from files; ``pipeline`` calls them on what it already holds.


def _run_split(split, train_path, val_path) -> None:
    save_dataset(split.train, train_path)
    save_dataset(split.val, val_path)


def _run_train(train_ds: Dataset, val_ds: Dataset, tcfg, fcfg, model_path, history_path):
    model, report = train(train_ds, val_ds, tcfg=tcfg, fcfg=fcfg)
    save_model(model, model_path)
    if history_path:
        save_history(report, history_path)
    best = report.epoch_val_macro_f1[report.best_epoch - 1] if report.best_epoch else 0.0
    return model, {
        "epochs_run": len(report.epoch_train_loss),
        "best_epoch": report.best_epoch,
        "best_val_macro_f1": best,
        "stopped_early": report.stopped_early,
    }


def _run_predict(model, ds: Dataset, path) -> ProbabilityMatrix:
    pm = predict_proba(model, ds)
    save_probabilities(pm, path)
    return pm


def _run_tune(pm: ProbabilityMatrix, gold: Dataset | GoldLabels, path):
    """Tuned thresholds, and the macro-F1 the tuner maximizes at 0.5 and at them."""
    from . import calibration, metrics

    pm, labels = metrics.align(pm, gold)
    tv = calibration.tune(pm, labels)
    before, after = (
        metrics.score(pm.values, labels, thetas, pm.label_names, "positive-f1").macro_f1
        for thetas in ((0.5,) * pm.n_labels, tv.theta)
    )
    calibration.save_thresholds(tv, path)
    return tv, {"macro_f1_before": before, "macro_f1_after": after, "base_theta": tv.base_theta}


def _run_eval(pm, gold, thresholds, binary_mode: str, path, format_: str = "table") -> dict:
    from . import metrics

    report = metrics.evaluate(pm, gold, thresholds, binary_mode=binary_mode)
    render = metrics.format_machine if format_ == "machine" else metrics.format_report
    Path(path).write_text(render(report), encoding="utf-8")
    return {"macro_f1": report.macro_f1, "micro_f1": report.micro_f1}


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_stats(o: dict) -> int:
    stats = summarize(load_labels(o["data"], _resolve_schema(o)))
    print(f"n_instances\t{stats.n_instances}")
    print(f"all_zero_rows\t{stats.all_zero_rows}")
    print("label\tpositives\tpositive_pct\tneg_pos_ratio")
    for name, pos, pct, ratio in zip(
        stats.label_names,
        stats.per_label_positive,
        stats.per_label_positive_pct,
        stats.imbalance_ratio_per_label,
    ):
        ratio_s = "inf" if ratio == float("inf") else f"{ratio:.2f}"
        print(f"{name}\t{pos}\t{100.0 * pct:.2f}\t{ratio_s}")
    print("cardinality\tcount")
    for k, count in stats.label_cardinality_histogram.items():
        print(f"{k}\t{count}")
    return 0


def _cmd_split(o: dict) -> int:
    _check_outputs({"data": o["data"]}, {"--out-train": o["out_train"], "--out-val": o["out_val"]})
    schema = _resolve_schema(o)
    ds = load_dataset(o["data"], schema)
    result = _split_dataset(ds, _split_config(o), o["strategy"])
    _run_split(result, o["out_train"], o["out_val"])
    print(f"train\t{len(result.train)}\t{o['out_train']}")
    print(f"val\t{len(result.val)}\t{o['out_val']}")
    return 0


def _cmd_merge(o: dict) -> int:
    _check_outputs({"--primary": o["primary"], "--donor": o["donor"]}, {"--out": o["out"]})
    schema = _resolve_schema(o)
    primary = load_dataset(o["primary"], schema)
    donor = load_dataset(o["donor"], schema)
    merged = balanced_merge(primary, donor, seed=o["seed"])
    save_dataset(merged, o["out"])
    (n_pos,) = count_positives(Counter(merged.labels), 1)
    print(f"merged\t{len(merged)}\tpositives\t{n_pos}\t{o['out']}")
    return 0


def _cmd_train(o: dict) -> int:
    _check_outputs(
        {"--train": o["train"], "--val": o["val"]},
        {"--out-model": o["out_model"], "--out-history": o["out_history"]},
    )
    schema = _resolve_schema(o)
    tcfg = _train_config(o)
    fcfg = _featurizer_config(o)
    train_ds = load_dataset(o["train"], schema, keep_raw=False)
    val_ds = load_dataset(o["val"], schema, keep_raw=False)
    _, metrics_ = _run_train(train_ds, val_ds, tcfg, fcfg, o["out_model"], o["out_history"])
    _print_metrics(metrics_)
    return 0


def _cmd_predict(o: dict) -> int:
    _check_outputs({"--model": o["model"], "--data": o["data"]}, {"--out": o["out"]})
    model = load_model(o["model"])
    pm = _run_predict(model, load_dataset(o["data"], model.schema, keep_raw=False), o["out"])
    print(f"probabilities\t{pm.n_instances}x{pm.n_labels}\t{o['out']}")
    return 0


def _cmd_tune(o: dict) -> int:
    _check_outputs({"--probs": o["probs"], "--gold": o["gold"]}, {"--out": o["out"]})
    schema = _resolve_schema(o)
    pm = load_probabilities(o["probs"])
    _, metrics_ = _run_tune(pm, _load_gold(o["gold"], schema), o["out"])
    _print_metrics(metrics_)
    return 0


def _cmd_eval(o: dict) -> int:
    from . import calibration

    _check_outputs(
        {"--probs": o["probs"], "--gold": o["gold"], "--thresholds": o["thresholds"]},
        {"--out": o["out"]},
    )
    schema = _resolve_schema(o)
    pm = load_probabilities(o["probs"])
    gold = _load_gold(o["gold"], schema)
    if o.get("thresholds"):
        tv = calibration.load_thresholds(o["thresholds"])
        if tuple(tv.label_names) != tuple(schema.names):
            raise DataError(
                f"label mismatch: thresholds {tv.label_names} vs schema {schema.names}"
            )
    else:
        tv = calibration.default_thresholds(schema.names)
    _print_metrics(_run_eval(pm, gold, tv.theta, o["binary_mode"], o["out"], o["format"]))
    return 0


def _cmd_synth(o: dict) -> int:
    _check_outputs({}, {"--out": o["out"]})
    names = _parse_names(o["labels"]) if o["labels"] else None
    ds = generate_synthetic(
        o["n"],
        _parse_floats(o["rates"]),
        noise=o["noise"],
        seed=o["seed"],
        label_names=names,
    )
    save_dataset(ds, o["out"])
    print(f"synthetic\t{len(ds)}\t{o['out']}")
    return 0


def _stage(
    digests: dict[Path, str],
    name: str,
    config: dict,
    inputs: tuple[Path, ...],
    outputs: tuple[Path, ...],
    metrics_: dict | None = None,
) -> StageRecord:
    """A stage record naming each file by its base name; ``digests`` caches
    each path's digest across the run, which writes every file once, before
    it makes the records."""
    from .manifest import StageRecord

    for path in (*inputs, *outputs):
        if path not in digests:
            digests[path] = file_digest(path)
    return StageRecord(
        name=name,
        config=config,
        inputs=dict(sorted((path.name, digests[path]) for path in inputs)),
        outputs=dict(sorted((path.name, digests[path]) for path in outputs)),
        metrics=metrics_ or {},
    )


def _refuse_shared_names(stages: dict[str, tuple], given: dict[str, Path]) -> None:
    """Raise ``DataError`` when a file that a flag gives shares its base name with
    another input, or output, of one of ``stages`` (name: (config, inputs, outputs))."""
    for stage, (_, *groups) in stages.items():
        for paths in groups:
            for flag, path in given.items():
                twin = next((p for p in paths if p.name == path.name and p != path), None)
                if path in paths and twin is not None:
                    raise DataError(
                        f"{flag} {path} and the run's {twin} share the name {path.name}; "
                        f"the manifest's {stage} stage would record one digest for both"
                    )


def _file_keys(path: str | Path) -> set[tuple[int, int] | str]:
    """What identifies the file at ``path``: its resolved path, and also its
    device and inode, which hard links share, once it exists."""
    # os.path.realpath, unlike Path.resolve, leaves a symlink loop to the reader;
    # it also resolves ``..`` under a directory that does not exist yet, which
    # os.stat of the path as given cannot
    resolved = os.path.realpath(path)
    try:
        st = os.stat(resolved)
    except OSError:
        return {resolved}
    return {resolved, (st.st_dev, st.st_ino)}


def _refuse_overwriting(
    inputs: dict[str, str | Path | None], outputs: dict[str, str | Path | None]
) -> None:
    """Raise ``DataError`` when the run would write one of its inputs, or one file twice.

    Keys name the flags; an option that was not given is ``None``. Two paths
    are one file when any of their ``_file_keys`` match. Commands call this
    before they read or write anything.
    """
    outputs = {flag: path for flag, path in outputs.items() if path is not None}
    written: dict[tuple[int, int] | str, str] = {}  # file key -> the first output flag naming it
    for flag, path in outputs.items():
        keys = _file_keys(path)
        first = next((written[key] for key in keys if key in written), None)
        if first is not None:
            raise DataError(
                f"{first} {outputs[first]} and {flag} {path} are the same file; "
                "the run would write it twice"
            )
        written.update(dict.fromkeys(keys, flag))
    for flag, path in inputs.items():
        keys = set() if path is None else _file_keys(path)
        target = next((written[key] for key in keys if key in written), None)
        if target is not None:
            raise DataError(
                f"{flag} {path} is the run's output {outputs[target]}; "
                "the run would overwrite its own input"
            )


def _check_outputs(
    inputs: dict[str, str | Path | None], outputs: dict[str, str | Path | None]
) -> None:
    """``_refuse_overwriting``, then a ``DataError`` for an output whose directory is missing."""
    _refuse_overwriting(inputs, outputs)
    for flag, path in outputs.items():
        parent = os.path.dirname(path or "") or "."
        if not os.path.isdir(parent):
            raise DataError(f"{flag} {path}: {parent} is not a directory")


@contextmanager
def _removed_on_failure(outdir: Path, outputs: list[Path]):
    """Create ``outdir`` for the body; if the body raises, remove every path
    in ``outputs`` and each directory created here, then re-raise.

    A failed run then leaves no partial run directory, and any other file
    already in ``outdir`` stays.
    """
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        for path in outputs:
            with suppress(OSError):
                path.unlink(missing_ok=True)
        for d in created:  # deepest first; one that holds other files stays
            with suppress(OSError):
                d.rmdir()
        raise


def _cmd_pipeline(o: dict) -> int:
    from .manifest import PipelineManifest

    schema = _resolve_schema(o)
    tcfg = _train_config(o)
    fcfg = _featurizer_config(o)
    split_cfg = _split_config(o)
    seed = o["seed"]
    if not o["outdir"]:
        # Path("") is the working directory
        raise DataError("--outdir is empty")
    outdir = Path(o["outdir"])
    data_path = Path(o["data"])
    carving = not o["eval_data"]
    pool_path = outdir / "pool.jsonl" if carving else data_path
    eval_path = outdir / "eval.jsonl" if carving else Path(o["eval_data"])
    train_path = outdir / "train.jsonl"
    val_path = outdir / "val.jsonl"
    model_path = outdir / "model.bin"
    history_path = outdir / "history.tsv"
    val_probs_path = outdir / "val.probs"
    thresholds_path = outdir / "thresholds.tsv"
    eval_probs_path = outdir / "eval.probs"
    report_path = outdir / "report.tsv"
    manifest_path = outdir / "manifest.json"
    # name: (config, inputs, outputs), in the order the stages run
    stages = {
        "carve": (
            {"strategy": o["strategy"], "eval_fraction": o["eval_fraction"], "seed": seed},
            (data_path,),
            (pool_path, eval_path),
        ),
        "split": (
            {"strategy": o["strategy"], **asdict(split_cfg)},
            (pool_path,),
            (train_path, val_path),
        ),
        "train": (
            {**asdict(tcfg), **asdict(fcfg)},
            (train_path, val_path),
            (model_path, history_path),
        ),
        "predict_val": (asdict(fcfg), (model_path, val_path), (val_probs_path,)),
        "tune": ({}, (val_probs_path, val_path), (thresholds_path,)),
        "predict_eval": (asdict(fcfg), (model_path, eval_path), (eval_probs_path,)),
        "eval": (
            {"binary_mode": o["binary_mode"]},
            (eval_probs_path, eval_path, thresholds_path),
            (report_path,),
        ),
    }
    given = {"--data": data_path}
    if not carving:
        given["--eval-data"] = eval_path
        del stages["carve"]
    written = [path for _, _, outputs in stages.values() for path in outputs] + [manifest_path]
    _refuse_overwriting(given, {path.name: path for path in written})
    _refuse_shared_names(stages, given)
    # --data's records are written back to the split files; --eval-data's are only scored
    ds = load_dataset(data_path, schema)
    if carving:
        carve = _split_dataset(ds, replace(split_cfg, val_fraction=o["eval_fraction"]), o["strategy"])
        pool, eval_ds = carve.train, carve.val
    else:
        eval_ds = _scorable(load_dataset(eval_path, schema, keep_raw=False), "--eval-data", eval_path)
        pool = ds
        pool_ids = set(pool.ids)
        shared = next((i for i in eval_ds.ids if i in pool_ids), None)
        if shared is not None:
            raise DataError(
                f"--eval-data {eval_path} shares id {shared!r} with --data {data_path}; "
                "the run would score rows it trained on"
            )
    split = _split_dataset(pool, split_cfg, o["strategy"])
    metrics_ = {}
    with _removed_on_failure(outdir, written):
        if carving:
            _run_split(carve, pool_path, eval_path)
        _run_split(split, train_path, val_path)
        model, metrics_["train"] = _run_train(
            split.train, split.val, tcfg, fcfg, model_path, history_path
        )
        val_probs = _run_predict(model, split.val, val_probs_path)
        tv, metrics_["tune"] = _run_tune(val_probs, split.val, thresholds_path)
        eval_probs = _run_predict(model, eval_ds, eval_probs_path)
        metrics_["eval"] = _run_eval(eval_probs, eval_ds, tv.theta, o["binary_mode"], report_path)
        digests: dict[Path, str] = {}
        records = tuple(
            _stage(digests, name, *files, metrics_.get(name)) for name, files in stages.items()
        )
        save_manifest(PipelineManifest(seed=seed, stages=records), manifest_path)
    for record in records:
        print(f"stage\t{record.name}\tok")
    print(f"eval_macro_f1\t{metrics_['eval']['macro_f1']:.6f}")
    print(f"eval_micro_f1\t{metrics_['eval']['micro_f1']:.6f}")
    print(f"manifest\t{manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser construction


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema", choices=sorted(SCHEMA_PRESETS), help="named label-set preset")
    p.add_argument("--labels", help="comma-separated custom label names")


def _add_featurizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hash-dim", type=int, default=argparse.SUPPRESS)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learning-rate", type=float, default=argparse.SUPPRESS)
    p.add_argument("--weight-decay", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-epochs", type=int, default=argparse.SUPPRESS)
    p.add_argument("--batch-size", type=int, default=argparse.SUPPRESS)
    p.add_argument("--warmup-ratio", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-grad-norm", type=float, default=argparse.SUPPRESS)
    p.add_argument("--label-smoothing", type=float, default=argparse.SUPPRESS,
                   help="default: 0.1 for binary schemas, 0.0 otherwise")
    p.add_argument("--patience", type=int, default=argparse.SUPPRESS)
    p.add_argument("--weighting", choices=["balanced", "none"], default=argparse.SUPPRESS)


def _add_seed_flag(p: argparse.ArgumentParser) -> None:
    # only the commands that draw at random take a seed
    p.add_argument("--seed", type=_seed, default=42, help="integer in [0, 2**32 - 1]")


def _stats_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("data")
    _add_schema_flags(p)


def _split_args(p: argparse.ArgumentParser) -> None:
    _add_seed_flag(p)
    p.add_argument("data")
    _add_schema_flags(p)
    p.add_argument("--val-fraction", type=float, default=argparse.SUPPRESS)
    p.add_argument("--strategy", choices=["auto", "stratified", "iterative"], default="auto")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-val", required=True)


def _merge_args(p: argparse.ArgumentParser) -> None:
    _add_seed_flag(p)
    p.add_argument("--primary", required=True)
    p.add_argument("--donor", required=True)
    _add_schema_flags(p)
    p.add_argument("--out", required=True)


def _train_args(p: argparse.ArgumentParser) -> None:
    _add_seed_flag(p)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    _add_schema_flags(p)
    _add_featurizer_flags(p)
    _add_train_flags(p)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-history")


def _predict_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)


def _tune_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--probs", required=True)
    p.add_argument("--gold", required=True)
    _add_schema_flags(p)
    p.add_argument("--out", required=True)


def _eval_args(p: argparse.ArgumentParser) -> None:
    from .metrics import BINARY_MODES

    p.add_argument("--probs", required=True)
    p.add_argument("--gold", required=True)
    _add_schema_flags(p)
    p.add_argument("--thresholds", help="thresholds file; omitted: 0.5 everywhere")
    p.add_argument("--binary-mode", choices=list(BINARY_MODES), default="two-class-macro")
    p.add_argument("--format", choices=["table", "machine"], default="table")
    p.add_argument("--out", required=True)


def _synth_args(p: argparse.ArgumentParser) -> None:
    _add_seed_flag(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rates", required=True, help="comma-separated per-label positive rates")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--labels", help="comma-separated label names")
    p.add_argument("--out", required=True)


def _pipeline_args(p: argparse.ArgumentParser) -> None:
    from .metrics import BINARY_MODES

    _add_seed_flag(p)
    p.add_argument("--data", required=True)
    _add_schema_flags(p)
    p.add_argument("--outdir", required=True)
    p.add_argument("--eval-data", help="held-out file; omitted: carved from --data")
    p.add_argument("--eval-fraction", type=float, default=0.2)
    p.add_argument("--val-fraction", type=float, default=argparse.SUPPRESS)
    p.add_argument("--strategy", choices=["auto", "stratified", "iterative"], default="auto")
    _add_featurizer_flags(p)
    _add_train_flags(p)
    p.add_argument("--binary-mode", choices=list(BINARY_MODES), default="two-class-macro")


# name: (help line, arguments, handler), in the order ``--help`` lists them
_COMMANDS = {
    "stats": ("corpus statistics", _stats_args, _cmd_stats),
    "split": ("train/validation split", _split_args, _cmd_split),
    "merge": ("balance a binary corpus with donor instances", _merge_args, _cmd_merge),
    "train": ("train the linear classifier", _train_args, _cmd_train),
    "predict": ("write probabilities for a dataset", _predict_args, _cmd_predict),
    "tune": ("two-stage threshold tuning on validation data", _tune_args, _cmd_tune),
    "eval": ("score probabilities against gold labels", _eval_args, _cmd_eval),
    "synth": ("generate a synthetic corpus", _synth_args, _cmd_synth),
    "pipeline": ("split, train, tune, and evaluate in one run", _pipeline_args, _cmd_pipeline),
}


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser; only the command ``argv`` names gets its arguments.

    Every command is listed. The top-level parser takes no option with a
    value, so the first token that names a command is the command argparse
    will run.
    """
    parser = argparse.ArgumentParser(
        prog="polarpipe",
        description="Imbalanced multi-label text classification pipeline.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    cmd = next((token for token in argv if token in _COMMANDS), None)
    for name, (help_, add_arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        if name == cmd:
            add_arguments(p)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute one invocation; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv).parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        options = {k: v for k, v in vars(args).items() if k != "cmd"}
        return _COMMANDS[args.cmd][2](options)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(run(sys.argv[1:]))
