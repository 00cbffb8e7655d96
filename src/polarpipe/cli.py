"""Command-line interface: one executable, subcommand per pipeline stage.

Every subcommand is a pure function of its input files, flags, and seed.
``pipeline`` chains split, train, predict, tune, and eval, and writes a
manifest recording each stage's config hash and file digests. A flat
key=value config file can stand in for flags; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .corpus import (
    DataError,
    Dataset,
    GoldLabels,
    LabelSchema,
    load_dataset,
    load_labels,
    open_text,
    save_dataset,
    summarize,
)
from .probs import ProbabilityMatrix, load_probabilities, save_probabilities

if TYPE_CHECKING:
    from .linear_model import FeaturizerConfig, TrainConfig
    from .manifest import StageRecord

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
# Stage functions
#
# Each command imports only the modules it runs: ``eval`` never loads the
# trainer, ``predict`` never loads the metrics. The stage functions still
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
    """``int(raw)``, refused outside [0, 2**32 - 1], the seeds numpy's RandomState takes."""
    value = int(raw)
    if not 0 <= value < 2**32:
        raise ValueError(f"seed {value} is outside [0, 2**32 - 1]")
    return value


_seed.__name__ = "int"  # usage and config-file errors name the wanted type


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


def _parse_ints(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise DataError(f"expected comma-separated integers, got {raw!r}") from None


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


def _featurizer_config(options: dict) -> FeaturizerConfig:
    from .linear_model import FeaturizerConfig

    return FeaturizerConfig(
        hash_dim=options["hash_dim"],
        ngram_orders=_parse_ints(options["ngrams"]),
        tf_mode=options["tf_mode"],
        l2_normalize=not options["no_l2_normalize"],
    )


def _train_config(options: dict) -> TrainConfig:
    from .linear_model import TrainConfig

    return TrainConfig(
        learning_rate=options["learning_rate"],
        weight_decay=options["weight_decay"],
        max_epochs=options["max_epochs"],
        batch_size=options["batch_size"],
        accumulation_steps=options["accumulation_steps"],
        warmup_ratio=options["warmup_ratio"],
        warmup_steps=options["warmup_steps"],
        max_grad_norm=options["max_grad_norm"],
        label_smoothing=options["label_smoothing"],
        patience=options["patience"],
        seed=options["seed"],
    )


def _split_dataset(ds: Dataset, fraction: float, seed: int, strategy: str):
    from .splitter import SplitConfig

    cfg = SplitConfig(val_fraction=fraction, seed=seed)
    if strategy == "auto":
        strategy = "stratified" if ds.schema.is_binary else "iterative"
    if strategy == "stratified":
        return stratified_split(ds, cfg)
    return iterative_stratified_split(ds, cfg)


def _tune(pm: ProbabilityMatrix, gold_ds: Dataset | GoldLabels):
    """Tuned thresholds, plus the macro-F1 the tuner maximizes at 0.5 and at them."""
    import numpy as np

    from . import calibration, metrics

    pm, gold = metrics.align(pm, gold_ds)
    tv = calibration.tune(pm, gold)
    before, after = (
        metrics.score(pm.values, gold, thetas, pm.label_names, "positive-f1").macro_f1
        for thetas in (np.full(pm.n_labels, 0.5), tv.theta)
    )
    return tv, before, after


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_stats(o: dict) -> int:
    schema = _resolve_schema(o)
    ds = load_dataset(o["data"], schema)
    stats = summarize(ds)
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
    schema = _resolve_schema(o)
    ds = load_dataset(o["data"], schema)
    result = _split_dataset(ds, o["val_fraction"], o["seed"], o["strategy"])
    save_dataset(result.train, o["out_train"])
    save_dataset(result.val, o["out_val"])
    print(f"train\t{len(result.train)}\t{o['out_train']}")
    print(f"val\t{len(result.val)}\t{o['out_val']}")
    return 0


def _cmd_merge(o: dict) -> int:
    schema = _resolve_schema(o)
    primary = load_dataset(o["primary"], schema)
    donor = load_dataset(o["donor"], schema)
    merged = balanced_merge(primary, donor, seed=o["seed"])
    save_dataset(merged, o["out"])
    n_pos = sum(inst.labels[0] for inst in merged.instances)
    print(f"merged\t{len(merged)}\tpositives\t{n_pos}\t{o['out']}")
    return 0


def _cmd_train(o: dict) -> int:
    schema = _resolve_schema(o)
    tcfg = _train_config(o)
    fcfg = _featurizer_config(o)
    train_ds = load_dataset(o["train"], schema)
    val_ds = load_dataset(o["val"], schema)
    model, report = train(
        train_ds, val_ds, tcfg=tcfg, fcfg=fcfg, weighting_mode=o["weighting"]
    )
    save_model(model, o["out_model"])
    if o["out_history"]:
        save_history(report, o["out_history"])
    best = (
        report.epoch_val_macro_f1[report.best_epoch - 1] if report.best_epoch else 0.0
    )
    print(f"epochs_run\t{len(report.epoch_train_loss)}")
    print(f"best_epoch\t{report.best_epoch}")
    print(f"best_val_macro_f1\t{best:.6f}")
    print(f"stopped_early\t{str(report.stopped_early).lower()}")
    return 0


def _cmd_predict(o: dict) -> int:
    model = load_model(o["model"])
    ds = load_dataset(o["data"], model.schema)
    pm = predict_proba(model, ds)
    save_probabilities(pm, o["out"])
    print(f"probabilities\t{pm.n_instances}x{pm.n_labels}\t{o['out']}")
    return 0


def _cmd_tune(o: dict) -> int:
    from . import calibration

    schema = _resolve_schema(o)
    pm = load_probabilities(o["probs"])
    tv, before, after = _tune(pm, load_labels(o["gold"], schema))
    calibration.save_thresholds(tv, o["out"])
    print(f"macro_f1_before\t{before:.6f}")
    print(f"macro_f1_after\t{after:.6f}")
    print(f"base_theta\t{tv.base_theta:.2f}")
    return 0


def _cmd_eval(o: dict) -> int:
    from . import calibration, metrics

    schema = _resolve_schema(o)
    pm = load_probabilities(o["probs"])
    gold = load_labels(o["gold"], schema)
    if o.get("thresholds"):
        tv = calibration.load_thresholds(o["thresholds"])
        if tuple(tv.label_names) != tuple(schema.names):
            raise DataError(
                f"label mismatch: thresholds {tv.label_names} vs schema {schema.names}"
            )
    else:
        tv = calibration.default_thresholds(schema.names)
    report = metrics.evaluate(pm, gold, tv.theta, binary_mode=o["binary_mode"])
    if o["format"] == "machine":
        text = metrics.format_machine(report)
    else:
        text = metrics.format_report(report)
    Path(o["out"]).write_text(text, encoding="utf-8")
    print(f"macro_f1\t{report.macro_f1:.6f}")
    print(f"micro_f1\t{report.micro_f1:.6f}")
    return 0


def _cmd_synth(o: dict) -> int:
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
    inputs: dict[str, Path],
    outputs: dict[str, Path],
    metrics_: dict | None = None,
) -> StageRecord:
    """A stage record; ``digests`` caches each path's digest for the whole run.

    Every file a run writes is written once, before the first record that
    names it, so a path's digest never changes after it is first taken.
    """
    from .manifest import StageRecord

    for path in (*inputs.values(), *outputs.values()):
        if path not in digests:
            digests[path] = file_digest(path)
    return StageRecord(
        name=name,
        config=config,
        inputs={n: digests[p] for n, p in sorted(inputs.items())},
        outputs={n: digests[p] for n, p in sorted(outputs.items())},
        metrics=metrics_ or {},
    )


def _cmd_pipeline(o: dict) -> int:
    from dataclasses import asdict

    from . import calibration, metrics
    from .manifest import PipelineManifest

    schema = _resolve_schema(o)
    tcfg = _train_config(o)
    fcfg = _featurizer_config(o)
    seed = o["seed"]
    outdir = Path(o["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    data_path = Path(o["data"])
    ds = load_dataset(data_path, schema)
    stages: list[StageRecord] = []
    digests: dict[Path, str] = {}

    if o["eval_data"]:
        eval_path = Path(o["eval_data"])
        eval_ds = load_dataset(eval_path, schema)
        pool = ds
        pool_path = data_path
    else:
        carve = _split_dataset(ds, o["eval_fraction"], seed, o["strategy"])
        pool, eval_ds = carve.train, carve.val
        pool_path = outdir / "pool.jsonl"
        eval_path = outdir / "eval.jsonl"
        save_dataset(pool, pool_path)
        save_dataset(eval_ds, eval_path)
        stages.append(
            _stage(
                digests,
                "carve",
                {
                    "strategy": o["strategy"],
                    "eval_fraction": o["eval_fraction"],
                    "seed": seed,
                },
                {data_path.name: data_path},
                {"pool.jsonl": pool_path, "eval.jsonl": eval_path},
            )
        )

    split = _split_dataset(pool, o["val_fraction"], seed, o["strategy"])
    train_path = outdir / "train.jsonl"
    val_path = outdir / "val.jsonl"
    save_dataset(split.train, train_path)
    save_dataset(split.val, val_path)
    stages.append(
        _stage(
            digests,
            "split",
            {"strategy": o["strategy"], "val_fraction": o["val_fraction"], "seed": seed},
            {pool_path.name: pool_path},
            {"train.jsonl": train_path, "val.jsonl": val_path},
        )
    )

    model, report = train(
        split.train, split.val, tcfg=tcfg, fcfg=fcfg, weighting_mode=o["weighting"]
    )
    model_path = outdir / "model.bin"
    history_path = outdir / "history.tsv"
    save_model(model, model_path)
    save_history(report, history_path)
    best = report.epoch_val_macro_f1[report.best_epoch - 1] if report.best_epoch else 0.0
    stages.append(
        _stage(
            digests,
            "train",
            {"weighting": o["weighting"], **asdict(tcfg), **asdict(fcfg)},
            {"train.jsonl": train_path, "val.jsonl": val_path},
            {"model.bin": model_path, "history.tsv": history_path},
            {
                "epochs_run": len(report.epoch_train_loss),
                "best_epoch": report.best_epoch,
                "best_val_macro_f1": best,
                "stopped_early": report.stopped_early,
            },
        )
    )

    val_probs = predict_proba(model, split.val)
    val_probs_path = outdir / "val.probs"
    save_probabilities(val_probs, val_probs_path)
    stages.append(
        _stage(
            digests,
            "predict_val",
            {},
            {"model.bin": model_path, "val.jsonl": val_path},
            {"val.probs": val_probs_path},
        )
    )

    tv, before, after = _tune(val_probs, split.val)
    thresholds_path = outdir / "thresholds.tsv"
    calibration.save_thresholds(tv, thresholds_path)
    stages.append(
        _stage(
            digests,
            "tune",
            {},
            {"val.probs": val_probs_path, "val.jsonl": val_path},
            {"thresholds.tsv": thresholds_path},
            {
                "macro_f1_before": before,
                "macro_f1_after": after,
                "base_theta": tv.base_theta,
            },
        )
    )

    eval_probs = predict_proba(model, eval_ds)
    eval_probs_path = outdir / "eval.probs"
    save_probabilities(eval_probs, eval_probs_path)
    stages.append(
        _stage(
            digests,
            "predict_eval",
            {},
            {"model.bin": model_path, eval_path.name: eval_path},
            {"eval.probs": eval_probs_path},
        )
    )

    eval_report = metrics.evaluate(eval_probs, eval_ds, tv.theta, binary_mode=o["binary_mode"])
    report_path = outdir / "report.tsv"
    metrics.save_report(eval_report, report_path)
    stages.append(
        _stage(
            digests,
            "eval",
            {"binary_mode": o["binary_mode"]},
            {
                "eval.probs": eval_probs_path,
                eval_path.name: eval_path,
                "thresholds.tsv": thresholds_path,
            },
            {"report.tsv": report_path},
            {"macro_f1": eval_report.macro_f1, "micro_f1": eval_report.micro_f1},
        )
    )

    manifest = PipelineManifest(seed=seed, stages=tuple(stages))
    save_manifest(manifest, outdir / "manifest.json")
    for stage in stages:
        print(f"stage\t{stage.name}\tok")
    print(f"eval_macro_f1\t{eval_report.macro_f1:.6f}")
    print(f"eval_micro_f1\t{eval_report.micro_f1:.6f}")
    print(f"manifest\t{outdir / 'manifest.json'}")
    return 0


# ---------------------------------------------------------------------------
# Parser construction and config-file merging


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema", choices=sorted(SCHEMA_PRESETS), help="named label-set preset")
    p.add_argument("--labels", help="comma-separated custom label names")


def _add_featurizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hash-dim", type=int, default=2**18)
    p.add_argument("--ngrams", default="1,2", help="comma-separated n-gram orders")
    p.add_argument("--tf-mode", choices=["count", "binary"], default="count")
    p.add_argument("--no-l2-normalize", action="store_true")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learning-rate", type=float, default=2e-2)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--max-epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--accumulation-steps", type=int, default=2)
    p.add_argument("--warmup-ratio", type=float, default=0.1)
    p.add_argument("--warmup-steps", type=int, default=None)
    p.add_argument("--max-grad-norm", type=float, default=1.0)
    p.add_argument("--label-smoothing", type=float, default=None,
                   help="default: 0.1 for binary schemas, 0.0 otherwise")
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--weighting", choices=["balanced", "none"], default="balanced")


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
    p.add_argument("--val-fraction", type=float, default=0.2)
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
    p.add_argument("--val-fraction", type=float, default=0.2)
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


def _build_parser(argv: Sequence[str]):
    """The parser, and the subparser of the command ``argv`` names, or None.

    Every command is listed, but only the named one gets its arguments. The
    top-level parser takes no option with a value, so the first token that
    names a command is the command argparse will run.
    """
    parser = argparse.ArgumentParser(
        prog="polarpipe",
        description="Imbalanced multi-label text classification pipeline.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    cmd = next((token for token in argv if token in _COMMANDS), None)
    chosen = None
    for name, (help_, add_arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        if name == cmd:
            p.add_argument("--config", help="key=value file; explicit flags override it")
            add_arguments(p)
            chosen = p
    return parser, chosen


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open_text(Path(path)) as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc.strerror}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno} is not key=value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _convert_config_value(action: argparse.Action, raw: str, path: str) -> object:
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise DataError(f"{path}: {action.dest} wants a boolean, got {raw!r}")
    try:
        value = action.type(raw) if action.type else raw
    except ValueError:
        name = action.type.__name__
        article = "an" if name[0] in "aeiou" else "a"
        raise DataError(f"{path}: {action.dest} wants {article} {name}, got {raw!r}") from None
    if action.choices and value not in action.choices:
        raise DataError(
            f"{path}: {action.dest} must be one of {sorted(action.choices)}, got {raw!r}"
        )
    return value


def _apply_config_file(args: argparse.Namespace, subparser: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    values = _parse_config_file(args.config)
    actions = {a.dest: a for a in subparser._actions if a.option_strings}
    explicit: set[str] = set()
    for action in actions.values():
        for optname in action.option_strings:
            if any(tok == optname or tok.startswith(optname + "=") for tok in argv):
                explicit.add(action.dest)
    for key, raw in values.items():
        if key in ("config", "cmd"):
            raise DataError(f"{args.config}: key {key!r} is not configurable")
        if key not in actions:
            raise DataError(f"{args.config}: unknown key {key!r}")
        if key in explicit:
            continue
        setattr(args, key, _convert_config_value(actions[key], raw, args.config))


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute one invocation; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    parser, subparser = _build_parser(argv)
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "config", None):
            _apply_config_file(args, subparser, argv)
        options = {k: v for k, v in vars(args).items() if k not in ("cmd", "config")}
        return _COMMANDS[args.cmd][2](options)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(run(sys.argv[1:]))
