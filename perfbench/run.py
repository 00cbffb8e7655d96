"""polarpipe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit-multilabel --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The package is built out of tree first
(see ``build.py``); then the workload's inputs are generated from the seed,
set-up is timed several times, and the measured commands run as child
processes, in whole rounds, until ``--seconds`` have passed. Every output
is checked. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from spans recorded by
``tracer.py`` with ``--trace 1``. A fuller record goes to
``.bench_runs/results/``.
"""

from __future__ import annotations

import os

# one process at a time does the work, single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import build
import checks
import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # every run ends within 180 s
WORKLOADS = ("fit-multilabel", "fit-binary-wide", "score-social")
SETUP_REPEATS = 3
NORMALIZATION_SAMPLE = 300
# eval macro-F1 must lie in [baseline + FLOOR_SHARE * (oracle - baseline),
# oracle + ORACLE_SLACK], where the baseline predicts every label everywhere.
# Over seeds 101-120 the lowest share of that gap reached was 0.44.
FLOOR_SHARE = 0.25
ORACLE_SLACK = 0.02


def declared_units(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Metric name -> unit, end-to-end and per-layer, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("the run is past its deadline")
        return left


@dataclass
class Child:
    wall_s: float
    code: int
    stdout: str


def run_child(args: list[str], env: dict, log: Path, deadline: Deadline) -> Child:
    """Run one command to its end; a command past the deadline is killed."""
    with open(log, "w", encoding="utf-8") as out, open(log.with_suffix(".err"), "w") as err:
        timeout = deadline.left()
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=log.parent)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            proc.kill()
            proc.wait()
        wall = time.perf_counter() - start
    return Child(wall, proc.returncode, log.read_text(encoding="utf-8"))


def printed(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        name, _, value = line.partition("\t")
        if name == key:
            return float(value)
    raise checks.CheckFailed(f"the command printed no {key}")


def digests(paths: list[Path]) -> dict[str, str]:
    return {p.name: checks.sha256(p) for p in paths}


@dataclass
class Op:
    """One measured operation: the commands of one round of the workload."""

    wall_s: float = 0.0
    scaled_s: float = 0.0  # the sum of hostspeed.Clock.scale over the commands
    rss_bytes: int = 0
    ok: bool = True
    traced: bool = False
    stdout: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


class Workload:
    """Set-up, measured commands and checks of one workload."""

    def __init__(self, name: str, seed: int, work: Path, env: dict, deadline: Deadline):
        self.name, self.seed, self.work, self.env, self.deadline = name, seed, work, env, deadline
        self.py = sys.executable
        self.clock = hostspeed.Clock()

    def command(self, op_dir: Path, traced: bool, key: str, cli_args: list[str]) -> list[str]:
        if traced:
            return [self.py, str(HERE / "tracer.py"), str(op_dir / f"spans-{key}.json"), *cli_args]
        return [self.py, str(HERE / "launch.py"), str(op_dir / f"peak-{key}.txt"), *cli_args]

    def run_op(self, op_dir: Path, traced: bool) -> Op:
        op_dir.mkdir(parents=True)
        op = Op(traced=traced)
        for key, cli_args in self.commands(op_dir):
            child = run_child(self.command(op_dir, traced, key, cli_args), self.env, op_dir / f"{key}.out", self.deadline)
            op.wall_s += child.wall_s
            op.scaled_s += self.clock.scale(child.wall_s)
            op.stdout[key] = child.stdout
            if child.code != 0:
                sys.stderr.write(f"{key} exited {child.code}:\n{(op_dir / f'{key}.err').read_text()}\n")
                op.ok = False
                return op
            if traced:
                op.spans.append(json.loads((op_dir / f"spans-{key}.json").read_text()))
            else:
                op.rss_bytes = max(op.rss_bytes, int((op_dir / f"peak-{key}.txt").read_text()))
        return op


class Fit(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.spec = workloads.FIT[self.name]
        self.corpus = self.work / "corpus.jsonl"
        self.n_docs = self.spec.n_docs

    def setup(self) -> None:
        """Write the corpus with ``polarpipe synth``, then load it back with
        ``polarpipe stats`` and check its label counts before any op reads it."""
        child = run_child(
            [
                self.py, "-m", "polarpipe", "synth",
                "--n", str(self.spec.n_docs),
                "--rates", ",".join(map(str, self.spec.rates)),
                "--noise", str(self.spec.noise),
                "--labels", ",".join(self.spec.labels),
                "--seed", str(self.seed),
                "--out", str(self.corpus),
            ],
            self.env, self.work / "synth.out", self.deadline,
        )
        if child.code != 0:
            raise RuntimeError(f"synth exited {child.code}: {(self.work / 'synth.err').read_text()}")
        child = run_child(
            [self.py, "-m", "polarpipe", "stats", str(self.corpus), "--schema", self.spec.schema],
            self.env, self.work / "stats.out", self.deadline,
        )
        if child.code != 0:
            raise RuntimeError(f"stats exited {child.code}: {(self.work / 'stats.err').read_text()}")
        _, _, gold = checks.read_jsonl(self.corpus, self.spec.labels)
        checks.check_corpus_stats(child.stdout, gold, self.spec.labels)

    def setup_outputs(self) -> list[Path]:
        return [self.corpus]

    def commands(self, op_dir: Path):
        yield "pipeline", [
            "pipeline", "--data", str(self.corpus), "--schema", self.spec.schema,
            "--outdir", str(op_dir / "run"), "--seed", str(self.seed), *self.spec.flags,
        ]

    def outputs(self, op_dir: Path) -> list[Path]:
        return sorted((op_dir / "run").iterdir())

    def eval_f1(self, op: Op) -> float:
        return printed(op.stdout["pipeline"], "eval_macro_f1")

    def check(self, op_dir: Path, op: Op) -> dict:
        run, names = op_dir / "run", self.spec.labels
        corpus_ids, _, _ = checks.read_jsonl(self.corpus, names)
        pool_ids, _, _ = checks.read_jsonl(run / "pool.jsonl", names)
        eval_ids, eval_texts, eval_gold = checks.read_jsonl(run / "eval.jsonl", names)
        train_ids, _, _ = checks.read_jsonl(run / "train.jsonl", names)
        val_ids, _, val_gold = checks.read_jsonl(run / "val.jsonl", names)
        files = checks.check_manifest(run, self.corpus)
        checks.check_partition(corpus_ids, pool_ids, eval_ids, 0.2, "carve")
        checks.check_partition(pool_ids, train_ids, val_ids, 0.2, "split")
        th_names, thetas = checks.read_thresholds(run / "thresholds.tsv")
        checks.check_thresholds(th_names, thetas, names)
        vp_ids, _, val_probs = checks.read_probs(run / "val.probs")
        ep_ids, _, eval_probs = checks.read_probs(run / "eval.probs")
        checks.check_probabilities(vp_ids, val_probs, val_ids, "val.probs")
        checks.check_probabilities(ep_ids, eval_probs, eval_ids, "eval.probs")
        tuned, half = checks.check_tuning_gain(val_probs, val_gold, thetas, names)
        f1 = checks.check_eval_f1(
            self.eval_f1(op), eval_probs, eval_gold, thetas, names, checks.read_report(run / "report.tsv")
        )
        return {
            "manifest_files": files,
            "val_macro_f1_tuned": tuned,
            "val_macro_f1_at_half": half,
            "eval_macro_f1": f1,
            **quality_band(f1, eval_texts, eval_gold, names),
        }


class Social(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.train_corpus = self.work / "social-train.jsonl"
        self.corpus = self.work / "social-score.jsonl"
        self.model = self.work / "model"
        self.n_docs = workloads.SOCIAL_SCORE_DOCS
        self.table = workloads.parse_emoji_table(Path(self.env["PYTHONPATH"]) / "polarpipe" / "data" / "emoji_table.tsv")
        self.expected: dict[str, str] = {}

    def setup(self) -> None:
        from polarpipe.corpus import save_dataset

        train, _ = workloads.social_corpus(
            workloads.SOCIAL_TRAIN_DOCS, 2 * self.seed + 1, 2 * self.seed + 1, self.table
        )
        score, self.expected = workloads.social_corpus(
            workloads.SOCIAL_SCORE_DOCS, 2 * self.seed + 2, 2 * self.seed + 2, self.table
        )
        save_dataset(train, self.train_corpus)
        save_dataset(score, self.corpus)
        if self.model.exists():
            shutil.rmtree(self.model)
        child = run_child(
            [
                self.py, "-m", "polarpipe", "pipeline", "--data", str(self.train_corpus),
                "--schema", "subtask2", "--outdir", str(self.model), "--seed", str(self.seed),
                *workloads.SOCIAL_TRAIN_FLAGS,
            ],
            self.env, self.work / "train.out", self.deadline,
        )
        if child.code != 0:
            raise RuntimeError(f"training exited {child.code}: {(self.work / 'train.err').read_text()}")

    def setup_outputs(self) -> list[Path]:
        return [self.train_corpus, self.corpus, self.model / "model.bin", self.model / "thresholds.tsv"]

    def commands(self, op_dir: Path):
        probs = op_dir / "score.probs"
        yield "predict", ["predict", "--model", str(self.model / "model.bin"), "--data", str(self.corpus), "--out", str(probs)]
        yield "eval", [
            "eval", "--probs", str(probs), "--gold", str(self.corpus), "--schema", "subtask2",
            "--thresholds", str(self.model / "thresholds.tsv"), "--format", "machine",
            "--out", str(op_dir / "report.txt"),
        ]

    def outputs(self, op_dir: Path) -> list[Path]:
        return [op_dir / "score.probs", op_dir / "report.txt"]

    def eval_f1(self, op: Op) -> float:
        return printed(op.stdout["eval"], "macro_f1")

    def check(self, op_dir: Path, op: Op) -> dict:
        from polarpipe.corpus import preprocess

        names = workloads.SUBTASK2
        ids, raws, gold = checks.read_jsonl(self.corpus, names)
        p_ids, _, probs = checks.read_probs(op_dir / "score.probs")
        checks.check_probabilities(p_ids, probs, ids, "score.probs")
        th_names, thetas = checks.read_thresholds(self.model / "thresholds.tsv")
        checks.check_thresholds(th_names, thetas, names)
        f1 = checks.check_eval_f1(
            self.eval_f1(op), probs, gold, thetas, names, checks.read_report(op_dir / "report.txt")
        )
        band = quality_band(f1, [self.expected[i] for i in ids], gold, names)
        rng = np.random.RandomState(self.seed)
        sample = rng.choice(len(ids), size=min(NORMALIZATION_SAMPLE, len(ids)), replace=False)
        raw_by_id = dict(zip(ids, raws))
        expected = {ids[i]: self.expected[ids[i]] for i in sample}
        normalized = {ident: preprocess(raw_by_id[ident]) for ident in expected}
        again = {ident: preprocess(text) for ident, text in normalized.items()}
        checks.check_normalization(expected, normalized, again)
        return {"eval_macro_f1": f1, **band, "normalization_checked": len(expected)}


def quality_band(f1: float, texts: list[str], gold: np.ndarray, names: tuple[str, ...]) -> dict:
    """Check eval macro-F1 against the signal oracle and the all-positive baseline."""
    two_class = len(names) == 1
    oracle = checks.macro_f1(checks.confusion_rows(checks.signal_oracle(texts, len(names)), gold, names, two_class))
    baseline = checks.macro_f1(checks.confusion_rows(np.ones_like(gold), gold, names, two_class))
    floor = baseline + FLOOR_SHARE * (oracle - baseline)
    checks.check_oracle_band(f1, oracle, floor, ORACLE_SLACK)
    return {"oracle_macro_f1": oracle, "baseline_macro_f1": baseline, "floor_macro_f1": floor}


def layer_metrics(op: Op, names: list[str]) -> dict[str, float]:
    """The named per-layer metrics of one traced op, but ``trace.overhead_s``,
    which needs untraced ops too. ``<layer>.s`` is the layer's span time;
    other names are the tracer's counts or derived from them."""
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    covered = 0.0
    for record in op.spans:
        for name, start, end, parent in record["spans"]:
            seconds[name] += end - start
            if parent == -1:
                covered += end - start
        for key, value in record["counts"].items():
            counts[key] += value
    epochs = counts["linear_model.train.epochs"]
    rows = counts["kernels.csr_grad_weights.out_rows"]
    derived = {
        "linear_model.train.s_per_epoch": seconds["linear_model.train"] / epochs if epochs else 0.0,
        "kernels.csr_grad_weights.touched_row_ratio": (
            counts["kernels.csr_grad_weights.touched_rows"] / rows if rows else 0.0
        ),
        "cli.self_s": op.wall_s - covered,
    }
    out = {}
    for key in names:
        if key in derived:
            out[key] = derived[key]
        elif key.endswith(".s"):
            out[key] = seconds[key[:-2]]
        elif key != "trace.overhead_s":
            out[key] = counts[key]
    return out


class Run:
    """Set-up, measurement and checks of one run; ``metrics()`` summarizes it."""

    def __init__(self, wl: Workload, seconds: float, trace: bool, names: list[str]):
        self.wl, self.seconds, self.trace, self.names = wl, seconds, trace, names
        self.setup_s: list[float] = []
        self.setup_scaled_s: list[float] = []
        self.ops: list[Op] = []
        self.report: dict = {}
        self.failures: list[str] = []
        self.output_bytes = 0
        self.printed_f1 = 0.0

    def set_up(self, repeats: int) -> None:
        first = None
        for i in range(repeats):
            start = time.perf_counter()
            self.wl.setup()
            self.setup_s.append(time.perf_counter() - start)
            self.setup_scaled_s.append(self.wl.clock.scale(self.setup_s[-1]))
            outputs = digests(self.wl.setup_outputs())
            if first is None:
                first = outputs
            else:
                self.guard(checks.check_same_outputs, first, outputs, f"set-up {i}")

    def guard(self, check, *args):
        try:
            return check(*args)
        except checks.CheckFailed as exc:
            self.failures.append(str(exc))
            return {}

    def measure(self) -> None:
        """Whole rounds until the time is up; with tracing a round is one
        traced and one untraced op, so the overhead is measured too."""
        first = None
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds:
            for traced in (True, False) if self.trace else (False,):
                op_dir = self.wl.work / f"op{len(self.ops)}"
                op = self.wl.run_op(op_dir, traced)
                self.ops.append(op)
                if not op.ok:
                    continue
                outputs = digests(self.wl.outputs(op_dir))
                if first is None:
                    first = outputs
                    self.output_bytes = sum(p.stat().st_size for p in self.wl.outputs(op_dir))
                    self.printed_f1 = self.guard(self.wl.eval_f1, op) or 0.0
                    self.report = self.guard(self.wl.check, op_dir, op)
                else:
                    self.guard(checks.check_same_outputs, first, outputs, op_dir.name)
                    shutil.rmtree(op_dir)

    def metrics(self) -> dict[str, float]:
        done = [op for op in self.ops if op.ok]
        untraced = [op for op in done if not op.traced]
        traced = [op for op in done if op.traced]
        if self.trace:
            if not traced or not untraced:
                return {}
            per_op = [layer_metrics(op, self.names) for op in traced]
            values = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
            values["trace.overhead_s"] = statistics.median(op.wall_s for op in traced) - statistics.median(
                op.wall_s for op in untraced
            )
        elif untraced:
            values = {
                "docs_per_s": statistics.median(self.wl.n_docs / op.scaled_s for op in untraced),
                "setup_s": statistics.median(self.setup_scaled_s),
                "peak_rss_mb": statistics.median(op.rss_bytes for op in untraced) / 1e6,
                "eval_macro_f1": self.printed_f1,
                "output_mb": self.output_bytes / 1e6,
            }
        else:
            return {}
        return {key: values[key] for key in self.names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = Deadline(DEADLINE_S)
    end_to_end, per_layer = declared_units(ROOT)
    units = per_layer if args.trace else end_to_end

    try:
        lib = build.build(ROOT)
    except build.BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = {**os.environ, "PYTHONPATH": str(lib)}
    info = build.environment(ROOT, lib, env)
    sys.path.insert(0, str(lib))
    import polarpipe  # noqa: F401  imported before set-up is timed

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_runs" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_runs" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        kind = Social if args.workload == "score-social" else Fit
        run = Run(kind(args.workload, args.seed, work, env, deadline), args.seconds, bool(args.trace), list(units))
        run.set_up(SETUP_REPEATS)
        run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = run.metrics()
    failed = sum(not op.ok for op in run.ops)
    result = {
        "correct": not run.failures and failed < len(run.ops),
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": info,
        "setup_s": run.setup_s,
        "setup_scaled_s": run.setup_scaled_s,
        "op_wall_s": [op.wall_s for op in run.ops],
        "op_scaled_s": [op.scaled_s for op in run.ops],
        "reference_s": run.wl.clock.refs,
        "op_traced": [op.traced for op in run.ops],
        "checks": run.report,
        "failures": run.failures,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for failure in run.failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print("environment " + json.dumps(info, sort_keys=True))
    print("checks " + json.dumps(run.report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
