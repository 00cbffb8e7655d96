"""Summarize perfbench runs of a parent commit and a change into one JSON file.

    python3 tools/bench_summary.py --parent PARENT_CHECKOUT/.bench_runs/results \
        [--change .bench_runs/results] --out BENCH_<n>.json

Each results directory holds the records ``perfbench/run.py`` writes, one per
workload, seed and trace setting. Every directory must come from one source
tree (one ``source_sha256``). For each workload the output lists the seeds,
and for every end-to-end metric in ``BENCHMARK.json`` the median and
quartiles of each side, how many same-seed pairs the change won (ties
count for neither) and a verdict (see ``verdict``). Traced runs give each
side's per-layer values: the median over every seed both sides traced, which
``per_layer_seeds`` lists. The environment block of each side is copied
from its records, and
``incorrect_runs`` counts, per side, the records whose outputs failed the
benchmark's checks (``correct`` not true), naming each one's workload and seed.
A ``warning:`` line on stderr names each side with incorrect runs, and each
workload on which the change fails a larger share of its ops than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_PAIRS = 10  # the fewest same-seed pairs a gain can be claimed on


def read_side(results: Path) -> tuple[dict, list[dict]]:
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(results.glob("*.json"))]
    if not records:
        sys.exit(f"error: no perfbench records in {results}")
    sources = {r["environment"]["source_sha256"] for r in records}
    if len(sources) != 1:
        sys.exit(f"error: {results} mixes runs of {len(sources)} source trees")
    return records[0]["environment"], records


def incorrect_runs(records: list[dict]) -> str:
    """``"k/n"`` incorrect records of n, followed by the workload and seed of each."""
    bad = [
        f"{r['workload']} seed {r['seed']}{' traced' if r['trace'] else ''}"
        for r in records
        if r.get("correct") is not True
    ]
    count = f"{len(bad)}/{len(records)}"
    return f"{count}: {', '.join(bad)}" if bad else count


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def verdict(metric: dict, parent: list[float], change: list[float], wins: int) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``within_bound`` for one metric.

    ``gain``: there are at least ``GAIN_PAIRS`` pairs, the change won at least
    nine tenths of them and its median is better than the parent's by more
    than the parent's quartile spread; with fewer pairs the other verdicts apply.
    ``regression``: its median is worse than the parent's by more than the
    metric's bound, a fraction of the parent's median. ``unresolved``: the
    parent's quartile spread is wider than that bound and not every run of
    the change beats every run of the parent. ``within_bound``: otherwise.
    """
    higher = metric["better"] == "higher"
    sign = 1 if higher else -1
    p, c = spread(parent), spread(change)
    gap = sign * (c["median"] - p["median"])  # > 0: the change is better
    noise = p["q3"] - p["q1"]
    bound = metric["bound"] * abs(p["median"])
    # every change run beats every parent run
    apart = min(change) > max(parent) if higher else max(change) < min(parent)
    if len(parent) >= GAIN_PAIRS and wins >= 0.9 * len(parent) and gap > noise:
        return "gain"
    if -gap > bound:
        return "regression"
    if noise > bound and not apart:
        return "unresolved"
    return "within_bound"


def layer_median(runs: list[dict], name: str) -> float | None:
    """Median of one per-layer metric over traced runs' metrics; None if no run reports it."""
    values = [run[name]["value"] for run in runs if run.get(name, {}).get("value") is not None]
    return statistics.median(values) if values else None


def by_key(records: list[dict], trace: int) -> dict[tuple[str, int], dict]:
    return {(r["workload"], r["seed"]): r for r in records if r["trace"] == trace}


def common_seeds(sides: dict[str, dict], workload: str) -> list[int]:
    return sorted(set.intersection(*({s for w, s in runs if w == workload} for runs in sides.values())))


def summarize(spec: dict, records: dict[str, list[dict]]) -> dict:
    runs = {side: by_key(recs, 0) for side, recs in records.items()}
    traced = {side: by_key(recs, 1) for side, recs in records.items()}
    out = {}
    for workload in sorted({w for side in runs.values() for w, _ in side}):
        seeds = common_seeds(runs, workload)
        if not seeds:
            sys.exit(f"error: the parent and the change share no seed for workload {workload}")
        picked = {side: [runs[side][(workload, s)] for s in seeds] for side in runs}
        entry: dict = {
            "seeds": seeds,
            "failed_ops": {
                side: f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
                for side, rs in picked.items()
            },
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in picked.items()}
            wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
            entry["end_to_end"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": spread(values["parent"]),
                "change": spread(values["change"]),
                "change_wins": f"{wins}/{len(seeds)}",
                "verdict": verdict(metric, values["parent"], values["change"], wins),
            }
        layer_seeds = common_seeds(traced, workload)
        if layer_seeds:
            layers = {side: [traced[side][(workload, s)]["metrics"] for s in layer_seeds] for side in traced}
            entry["per_layer_seeds"] = layer_seeds
            entry["per_layer"] = {
                m["name"]: {side: layer_median(layers[side], m["name"]) for side in layers}
                for m in spec["per_layer"]
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's results directory")
    parser.add_argument("--change", type=Path, default=ROOT / ".bench_runs" / "results")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": read_side(args.parent), "change": read_side(args.change)}
    summary = {
        "run_seconds": spec["run_seconds"],
        "environment": {side: env for side, (env, _) in sides.items()},
        "incorrect_runs": {side: incorrect_runs(recs) for side, (_, recs) in sides.items()},
        "workloads": summarize(spec, {side: recs for side, (_, recs) in sides.items()}),
    }
    args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    for side, runs in summary["incorrect_runs"].items():
        if not runs.startswith("0/"):
            print(f"warning: {side} has incorrect runs: {runs}", file=sys.stderr)
    for workload, entry in summary["workloads"].items():
        parent, change = entry["failed_ops"]["parent"], entry["failed_ops"]["change"]
        (pf, pa), (cf, ca) = (map(int, ops.split("/")) for ops in (parent, change))
        if cf * pa > pf * ca:  # cf/ca > pf/pa without dividing by zero
            print(
                f"warning: change fails a larger share of {workload} ops: {change} against the parent's {parent}",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
