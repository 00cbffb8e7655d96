"""tools/bench_summary.py on two tiny results directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _TOOL)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def write_side(
    root: Path, source: str, docs_per_s: dict[tuple[str, int], float], incorrect=frozenset(), failed=None
) -> Path:
    """One record per (workload, seed); every metric but docs_per_s is fixed.

    The (workload, seed) keys in ``incorrect`` failed the benchmark's checks;
    ``failed`` maps a key to its count of failed ops, of 4 attempted (else 0).
    """
    root.mkdir()
    for (workload, seed), value in docs_per_s.items():
        metrics = {
            "docs_per_s": value,
            "setup_s": 2.0,
            "peak_rss_mb": 90.0,
            "eval_macro_f1": 0.5,
            "output_mb": 1.0,
        }
        record = {
            "workload": workload,
            "seed": seed,
            "trace": 0,
            "attempted": 4,
            "failed": (failed or {}).get((workload, seed), 0),
            "correct": (workload, seed) not in incorrect,
            "failures": ["eval_macro_f1 out of band"] if (workload, seed) in incorrect else [],
            "environment": {"source_sha256": source},
            "metrics": {name: {"value": v} for name, v in metrics.items()},
        }
        (root / f"{workload}-{seed}-0.json").write_text(json.dumps(record), encoding="utf-8")
    return root


def add_traced(root: Path, source: str, csr_logits_s: dict[tuple[str, int], float | None]) -> None:
    """One traced record per (workload, seed) holding ``kernels.csr_logits.s``;
    a None value leaves the metric out of that record."""
    for (workload, seed), value in csr_logits_s.items():
        metrics = {"kernels.hash_ngrams.calls": {"value": 3}}
        if value is not None:
            metrics["kernels.csr_logits.s"] = {"value": value}
        record = {
            "workload": workload,
            "seed": seed,
            "trace": 1,
            "correct": True,
            "environment": {"source_sha256": source},
            "metrics": metrics,
        }
        (root / f"{workload}-{seed}-1.json").write_text(json.dumps(record), encoding="utf-8")


def run_tool(parent: Path, change: Path, out: Path) -> int:
    return bench_summary.main(["--parent", str(parent), "--change", str(change), "--out", str(out)])


def test_medians_quartiles_and_wins(tmp_path):
    seeds = range(1, 6)
    parent = write_side(tmp_path / "parent", "p", {("w", s): v for s, v in zip(seeds, (10, 20, 30, 40, 50))})
    change = write_side(tmp_path / "change", "c", {("w", s): v for s, v in zip(seeds, (15, 15, 35, 45, 50))})
    out = tmp_path / "bench.json"
    assert run_tool(parent, change, out) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["seeds"] == [1, 2, 3, 4, 5]
    assert entry["failed_ops"] == {"parent": "0/20", "change": "0/20"}
    docs = entry["end_to_end"]["docs_per_s"]
    # statistics.quantiles' default "exclusive" method on 10..50
    assert docs["parent"] == {"median": 30, "q1": 15.0, "q3": 45.0, "runs": 5}
    assert docs["change"]["median"] == 35
    # better on seeds 1, 3 and 4; worse on 2; a tie on 5 counts for neither
    assert docs["change_wins"] == "3/5"
    assert entry["end_to_end"]["setup_s"]["change_wins"] == "0/5"
    assert entry["end_to_end"]["setup_s"]["verdict"] == "within_bound"
    assert json.loads(out.read_text())["incorrect_runs"] == {"parent": "0/5", "change": "0/5"}


def test_incorrect_runs_named(tmp_path, capsys):
    runs = {("w", 1): 10.0, ("w", 2): 10.0, ("score-social", 1): 5.0}
    parent = write_side(tmp_path / "parent", "p", runs)
    change = write_side(tmp_path / "change", "c", runs, incorrect={("w", 2), ("score-social", 1)})
    out = tmp_path / "bench.json"
    assert run_tool(parent, change, out) == 0
    incorrect = json.loads(out.read_text())["incorrect_runs"]
    assert incorrect == {"parent": "0/3", "change": "2/3: score-social seed 1, w seed 2"}
    assert "change has incorrect runs: 2/3" in capsys.readouterr().err


def test_larger_share_of_failed_ops_warned(tmp_path, capsys):
    runs = {("w", 1): 10.0, ("w", 2): 10.0, ("score-social", 1): 5.0, ("score-social", 2): 5.0}
    parent = write_side(tmp_path / "parent", "p", runs, failed={("score-social", 1): 1})
    # w: 1 of 8 ops failed against none; score-social: the same share as the parent
    change = write_side(tmp_path / "change", "c", runs, failed={("w", 2): 1, ("score-social", 2): 1})
    out = tmp_path / "bench.json"
    assert run_tool(parent, change, out) == 0
    workloads = json.loads(out.read_text())["workloads"]
    assert workloads["w"]["failed_ops"] == {"parent": "0/8", "change": "1/8"}
    assert workloads["score-social"]["failed_ops"] == {"parent": "1/8", "change": "1/8"}
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert warnings == ["warning: change fails a larger share of w ops: 1/8 against the parent's 0/8"]


def test_side_with_two_sources_rejected(tmp_path):
    parent = write_side(tmp_path / "parent", "p", {("w", 1): 10.0})
    change = write_side(tmp_path / "change", "c", {("w", 1): 10.0})
    write_side(tmp_path / "other", "c2", {("w", 2): 10.0})
    (tmp_path / "other" / "w-2-0.json").rename(change / "w-2-0.json")
    with pytest.raises(SystemExit, match="mixes runs of 2 source trees"):
        run_tool(parent, change, tmp_path / "b.json")


def test_no_common_seed_names_the_workload(tmp_path):
    parent = write_side(tmp_path / "parent", "p", {("w", 1): 10.0, ("score-social", 1): 5.0})
    change = write_side(tmp_path / "change", "c", {("w", 1): 11.0, ("score-social", 2): 5.0})
    with pytest.raises(SystemExit, match="share no seed for workload score-social"):
        run_tool(parent, change, tmp_path / "b.json")


# docs_per_s: higher is better, bound 0.20 of the parent's median
_PARENT_TIGHT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartile spread 5.5


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # 10/10 wins, medians 20 apart against a spread of 5.5
        (_PARENT_TIGHT, [v + 20 for v in _PARENT_TIGHT], "gain"),
        # 8/10 wins is short of nine tenths
        (_PARENT_TIGHT, [v + 20 for v in _PARENT_TIGHT[:8]] + [90, 90], "within_bound"),
        # 10/10 wins, but the medians are only 3 apart
        (_PARENT_TIGHT, [v + 3 for v in _PARENT_TIGHT], "within_bound"),
        # median 25% below the parent's, past the 20% bound
        (_PARENT_TIGHT, [v * 0.75 for v in _PARENT_TIGHT], "regression"),
        # 10% below: inside the bound
        (_PARENT_TIGHT, [v * 0.9 for v in _PARENT_TIGHT], "within_bound"),
        # the parent's own spread (about 50% of its median) is wider than the bound
        ([50, 60, 70, 80, 90, 110, 120, 130, 140, 150], [95] * 10, "unresolved"),
        # ... unless every change run beats every parent run
        ([50, 60, 70, 80, 90, 110, 120, 130, 140, 150], [151] * 10, "within_bound"),
        # 3/3 wins far outside the noise, but three pairs are too few to claim a gain
        (_PARENT_TIGHT[:3], [v + 20 for v in _PARENT_TIGHT[:3]], "within_bound"),
        # nine pairs are still too few
        (_PARENT_TIGHT[:9], [v + 20 for v in _PARENT_TIGHT[:9]], "within_bound"),
    ],
    ids=["gain", "too-few-wins", "inside-noise", "regression", "inside-bound", "unresolved",
         "all-runs-better", "three-pairs", "nine-pairs"],
)
def test_verdict(tmp_path, parent, change, expected):
    seeds = range(1, len(parent) + 1)
    p = write_side(tmp_path / "parent", "p", {("w", s): v for s, v in zip(seeds, parent)})
    c = write_side(tmp_path / "change", "c", {("w", s): v for s, v in zip(seeds, change)})
    out = tmp_path / "bench.json"
    assert run_tool(p, c, out) == 0
    metrics = json.loads(out.read_text())["workloads"]["w"]["end_to_end"]
    assert metrics["docs_per_s"]["verdict"] == expected
    assert metrics["peak_rss_mb"]["verdict"] == "within_bound"


@pytest.mark.parametrize(
    "change, expected",
    [([80.0] * 10, "gain"), ([95.0] * 10, "regression"), ([90.1] * 10, "within_bound")],
)
def test_verdict_lower_is_better(change, expected):
    metric = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}
    parent = [90.0 + i / 10 for i in range(10)]
    wins = sum(c < p for p, c in zip(parent, change))
    assert bench_summary.verdict(metric, parent, change, wins) == expected


def test_per_layer_values_are_medians_over_every_common_traced_seed(tmp_path):
    runs = {("w", s): 10.0 for s in range(1, 5)}
    parent = write_side(tmp_path / "parent", "p", runs)
    change = write_side(tmp_path / "change", "c", runs)
    # seed 1 is traced on the parent only and seed 4 on the change only
    add_traced(parent, "p", {("w", 1): 100.0, ("w", 2): 1.0, ("w", 3): 3.0})
    add_traced(change, "c", {("w", 2): 2.0, ("w", 3): None, ("w", 4): 100.0})
    out = tmp_path / "bench.json"
    assert run_tool(parent, change, out) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["per_layer_seeds"] == [2, 3]
    layers = entry["per_layer"]
    # the median of seeds 2 and 3 on each side; a run that lacks the metric is left out
    assert layers["kernels.csr_logits.s"] == {"parent": 2.0, "change": 2.0}
    assert layers["kernels.hash_ngrams.calls"] == {"parent": 3, "change": 3}
    assert layers["linear_model.train.s"] == {"parent": None, "change": None}
    assert json.loads(out.read_text())["incorrect_runs"] == {"parent": "0/7", "change": "0/7"}
