"""Correctness checks on the files and numbers a polarpipe run produces.

Every checker reads the program's outputs with its own parsing and
recomputes what it can with numpy, so a check never trusts the code it
checks. A failed check raises :class:`CheckFailed` with what differed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

URL_PREFIXES = ("http://", "https://", "www.")


class CheckFailed(AssertionError):
    """A program output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Readers, independent of the package


def read_jsonl(path: Path, names: tuple[str, ...]) -> tuple[list[str], list[str], np.ndarray]:
    """(ids, raw texts, 0/1 label matrix) of a dataset file."""
    ids, texts, rows = [], [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        ids.append(record["id"])
        texts.append(record["text"])
        if "label" in record:
            rows.append([int(record["label"])])
        else:
            rows.append([int(name in record["labels"]) for name in names])
    return ids, texts, np.array(rows, dtype=np.int64).reshape(len(ids), len(names))


def read_probs(path: Path) -> tuple[list[str], tuple[str, ...], np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    ids, rows = [], []
    for line in lines[1:]:
        cells = line.split("\t")
        ids.append(cells[0])
        rows.append([float(c) for c in cells[1:]])
    return ids, tuple(header[1:]), np.array(rows, dtype=np.float64).reshape(len(ids), len(header) - 1)


def read_thresholds(path: Path) -> tuple[tuple[str, ...], np.ndarray]:
    names, values = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, value = line.split("\t")
        if key not in ("__provenance__", "__base__"):
            names.append(key)
            values.append(float(value))
    return tuple(names), np.array(values, dtype=np.float64)


def read_report(path: Path) -> tuple[dict[str, dict[str, int]], int]:
    """Per-row counts and ``n_instances`` from a table or machine report."""
    rows: dict[str, dict[str, int]] = {}
    n = -1
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines and lines[0].startswith("label\ttp"):
        for line in lines[1:]:
            cells = line.split("\t")
            if len(cells) == 7:
                rows[cells[0]] = {"tp": int(cells[1]), "fp": int(cells[2]), "fn": int(cells[3])}
            elif cells[0] == "n_instances":
                n = int(cells[1])
    else:
        for line in lines:
            key, value = line.split("\t")
            if key == "n_instances":
                n = int(value)
            elif key.rsplit(".", 1)[-1] in ("tp", "fp", "fn", "tn"):
                label, stat = key.rsplit(".", 1)
                rows.setdefault(label, {})[stat] = int(value)
    return rows, n


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# F1, recomputed


def confusion_rows(pred: np.ndarray, gold: np.ndarray, names: tuple[str, ...], two_class: bool):
    """{row name: (tp, fp, fn, tn)}; the binary two-class view scores each class."""
    if two_class:
        pred = np.stack([pred[:, 0] == 0, pred[:, 0] == 1], axis=1)
        gold = np.stack([gold[:, 0] == 0, gold[:, 0] == 1], axis=1)
        names = (f"{names[0]}=0", f"{names[0]}=1")
    pred, gold = pred.astype(bool), gold.astype(bool)
    return {
        name: (
            int(np.sum(pred[:, l] & gold[:, l])),
            int(np.sum(pred[:, l] & ~gold[:, l])),
            int(np.sum(~pred[:, l] & gold[:, l])),
            int(np.sum(~pred[:, l] & ~gold[:, l])),
        )
        for l, name in enumerate(names)
    }


def macro_f1(rows: dict) -> float:
    scores = [2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0 for tp, fp, fn, _ in rows.values()]
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# Checkers


def check_corpus_stats(stdout: str, gold: np.ndarray, names: tuple[str, ...]) -> None:
    """``polarpipe stats`` counts the instances, all-zero rows and per-label
    positives that the corpus file holds."""
    printed: dict[str, str] = {}
    for line in stdout.splitlines():
        cells = line.split("\t")
        if len(cells) >= 2:
            printed.setdefault(cells[0], cells[1])
    want = {
        "n_instances": gold.shape[0],
        "all_zero_rows": int(np.sum(gold.sum(axis=1) == 0)),
        **{name: int(gold[:, l].sum()) for l, name in enumerate(names)},
    }
    for key, value in want.items():
        _require(key in printed, f"stats printed no {key}")
        _require(int(printed[key]) == value, f"stats {key}: printed {printed[key]}, corpus has {value}")


def check_manifest(run_dir: Path, corpus: Path) -> int:
    """Every file the manifest lists re-hashes to its recorded digest."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    checked = 0
    for stage in manifest["stages"]:
        for name, digest in {**stage["inputs"], **stage["outputs"]}.items():
            path = run_dir / name if (run_dir / name).exists() else corpus.parent / name
            _require(path.exists(), f"manifest stage {stage['name']}: {name} does not exist")
            actual = sha256(path)
            _require(
                actual == digest,
                f"manifest stage {stage['name']}: {name} hashes to {actual[:12]}, recorded {digest[:12]}",
            )
            checked += 1
    _require(checked > 0, "manifest lists no files")
    return checked


def check_partition(whole: list[str], big: list[str], small: list[str], fraction: float, what: str) -> None:
    """``big`` and ``small`` partition ``whole``; ``small`` has round-half-up(n * fraction) ids."""
    _require(not set(big) & set(small), f"{what}: {len(set(big) & set(small))} ids on both sides")
    _require(
        sorted(big + small) == sorted(whole),
        f"{what}: the two sides do not cover the {len(whole)} input ids exactly",
    )
    expected = math.floor(len(whole) * fraction + 0.5)
    _require(len(small) == expected, f"{what}: {len(small)} ids on the small side, expected {expected}")


def check_thresholds(names: tuple[str, ...], thetas: np.ndarray, schema: tuple[str, ...]) -> None:
    """Tuned thresholds: one per label, on the 0.01 lattice inside [0.1, 0.9]."""
    _require(names == schema, f"threshold labels {names} differ from the schema {schema}")
    for name, t in zip(names, thetas):
        _require(bool(np.isfinite(t)), f"threshold {name} is {t}")
        _require(abs(t * 100 - round(t * 100)) < 1e-9, f"threshold {name}={t!r} is off the 0.01 lattice")
        _require(0.1 - 1e-12 <= t <= 0.9 + 1e-12, f"threshold {name}={t} outside [0.1, 0.9]")


def check_tuning_gain(probs: np.ndarray, gold: np.ndarray, thetas: np.ndarray, names: tuple[str, ...]) -> tuple[float, float]:
    """Validation macro-F1 at the tuned thresholds is no lower than at 0.5.

    Scored per label, the objective the tuner maximizes (for a binary
    schema that is the positive-class F1).
    """
    tuned = macro_f1(confusion_rows(probs >= thetas, gold, names, two_class=False))
    half = macro_f1(confusion_rows(probs >= 0.5, gold, names, two_class=False))
    _require(tuned >= half - 1e-12, f"validation macro-F1 {tuned:.6f} at tuned thresholds < {half:.6f} at 0.5")
    return tuned, half


def check_probabilities(ids: list[str], values: np.ndarray, expected_ids: list[str], what: str) -> None:
    """Finite, inside (0, 1), one row per input id in input order."""
    _require(ids == expected_ids, f"{what}: probability rows do not follow the input ids in order")
    _require(values.shape[0] == len(expected_ids), f"{what}: {values.shape[0]} rows for {len(expected_ids)} ids")
    _require(bool(np.all(np.isfinite(values))), f"{what}: {int(np.sum(~np.isfinite(values)))} non-finite probabilities")
    _require(
        bool(np.all((values > 0.0) & (values < 1.0))),
        f"{what}: {int(np.sum((values <= 0.0) | (values >= 1.0)))} probabilities outside (0, 1)",
    )


def check_eval_f1(
    printed: float,
    probs: np.ndarray,
    gold: np.ndarray,
    thetas: np.ndarray,
    names: tuple[str, ...],
    report: tuple[dict, int],
) -> float:
    """The printed macro-F1 and the report's counts match a recomputation.

    ``printed`` carries six decimals. The binary schema is scored in the
    two-class macro view, one row per class.
    """
    rows = confusion_rows(probs >= thetas, gold, names, two_class=len(names) == 1)
    mine = macro_f1(rows)
    _require(abs(mine - printed) <= 5e-7 + 1e-12, f"printed macro-F1 {printed} but the outputs give {mine:.9f}")
    report_rows, n = report
    _require(n == len(gold), f"report counts {n} instances, gold has {len(gold)}")
    _require(set(report_rows) == set(rows), f"report rows {sorted(report_rows)} differ from {sorted(rows)}")
    for name, (tp, fp, fn, tn) in rows.items():
        got = report_rows[name]
        got_tn = got.get("tn", n - got["tp"] - got["fp"] - got["fn"])
        _require(
            (got["tp"], got["fp"], got["fn"], got_tn) == (tp, fp, fn, tn),
            f"report {name}: tp/fp/fn/tn {(got['tp'], got['fp'], got['fn'], got_tn)}, recomputed {(tp, fp, fn, tn)}",
        )
        _require(got["tp"] + got["fp"] + got["fn"] + got_tn == n, f"report {name}: counts do not sum to {n}")
    return mine


def signal_oracle(texts: list[str], n_labels: int) -> np.ndarray:
    """Predict a label exactly when the generator put that label's signal tokens in the text."""
    pred = np.zeros((len(texts), n_labels), dtype=np.int64)
    for i, text in enumerate(texts):
        for token in text.split():
            if token.startswith("topic") and "tok" in token:
                pred[i, int(token[5 : token.index("tok")])] = 1
    return pred


def check_oracle_band(f1: float, oracle_f1: float, floor: float, slack: float) -> None:
    """``floor <= f1 <= oracle + slack``: label noise is independent of the
    text, so no classifier of the text beats the oracle beyond sampling noise."""
    _require(f1 >= floor, f"eval macro-F1 {f1:.6f} below the floor {floor}")
    _require(f1 <= oracle_f1 + slack, f"eval macro-F1 {f1:.6f} beats the signal oracle {oracle_f1:.6f} by more than {slack}")


def check_normalization(expected: dict[str, str], normalized: dict[str, str], renormalized: dict[str, str]) -> None:
    """The program's normalization equals the derived one, is clean, and is a fixpoint."""
    for ident, want in expected.items():
        got = normalized[ident]
        _require(got == want, f"{ident}: normalized to {got!r}, expected {want!r}")
        _require(renormalized[ident] == got, f"{ident}: normalizing {got!r} again gives {renormalized[ident]!r}")
        _require("#" not in got, f"{ident}: normalized text keeps a '#': {got!r}")
        _require(got == got.lower() and got == " ".join(got.split()), f"{ident}: not lowercase and collapsed: {got!r}")
        for token in got.split():
            _require(
                not token.startswith(URL_PREFIXES + ("@",)),
                f"{ident}: normalized text keeps {token!r}",
            )


def check_same_outputs(first: dict[str, str], again: dict[str, str], what: str) -> None:
    """A rerun of the same command writes byte-identical files."""
    _require(set(first) == set(again), f"{what}: files {sorted(again)} differ from {sorted(first)}")
    for name in first:
        _require(first[name] == again[name], f"{what}: {name} differs between reruns")
