"""Confusion counts and F1 metrics for multi-label predictions.

Every count comes from the threshold-sweep kernel, one call per label at that
label's threshold. Macro-F1 averages per-label F1 scores without weighting;
micro-F1 pools the counts first. Any F1 with an empty denominator is defined
as 0. For the binary task the default view scores the negative and the
positive class as two separate rows ("two-class macro"); ``positive-f1``
scores only the positive class, which is what threshold tuning maximizes.
Matrices are sequences of rows (lists, tuples or 2-d arrays); the module
works on Python values and never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _kernels as kernels
from .corpus import DataError, Dataset, GoldLabels
from .probs import ProbabilityMatrix

BINARY_MODES = ("two-class-macro", "positive-f1")


@dataclass(frozen=True)
class ConfusionCounts:
    label: str
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        return f1_from_counts(self.tp, self.fp, self.fn)


@dataclass(frozen=True)
class MetricsReport:
    per_label: tuple[ConfusionCounts, ...]
    macro_f1: float
    micro_f1: float
    n_instances: int
    mode: str


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    """F1 = 2tp / (2tp + fp + fn); 0 when the denominator is 0."""
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _is_bits(rows) -> bool:
    return all(v in (0, 1) for row in rows for v in row)


def _check_matrices(values, gold, width: int) -> None:
    if len(values) != len(gold):
        raise DataError(f"shape mismatch: {len(values)} pred rows vs {len(gold)} gold rows")
    if any(len(row) != width for row in values) or any(len(row) != width for row in gold):
        raise DataError(f"expected shape (n, {width}): every row must hold {width} values")
    if not _is_bits(gold):
        raise DataError("gold matrix must be 0/1")


def _counts(probs, gold, thetas, label_names: Sequence[str]) -> tuple[ConfusionCounts, ...]:
    """Per-label counts of ``probs >= theta`` against gold; tn is the remainder."""
    n = len(probs)
    empty = [()] * len(label_names)
    rows = []
    for name, p, g, theta in zip(label_names, list(zip(*probs)) or empty, list(zip(*gold)) or empty, thetas):
        ((tp, fp, fn),) = kernels.sweep_confusion(p, g, (theta,))
        rows.append(ConfusionCounts(label=name, tp=tp, fp=fp, fn=fn, tn=n - tp - fp - fn))
    return tuple(rows)


def confusion(pred, gold, label_names: Sequence[str]) -> tuple[ConfusionCounts, ...]:
    """Per-label confusion counts for 0/1 matrices of shape (n, L)."""
    _check_matrices(pred, gold, len(label_names))
    if not _is_bits(pred):
        raise DataError("pred matrix must be 0/1")
    return _counts(pred, gold, (0.5,) * len(label_names), label_names)


def mean_f1(values: Sequence[float]) -> float:
    """Unweighted mean of F1 values, summed left to right."""
    if not values:
        raise DataError("macro_f1 needs at least one label")
    return sum(values) / len(values)


def macro_f1(counts: Sequence[ConfusionCounts]) -> float:
    """Unweighted mean of per-label F1."""
    return mean_f1([c.f1 for c in counts])


def micro_f1(counts: Sequence[ConfusionCounts]) -> float:
    """F1 over counts pooled across labels."""
    if not counts:
        raise DataError("micro_f1 needs at least one label")
    tp = sum(c.tp for c in counts)
    fp = sum(c.fp for c in counts)
    fn = sum(c.fn for c in counts)
    return f1_from_counts(tp, fp, fn)


def score(
    probs,
    gold,
    thresholds: Sequence[float],
    label_names: Sequence[str],
    binary_mode: str = "two-class-macro",
) -> MetricsReport:
    """Score ``probs >= theta`` per label against row-aligned 0/1 gold.

    ``probs`` and ``gold`` are sequences of rows, one value per label.
    ``binary_mode`` only applies to a single label.
    """
    if binary_mode not in BINARY_MODES:
        raise DataError(f"binary_mode must be one of {BINARY_MODES}, got {binary_mode!r}")
    _check_matrices(probs, gold, len(label_names))
    thetas = tuple(map(float, thresholds))
    if len(thetas) != len(label_names):
        raise DataError(f"expected {len(label_names)} thresholds, got {len(thetas)}")
    counts = _counts(probs, gold, thetas, label_names)
    binary = len(label_names) == 1
    if binary and binary_mode == "two-class-macro":
        (c,) = counts  # class 0's row is class 1's mirrored
        counts = (
            ConfusionCounts(label=f"{c.label}=0", tp=c.tn, fp=c.fn, fn=c.fp, tn=c.tp),
            ConfusionCounts(label=f"{c.label}=1", tp=c.tp, fp=c.fp, fn=c.fn, tn=c.tn),
        )
    return MetricsReport(
        per_label=counts,
        macro_f1=macro_f1(counts),
        micro_f1=micro_f1(counts),
        n_instances=len(probs),
        mode=binary_mode if binary else "multi-label",
    )


def align(
    pm: ProbabilityMatrix, ds: Dataset | GoldLabels
) -> tuple[ProbabilityMatrix, tuple[tuple[int, ...], ...]]:
    """Probabilities in the dataset's row order, and the dataset's gold bits.

    The dataset's ids set the rows: each must appear in the probability
    matrix, and extra probability rows are ignored. When the ids already match
    row for row, ``pm`` itself is returned.
    """
    if tuple(pm.label_names) != tuple(ds.schema.names):
        raise DataError(
            f"label mismatch: probabilities {pm.label_names} vs schema {ds.schema.names}"
        )
    if pm.ids == tuple(ds.ids):
        return pm, ds.labels
    index = pm.row_index()
    rows = []
    for ident in ds.ids:
        if ident not in index:
            raise DataError(f"probabilities missing id {ident!r}")
        rows.append(pm.values[index[ident]])
    aligned = ProbabilityMatrix(ids=tuple(ds.ids), label_names=pm.label_names, values=rows)
    return aligned, ds.labels


def evaluate(
    pm: ProbabilityMatrix,
    ds: Dataset | GoldLabels,
    thresholds: Sequence[float],
    binary_mode: str = "two-class-macro",
) -> MetricsReport:
    """:func:`align` probabilities to gold labels by id, then :func:`score` them.

    ``binary_mode`` only applies to single-label schemas.
    """
    aligned, gold = align(pm, ds)
    return score(aligned.values, gold, thresholds, ds.schema.names, binary_mode)


def format_report(report: MetricsReport) -> str:
    """Render a report as a TSV table plus a summary block.

    Table values print at 4 decimal places; the report object itself keeps
    full precision.
    """
    lines = ["label\ttp\tfp\tfn\tprecision\trecall\tf1"]
    for c in report.per_label:
        lines.append(
            f"{c.label}\t{c.tp}\t{c.fp}\t{c.fn}"
            f"\t{c.precision:.4f}\t{c.recall:.4f}\t{c.f1:.4f}"
        )
    lines.append("")
    lines.append(f"macro_f1\t{report.macro_f1:.4f}")
    lines.append(f"micro_f1\t{report.micro_f1:.4f}")
    lines.append(f"n_instances\t{report.n_instances}")
    lines.append(f"mode\t{report.mode}")
    return "\n".join(lines) + "\n"


def format_machine(report: MetricsReport) -> str:
    """One key-value record per metric, floats at full precision."""
    lines = []
    for c in report.per_label:
        for key, value in (
            ("tp", c.tp),
            ("fp", c.fp),
            ("fn", c.fn),
            ("tn", c.tn),
            ("precision", c.precision),
            ("recall", c.recall),
            ("f1", c.f1),
        ):
            lines.append(f"{c.label}.{key}\t{value!r}")
    lines.append(f"macro_f1\t{report.macro_f1!r}")
    lines.append(f"micro_f1\t{report.micro_f1!r}")
    lines.append(f"n_instances\t{report.n_instances}")
    lines.append(f"mode\t{report.mode}")
    return "\n".join(lines) + "\n"
