"""Two-stage per-label decision-threshold tuning.

Stage 1 scans a coarse global grid (0.20 to 0.80 in 0.05 steps) for the
single threshold maximizing macro-F1. Stage 2 visits labels once in schema
order and sweeps each label's threshold in 0.01 steps inside a clamped
window around the stage-1 value, keeping the best macro-F1; earlier labels'
refined values stay in effect. All ties break toward the smaller threshold,
and predictions are closed at the threshold (1 iff p >= theta).

Grid points are generated as integer counts of the step divided out at the
end, never by repeated addition, so thresholds survive a 6-decimal file
round-trip bit-exactly.

What the tuner maximizes is :func:`objective`: the mean, by
:func:`metrics.mean_f1`, of each label's F1 at its threshold. On the binary
task that is the ``<label>=1`` row of the ``metrics.score`` report. The
inputs are checked by the rule the metrics use.
Thresholds are Python floats and the module never loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import _kernels as kernels
from .corpus import BASE_KEY, PROVENANCE_KEY, DataError, open_text
from .metrics import _check_matrices, f1_from_counts, mean_f1
from .probs import ProbabilityMatrix, check_unit_interval

# no command writes "oracle" thresholds, but files that carry it still load
PROVENANCES = ("default", "tuned", "oracle")

COARSE_GRID = tuple(c / 100.0 for c in range(20, 81, 5))
FINE_STEP = 0.01
WINDOW_HALFWIDTH = 0.15
WINDOW_CLAMP = (0.1, 0.9)


def window(base: float) -> tuple[float, float]:
    """Fine-sweep bounds around a base threshold, clamped."""
    lo = max(WINDOW_CLAMP[0], base - WINDOW_HALFWIDTH)
    hi = min(WINDOW_CLAMP[1], base + WINDOW_HALFWIDTH)
    return lo, hi


def fine_candidates(base: float) -> tuple[float, ...]:
    """Ascending fine-grid candidates inside the clamped window."""
    lo, hi = window(base)
    per_unit = round(1.0 / FINE_STEP)
    k_lo = math.ceil(lo * per_unit - 1e-9)
    k_hi = math.floor(hi * per_unit + 1e-9)
    return tuple(k / per_unit for k in range(k_lo, k_hi + 1))


@dataclass(frozen=True)
class ThresholdVector:
    label_names: tuple[str, ...]
    theta: tuple[float, ...]  # one per label
    base_theta: float | None
    provenance: str

    def __post_init__(self):
        theta = tuple(map(float, self.theta))
        if len(theta) != len(self.label_names):
            raise DataError(
                f"theta shape ({len(theta)},) does not match {len(self.label_names)} labels"
            )
        check_unit_interval(theta, "thresholds")
        if self.provenance not in PROVENANCES:
            raise DataError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")
        if self.base_theta is not None:
            check_unit_interval((self.base_theta,), "base_theta")
        object.__setattr__(self, "theta", theta)


def default_thresholds(label_names: tuple[str, ...]) -> ThresholdVector:
    return ThresholdVector(
        label_names=tuple(label_names),
        theta=(0.5,) * len(label_names),
        base_theta=0.5,
        provenance="default",
    )


def _gold_columns(pm: ProbabilityMatrix, gold) -> list[tuple]:
    """The gold matrix's label columns, checked as ``metrics.score`` checks them."""
    _check_matrices(pm.values, gold, pm.n_labels)
    if pm.n_instances == 0:
        raise DataError("need at least one instance")
    return list(zip(*gold))


def _f1_per_candidate(probs_col, gold_col, thetas) -> list[float]:
    return [f1_from_counts(*counts) for counts in kernels.sweep_confusion(probs_col, gold_col, thetas)]


def objective(pm: ProbabilityMatrix, gold, theta) -> float:
    """The figure ``tune`` maximizes: the mean of each label's F1 at its threshold."""
    theta = tuple(map(float, theta))
    if len(theta) != pm.n_labels:
        raise DataError(f"expected {pm.n_labels} thresholds, got {len(theta)}")
    return mean_f1([
        _f1_per_candidate(probs, golds, (t,))[0]
        for probs, golds, t in zip(zip(*pm.values), _gold_columns(pm, gold), theta)
    ])


def coarse_search(pm: ProbabilityMatrix, gold) -> float:
    """Best single global threshold on the coarse grid; ties go low."""
    per_label = [
        _f1_per_candidate(probs, golds, COARSE_GRID)
        for probs, golds in zip(zip(*pm.values), _gold_columns(pm, gold))
    ]
    macro = [mean_f1(row) for row in zip(*per_label)]
    return COARSE_GRID[macro.index(max(macro))]  # the first best: ties go low


def refine_per_label(pm: ProbabilityMatrix, gold, base: float) -> ThresholdVector:
    """Per-label fine sweep around a base threshold, one pass.

    Each label's threshold is replaced by the window argmax of macro-F1 with
    every other threshold held at its current value; because each label's F1
    depends only on its own threshold, this equals the independent per-label
    argmax, and a second pass would return the same thresholds.
    """
    if not 0.0 <= base <= 1.0:
        raise DataError(f"base threshold {base} outside [0, 1]")
    gold_cols = _gold_columns(pm, gold)
    candidates = fine_candidates(base)
    theta = []
    for probs, golds in zip(zip(*pm.values), gold_cols):
        f1 = _f1_per_candidate(probs, golds, candidates)
        theta.append(candidates[f1.index(max(f1))])  # the first best: ties go low
    return ThresholdVector(
        label_names=tuple(pm.label_names),
        theta=theta,
        base_theta=base,
        provenance="tuned",
    )


def tune(pm: ProbabilityMatrix, gold) -> ThresholdVector:
    """Coarse global search followed by per-label refinement."""
    base = coarse_search(pm, gold)
    tv = refine_per_label(pm, gold, base)
    lo, hi = window(base)
    # Edge candidates may sit one ulp past the float window bounds; allow the
    # same 1e-9 slack fine_candidates() uses when snapping to the lattice.
    if tv.theta and (min(tv.theta) < lo - 1e-9 or max(tv.theta) > hi + 1e-9):
        raise AssertionError("refined threshold escaped its window")
    return tv


# ---------------------------------------------------------------------------
# Thresholds file


def save_thresholds(tv: ThresholdVector, path: str | Path) -> None:
    """Text form: provenance, base threshold, then one label per line."""
    lines = [f"{PROVENANCE_KEY}\t{tv.provenance}"]
    base = "none" if tv.base_theta is None else f"{tv.base_theta:.6f}"
    lines.append(f"{BASE_KEY}\t{base}")
    for name, t in zip(tv.label_names, tv.theta):
        lines.append(f"{name}\t{t:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_thresholds(path: str | Path) -> ThresholdVector:
    path = Path(path)
    provenance: str | None = None
    base: float | None = None
    base_seen = False
    names: list[str] = []
    thetas: list[float] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}: malformed line {lineno}")
            key, value = parts
            try:
                if key == PROVENANCE_KEY:
                    provenance = value
                elif key == BASE_KEY:
                    base_seen = True
                    base = None if value == "none" else float(value)
                else:
                    names.append(key)
                    thetas.append(float(value))
            except ValueError:
                raise DataError(f"{path}: bad threshold at line {lineno}") from None
    if provenance is None or not base_seen:
        raise DataError(f"{path}: missing {PROVENANCE_KEY} or {BASE_KEY} line")
    try:
        return ThresholdVector(
            label_names=tuple(names),
            theta=thetas,
            base_theta=base,
            provenance=provenance,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
