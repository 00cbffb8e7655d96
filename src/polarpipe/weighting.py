"""Inverse-frequency class weights and per-label positive weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DataError, Dataset, summarize

POS_WEIGHT_CAP = 100.0


@dataclass(frozen=True)
class ClassWeights:
    """Binary-task weights, one per class: index 0 negative, 1 positive."""

    weights: tuple[float, float]
    counts: tuple[int, int]

    def per_example(self, y: np.ndarray) -> np.ndarray:
        """Map 0/1 targets to their class weight."""
        y = np.asarray(y)
        return np.where(y >= 0.5, self.weights[1], self.weights[0]).astype(np.float64)


@dataclass(frozen=True)
class PosWeights:
    """Per-label positive-term multipliers for multi-label training."""

    weights: tuple[float, ...]
    capped: tuple[bool, ...]


def class_weights(ds: Dataset) -> ClassWeights:
    """Balanced weights ``n / (2 * n_class)`` for a binary dataset.

    Rarer class gets the larger weight; the weighted count of each class is
    then n/2, so the two classes contribute equally to the loss.
    """
    if not ds.schema.is_binary:
        raise DataError("class_weights expects a binary dataset")
    n = len(ds)
    if n == 0:
        raise DataError("cannot weight an empty dataset")
    n_pos = summarize(ds).per_label_positive[0]
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(
            f"need both classes present, got {n_neg} negative / {n_pos} positive"
        )
    return ClassWeights(
        weights=(n / (2.0 * n_neg), n / (2.0 * n_pos)),
        counts=(n_neg, n_pos),
    )


def pos_weights(ds: Dataset) -> PosWeights:
    """The ``n_neg / n_pos`` ratios that :func:`summarize` gives, clipped into
    ``[1/cap, cap]``, where ``cap`` is ``POS_WEIGHT_CAP``.

    Labels with no positives (an ``inf`` ratio) take the cap itself; labels
    with no negatives take the floor ``1/cap`` so every weight stays positive.
    The ``capped`` flags mark labels whose raw ratio was clipped, a signal
    that the label is too rare (or too common) for the ratio to be trusted.
    """
    if len(ds) == 0:
        raise DataError("cannot weight an empty dataset")
    ratios = summarize(ds).imbalance_ratio_per_label
    weights = tuple(min(max(ratio, 1.0 / POS_WEIGHT_CAP), POS_WEIGHT_CAP) for ratio in ratios)
    return PosWeights(weights=weights, capped=tuple(w != ratio for w, ratio in zip(weights, ratios)))
