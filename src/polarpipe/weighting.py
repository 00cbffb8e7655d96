"""Inverse-frequency class weights and per-label positive weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DataError, Dataset

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
    n_pos = sum(inst.labels[0] for inst in ds.instances)
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
    """Per-label ``n_neg / n_pos`` ratios, clipped into ``[1/cap, cap]``, where
    ``cap`` is ``POS_WEIGHT_CAP``.

    Labels with no positives take the cap itself (and are flagged); labels
    with no negatives take the floor ``1/cap`` so every weight stays positive.
    The ``capped`` flags mark labels whose raw ratio was clipped, a signal
    that the label is too rare (or too common) for the ratio to be trusted.
    """
    n = len(ds)
    if n == 0:
        raise DataError("cannot weight an empty dataset")
    weights: list[float] = []
    capped: list[bool] = []
    for l in range(ds.schema.n_labels):
        n_pos = sum(inst.labels[l] for inst in ds.instances)
        n_neg = n - n_pos
        if n_pos == 0:
            weights.append(POS_WEIGHT_CAP)
            capped.append(True)
            continue
        ratio = n_neg / n_pos
        clipped = min(max(ratio, 1.0 / POS_WEIGHT_CAP), POS_WEIGHT_CAP)
        weights.append(clipped)
        capped.append(clipped != ratio)
    return PosWeights(weights=tuple(weights), capped=tuple(capped))
