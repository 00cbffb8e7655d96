"""Train/validation splitting and cross-dataset balancing.

Two split strategies: plain per-class stratification for the binary task, and
iterative stratification for multi-label data, which places instances of the
scarcest label first so that rare labels keep their positive rate in both
subsets. Both are deterministic given a seed. ``balanced_merge`` tops up a
skewed binary dataset with donor instances until the classes are exactly
balanced.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from ._rng import LegacyRandom
from .corpus import DataError, Dataset, Instance, count_positives


@dataclass(frozen=True)
class SplitConfig:
    val_fraction: float = 0.2
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.val_fraction < 1.0:
            raise DataError("val_fraction must be strictly between 0 and 1")


@dataclass(frozen=True)
class SplitResult:
    train: Dataset
    val: Dataset


def _subset(ds: Dataset, indices: list[int]) -> Dataset:
    ordered = sorted(indices)
    return Dataset(schema=ds.schema, instances=tuple(ds.instances[i] for i in ordered))


def _val_target(n: int, fraction: float) -> int:
    # round-half-up keeps the validation side non-empty for small corpora
    return math.floor(n * fraction + 0.5)


def _split_sizes(ds: Dataset, cfg: SplitConfig | None) -> tuple[SplitConfig, int, int]:
    """``cfg`` (the default when ``None``), ``len(ds)`` and the validation size;
    a ``DataError`` when either subset would be empty."""
    if cfg is None:
        cfg = SplitConfig()
    n = len(ds)
    if n < 2:
        raise DataError("need at least 2 instances to split")
    target = _val_target(n, cfg.val_fraction)
    if target == 0 or target == n:
        raise DataError(f"val_fraction {cfg.val_fraction} leaves an empty subset for {n} instances")
    return cfg, n, target


def stratified_split(ds: Dataset, cfg: SplitConfig | None = None) -> SplitResult:
    """Split preserving the per-class distribution of full label vectors.

    The validation size is ``round(N * val_fraction)``; per-class quotas are
    the class share of that size, settled by largest remainder. Members of
    each class quota are drawn by seeded shuffle.
    """
    cfg, n, target = _split_sizes(ds, cfg)

    groups: dict[tuple[int, ...], list[int]] = {}
    for i, inst in enumerate(ds.instances):
        groups.setdefault(inst.labels, []).append(i)
    keys = sorted(groups)

    exact = {k: len(groups[k]) * target / n for k in keys}
    quotas = {k: math.floor(exact[k]) for k in keys}
    shortfall = target - sum(quotas.values())
    # ties on the remainder go to the larger class, then to key order
    by_remainder = sorted(
        keys, key=lambda k: (-(exact[k] - quotas[k]), -len(groups[k]), k)
    )
    for k in by_remainder[:shortfall]:
        quotas[k] += 1

    rng = LegacyRandom(cfg.seed)
    val_indices: list[int] = []
    for k in keys:
        members = groups[k]
        quota = quotas[k]
        if quota == 0:
            continue
        if quota > len(members):
            raise DataError(f"class {k} quota {quota} exceeds its {len(members)} members")
        picked = rng.permutation(len(members))[:quota]
        val_indices.extend(members[j] for j in picked)

    val_set = set(val_indices)
    train_indices = [i for i in range(n) if i not in val_set]
    return SplitResult(train=_subset(ds, train_indices), val=_subset(ds, val_indices))


def iterative_stratified_split(ds: Dataset, cfg: SplitConfig | None = None) -> SplitResult:
    """Multi-label split that balances every label across both subsets.

    Labels are processed scarcest first; each positive instance goes to the
    subset with the greatest remaining demand for that label, ties broken by
    remaining capacity and then by seeded draw. Subsets whose capacity is
    exhausted stop receiving instances, so the subset sizes always land on
    the requested fractions. Rows with no positive labels are distributed at
    the end by seeded shuffle.
    """
    cfg, n, target = _split_sizes(ds, cfg)
    width = ds.schema.n_labels

    fractions = (1.0 - cfg.val_fraction, cfg.val_fraction)
    capacity = [n - target, target]
    # plain Python containers: the loop below reads them one row and one
    # label at a time. Rows share few label vectors, so each distinct vector
    # gets one tuple of its positive labels.
    patterns = Counter(ds.labels)
    totals = count_positives(patterns, width)
    positive_labels = {row: tuple(l for l, bit in enumerate(row) if bit) for row in patterns}
    positives = [positive_labels[inst.labels] for inst in ds.instances]
    # desired positives per (subset, label): fractional demands, drawn down
    demand = [[totals[l] * f for l in range(width)] for f in fractions]

    rng = LegacyRandom(cfg.seed)
    assigned = [-1] * n
    remaining_pos: list[set[int]] = [set() for _ in range(width)]
    for i, row in enumerate(positives):
        for l in row:
            remaining_pos[l].add(i)

    while any(remaining_pos):
        # scarcest label, ties to schema order
        _, label = min((len(rows), l) for l, rows in enumerate(remaining_pos) if rows)
        for i in sorted(remaining_pos[label]):
            open_subsets = [j for j in (0, 1) if capacity[j] > 0]
            if not open_subsets:
                raise DataError("subset capacities exhausted before assignment finished")
            best = max(demand[j][label] for j in open_subsets)
            candidates = [j for j in open_subsets if demand[j][label] == best]
            if len(candidates) > 1:
                top_cap = max(capacity[j] for j in candidates)
                candidates = [j for j in candidates if capacity[j] == top_cap]
            choice = candidates[0] if len(candidates) == 1 else candidates[rng.randint(0, len(candidates))]
            assigned[i] = choice
            capacity[choice] -= 1
            for l in positives[i]:
                demand[choice][l] -= 1.0
                remaining_pos[l].discard(i)

    zero_rows = [i for i, side in enumerate(assigned) if side == -1]
    for j in rng.permutation(len(zero_rows)):
        i = zero_rows[j]
        choice = 0 if capacity[0] > 0 else 1
        if capacity[choice] <= 0:
            raise DataError("subset capacities exhausted before assignment finished")
        assigned[i] = choice
        capacity[choice] -= 1

    train_indices = [i for i, side in enumerate(assigned) if side == 0]
    val_indices = [i for i, side in enumerate(assigned) if side == 1]
    return SplitResult(train=_subset(ds, train_indices), val=_subset(ds, val_indices))


def balanced_merge(primary: Dataset, donor: Dataset, seed: int = 42) -> Dataset:
    """Top up a binary dataset with donor instances to a perfect 50/50 balance.

    Draws (without replacement) as many donor negatives as the primary has
    positives, and as many donor positives as the primary has negatives. The
    merged dataset is exactly twice the primary size. Raises
    :class:`DataError` when the donor cannot cover the demand or when ids
    collide.
    """
    if not primary.schema.is_binary or not donor.schema.is_binary:
        raise DataError("balanced_merge expects binary datasets")
    if primary.schema.names != donor.schema.names:
        raise DataError(
            f"schema mismatch: {primary.schema.names} vs {donor.schema.names}"
        )
    primary_ids = set(primary.ids)
    for inst in donor.instances:
        if inst.id in primary_ids:
            raise DataError(f"id {inst.id!r} appears in both datasets")

    (n_pos,) = count_positives(Counter(primary.labels), 1)
    n_neg = len(primary) - n_pos
    donor_pos = [i for i, inst in enumerate(donor.instances) if inst.labels[0] == 1]
    donor_neg = [i for i, inst in enumerate(donor.instances) if inst.labels[0] == 0]
    if len(donor_neg) < n_pos:
        raise DataError(
            f"donor has {len(donor_neg)} negatives, need {n_pos}"
        )
    if len(donor_pos) < n_neg:
        raise DataError(
            f"donor has {len(donor_pos)} positives, need {n_neg}"
        )

    rng = LegacyRandom(seed)
    take_neg = [donor_neg[j] for j in rng.permutation(len(donor_neg))[:n_pos]]
    take_pos = [donor_pos[j] for j in rng.permutation(len(donor_pos))[:n_neg]]
    taken = sorted(take_neg + take_pos)
    merged: tuple[Instance, ...] = primary.instances + tuple(
        donor.instances[i] for i in taken
    )
    return Dataset(schema=primary.schema, instances=merged)
