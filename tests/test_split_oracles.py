"""Differential test: the iterative split against the numpy-indexed one it replaced.

``oracle_iterative_split`` is the earlier ``iterative_stratified_split``,
kept verbatim apart from its name, docstring and comments. It held the
labels and the demands in numpy arrays and indexed them one row at a time;
the library now holds them in plain Python lists. Both make the same ``RandomState`` calls, so every row must
land on the same side, in the same order, and the same inputs must fail with
the same ``DataError``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polarpipe.corpus import DataError, Dataset
from polarpipe.splitter import (
    SplitConfig,
    SplitResult,
    _subset,
    _val_target,
    iterative_stratified_split,
)

from helpers import mk_dataset

# ---------------------------------------------------------------------------
# Oracle


def oracle_iterative_split(ds: Dataset, cfg: SplitConfig) -> SplitResult:
    n = len(ds)
    if n < 2:
        raise DataError("need at least 2 instances to split")
    width = ds.schema.n_labels
    target = _val_target(n, cfg.val_fraction)
    if target == 0 or target == n:
        raise DataError(
            f"val_fraction {cfg.val_fraction} leaves an empty subset for {n} instances"
        )

    fractions = (1.0 - cfg.val_fraction, cfg.val_fraction)
    capacity = [n - target, target]
    labels = np.array([inst.labels for inst in ds.instances], dtype=np.int64)
    totals = labels.sum(axis=0)
    demand = np.array([[totals[l] * f for l in range(width)] for f in fractions])

    rng = np.random.RandomState(cfg.seed)
    assigned = np.full(n, -1, dtype=np.int64)
    remaining_pos = [set(np.flatnonzero(labels[:, l]).tolist()) for l in range(width)]
    unassigned_with_labels = {i for i in range(n) if labels[i].any()}

    while unassigned_with_labels:
        counts = [
            (len(remaining_pos[l]), l) for l in range(width) if remaining_pos[l]
        ]
        if not counts:
            break
        _, label = min(counts)
        for i in sorted(remaining_pos[label]):
            open_subsets = [j for j in (0, 1) if capacity[j] > 0]
            if not open_subsets:
                raise DataError("subset capacities exhausted before assignment finished")
            best = max(demand[j][label] for j in open_subsets)
            candidates = [j for j in open_subsets if demand[j][label] == best]
            if len(candidates) > 1:
                top_cap = max(capacity[j] for j in candidates)
                candidates = [j for j in candidates if capacity[j] == top_cap]
            choice = candidates[0] if len(candidates) == 1 else candidates[rng.randint(len(candidates))]
            assigned[i] = choice
            capacity[choice] -= 1
            for l in np.flatnonzero(labels[i]):
                demand[choice][l] -= 1.0
                remaining_pos[l].discard(i)
            unassigned_with_labels.discard(i)

    zero_rows = [i for i in range(n) if assigned[i] == -1]
    order = rng.permutation(len(zero_rows))
    for j in order:
        i = zero_rows[j]
        choice = 0 if capacity[0] > 0 else 1
        if capacity[choice] <= 0:
            raise DataError("subset capacities exhausted before assignment finished")
        assigned[i] = choice
        capacity[choice] -= 1

    train_indices = [i for i in range(n) if assigned[i] == 0]
    val_indices = [i for i in range(n) if assigned[i] == 1]
    return SplitResult(train=_subset(ds, train_indices), val=_subset(ds, val_indices))


# ---------------------------------------------------------------------------
# Differential test


def outcome(split, ds, cfg):
    try:
        result = split(ds, cfg)
    except DataError as exc:
        return ("error", str(exc))
    return (result.train.ids, result.val.ids)


# a rate of 0 leaves a label with no positives, 1 makes it hit every row;
# rows left all zero are the ones the final shuffle places
RATES = st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 300),
    rates=st.lists(RATES, min_size=1, max_size=6),
    bits_seed=st.integers(0, 2**32 - 1),
    val_fraction=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, rates=[0.0], bits_seed=0, val_fraction=0.05, seed=0)  # target 0: raises
@example(n=3, rates=[0.0, 0.0], bits_seed=0, val_fraction=0.5, seed=1)  # all rows zero
@example(n=300, rates=[1.0] * 6, bits_seed=0, val_fraction=0.95, seed=2)  # every bit set
def test_matches_oracle(n, rates, bits_seed, val_fraction, seed):
    bits = np.random.RandomState(bits_seed).rand(n, len(rates)) < np.array(rates)
    ds = mk_dataset(bits.astype(int).tolist())
    cfg = SplitConfig(val_fraction=val_fraction, seed=seed)
    assert outcome(iterative_stratified_split, ds, cfg) == outcome(oracle_iterative_split, ds, cfg)


@pytest.mark.parametrize("n", [0, 1])
def test_too_small_raises_like_oracle(n):
    ds = mk_dataset([(1, 0)] * n)
    cfg = SplitConfig()
    assert outcome(iterative_stratified_split, ds, cfg) == outcome(oracle_iterative_split, ds, cfg)
    assert outcome(iterative_stratified_split, ds, cfg)[0] == "error"
