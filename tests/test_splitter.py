import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import mk_dataset
from polarpipe.corpus import DataError
from polarpipe.splitter import (
    SplitConfig,
    balanced_merge,
    iterative_stratified_split,
    stratified_split,
)


def assert_partition(ds, result):
    train_ids = set(result.train.ids)
    val_ids = set(result.val.ids)
    assert train_ids | val_ids == set(ds.ids)
    assert not (train_ids & val_ids)


# ---------------------------------------------------------------------------
# stratified_split


def test_stratified_worked_example():
    # 8 negatives, 2 positives, fraction 0.2: total quota floor(10*0.2+0.5)=2;
    # exact shares 1.6/0.4 floor to 1/0, the leftover seat goes to the larger
    # remainder (negatives) -> validation holds 2 negatives, 0 positives
    ds = mk_dataset([(0,)] * 8 + [(1,)] * 2)
    result = stratified_split(ds, SplitConfig(val_fraction=0.2, seed=7))
    assert len(result.val) == 2
    assert sum(i.labels[0] for i in result.val.instances) == 0
    assert_partition(ds, result)


def test_stratified_remainder_tie_goes_to_key_order():
    # 5/5 at fraction 0.3: quota 3, shares 1.5/1.5, equal remainders and
    # equal sizes, so the tie falls to the smaller class key (negatives)
    ds = mk_dataset([(0,)] * 5 + [(1,)] * 5)
    result = stratified_split(ds, SplitConfig(val_fraction=0.3, seed=0))
    val_pos = sum(i.labels[0] for i in result.val.instances)
    assert len(result.val) == 3
    assert val_pos == 1


def test_stratified_class_counts_match_independent_quotas():
    rng = np.random.RandomState(3)
    labels = [(int(rng.rand() < 0.3),) for _ in range(97)]
    ds = mk_dataset(labels)
    fraction = 0.25
    result = stratified_split(ds, SplitConfig(val_fraction=fraction, seed=11))

    target = math.floor(97 * fraction + 0.5)
    n_pos = sum(l[0] for l in labels)
    groups = {(0,): 97 - n_pos, (1,): n_pos}
    exact = {k: v * target / 97 for k, v in groups.items()}
    quotas = {k: math.floor(v) for k, v in exact.items()}
    leftover = target - sum(quotas.values())
    for k in sorted(groups, key=lambda k: (-(exact[k] - quotas[k]), -groups[k], k))[:leftover]:
        quotas[k] += 1

    val_pos = sum(i.labels[0] for i in result.val.instances)
    assert val_pos == quotas[(1,)]
    assert len(result.val) - val_pos == quotas[(0,)]
    assert_partition(ds, result)


def test_stratified_deterministic_and_seed_sensitive():
    ds = mk_dataset([(i % 2,) for i in range(40)])
    cfg = SplitConfig(val_fraction=0.25, seed=5)
    a = stratified_split(ds, cfg)
    b = stratified_split(ds, cfg)
    assert a.val.ids == b.val.ids and a.train.ids == b.train.ids
    c = stratified_split(ds, SplitConfig(val_fraction=0.25, seed=6))
    assert c.val.ids != a.val.ids  # 10-of-20 per class leaves room to differ


def test_stratified_multiclass_label_vectors():
    # full label vectors act as the class key, so each combination is spread
    rows = [(0, 0)] * 12 + [(1, 0)] * 6 + [(0, 1)] * 6
    ds = mk_dataset(rows)
    result = stratified_split(ds, SplitConfig(val_fraction=0.25, seed=2))
    val_rows = [i.labels for i in result.val.instances]
    assert len(result.val) == 6
    assert val_rows.count((0, 0)) == 3
    assert val_rows.count((1, 0)) == 1 or val_rows.count((1, 0)) == 2
    assert val_rows.count((0, 0)) + val_rows.count((1, 0)) + val_rows.count((0, 1)) == 6


def test_split_config_validation():
    with pytest.raises(DataError):
        SplitConfig(val_fraction=0.0)
    with pytest.raises(DataError):
        SplitConfig(val_fraction=1.0)
    ds = mk_dataset([(0,)])
    with pytest.raises(DataError):
        stratified_split(ds, SplitConfig(val_fraction=0.5))


# ---------------------------------------------------------------------------
# iterative_stratified_split


def test_iterative_hand_traced_assignment():
    # rows 0,1 carry the rare label; rows 0,2..5 the common one; 6..9 empty.
    # fraction 0.2 -> capacities train 8 / val 2. Walking the algorithm by
    # hand: rare positives 0,1 both go to train; common 2,3,4 go to train
    # (4 by the capacity tie-break), 5 goes to val; one zero row joins val.
    rows = [
        (1, 1),
        (1, 0),
        (0, 1),
        (0, 1),
        (0, 1),
        (0, 1),
        (0, 0),
        (0, 0),
        (0, 0),
        (0, 0),
    ]
    ds = mk_dataset(rows, names=("rare", "common"))
    result = iterative_stratified_split(ds, SplitConfig(val_fraction=0.2, seed=9))
    assert len(result.val) == 2
    assert "i0005" in result.val.ids
    other = [i for i in result.val.ids if i != "i0005"]
    assert other[0] in {"i0006", "i0007", "i0008", "i0009"}
    assert_partition(ds, result)


def test_iterative_val_size_exact():
    for n, fraction in [(10, 0.2), (11, 0.2), (13, 0.3), (200, 0.2), (37, 0.5)]:
        rng = np.random.RandomState(n)
        rows = [(int(rng.rand() < 0.4), int(rng.rand() < 0.1)) for _ in range(n)]
        ds = mk_dataset(rows)
        result = iterative_stratified_split(ds, SplitConfig(val_fraction=fraction, seed=1))
        assert len(result.val) == math.floor(n * fraction + 0.5)
        assert_partition(ds, result)


def test_iterative_preserves_rare_label_rate():
    rng = np.random.RandomState(17)
    rows = [
        (int(rng.rand() < 0.5), int(rng.rand() < 0.1), int(rng.rand() < 0.02))
        for _ in range(200)
    ]
    ds = mk_dataset(rows)
    result = iterative_stratified_split(ds, SplitConfig(val_fraction=0.2, seed=17))
    labels = np.array(rows, dtype=float)
    val_labels = np.array([i.labels for i in result.val.instances], dtype=float)
    for l in range(3):
        assert abs(val_labels[:, l].mean() - labels[:, l].mean()) <= 0.02 + 1e-12


def test_iterative_deterministic():
    rng = np.random.RandomState(23)
    rows = [(int(rng.rand() < 0.3), int(rng.rand() < 0.05)) for _ in range(60)]
    ds = mk_dataset(rows)
    cfg = SplitConfig(val_fraction=0.25, seed=4)
    a = iterative_stratified_split(ds, cfg)
    b = iterative_stratified_split(ds, cfg)
    assert a.val.ids == b.val.ids


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.2, 0.25, 0.4]))
def test_iterative_partition_property(seed, fraction):
    rng = np.random.RandomState(seed % 1000)
    rows = [
        (int(rng.rand() < 0.4), int(rng.rand() < 0.15), int(rng.rand() < 0.6))
        for _ in range(30)
    ]
    ds = mk_dataset(rows)
    result = iterative_stratified_split(ds, SplitConfig(val_fraction=fraction, seed=seed))
    assert_partition(ds, result)
    assert len(result.val) == math.floor(30 * fraction + 0.5)


# ---------------------------------------------------------------------------
# balanced_merge


def test_balanced_merge_counts():
    primary = mk_dataset([(1,)] * 2 + [(0,)] * 4, names=("pol",))
    donor_rows = [(1,)] * 5 + [(0,)] * 5
    donor = mk_dataset(donor_rows, names=("pol",))
    # donor ids collide with primary ids; remap them
    from polarpipe.corpus import Dataset, Instance

    donor = Dataset(
        schema=donor.schema,
        instances=tuple(
            Instance(id=f"d{k}", raw_text=i.raw_text, text=i.text, labels=i.labels)
            for k, i in enumerate(donor.instances)
        ),
    )
    merged = balanced_merge(primary, donor, seed=3)
    assert len(merged) == 12
    positives = sum(i.labels[0] for i in merged.instances)
    assert positives == 6
    # primary instances all survive, in order
    assert [i.id for i in merged.instances[:6]] == primary.ids


def test_balanced_merge_insufficient_donor():
    primary = mk_dataset([(1,)] * 3 + [(0,)] * 1, names=("pol",))
    from polarpipe.corpus import Dataset, Instance

    donor = Dataset(
        schema=primary.schema,
        instances=(
            Instance(id="d0", raw_text="t", text="t", labels=(0,)),
            Instance(id="d1", raw_text="t", text="t", labels=(1,)),
        ),
    )
    with pytest.raises(DataError, match="negatives"):
        balanced_merge(primary, donor)


def test_balanced_merge_rejects_id_collision_and_multilabel():
    primary = mk_dataset([(1,), (0,)], names=("pol",))
    with pytest.raises(DataError, match="both datasets"):
        balanced_merge(primary, primary)
    multi = mk_dataset([(1, 0), (0, 1)])
    with pytest.raises(DataError, match="binary"):
        balanced_merge(multi, multi)


def test_balanced_merge_deterministic():
    rng = np.random.RandomState(0)
    primary = mk_dataset([(int(rng.rand() < 0.3),) for _ in range(20)], names=("pol",))
    from polarpipe.corpus import Dataset, Instance

    donor = Dataset(
        schema=primary.schema,
        instances=tuple(
            Instance(id=f"d{k}", raw_text="t", text="t", labels=((k % 2),))
            for k in range(60)
        ),
    )
    a = balanced_merge(primary, donor, seed=12)
    b = balanced_merge(primary, donor, seed=12)
    assert [i.id for i in a.instances] == [i.id for i in b.instances]
