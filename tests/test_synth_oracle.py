"""Differential test: ``generate_synthetic`` against the numpy version it replaced.

``oracle_generate_synthetic`` is the earlier ``generate_synthetic``, kept
verbatim apart from its name and docstring. It drew from numpy's legacy
``RandomState``; the library draws the same stream with ``random.Random``
through ``polarpipe._rng``, so every corpus must be the same, instance for
instance, and the same arguments must fail with the same ``DataError``.
"""

from typing import Sequence

import numpy as np
from hypothesis import example, given, settings, strategies as st

from polarpipe.corpus import DataError, Dataset, Instance, LabelSchema
from polarpipe.synth import (
    _FILLER_VOCAB,
    _MAX_FILLER,
    _MAX_SIGNAL,
    _MIN_FILLER,
    _MIN_SIGNAL,
    _SIGNAL_VOCAB,
    generate_synthetic,
)

# ---------------------------------------------------------------------------
# Oracle


def oracle_generate_synthetic(
    n_instances: int,
    rates: Sequence[float],
    noise: float = 0.0,
    seed: int = 42,
    label_names: Sequence[str] | None = None,
) -> Dataset:
    if n_instances < 1:
        raise DataError("n_instances must be >= 1")
    rates = [float(r) for r in rates]
    if not rates or any(not 0.0 < r < 1.0 for r in rates):
        raise DataError("rates must be in the open interval (0, 1)")
    if not 0.0 <= noise < 0.5:
        raise DataError("noise must lie in [0, 0.5)")
    width = len(rates)
    if label_names is None:
        label_names = [f"label{l}" for l in range(width)]
    if len(label_names) != width:
        raise DataError(f"{len(label_names)} label names for {width} rates")
    schema = LabelSchema(names=tuple(label_names))
    rate_arr = np.asarray(rates, dtype=np.float64)

    rng = np.random.RandomState(seed)
    instances = []
    for idx in range(n_instances):
        true = (rng.random_sample(width) < rate_arr).astype(np.int64)
        n_filler = rng.randint(_MIN_FILLER, _MAX_FILLER + 1)
        tokens = [f"filler{j:02d}" for j in rng.randint(0, _FILLER_VOCAB, size=n_filler)]
        for l in np.flatnonzero(true):
            n_signal = rng.randint(_MIN_SIGNAL, _MAX_SIGNAL + 1)
            tokens.extend(
                f"topic{l}tok{j}" for j in rng.randint(0, _SIGNAL_VOCAB, size=n_signal)
            )
        order = rng.permutation(len(tokens))
        text = " ".join(tokens[j] for j in order)
        if noise > 0.0:
            flips = (rng.random_sample(width) < noise).astype(np.int64)
            observed = true ^ flips
        else:
            observed = true
        instances.append(
            Instance(
                id=f"s{seed}-{idx:05d}",
                raw_text=text,
                text=text,
                labels=tuple(int(v) for v in observed),
            )
        )
    return Dataset(schema=schema, instances=tuple(instances))

# ---------------------------------------------------------------------------
# Differential test


def outcome(generate, *args, **kwargs):
    try:
        return generate(*args, **kwargs)
    except DataError as exc:
        return ("error", str(exc))


# valid rates and noise, their edges included; the examples below hold
# the invalid arguments
RATES = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.sampled_from([5e-324, 0.02, 0.98, 1 - 2**-53])
)
NOISE = st.one_of(st.floats(0.0, 0.5, exclude_max=True), st.sampled_from([0.0, 0.1, 0.5 - 2**-54]))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    rates=st.lists(RATES, min_size=1, max_size=7),
    noise=NOISE,
    seed=st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    named=st.booleans(),
)
@example(n=1, rates=[0.5], noise=0.0, seed=0, named=False)
@example(n=60, rates=[0.3, 0.2, 0.15, 0.1, 0.06, 0.04], noise=0.1, seed=2**32 - 1, named=True)
@example(n=0, rates=[0.5], noise=0.0, seed=0, named=False)
@example(n=5, rates=[], noise=0.0, seed=0, named=False)
@example(n=5, rates=[0.5, 1.0], noise=0.0, seed=0, named=False)
@example(n=5, rates=[0.5], noise=0.5, seed=0, named=False)
def test_matches_oracle(n, rates, noise, seed, named):
    names = [f"name{l}" for l in range(len(rates))] if named else None
    kwargs = {"noise": noise, "seed": seed, "label_names": names}
    assert outcome(generate_synthetic, n, rates, **kwargs) == outcome(oracle_generate_synthetic, n, rates, **kwargs)

