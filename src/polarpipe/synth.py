"""Seeded synthetic corpora with controllable per-label imbalance.

Each label owns a small dedicated token vocabulary; an instance's text
contains a few tokens from the vocabulary of every label that is truly
positive, mixed into filler tokens. Observed labels are the true labels
after independent symmetric flips at the noise rate, so the text signals the
pre-noise truth and the noise level caps how clean any classifier can be.
"""

from __future__ import annotations

from typing import Sequence

from ._rng import LegacyRandom
from .corpus import DataError, Dataset, Instance, LabelSchema

_FILLER_VOCAB = 40
_SIGNAL_VOCAB = 6
_MIN_FILLER = 6
_MAX_FILLER = 11
_MIN_SIGNAL = 2
_MAX_SIGNAL = 3


def generate_synthetic(
    n_instances: int,
    rates: Sequence[float],
    noise: float = 0.0,
    seed: int = 42,
    label_names: Sequence[str] | None = None,
) -> Dataset:
    """Generate a labeled corpus with the given per-label positive rates.

    Texts are already in normalized form (lowercase single-space tokens).
    Instance ids embed the seed so corpora from different seeds can be
    merged without collisions.
    """
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

    rng = LegacyRandom(seed)
    instances = []
    for idx in range(n_instances):
        true = [int(rng.random() < rate) for rate in rates]
        n_filler = rng.randint(_MIN_FILLER, _MAX_FILLER + 1)
        tokens = [f"filler{j:02d}" for j in rng.randints(0, _FILLER_VOCAB, n_filler)]
        for l, bit in enumerate(true):
            if bit:
                n_signal = rng.randint(_MIN_SIGNAL, _MAX_SIGNAL + 1)
                tokens.extend(f"topic{l}tok{j}" for j in rng.randints(0, _SIGNAL_VOCAB, n_signal))
        text = " ".join(tokens[j] for j in rng.permutation(len(tokens)))
        if noise > 0.0:
            observed = tuple(bit ^ (rng.random() < noise) for bit in true)
        else:
            observed = tuple(true)
        instances.append(Instance(id=f"s{seed}-{idx:05d}", raw_text=text, text=text, labels=observed))
    return Dataset(schema=schema, instances=tuple(instances))
