"""Scoring in row blocks: the same bits as scoring in one piece, in bounded memory.

``predict_proba`` featurizes and scores ``SCORE_BLOCK_ROWS`` rows at a time.
The oracle below is the earlier implementation, kept verbatim apart from its
name: it scored the whole dataset in one call of each step. Both must give
the same ids and bit-identical values at every row count around the block
size, and the memory scoring takes beyond its result must not grow with the
number of blocks.
"""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import RAW_POSTS

from polarpipe import _kernels as kernels
from polarpipe.corpus import DataError, Dataset, preprocess
from polarpipe.linear_model import (
    _PROB_FLOOR,
    SCORE_BLOCK_ROWS,
    FeaturizerConfig,
    TrainConfig,
    _sigmoid,
    featurize_all,
    predict_proba,
    restrict,
    train,
)
from polarpipe.probs import ProbabilityMatrix
from polarpipe.synth import generate_synthetic

B = SCORE_BLOCK_ROWS


def oracle_predict_proba(model, ds):
    """Sigmoid probabilities for every instance; values stay inside (0, 1)."""
    if ds.schema.names != model.schema.names:
        raise DataError("dataset schema does not match model schema")
    fm = featurize_all([inst.text for inst in ds.instances], model.featurizer)
    fm = restrict(fm, model.feature_ids)
    z = kernels.csr_logits(fm.indptr, fm.indices, fm.data, model.weights, model.bias)
    probs = np.clip(_sigmoid(z), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    return ProbabilityMatrix(
        ids=tuple(ds.ids), label_names=model.schema.names, values=probs.tolist()
    )


@pytest.fixture(scope="module")
def model():
    ds = generate_synthetic(240, [0.4, 0.25, 0.1], noise=0.05, seed=31)
    tr = replace(ds, instances=ds.instances[:180])
    va = replace(ds, instances=ds.instances[180:])
    model, _ = train(tr, va, TrainConfig(max_epochs=3), FeaturizerConfig(hash_dim=2**18))
    return model


def _score_set(n: int) -> Dataset:
    """``n`` rows: synthetic posts, with the decorated, empty and unknown ones mixed in."""
    ds = generate_synthetic(max(n, 1), [0.4, 0.25, 0.1], noise=0.05, seed=32)
    instances = list(ds.instances[:n])
    for i in range(0, n, 37):
        raw = RAW_POSTS[(i // 37) % len(RAW_POSTS)]
        instances[i] = replace(instances[i], raw_text=raw, text=preprocess(raw))
    return replace(ds, instances=tuple(instances))


def _bits(pm: ProbabilityMatrix) -> bytes:
    return np.array(pm.values, dtype=np.float64).reshape(-1).tobytes()


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 5])
def test_blocks_match_whole_dataset_oracle(model, n):
    ds = _score_set(n)
    got = predict_proba(model, ds)
    want = oracle_predict_proba(model, ds)
    assert got.ids == want.ids
    assert got.label_names == want.label_names
    assert len(got.values) == n
    assert _bits(got) == _bits(want)


def _scoring_overhead(model, ds) -> int:
    """tracemalloc's peak during ``predict_proba`` minus what its result holds."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = predict_proba(model, ds)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_instances == len(ds)
    assert after > before
    return peak - after


def test_scoring_memory_does_not_grow_with_the_blocks(model):
    ds = _score_set(16 * B)
    small = _scoring_overhead(model, replace(ds, instances=ds.instances[: 2 * B]))
    large = _scoring_overhead(model, ds)
    assert large <= 1.25 * small, (small, large)


def test_featurize_all_leaves_no_cycle():
    texts = [t.text for t in generate_synthetic(500, [0.3], seed=33).instances]
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fm = featurize_all(texts, FeaturizerConfig(hash_dim=2**12))
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert fm.n_rows == len(texts)
