"""Mutation fuzzing of the on-disk readers.

A mutated file must either load to an object that satisfies its invariants
or raise ``DataError``; any other exception fails the test. Covered so far:
``model.bin`` (format v2).
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from polarpipe.corpus import DataError
from polarpipe.linear_model import (
    FeaturizerConfig,
    LinearModel,
    TrainConfig,
    load_model,
    predict_proba,
    save_model,
    train,
)
from polarpipe.synth import generate_synthetic

from helpers import mk_dataset


def _saved_model() -> bytes:
    ds = generate_synthetic(40, [0.3, 0.5], seed=13)
    model, _ = train(ds, ds, TrainConfig(max_epochs=2), FeaturizerConfig(hash_dim=2**10))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(model, path)
        return path.read_bytes()


MODEL_BYTES = _saved_model()
HEADER_LEN = MODEL_BYTES.index(b"\n") + 1
HEADER = json.loads(MODEL_BYTES[:HEADER_LEN])
K, N_LABELS = HEADER["shape"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
featurizers = st.fixed_dictionaries(
    {
        "hash_dim": st.sampled_from([2**4, 2**10, 2**11, 2**20, 1000, -1024, 0]),
        "ngram_orders": st.sampled_from([[1, 2], [1], [2], [], [3], 1]),
        "tf_mode": st.sampled_from(["count", "binary", "tfidf"]),
        "l2_normalize": st.booleans(),
    }
)
header_edits = st.one_of(
    st.tuples(
        st.just("shape"),
        st.one_of(
            st.tuples(st.integers(K - 2, K + 2), st.integers(N_LABELS - 2, N_LABELS + 2)).map(list),
            json_values,
        ),
    ),
    st.tuples(st.just("version"), st.one_of(st.sampled_from([1, 2, 3, 2.0, "2", True]), json_values)),
    st.tuples(st.just("featurizer"), st.one_of(featurizers, json_values)),
    st.tuples(st.just("schema"), st.one_of(st.just(["a"]), st.just(["a", "b", "c"]), json_values)),
)
HASH_DIM = HEADER["featurizer"]["hash_dim"]
# whole values written over one feature id, weight or bias
id_values = st.one_of(
    st.sampled_from([-1, 0, 1, HASH_DIM - 1, HASH_DIM, 2**63 - 1, -(2**63)]),
    st.integers(-(2**63), 2**63 - 1),
)
float_values = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]), st.floats())
mutations = st.one_of(
    st.tuples(st.just("set-id"), st.one_of(st.sampled_from([0, K - 1]), st.integers(0, K - 1)), id_values),
    # id i takes the value of id i + 1, or the two trade places
    st.tuples(st.sampled_from(["copy-id", "swap-ids"]), st.integers(0, K - 2)),
    st.tuples(st.just("set-weight"), st.integers(0, K * N_LABELS - 1), float_values),
    st.tuples(st.just("set-bias"), st.integers(0, N_LABELS - 1), float_values),
    st.tuples(st.just("flip-header"), st.integers(0, HEADER_LEN - 1), st.integers(1, 255)),
    st.tuples(st.just("flip-body"), st.integers(HEADER_LEN, len(MODEL_BYTES) - 1), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, len(MODEL_BYTES) - 1)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=24)),
    st.tuples(st.just("edit-header"), header_edits),
)


def mutate(data: bytes, mutation) -> bytes:
    kind, *args = mutation
    if kind in ("set-id", "set-weight", "set-bias", "copy-id", "swap-ids"):
        if data[:HEADER_LEN] != MODEL_BYTES[:HEADER_LEN] or len(data) != len(MODEL_BYTES):
            return data  # the layout moved; a value edit would land anywhere
        ids = np.frombuffer(data, dtype="<i8", count=K, offset=HEADER_LEN).copy()
        floats = np.frombuffer(data, dtype="<f8", offset=HEADER_LEN + K * 8).copy()
        if kind == "set-id":
            ids[args[0]] = args[1]
        elif kind == "copy-id":
            ids[args[0]] = ids[args[0] + 1]
        elif kind == "swap-ids":
            ids[args[0]], ids[args[0] + 1] = ids[args[0] + 1], ids[args[0]]
        else:
            floats[args[0] + (K * N_LABELS if kind == "set-bias" else 0)] = args[1]
        return data[:HEADER_LEN] + ids.astype("<i8").tobytes() + floats.astype("<f8").tobytes()
    if kind in ("flip-header", "flip-body"):
        pos, mask = args
        if pos >= len(data):
            return data
        return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1 :]
    if kind == "truncate":
        return data[: args[0]]
    if kind == "append":
        return data + args[0]
    field, value = args[0]
    line, sep, body = data.partition(b"\n")
    try:
        header = json.loads(line)
    except ValueError:
        return data
    if not isinstance(header, dict):
        return data
    header[field] = value
    return json.dumps(header).encode("utf-8") + sep + body


def assert_invariants(model: LinearModel) -> None:
    ids, n_labels = model.feature_ids, model.schema.n_labels
    assert ids.dtype == np.int64 and ids.ndim == 1
    assert np.all(np.diff(ids) > 0)
    assert ids.size == 0 or (ids[0] >= 0 and ids[-1] < model.featurizer.hash_dim)
    assert model.weights.shape == (ids.size, n_labels)
    assert model.bias.shape == (n_labels,)
    assert np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.bias))
    # a model that loads can score
    ds = mk_dataset([(0,) * n_labels], names=model.schema.names, texts=["topic0tok1 filler3"])
    values = predict_proba(model, ds).values
    assert np.all((values > 0.0) & (values < 1.0))


@settings(max_examples=500)
@given(st.lists(mutations, min_size=1, max_size=3))
def test_mutated_model_loads_valid_or_raises_data_error(tmp_path_factory, edits):
    data = MODEL_BYTES
    for edit in edits:
        data = mutate(data, edit)
    path = tmp_path_factory.getbasetemp() / "fuzzed-model.bin"
    path.write_bytes(data)
    try:
        model = load_model(path)
    except DataError as exc:
        assert str(path) in str(exc)
        return
    assert_invariants(model)


def test_unmutated_model_loads(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(MODEL_BYTES)
    assert_invariants(load_model(path))
