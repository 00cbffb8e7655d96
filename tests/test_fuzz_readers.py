"""Mutation fuzzing of the on-disk readers.

A mutated file must either load to an object that satisfies its invariants
or raise ``DataError`` naming the file; any other exception fails the test.
Covered so far: ``model.bin`` (format v2), ``.probs``, ``thresholds.tsv``,
``manifest.json`` and dataset JSONL.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polarpipe.calibration import PROVENANCES, ThresholdVector, load_thresholds, save_thresholds
from polarpipe.corpus import DataError, LabelSchema, load_dataset, load_labels, save_dataset
from polarpipe.linear_model import (
    FeaturizerConfig,
    LinearModel,
    TrainConfig,
    load_model,
    predict_proba,
    save_model,
    train,
)
from polarpipe.manifest import PipelineManifest, StageRecord, load_manifest, save_manifest
from polarpipe.probs import ProbabilityMatrix, load_probabilities, save_probabilities
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
        "hash_dim": st.sampled_from(
            [2**4, 2**10, 2**11, 2**20, 2**62, 2**63, 2**64, 2**70, 1000, -1024, 0, True, 1024.0, "1024"]
        ),
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
    st.tuples(st.just("version"), st.one_of(st.sampled_from([1, 2, 3, 4, 3.0, "3", True]), json_values)),
    st.tuples(st.just("featurizer"), st.one_of(featurizers, json_values)),
    st.tuples(
        st.just("schema"),
        st.one_of(st.sampled_from([["a"], ["a", "b", "c"], {"a": 1, "b": 2}, "ab", ["a", 1]]), json_values),
    ),
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
    fz = model.featurizer
    assert type(fz.hash_dim) is int and 2**10 <= fz.hash_dim <= 2**62
    assert all(type(name) is str for name in model.schema.names)
    assert ids.dtype == np.int64 and ids.ndim == 1
    assert np.all(np.diff(ids) > 0)
    assert ids.size == 0 or (ids[0] >= 0 and ids[-1] < model.featurizer.hash_dim)
    assert model.weights.shape == (ids.size, n_labels)
    assert model.bias.shape == (n_labels,)
    assert np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.bias))
    # a model that loads can score
    ds = mk_dataset([(0,) * n_labels], names=model.schema.names, texts=["topic0tok1 filler3"])
    values = np.array(predict_proba(model, ds).values)
    assert np.all((values > 0.0) & (values < 1.0))


def _featurizer_edit(**fields):
    return [("edit-header", ("featurizer", {**HEADER["featurizer"], **fields}))]


@settings(max_examples=500)
@given(st.lists(mutations, min_size=1, max_size=3))
@example(_featurizer_edit(hash_dim=2**70))
@example(_featurizer_edit(hash_dim=1024.0))
@example([("edit-header", ("schema", {"a": 1, "b": 2}))])
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


# ---------------------------------------------------------------------------
# .probs and thresholds.tsv: tab-separated text, mutated by line and cell


def _saved_text(save, obj, name: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        save(obj, path)
        return path.read_bytes()


PROBS_BYTES = _saved_text(
    save_probabilities,
    ProbabilityMatrix(
        ids=("a", "b", "c7", "d", "e"),
        label_names=("x", "y", "z"),
        values=np.random.RandomState(3).rand(5, 3),
    ),
    "p.probs",
)
THRESHOLDS_BYTES = _saved_text(
    save_thresholds,
    ThresholdVector(
        label_names=("x", "y", "z"), theta=np.array([0.25, 0.5, 0.875]), base_theta=0.35, provenance="tuned"
    ),
    "thresholds.tsv",
)

cells = st.one_of(
    st.sampled_from(
        ["nan", "NaN", "inf", "-inf", "1e309", "-0.0", "-0.5", "1.5", "1.0000001", "0", "1", "0.5",
         "0x1p-1", " 0.5", "1_0", "", "abc", "none", "id", "x", "y", "__base__", "__provenance__",
         "tuned", "default", "oracle", "bogus", "a\rb"]
    ),
    st.floats().map(repr),
    st.text(max_size=6),
)
line_no = st.integers(0, 12)
text_mutations = st.one_of(
    st.tuples(st.just("set-cell"), line_no, st.integers(0, 4), cells),
    st.tuples(st.just("add-cell"), line_no, st.integers(0, 4), cells),
    st.tuples(st.just("drop-cell"), line_no, st.integers(0, 4)),
    # a copied line duplicates an id, a label or a header line
    st.tuples(st.just("copy-line"), line_no, line_no),
    st.tuples(st.just("drop-line"), line_no),
    st.tuples(st.just("flip"), st.integers(0, 400), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 400)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=24)),
)


def mutate_text(data: bytes, mutation) -> bytes:
    """One edit of a tab-separated file; line and cell numbers wrap around."""
    kind, *args = mutation
    if kind == "flip":
        pos, mask = args
        if pos >= len(data):
            return data
        return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1 :]
    if kind == "truncate":
        return data[: args[0]]
    if kind == "append":
        return data + args[0]
    lines = data.split(b"\n")
    at = args[0] % len(lines)
    if kind == "copy-line":
        lines.insert(args[1] % (len(lines) + 1), lines[at])
    elif kind == "drop-line":
        del lines[at]
    else:
        row = lines[at].split(b"\t")
        col = args[1] % len(row)
        if kind == "drop-cell":
            del row[col]
        else:
            cell = args[2].encode("utf-8", "surrogatepass")
            if kind == "set-cell":
                row[col] = cell
            else:
                row.insert(col, cell)
        lines[at] = b"\t".join(row)
    return b"\n".join(lines)


def load_mutated(tmp_path_factory, name: str, data: bytes, load):
    """``load`` of the mutated file, or None when it raised DataError naming the file."""
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data)
    try:
        return load(path), path
    except DataError as exc:
        assert str(path) in str(exc)
        return None, path


@settings(max_examples=400)
@given(st.lists(text_mutations, min_size=1, max_size=3))
def test_mutated_probs_load_valid_or_raise_data_error(tmp_path_factory, edits):
    data = PROBS_BYTES
    for edit in edits:
        data = mutate_text(data, edit)
    pm, path = load_mutated(tmp_path_factory, "fuzzed.probs", data, load_probabilities)
    if pm is None:
        return
    n, width = len(pm.ids), len(pm.label_names)
    assert width >= 1 and all(isinstance(name, str) for name in pm.label_names)
    assert len(set(pm.ids)) == n and all(isinstance(ident, str) for ident in pm.ids)
    assert len(pm.values) == n and all(len(row) == width for row in pm.values)
    assert all(type(v) is float and 0.0 <= v <= 1.0 for row in pm.values for v in row)
    # what loads is written back as it was read
    save_probabilities(pm, path)
    back = load_probabilities(path)
    assert (back.ids, back.label_names) == (pm.ids, pm.label_names)
    assert np.array(back.values).tobytes() == np.array(pm.values).tobytes()


@settings(max_examples=400)
@given(st.lists(text_mutations, min_size=1, max_size=3))
def test_mutated_thresholds_load_valid_or_raise_data_error(tmp_path_factory, edits):
    data = THRESHOLDS_BYTES
    for edit in edits:
        data = mutate_text(data, edit)
    tv, path = load_mutated(tmp_path_factory, "fuzzed-thresholds.tsv", data, load_thresholds)
    if tv is None:
        return
    assert tv.provenance in PROVENANCES
    assert all(isinstance(name, str) for name in tv.label_names)
    assert len(tv.theta) == len(tv.label_names)
    assert all(type(t) is float and 0.0 <= t <= 1.0 for t in tv.theta)
    assert tv.base_theta is None or 0.0 <= tv.base_theta <= 1.0
    # the file keeps six decimals, so a second save writes the first one's bytes
    save_thresholds(tv, path)
    first = path.read_bytes()
    save_thresholds(load_thresholds(path), path)
    assert path.read_bytes() == first


@pytest.mark.parametrize(
    "data, load", [(PROBS_BYTES, load_probabilities), (THRESHOLDS_BYTES, load_thresholds)]
)
def test_unmutated_text_files_load(tmp_path, data, load):
    path = tmp_path / "file"
    path.write_bytes(data)
    load(path)


# ---------------------------------------------------------------------------
# manifest.json: JSON, mutated by byte and by field


def _digest(name: str) -> str:
    return hashlib.sha256(name.encode("utf-8")).hexdigest()


MANIFEST = PipelineManifest(
    seed=901,
    stages=(
        StageRecord(
            name="split",
            config={"strategy": "auto", "val_fraction": 0.2, "seed": 901},
            inputs={"pool.jsonl": _digest("pool")},
            outputs={"train.jsonl": _digest("train"), "val.jsonl": _digest("val")},
            metrics={},
        ),
        StageRecord(
            name="eval",
            config={},
            inputs={"eval.probs": _digest("probs"), "thresholds.tsv": _digest("thresholds")},
            outputs={"report.tsv": _digest("report")},
            metrics={"macro_f1": 0.5, "micro_f1": 0.625},
        ),
    ),
)
MANIFEST_BYTES = _saved_text(save_manifest, MANIFEST, "manifest.json")
STAGE_FIELDS = ("name", "config", "config_sha256", "inputs", "outputs", "metrics")

manifest_values = st.one_of(
    st.sampled_from(
        [5, True, None, "zz", "split", [], {}, ["a"], {"a": 1}, {"x": "zz"}, {"x": _digest("x").upper()},
         {"x": _digest("x") + "0"}, {"x": 7}, _digest("x"), 901, 2**64, -1, 1.0]
    ),
    json_values,
)
manifest_mutations = st.one_of(
    st.tuples(st.just("set-top"), st.sampled_from(["format", "version", "seed", "stages", "extra"]), manifest_values),
    st.tuples(st.just("drop-top"), st.sampled_from(["format", "version", "seed", "stages"])),
    st.tuples(st.just("set-stage"), st.integers(0, 2), st.sampled_from(STAGE_FIELDS), manifest_values),
    st.tuples(st.just("drop-stage-field"), st.integers(0, 2), st.sampled_from(STAGE_FIELDS)),
    st.tuples(st.just("replace-stage"), st.integers(0, 2), manifest_values),
    st.tuples(st.just("flip"), st.integers(0, len(MANIFEST_BYTES) - 1), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, len(MANIFEST_BYTES) - 1)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=24)),
)


def mutate_manifest(data: bytes, mutation) -> bytes:
    """One edit of a manifest; a field edit needs the text to still parse."""
    kind, *args = mutation
    if kind in ("flip", "truncate", "append"):
        return mutate_text(data, mutation)
    try:
        payload = json.loads(data)
    except ValueError:
        return data
    if not isinstance(payload, dict):
        return data
    if kind == "set-top":
        payload[args[0]] = args[1]
    elif kind == "drop-top":
        payload.pop(args[0], None)
    else:
        stages = payload.get("stages")
        if not isinstance(stages, list) or not stages:
            return data
        at = args[0] % len(stages)
        if kind == "replace-stage":
            stages[at] = args[1]
        elif isinstance(stages[at], dict):
            if kind == "set-stage":
                stages[at][args[1]] = args[2]
            else:
                stages[at].pop(args[1], None)
    return json.dumps(payload).encode("utf-8")


def _stage_edit(field, value, at=0):
    return [("set-stage", at, field, value)]


@settings(max_examples=400)
@given(st.lists(manifest_mutations, min_size=1, max_size=3))
@example(_stage_edit("name", 5))
@example(_stage_edit("inputs", ["pool.jsonl"]))
@example(_stage_edit("outputs", {"report.tsv": "zz"}, at=1))
@example([("set-top", "seed", True)])
@example(_stage_edit("metrics", "macro_f1", at=1))
@example([("set-top", "stages", {"split": {}})])
@example(_stage_edit("metrics", {"macro_f1": float("nan")}))
def test_mutated_manifest_loads_valid_or_raises_data_error(tmp_path_factory, edits):
    data = MANIFEST_BYTES
    for edit in edits:
        data = mutate_manifest(data, edit)
    manifest, path = load_mutated(tmp_path_factory, "fuzzed-manifest.json", data, load_manifest)
    if manifest is None:
        return
    assert type(manifest.seed) is int
    for stage in manifest.stages:
        assert type(stage.name) is str
        assert all(type(v) is dict for v in (stage.config, stage.inputs, stage.outputs, stage.metrics))
        for digest in (*stage.inputs.values(), *stage.outputs.values()):
            assert type(digest) is str and len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    # what loads saves to bytes that load and save back unchanged (NaN metrics included)
    save_manifest(manifest, path)
    first = path.read_bytes()
    save_manifest(load_manifest(path), path)
    assert path.read_bytes() == first


def test_unmutated_manifest_loads(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_bytes(MANIFEST_BYTES)
    assert load_manifest(path) == MANIFEST


# ---------------------------------------------------------------------------
# Dataset JSONL: mutated by byte, by line and by record field


def _jsonl(records) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


MULTI_SCHEMA = LabelSchema(names=("x", "y", "z"))
BINARY_SCHEMA = LabelSchema(names=("pol",))
# every label form the reader accepts, a blank line, and texts that JSON escapes
MULTI_JSONL = _jsonl(
    [
        {"id": "a", "text": "Hello @you #tag 😊 http://x.co", "labels": ["x"]},
        {"id": "b", "text": 'quote " back \\ \u2028 \U0001d11e \x00', "labels": []},
        {"id": "c7", "text": "ok", "labels": [1, 0, 1]},
    ]
) + b"\n" + _jsonl([{"id": "d", "text": "", "labels": ["z", "y"]}])
BINARY_JSONL = _jsonl(
    [
        {"id": "a", "text": "Hello @you #tag 😊", "label": 1},
        {"id": "b", "text": "tab\tand\nline", "label": 0},
        {"id": "c", "text": "www.x.org Caf\u00e9", "label": 0},
    ]
)

record_values = st.one_of(
    st.sampled_from(
        ["x", "y", "z", "pol", "", "a\tb", "a\nb", "\ud800", 0, 1, 2, -1, True, False, None, 1.0,
         [], ["x"], ["x", "x"], ["y", "w"], [1, 0, 1], [1, 0], [0, 1, 2], [True, False, True], ["x", 1], {}]
    ),
    json_values,
)
dataset_mutations = st.one_of(
    text_mutations,
    st.tuples(st.just("set-field"), line_no, st.sampled_from(["id", "text", "label", "labels", "extra"]), record_values),
    st.tuples(st.just("drop-field"), line_no, st.sampled_from(["id", "text", "label", "labels"])),
)


def mutate_dataset(data: bytes, mutation) -> bytes:
    """One edit of a JSONL file; a field edit needs its line to still parse."""
    kind, *args = mutation
    if kind not in ("set-field", "drop-field"):
        return mutate_text(data, mutation)
    lines = data.split(b"\n")
    at = args[0] % len(lines)
    try:
        record = json.loads(lines[at])
    except ValueError:
        return data
    if not isinstance(record, dict):
        return data
    if kind == "set-field":
        record[args[1]] = args[2]
    else:
        record.pop(args[1], None)
    lines[at] = json.dumps(record).encode("utf-8")
    return b"\n".join(lines)


def _load_or_error(load, path, schema):
    try:
        return load(path, schema), None
    except DataError as exc:
        assert str(path) in str(exc)
        return None, str(exc)


@settings(max_examples=400)
@given(st.booleans(), st.lists(dataset_mutations, min_size=1, max_size=3))
@example(False, [("set-field", 0, "labels", ["x", 1])])
@example(False, [("set-field", 2, "labels", [1, 0])])
@example(True, [("set-field", 1, "label", True)])
@example(True, [("set-field", 0, "id", "b")])
@example(True, [("drop-field", 2, "text")])
@example(False, [("set-field", 1, "id", "\ud800")])
def test_mutated_dataset_reads_the_same_through_both_readers(tmp_path_factory, binary, edits):
    schema, data = (BINARY_SCHEMA, BINARY_JSONL) if binary else (MULTI_SCHEMA, MULTI_JSONL)
    for edit in edits:
        data = mutate_dataset(data, edit)
    path = tmp_path_factory.getbasetemp() / "fuzzed.jsonl"
    path.write_bytes(data)
    ds, ds_error = _load_or_error(load_dataset, path, schema)
    gold, gold_error = _load_or_error(load_labels, path, schema)
    # both readers fail with the same message, or both load the same records
    assert ds_error == gold_error
    if ds is None:
        return
    assert (tuple(ds.ids), ds.labels) == (gold.ids, gold.labels)
    # what loads is written back so that it reloads equal and saves again unchanged
    save_dataset(ds, path)
    first = path.read_bytes()
    again = load_dataset(path, schema)
    assert again.instances == ds.instances
    save_dataset(again, path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("data, schema", [(MULTI_JSONL, MULTI_SCHEMA), (BINARY_JSONL, BINARY_SCHEMA)])
def test_unmutated_datasets_load(tmp_path, data, schema):
    path = tmp_path / "d.jsonl"
    path.write_bytes(data)
    assert len(load_dataset(path, schema)) == len(load_labels(path, schema).ids) == data.count(b"{")
