import hashlib
import json
import random

import pytest

from polarpipe.corpus import DataError
from polarpipe.manifest import (
    PipelineManifest,
    StageRecord,
    config_digest,
    file_digest,
    load_manifest,
    save_manifest,
)

# hashlib, OpenSSL's SHA-256 where the interpreter has it, is the independent
# oracle for the built-in SHA-256 the manifest computes with
_SIZES = [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, random.Random(2026).randrange(2, 3 << 20)]


@pytest.mark.parametrize("size", _SIZES)
def test_file_digest_is_sha256(tmp_path, size):
    payload = random.Random(size).randbytes(size)
    path = tmp_path / "blob"
    path.write_bytes(payload)
    assert file_digest(path) == hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize(
    "config",
    [
        {},
        {"labels": ["Ελληνικά", "kiswahili ✓", "😀"], "note": "café"},
        {"ñ": 1, "n": [1.5, None, True], "名前": {"é": "\u00e9"}},
    ],
)
def test_config_digest_is_sha256_of_canonical_json(config):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert config_digest(config) == hashlib.sha256(canonical).hexdigest()


def saved_manifest(tmp_path):
    stage = StageRecord(
        name="train",
        config={"seed": 1, "sizes": (1, 2)},
        inputs={"train.jsonl": "ab" * 32},
        outputs={"model.bin": "cd" * 32},
        metrics={"best_epoch": 2},
    )
    path = tmp_path / "manifest.json"
    save_manifest(PipelineManifest(seed=1, stages=(stage,)), path)
    return path


def edited(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


def test_round_trip(tmp_path):
    back = load_manifest(saved_manifest(tmp_path))
    assert back.seed == 1
    (stage,) = back.stages
    assert stage.name == "train"
    assert stage.config == {"seed": 1, "sizes": [1, 2]}
    assert stage.metrics == {"best_epoch": 2}


@pytest.mark.parametrize(
    "field, message",
    [
        ("format", "not a manifest file"),
        ("version", "version"),
        ("seed", "missing field 'seed'"),
        ("stages", "missing field 'stages'"),
    ],
)
def test_each_top_level_field_required(tmp_path, field, message):
    path = edited(saved_manifest(tmp_path), lambda p: p.pop(field))
    with pytest.raises(DataError, match=message) as info:
        load_manifest(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("field", ["name", "config", "config_sha256", "inputs", "outputs", "metrics"])
def test_each_stage_field_required(tmp_path, field):
    path = edited(saved_manifest(tmp_path), lambda p: p["stages"][0].pop(field))
    with pytest.raises(DataError, match=f"'stages' has no '{field}'"):
        load_manifest(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.update(seed="one"),
        lambda p: p.update(stages=3),
        lambda p: p.update(stages=["train"]),
    ],
)
def test_malformed_fields_rejected(tmp_path, edit):
    path = edited(saved_manifest(tmp_path), edit)
    with pytest.raises(DataError):
        load_manifest(path)


def _stage_edit(field, value):
    return lambda p: p["stages"][0].update({field: value})


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda p: p.update(stages={"train": {}}), "'stages': must be a list, got dict", id="stages-object"),
        pytest.param(lambda p: p.update(seed=True), "'seed': must be an integer, got True", id="seed-bool"),
        pytest.param(lambda p: p.update(seed=1.0), "'seed': must be an integer, got 1.0", id="seed-float"),
        pytest.param(_stage_edit("name", 5), "stage 0: name must be a string, got 5", id="name-int"),
        pytest.param(_stage_edit("config", [1]), "stage 0: config must be an object", id="config-list"),
        pytest.param(_stage_edit("inputs", ["train.jsonl"]), "stage 0: inputs must be an object", id="inputs-list"),
        pytest.param(_stage_edit("outputs", "model.bin"), "stage 0: outputs must be an object", id="outputs-str"),
        pytest.param(_stage_edit("metrics", "best"), "stage 0: metrics must be an object", id="metrics-str"),
        pytest.param(_stage_edit("outputs", {"model.bin": "zz"}), "stage 0: outputs digest of 'model.bin'", id="digest-zz"),
        pytest.param(_stage_edit("inputs", {"train.jsonl": "AB" * 32}), "stage 0: inputs digest of 'train.jsonl'", id="digest-upper"),
        pytest.param(_stage_edit("inputs", {"train.jsonl": "ab" * 33}), "stage 0: inputs digest", id="digest-66"),
        pytest.param(_stage_edit("inputs", {"train.jsonl": 7}), "stage 0: inputs digest", id="digest-int"),
    ],
)
def test_mistyped_fields_name_the_path_and_stage(tmp_path, edit, message):
    path = edited(saved_manifest(tmp_path), edit)
    with pytest.raises(DataError, match=message) as info:
        load_manifest(path)
    assert str(path) in str(info.value)


def test_digest_mismatch_named(tmp_path):
    path = edited(saved_manifest(tmp_path), lambda p: p["stages"][0]["config"].update(seed=2))
    with pytest.raises(DataError, match="'train' config digest mismatch"):
        load_manifest(path)


def test_non_object_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[1, 2]")
    with pytest.raises(DataError, match="not a manifest file"):
        load_manifest(path)
