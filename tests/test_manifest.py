import json

import pytest

from polarpipe.corpus import DataError
from polarpipe.manifest import PipelineManifest, StageRecord, load_manifest, save_manifest


def saved_manifest(tmp_path):
    stage = StageRecord(
        name="train",
        config={"seed": 1, "ngram_orders": (1, 2)},
        inputs={"train.jsonl": "ab"},
        outputs={"model.bin": "cd"},
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
    assert stage.config == {"seed": 1, "ngram_orders": [1, 2]}
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


def test_digest_mismatch_named(tmp_path):
    path = edited(saved_manifest(tmp_path), lambda p: p["stages"][0]["config"].update(seed=2))
    with pytest.raises(DataError, match="'train' config digest mismatch"):
        load_manifest(path)


def test_non_object_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[1, 2]")
    with pytest.raises(DataError, match="not a manifest file"):
        load_manifest(path)
