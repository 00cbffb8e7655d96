"""Run manifests: per-stage configs, file digests, and metrics.

The manifest is the reproducibility record of a pipeline run. File paths are
stored as names relative to the run directory, so two runs in different
directories with identical inputs produce byte-identical manifests.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from pathlib import Path

from .corpus import DataError, read_field

_MANIFEST_FORMAT = "polarpipe-manifest"
_MANIFEST_VERSION = 1


def file_digest(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_digest(config: dict) -> str:
    """Hex SHA-256 of a config dict's canonical JSON form."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StageRecord:
    name: str
    config: dict
    inputs: dict  # file name -> sha256
    outputs: dict  # file name -> sha256
    metrics: dict

    @property
    def config_sha256(self) -> str:
        return config_digest(self.config)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "config": self.config,
            "config_sha256": self.config_sha256,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "metrics": self.metrics,
        }


@dataclass(frozen=True)
class PipelineManifest:
    seed: int
    stages: tuple[StageRecord, ...]

    def to_json(self) -> dict:
        return {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "seed": self.seed,
            "stages": [s.to_json() for s in self.stages],
        }


def save_manifest(manifest: PipelineManifest, path: str | Path) -> None:
    text = json.dumps(manifest.to_json(), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _stage_from_json(record: dict) -> StageRecord:
    stage = StageRecord(
        name=record["name"],
        config=record["config"],
        inputs=record["inputs"],
        outputs=record["outputs"],
        metrics=record["metrics"],
    )
    if record["config_sha256"] != stage.config_sha256:
        raise DataError(f"stage {stage.name!r} config digest mismatch")
    return stage


def load_manifest(path: str | Path) -> PipelineManifest:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise DataError(f"{path}: not a manifest file") from None
    if not isinstance(payload, dict) or payload.get("format") != _MANIFEST_FORMAT:
        raise DataError(f"{path}: not a manifest file")
    if payload.get("version") != _MANIFEST_VERSION:
        raise DataError(f"{path}: unsupported manifest version {payload.get('version')!r}")
    return PipelineManifest(
        seed=read_field(payload, "seed", path, operator.index),
        stages=read_field(payload, "stages", path, lambda v: tuple(map(_stage_from_json, v))),
    )
