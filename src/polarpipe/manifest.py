"""Run manifests: per-stage configs, file digests, and metrics.

The manifest is the reproducibility record of a pipeline run. Each file is
recorded by its base name, not its path, inputs outside the run directory
too, so two runs in different directories with identical inputs produce
byte-identical manifests.

Every SHA-256 here comes from CPython's built-in implementation (``_sha2``
on 3.12+, ``_sha256`` before), and from ``hashlib`` only when the
interpreter was built without it: importing ``hashlib`` loads ``_hashlib``,
which maps OpenSSL's ``libcrypto`` and adds about 3.6 MB to a fit run's peak
memory. Both give the same digests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .corpus import DataError, is_json_int, read_field

_MANIFEST_FORMAT = "polarpipe-manifest"
_MANIFEST_VERSION = 1

# hashlib is heavy to load; try the lean built-in module first, as random.py does
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


def file_digest(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = _sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_digest(config: dict) -> str:
    """Hex SHA-256 of a config dict's canonical JSON form."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return _sha256(payload.encode("utf-8")).hexdigest()


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


_HEX_DIGITS = frozenset("0123456789abcdef")


def _is_digest(value) -> bool:
    return isinstance(value, str) and len(value) == 64 and set(value) <= _HEX_DIGITS


def _stage_from_json(index: int, record) -> StageRecord:
    if not isinstance(record, dict):
        raise DataError(f"stage {index} is not an object")
    stage = StageRecord(
        name=record["name"],
        config=record["config"],
        inputs=record["inputs"],
        outputs=record["outputs"],
        metrics=record["metrics"],
    )
    if not isinstance(stage.name, str):
        raise DataError(f"stage {index}: name must be a string, got {stage.name!r}")
    for field in ("config", "inputs", "outputs", "metrics"):
        if not isinstance(getattr(stage, field), dict):
            raise DataError(f"stage {index}: {field} must be an object")
    for field in ("inputs", "outputs"):
        for file, digest in getattr(stage, field).items():
            if not _is_digest(digest):
                raise DataError(
                    f"stage {index}: {field} digest of {file!r} is not 64 lowercase hex digits"
                )
    if record["config_sha256"] != stage.config_sha256:
        raise DataError(f"stage {index}: {stage.name!r} config digest mismatch")
    return stage


def _stages_from_json(value) -> tuple[StageRecord, ...]:
    if not isinstance(value, list):
        raise DataError(f"must be a list, got {type(value).__name__}")
    return tuple(_stage_from_json(i, record) for i, record in enumerate(value))


def _seed_from_json(value) -> int:
    if not is_json_int(value):
        raise DataError(f"must be an integer, got {value!r}")
    return value


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
        seed=read_field(payload, "seed", path, _seed_from_json),
        stages=read_field(payload, "stages", path, _stages_from_json),
    )
