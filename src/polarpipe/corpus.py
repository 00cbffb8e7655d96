"""Dataset ingestion, social-media text normalization, and corpus statistics.

Datasets are line-oriented JSONL files; each record carries an ``id``, a
``text``, and either a scalar ``label`` (binary task) or a ``labels`` list
(label names or a full 0/1 vector). Text normalization replaces emojis with
the names in the bundled table, strips ``#`` symbols, lowercases, drops URL
and @mention tokens, and keeps at most 128 tokens. It is a fixpoint: running
it twice never changes the output.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterator


class DataError(ValueError):
    """Malformed input data (bad record, unknown label, duplicate id, ...)."""


def read_field(record: dict, name: str, path: Path, build):
    """``build(record[name])`` for a JSON header, a missing or malformed field raised as DataError."""
    try:
        value = record[name]
    except KeyError:
        raise DataError(f"{path}: missing field {name!r}") from None
    try:
        return build(value)
    except KeyError as exc:
        raise DataError(f"{path}: field {name!r} has no {exc.args[0]!r} entry") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad field {name!r}: {exc}") from None


def is_json_int(value) -> bool:
    """Whether ``value`` is a JSON integer as ``json`` reads it: an ``int``, not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


@contextmanager
def open_text(path: Path):
    """Open ``path`` for reading as UTF-8; bytes that do not decode raise DataError.

    The error names the file and the line that holds the first bad byte.
    """
    with path.open(encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # the decoder works in chunks, so find the line in the raw bytes
            data = path.read_bytes()
            where = ""
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                where = " at line %d" % (data.count(b"\n", 0, exc.start) + 1)
            raise DataError(f"{path}: not valid UTF-8{where}") from None


_BUNDLED_EMOJI_TABLE = "emoji_table.tsv"

# Codepoint ranges treated as emoji when deleting glyphs that have no entry
# in the name table. Covers the plane-1 pictograph blocks, legacy symbol
# blocks, variation selectors, ZWJ, and the combining keycap.
_EMOJI_RANGES = (
    (0x1F000, 0x1FFFF),
    (0x2600, 0x27BF),
    (0x2B00, 0x2BFF),
    (0x2190, 0x2199),
    (0x2B05, 0x2B07),
    (0x203C, 0x203C),
    (0x2049, 0x2049),
    (0xFE00, 0xFE0F),
    (0x200D, 0x200D),
    (0x20E3, 0x20E3),
)

# A token is dropped when it starts with one of these after "#" is stripped
# and the text lowercased: @mentions and URLs.
_DROPPED_PREFIXES = ("@", "http://", "https://", "www.")

MAX_TOKENS = 128

# the header keys of a thresholds file, so no label may be named after them
PROVENANCE_KEY = "__provenance__"
BASE_KEY = "__base__"


@dataclass(frozen=True)
class LabelSchema:
    """Ordered label names; length 1 means the binary task."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 1:
            raise DataError("schema needs at least one label")
        seen = set()
        for name in self.names:
            if not name:
                raise DataError("empty label name")
            if "\t" in name or "\n" in name or "\r" in name:
                raise DataError(f"label name {name!r} contains tab or line break")
            if name in (PROVENANCE_KEY, BASE_KEY):
                raise DataError(f"label name {name!r} is reserved for the thresholds file")
            if name in seen:
                raise DataError(f"duplicate label name {name!r}")
            seen.add(name)

    @property
    def n_labels(self) -> int:
        return len(self.names)

    @property
    def is_binary(self) -> bool:
        return len(self.names) == 1


@dataclass(frozen=True, slots=True)
class Instance:
    """One text example: id, raw text, normalized text, gold bit vector.

    Slotted, so an instance carries no ``__dict__``. ``text`` may be the
    ``raw_text`` object itself, and ``labels`` may be shared with other
    instances of the same file (both are immutable). An instance loaded
    without its raw text holds the normalized text in both fields.
    """

    id: str
    raw_text: str
    text: str
    labels: tuple[int, ...]


@dataclass(frozen=True)
class Dataset:
    schema: LabelSchema
    instances: tuple[Instance, ...]

    def __post_init__(self):
        width = self.schema.n_labels
        seen: set[str] = set()
        for inst in self.instances:
            if len(inst.labels) != width:
                raise DataError(
                    f"instance {inst.id!r} has {len(inst.labels)} labels, schema has {width}"
                )
            if inst.id in seen:
                raise DataError(f"duplicate id {inst.id!r}")
            seen.add(inst.id)

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def ids(self) -> list[str]:
        return [inst.id for inst in self.instances]

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(inst.labels for inst in self.instances)


@dataclass(frozen=True)
class GoldLabels:
    """The ids and gold bit vectors of a dataset, in line order, without its text."""

    schema: LabelSchema
    ids: tuple[str, ...]
    labels: tuple[tuple[int, ...], ...]


@dataclass
class CorpusStats:
    n_instances: int
    per_label_positive: list[int]
    per_label_positive_pct: list[float]
    imbalance_ratio_per_label: list[float]  # n_neg / n_pos, math.inf when n_pos == 0
    all_zero_rows: int
    label_cardinality_histogram: dict[int, int]
    label_names: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Normalization


def _parse_emoji_lines(lines, source: str) -> dict[str, str]:
    table: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{source}: malformed emoji table line {lineno}")
        codepoints, name = parts
        try:
            seq = "".join(chr(int(cp[2:], 16)) for cp in codepoints.split())
        except (ValueError, IndexError):
            raise DataError(
                f"{source}: bad codepoint sequence {codepoints!r} at line {lineno}"
            ) from None
        if not seq:
            raise DataError(f"{source}: empty codepoint sequence at line {lineno}")
        name = " ".join(name.strip().lower().replace("_", " ").split())
        table[seq] = name
    return table


def load_emoji_table() -> dict[str, str]:
    """The bundled emoji name table: codepoint sequence -> name."""
    text = (
        resources.files("polarpipe")
        .joinpath("data", _BUNDLED_EMOJI_TABLE)
        .read_text(encoding="utf-8")
    )
    return _parse_emoji_lines(text.splitlines(), _BUNDLED_EMOJI_TABLE)


@cache
def _emoji_sub():
    """``sub(text)``: every emoji in ``text`` replaced by its spaced name.

    Built on the first call, so a command that normalizes no text never
    reads the table. At an emoji-range codepoint the longest table key there
    is replaced by its name, or else the codepoint alone is deleted. Every
    key starts with an emoji-range codepoint and no name holds one, so one
    pass leaves nothing to match. The lookahead keeps the key alternation off
    every other position.
    """
    spaced = {key: f" {name} " for key, name in load_emoji_table().items()}
    pattern = re.compile(
        "(?=[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _EMOJI_RANGES) + "])"
        "(?:" + "|".join(map(re.escape, sorted(spaced, key=len, reverse=True))) + "|.)",
        re.DOTALL,
    )
    return partial(pattern.sub, lambda match: spaced.get(match[0], ""))


def preprocess(raw: str) -> str:
    """Normalize one text.

    Emojis become their names (unnamed ones are deleted), ``#`` is stripped,
    the text is lowercased, tokens that start with ``@`` or a URL prefix are
    dropped, and the first :data:`MAX_TOKENS` tokens are joined by single
    spaces. Stripping ``#`` comes before the token test, so ``#@user`` and
    ``#https://...`` are dropped too, and normalizing twice changes nothing.
    An already-normalized ``raw`` is returned itself, not an equal copy.
    """
    text = _emoji_sub()(raw).replace("#", "").lower()
    tokens = text.split()
    # a token that starts with a dropped prefix puts that prefix in the text
    if "@" in text or "http" in text or "www." in text:
        tokens = [token for token in tokens if not token.startswith(_DROPPED_PREFIXES)]
    text = " ".join(tokens[:MAX_TOKENS])
    return raw if text == raw else text


# ---------------------------------------------------------------------------
# JSONL ingestion


def _labels_from_record(record: dict, schema: LabelSchema, lineno: int) -> tuple[int, ...]:
    width = schema.n_labels
    if "label" in record and "labels" in record:
        raise DataError(f"both 'label' and 'labels' present at line {lineno}")
    if "label" in record:
        if width != 1:
            raise DataError(
                f"scalar 'label' at line {lineno} but schema has {width} labels"
            )
        value = record["label"]
        # the JSON integer 0 or 1, as in a label vector: not 1.0, -0.0 or true
        if not is_json_int(value) or value not in (0, 1):
            raise DataError(f"label must be 0 or 1 at line {lineno}, got {value!r}")
        return (value,)
    if "labels" not in record:
        raise DataError(f"missing 'label' or 'labels' at line {lineno}")
    values = record["labels"]
    if not isinstance(values, list):
        raise DataError(f"'labels' must be a list at line {lineno}")
    if not values:
        return (0,) * width
    if all(isinstance(v, str) for v in values):
        bits = [0] * width
        for name in values:
            if name not in schema.names:
                raise DataError(f"unknown label {name!r} at line {lineno}")
            bits[schema.names.index(name)] = 1
        return tuple(bits)
    if all(map(is_json_int, values)):
        if len(values) != width:
            raise DataError(
                f"label vector of length {len(values)} at line {lineno}, expected {width}"
            )
        if any(v not in (0, 1) for v in values):
            raise DataError(f"label vector entries must be 0/1 at line {lineno}")
        return tuple(values)
    raise DataError(f"'labels' mixes types at line {lineno}")


def _read_records(path: Path, schema: LabelSchema) -> Iterator[tuple[str, str, tuple[int, ...]]]:
    """(id, raw text, label bits) of every record in line order, validated.

    Yields each record as it is read, so a reader keeps only what it needs
    of it. Equal label vectors of one file are one shared tuple. Raises
    :class:`DataError` naming the file and the offending line on malformed
    records, unknown label names, or duplicate ids.
    """
    seen_ids: set[str] = set()
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    with open_text(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"malformed record at line {lineno}: {exc.msg}") from None
                if not isinstance(record, dict):
                    raise DataError(f"record at line {lineno} is not an object")
                if "id" not in record:
                    raise DataError(f"missing 'id' at line {lineno}")
                if not isinstance(record["id"], str):
                    raise DataError(f"'id' must be a string at line {lineno}")
                if "text" not in record or not isinstance(record["text"], str):
                    raise DataError(f"missing or non-string 'text' at line {lineno}")
                ident = record["id"]
                # ids are written one per line into tab-separated files, and
                # every id and text is written back as UTF-8
                if any(ch in ident for ch in "\t\r\n"):
                    raise DataError(f"'id' contains a tab or line break at line {lineno}")
                for name in ("id", "text"):
                    try:
                        record[name].encode("utf-8")
                    except UnicodeEncodeError:
                        raise DataError(f"{name!r} is not encodable as UTF-8 at line {lineno}") from None
                if ident in seen_ids:
                    raise DataError(f"duplicate id {ident!r} at line {lineno}")
                seen_ids.add(ident)
                labels = _labels_from_record(record, schema, lineno)
                yield ident, record["text"], shared.setdefault(labels, labels)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def load_dataset(path: str | Path, schema: LabelSchema, *, keep_raw: bool = True) -> Dataset:
    """Read a JSONL dataset, normalizing text and mapping labels to the schema.

    ``text`` holds the normalized, truncated form. With ``keep_raw`` the raw
    text is preserved on each instance for :func:`save_dataset`, and
    ``text`` is the ``raw_text`` object itself when normalizing changes
    nothing. Without it each raw string is dropped once it is normalized,
    and ``raw_text`` is the ``text`` object: a reader that never writes the
    dataset back holds each document once, where a raw text with an emoji
    takes 4 bytes per character. Equal label vectors are one shared tuple.
    Line order is preserved. Raises :class:`DataError` naming the file and
    the offending line on malformed records, unknown label names, or
    duplicate ids.
    """
    instances = tuple(
        Instance(id=ident, raw_text=raw if keep_raw else text, text=text, labels=labels)
        for ident, raw, labels in _read_records(Path(path), schema)
        for text in (preprocess(raw),)
    )
    return Dataset(schema=schema, instances=instances)


def load_labels(path: str | Path, schema: LabelSchema) -> GoldLabels:
    """Ids and label bits of a JSONL dataset, without normalizing its text.

    Equal label vectors are one shared tuple.

    Validates and fails exactly as :func:`load_dataset` does.
    """
    ids: list[str] = []
    labels: list[tuple[int, ...]] = []
    for ident, _, bits in _read_records(Path(path), schema):
        ids.append(ident)
        labels.append(bits)
    return GoldLabels(schema=schema, ids=tuple(ids), labels=tuple(labels))


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back to JSONL, preserving raw text and label names.

    A dataset loaded without its raw text writes its normalized text.

    Each line is built directly, with the C string encoder that
    ``json.dumps(record, ensure_ascii=False)`` applies to every str, and is
    byte for byte the line that call writes.
    """
    enc = encode_basestring
    if ds.schema.is_binary:
        tails = {0: ', "label": 0}\n', 1: ', "label": 1}\n'}
        lines = (
            '{"id": ' + enc(inst.id) + ', "text": ' + enc(inst.raw_text) + tails[inst.labels[0]]
            for inst in ds.instances
        )
    else:
        names = [enc(name) for name in ds.schema.names]
        lines = (
            '{"id": ' + enc(inst.id) + ', "text": ' + enc(inst.raw_text) + ', "labels": ['
            + ", ".join([name for name, bit in zip(names, inst.labels) if bit]) + "]}\n"
            for inst in ds.instances
        )
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# Statistics


def count_positives(patterns: Counter[tuple[int, ...]], width: int) -> list[int]:
    """Each label's number of positive rows, from ``Counter(ds.labels)``.

    Rows share few label vectors, so each distinct vector is read once and
    counts as many rows as carry it. This is the one per-label count: the
    corpus statistics, the loss weights and the splitters all take it.
    """
    positives = [0] * width
    for row, count in patterns.items():
        for l, bit in enumerate(row):
            if bit:
                positives[l] += count
    return positives


def summarize(ds: Dataset | GoldLabels) -> CorpusStats:
    """Per-label counts, positive rates, neg/pos ratios, and cardinality histogram.

    Reads only ``schema`` and ``labels``, so it takes a :class:`Dataset` or
    the :class:`GoldLabels` that :func:`load_labels` reads without normalizing.
    """
    patterns = Counter(ds.labels)
    if not patterns:
        raise DataError("cannot summarize an empty dataset")
    n = patterns.total()
    positives = count_positives(patterns, ds.schema.n_labels)
    cardinality: Counter[int] = Counter()
    for row, count in patterns.items():
        cardinality[sum(row)] += count
    return CorpusStats(
        n_instances=n,
        per_label_positive=positives,
        per_label_positive_pct=[p / n for p in positives],
        imbalance_ratio_per_label=[(n - p) / p if p else math.inf for p in positives],
        all_zero_rows=cardinality.get(0, 0),
        label_cardinality_histogram=dict(sorted(cardinality.items())),
        label_names=list(ds.schema.names),
    )
