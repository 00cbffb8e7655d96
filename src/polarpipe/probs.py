"""Per-instance probability matrices and their on-disk TSV form.

Probabilities are written with 17 significant digits, enough for an exact
float64 round-trip, so a file saved and reloaded compares bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import DataError, open_text


def check_unit_interval(values, what: str) -> None:
    """Reject any value that is not a finite number in [0, 1], NaN included."""
    values = np.asarray(values, dtype=np.float64)
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise DataError(f"{what} must lie in [0, 1] and not be NaN")


@dataclass(frozen=True)
class ProbabilityMatrix:
    ids: tuple[str, ...]
    label_names: tuple[str, ...]
    values: np.ndarray  # float64, shape (n_instances, n_labels)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"probability matrix must be 2-d, got shape {values.shape}")
        if values.shape != (len(self.ids), len(self.label_names)):
            raise DataError(
                f"shape {values.shape} does not match {len(self.ids)} ids x "
                f"{len(self.label_names)} labels"
            )
        if len(set(self.ids)) != len(self.ids):
            raise DataError("duplicate ids in probability matrix")
        check_unit_interval(values, "probabilities")
        object.__setattr__(self, "values", values)

    @property
    def n_instances(self) -> int:
        return len(self.ids)

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    def row_index(self) -> dict[str, int]:
        return {ident: i for i, ident in enumerate(self.ids)}


def save_probabilities(pm: ProbabilityMatrix, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("id\t" + "\t".join(pm.label_names) + "\n")
        for ident, row in zip(pm.ids, pm.values):
            cells = "\t".join("%.17e" % v for v in row)
            fh.write(f"{ident}\t{cells}\n")


def load_probabilities(path: str | Path) -> ProbabilityMatrix:
    path = Path(path)
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        columns = header.split("\t")
        if len(columns) < 2 or columns[0] != "id":
            raise DataError(f"{path}: bad probability file header")
        label_names = tuple(columns[1:])
        ids: list[str] = []
        rows: list[list[float]] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != len(columns):
                raise DataError(
                    f"{path}: line {lineno} has {len(cells)} fields, expected {len(columns)}"
                )
            ids.append(cells[0])
            try:
                rows.append([float(c) for c in cells[1:]])
            except ValueError:
                raise DataError(f"{path}: non-numeric probability at line {lineno}") from None
    values = (
        np.array(rows, dtype=np.float64)
        if rows
        else np.zeros((0, len(label_names)), dtype=np.float64)
    )
    try:
        return ProbabilityMatrix(ids=tuple(ids), label_names=label_names, values=values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
