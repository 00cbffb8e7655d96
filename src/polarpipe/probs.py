"""Per-instance probability matrices and their on-disk TSV form.

Each probability is written as its shortest round-trip decimal, ``repr``
of the float: the fewest digits that ``float`` reads back to the same
float64, so a file saved and reloaded compares bit-identical. Any float
literal loads, so files in an older, longer form load to the same values.
Values are Python floats (IEEE float64), so this module never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .corpus import DataError, open_text


def check_unit_interval(values, what: str) -> None:
    """Reject any value that is not a number in [0, 1], NaN included."""
    if not all(0.0 <= v <= 1.0 for v in values):
        raise DataError(f"{what} must lie in [0, 1] and not be NaN")


def _float_row(row) -> tuple[float, ...]:
    try:
        return tuple(map(float, row))
    except TypeError:
        raise DataError("probability matrix must be 2-d") from None


@dataclass(frozen=True)
class ProbabilityMatrix:
    ids: tuple[str, ...]
    label_names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]  # one row of n_labels floats per instance

    def __post_init__(self):
        # ``values`` may be an iterator that computes its rows as they are
        # drawn, so only a TypeError of ``iter`` or of one row's conversion
        # means a bad shape
        try:
            rows = iter(self.values)
        except TypeError:
            raise DataError("probability matrix must be 2-d") from None
        values = tuple(map(_float_row, rows))
        width = len(self.label_names)
        if len(values) != len(self.ids) or any(len(row) != width for row in values):
            raise DataError(
                f"probability rows do not match the shape {len(self.ids)} ids x {width} labels"
            )
        if len(set(self.ids)) != len(self.ids):
            raise DataError("duplicate ids in probability matrix")
        check_unit_interval(chain.from_iterable(values), "probabilities")
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
    line = "%s" + "\t%r" * pm.n_labels + "\n"  # %r of a float: its shortest round-trip decimal
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("id\t" + "\t".join(pm.label_names) + "\n")
        fh.writelines(line % (ident, *row) for ident, row in zip(pm.ids, pm.values))


def load_probabilities(path: str | Path) -> ProbabilityMatrix:
    path = Path(path)
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        columns = header.split("\t")
        if len(columns) < 2 or columns[0] != "id":
            raise DataError(f"{path}: bad probability file header")
        label_names = tuple(columns[1:])
        ids: list[str] = []
        rows: list[tuple[float, ...]] = []
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
                rows.append(tuple(map(float, cells[1:])))
            except ValueError:
                raise DataError(f"{path}: non-numeric probability at line {lineno}") from None
    try:
        return ProbabilityMatrix(ids=tuple(ids), label_names=label_names, values=rows)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
