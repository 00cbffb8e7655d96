import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from polarpipe.corpus import DataError
from polarpipe.probs import ProbabilityMatrix, load_probabilities, save_probabilities


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.RandomState(0)
    pm = ProbabilityMatrix(
        ids=tuple(f"r{i}" for i in range(25)),
        label_names=("a", "b", "c"),
        values=rng.rand(25, 3),
    )
    path = tmp_path / "p.probs"
    save_probabilities(pm, path)
    back = load_probabilities(path)
    assert back.ids == pm.ids
    assert back.label_names == pm.label_names
    assert np.array_equal(back.values, pm.values)  # repr reproduces float64

    # saving the loaded matrix yields identical bytes
    path2 = tmp_path / "p2.probs"
    save_probabilities(back, path2)
    assert path.read_bytes() == path2.read_bytes()


# both zeros, the smallest and the largest subnormal, and values next to 0 and 1
_EDGE_PROBS = [
    -0.0, 0.0, 5e-324, math.nextafter(2.2250738585072014e-308, 0.0),
    1e-15, 1 - 1e-15, math.nextafter(1.0, 0.0), 1.0,
]
_EDGE_ROWS = list(zip(_EDGE_PROBS[::2], _EDGE_PROBS[1::2]))
_cells = st.one_of(st.sampled_from(_EDGE_PROBS), st.floats(min_value=0.0, max_value=1.0))


@given(st.lists(st.tuples(_cells, _cells), min_size=1, max_size=20))
@example(_EDGE_ROWS)
def test_round_trip_property(tmp_path_factory, rows):
    pm = ProbabilityMatrix(
        ids=tuple(f"x{i}" for i in range(len(rows))), label_names=("a", "b"), values=rows
    )
    path = tmp_path_factory.getbasetemp() / "property.probs"
    save_probabilities(pm, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id\ta\tb"
    assert lines[1:] == [f"x{i}\t{a!r}\t{b!r}" for i, (a, b) in enumerate(rows)]
    back = load_probabilities(path)
    assert [[v.hex() for v in row] for row in back.values] == [[v.hex() for v in row] for row in rows]


def test_old_fixed_width_files_load_to_the_same_floats(tmp_path):
    # files written before the shortest form, with "%.17e", load bit for bit,
    # and saving what they load writes the shortest form
    rows = [*_EDGE_ROWS, (0.1, 1 / 3)]
    old = tmp_path / "old.probs"
    old.write_text(
        "id\ta\tb\n" + "".join(f"r{i}\t{a:.17e}\t{b:.17e}\n" for i, (a, b) in enumerate(rows)),
        encoding="utf-8",
    )
    pm = load_probabilities(old)
    assert [[v.hex() for v in row] for row in pm.values] == [[v.hex() for v in row] for row in rows]
    new = tmp_path / "new.probs"
    save_probabilities(pm, new)
    assert new.read_text(encoding="utf-8").splitlines()[1:] == [
        f"r{i}\t{a!r}\t{b!r}" for i, (a, b) in enumerate(rows)
    ]
    assert new.stat().st_size < old.stat().st_size


def test_validation():
    with pytest.raises(DataError, match="2-d"):
        ProbabilityMatrix(ids=("a",), label_names=("x",), values=np.zeros(3))
    with pytest.raises(DataError, match="2-d"):
        ProbabilityMatrix(ids=("a",), label_names=("x",), values=5)
    with pytest.raises(DataError, match="shape"):
        ProbabilityMatrix(ids=("a",), label_names=("x",), values=np.zeros((2, 1)))
    with pytest.raises(DataError, match="duplicate"):
        ProbabilityMatrix(ids=("a", "a"), label_names=("x",), values=np.zeros((2, 1)))
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        ProbabilityMatrix(ids=("a",), label_names=("x",), values=np.array([[1.5]]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_rejected(bad):
    with pytest.raises(DataError, match=r"\[0, 1\] and not be NaN"):
        ProbabilityMatrix(ids=("a", "b"), label_names=("x",), values=np.array([[0.5], [bad]]))


def test_load_names_path_of_nan_cell(tmp_path):
    p = tmp_path / "nan.probs"
    p.write_text("id\ta\nr1\t0.5\nr2\tnan\n", encoding="utf-8")
    with pytest.raises(DataError, match="NaN") as info:
        load_probabilities(p)
    assert str(p) in str(info.value)


def test_load_errors(tmp_path):
    p = tmp_path / "bad.probs"
    p.write_text("nope\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        load_probabilities(p)
    p.write_text("id\ta\nr1\t0.5\t0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_probabilities(p)
    p.write_text("id\ta\nr1\tabc\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-numeric"):
        load_probabilities(p)
    p.write_bytes(b"id\ta\nr1\t0.5\nr\xe9\t0.5\n")
    with pytest.raises(DataError, match="not valid UTF-8 at line 3") as info:
        load_probabilities(p)
    assert str(p) in str(info.value)


# each cell as the last value of a row, and what loading it gives: the loaded
# value's float.hex(), or the message of the DataError that names the file
_EDGE_CELLS = [
    ("nan", "probabilities must lie in [0, 1] and not be NaN"),
    ("inf", "probabilities must lie in [0, 1] and not be NaN"),
    ("-0.0", "-0x0.0p+0"),
    ("1e-400", "0x0.0p+0"),  # underflows to +0.0, which is accepted
    ("1.0000000000000002", "probabilities must lie in [0, 1] and not be NaN"),
]


@pytest.mark.parametrize("cell, expected", _EDGE_CELLS)
def test_edge_cells_load_or_refuse_as_before(tmp_path, cell, expected):
    path = tmp_path / "edge.probs"
    path.write_text(f"id\ta\tb\nr1\t0.5\t{cell}\n", encoding="utf-8")
    try:
        pm = load_probabilities(path)
    except DataError as exc:
        assert str(exc) == f"{path}: {expected}"
        return
    assert [v.hex() for v in pm.values[0]] == [(0.5).hex(), expected]
    assert all(type(v) is float for v in pm.values[0])
    # what loads is written back as its shortest round-trip decimal, sign of zero included
    save_probabilities(pm, path)
    assert path.read_text(encoding="utf-8").splitlines()[1] == "r1\t" + "\t".join(
        repr(v) for v in (0.5, float.fromhex(expected))
    )
