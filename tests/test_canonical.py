"""The canonical JSON writer writes the bytes json.dumps writes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn.canonical import json_bytes
from dconn.cli import main

WRITER_PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def _plain(x):
    # The default json needs for numpy values: arrays and scalars as tolist().
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def reference(value) -> bytes:
    return (json.dumps(value, sort_keys=True, indent=2, default=_plain) + "\n").encode()


SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 0.1,
                                  math.pi, 1.7976931348623157e308, math.nan, math.inf,
                                  -math.inf])
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), SPECIAL_FLOATS)
# Quotes, backslashes, controls, non-ASCII, astral and separator code points.
TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé \U0001f600'),
                         st.characters()), max_size=8)
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))
NUMPY_ARRAYS = st.one_of(
    st.lists(FLOATS, max_size=6).map(np.array),
    st.lists(st.lists(FLOATS, min_size=3, max_size=3), max_size=4).map(
        lambda rows: np.array(rows).reshape(len(rows), 3)),
    st.lists(st.integers(-2**31, 2**31), max_size=4).map(lambda xs: np.array(xs, dtype=np.int64)))
SCALARS = st.one_of(FLOATS, st.booleans(), st.none(), st.integers(-2**200, 2**200), TEXT,
                    NUMPY_SCALARS)
# Runs of floats take the writer's joined path; a float run broken by another
# value, or by a nan or inf, takes the per-value path.
FLOAT_RUNS = st.one_of(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
                       st.lists(FLOATS, min_size=1))
VALUES = st.recursive(
    st.one_of(SCALARS, NUMPY_ARRAYS, FLOAT_RUNS),
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=30)


@WRITER_PROPERTY
@given(VALUES)
def test_writer_bytes_equal_json_dumps(value):
    assert json_bytes(value) == reference(value)


# Row tables: equal-width rows of exact ints and finite floats take the
# writer's one-pass path; any other entry sends the table value by value.
NUMBERS = st.one_of(st.integers(-2**70, 2**70), st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 1e16, -1e16, 10**30]))
ODD_ENTRIES = st.one_of(st.sampled_from([True, False, None, "1.5", math.nan, math.inf, -math.inf,
                                         np.float64(0.5), np.int64(3)]),
                        st.lists(NUMBERS, max_size=2), NUMBERS.map(lambda x: np.array([x])))


@st.composite
def row_tables(draw):
    width = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(NUMBERS, min_size=width, max_size=width), max_size=6))
    if rows and draw(st.booleans()):  # one odd entry, or one row of another width
        i = draw(st.integers(0, len(rows) - 1))
        if width and draw(st.booleans()):
            rows[i][draw(st.integers(0, width - 1))] = draw(ODD_ENTRIES)
        else:
            rows[i] = draw(st.lists(NUMBERS, max_size=5))
    return draw(st.sampled_from([rows, [tuple(row) for row in rows], {"table": rows}]))


ROW_TABLES = [
    [[0, 1.5], [2, -0.0], [3, 5e-324]],  # curvature per_vertex rows
    [[1.0, 2.0], [3.0, 4.0]],  # a matrix
    [[0, 1, 2], [1, 2, 3]],  # triangles
    [[0, 1, 1e16], [2, 10**30, 0.1]],  # edge rows, a big int
    [[], []], [[1.0], []], [[1.0, 2.0], [3.0]],  # empty and ragged rows
    [[1.0, math.nan], [1.0, 2.0]], [[math.inf, 1.0]], [[-math.inf]],
    [[True, 1.0]], [[None, 1.0]], [["a", 1.0]], [[[1.0], 2.0]], [[1.0, {"a": 1}]],
    [[np.float64(1.5), 2.0]], [[np.array([1.0]), 2.0]], [np.array([1.0, 2.0]), [3.0, 4.0]],
    np.arange(6.0).reshape(3, 2), np.arange(6).reshape(2, 3),
    [(1, 2.5), [3, 4.5]], [[1, 2], {"a": 1}], [{1: 2.0}, {3: 4.0}], [1, 2.5, 10**20, -0.0],
]


@pytest.mark.parametrize("table", ROW_TABLES, ids=range(len(ROW_TABLES)))
def test_writer_bytes_equal_json_dumps_on_row_tables(table):
    assert json_bytes(table) == reference(table)
    assert json_bytes({"rows": table, "n": 1}) == reference({"rows": table, "n": 1})


@WRITER_PROPERTY
@given(row_tables())
def test_writer_bytes_equal_json_dumps_on_drawn_row_tables(table):
    assert json_bytes(table) == reference(table)


@WRITER_PROPERTY
@given(st.dictionaries(st.one_of(TEXT, FLOATS, st.integers(-2**70, 2**70), st.booleans(),
                                 st.none()), st.integers(), max_size=1))
def test_writer_spells_non_string_keys_as_json_does(value):
    # One key per dict: keys of mixed types do not sort, in json or here.
    assert json_bytes(value) == reference(value)


def test_writer_refuses_what_json_refuses():
    for value, message in ((object(), "object is not JSON serializable"),
                           ({(1, 2): 0}, "keys must be str, int, float, bool or None, not tuple"),
                           ([[1, 2.0], [3, object()]], "object is not JSON serializable"),
                           ([[1.0, {1, 2}]], "set is not JSON serializable")):
        for write in (json_bytes, reference):
            try:
                write(value)
            except TypeError as exc:
                assert str(exc) == message
            else:
                raise AssertionError(f"{write.__name__} wrote {value!r}")


def test_out_file_bytes_equal_stdout(tmp_path, capsysbinary):
    for command, config in (("decompose", {"connection": "mechanical:se3_coupled", "group": "SE3"}),
                            ("order", {"candidate": "cayley:so3_mechanical",
                                       "reference": "exponentiated:so3_mechanical",
                                       "directions": 4})):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"{command}.report.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert main([command, "--config", str(cfg)]) == 0
        written = out.read_bytes()
        assert capsysbinary.readouterr().out == written
        assert written == reference(json.loads(written))
