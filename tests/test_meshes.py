"""Mesh generators and the two interchange formats."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn import meshes
from dconn.cli import main
from dconn.errors import MeshFormatError
from dconn.levi_civita import MetricComplex
from dconn.meshes import (
    complex_to_dict,
    cone,
    dict_to_complex,
    flat_grid,
    icosahedron,
    icosphere,
    lengths_from_embedding,
    read_complex_json,
    read_mesh,
    read_off,
    tetrahedron,
    torus_grid,
    write_complex_json,
    write_off,
)


# -- generators -----------------------------------------------------------------


def test_icosahedron_is_regular_unit_and_outward():
    verts, faces = icosahedron()
    assert verts.shape == (12, 3)
    assert faces.shape == (20, 3)
    assert np.max(np.abs(np.linalg.norm(verts, axis=1) - 1.0)) < 1e-12
    lengths = {frozenset((int(a), int(b)))
               for tri in faces for a, b in zip(tri, np.roll(tri, 1))}
    assert len(lengths) == 30
    sides = [np.linalg.norm(verts[list(e)[0]] - verts[list(e)[1]]) for e in lengths]
    assert max(sides) - min(sides) < 1e-12
    for a, b, c in faces:
        n = np.cross(verts[b] - verts[a], verts[c] - verts[a])
        assert n @ (verts[a] + verts[b] + verts[c]) > 0.0


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_icosphere_counts_and_topology(level):
    verts, faces = icosphere(level)
    assert len(verts) == 10 * 4**level + 2
    assert len(faces) == 20 * 4**level
    assert np.max(np.abs(np.linalg.norm(verts, axis=1) - 1.0)) < 1e-12
    if level <= 2:
        K = MetricComplex.from_embedding(verts, faces)
        assert K.is_closed()
        assert K.euler_characteristic() == 2


def test_flat_grid_structure():
    n, tris, lengths = flat_grid(3, 2)
    assert n == 12
    assert len(tris) == 12
    values = sorted(set(round(l, 12) for l in lengths[:, 2]))
    assert values == [1.0, round(math.sqrt(2.0), 12)]
    K = MetricComplex.from_edge_lengths(n, tris, lengths)
    assert K.euler_characteristic() == 1


def test_cone_structure_and_validation():
    n, tris, lengths = cone(4, side=2.0)
    assert n == 5
    assert len(tris) == 4
    assert all(l == 2.0 for l in lengths[:, 2])
    with pytest.raises(ValueError):
        cone(2)


def test_torus_structure_and_validation():
    n, tris, lengths = torus_grid(4, 3)
    assert n == 12
    assert len(tris) == 24
    K = MetricComplex.from_edge_lengths(n, tris, lengths)
    assert K.is_closed()
    assert K.euler_characteristic() == 0
    with pytest.raises(ValueError):
        torus_grid(2, 5)
    with pytest.raises(ValueError):
        torus_grid(5, 2)


def test_tetrahedron_is_closed_and_regular():
    verts, faces = tetrahedron()
    K = MetricComplex.from_embedding(verts, faces)
    assert K.is_closed()
    assert K.euler_characteristic() == 2
    sides = [np.linalg.norm(verts[a] - verts[b])
             for a, b, c in faces for a, b in ((a, b), (b, c), (c, a))]
    assert max(sides) - min(sides) < 1e-12
    assert sides[0] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_lengths_from_embedding_matches_distances():
    verts, faces = icosahedron()
    lengths = lengths_from_embedding(verts, faces)
    assert len(lengths) == 30
    for a, b, l in lengths.tolist():
        assert a < b
        assert l == pytest.approx(np.linalg.norm(verts[int(a)] - verts[int(b)]), abs=1e-15)


# -- reference generators: per-cell loops over an edge-length dict ---------------------


def _key(a, b):
    return (a, b) if a < b else (b, a)


def _rows(lengths: dict) -> np.ndarray:
    return np.array([[a, b, l] for (a, b), l in sorted(lengths.items())], dtype=float)


def reference_outward(verts, faces):
    for f in faces:
        a, b, c = verts[f]
        if np.dot(np.cross(b - a, c - a), a + b + c) < 0.0:
            f[1], f[2] = f[2], f[1]
    return verts, faces


def reference_icosphere(level):
    verts, faces = icosahedron()
    verts = [v for v in verts]
    midpoint = {}

    def mid(i, j):
        key = _key(i, j)
        if key not in midpoint:
            p = verts[i] + verts[j]
            p /= np.linalg.norm(p)
            midpoint[key] = len(verts)
            verts.append(p)
        return midpoint[key]

    for _ in range(level):
        midpoint.clear()
        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = np.array(new_faces, dtype=int)
    return np.array(verts), faces


def reference_square_cells(n, m, vid):
    tris, lengths = [], {}
    for j in range(m):
        for i in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
            for e in ((a, b), (b, c), (c, d), (d, a)):
                lengths[_key(*e)] = 1.0
            lengths[_key(a, c)] = math.sqrt(2.0)
    return np.array(tris, dtype=int), _rows(lengths)


def reference_cone(k, side=1.0):
    tris = np.array([(0, i, i % k + 1) for i in range(1, k + 1)], dtype=int)
    lengths = {}
    for i in range(1, k + 1):
        lengths[_key(0, i)] = side
        lengths[_key(i, i % k + 1)] = side
    return k + 1, tris, _rows(lengths)


def reference_lengths_from_embedding(verts, triangles):
    lengths = {}
    for a, b, c in triangles:
        for i, j in ((a, b), (b, c), (c, a)):
            lengths[_key(int(i), int(j))] = float(np.linalg.norm(verts[j] - verts[i]))
    return _rows(lengths)


def assert_identical(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("generator", [icosahedron, tetrahedron])
def test_outward_matches_the_reference_loop(generator):
    verts, faces = generator()
    flipped = faces.copy()
    flipped[::2] = flipped[::2][:, [0, 2, 1]]
    assert_identical(meshes._outward(verts, flipped.copy()), (verts, faces))
    assert_identical(reference_outward(verts, flipped.copy()), (verts, faces))


@pytest.mark.parametrize("level", range(6))
def test_icosphere_matches_the_reference_loop(level):
    assert_identical(icosphere(level), reference_icosphere(level))


@pytest.mark.parametrize("n, m", [(1, 1), (3, 2), (4, 3), (7, 5)])
def test_flat_grid_matches_the_reference_loop(n, m):
    tris, rows = reference_square_cells(n, m, lambda i, j: i + (n + 1) * j)
    assert_identical(flat_grid(n, m), ((n + 1) * (m + 1), tris, rows))


@pytest.mark.parametrize("n, m", [(3, 3), (4, 3), (5, 4), (24, 24)])
def test_torus_grid_matches_the_reference_loop(n, m):
    tris, rows = reference_square_cells(n, m, lambda i, j: (i % n) + n * (j % m))
    assert_identical(torus_grid(n, m), (n * m, tris, rows))


@pytest.mark.parametrize("k", range(3, 13))
def test_cone_matches_the_reference_loop(k):
    assert_identical(cone(k), reference_cone(k))
    assert_identical(cone(k, 1.3), reference_cone(k, 1.3))


def test_lengths_from_embedding_matches_the_reference_loop():
    verts, faces = icosphere(2)
    assert_identical(lengths_from_embedding(verts, faces),
                     reference_lengths_from_embedding(verts, faces))


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_row_order_orientation_and_repeats_leave_the_metrics_alone(data):
    n, tris, rows = data.draw(st.sampled_from([cone(5, 1.3), flat_grid(3, 2), torus_grid(3, 4)]))
    edges = {tuple(e) for e in rows[:, :2].astype(int).tolist()}
    repeats = rows[data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=6))]
    unused = {_key(a, b): [a, b, l] for a, b, l in data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.floats(0.1, 10.0)), max_size=4))
        if _key(a, b) not in edges}
    listed = np.concatenate([rows, repeats, np.reshape(list(unused.values()), (-1, 3))])
    listed = listed[data.draw(st.permutations(range(len(listed))))]
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=len(listed), max_size=len(listed))))
    listed[flip, :2] = listed[flip][:, 1::-1]
    got = MetricComplex.from_edge_lengths(n, tris, listed).chart_metrics
    assert got.tobytes() == MetricComplex.from_edge_lengths(n, tris, rows).chart_metrics.tobytes()


# -- JSON format --------------------------------------------------------------------


def test_json_round_trip_is_byte_exact(tmp_path):
    n, tris, lengths = torus_grid(3, 3)
    path = tmp_path / "torus.json"
    write_complex_json(path, n, tris, lengths)
    raw = path.read_text()
    assert raw == json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n"
    # Parse, rebuild, re-serialize: identical bytes.
    K = read_complex_json(path)
    again = tmp_path / "torus2.json"
    rebuilt_lengths = np.column_stack([K.edges, K.lengths[K.edge_faces[:, 0], K.edge_local[:, 0]]])
    write_complex_json(again, K.vertex_count, K.triangles, rebuilt_lengths)
    assert again.read_text() == raw


def test_json_semantic_round_trip():
    n, tris, lengths = cone(5)
    K = dict_to_complex(complex_to_dict(n, tris, lengths))
    direct = MetricComplex.from_edge_lengths(n, tris, lengths)
    assert K.vertex_count == direct.vertex_count
    assert np.array_equal(K.triangles, direct.triangles)
    assert np.max(np.abs(K.chart_metrics - direct.chart_metrics)) < 1e-15


def test_json_rejects_unknown_format_and_junk(tmp_path):
    with pytest.raises(MeshFormatError):
        dict_to_complex({"format": "something-else"})
    with pytest.raises(MeshFormatError):
        dict_to_complex({"format": "dconn-complex", "vertices": 3})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MeshFormatError):
        read_complex_json(bad)


@pytest.mark.parametrize("field, bad", [
    ("vertices", 6.5), ("vertices", True),
    ("triangle", 3.6), ("triangle", 3.0), ("triangle", True),
    ("edge_end", 1.2), ("edge_end", "1"),
])
def test_json_rejects_indices_that_are_not_integers(field, bad):
    # int() would read vertex 3.6 as 3 and build a complex silently.
    data = complex_to_dict(*cone(5))
    if field == "vertices":
        data["vertices"] = bad
    elif field == "triangle":
        data["triangles"][0][2] = bad
    else:
        data["edge_lengths"][0][1] = bad
    with pytest.raises(MeshFormatError, match="must be JSON integers"):
        dict_to_complex(data)


@pytest.mark.parametrize("bad, message", [
    (True, "is not a JSON number"), ("1.5", "is not a JSON number"),
    (None, "is not a JSON number"), (-1.0, "is not positive and finite"),
    (0, "is not positive and finite"), (math.nan, "is not positive and finite"),
    (math.inf, "is not positive and finite"),
])
def test_json_rejects_lengths_that_are_not_positive_finite_numbers(bad, message):
    # float() would read true as 1.0 and "1.5" as 1.5; NaN and inf reached the
    # determinant with RuntimeWarnings, and -1.0 squared to a valid metric.
    data = complex_to_dict(*cone(5))
    data["edge_lengths"][3][2] = bad
    a, b, _ = data["edge_lengths"][3]
    with pytest.raises(MeshFormatError, match=re.escape(f"edge ({a}, {b}) length {bad!r} {message}")):
        dict_to_complex(data)


@pytest.mark.parametrize("end", [6, -1, 2**53 + 1, 10**20])
def test_json_spells_a_stray_end_as_given(end):
    data = complex_to_dict(*cone(5))
    data["edge_lengths"][2][1] = end
    a = data["edge_lengths"][2][0]
    with pytest.raises(MeshFormatError, match=re.escape(
            f"edge ({a}, {end}) ends must be vertex indices below 6")):
        dict_to_complex(data)


def test_json_names_a_length_whose_square_underflows():
    # Its square once reached the metric as 0 and the triangle was refused as
    # "not positive definite"; 1e-160 squares to a subnormal, which is not 0.
    data = complex_to_dict(*cone(5))
    data["edge_lengths"][0][2] = 1e-300
    with pytest.raises(MeshFormatError,
                       match=r"^edge \(0, 1\) length 1e-300 has no nonzero square$"):
        dict_to_complex(data)


def test_json_rejects_a_triangle_index_beyond_int64():
    # It once reached numpy: "malformed complex dictionary (Python int too large ...)".
    data = complex_to_dict(*cone(5))
    data["triangles"][0][2] = 10**20
    with pytest.raises(MeshFormatError, match="^triangle vertex index out of range$"):
        dict_to_complex(data)


def test_json_rejects_a_length_too_large_for_a_float():
    data = complex_to_dict(*cone(5))
    data["edge_lengths"][0][2] = 10**400
    with pytest.raises(MeshFormatError, match="malformed complex dictionary"):
        dict_to_complex(data)


def test_json_rejects_conflicting_duplicate_edges():
    data = complex_to_dict(*flat_grid(2, 2))
    a, b, length = data["edge_lengths"][0]
    # Identical repeats, in either orientation, build the same complex.
    same = dict(data, edge_lengths=data["edge_lengths"] + [[b, a, length], [a, b, length]])
    assert np.array_equal(dict_to_complex(same).chart_metrics, dict_to_complex(data).chart_metrics)
    for edge in ([b, a, 1.1], [a, b, 1.1]):
        conflicting = dict(data, edge_lengths=data["edge_lengths"] + [edge])
        with pytest.raises(MeshFormatError, match=re.escape(f"edge ({a}, {b}) is listed")):
            dict_to_complex(conflicting)


_RAGGED = "malformed complex dictionary (setting an array element with a sequence."
_SHAPE_REFUSALS = {
    # field, a function of the valid table, and the message, whole or (ending in ".") its start
    "triangle rows of 2": ("triangles", lambda t: [r[:2] for r in t],
                           "triangles must be an (m, 3) index array"),
    "triangle rows of 4": ("triangles", lambda t: [r + [0] for r in t],
                           "triangles must be an (m, 3) index array"),
    "a triangle row of 2": ("triangles", lambda t: t[:2] + [t[2][:2]] + t[3:], _RAGGED),
    "a triangle row of 4": ("triangles", lambda t: [t[0] + [4]] + t[1:], _RAGGED),
    "triangles as a string": ("triangles", lambda t: "0 1 2",
                              "triangle indices must be JSON integers"),
    "triangles as an empty object": ("triangles", lambda t: {}, "malformed complex dictionary "
                                     "(int() argument must be a string, a bytes-like object "
                                     "or a real number, not 'dict')"),
    "triangles as an object": ("triangles", lambda t: {"0": [0, 1, 2]},
                               "triangle indices must be JSON integers"),
    "no triangles": ("triangles", lambda t: [], "triangles must be an (m, 3) index array"),
    "edge rows of 2": ("edge_lengths", lambda e: [r[:2] for r in e], "malformed complex "
                       "dictionary (not enough values to unpack (expected 3, got 2))"),
    "edge rows of 4": ("edge_lengths", lambda e: [r + [1] for r in e], "malformed complex "
                       "dictionary (too many values to unpack (expected 3))"),
    "an edge row of 2": ("edge_lengths", lambda e: e[:3] + [e[3][:2]] + e[4:], "malformed "
                         "complex dictionary (not enough values to unpack (expected 3, got 2))"),
    "edge lengths as a string": ("edge_lengths", lambda e: "0 1 1.0", "malformed complex "
                                 "dictionary (not enough values to unpack (expected 3, got 1))"),
    "edge lengths as an empty object": ("edge_lengths", lambda e: {}, "malformed complex "
                                        "dictionary (float() argument must be a string or a "
                                        "real number, not 'dict')"),
    "edge lengths as an object": ("edge_lengths", lambda e: {"0": [0, 1, 1.0]}, "malformed "
                                  "complex dictionary (not enough values to unpack "
                                  "(expected 3, got 1))"),
    "no edge lengths": ("edge_lengths", lambda e: [],
                        "edge lengths must be an (E, 3) array of [a, b, length] rows"),
}


@pytest.mark.parametrize("case", _SHAPE_REFUSALS)
def test_json_refuses_tables_of_the_wrong_shape(case):
    # Each refusal keeps its message; numpy's own ragged-array message is
    # matched by its start only.
    field, change, message = _SHAPE_REFUSALS[case]
    data = complex_to_dict(*cone(5))
    data[field] = change(data[field])
    pattern = re.escape(message) + ("" if message.endswith(".") else "$")
    with pytest.raises(MeshFormatError, match="^" + pattern):
        dict_to_complex(data)


# -- OFF format -----------------------------------------------------------------------


def test_off_round_trip_is_exact(tmp_path):
    verts, faces = icosphere(1)
    path = tmp_path / "sphere.off"
    write_off(path, verts, faces)
    K = read_off(path)
    assert np.array_equal(K.embedding, verts)
    assert np.array_equal(K.triangles, faces)
    direct = MetricComplex.from_embedding(verts, faces)
    assert np.array_equal(K.chart_metrics, direct.chart_metrics)


def test_off_tolerates_comments_and_blank_lines(tmp_path):
    verts, faces = tetrahedron()
    path = tmp_path / "tet.off"
    write_off(path, verts, faces)
    noisy = tmp_path / "noisy.off"
    noisy.write_text("# a comment\n" + path.read_text().replace("\n", "\n\n", 3))
    K = read_mesh(noisy)
    assert np.array_equal(K.triangles, faces)


def test_off_rejects_malformed_files(tmp_path):
    missing = tmp_path / "h.off"
    missing.write_text("FOO\n3 1 0\n")
    with pytest.raises(MeshFormatError):
        read_off(missing)
    quad = tmp_path / "q.off"
    quad.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshFormatError):
        read_off(quad)
    short = tmp_path / "s.off"
    short.write_text("OFF\n5 1 0\n0 0 0\n")
    with pytest.raises(MeshFormatError):
        read_off(short)
    flat2d = tmp_path / "f.off"
    flat2d.write_text("OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 2\n")
    with pytest.raises(MeshFormatError):
        read_off(flat2d)
    stray_index = tmp_path / "i.off"
    stray_index.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n")
    with pytest.raises(MeshFormatError):
        read_off(stray_index)
    empty = tmp_path / "e.off"
    empty.write_text("OFF\n0 0 0\n")
    with pytest.raises(MeshFormatError):
        read_off(empty)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mesh": str(empty)}))
    assert main(["curvature", "--config", str(config)]) == 2


_TRIANGLE = "3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
_OFF_REFUSALS = {
    # the file's text, and the message after "<path>: ", whole or (ending in ".") its start
    "an empty file": ("", "missing OFF header"),
    "another header": ("FOO\n" + _TRIANGLE + "3 0 1 2\n", "missing OFF header"),
    "counts on the header line": ("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
                                  "missing OFF header"),
    "no counts": ("OFF\n# nothing\n", "malformed OFF file (list index out of range)"),
    "two counts": ("OFF\n3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "malformed OFF file "
                   "(not enough values to unpack (expected 3, got 2))"),
    "four counts": ("OFF\n3 1 0 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
                    "malformed OFF file (too many values to unpack (expected 3))"),
    "a negative vertex count": ("OFF\n-1 4 0\n",
                                "OFF header declares a negative vertex/face count"),
    "a negative face count": ("OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n",
                              "OFF header declares a negative vertex/face count"),
    "a count that is not an integer": ("OFF\n3 1.0 0\n", "malformed OFF file "
                                       "(invalid literal for int() with base 10: '1.0')"),
    "a vertex line of 2": ("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n",
                           "malformed OFF file (setting an array element with a sequence."),
    "a vertex line of 4": ("OFF\n3 1 0\n0 0 0\n1 0 0 1\n0 1 0\n3 0 1 2\n",
                           "malformed OFF file (setting an array element with a sequence."),
    "vertex lines of 2": ("OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 2\n",
                          "need vertices of three coordinates each"),
    "no vertices": ("OFF\n0 0 0\n", "need vertices of three coordinates each"),
    "a coordinate that is not a number": ("OFF\n" + _TRIANGLE.replace("1 0 0", "1 x 0") +
                                          "3 0 1 2\n", "malformed OFF file "
                                          "(could not convert string to float: 'x')"),
    "a non-finite coordinate": ("OFF\n" + _TRIANGLE.replace("1 0 0", "1 nan 0") + "3 0 1 2\n",
                                "vertex 1 has a non-finite coordinate"),
    "a missing vertex line": ("OFF\n5 1 0\n0 0 0\n",
                              "malformed OFF file (list index out of range)"),
    "missing vertex lines, one short": ("OFF\n5 0 0\n0 0 0\n1 0\n",
                                        "malformed OFF file (list index out of range)"),
    "a quad": ("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n",
               "face 0 is not a triangle"),
    "a face size that is not an integer": ("OFF\n" + _TRIANGLE + "3.0 0 1 2\n", "malformed OFF "
                                           "file (invalid literal for int() with base 10: '3.0')"),
    "an index that is not an integer": ("OFF\n" + _TRIANGLE + "3 0 1 2.0\n", "malformed OFF "
                                        "file (invalid literal for int() with base 10: '2.0')"),
    "a short face line after a good one": ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 1 2\n",
                                           "face 1 has fewer than three vertex indices"),
    "short face lines only": ("OFF\n" + _TRIANGLE + "3 0 1\n",
                              "triangles must be an (m, 3) index array"),
    "an index out of range": ("OFF\n" + _TRIANGLE + "3 0 1 5\n",
                              "triangle vertex index out of range"),
    "a missing face line": ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
                            "malformed OFF file (list index out of range)"),
    "a line after the faces": ("OFF\n" + _TRIANGLE + "3 0 1 2\n3 0 2 1\n",
                               "1 line(s) after the 3 vertices and 1 faces the header declares"),
}


@pytest.mark.parametrize("case", _OFF_REFUSALS)
def test_off_refusals_name_the_fault(tmp_path, case):
    # Each refusal keeps its message; numpy's own ragged-array message is
    # matched by its start only.
    text, message = _OFF_REFUSALS[case]
    path = tmp_path / "m.off"
    path.write_bytes(text.encode())
    names_file = not message.startswith(("vertex ", "triangle"))
    pattern = "^" + re.escape(f"{path}: " * names_file + message)
    with pytest.raises(MeshFormatError, match=pattern + ("" if message.endswith(".") else "$")):
        read_off(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_off_reads_through_comments_blank_lines_and_any_line_end(tmp_path, newline):
    verts, faces = tetrahedron()
    plain = tmp_path / "plain.off"
    write_off(plain, verts, faces)
    lines = plain.read_text().splitlines()
    # Comments on their own lines, after the header and after numbers; blank
    # and whitespace-only lines; a comment that ends at the line end.
    noisy_lines = ["# a comment", lines[0] + "  # the header", "", lines[1] + "#counts", "   \t"]
    noisy_lines += [line + " # a vertex" if i % 2 else line for i, line in enumerate(lines[2:6])]
    noisy_lines += ["#"] + lines[6:] + ["", "# the end"]
    noisy = tmp_path / "noisy.off"
    noisy.write_bytes(newline.join(noisy_lines).encode())
    K, want = read_off(noisy), read_off(plain)
    assert np.array_equal(K.embedding, want.embedding)
    assert np.array_equal(K.triangles, want.triangles)


def test_off_rejects_a_short_face_line_by_index(tmp_path):
    # After a good face, "3 1 3" once reached np.array as a ragged row and
    # raised numpy's ValueError.
    short = tmp_path / "s.off"
    short.write_text("OFF\n4 3 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n3 1 3\n3 2 1 3\n")
    with pytest.raises(MeshFormatError, match=re.escape(
            f"{short}: face 1 has fewer than three vertex indices")):
        read_off(short)
    # A face line may carry more than three indices (colours, say); only the first three count.
    coloured = tmp_path / "c.off"
    coloured.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 255 0 0\n")
    assert np.array_equal(read_off(coloured).triangles, [[0, 1, 2]])


def test_off_rejects_a_face_index_beyond_int64(tmp_path):
    # It once escaped as numpy's OverflowError, which named neither file nor face.
    big = tmp_path / "b.off"
    big.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n")
    with pytest.raises(MeshFormatError, match="^triangle vertex index out of range$"):
        read_off(big)


@pytest.mark.parametrize("tail, extra", [("3 0 2 1\n", 1), ("0 0 1\n# a comment\n7\n", 2)])
def test_off_rejects_content_after_the_declared_blocks(tmp_path, tail, extra):
    # An undercounted header once read part of the mesh and said nothing.
    path = tmp_path / "t.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n" + tail)
    with pytest.raises(MeshFormatError, match=re.escape(
            f"{path}: {extra} line(s) after the 3 vertices and 1 faces the header declares")):
        read_off(path)
    # Comments and blank lines after the faces are not content.
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n\n# the end\n")
    assert read_off(path).triangles.shape == (1, 3)


def test_read_mesh_dispatch(tmp_path):
    n, tris, lengths = cone(5)
    jpath = tmp_path / "cone.json"
    write_complex_json(jpath, n, tris, lengths)
    assert read_mesh(jpath).vertex_count == n
    verts, faces = tetrahedron()
    opath = tmp_path / "tet.off"
    write_off(opath, verts, faces)
    assert read_mesh(opath).vertex_count == 4
    stray = tmp_path / "mesh.obj"
    stray.write_text("whatever")
    with pytest.raises(MeshFormatError):
        read_mesh(stray)
    # The suffix is refused before the file is opened: a missing x.obj is no OSError.
    with pytest.raises(MeshFormatError, match=r"x\.obj: unknown mesh format '\.obj'"):
        read_mesh(tmp_path / "x.obj")


def assert_same_complex(a: MetricComplex, b: MetricComplex) -> None:
    assert vars(a).keys() == vars(b).keys()
    for name, value in vars(a).items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(value, vars(b)[name], err_msg=name)
        else:
            assert value == vars(b)[name], name


def test_read_mesh_returns_one_complex_per_suffix_and_text(tmp_path):
    jpath, opath = tmp_path / "cone.json", tmp_path / "tet.off"
    write_complex_json(jpath, *cone(5))
    write_off(opath, *tetrahedron())
    (tmp_path / "copy").mkdir()
    for path, fresh in ((jpath, read_complex_json), (opath, read_off)):
        K = read_mesh(path)
        assert read_mesh(path) is K
        # The same bytes at another path, under an upper-case suffix: the same complex.
        other = tmp_path / "copy" / (path.stem + path.suffix.upper())
        other.write_bytes(path.read_bytes())
        assert read_mesh(other) is K
        rebuilt = fresh(path)
        assert rebuilt is not K
        assert_same_complex(K, rebuilt)
    # One entry: the OFF read replaced the JSON one.
    again = read_mesh(jpath)
    assert again is not K and read_mesh(jpath) is again
    # The same text under the other suffix is parsed as that format.
    swapped = tmp_path / "cone.off"
    swapped.write_bytes(jpath.read_bytes())
    with pytest.raises(MeshFormatError, match="missing OFF header"):
        read_mesh(swapped)


def test_read_mesh_rebuilds_a_rewritten_file(tmp_path):
    jpath, opath = tmp_path / "mesh.json", tmp_path / "mesh.off"
    for path, fresh, write, before, after in (
            (jpath, read_complex_json, write_complex_json, cone(5), cone(6)),
            (opath, read_off, write_off, tetrahedron(), icosahedron())):
        write(path, *before)
        old = read_mesh(path)
        write(path, *after)
        K = read_mesh(path)
        assert K is not old and K.vertex_count != old.vertex_count
        assert_same_complex(K, fresh(path))


def test_read_mesh_never_keeps_a_refusal(tmp_path):
    good = tmp_path / "good.json"
    write_complex_json(good, *cone(5))
    data = complex_to_dict(*cone(5))
    data["edge_lengths"] = data["edge_lengths"][1:]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(data))
    sliver = tmp_path / "sliver.off"
    sliver.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n")
    # The complex builds, then the trailing line is refused, naming the file.
    trailing = tmp_path / "trailing.off"
    write_off(trailing, *tetrahedron())
    trailing.write_text(trailing.read_text() + "1 2 3\n")
    K = read_mesh(good)
    for bad, message in ((missing, r"missing edge length for \(0, 1\)"),
                         (sliver, "triangle 0 is a sliver"),
                         (trailing, rf"{re.escape(str(trailing))}: 1 line\(s\) after")):
        messages = []
        for _ in range(2):
            with pytest.raises(MeshFormatError, match=message) as refused:
                read_mesh(bad)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        assert read_mesh(good) is K
    # The same refused bytes at another path name that path.
    moved = tmp_path / "moved.off"
    moved.write_bytes(trailing.read_bytes())
    with pytest.raises(MeshFormatError, match=rf"{re.escape(str(moved))}: 1 line"):
        read_mesh(moved)
    # A good file read after a refusal still builds.
    other = tmp_path / "other.json"
    write_complex_json(other, *cone(6))
    assert read_mesh(other).vertex_count == 7
