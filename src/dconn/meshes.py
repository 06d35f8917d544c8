"""Mesh fixtures and file formats for metric complexes.

Two interchange formats are supported:

* OFF triangle meshes (embedded in R^3; metrics pulled back from the
  embedding);
* a JSON abstract-complex format with keys ``format``, ``vertices``
  (count), ``triangles`` and ``edge_lengths``, the [a, b, length] rows that
  ``MetricComplex.from_edge_lengths`` takes; serialization is canonical so a
  load/save round trip is bit-exact.

Both are read as bytes decoded as UTF-8 (``canonical.read_text``), and a
file that is not UTF-8 is a MeshFormatError naming it; both are written by
``canonical.write_file``.  Neither reader runs Python code per line or per
row: ``read_off`` converts each block of tokens with one ``float`` or
``int`` pass, and ``dict_to_complex`` checks each JSON type of a complex
once, by C-level passes over whole tables, and hands
``MetricComplex.from_edge_lengths`` an int triangle array and a float edge
table (kept as given where a refusal would spell one of its values).

``read_mesh`` shares one build between reads of the same mesh: it keeps one
entry, the complex its last successful read built, keyed by the file's
lower-cased suffix and its exact text, and a read with an equal key returns
that complex, the same object, without parsing or building.  The file is
read once per call, so the key and the complex come from the same bytes.  A
read that raises is never kept.  ``read_off`` and ``read_complex_json``
always build afresh.

Generators cover the standard test surfaces: subdivided icospheres, flat
grids, cones of equilateral triangles, flat tori and the regular
tetrahedron boundary, built by index arithmetic; the abstract ones return
(vertex count, triangles, edge-length rows), one sorted row per edge, a < b.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import canonical
from .errors import BoundaryHingeError, MeshFormatError
from .levi_civita import MetricComplex
from .lie_group import _norms

JSON_FORMAT_NAME = "dconn-complex"
# Largest vertex count a dconn-complex may declare (a level-8 icosphere has 655 362).
MAX_VERTICES = 10_000_000
# An OFF comment, from # to the end of its line: the line ends are str.splitlines'.
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


# -- OFF -----------------------------------------------------------------


def read_off(path) -> MetricComplex:
    """Read an OFF triangle mesh; metrics come from the embedding.

    After ``#`` comments and blank lines, the file must hold the header, the
    declared vertex lines and the declared face lines, and nothing more.
    Each block is read by C-level ``float`` and ``int`` passes over its
    tokens, and checked block by block: vertex numbers, vertex line widths,
    face sizes, face indices, then the missing lines.
    """
    return _parse_off(path, _read_text(path))


def _parse_off(path, text: str) -> MetricComplex:
    """The complex of an OFF file's text; refusals name ``path``."""
    text = _COMMENT.sub("", text)
    lines = list(filter(None, map(str.split, text.splitlines())))
    if not lines or lines[0] != ["OFF"]:
        raise MeshFormatError(f"{path}: missing OFF header")
    try:
        nv, nf, _ = map(int, lines[1])
        if nv < 0 or nf < 0:
            raise MeshFormatError(f"{path}: OFF header declares a negative vertex/face count")
        body = lines[2:]
        rows, face_rows = body[:nv], body[nv:nv + nf]
        coords = list(map(float, chain.from_iterable(rows)))
        if len(rows) < nv:
            raise IndexError("list index out of range")
        widths = set(map(len, rows))
        if len(widths) > 1:
            np.array(rows)  # raises numpy's ValueError for lines of unequal length
        sizes = list(map(int, map(itemgetter(0), face_rows)))
        if sizes.count(3) != len(sizes):
            i = next(i for i, size in enumerate(sizes) if size != 3)
            raise MeshFormatError(f"{path}: face {i} is not a triangle")
        # Only a face line's first three indices count; more may follow (colours, say).
        faces = list(map(itemgetter(slice(1, 4)), face_rows))
        indices = list(map(int, chain.from_iterable(faces)))
        if len(face_rows) < nf:
            raise IndexError("list index out of range")
    except (IndexError, ValueError) as exc:
        raise MeshFormatError(f"{path}: malformed OFF file ({exc})") from exc
    if widths != {3}:
        raise MeshFormatError(f"{path}: need vertices of three coordinates each")
    face_widths = set(map(len, faces))
    if len(face_widths) > 1:
        i = next(i for i, face in enumerate(faces) if len(face) < 3)
        raise MeshFormatError(f"{path}: face {i} has fewer than three vertex indices")
    tris = _index_table(indices) if face_widths == {3} else indices
    K = MetricComplex.from_embedding(np.array(coords).reshape(-1, 3), tris)
    # Refused last, so that a file with another fault keeps that fault's message.
    if len(body) > nv + nf:
        raise MeshFormatError(f"{path}: {len(body) - nv - nf} line(s) after the {nv} vertices "
                              f"and {nf} faces the header declares")
    return K


def write_off(path, vertices: np.ndarray, triangles: np.ndarray) -> None:
    out = ["OFF", f"{len(vertices)} {len(triangles)} 0"]
    for v in np.asarray(vertices, dtype=float):
        out.append(" ".join(repr(float(c)) for c in v))
    for t in np.asarray(triangles, dtype=int):
        out.append("3 " + " ".join(str(int(i)) for i in t))
    canonical.write_file(path, ("\n".join(out) + "\n").encode())


# -- JSON abstract complexes ----------------------------------------------


def complex_to_dict(vertex_count: int, triangles, edge_lengths) -> dict:
    return {
        "format": JSON_FORMAT_NAME,
        "vertices": int(vertex_count),
        "triangles": np.asarray(triangles, dtype=int).tolist(),
        "edge_lengths": [[int(a), int(b), l]
                         for a, b, l in np.asarray(edge_lengths, dtype=float).tolist()],
    }


def _index_table(flat: list):
    """A flat list of vertex indices as an (m, 3) int array, or the list itself if
    an index does not fit int64, for the complex to refuse as out of range."""
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        return flat


def _triangle_table(triangles):
    """The triangles as an (m, 3) int array.

    A table whose rows are not all of three entries is returned as given, for
    ``MetricComplex.from_edge_lengths`` to refuse by its shape.
    """
    flat = list(chain.from_iterable(triangles))  # a row that is not iterable raises TypeError
    # JSON integers only: int() would truncate a float index silently (bool is not int).
    if not set(map(type, flat)) <= {int}:
        raise MeshFormatError("triangle indices must be JSON integers")
    if set(map(len, triangles)) != {3}:
        return triangles
    return _index_table(flat)


def _edge_table(edges, vertex_count: int):
    """The [a, b, length] rows as an (E, 3) float array, or as an object array of
    their JSON values when a refusal may spell one of them: a float spells as
    given only a float length of a row whose ends are vertex indices.  An empty
    table is returned as given."""
    try:
        widths = set(map(len, edges))
    except TypeError:  # a row, or the table, that has no length
        widths = None
    if widths != {3}:
        for _a, _b, _length in edges:  # the first row that is not three values raises
            pass
        return edges
    a, b, lengths = zip(*edges)
    ends = a + b
    if not set(map(type, ends)) <= {int}:
        raise MeshFormatError("edge_lengths ends must be JSON integers")
    # float() would read true as 1.0 and "1.5" as 1.5.
    kinds = set(map(type, lengths))
    if not kinds <= {int, float}:
        i = next(i for i, x in enumerate(lengths) if type(x) not in (int, float))
        raise MeshFormatError(f"edge ({a[i]}, {b[i]}) length {lengths[i]!r} is not a JSON number")
    if kinds == {float}:
        try:
            index = np.array(ends, dtype=np.int64)
        except OverflowError:  # an end beyond int64
            index = None
        if index is not None and index.min() >= 0 and index.max() < vertex_count:
            return np.concatenate((index, lengths)).reshape(3, -1).T
    return np.array((a, b, lengths), dtype=object).T


def dict_to_complex(data: dict) -> MetricComplex:
    """Build a complex from a dconn-complex dictionary; ``MetricComplex.from_edge_lengths``
    checks the values of its tables.  Every refusal is a MeshFormatError."""
    if not isinstance(data, dict):
        raise MeshFormatError(f"a dconn-complex must be a JSON object, not {type(data).__name__}")
    if data.get("format") != JSON_FORMAT_NAME:
        raise MeshFormatError(f"unknown complex format {data.get('format')!r}")
    try:
        vertex_count, triangles, edges = data["vertices"], data["triangles"], data["edge_lengths"]
        if type(vertex_count) is not int:
            raise MeshFormatError("the vertex count must be JSON integers")
        if vertex_count > MAX_VERTICES:
            raise MeshFormatError(f"'vertices' must be at most {MAX_VERTICES}, got {vertex_count}")
        tris = _triangle_table(triangles)
        return MetricComplex.from_edge_lengths(vertex_count, tris,
                                               _edge_table(edges, vertex_count))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MeshFormatError(f"malformed complex dictionary ({exc})") from exc


def write_complex_json(path, vertex_count: int, triangles, edge_lengths) -> None:
    data = complex_to_dict(vertex_count, triangles, edge_lengths)
    canonical.write_file(path, canonical.json_bytes(data))


def _read_text(path) -> str:
    """A mesh file's text; bytes that are not UTF-8 are refused, naming the file."""
    try:
        return canonical.read_text(path)
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def read_complex_json(path) -> MetricComplex:
    return _parse_complex_json(path, _read_text(path))


def _parse_complex_json(path, text: str) -> MetricComplex:
    """The complex of a dconn-complex file's text; refusals name ``path``."""
    try:
        data = json.loads(text)
    # json.loads recurses once per nesting level, so a deep enough file exhausts the stack.
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MeshFormatError(f"{path}: invalid JSON ({exc})") from exc
    return dict_to_complex(data)


_PARSERS = {".off": _parse_off, ".json": _parse_complex_json}
# The last complex read_mesh built, as ((suffix, text), complex); None before the first.
_last_read: tuple[tuple[str, str], MetricComplex] | None = None


def read_mesh(path) -> MetricComplex:
    """Dispatch on file suffix: .off or .json.

    The file is read once, and its lower-cased suffix and exact text are the
    key of a one-entry memo: a read whose key equals the last successful
    read's returns that read's complex, the same object, from any path.  Any
    other read builds the complex from the text it read and replaces the
    entry.  A read that raises leaves the entry as it was, so every refusal
    is raised again on each read.  The complex's tables are read-only, so
    the callers that share it cannot change it.
    """
    global _last_read
    suffix = Path(path).suffix.lower()
    parse = _PARSERS.get(suffix)
    if parse is None:
        raise MeshFormatError(f"{path}: unknown mesh format {suffix!r}")
    key = (suffix, _read_text(path))
    last = _last_read
    if last is not None and last[0] == key:
        return last[1]
    K = parse(path, key[1])
    _last_read = key, K
    return K


def _half_edges(faces: np.ndarray) -> np.ndarray:
    """(3 F, 2) vertex pairs ab, bc, ca of each face, face by face."""
    return np.stack([faces, np.roll(faces, -1, axis=1)], axis=2).reshape(-1, 2)


def _edge_rows(pairs: np.ndarray, lengths) -> np.ndarray:
    """Sorted [a, b, length] rows, a < b, of the distinct edges among vertex pairs."""
    base = pairs.max(initial=0) + 1
    keys, first = np.unique(np.sort(pairs, axis=1) @ [base, 1], return_index=True)
    return np.column_stack([*np.divmod(keys, base), np.broadcast_to(lengths, len(pairs))[first]])


def lengths_from_embedding(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Edge-length rows of an embedded mesh."""
    verts = np.asarray(vertices, dtype=float)
    pairs = _half_edges(np.asarray(triangles, dtype=int))
    return _edge_rows(pairs, _norms(verts[pairs[:, 1]] - verts[pairs[:, 0]]))


# -- generators ------------------------------------------------------------


def _outward(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orient each face of a closed surface around the origin outward, in place."""
    a, b, c = verts[faces].transpose(1, 0, 2)
    inward = (np.cross(b - a, c - a) * (a + b + c)).sum(axis=1) < 0.0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return verts, faces


def _square_cells(n: int, m: int, vid) -> tuple[np.ndarray, np.ndarray]:
    """Triangles (a, b, c) and (a, c, d) of each unit cell of an n x m grid, row by
    row, and their edge-length rows.  ``vid(i, j)`` numbers the corners; sides
    have length 1 and the diagonal a -> c has length sqrt(2)."""
    j, i = np.divmod(np.arange(n * m), n)
    a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    pairs = np.stack([a, b, b, c, c, d, d, a, a, c], axis=1).reshape(-1, 2)
    return tris, _edge_rows(pairs, np.tile([1.0, 1.0, 1.0, 1.0, math.sqrt(2.0)], n * m))


def icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """Unit icosahedron with outward-oriented faces."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = np.array(raw, dtype=float)
    verts /= np.linalg.norm(verts[0])
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=int,
    )
    return _outward(verts, faces)


def icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Icosahedron subdivided ``level`` times, projected to the unit sphere; each
    level numbers the edge midpoints in the order the faces' edges ab, bc, ca reach them."""
    verts, faces = icosahedron()
    for _ in range(level):
        pairs = _half_edges(faces)
        keys = np.sort(pairs, axis=1) @ [len(verts), 1]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        mids = len(verts) + np.argsort(np.argsort(first))[inverse].reshape(-1, 3)
        p = verts[pairs[np.sort(first)]].sum(axis=1)
        verts = np.concatenate([verts, p / _norms(p)[:, None]])
        (a, b, c), (ab, bc, ca) = faces.T, mids.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return verts, faces


def flat_grid(nx: int, ny: int) -> tuple[int, np.ndarray, np.ndarray]:
    """A unit-square grid split into triangles, as an abstract complex."""
    return (nx + 1) * (ny + 1), *_square_cells(nx, ny, lambda i, j: i + (nx + 1) * j)


def cone(k: int, side: float = 1.0) -> tuple[int, np.ndarray, np.ndarray]:
    """k equilateral triangles fanned around an apex (abstract complex).

    The apex (vertex 0) is interior with angle defect 2 pi - k pi / 3.
    """
    if k < 3:
        raise ValueError("cone needs at least three triangles")
    ring = np.arange(1, k + 1)
    tris = np.stack([np.zeros_like(ring), ring, ring % k + 1], axis=1)
    return k + 1, tris, _edge_rows(np.concatenate([tris[:, :2], tris[:, 1:]]), float(side))


def torus_grid(n: int, m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """A flat n x m torus from a unit grid with wraparound (abstract complex)."""
    if n < 3 or m < 3:
        raise ValueError("torus grid needs n, m >= 3")
    return n * m, *_square_cells(n, m, lambda i, j: (i % n) + n * (j % m))


def tetrahedron() -> tuple[np.ndarray, np.ndarray]:
    """Regular tetrahedron boundary, outward oriented, edge length 2 sqrt(2)."""
    verts = np.array(
        [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]
    )
    faces = np.array([(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)], dtype=int)
    return _outward(verts, faces)


# -- latitude loops on embedded meshes -------------------------------------


def latitude_loop(K: MetricComplex, colatitude: float) -> tuple[list[int], list[int]]:
    """The closed dual loop of triangles straddling z = cos(colatitude).

    Returns (loop, enclosed): the loop is a closed triangle-index path
    (first == last) winding counterclockwise around the +z axis, and
    ``enclosed`` lists the vertices above the cut.  Requires an embedded
    complex (vertices with z coordinates).
    """
    if K.embedding is None or K.embedding.shape[1] != 3:
        raise MeshFormatError("latitude loops need a 3D embedded complex")
    z_cut = math.cos(colatitude)
    above = K.embedding[:, 2] > z_cut
    enclosed = np.flatnonzero(above).tolist()
    if not enclosed or len(enclosed) == K.vertex_count:
        raise BoundaryHingeError("latitude circle does not separate the mesh")

    cut = (K.edge_faces[:, 1] >= 0) & (above[K.edges[:, 0]] != above[K.edges[:, 1]])
    cut_count = np.bincount(K.edge_faces[cut].ravel(), minlength=len(K.triangles))
    bad = np.flatnonzero((cut_count != 0) & (cut_count != 2))
    if bad.size:
        raise MeshFormatError(f"triangle {bad[0]} has {cut_count[bad[0]]} cut edges; bad band")
    band = np.flatnonzero(cut_count)
    # Each triangle's cut edges first, in key order (edge ids sort like keys).
    exits = np.sort(np.where(cut[K.face_edges], K.face_edges, len(K.edges)), axis=1).tolist()
    cofaces = K.edge_faces.tolist()
    start = int(band[0])
    loop, edge, t = [start], -1, start
    while True:
        # Leave through the cut edge not used to enter (the lower one at the start).
        first, second, _ = exits[t]
        edge = first if first != edge else second
        lo, hi = cofaces[edge]
        t = hi if lo == t else lo
        if t == start:
            break
        loop.append(t)
        if len(loop) > len(band):
            raise MeshFormatError("latitude band is not a single cycle")
    if len(loop) != len(band):
        raise MeshFormatError("latitude band has more than one cycle")
    loop.append(start)

    # Orient the walk counterclockwise as seen from +z.
    centers = K.embedding[K.triangles[loop[:-1]]].mean(axis=1)
    angles = np.arctan2(centers[:, 1], centers[:, 0])
    winding = np.angle(np.exp(1j * np.diff(np.concatenate([angles, angles[:1]])))).sum()
    if winding < 0.0:
        loop = loop[::-1]
    return loop, enclosed
