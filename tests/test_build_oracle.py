"""The edge table and the frames of a MetricComplex against reference builds.

``reference_adjacency`` and ``reference_frames`` are the earlier, per-step
constructions of the same tables: two ``np.unique`` calls and a
``np.maximum.at`` for the edge table, a lexsort of (neighbour, edge) pairs
and a ``deque`` for the breadth-first search.  The complex must match them
array for array, and refuse what they refuse with the same message, on
meshes whose vertex labels, triangle order and vertex rotations are all
drawn.  Hypothesis runs derandomized, so every run draws the same examples.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn.errors import MeshFormatError
from dconn.levi_civita import MetricComplex, _edge_directions
from dconn.meshes import cone, flat_grid, icosphere, lengths_from_embedding, torus_grid

ORACLE = settings(derandomize=True, max_examples=60, deadline=None, database=None)
TABLES = ("edges", "face_edges", "edge_faces", "edge_local", "star_ptr", "star_corners",
          "interior_vertices", "star_fans")


def reference_adjacency(tris: np.ndarray, n: int) -> dict:
    """The edge table built with np.unique, np.maximum.at and np.roll."""
    tails, heads = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    h = np.arange(tails.size)
    if (tails == heads).any():
        raise MeshFormatError(f"triangle {h[tails == heads][0] // 3} has repeated vertices")
    directed, uses = np.unique(tails * n + heads, return_counts=True)
    if (uses > 1).any():
        raise MeshFormatError(
            f"directed edge {divmod(int(directed[uses > 1][0]), n)} appears twice; "
            "orientations are inconsistent or the edge has more than two triangles"
        )
    keys, lower, halves = np.unique(
        np.minimum(tails, heads) * n + np.maximum(tails, heads),
        return_index=True, return_inverse=True,
    )
    upper = np.full(keys.size, -1)
    np.maximum.at(upper, halves, h)
    pairs = np.stack([lower, np.where(upper > lower, upper, -1)], axis=1)
    edges = np.stack(np.divmod(keys, n), axis=1)
    edge_faces, edge_local = np.where(pairs >= 0, np.divmod(pairs, 3), -1)
    degrees = np.bincount(tails, minlength=n)
    on_boundary = np.bincount(edges[pairs[:, 1] < 0].ravel(), minlength=n) > 0
    twin = pairs[halves].sum(axis=1) - h
    step = twin[h - h % 3 + (h + 2) % 3]
    step, label, span = np.where(step >= 0, step, h), h, 1
    while span < degrees.max(initial=0):
        label, step, span = np.minimum(label, label[step]), step[step], 2 * span
    return {
        "edges": edges, "face_edges": halves.reshape(tris.shape),
        "edge_faces": edge_faces, "edge_local": edge_local,
        "star_ptr": np.concatenate([[0], np.cumsum(degrees)]),
        "star_corners": np.argsort(tails, kind="stable"),
        "interior_vertices": (degrees > 0) & ~on_boundary,
        "star_fans": np.bincount(tails[label == h], minlength=n),
    }


def reference_frames(K: MetricComplex) -> tuple[np.ndarray, np.ndarray]:
    """Frame and transport angles from a lexsorted step table and a deque."""
    m = len(K.triangles)
    dirs = _edge_directions(K.corner_angles)
    (lo, hi), (i, j) = K.edge_faces.T, K.edge_local.T
    cross = np.where(hi >= 0, dirs[hi, j] + np.pi - dirs[lo, i], np.nan)
    fe = K.face_edges
    faces = K.edge_faces[fe]
    nbr = np.where(faces[..., 0] == np.arange(m)[:, None], faces[..., 1], faces[..., 0])
    steps = np.stack([nbr, fe], 2)
    steps = np.take_along_axis(steps, np.lexsort((fe, nbr), axis=1)[..., None], 1).tolist()
    crosses, psi, visited, tree = cross.tolist(), [0.0] * m, [False] * m, []
    for root in range(m):
        if visited[root]:
            continue
        visited[root] = True
        queue = deque([root])
        while queue:
            t = queue.popleft()
            for t_next, e in steps[t]:
                if t_next < 0 or visited[t_next]:
                    continue
                turn = -crosses[e] if t < t_next else crosses[e]
                psi[t_next] = math.remainder(psi[t] + turn, math.tau)
                visited[t_next] = True
                tree.append(e)
                queue.append(t_next)
    frame_angles = np.array(psi)
    theta = cross + frame_angles[hi] - frame_angles[lo]
    theta -= math.tau * np.ceil((theta - np.pi) / math.tau)
    theta[tree] = 0.0
    return frame_angles, theta


def _sphere(level: int):
    verts, faces = icosphere(level)
    return len(verts), faces, lengths_from_embedding(verts, faces)


MESHES = st.one_of(
    st.integers(3, 12).map(cone),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda s: flat_grid(*s)),
    st.tuples(st.integers(3, 6), st.integers(3, 6)).map(lambda s: torus_grid(*s)),
    st.integers(0, 2).map(_sphere),
)


@st.composite
def shuffled(draw, components=st.integers(1, 2)):
    """One or two meshes side by side, with vertices relabelled, triangles
    permuted and each triangle's vertices rotated (its orientation kept)."""
    n, tris, rows = 0, np.zeros((0, 3), dtype=int), np.zeros((0, 3))
    for _ in range(draw(components)):
        k, t, r = draw(MESHES)
        tris = np.concatenate([tris, t + n])
        rows = np.concatenate([rows, r + [n, n, 0.0]])
        n += k
    labels = np.array(draw(st.permutations(range(n))))
    tris = labels[tris][draw(st.permutations(range(len(tris))))]
    turns = draw(st.lists(st.integers(0, 2), min_size=len(tris), max_size=len(tris)))
    tris = tris[np.arange(len(tris))[:, None], (np.arange(3) + np.array(turns)[:, None]) % 3]
    rows[:, :2] = labels[rows[:, :2].astype(int)]
    return n, tris, rows


@ORACLE
@given(shuffled())
def test_tables_and_frames_match_the_reference_build(parts):
    K = MetricComplex.from_edge_lengths(*parts)
    want = reference_adjacency(K.triangles, K.vertex_count)
    for name in TABLES:
        assert np.array_equal(getattr(K, name), want[name]), name
    frame_angles, transport_angles = reference_frames(K)
    assert np.array_equal(K.frame_angles, frame_angles)
    assert np.array_equal(K.transport_angles, transport_angles, equal_nan=True)


def _refusal(build) -> str:
    with pytest.raises(MeshFormatError) as caught:
        build()
    return str(caught.value)


@ORACLE
@given(shuffled(components=st.just(1)), st.sampled_from(["repeat", "flip", "fin"]),
       st.integers(0, 2**31))
def test_combinatorial_refusals_match_the_reference_build(parts, fault, pick):
    # A repeated vertex, a triangle turned over (a directed edge twice) or a
    # third triangle on an edge, to a new vertex; the metrics are never read.
    n, tris, _ = parts
    t = pick % len(tris)
    tris = tris.copy()
    if fault == "repeat":
        tris[t, pick % 3] = tris[t, (pick + 1) % 3]
    elif fault == "flip":
        tris[t] = tris[t, ::-1]
    else:
        a, b = tris[t, pick % 3], tris[t, (pick + 1) % 3]
        tris, n = np.concatenate([tris, [[a, b, n]]]), n + 1
    metrics = np.tile(np.eye(2), (len(tris), 1, 1))
    message = _refusal(lambda: reference_adjacency(tris, n))
    assert _refusal(lambda: MetricComplex(n, tris, metrics)) == message
    assert {"repeat": "repeated vertices", "flip": "appears twice",
            "fin": "more than two triangles"}[fault] in message


@pytest.mark.parametrize("tris, message", [
    ([(0, 1, 2), (2, 3, 3)], "triangle 1 has repeated vertices"),
    ([(0, 1, 2), (1, 2, 3)], "directed edge (1, 2) appears twice"),
    ([(0, 1, 2), (1, 0, 3), (0, 1, 4)], "directed edge (0, 1) appears twice"),
    ([(3, 4, 0), (0, 1, 2), (4, 3, 1), (4, 3, 2)], "directed edge (4, 3) appears twice"),
    # The first repeated edge in key order is (0, 3); the smallest repeated
    # directed key is 1 -> 2.
    ([(3, 0, 1), (3, 0, 2), (1, 2, 4), (4, 1, 2)], "directed edge (1, 2) appears twice"),
])
def test_combinatorial_refusals_name_the_smallest_repeated_edge(tris, message):
    tris = np.array(tris)
    metrics = np.tile(np.eye(2), (len(tris), 1, 1))
    assert message in _refusal(lambda: MetricComplex(5, tris, metrics))
    assert _refusal(lambda: MetricComplex(5, tris, metrics)) == \
        _refusal(lambda: reference_adjacency(tris, 5))
