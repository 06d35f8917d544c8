"""The edge table, the transport angles and the metric checks of a
MetricComplex against reference builds.

``reference_adjacency`` and ``reference_transport`` are per-step
constructions of the same tables: two ``np.unique`` calls and a
``np.maximum.at`` for the edge table, and a Python loop over the edges for
the transport angles.  The complex must match them array for array, and
refuse what they refuse with the same message, on meshes whose vertex
labels, triangle order and vertex rotations are all drawn.  ``reference_metric_check`` is the earlier, unit-scale validation of
the chart metrics; the complex must take the same decision on metrics of
normal magnitude.  Hypothesis runs derandomized, so every run draws the
same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn.errors import MeshFormatError
from dconn.levi_civita import CONSISTENCY_TOL, SLIVER_SIN2, MetricComplex
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


def reference_transport(K: MetricComplex) -> np.ndarray:
    """Transport angles edge by edge, from the corner angles of its cofaces."""
    corners = K.corner_angles.tolist()

    def direction(t: int, k: int) -> float:
        a0, a1, _ = corners[t]
        return (0.0, math.pi - a1, a0 - math.pi)[k]

    theta = []
    for (lo, hi), (i, j) in zip(K.edge_faces.tolist(), K.edge_local.tolist()):
        if hi < 0:
            theta.append(math.nan)
            continue
        turn = direction(hi, j) + math.pi - direction(lo, i)
        theta.append(turn - math.tau * math.ceil((turn - math.pi) / math.tau))
    return np.array(theta)


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
def test_tables_and_transport_match_the_reference_build(parts):
    K = MetricComplex.from_edge_lengths(*parts)
    want = reference_adjacency(K.triangles, K.vertex_count)
    for name in TABLES:
        assert np.array_equal(getattr(K, name), want[name]), name
    assert np.array_equal(K.transport_angles, reference_transport(K), equal_nan=True)


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


def reference_metric_check(tris: np.ndarray, n: int, g: np.ndarray):
    """The earlier validation of chart metrics: (refusal message or None,
    corner angles).  It took ``np.linalg.det`` of each metric as given,
    refused one whose determinant or longest-edge product overflowed
    ("too large") or was too small for the sliver test ("too small"), and
    floored its symmetry and shared-edge tolerances at 1."""
    bad = np.flatnonzero(~np.isfinite(g).all(axis=(1, 2)))
    if bad.size:
        return f"metric of triangle {bad[0]} is not finite", None
    g00, g01, g10, g11 = g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(g)
        middle = (g00 - g10) + (g11 - g01)
        squared = np.stack([g00, middle, g11], axis=1)
        top, low = np.maximum(g00, middle), np.minimum(g00, middle)
        longest = np.maximum(low, np.minimum(top, g11)) * np.maximum(top, g11)
    asymmetric = np.abs(g01 - g10) > 1.0e-12 * np.maximum(1.0, np.abs(g01))
    huge = ~(np.isfinite(dets) & np.isfinite(longest))
    semidefinite = (dets >= 0) & (squared >= 0).all(axis=1)
    tiny = semidefinite & (SLIVER_SIN2 * longest < np.finfo(float).tiny)
    indefinite = ~((g00 > 0) & (dets > 0))
    sliver = dets < SLIVER_SIN2 * longest
    bad = np.flatnonzero(asymmetric | huge | tiny | indefinite | sliver)
    if bad.size:
        t = int(bad[0])
        if asymmetric[t]:
            return f"metric of triangle {t} is not symmetric", None
        if huge[t]:
            return (f"metric of triangle {t} is too large: its determinant "
                    f"or longest-edge product is not finite"), None
        if tiny[t]:
            return (f"metric of triangle {t} is too small: {SLIVER_SIN2:g} "
                    f"times its longest-edge product is not a normal float"), None
        if indefinite[t]:
            return f"metric of triangle {t} is not positive definite", None
        return (f"triangle {t} is a sliver: sin^2 of its smallest angle is "
                f"{dets[t] / longest[t]:.3g}, below {SLIVER_SIN2:g}"), None
    lengths = np.sqrt(squared)
    cos = np.stack([g01, g00 - g10, g11 - g10], axis=1)
    corner_angles = np.arctan2(np.sqrt(dets)[:, None], cos)
    table = reference_adjacency(tris, n)
    edge_faces, edge_local = table["edge_faces"], table["edge_local"]
    inner = edge_faces[:, 1] >= 0
    l0, l1 = lengths.ravel()[(3 * edge_faces + edge_local)[inner]].T
    bad = np.flatnonzero(np.abs(l0 - l1) > CONSISTENCY_TOL * np.maximum(1.0, l0))
    if bad.size:
        i = bad[0]
        return (f"edge {tuple(table['edges'][inner][i].tolist())} has "
                f"inconsistent lengths {float(l0[i])!r} vs {float(l1[i])!r}"), None
    return None, corner_angles


TWO_TRIANGLES = np.array([(0, 1, 2), (1, 0, 3)])  # sharing the edge (0, 1)
UNITS = st.integers(50, 1000).map(lambda i: i / 1000)  # away from 0 and subnormals


def _side_metric(a, b, c):
    """The chart metric of local sides a = |01|, b = |02| and c = |12|."""
    s01, s02, s12 = a * a, b * b, c * c
    g01 = 0.5 * s01 + 0.5 * s02 - 0.5 * s12
    return np.array([[s01, g01], [g01, s02]])


@st.composite
def two_triangle_metrics(draw):
    """Chart metrics of TWO_TRIANGLES of one of six kinds, times 10^e.

    The kinds are side lengths (the shared one equal, the triangle
    inequality broken by up to a fifth), nearly collinear sides, vertices in
    the plane (the third nearly on the line of the other two), an asymmetric
    off-diagonal entry, an inconsistent shared edge and entries of any sign.
    The last three meet tolerances that the reference floored at 1, so they
    are drawn at scales of 1 and above only.
    """
    kind = draw(st.sampled_from(["sides", "collinear", "plane", "asymmetric",
                                 "inconsistent", "entries"]))
    low = 0 if kind in ("asymmetric", "inconsistent", "entries") else -140
    scale = draw(st.integers(1000, 9999)) / 1000 * 10.0 ** draw(st.integers(low, 140))
    a = draw(UNITS)
    if kind == "entries":
        entries = st.integers(-1000, 1000).map(lambda i: i / 1000)
        g = np.array([[[x, y], [y, z]] for x, y, z in draw(st.lists(
            st.tuples(entries, entries, entries), min_size=2, max_size=2))])
    elif kind == "plane":
        # Vertex 0 at the origin and 1 at (a, 0); 2 and 3 at heights 10^-r.
        g = []
        for sign in (1, -1):
            x, r = draw(st.floats(-0.5, 1.5)), draw(st.integers(0, 16))
            e = np.array([[sign * a, 0.0], [x, sign * 10.0**-r]])
            g.append(e @ e.T)
        g = np.array(g)
    else:
        sides = []
        for _ in range(2):
            b = draw(UNITS)
            if kind == "collinear":
                c = (a + b) * (1.0 + draw(st.sampled_from([1, -1])) * 10.0 ** -draw(
                    st.integers(1, 16)))
            else:  # from |a - b| at 0 to a + b at 1
                c = abs(a - b) + draw(st.integers(0, 1200)) / 1000 * (a + b - abs(a - b))
            sides.append((a, b, c))
        if kind == "inconsistent":
            b, c = sides[1][1:]
            sides[1] = (a * (1.0 + draw(st.sampled_from([1, -1])) * 10.0 ** -draw(
                st.integers(1, 7))), b, c)
        g = np.array([_side_metric(*s) for s in sides])
        if kind == "asymmetric":
            t = draw(st.integers(0, 1))
            g[t, 1, 0] += draw(st.sampled_from([1, -1])) * 10.0 ** -draw(
                st.integers(1, 9)) * np.abs(g[t]).max()
    return scale * g


def _in_collinear_band(g: np.ndarray) -> bool:
    """Whether some metric has g00 > 0 and a determinant within twice the
    sliver bound of 0, where rounding decides between "sliver" and "not
    positive definite"."""
    g00, g01, g10, g11 = g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1]
    middle = (g00 - g10) + (g11 - g01)
    sides = np.sort(np.stack([g00, middle, g11], axis=1), axis=1)
    longest = sides[:, 2] * sides[:, 1]
    return bool(((g00 > 0) & (np.abs(np.linalg.det(g)) <= 2 * SLIVER_SIN2 * np.abs(longest))).any())


@ORACLE
@given(two_triangle_metrics())
def test_metric_checks_match_the_unit_scale_reference(g):
    want, angles = reference_metric_check(TWO_TRIANGLES, 4, g)
    if _in_collinear_band(g) or (want is not None and "too " in want):
        return  # the documented changes: collinear messages and magnitude refusals
    if want is not None:
        assert _refusal(lambda: MetricComplex(4, TWO_TRIANGLES, g)) == want
    else:
        # Only the determinants differ.  numpy's is exp(log |det|) of an LU,
        # with a relative error near eps (1 + |ln det|) times the condition
        # (|g00 g11| + |g01 g10|) / det, and no angle moves by more.  Over
        # 3 000 draws the drift stayed below 0.62 of that.
        K = MetricComplex(4, TWO_TRIANGLES, g)
        dets = np.linalg.det(g)
        spread = np.abs(g[:, 0, 0] * g[:, 1, 1]) + np.abs(g[:, 0, 1] * g[:, 1, 0])
        bound = 2.0 * np.finfo(float).eps * spread / dets * (1.0 + np.abs(np.log(dets)))
        assert (np.abs(K.corner_angles - angles) <= bound[:, None]).all()
