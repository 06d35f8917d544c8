"""SO(2)-valued parallel transport on triangulated surfaces.

A MetricComplex is an oriented triangle complex where every triangle
carries a constant positive-definite metric, given in the triangle's own
affine chart (basis v1-v0, v2-v0).  Metrics may come from per-triangle
Gram matrices, from [a, b, length] edge-length rows, or from an embedding.

Construction.  Each constructor converts and range-checks its triangles
once and hands the checked tables to one build: the edge table, the metric
checks and geometry tables, then the transport angles.  Every step runs a
fixed number of numpy calls over whole tables.
``from_edge_lengths`` refuses, by its row, a length that
is not positive and finite or whose square is not a finite nonzero float
(1e200 "has no finite square", 1e-300 "has no nonzero square").

Geometry tables.  Building a complex validates its metrics and tabulates
them once: ``lengths[t, k]`` (local edge k -> k+1) and
``corner_angles[t, k]`` per triangle, ``angle_defects[v]`` per vertex.
Every length and angle query reads these arrays.  They are computed on each
metric scaled by 4^-k, exactly, so that its largest entry lies in [0.5, 2):
a power-of-two scaling changes only the lengths.  A triangle whose smallest
corner angle has sin^2 below SLIVER_SIN2 = 1e-12 is rejected with
MeshFormatError: past it the curvature angle at a vertex and the vertex's
angle defect drift apart, by 3e-10 at 1e-12 and by up to pi at 1e-15.  So is
a metric whose largest entry is not a normal float, as it has lost bits of
its shape: a cone of side 1e-158 would read its apex defect 1.4e-7 off.

Read-only tables.  Every array a complex holds is a read-only view, its
triangles, metrics and embedding included: one complex may be shared by
several callers (``meshes.read_mesh`` returns the same one for the same mesh
text), and the arrays a caller hands a constructor stay writable.

Frames.  Each triangle has one orthonormal frame, the Cholesky frame of its
chart metric, read off the corner angles: local edge k -> k + 1 points at
0, pi - corner_angles[t, 1] and corner_angles[t, 0] - pi in it, and its
outward normal (``face_normal``) is that direction turned by -pi/2.  There
is no global gauge: as in LMW's discrete Levi-Civita connection, each dual
edge carries the rotation between its two cofaces' own frames.  Hinged flat
across an interior edge, the frame of the edge's lower-index coface turns
into the higher one's by the difference of the edge's directions in the
two, plus pi.  That turn, wrapped into (-pi, pi], is the edge's transport
angle, ``transport_angles[e]``; it depends only on the edge's two cofaces,
and boundary edges hold NaN.  Curvature and holonomy add these angles
around closed dual loops, so they read the same in any choice of frames.

Adjacency.  One edge table, built with the complex, answers every adjacency
query.  It comes from one stable sort of the half-edges' undirected keys
lo * n + hi: each edge is a run of one half-edge (boundary) or two
(interior), the lower triangle's first.  A run of three, or two halves
running the same way, is refused, naming the smallest directed edge that
repeats.

Curvature.  SO(2) is abelian, so a transport adds the signed edge angles it
crosses: + leaving an edge's lower-index coface, - leaving the higher one.
The curvature at an interior vertex is the transport around the dual loop
of its star, in the direction the face orientations induce; its angle is
the angle defect mod 2 pi.  A star that is not a single closed fan
is rejected with MeshFormatError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BoundaryFaceError,
    BoundaryHingeError,
    MeshFormatError,
    NotAdjacentError,
    NotAFacetError,
    NotClosedError,
)
from .lie_group import SO2, GroupElement, exp

# Shared-edge lengths must agree across adjacent triangles to this tolerance.
CONSISTENCY_TOL = 1.0e-10
# Triangles whose smallest corner angle has a smaller squared sine are rejected.
SLIVER_SIN2 = 1.0e-12


def _triangle_array(triangles, vertex_count: int) -> np.ndarray:
    try:
        tris = np.asarray(triangles, dtype=int)
    except OverflowError:  # an index beyond int64 is out of range too
        raise MeshFormatError("triangle vertex index out of range") from None
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshFormatError("triangles must be an (m, 3) index array")
    if tris.size and (tris.min() < 0 or tris.max() >= vertex_count):
        raise MeshFormatError("triangle vertex index out of range")
    return tris


class MetricComplex:
    """An oriented triangle complex with constant per-triangle metrics."""

    def __init__(self, vertex_count: int, triangles, chart_metrics, embedding=None):
        n = int(vertex_count)
        tris = _triangle_array(triangles, n)
        metrics = np.asarray(chart_metrics, dtype=float)
        embedding = None if embedding is None else np.asarray(embedding, dtype=float)
        if metrics.shape != (len(tris), 2, 2):
            raise MeshFormatError("need one 2x2 chart metric per triangle")
        self.vertex_count = n
        self.triangles = tris
        self.chart_metrics = metrics
        self.embedding = embedding
        self._build_adjacency()
        self._tabulate_metrics()
        self._transport()
        # Read-only views: a complex may be shared, and the caller's own arrays stay writable.
        for name, table in list(vars(self).items()):
            if isinstance(table, np.ndarray):
                view = table.view()
                view.flags.writeable = False
                setattr(self, name, view)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edge_lengths(cls, vertex_count: int, triangles, edge_lengths) -> "MetricComplex":
        """Build from (E, 3) rows [a, b, length] (abstract complex): ends are vertex
        indices, lengths positive and finite with a finite nonzero square, and each
        triangle edge is listed, in either orientation, repeating only with its length."""
        n = int(vertex_count)
        tris = _triangle_array(triangles, n)
        rows = np.asarray(edge_lengths, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise MeshFormatError("edge lengths must be an (E, 3) array of [a, b, length] rows")
        ends, lengths = rows[:, :2], rows[:, 2]
        with np.errstate(over="ignore"):  # an overflow is refused below
            squares = np.float_power(lengths, 2)  # libm pow, as ``**`` on a Python float
        is_index = (ends >= 0) & (ends < n) & (ends == np.floor(ends))
        stray = ~(is_index[:, 0] & is_index[:, 1])
        bad = (stray | ~((lengths > 0) & (squares > 0) & (squares < math.inf))).nonzero()[0]
        if bad.size:
            a, b, length = np.asarray(edge_lengths[bad[0]], dtype=object).tolist()  # as given
            if stray[bad[0]]:
                raise MeshFormatError(f"edge ({a}, {b}) ends must be vertex indices below {n}")
            if not 0 < length < math.inf:
                what = "is not positive and finite"
            elif squares[bad[0]]:  # inf
                what = "has no finite square"
            else:  # underflowed to 0
                what = "has no nonzero square"
            raise MeshFormatError(f"edge ({int(a)}, {int(b)}) length {length!r} {what}")
        # Edge keys lo * n + hi, as in _build_adjacency; a stable sort puts repeats side by side.
        a, b = ends.astype(np.int64).T
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        order = keys.argsort(kind="stable")
        keys, listed = keys[order], lengths[order]
        clash = ((keys[1:] == keys[:-1]) & (listed[1:] != listed[:-1])).nonzero()[0]
        if clash.size:
            j = clash[0]
            raise MeshFormatError(f"edge {divmod(int(keys[j]), n)} is listed with lengths "
                                  f"{listed[j]} and {listed[j + 1]}")
        # Each triangle's edges (0, 1), (0, 2) and (1, 2), found past a sentinel end key.
        tails, heads = tris.take([0, 0, 1], axis=1), tris.take([1, 2, 2], axis=1)
        wanted = np.minimum(tails, heads) * n + np.maximum(tails, heads)
        at = keys.searchsorted(wanted)
        missing = wanted[np.concatenate((keys, [n * n]))[at] != wanted]
        if missing.size:
            raise MeshFormatError(f"missing edge length for {divmod(int(missing[0]), n)}")
        s01, s02, s12 = squares[order[at]].T
        g01 = 0.5 * s01 + 0.5 * s02 - 0.5 * s12  # exact halves: s01 + s02 may overflow
        return cls(n, tris, np.array([[s01, g01], [g01, s02]]).transpose(2, 0, 1))

    @classmethod
    def from_embedding(cls, vertices, triangles) -> "MetricComplex":
        """Build from vertex coordinates (2D or 3D); metrics are the pulled-back Grams."""
        verts = np.asarray(vertices, dtype=float)
        bad = np.flatnonzero(~np.isfinite(verts).all(axis=-1))
        if bad.size:
            raise MeshFormatError(f"vertex {bad[0]} has a non-finite coordinate")
        tris = _triangle_array(triangles, len(verts))
        with np.errstate(over="ignore"):  # a metric too large for a float is refused on build
            e = verts[tris[:, 1:]] - verts[tris[:, :1]]  # rows v1 - v0 and v2 - v0
            gram = e @ e.transpose(0, 2, 1)
        return cls(len(verts), tris, gram, verts)

    # -- validation ---------------------------------------------------------

    def _tabulate_metrics(self) -> None:
        """Validate the metrics and fill the geometry tables."""
        g = self.chart_metrics
        # Tests run on each metric scaled by 4^-k (exact) to put its largest entry in [0.5, 2).
        largest = np.abs(g).max(axis=(1, 2))  # NaN if an entry is NaN
        bad = (~(largest < math.inf)).nonzero()[0]
        if bad.size:
            raise MeshFormatError(f"metric of triangle {bad[0]} is not finite")
        k = np.frexp(largest)[1] >> 1
        g00, g01, g10, g11 = np.ldexp(g.reshape(-1, 4), -2 * k[:, None]).T
        dets = g00 * g11 - g01 * g10
        # d^T g d for the chart vectors d of local edges 0->1, 1->2 and 2->0.
        middle = (g00 - g10) + (g11 - g01)
        # The smallest angle lies between the two longest edges, so its sin^2
        # is det over the product of their squared lengths.
        top, low = np.maximum(g00, middle), np.minimum(g00, middle)
        longest = np.maximum(low, np.minimum(top, g11)) * np.maximum(top, g11)
        asymmetric = np.abs(g01 - g10) > 1.0e-12
        tiny = largest < sys.float_info.min
        # A collinear det rounds to either side of 0; only one clearly below is indefinite.
        sliver = dets < SLIVER_SIN2 * longest
        indefinite = (g00 <= 0) | (dets < -SLIVER_SIN2 * longest)
        bad = (asymmetric | tiny | sliver | indefinite).nonzero()[0]
        if bad.size:
            t = int(bad[0])
            if asymmetric[t]:
                raise MeshFormatError(f"metric of triangle {t} is not symmetric")
            if tiny[t]:
                raise MeshFormatError(f"metric of triangle {t} is too small: "
                                      f"its largest entry is not a normal float")
            if indefinite[t]:
                raise MeshFormatError(f"metric of triangle {t} is not positive definite")
            raise MeshFormatError(f"triangle {t} is a sliver: sin^2 of its smallest angle is "
                                  f"{dets[t] / longest[t]:.3g}, below {SLIVER_SIN2:g}")
        # Tables are built edge-major, (3, m), and read through their transposes.
        self.lengths = np.ldexp(np.sqrt(np.array([g00, middle, g11])), k).T
        # Each corner's edge vectors have chart cross product 1, so the sine
        # part is sqrt(det); the cosine parts are u^T g w.
        cos = np.array([g01, g00 - g10, g11 - g10])
        self.corner_angles = np.arctan2(np.sqrt(dets), cos).T
        # bincount adds each vertex's corners in increasing triangle order.
        angle_sums = np.bincount(
            self.triangles.ravel(), self.corner_angles.ravel(), minlength=self.vertex_count
        )
        self.angle_defects = 2.0 * np.pi - angle_sums
        # Both cofaces of an edge must give it one length, to CONSISTENCY_TOL times the larger 2^k.
        inner = self.edge_faces[:, 1] >= 0
        (f0, f1), (k0, k1) = self.edge_faces[inner].T, self.edge_local[inner].T
        l0, l1 = self.lengths[f0, k0], self.lengths[f1, k1]
        tol = np.ldexp(CONSISTENCY_TOL, np.maximum(k[f0], k[f1]))
        bad = (np.abs(l0 - l1) > tol).nonzero()[0]
        if bad.size:
            i = bad[0]
            raise MeshFormatError(f"edge {tuple(self.edges[inner][i].tolist())} has "
                                  f"inconsistent lengths {float(l0[i])!r} vs {float(l1[i])!r}")

    # -- adjacency ----------------------------------------------------------

    def _build_adjacency(self) -> None:
        """Validate the combinatorics and build the edge table.

        Half-edge, or corner, ``h = 3 t + k`` runs from ``triangles[t, k]`` to
        ``triangles[t, k + 1]``.  The table holds ``edges`` (E, 2), the sorted
        edge keys; ``face_edges`` (F, 3), the edge of each half-edge;
        ``edge_faces`` and ``edge_local`` (E, 2), each edge's cofaces in
        increasing order and their local start indices, -1 on the boundary;
        each vertex's star in CSR form (``star_ptr``, ``star_corners``);
        ``interior_vertices``; and ``star_fans``, the number of closed fans
        around each interior vertex.
        """
        tris, n = self.triangles, self.vertex_count
        tails, heads = tris.ravel(), tris.take([1, 2, 0], axis=1).ravel()
        h = np.arange(tails.size)
        repeated = (tails == heads).nonzero()[0]
        if repeated.size:
            raise MeshFormatError(f"triangle {repeated[0] // 3} has repeated vertices")
        # One stable sort of the undirected keys lo * n + hi: each edge is a
        # run of its half-edges in increasing order, the lower triangle's first.
        lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
        keys = lo * n + hi
        order = keys.argsort(kind="stable")
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        ids, seconds = first.cumsum() - 1, (~first).nonzero()[0]
        lower, upper = order[seconds - 1], order[seconds]
        # A run of three, or two halves running the same way, repeats a directed edge.
        if (np.count_nonzero(keys[2:] == keys[:-2])
                or np.count_nonzero(tails[lower] == tails[upper])):
            directed, uses = np.unique(tails * n + heads, return_counts=True)
            raise MeshFormatError(
                f"directed edge {divmod(int(directed[uses > 1][0]), n)} appears twice; "
                "orientations are inconsistent or the edge has more than two triangles"
            )
        halves, twin = np.empty_like(h), np.full(h.size, -1)  # twin -1 on the boundary
        halves[order] = ids
        twin[lower], twin[upper] = upper, lower
        pairs = np.full((keys.size - seconds.size, 2), -1)
        firsts = order[first]
        pairs[:, 0] = firsts
        pairs[ids[seconds], 1] = upper
        self.edges = np.array((lo[firsts], hi[firsts])).T
        self.face_edges = halves.reshape(tris.shape)
        self.edge_faces, self.edge_local = np.divmod(pairs, 3)  # floor: face -1 stays -1
        self.edge_local[pairs < 0] = -1
        degrees = np.bincount(tails, minlength=n)
        self.star_ptr = np.concatenate(([0], degrees.cumsum()))
        self.star_corners = tails.argsort(kind="stable")
        on_boundary = np.zeros(n, dtype=bool)
        on_boundary[tails[twin < 0]] = on_boundary[heads[twin < 0]] = True
        self.interior_vertices = (degrees > 0) & ~on_boundary
        # Around an interior vertex, corner h steps to the twin of the
        # half-edge entering it, 3 t + (k + 2) % 3: a permutation of the
        # vertex's corners with one cycle per closed fan.  Pointer jumping
        # labels each corner with the smallest corner on its cycle.
        step = twin.reshape(tris.shape).take([2, 0, 1], axis=1).ravel()
        step, label, span, longest = np.where(step >= 0, step, h), h, 1, degrees.max(initial=0)
        while span < longest:
            label, step, span = np.minimum(label, label[step]), step[step], 2 * span
        self.star_fans = np.bincount(tails[label == h], minlength=n)

    # -- transport ----------------------------------------------------------

    def _transport(self) -> None:
        """Every edge's transport angle, between its two cofaces' own frames."""
        dirs = _edge_directions(self.corner_angles)
        # Rotation from the lower coface's frame to the higher one's across
        # each interior edge; the cofaces traverse it in opposite directions.
        (lo, hi), (i, j) = self.edge_faces.T, self.edge_local.T
        theta = np.where(hi >= 0, dirs[hi, j] + np.pi - dirs[lo, i], np.nan)
        theta -= math.tau * np.ceil((theta - np.pi) / math.tau)  # into (-pi, pi]
        self.transport_angles = theta

    # -- topology helpers ----------------------------------------------------

    def euler_characteristic(self) -> int:
        return self.vertex_count - len(self.edges) + len(self.triangles)

    def is_closed(self) -> bool:
        return bool((self.edge_faces[:, 1] >= 0).all())

    def is_interior_vertex(self, v: int) -> bool:
        return 0 <= v < self.vertex_count and bool(self.interior_vertices[v])


# -- per-simplex geometry ----------------------------------------------------


def _edge_directions(corner_angles: np.ndarray) -> np.ndarray:
    """Direction of local edge k -> k + 1 in each triangle's frame, from its corner angles."""
    a0, a1 = corner_angles[..., 0], corner_angles[..., 1]
    return np.stack([np.zeros_like(a0), np.pi - a1, a0 - np.pi], axis=-1)


def _triangle(K: MetricComplex, t: int) -> list[int]:
    """The vertices of triangle t; NotAFacetError unless 0 <= t < K's triangle count."""
    if not 0 <= t < len(K.triangles):
        raise NotAFacetError(f"triangle {t} is not in the complex")
    return K.triangles[t].tolist()


def corner_angle(K: MetricComplex, t: int, v: int) -> float:
    """Interior angle of triangle t at vertex v, measured in t's metric."""
    tri = _triangle(K, t)
    if v not in tri:
        raise NotAFacetError(f"vertex {v} is not in triangle {t}")
    return float(K.corner_angles[t, tri.index(v)])


def angle_defect(K: MetricComplex, v: int) -> float:
    """2 pi minus the total corner angle at v (meaningful for interior vertices)."""
    if not 0 <= v < K.vertex_count:
        raise BoundaryHingeError(f"vertex {v} is not in the complex")
    return float(K.angle_defects[v])


def face_normal(K: MetricComplex, t: int, face: tuple[int, int]) -> np.ndarray:
    """Unit outward normal of an edge in triangle t's metric-orthonormal frame.

    The triangle runs counterclockwise in its frame, so the outward normal
    is the direction of the edge, as the triangle traverses it, turned by
    -pi/2.
    """
    tri = _triangle(K, t)
    if face[0] not in tri or face[1] not in tri or face[0] == face[1]:
        raise NotAFacetError(f"edge {face} is not a facet of triangle {t}")
    i, j = tri.index(face[0]), tri.index(face[1])
    phi = _edge_directions(K.corner_angles[t])[i if j == (i + 1) % 3 else j]
    return np.array([np.sin(phi), -np.cos(phi)])


# -- the connection ----------------------------------------------------------


def _interior_edge(K: MetricComplex, face: tuple[int, int]) -> int:
    """Edge id of an interior edge, looked up in the sorted edge table."""
    a, b = sorted(face)
    lo, hi = np.searchsorted(K.edges[:, 0], [a, a + 1])
    e = int(lo + np.searchsorted(K.edges[lo:hi, 1], b))
    if e == hi or K.edges[e, 1] != b:
        raise NotAFacetError(f"edge {face} is not in the complex")
    if K.edge_faces[e, 1] < 0:
        raise BoundaryFaceError(f"edge {face} lies on the boundary")
    return e


def _shared_edges(K: MetricComplex, sources, targets) -> np.ndarray:
    """The lowest-keyed edge each pair of triangles shares (it is interior)."""
    sources, targets = np.asarray(sources, dtype=int), np.asarray(targets, dtype=int)
    m, n_edges = len(K.triangles), len(K.edges)
    inside = (0 <= sources) & (sources < m) & (0 <= targets) & (targets < m)
    fs, ft = K.face_edges[np.where(inside, [sources, targets], 0)]
    shared = np.where((fs[:, :, None] == ft[:, None, :]).any(axis=2), fs, n_edges).min(axis=1)
    bad = np.flatnonzero((sources == targets) | ~inside | (shared == n_edges))
    if bad.size:
        raise NotAdjacentError(f"triangles {sources[bad[0]]} and {targets[bad[0]]} are not adjacent")
    return shared


@dataclass(frozen=True, eq=False)
class DualOneForm:
    """Connection angles on dual edges, indexed like ``complex.edges`` (NaN on
    boundary edges) and oriented from the lower- to the higher-index coface;
    reversal inverts exactly.  The Levi-Civita form shares its complex's
    read-only ``transport_angles``."""

    complex: MetricComplex
    angles: np.ndarray = field(repr=False)

    def value(self, face: tuple[int, int], source: int, target: int) -> GroupElement:
        K = self.complex
        e = _interior_edge(K, face)
        if sorted((source, target)) != K.edge_faces[e].tolist():
            raise NotAdjacentError(f"edge {face} does not join triangles {source} and {target}")
        return exp(SO2, _crossings(K, self, e, source))


def connection_form(K: MetricComplex) -> DualOneForm:
    """The Levi-Civita dual one-form: one rotation angle per interior edge."""
    return DualOneForm(K, K.transport_angles)


def _crossings(K: MetricComplex, A: DualOneForm, edges, sources) -> np.ndarray:
    """Signed angle of crossing each interior edge out of its coface in
    ``sources``: + from the lower-index coface, - from the higher one."""
    if A.complex is not K:
        raise MeshFormatError("connection form belongs to another complex")
    theta = A.angles[edges]
    return np.where(K.edge_faces[edges, 0] == sources, theta, -theta)


def _turns(K: MetricComplex, A: DualOneForm, corners: np.ndarray) -> np.ndarray:
    """Signed angle of each corner's step around its vertex's dual loop.

    Crossing the edge to the predecessor vertex walks the star in the
    direction the face orientations induce, so a fan adds up to +defect.
    """
    t, k = np.divmod(corners, 3)
    return _crossings(K, A, K.face_edges[t, (k + 2) % 3], t)


def _check_fans(K: MetricComplex, vertices: np.ndarray) -> None:
    split = vertices[K.star_fans[vertices] != 1]
    if split.size:
        raise MeshFormatError(f"star of vertex {split[0]} is not a single closed fan")


def curvature(K: MetricComplex, A: DualOneForm, hinge: int) -> GroupElement:
    """Transport around the dual loop of a vertex's star, in the direction the
    face orientations induce; its rotation angle is the vertex's angle defect."""
    if not K.is_interior_vertex(hinge):
        raise BoundaryHingeError(f"vertex {hinge} is not an interior vertex of the complex")
    _check_fans(K, np.array([hinge]))
    corners = K.star_corners[K.star_ptr[hinge]:K.star_ptr[hinge + 1]]
    return exp(SO2, _turns(K, A, corners).sum())


def _curvature_angles(K: MetricComplex, A: DualOneForm) -> tuple[np.ndarray, np.ndarray]:
    """Interior vertices and their curvature angles, summed over all corners at once."""
    interior = np.flatnonzero(K.interior_vertices)
    _check_fans(K, interior)
    corners = np.arange(K.triangles.size)
    sums = np.bincount(K.triangles.ravel(), _turns(K, A, corners), minlength=K.vertex_count)
    return interior, sums[interior]


def holonomy(K: MetricComplex, A: DualOneForm, loop: Sequence[int]) -> GroupElement:
    """Transport around a closed dual path of triangle indices.

    The path must be explicitly closed (first == last, or a single simplex).
    Each step crosses the lowest-keyed edge its two triangles share.
    """
    loop, m = [int(t) for t in loop], len(K.triangles)
    if not loop:
        raise NotClosedError("empty loop")
    if loop[0] != loop[-1]:
        raise NotClosedError("loop must start and end at the same simplex")
    outside = [t for t in loop if not 0 <= t < m]
    if outside:
        raise NotAdjacentError(f"triangle {outside[0]} is not in the complex")
    sources, targets = np.array(loop[:-1], dtype=int), np.array(loop[1:], dtype=int)
    return exp(SO2, _crossings(K, A, _shared_edges(K, sources, targets), sources).sum())


def quality_report(K: MetricComplex, A: DualOneForm) -> dict[int, float]:
    """Curvature norm per interior hinge, sorted descending (ties by index)."""
    vertices, angles = _curvature_angles(K, A)
    norms = np.abs(SO2.log_vectors(SO2.exp_matrices(angles))[:, 0])  # refuses the cut locus
    order = np.lexsort((vertices, -norms))
    return dict(zip(vertices[order].tolist(), norms[order].tolist()))


def total_defect(K: MetricComplex) -> float:
    """Sum of angle defects over interior vertices (2 pi chi when closed)."""
    return float(sum(K.angle_defects[K.interior_vertices].tolist()))
