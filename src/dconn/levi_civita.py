"""SO(2)-valued parallel transport on triangulated surfaces.

A MetricComplex is an oriented triangle complex where every triangle
carries a constant positive-definite metric, given in the triangle's own
affine chart (basis v1-v0, v2-v0).  Metrics may come from per-triangle
Gram matrices, from per-edge lengths, or from an embedding.

Geometry tables.  Building a complex validates its metrics and tabulates
them once: ``dets[t]``, ``lengths[t, k]`` (local edge k -> k+1) and
``corner_angles[t, k]`` per triangle, ``angle_defects[v]`` per vertex.
Every length and angle query reads these arrays.  A triangle whose
smallest corner angle has sin^2 below SLIVER_SIN2 = 1e-12 is rejected with
MeshFormatError: past it the curvature angle at a vertex and the vertex's
angle defect drift apart, by 3e-10 at 1e-12 and by up to pi at 1e-15.

Frames.  Each triangle gets an orthonormal frame by isometrically
developing the complex into the plane along a breadth-first spanning tree
of the dual graph (rooted at the lowest simplex index of each connected
component); every non-root triangle is unfolded once, against its tree
parent.  The connection element across an interior edge is read off that
development: it is the rotation taking the edge's vector in the
lower-index coface's development to its vector in the higher-index one.
Tree edges share their endpoints' positions exactly and so carry exactly
the identity, every flat complex carries the identity on all interior
edges, and curvature and holonomy are independent of this gauge choice.

Curvature.  The curvature at an interior vertex is the ordered product of
connection elements around the dual loop of its star, based at the coface
with the smallest simplex index; its rotation angle is the angle defect.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from . import lie_group as lg
from .errors import (
    BoundaryFaceError,
    BoundaryHingeError,
    MeshFormatError,
    NotAdjacentError,
    NotAFacetError,
    NotClosedError,
)
from .lie_group import SO2, GroupElement

# Chart positions of a triangle's three vertices.
_CHART = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# Shared-edge lengths must agree across adjacent triangles to this tolerance.
CONSISTENCY_TOL = 1.0e-10
# Triangles whose smallest corner angle has a smaller squared sine are rejected.
SLIVER_SIN2 = 1.0e-12


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _triangle_array(triangles, vertex_count: int) -> np.ndarray:
    tris = np.asarray(triangles, dtype=int)
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshFormatError("triangles must be an (m, 3) index array")
    if tris.size and (tris.min() < 0 or tris.max() >= vertex_count):
        raise MeshFormatError("triangle vertex index out of range")
    return tris


class MetricComplex:
    """An oriented triangle complex with constant per-triangle metrics."""

    def __init__(self, vertex_count: int, triangles, chart_metrics, embedding=None):
        self.vertex_count = int(vertex_count)
        self.triangles = _triangle_array(triangles, self.vertex_count)
        self.chart_metrics = np.asarray(chart_metrics, dtype=float)
        self.embedding = None if embedding is None else np.asarray(embedding, dtype=float)
        if self.chart_metrics.shape != (len(self.triangles), 2, 2):
            raise MeshFormatError("need one 2x2 chart metric per triangle")
        self._validate_combinatorics()
        self._tabulate_metrics()
        self._build_adjacency()
        self._develop()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edge_lengths(cls, vertex_count: int, triangles, lengths: dict) -> "MetricComplex":
        """Build from {(i, j): length} with i < j (abstract complex)."""
        tris = _triangle_array(triangles, vertex_count)
        try:
            gathered = [
                (lengths[_edge_key(a, b)], lengths[_edge_key(a, c)], lengths[_edge_key(b, c)])
                for a, b, c in tris.tolist()
            ]
        except KeyError as exc:
            raise MeshFormatError(f"missing edge length for {exc}") from exc
        # float_power squares with libm pow, as ``**`` on a Python float does.
        s01, s02, s12 = np.float_power(np.array(gathered, dtype=float).reshape(-1, 3).T, 2)
        g01 = 0.5 * (s01 + s02 - s12)
        return cls(vertex_count, tris, np.array([[s01, g01], [g01, s02]]).transpose(2, 0, 1))

    @classmethod
    def from_embedding(cls, vertices, triangles) -> "MetricComplex":
        """Build from vertex coordinates (2D or 3D); metrics are the pulled-back Grams."""
        verts = np.asarray(vertices, dtype=float)
        tris = _triangle_array(triangles, len(verts))
        e = verts[tris[:, 1:]] - verts[tris[:, :1]]  # rows v1 - v0 and v2 - v0
        return cls(len(verts), tris, e @ e.transpose(0, 2, 1), embedding=verts)

    # -- validation ---------------------------------------------------------

    def _validate_combinatorics(self) -> None:
        directed: set[tuple[int, int]] = set()
        for t, (a, b, c) in enumerate(self.triangles.tolist()):
            if len({a, b, c}) != 3:
                raise MeshFormatError(f"triangle {t} has repeated vertices")
            for e in ((a, b), (b, c), (c, a)):
                if e in directed:
                    raise MeshFormatError(
                        f"directed edge {e} appears twice; orientations are inconsistent"
                    )
                directed.add(e)

    def _tabulate_metrics(self) -> None:
        """Validate the metrics and fill the geometry tables."""
        g = self.chart_metrics
        g00, g01, g10, g11 = g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1]
        dets = np.linalg.det(g)
        # d^T g d for the chart vectors d of local edges 0->1, 1->2 and 2->0.
        squared = np.stack([g00, (g00 - g10) + (g11 - g01), g11], axis=1)
        asymmetric = np.abs(g01 - g10) > 1.0e-12 * np.maximum(1.0, np.abs(g01))
        indefinite = ~((g00 > 0) & (dets > 0))
        # The smallest angle lies between the two longest edges, so its sin^2
        # is det over the product of their squared lengths.
        longest = np.sort(squared, axis=1)[:, 1:].prod(axis=1)
        sliver = dets < SLIVER_SIN2 * longest
        bad = np.flatnonzero(asymmetric | indefinite | sliver)
        if bad.size:
            t = int(bad[0])
            if asymmetric[t]:
                raise MeshFormatError(f"metric of triangle {t} is not symmetric")
            if indefinite[t]:
                raise MeshFormatError(f"metric of triangle {t} is not positive definite")
            raise MeshFormatError(
                f"triangle {t} is a sliver: sin^2 of its smallest angle is "
                f"{dets[t] / longest[t]:.3g}, below {SLIVER_SIN2:g}"
            )
        self.dets = dets
        self.lengths = np.sqrt(squared)
        # Each corner's edge vectors have chart cross product 1, so the sine
        # part is sqrt(det); the cosine parts are u^T g w.
        cos = np.stack([g01, g00 - g10, g11 - g10], axis=1)
        self.corner_angles = np.arctan2(np.sqrt(dets)[:, None], cos)
        # bincount adds each vertex's corners in increasing triangle order.
        angle_sums = np.bincount(
            self.triangles.ravel(), self.corner_angles.ravel(), minlength=self.vertex_count
        )
        self.angle_defects = 2.0 * np.pi - angle_sums

    # -- adjacency ----------------------------------------------------------

    def _build_adjacency(self) -> None:
        tris = self.triangles.tolist()
        # edge key -> list of (triangle, local index of edge start), in
        # increasing triangle order.
        cofaces: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for t, tri in enumerate(tris):
            for k in range(3):
                cofaces.setdefault(_edge_key(tri[k], tri[(k + 1) % 3]), []).append((t, k))
        for key, lst in cofaces.items():
            if len(lst) > 2:
                raise MeshFormatError(f"edge {key} has {len(lst)} cofaces")
        self.edge_cofaces = cofaces
        self.interior_edges = {k: v for k, v in cofaces.items() if len(v) == 2}
        # shared-edge length consistency across the two charts
        lengths = self.lengths.tolist()
        for key, ((t0, k0), (t1, k1)) in self.interior_edges.items():
            l0, l1 = lengths[t0][k0], lengths[t1][k1]
            if abs(l0 - l1) > CONSISTENCY_TOL * max(1.0, l0):
                raise MeshFormatError(f"edge {key} has inconsistent lengths {l0!r} vs {l1!r}")
        self._boundary_vertices = {
            v for key, lst in cofaces.items() if len(lst) == 1 for v in key
        }
        vertex_cofaces: dict[int, list[int]] = {}
        for t, tri in enumerate(tris):
            for v in tri:
                vertex_cofaces.setdefault(v, []).append(t)
        self._vertex_cofaces = vertex_cofaces

    def _edge_length_in(self, t: int, edge: tuple[int, int]) -> float:
        """Length of the edge between two vertices of triangle t, in t's metric."""
        return float(self.lengths[t, dict(self.edge_cofaces[_edge_key(*edge)])[t]])

    # -- development --------------------------------------------------------

    def _root_positions(self, t: int) -> np.ndarray:
        l01 = self.lengths[t, 0]
        # Cholesky-transpose image of the chart corners; positively oriented.
        p2 = [self.chart_metrics[t, 0, 1] / l01, np.sqrt(self.dets[t]) / l01]
        return np.array([[0.0, 0.0], [l01, 0.0], p2])

    def _unfold_against(self, pos_known: np.ndarray, known: tuple[int, int],
                        new: tuple[int, int], a: int) -> np.ndarray:
        """Planar positions of a triangle's corners, hinged flat across a shared edge.

        ``known`` and ``new`` are the edge's two cofaces as (triangle, local
        start index) pairs, ``pos_known`` holds planar positions of the known
        triangle's corners and ``a`` is the edge endpoint used as the hinge
        origin.  The new triangle lands on the opposite side of the edge.
        """
        (t_known, k_known), (t_new, k_new) = known, new
        # The two cofaces traverse the edge in opposite directions.
        if self.triangles[t_new, k_new] == a:
            la, lb, ka, kb = k_new, (k_new + 1) % 3, (k_known + 1) % 3, k_known
        else:
            la, lb, ka, kb = (k_new + 1) % 3, k_new, k_known, (k_known + 1) % 3
        lc = (k_new + 2) % 3
        pa, pb, pc_known = pos_known[ka], pos_known[kb], pos_known[(k_known + 2) % 3]
        # Local edge j is opposite corner j + 2.
        lengths = self.lengths[t_new].tolist()
        l_ab, l_ac, l_bc = lengths[k_new], lengths[(lb + 1) % 3], lengths[(la + 1) % 3]

        ex = (pb - pa) / np.linalg.norm(pb - pa)
        ey = np.array([-ex[1], ex[0]])
        xi = (l_ab**2 + l_ac**2 - l_bc**2) / (2.0 * l_ab)
        eta = np.sqrt(max(l_ac**2 - xi**2, 0.0))
        side_known = np.sign((pc_known - pa) @ ey)
        pc_new = pa + xi * ex - side_known * eta * ey

        out = np.empty((3, 2))
        out[la] = pa
        out[lb] = pb
        out[lc] = pc_new
        return out

    def _develop(self) -> None:
        m = len(self.triangles)
        dev = np.full((m, 3, 2), np.nan)
        visited = np.zeros(m, dtype=bool)
        # t -> (neighbor, shared edge, t's coface entry, the neighbor's)
        neighbors: dict[int, list] = {t: [] for t in range(m)}
        for key, (c0, c1) in self.interior_edges.items():
            neighbors[c0[0]].append((c1[0], key, c0, c1))
            neighbors[c1[0]].append((c0[0], key, c1, c0))
        for t in neighbors:
            neighbors[t].sort()
        for root in range(m):
            if visited[root]:
                continue
            dev[root] = self._root_positions(root)
            visited[root] = True
            queue = deque([root])
            while queue:
                t = queue.popleft()
                for t_next, key, known, new in neighbors[t]:
                    if visited[t_next]:
                        continue
                    dev[t_next] = self._unfold_against(dev[t], known, new, key[0])
                    visited[t_next] = True
                    queue.append(t_next)
        self.development = dev

    # -- topology helpers ----------------------------------------------------

    def euler_characteristic(self) -> int:
        return self.vertex_count - len(self.edge_cofaces) + len(self.triangles)

    def is_closed(self) -> bool:
        return len(self.interior_edges) == len(self.edge_cofaces)

    def vertex_cofaces(self, v: int) -> list[int]:
        return list(self._vertex_cofaces.get(v, []))

    def is_interior_vertex(self, v: int) -> bool:
        return v in self._vertex_cofaces and v not in self._boundary_vertices


# -- per-simplex geometry ----------------------------------------------------


def corner_angle(K: MetricComplex, t: int, v: int) -> float:
    """Interior angle of triangle t at vertex v, measured in t's metric."""
    tri = K.triangles[t].tolist()
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

    The frame is the Cholesky factor of the chart metric: coordinates
    y = L^T u have Euclidean inner products equal to metric ones, so the
    returned 2-vector is metric-orthogonal to the edge and has unit length.
    """
    tri = K.triangles[t].tolist()
    if face[0] not in tri or face[1] not in tri or face[0] == face[1]:
        raise NotAFacetError(f"edge {face} is not a facet of triangle {t}")
    lt = np.linalg.cholesky(K.chart_metrics[t]).T
    i, j = tri.index(face[0]), tri.index(face[1])
    y_edge = lt @ (_CHART[j] - _CHART[i])
    y_opp = lt @ (_CHART[3 - i - j] - _CHART[i])
    n = np.array([-y_edge[1], y_edge[0]])
    n /= np.linalg.norm(n)
    if n @ y_opp > 0.0:
        n = -n
    return n


# -- the connection ----------------------------------------------------------


def _interior_edge_entry(K: MetricComplex, face: tuple[int, int]):
    key = _edge_key(*face)
    entry = K.edge_cofaces.get(key)
    if entry is None:
        raise NotAFacetError(f"edge {face} is not in the complex")
    if len(entry) == 1:
        raise BoundaryFaceError(f"edge {face} lies on the boundary")
    return key, entry


def _edge_angle(K: MetricComplex, key: tuple[int, int]) -> float:
    """Transport angle across ``key`` from the lower- to the higher-index coface.

    It is the signed angle from the edge's developed vector in the lower
    coface to its developed vector in the higher one.
    """
    (lo, i), (hi, j) = K.edge_cofaces[key]
    # Consistent orientation: the two cofaces traverse the edge in opposite
    # directions, so reversing hi's directed edge matches lo's.
    u = K.development[lo][(i + 1) % 3] - K.development[lo][i]
    w = K.development[hi][j] - K.development[hi][(j + 1) % 3]
    return math.atan2(u[0] * w[1] - u[1] * w[0], u[0] * w[0] + u[1] * w[1])


def connection_element(K: MetricComplex, face: tuple[int, int]) -> GroupElement:
    """Connection element across an interior edge, oriented from the
    lower-index coface to the higher-index one."""
    key, _ = _interior_edge_entry(K, face)
    return GroupElement(SO2, SO2.exp_matrix(_edge_angle(K, key)))


@dataclass(frozen=True, eq=False)
class DualOneForm:
    """Connection elements on oriented dual edges; reversal inverts exactly."""

    complex: MetricComplex
    angles: dict[tuple[int, int], float] = field(repr=False)

    def value(self, face: tuple[int, int], source: int, target: int) -> GroupElement:
        key, entry = _interior_edge_entry(self.complex, face)
        tris = {t for t, _ in entry}
        if {source, target} != tris:
            raise NotAdjacentError(f"edge {key} does not join triangles {source} and {target}")
        theta = self.angles[key]
        if source > target:
            theta = -theta
        return GroupElement(SO2, SO2.exp_matrix(theta))

    def transport(self, source: int, target: int) -> GroupElement:
        """Transport across the (unique, deterministic) shared interior edge."""
        shared = _shared_interior_edges(self.complex, source, target)
        return self.value(shared[0], source, target)


def _shared_interior_edges(K: MetricComplex, source: int, target: int) -> list[tuple[int, int]]:
    """Sorted interior edges whose cofaces are exactly {source, target}."""
    if source == target:
        raise NotAdjacentError("a triangle is not adjacent to itself")
    m = len(K.triangles)
    if not (0 <= source < m and 0 <= target < m):
        raise NotAdjacentError(f"triangles {source} and {target} are not both in the complex")
    common = sorted(set(K.triangles[source].tolist()) & set(K.triangles[target].tolist()))
    out = [key for key in combinations(common, 2) if key in K.interior_edges]
    if not out:
        raise NotAdjacentError(f"triangles {source} and {target} share no interior edge")
    return out


def connection_form(K: MetricComplex) -> DualOneForm:
    """The Levi-Civita dual one-form: one rotation per interior edge."""
    angles = {key: _edge_angle(K, key) for key in sorted(K.interior_edges)}
    return DualOneForm(K, angles)


def _star_walk(K: MetricComplex, v: int) -> list[tuple[int, tuple[int, int]]]:
    """Cofaces of v in dual-loop order, starting at the smallest index, each
    paired with the edge the loop crosses to leave it."""
    cofaces = K.vertex_cofaces(v)
    if not cofaces:
        raise BoundaryHingeError(f"vertex {v} has no cofaces")
    start = min(cofaces)
    walk = []
    t = start
    while True:
        tri = K.triangles[t].tolist()
        # Crossing the edge to the predecessor vertex walks the star in
        # the direction induced by the face orientations, so the ordered
        # curvature product rotates by +defect rather than -defect.
        key = _edge_key(v, tri[(tri.index(v) + 2) % 3])
        entry = K.edge_cofaces[key]
        if len(entry) != 2:
            raise BoundaryHingeError(f"vertex {v} lies on the boundary (edge {key})")
        walk.append((t, key))
        t = next(tt for tt, _ in entry if tt != t)
        if t == start:
            break
        if len(walk) >= len(cofaces):
            raise MeshFormatError(f"star of vertex {v} is not a closed fan")
    if len(walk) != len(cofaces):
        raise MeshFormatError(f"star of vertex {v} is not a single closed fan")
    return walk


def curvature(K: MetricComplex, A: DualOneForm, hinge: int) -> GroupElement:
    """Ordered product of connection elements around the dual loop of a vertex.

    The loop starts at the coface with the smallest simplex index and follows
    the orientation of the complex; the rotation angle equals the angle
    defect at the vertex.
    """
    walk = _star_walk(K, hinge)
    h = np.eye(2)
    for (t, key), (t_next, _) in zip(walk, walk[1:] + walk[:1]):
        h = A.value(key, t, t_next).matrix @ h
    return GroupElement(SO2, h)


@dataclass(frozen=True, eq=False)
class DualTwoForm:
    """Curvature elements per interior hinge."""

    complex: MetricComplex
    values: dict[int, GroupElement] = field(repr=False)


def curvature_form(K: MetricComplex, A: DualOneForm) -> DualTwoForm:
    values = {
        v: curvature(K, A, v)
        for v in range(K.vertex_count)
        if K.is_interior_vertex(v)
    }
    return DualTwoForm(K, values)


def holonomy(K: MetricComplex, A: DualOneForm, loop: Sequence[int]) -> GroupElement:
    """Ordered transport around a closed dual path of triangle indices.

    The path must be explicitly closed (first == last, or a single simplex).
    """
    loop = [int(t) for t in loop]
    if not loop:
        raise NotClosedError("empty loop")
    if loop[0] != loop[-1]:
        raise NotClosedError("loop must start and end at the same simplex")
    h = np.eye(2)
    for a, b in zip(loop, loop[1:]):
        h = A.transport(a, b).matrix @ h
    return GroupElement(SO2, h)


def quality_report(K: MetricComplex, A: DualOneForm) -> dict[int, float]:
    """Curvature norm per interior hinge, sorted descending (ties by index)."""
    pairs = [
        (v, lg.conj_invariant_norm(curvature(K, A, v)))
        for v in range(K.vertex_count)
        if K.is_interior_vertex(v)
    ]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return dict(pairs)


def total_defect(K: MetricComplex) -> float:
    """Sum of angle defects over interior vertices (2 pi chi when closed)."""
    return float(
        sum(angle_defect(K, v) for v in range(K.vertex_count) if K.is_interior_vertex(v))
    )
