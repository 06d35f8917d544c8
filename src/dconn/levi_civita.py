"""SO(2)-valued parallel transport on triangulated surfaces.

A MetricComplex is an oriented triangle complex where every triangle
carries a constant positive-definite metric, given in the triangle's own
affine chart (basis v1-v0, v2-v0).  Metrics may come from per-triangle
Gram matrices, from per-edge lengths, or from an embedding.

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


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _gram_from_lengths(l01: float, l02: float, l12: float) -> np.ndarray:
    g01 = 0.5 * (l01**2 + l02**2 - l12**2)
    return np.array([[l01**2, g01], [g01, l02**2]])


class MetricComplex:
    """An oriented triangle complex with constant per-triangle metrics."""

    def __init__(self, vertex_count: int, triangles, chart_metrics, embedding=None):
        self.vertex_count = int(vertex_count)
        self.triangles = np.asarray(triangles, dtype=int)
        self.chart_metrics = np.asarray(chart_metrics, dtype=float)
        self.embedding = None if embedding is None else np.asarray(embedding, dtype=float)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshFormatError("triangles must be an (m, 3) index array")
        if self.chart_metrics.shape != (len(self.triangles), 2, 2):
            raise MeshFormatError("need one 2x2 chart metric per triangle")
        self._validate_combinatorics()
        self._validate_metrics()
        self._build_adjacency()
        self._develop()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edge_lengths(cls, vertex_count: int, triangles, lengths: dict) -> "MetricComplex":
        """Build from {(i, j): length} with i < j (abstract complex)."""
        tris = np.asarray(triangles, dtype=int)
        metrics = []
        for a, b, c in tris:
            try:
                l01 = lengths[_edge_key(a, b)]
                l02 = lengths[_edge_key(a, c)]
                l12 = lengths[_edge_key(b, c)]
            except KeyError as exc:
                raise MeshFormatError(f"missing edge length for {exc}") from exc
            metrics.append(_gram_from_lengths(l01, l02, l12))
        return cls(vertex_count, tris, np.array(metrics))

    @classmethod
    def from_embedding(cls, vertices, triangles) -> "MetricComplex":
        """Build from vertex coordinates (2D or 3D); metrics are the pulled-back Grams."""
        verts = np.asarray(vertices, dtype=float)
        tris = np.asarray(triangles, dtype=int)
        metrics = []
        for a, b, c in tris:
            e1 = verts[b] - verts[a]
            e2 = verts[c] - verts[a]
            metrics.append(np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]]))
        return cls(len(verts), tris, np.array(metrics), embedding=verts)

    # -- validation ---------------------------------------------------------

    def _validate_combinatorics(self) -> None:
        m = self.triangles
        if m.size and (m.min() < 0 or m.max() >= self.vertex_count):
            raise MeshFormatError("triangle vertex index out of range")
        directed: set[tuple[int, int]] = set()
        for t, (a, b, c) in enumerate(m):
            if len({a, b, c}) != 3:
                raise MeshFormatError(f"triangle {t} has repeated vertices")
            for e in ((a, b), (b, c), (c, a)):
                if e in directed:
                    raise MeshFormatError(
                        f"directed edge {e} appears twice; orientations are inconsistent"
                    )
                directed.add(e)

    def _validate_metrics(self) -> None:
        for t, g in enumerate(self.chart_metrics):
            if abs(g[0, 1] - g[1, 0]) > 1.0e-12 * max(1.0, abs(g[0, 1])):
                raise MeshFormatError(f"metric of triangle {t} is not symmetric")
            if g[0, 0] <= 0 or np.linalg.det(g) <= 0:
                raise MeshFormatError(f"metric of triangle {t} is not positive definite")

    # -- adjacency ----------------------------------------------------------

    def _build_adjacency(self) -> None:
        # edge key -> list of (triangle, local index of edge start), in
        # increasing triangle order.
        cofaces: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for t, tri in enumerate(self.triangles):
            for k in range(3):
                a, b = int(tri[k]), int(tri[(k + 1) % 3])
                cofaces.setdefault(_edge_key(a, b), []).append((t, k))
        for key, lst in cofaces.items():
            if len(lst) > 2:
                raise MeshFormatError(f"edge {key} has {len(lst)} cofaces")
        self.edge_cofaces = cofaces
        self.interior_edges = {k: v for k, v in cofaces.items() if len(v) == 2}
        # shared-edge length consistency across the two charts
        for key, lst in self.interior_edges.items():
            lens = [self._edge_length_in(t, key) for t, _ in lst]
            if abs(lens[0] - lens[1]) > CONSISTENCY_TOL * max(1.0, lens[0]):
                raise MeshFormatError(
                    f"edge {key} has inconsistent lengths {lens[0]!r} vs {lens[1]!r}"
                )
        self._boundary_vertices = {
            v for key, lst in cofaces.items() if len(lst) == 1 for v in key
        }
        vertex_cofaces: dict[int, list[int]] = {}
        for t, tri in enumerate(self.triangles):
            for v in tri:
                vertex_cofaces.setdefault(int(v), []).append(t)
        self._vertex_cofaces = vertex_cofaces

    def _local_index(self, t: int, v: int) -> int:
        tri = self.triangles[t]
        for k in range(3):
            if tri[k] == v:
                return k
        raise NotAFacetError(f"vertex {v} is not in triangle {t}")

    def _edge_length_in(self, t: int, edge: tuple[int, int]) -> float:
        """Length of the edge between two vertices of triangle t, in t's metric."""
        d = self.edge_vector_in(t, edge)
        return float(np.sqrt(d @ self.chart_metrics[t] @ d))

    def edge_vector_in(self, t: int, edge: tuple[int, int]) -> np.ndarray:
        """Chart vector of the directed edge edge[0] -> edge[1] inside triangle t."""
        i = self._local_index(t, edge[0])
        j = self._local_index(t, edge[1])
        return _CHART[j] - _CHART[i]

    # -- development --------------------------------------------------------

    def _root_positions(self, t: int) -> np.ndarray:
        g = self.chart_metrics[t]
        l00 = np.sqrt(g[0, 0])
        # Cholesky-transpose image of the chart corners; positively oriented.
        p1 = np.array([l00, 0.0])
        p2 = np.array([g[0, 1] / l00, np.sqrt(np.linalg.det(g)) / l00])
        return np.array([[0.0, 0.0], p1, p2])

    def _unfold_against(self, pos_known: np.ndarray, t_known: int, t_new: int,
                        edge: tuple[int, int]) -> np.ndarray:
        """Planar positions of t_new's corners, hinged flat across edge.

        ``pos_known`` holds planar positions of t_known's corners; the new
        triangle lands on the opposite side of the shared edge.
        """
        a, b = edge
        pa = pos_known[self._local_index(t_known, a)]
        pb = pos_known[self._local_index(t_known, b)]
        other_known = ({0, 1, 2} - {self._local_index(t_known, a), self._local_index(t_known, b)}).pop()
        pc_known = pos_known[other_known]

        la = self._local_index(t_new, a)
        lb = self._local_index(t_new, b)
        lc = ({0, 1, 2} - {la, lb}).pop()
        c = int(self.triangles[t_new][lc])
        l_ab = self._edge_length_in(t_new, (a, b))
        l_ac = self._edge_length_in(t_new, (a, c))
        l_bc = self._edge_length_in(t_new, (b, c))

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
        neighbors: dict[int, list[tuple[int, tuple[int, int]]]] = {t: [] for t in range(m)}
        for key, lst in self.interior_edges.items():
            (t0, _), (t1, _) = lst
            neighbors[t0].append((t1, key))
            neighbors[t1].append((t0, key))
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
                for t_next, key in neighbors[t]:
                    if visited[t_next]:
                        continue
                    dev[t_next] = self._unfold_against(dev[t], t, t_next, key)
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
    i = K._local_index(t, v)
    tri = K.triangles[t]
    j, k = (i + 1) % 3, (i + 2) % 3
    u = _CHART[j] - _CHART[i]
    w = _CHART[k] - _CHART[i]
    g = K.chart_metrics[t]
    cos_raw = float(u @ g @ w)
    cross = u[0] * w[1] - u[1] * w[0]
    sin_raw = float(np.sqrt(np.linalg.det(g)) * abs(cross))
    return float(np.arctan2(sin_raw, cos_raw))


def angle_defect(K: MetricComplex, v: int) -> float:
    """2 pi minus the total corner angle at v (meaningful for interior vertices)."""
    total = sum(corner_angle(K, t, v) for t in K.vertex_cofaces(v))
    return 2.0 * np.pi - total


def face_normal(K: MetricComplex, t: int, face: tuple[int, int]) -> np.ndarray:
    """Unit outward normal of an edge in triangle t's metric-orthonormal frame.

    The frame is the Cholesky factor of the chart metric: coordinates
    y = L^T u have Euclidean inner products equal to metric ones, so the
    returned 2-vector is metric-orthogonal to the edge and has unit length.
    """
    tri = K.triangles[t]
    if face[0] not in tri or face[1] not in tri or face[0] == face[1]:
        raise NotAFacetError(f"edge {face} is not a facet of triangle {t}")
    lt = np.linalg.cholesky(K.chart_metrics[t]).T
    i = K._local_index(t, face[0])
    j = K._local_index(t, face[1])
    k = ({0, 1, 2} - {i, j}).pop()
    y_edge = lt @ (_CHART[j] - _CHART[i])
    y_opp = lt @ (_CHART[k] - _CHART[i])
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
        tri = K.triangles[t]
        i = K._local_index(t, v)
        # Crossing the edge to the predecessor vertex walks the star in
        # the direction induced by the face orientations, so the ordered
        # curvature product rotates by +defect rather than -defect.
        key = _edge_key(v, int(tri[(i + 2) % 3]))
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
