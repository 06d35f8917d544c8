"""SO(2)-valued parallel transport on triangulated surfaces.

A MetricComplex is an oriented triangle complex where every triangle
carries a constant positive-definite metric, given in the triangle's own
affine chart (basis v1-v0, v2-v0).  Metrics may come from per-triangle
Gram matrices, from per-edge lengths, or from an embedding.

Geometry tables.  Building a complex validates its metrics and tabulates
them once: ``lengths[t, k]`` (local edge k -> k+1) and
``corner_angles[t, k]`` per triangle, ``angle_defects[v]`` per vertex.
Every length and angle query reads these arrays.  A triangle whose
smallest corner angle has sin^2 below SLIVER_SIN2 = 1e-12 is rejected with
MeshFormatError: past it the curvature angle at a vertex and the vertex's
angle defect drift apart, by 3e-10 at 1e-12 and by up to pi at 1e-15.

Frames.  Each triangle has one orthonormal frame, the Cholesky frame of its
chart metric, read off the corner angles: local edge k -> k + 1 points at
0, pi - corner_angles[t, 1] and corner_angles[t, 0] - pi in it, and its
outward normal (``face_normal``) is that direction turned by -pi/2.  Hinged
flat across an interior edge, the frame of the edge's lower-index coface
turns into the higher one's by the directions' difference plus pi.
The gauge is one angle per triangle, ``frame_angles[t]``, the rotation from
its frame into the developed plane: 0 at the lowest simplex index of each
connected component, and chosen along a breadth-first spanning tree of the
dual graph so that every tree edge carries exactly the identity.  The
transport angle of an interior edge, ``transport_angles[e]``, is that turn
plus the frame angles' difference, wrapped into (-pi, pi]; boundary edges
hold NaN.  Every flat complex carries the identity on all interior edges,
and curvature and holonomy are independent of this gauge choice.

Adjacency.  One edge table, built with the complex, answers every adjacency query.

Curvature.  SO(2) is abelian, so a transport adds the signed edge angles it
crosses: + leaving an edge's lower-index coface, - leaving the higher one.
The curvature at an interior vertex is the transport around the dual loop
of its star, in the direction the face orientations induce; its angle is
the angle defect mod 2 pi.  A star that is not a single closed fan
is rejected with MeshFormatError.
"""

from __future__ import annotations

import math
from collections import deque
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
from .lie_group import SO2, GroupElement

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
        self._build_adjacency()
        self._tabulate_metrics()
        self._frames()

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
        # Both cofaces of an edge must give it the same length.
        inner = self.edge_faces[:, 1] >= 0
        l0, l1 = self.lengths[self.edge_faces[inner], self.edge_local[inner]].T
        bad = np.flatnonzero(np.abs(l0 - l1) > CONSISTENCY_TOL * np.maximum(1.0, l0))
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
        # So every edge has one or two half-edges; np.unique returns the
        # first, in the lower triangle, and the maximum is the other one.
        keys, lower, halves = np.unique(
            np.minimum(tails, heads) * n + np.maximum(tails, heads),
            return_index=True, return_inverse=True,
        )
        upper = np.full(keys.size, -1)
        np.maximum.at(upper, halves, h)
        pairs = np.stack([lower, np.where(upper > lower, upper, -1)], axis=1)
        self.edges = np.stack(np.divmod(keys, n), axis=1)
        self.face_edges = halves.reshape(tris.shape)
        self.edge_faces, self.edge_local = np.where(pairs >= 0, np.divmod(pairs, 3), -1)
        degrees = np.bincount(tails, minlength=n)
        self.star_ptr = np.concatenate([[0], np.cumsum(degrees)])
        self.star_corners = np.argsort(tails, kind="stable")
        on_boundary = np.bincount(self.edges[pairs[:, 1] < 0].ravel(), minlength=n) > 0
        self.interior_vertices = (degrees > 0) & ~on_boundary
        # Around an interior vertex, corner h steps to the twin of the
        # half-edge entering it, 3 t + (k + 2) % 3: a permutation of the
        # vertex's corners with one cycle per closed fan.  Pointer jumping
        # labels each corner with the smallest corner on its cycle.
        twin = pairs[halves].sum(axis=1) - h  # -1 on the boundary
        step = twin[h - h % 3 + (h + 2) % 3]
        step, label, span = np.where(step >= 0, step, h), h, 1
        while span < degrees.max(initial=0):
            label, step, span = np.minimum(label, label[step]), step[step], 2 * span
        self.star_fans = np.bincount(tails[label == h], minlength=n)

    # -- frames -------------------------------------------------------------

    def _frames(self) -> None:
        """Frame angles along a breadth-first spanning tree, and every edge's
        transport angle."""
        m = len(self.triangles)
        dirs = _edge_directions(self.corner_angles)
        # Rotation from the lower coface's frame to the higher one's across
        # each interior edge; the cofaces traverse it in opposite directions.
        (lo, hi), (i, j) = self.edge_faces.T, self.edge_local.T
        cross = np.where(hi >= 0, dirs[hi, j] + np.pi - dirs[lo, i], np.nan)
        # Each triangle's (neighbour, edge) across its local edges, by
        # neighbour and edge id; neighbour -1 across the boundary.
        fe = self.face_edges
        faces = self.edge_faces[fe]
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
                    # Makes the tree edge's cross + psi_hi - psi_lo zero; the
                    # remainder keeps psi, and so its roundoff, within [-pi, pi].
                    turn = -crosses[e] if t < t_next else crosses[e]
                    psi[t_next] = math.remainder(psi[t] + turn, math.tau)
                    visited[t_next] = True
                    tree.append(e)
                    queue.append(t_next)
        self.frame_angles = np.array(psi)
        theta = cross + self.frame_angles[hi] - self.frame_angles[lo]
        theta -= math.tau * np.ceil((theta - np.pi) / math.tau)  # into (-pi, pi]
        theta[tree] = 0.0
        theta.flags.writeable = False
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

    The triangle runs counterclockwise in its frame, so the outward normal
    is the direction of the edge, as the triangle traverses it, turned by
    -pi/2.
    """
    tri = K.triangles[t].tolist()
    if face[0] not in tri or face[1] not in tri or face[0] == face[1]:
        raise NotAFacetError(f"edge {face} is not a facet of triangle {t}")
    i, j = tri.index(face[0]), tri.index(face[1])
    phi = _edge_directions(K.corner_angles[t])[i if j == (i + 1) % 3 else j]
    return np.array([np.sin(phi), -np.cos(phi)])


# -- the connection ----------------------------------------------------------


def _rotation(theta: float) -> GroupElement:
    return GroupElement(SO2, SO2.exp_matrix(theta), True)


def _interior_edge(K: MetricComplex, face: tuple[int, int]) -> int:
    """Edge id of an interior edge, looked up in the sorted edge table."""
    a, b = _edge_key(*face)
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
        return _rotation(_crossings(K, self, e, source))


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
    return _rotation(_turns(K, A, corners).sum())


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
    loop = np.array([int(t) for t in loop], dtype=int)
    if not loop.size:
        raise NotClosedError("empty loop")
    if loop[0] != loop[-1]:
        raise NotClosedError("loop must start and end at the same simplex")
    outside = loop[(loop < 0) | (loop >= len(K.triangles))]
    if outside.size:
        raise NotAdjacentError(f"triangle {outside[0]} is not in the complex")
    sources, targets = loop[:-1], loop[1:]
    return _rotation(_crossings(K, A, _shared_edges(K, sources, targets), sources).sum())


def quality_report(K: MetricComplex, A: DualOneForm) -> dict[int, float]:
    """Curvature norm per interior hinge, sorted descending (ties by index)."""
    vertices, angles = _curvature_angles(K, A)
    norms = np.abs(np.arctan2(np.sin(angles), np.cos(angles)))  # as SO2.log_vector reads them
    order = np.lexsort((vertices, -norms))
    if order.size:  # log_vector rejects the cut locus; the largest norm is nearest it
        SO2.log_vector(SO2.exp_matrix(angles[order[0]]))
    return dict(zip(vertices[order].tolist(), norms[order].tolist()))


def total_defect(K: MetricComplex) -> float:
    """Sum of angle defects over interior vertices (2 pi chi when closed)."""
    return float(sum(K.angle_defects[K.interior_vertices].tolist()))
