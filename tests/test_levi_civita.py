"""Triangle frames, discrete Levi-Civita transport, curvature, holonomy."""

import math

import numpy as np
import pytest

from dconn.errors import (
    BoundaryFaceError,
    BoundaryHingeError,
    MeshFormatError,
    NotAdjacentError,
    NotAFacetError,
    NotClosedError,
)
from dconn.levi_civita import (
    SLIVER_SIN2,
    MetricComplex,
    angle_defect,
    connection_form,
    corner_angle,
    curvature,
    face_normal,
    holonomy,
    quality_report,
    total_defect,
)
from dconn.meshes import (
    cone,
    flat_grid,
    icosahedron,
    icosphere,
    latitude_loop,
    tetrahedron,
    torus_grid,
)


# Chart positions of a triangle's three vertices.
CHART = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_angle(m: np.ndarray) -> float:
    return math.atan2(m[1, 0], m[0, 0])


def build(parts) -> MetricComplex:
    vertex_count, tris, lengths = parts
    return MetricComplex.from_edge_lengths(vertex_count, tris, lengths)


def local_indices(K: MetricComplex, t: int, edge) -> tuple[int, int]:
    tri = list(K.triangles[t])
    return tri.index(edge[0]), tri.index(edge[1])


def hinges(K: MetricComplex) -> list[tuple[tuple[int, int], int, int]]:
    """(edge key, lower coface, higher coface) of every interior edge, by key."""
    inner = np.flatnonzero(K.edge_faces[:, 1] >= 0)
    return [(tuple(key), lo, hi)
            for key, (lo, hi) in zip(K.edges[inner].tolist(), K.edge_faces[inner].tolist())]


def boundary_edge(K: MetricComplex) -> tuple[int, int]:
    return tuple(K.edges[np.flatnonzero(K.edge_faces[:, 1] < 0)[0]].tolist())


def developed_edge(K: MetricComplex, t: int, edge) -> np.ndarray:
    """An edge vector of triangle t, turned from its Cholesky frame into the developed plane."""
    i, j = local_indices(K, t, edge)
    lt = np.linalg.cholesky(K.chart_metrics[t]).T
    return rot(K.frame_angles[t]) @ lt @ (CHART[j] - CHART[i])


def developed_outward_normal(K: MetricComplex, t: int, edge) -> np.ndarray:
    return rot(K.frame_angles[t]) @ face_normal(K, t, edge)


# -- per-simplex geometry ------------------------------------------------------


def test_corner_angles_of_right_triangle():
    K = MetricComplex.from_edge_lengths(3, [(0, 1, 2)], {(0, 1): 3.0, (0, 2): 4.0, (1, 2): 5.0})
    assert corner_angle(K, 0, 0) == pytest.approx(math.pi / 2, abs=1e-12)
    assert corner_angle(K, 0, 1) == pytest.approx(math.atan2(4.0, 3.0), abs=1e-12)
    assert corner_angle(K, 0, 2) == pytest.approx(math.atan2(3.0, 4.0), abs=1e-12)
    total = sum(corner_angle(K, 0, v) for v in range(3))
    assert total == pytest.approx(math.pi, abs=1e-12)
    with pytest.raises(NotAFacetError):
        corner_angle(K, 0, 3)


def test_face_normal_of_unit_right_triangle():
    K = MetricComplex.from_embedding(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                                     np.array([[0, 1, 2]]))
    n = face_normal(K, 0, (1, 2))
    assert np.max(np.abs(n - np.array([1.0, 1.0]) / math.sqrt(2.0))) < 1e-12
    assert np.max(np.abs(face_normal(K, 0, (0, 1)) - [0.0, -1.0])) < 1e-12


def test_face_normals_are_unit_and_metric_orthogonal():
    verts, faces = icosahedron()
    K = MetricComplex.from_embedding(verts, faces)
    for t in range(5):
        tri = K.triangles[t]
        lt = np.linalg.cholesky(K.chart_metrics[t]).T
        for k in range(3):
            edge = (int(tri[k]), int(tri[(k + 1) % 3]))
            n = face_normal(K, t, edge)
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            y_edge = lt @ (CHART[(k + 1) % 3] - CHART[k])
            assert abs(n @ y_edge) < 1e-12


def test_face_normal_rejects_non_facets():
    K = build(flat_grid(2, 2))
    tri = set(int(v) for v in K.triangles[0])
    outside = (min(tri), max(set(range(K.vertex_count)) - tri))
    with pytest.raises(NotAFacetError):
        face_normal(K, 0, outside)


# -- frames and the connection ----------------------------------------------


def test_flat_grid_connection_is_identity():
    K = build(flat_grid(3, 3))
    A = connection_form(K)
    interior = K.edge_faces[:, 1] >= 0
    assert interior.any()
    assert np.isnan(A.angles[~interior]).all()
    for theta in A.angles[interior]:
        assert abs(theta) < 1e-12


def test_transport_matches_developments_across_every_hinge():
    # Defining property of the frame gauge: the connection element carries
    # lo-developed vectors to hi-developed vectors across the hinge.
    cases = [
        MetricComplex.from_embedding(*icosahedron()),
        build(flat_grid(3, 2)),
        build(torus_grid(4, 4)),
        build(cone(5)),
        # Two triangles sharing all three edges.
        MetricComplex.from_edge_lengths(3, [(0, 1, 2), (0, 2, 1)],
                                        {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}),
    ]
    for K in cases:
        A = connection_form(K)
        for key, lo, hi in hinges(K):
            r = A.value(key, lo, hi).matrix
            u_lo, u_hi = developed_edge(K, lo, key), developed_edge(K, hi, key)
            assert np.max(np.abs(r @ u_lo - u_hi)) < 1e-10
            n_lo = developed_outward_normal(K, lo, key)
            n_hi = developed_outward_normal(K, hi, key)
            assert np.max(np.abs(r @ n_lo + n_hi)) < 1e-10


def test_spanning_tree_edges_carry_exact_identity():
    # Frame angles are chosen so that every spanning-tree edge carries 0.0.
    for K in (MetricComplex.from_embedding(*icosphere(1)),
              build(flat_grid(3, 3)),
              build(torus_grid(5, 4))):
        angles = connection_form(K).angles
        assert np.count_nonzero(angles == 0.0) >= len(K.triangles) - 1


def test_disconnected_complex_has_one_tree_per_component():
    # A tetrahedron and an icosahedron side by side: two spanning-tree roots.
    tv, tf = tetrahedron()
    iv, i_f = icosahedron()
    K = MetricComplex.from_embedding(np.concatenate([tv, iv]), np.concatenate([tf, i_f + len(tv)]))
    assert K.euler_characteristic() == 4
    A = connection_form(K)
    assert np.count_nonzero(A.angles == 0.0) >= len(K.triangles) - 2
    for v in range(K.vertex_count):
        gap = (rotation_angle(curvature(K, A, v).matrix) - angle_defect(K, v)) % (2.0 * math.pi)
        assert min(gap, 2.0 * math.pi - gap) < 1e-10
    assert total_defect(K) == pytest.approx(8.0 * math.pi, abs=1e-12)


def test_dual_one_form_reversal_inverts():
    K = MetricComplex.from_embedding(*icosahedron())
    A = connection_form(K)
    for key, t0, t1 in hinges(K)[:10]:
        forward = A.value(key, t0, t1).matrix
        backward = A.value(key, t1, t0).matrix
        assert np.max(np.abs(forward @ backward - np.eye(2))) < 1e-14


def test_dual_one_form_guards_arguments():
    K = build(flat_grid(2, 2))
    A = connection_form(K)
    key, t0, t1 = hinges(K)[0]
    with pytest.raises(NotAdjacentError):
        A.value(key, t0, t0 + 100)
    with pytest.raises(BoundaryFaceError):
        A.value(boundary_edge(K), t0, t1)
    with pytest.raises(NotAFacetError):
        A.value((0, K.vertex_count - 1), t0, t1)
    with pytest.raises(NotAdjacentError):
        holonomy(K, A, [t0, t0])


# -- curvature ---------------------------------------------------------------------


def test_flat_grid_curvature_vanishes():
    K = build(flat_grid(3, 3))
    report = quality_report(K, connection_form(K))
    assert set(report) == {v for v in range(K.vertex_count) if K.is_interior_vertex(v)}
    assert report
    for v, norm in report.items():
        assert norm < 1e-12
        assert abs(angle_defect(K, v)) < 1e-12


def test_cone_curvature_signs():
    # 5 equilateral wedges leave a positive defect, 7 leave a negative one.
    for k, want in ((5, math.pi / 3), (7, -math.pi / 3)):
        K = build(cone(k))
        A = connection_form(K)
        g = curvature(K, A, 0)
        assert rotation_angle(g.matrix) == pytest.approx(want, abs=1e-12)
        assert angle_defect(K, 0) == pytest.approx(want, abs=1e-12)


def test_cone_defect_is_scale_invariant():
    K = build(cone(5, side=2.0))
    assert angle_defect(K, 0) == pytest.approx(math.pi / 3, abs=1e-12)


def test_icosahedron_curvature_is_uniform():
    K = MetricComplex.from_embedding(*icosahedron())
    A = connection_form(K)
    for v in range(12):
        g = curvature(K, A, v)
        assert rotation_angle(g.matrix) == pytest.approx(math.pi / 3, abs=1e-12)
        assert abs(rotation_angle(g.matrix) - angle_defect(K, v)) < 1e-12


def test_curvature_angle_equals_defect_on_irregular_mesh():
    verts, faces = icosphere(1)
    K = MetricComplex.from_embedding(verts, faces)
    A = connection_form(K)
    for v in range(0, K.vertex_count, 7):
        g = curvature(K, A, v)
        assert rotation_angle(g.matrix) == pytest.approx(angle_defect(K, v), abs=1e-11)


def test_tetrahedron_half_turn_curvature():
    # Each vertex defect is exactly pi; compare matrices, the principal log
    # is undefined there.
    K = MetricComplex.from_embedding(*tetrahedron())
    A = connection_form(K)
    for v in range(4):
        assert angle_defect(K, v) == pytest.approx(math.pi, abs=1e-12)
        g = curvature(K, A, v)
        assert np.max(np.abs(g.matrix + np.eye(2))) < 1e-12
    assert total_defect(K) == pytest.approx(4.0 * math.pi, abs=1e-12)


def test_curvature_rejects_vertices_off_the_interior():
    K = build(flat_grid(2, 2))
    A = connection_form(K)
    boundary_vertex = 0
    assert not K.is_interior_vertex(boundary_vertex)
    with pytest.raises(BoundaryHingeError):
        curvature(K, A, boundary_vertex)
    for outside in (-1, K.vertex_count):
        for query in (lambda v: curvature(K, A, v), lambda v: angle_defect(K, v)):
            with pytest.raises(BoundaryHingeError):
                query(outside)


# -- holonomy ----------------------------------------------------------------------


def test_holonomy_of_trivial_loops():
    K = MetricComplex.from_embedding(*icosahedron())
    A = connection_form(K)
    assert np.max(np.abs(holonomy(K, A, [3]).matrix - np.eye(2))) < 1e-15
    _, t0, t1 = hinges(K)[0]
    there_and_back = holonomy(K, A, [t0, t1, t0])
    assert np.max(np.abs(there_and_back.matrix - np.eye(2))) < 1e-14


def test_holonomy_around_cone_apex():
    K = build(cone(5))
    A = connection_form(K)
    loop = [0, 1, 2, 3, 4, 0]
    g = holonomy(K, A, loop)
    assert abs(abs(rotation_angle(g.matrix)) - math.pi / 3) < 1e-12
    # Starting elsewhere conjugates the holonomy; SO(2) is abelian, so the
    # element is unchanged.
    shifted = holonomy(K, A, [2, 3, 4, 0, 1, 2])
    assert np.max(np.abs(shifted.matrix - g.matrix)) < 1e-13
    reverse = holonomy(K, A, loop[::-1])
    assert np.max(np.abs(reverse.matrix - g.matrix.T)) < 1e-13


def test_holonomy_rejects_open_or_broken_paths():
    K = build(cone(5))
    A = connection_form(K)
    with pytest.raises(NotClosedError):
        holonomy(K, A, [])
    with pytest.raises(NotClosedError):
        holonomy(K, A, [0, 1, 2])
    with pytest.raises(NotAdjacentError):
        holonomy(K, A, [0, 2, 0])
    for outside in (-1, len(K.triangles)):
        with pytest.raises(NotAdjacentError):
            holonomy(K, A, [0, outside, 0])
        with pytest.raises(NotAdjacentError, match="not in the complex"):
            holonomy(K, A, [outside])


@pytest.mark.parametrize("query", [
    lambda K, A: quality_report(K, A),
    lambda K, A: curvature(K, A, 0),
    lambda K, A: holonomy(K, A, [0, 1, 2, 3, 4, 0]),
], ids=["quality_report", "curvature", "holonomy"])
def test_connection_form_of_another_complex_is_refused(query):
    grid = build(flat_grid(4, 4))
    with pytest.raises(MeshFormatError, match="connection form belongs to another complex"):
        query(build(cone(5)), connection_form(grid))


# -- reports and invariants -----------------------------------------------------------


def test_quality_report_cone_and_grid():
    K = build(cone(6, side=1.0))
    # All six wedges are equilateral: the apex is exactly flat.
    A = connection_form(K)
    report = quality_report(K, A)
    assert list(report) == [0]
    assert report[0] < 1e-12
    K5 = build(cone(5))
    report5 = quality_report(K5, connection_form(K5))
    assert list(report5) == [0]
    assert report5[0] == pytest.approx(math.pi / 3, abs=1e-12)
    grid = build(flat_grid(3, 3))
    for norm in quality_report(grid, connection_form(grid)).values():
        assert norm < 1e-12


def test_quality_report_sorted_descending():
    verts, faces = icosphere(1)
    K = MetricComplex.from_embedding(verts, faces)
    report = quality_report(K, connection_form(K))
    assert set(report) == {v for v in range(K.vertex_count) if K.is_interior_vertex(v)}
    norms = list(report.values())
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    # After one subdivision the midpoint vertices carry the larger defect.
    assert all(v >= 12 for v in list(report)[:30])
    assert sorted(list(report)[30:]) == list(range(12))


def test_quality_report_tie_breaks_by_index():
    # Two identical disjoint cones produce bitwise-equal curvature norms.
    v5, t5, l5 = cone(5)
    tris = np.concatenate([t5, t5 + v5])
    lengths = dict(l5)
    lengths.update({(a + v5, b + v5): l for (a, b), l in l5.items()})
    K = MetricComplex.from_edge_lengths(2 * v5, tris, lengths)
    report = quality_report(K, connection_form(K))
    assert list(report) == [0, v5]


def two_tetrahedra_sharing_a_vertex() -> tuple[np.ndarray, np.ndarray]:
    """A closed complex whose vertex 0 has two fans of three triangles each."""
    corner = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    verts = np.concatenate([corner, -corner[1:]])
    faces = []
    for tet in ((0, 1, 2, 3), (0, 4, 5, 6)):
        center = verts[list(tet)].mean(axis=0)
        for skip in range(4):
            a, b, c = (tet[i] for i in range(4) if i != skip)
            normal = np.cross(verts[b] - verts[a], verts[c] - verts[a])
            faces.append((a, b, c) if normal @ (verts[a] - center) > 0.0 else (a, c, b))
    return verts, np.array(faces)


def test_non_manifold_vertex_is_rejected():
    K = MetricComplex.from_embedding(*two_tetrahedra_sharing_a_vertex())
    assert K.is_closed()
    A = connection_form(K)
    for query in (lambda: curvature(K, A, 0), lambda: quality_report(K, A)):
        with pytest.raises(MeshFormatError, match="star of vertex 0 is not a single closed fan"):
            query()
    # Every other vertex has an ordinary closed fan.
    for v in range(1, K.vertex_count):
        gap = (rotation_angle(curvature(K, A, v).matrix) - angle_defect(K, v)) % (2.0 * math.pi)
        assert min(gap, 2.0 * math.pi - gap) < 1e-12


def test_total_defect_is_topological():
    K = MetricComplex.from_embedding(*icosahedron())
    assert K.is_closed()
    assert K.euler_characteristic() == 2
    assert total_defect(K) == pytest.approx(4.0 * math.pi, abs=1e-12)
    T = build(torus_grid(4, 4))
    assert T.is_closed()
    assert T.euler_characteristic() == 0
    assert abs(total_defect(T)) < 1e-9
    for v in range(T.vertex_count):
        assert abs(angle_defect(T, v)) < 1e-12
    G = build(flat_grid(3, 3))
    assert not G.is_closed()
    assert G.euler_characteristic() == 1
    assert abs(total_defect(G)) < 1e-12


# -- latitude loops ---------------------------------------------------------------------


def test_latitude_loop_is_closed_and_deterministic():
    verts, faces = icosphere(2)
    K = MetricComplex.from_embedding(verts, faces)
    loop, enclosed = latitude_loop(K, math.radians(50.0))
    again, enclosed2 = latitude_loop(K, math.radians(50.0))
    assert loop == again and enclosed == enclosed2
    assert loop[0] == loop[-1] and len(loop) > 4
    z_cut = math.cos(math.radians(50.0))
    assert enclosed == [int(v) for v in np.flatnonzero(K.embedding[:, 2] > z_cut)]
    A = connection_form(K)
    g = holonomy(K, A, loop)  # consecutive entries must be adjacent
    # The loop holonomy integrates exactly the defect it encloses.
    inside = sum(angle_defect(K, v) for v in enclosed)
    diff = (rotation_angle(g.matrix) - inside) % (2.0 * math.pi)
    assert min(diff, 2.0 * math.pi - diff) < 1e-11


def test_latitude_loop_input_validation():
    T = build(torus_grid(4, 4))
    with pytest.raises(MeshFormatError):
        latitude_loop(T, 1.0)
    verts, faces = icosphere(1)
    K = MetricComplex.from_embedding(verts, faces)
    with pytest.raises(BoundaryHingeError):
        latitude_loop(K, 0.0)
    # The raw icosahedron has no pole vertices: at colatitude pi everything
    # sits above the cut and nothing is separated.
    ico = MetricComplex.from_embedding(*icosahedron())
    with pytest.raises(BoundaryHingeError):
        latitude_loop(ico, math.pi)


# -- format validation ---------------------------------------------------------------------


def test_rejects_inconsistent_orientations():
    with pytest.raises(MeshFormatError):
        MetricComplex.from_edge_lengths(
            4, [(0, 1, 2), (0, 1, 3)],
            {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0, (0, 3): 1.0, (1, 3): 1.0})
    # A fin: a third triangle on edge (0, 1) always repeats a directed edge.
    fin = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
    with pytest.raises(MeshFormatError, match="more than two triangles"):
        MetricComplex.from_edge_lengths(5, fin, {key: 1.0 for key in (
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4))})


def test_rejects_degenerate_triangles_and_bad_indices():
    with pytest.raises(MeshFormatError):
        MetricComplex.from_edge_lengths(3, [(0, 1, 1)], {(0, 1): 1.0, (1, 1): 1.0})
    with pytest.raises(MeshFormatError):
        MetricComplex.from_edge_lengths(3, [(0, 1, 5)],
                                        {(0, 1): 1.0, (0, 5): 1.0, (1, 5): 1.0})


def test_rejects_sliver_triangles():
    # A flat fan whose ring vertex 2 sits a relative 1e-14 short of ring
    # vertex 3: accepted, its defect read -1e-8 but its curvature turned 2.09.
    ring = [[math.cos(math.pi * i / 3), math.sin(math.pi * i / 3)] for i in range(6)]
    ring[1] = [(1.0 - 1e-14) * x for x in ring[2]]
    fan = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    with pytest.raises(MeshFormatError, match="sliver"):
        MetricComplex.from_embedding(np.array([[0.0, 0.0]] + ring), fan)
    # Two unit edges at a small angle: the metric's determinant is its sin^2.
    def thin(sin2):
        c = math.sqrt(1.0 - sin2)
        return MetricComplex(3, [(0, 1, 2)], np.array([[[1.0, c], [c, 1.0]]]))
    thin(10.0 * SLIVER_SIN2)
    with pytest.raises(MeshFormatError, match="sliver"):
        thin(0.1 * SLIVER_SIN2)


def test_rejects_missing_and_impossible_lengths():
    with pytest.raises(MeshFormatError):
        MetricComplex.from_edge_lengths(3, [(0, 1, 2)], {(0, 1): 1.0, (0, 2): 1.0})
    # Triangle inequality violation makes the Gram matrix indefinite.
    with pytest.raises(MeshFormatError):
        MetricComplex.from_edge_lengths(3, [(0, 1, 2)],
                                        {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 3.0})


def test_rejects_inconsistent_shared_edge_lengths():
    metrics = np.array([np.eye(2), 4.0 * np.eye(2)])
    with pytest.raises(MeshFormatError):
        MetricComplex(4, [(0, 1, 2), (1, 0, 3)], metrics)


def test_rejects_asymmetric_and_indefinite_metrics():
    bad_sym = np.array([[[1.0, 0.5], [-0.5, 1.0]]])
    with pytest.raises(MeshFormatError):
        MetricComplex(3, [(0, 1, 2)], bad_sym)
    indefinite = np.array([[[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(MeshFormatError):
        MetricComplex(3, [(0, 1, 2)], indefinite)


def test_rejects_bad_shapes():
    with pytest.raises(MeshFormatError):
        MetricComplex(3, [(0, 1)], np.array([np.eye(2)]))
    with pytest.raises(MeshFormatError):
        MetricComplex(3, [(0, 1, 2)], np.zeros((2, 2, 2)))
