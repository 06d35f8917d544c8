"""Triangle frames, discrete Levi-Civita transport, curvature, holonomy."""

import math
import re

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


def framed_edge(K: MetricComplex, t: int, edge) -> np.ndarray:
    """An edge vector of triangle t in its Cholesky frame."""
    i, j = local_indices(K, t, edge)
    lt = np.linalg.cholesky(K.chart_metrics[t]).T
    return lt @ (CHART[j] - CHART[i])


def torus_generators(n: int, m: int) -> list[list[int]]:
    """Dual loops once around ``torus_grid(n, m)``: through its first row of
    cells, and up its first column."""
    row = [0] + [t for c in range(1, n) for t in (2 * c + 1, 2 * c)] + [1, 0]
    column = [t for j in range(m) for t in (2 * n * j, 2 * n * j + 1)] + [0]
    return [row, column]


# -- per-simplex geometry ------------------------------------------------------


def test_corner_angles_of_right_triangle():
    K = MetricComplex.from_edge_lengths(3, [(0, 1, 2)], [[0, 1, 3.0], [0, 2, 4.0], [1, 2, 5.0]])
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


def test_triangle_indices_outside_the_complex_are_refused():
    # -1 would wrap to the last triangle, F and beyond would leave the table.
    K = build(cone(5))
    f = len(K.triangles)
    for t in (-1, f, f + 10):
        with pytest.raises(NotAFacetError, match=f"triangle {t} is not in the complex"):
            corner_angle(K, t, 0)
        with pytest.raises(NotAFacetError, match=f"triangle {t} is not in the complex"):
            face_normal(K, t, (0, 1))


# -- frames and the connection ----------------------------------------------


def test_flat_grids_and_tori_have_no_curvature():
    # Every interior star and both torus generators transport by the identity.
    for K, loops in ((build(flat_grid(3, 3)), []), (build(flat_grid(4, 2)), []),
                     (build(torus_grid(4, 4)), torus_generators(4, 4)),
                     (build(torus_grid(5, 3)), torus_generators(5, 3))):
        A = connection_form(K)
        interior = K.edge_faces[:, 1] >= 0
        assert interior.any()
        assert np.isnan(A.angles[~interior]).all()
        vertices = np.flatnonzero(K.interior_vertices).tolist()
        assert vertices
        for g in [curvature(K, A, v) for v in vertices] + [holonomy(K, A, l) for l in loops]:
            assert np.max(np.abs(g.matrix - np.eye(2))) <= 1e-15


def test_transport_matches_frames_across_every_hinge():
    # Defining property of the transport: the connection element carries
    # the lower coface's frame into the higher one's, hinged flat across
    # the edge, so it turns the shared edge vector of one into the other's.
    cases = [
        MetricComplex.from_embedding(*icosahedron()),
        build(flat_grid(3, 2)),
        build(torus_grid(4, 4)),
        build(cone(5)),
        # Two triangles sharing all three edges.
        MetricComplex.from_edge_lengths(3, [(0, 1, 2), (0, 2, 1)],
                                        [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]),
    ]
    for K in cases:
        A = connection_form(K)
        for key, lo, hi in hinges(K):
            r = A.value(key, lo, hi).matrix
            u_lo, u_hi = framed_edge(K, lo, key), framed_edge(K, hi, key)
            assert np.max(np.abs(r @ u_lo - u_hi)) < 1e-10
            n_lo, n_hi = face_normal(K, lo, key), face_normal(K, hi, key)
            assert np.max(np.abs(r @ n_lo + n_hi)) < 1e-10


TABLES = {"triangles", "chart_metrics", "edges", "face_edges", "edge_faces", "edge_local",
          "star_ptr", "star_corners", "interior_vertices", "star_fans", "lengths",
          "corner_angles", "angle_defects", "transport_angles"}


def test_complex_tables_are_read_only_and_the_callers_arrays_stay_writable():
    verts, faces = icosahedron()
    embedded = MetricComplex.from_embedding(verts, faces)
    metrics = np.array(embedded.chart_metrics)
    direct = MetricComplex(len(verts), faces, metrics)
    for K, tables in ((embedded, TABLES | {"embedding"}), (direct, TABLES),
                      (build(cone(5)), TABLES)):
        arrays = {name: a for name, a in vars(K).items() if isinstance(a, np.ndarray)}
        assert arrays.keys() == tables
        for name, a in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
    # The constructors took these arrays as they were; they are still the caller's to write.
    for own in (verts, faces, metrics):
        assert own.flags.writeable
        own[0] = own[0]


def test_disconnected_complex_curvature_reads_the_defects():
    # A tetrahedron and an icosahedron side by side.
    tv, tf = tetrahedron()
    iv, i_f = icosahedron()
    K = MetricComplex.from_embedding(np.concatenate([tv, iv]), np.concatenate([tf, i_f + len(tv)]))
    assert K.euler_characteristic() == 4
    A = connection_form(K)
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
    # 10**20 once reached numpy and raised its OverflowError.
    for outside in (-1, len(K.triangles), 10**20):
        with pytest.raises(NotAdjacentError, match=f"triangle {outside} is not in the complex"):
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
    lengths = np.concatenate([l5, l5 + [v5, v5, 0.0]])
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
            [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0], [0, 3, 1.0], [1, 3, 1.0]])
    # A fin: a third triangle on edge (0, 1) always repeats a directed edge.
    fin = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
    with pytest.raises(MeshFormatError, match="more than two triangles"):
        MetricComplex.from_edge_lengths(5, fin, [[a, b, 1.0] for a, b in (
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4))])


def test_rejects_degenerate_triangles_and_bad_indices():
    with pytest.raises(MeshFormatError):
        MetricComplex.from_edge_lengths(3, [(0, 1, 1)], [[0, 1, 1.0], [1, 1, 1.0]])
    with pytest.raises(MeshFormatError):
        MetricComplex.from_edge_lengths(3, [(0, 1, 5)],
                                        [[0, 1, 1.0], [0, 5, 1.0], [1, 5, 1.0]])


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
        MetricComplex.from_edge_lengths(3, [(0, 1, 2)], [[0, 1, 1.0], [0, 2, 1.0]])
    # Triangle inequality violation makes the Gram matrix indefinite.
    with pytest.raises(MeshFormatError):
        MetricComplex.from_edge_lengths(3, [(0, 1, 2)],
                                        [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 3.0]])


UNIT_ROWS = [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]


@pytest.mark.parametrize("rows, message", [
    (UNIT_ROWS + [[0, 1, -1.0]], "edge (0, 1) length -1.0 is not positive and finite"),
    ([[0, 1, -1.0]] + UNIT_ROWS[1:], "edge (0, 1) length -1.0 is not positive and finite"),
    (UNIT_ROWS[:2] + [[2, 1, math.inf]], "edge (2, 1) length inf is not positive and finite"),
    (UNIT_ROWS[:2] + [[1, 2, math.nan]], "edge (1, 2) length nan is not positive and finite"),
    ([[a, b, 1e200] for a, b, _ in UNIT_ROWS], "edge (0, 1) length 1e+200 has no finite square"),
    (UNIT_ROWS + [[1, 0, 1.5]], "edge (0, 1) is listed with lengths 1.0 and 1.5"),
    (UNIT_ROWS[:2], "missing edge length for (1, 2)"),
    (UNIT_ROWS + [[0, 3, 1.0]], "edge (0, 3) ends must be vertex indices below 3"),
    (UNIT_ROWS + [[-1, 2, 1.0]], "edge (-1, 2) ends must be vertex indices below 3"),
    (UNIT_ROWS + [[0.5, 2, 1.0]], "edge (0.5, 2) ends must be vertex indices below 3"),
    (UNIT_ROWS + [[math.nan, 2, 1.0]], "edge (nan, 2) ends must be vertex indices below 3"),
    ([[0, 1]], "must be an (E, 3) array of [a, b, length] rows"),
])
def test_rejects_bad_edge_length_rows_naming_the_edge(rows, message):
    # -1.0 once squared to a valid metric, and inf, nan and 1e200 reached the
    # determinant with RuntimeWarnings.
    with pytest.raises(MeshFormatError, match=re.escape(message)):
        MetricComplex.from_edge_lengths(3, [(0, 1, 2)], rows)


def test_rejects_non_finite_coordinates_and_metrics():
    for bad in (math.nan, math.inf):
        with pytest.raises(MeshFormatError, match="vertex 2 has a non-finite coordinate"):
            MetricComplex.from_embedding([[0.0, 0.0], [1.0, 0.0], [0.0, bad]], [(0, 1, 2)])
        with pytest.raises(MeshFormatError, match="metric of triangle 1 is not finite"):
            MetricComplex(4, [(0, 1, 2), (1, 0, 3)], [np.eye(2), [[1.0, bad], [bad, 1.0]]])


@pytest.mark.parametrize("metric, angle", [([[1e200, 5e199], [5e199, 1e200]], math.pi / 3),
                                           ([[0.0, -1e308], [-1e308, 0.0]], None)],
                         ids=["equilateral", "inf_times_zero"])
def test_judges_large_metrics_at_their_own_scale(metric, angle):
    # Both once read "too large": the equilateral metric's determinant overflowed,
    # and the other's longest-edge product was inf * 0.
    if angle is None:
        with pytest.raises(MeshFormatError, match="metric of triangle 0 is not positive definite"):
            MetricComplex(3, [(0, 1, 2)], [metric])
    else:
        K = MetricComplex(3, [(0, 1, 2)], [metric])
        assert np.max(np.abs(K.corner_angles - angle)) <= 2e-15


@pytest.mark.parametrize("side", [1e-80, 1e-100, 1e-150, 1e100, 1e154])
def test_cones_of_every_normal_scale_build(side):
    # 1e-80 to 1e-150 once read "too small": a subnormal determinant moved the
    # apex defect of 1e-80 by 1.2e-5, and at 1e-100 it underflowed to 0.
    # 1e100 and 1e154 read "too large": their determinant overflowed.
    K = MetricComplex.from_edge_lengths(*cone(5, side))
    assert abs(K.angle_defects[0] - math.pi / 3) <= 2e-15


@pytest.mark.parametrize("side", [1e-160, 1e-170])
def test_rejects_metrics_whose_largest_entry_is_not_a_normal_float(side):
    # 1e-160 squares to the subnormal 1e-320: the metric no longer holds the
    # triangle's shape.  1e-170 squares to 0, and its first edge is refused by name.
    message = ("metric of triangle 0 is too small: its largest entry is not a normal float"
               if side**2 else "edge (0, 1) length 1e-170 has no nonzero square")
    with pytest.raises(MeshFormatError, match="^" + re.escape(message) + "$"):
        MetricComplex.from_edge_lengths(*cone(5, side))
    # A collinear triangle of ordinary size, whose determinant is 0, is a sliver.
    with pytest.raises(MeshFormatError, match="triangle 1 is a sliver: sin.2 of its smallest "
                                              "angle is 0, below 1e-12"):
        MetricComplex(4, [(0, 1, 2), (1, 0, 3)], [np.eye(2), np.ones((2, 2))])


def _disjoint(complexes):
    """Side-by-side copies of abstract complexes, as one abstract complex."""
    n, tris, rows = 0, [], []
    for count, t, r in complexes:
        tris.append(t + n)
        rows.append(r + [n, n, 0.0])
        n += count
    return n, np.concatenate(tris), np.concatenate(rows)


@pytest.mark.parametrize("k", range(3, 13))
def test_power_of_two_scales_keep_every_corner_angle(k):
    # Sides 2^j square exactly for every j in [-511, 511], so the scaled
    # metrics are the unit cone's and so are their angles, bit for bit.
    scales = range(-511, 512)
    K = MetricComplex.from_edge_lengths(*_disjoint(cone(k, 2.0**j) for j in scales))
    unit = MetricComplex.from_edge_lengths(*cone(k))
    angles = K.corner_angles.reshape(len(scales), k, 3)
    assert (angles == unit.corner_angles).all()
    assert (K.angle_defects.reshape(len(scales), k + 1) == unit.angle_defects).all()
    with pytest.raises(MeshFormatError, match="too small"):
        MetricComplex.from_edge_lengths(*cone(k, 2.0**-512))


def test_rejects_inconsistent_shared_edge_lengths():
    # At 1e-20 the lengths 1e-10 and 2e-10 once passed under a tolerance floored at 1e-10.
    for scale in (1.0, 1e-20):
        metrics = scale * np.array([np.eye(2), 4.0 * np.eye(2)])
        a, b = math.sqrt(scale), 2.0 * math.sqrt(scale)
        with pytest.raises(MeshFormatError, match=re.escape(f"edge (0, 1) has inconsistent "
                                                            f"lengths {a!r} vs {b!r}")):
            MetricComplex(4, [(0, 1, 2), (1, 0, 3)], metrics)


def test_rejects_asymmetric_and_indefinite_metrics():
    # At 1e-20 the asymmetric metric once passed under a tolerance floored at 1e-12.
    for scale in (1.0, 1e-20):
        bad_sym = scale * np.array([[[1.0, 0.5], [0.1, 1.0]]])
        with pytest.raises(MeshFormatError, match="metric of triangle 0 is not symmetric"):
            MetricComplex(3, [(0, 1, 2)], bad_sym)
        indefinite = scale * np.array([[[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(MeshFormatError, match="metric of triangle 0 is not positive definite"):
            MetricComplex(3, [(0, 1, 2)], indefinite)


def test_rejects_bad_shapes():
    with pytest.raises(MeshFormatError):
        MetricComplex(3, [(0, 1)], np.array([np.eye(2)]))
    with pytest.raises(MeshFormatError):
        MetricComplex(3, [(0, 1, 2)], np.zeros((2, 2, 2)))
