"""Property tests of the Levi-Civita transport over generated meshes, of
the discrete Euler-Lagrange flow over the Lagrangian fixtures, of the
quotient splitting over the connection families and of the local
representation of every CLI connection family.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn import lie_group as lg
from dconn import mechanical
from dconn.bundle import Bundle, BundlePoint, PairElement, ShapePoint, act
from dconn.connection import (
    AdjointBundleElement,
    adjoint,
    assemble_chain,
    assemble_quotient,
    canonical_chain,
    decompose_chain,
    decompose_quotient,
    eval_form,
    form_matrix,
    horizontal_lift,
    quotient_pair,
    trivial_connection,
)
from dconn.errors import CutLocusError, ShapeMismatchError
from dconn.levi_civita import (
    MetricComplex,
    angle_defect,
    connection_form,
    curvature,
    face_normal,
    holonomy,
    quality_report,
    total_defect,
)
from dconn.lie_group import SE3, SO2, SO3, translation_group
from dconn.limits import exponentiated_connection, induced_continuous
from dconn.mechanical import del_step, del_trajectory, mechanical_discrete_connection
from dconn.meshes import cone, flat_grid, icosphere, latitude_loop, torus_grid
from dconn.presets import CONTINUOUS_FIXTURES, LAGRANGIAN_FIXTURES, resolve_connection

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)


def rotation_angle(m: np.ndarray) -> float:
    return math.atan2(m[1, 0], m[0, 0])


def angle_gap(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


# The kernels cost microseconds, so their properties can afford more examples.
KERNEL_PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)
ALGEBRA_SAMPLES = st.sampled_from([SO2, SO3, SE3, translation_group(2)]).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(st.floats(-3.0, 3.0), min_size=g.dim,
                                             max_size=g.dim)))


@PROPERTY
@given(ALGEBRA_SAMPLES)
def test_inverse_matrix_inverts_and_backs_the_element_inverse(sample):
    group, coords = sample
    g = lg.exp(group, coords)
    inv = group.inverse_matrix(g.matrix)
    assert np.max(np.abs(inv @ g.matrix - np.eye(group.matrix_size))) <= 1e-14
    wrapped = lg.inverse(g).matrix
    assert not wrapped.flags.writeable
    assert np.array_equal(wrapped, inv)


@KERNEL_PROPERTY
@given(ALGEBRA_SAMPLES)
def test_cayley_matrix_matches_the_linear_solve(sample):
    group, coords = sample
    half = 0.5 * group.hat(coords)
    eye = np.eye(group.matrix_size)
    oracle = np.linalg.solve(eye - half, eye + half)
    assert np.max(np.abs(group.cayley_matrix(coords) - oracle)) <= 1e-14


def _rotation_slots(group) -> slice:
    return {SO2: slice(0, 1), SO3: slice(0, 3), SE3: slice(0, 3)}.get(group, slice(0, 0))


@st.composite
def algebra_at_angle(draw, small: bool):
    """(group, xi) whose rotation angle is log-uniform in [1e-10, 1e-2] or uniform in [1e-2, 3]."""
    group, coords = draw(ALGEBRA_SAMPLES)
    xi = np.array(coords)
    axis = xi[_rotation_slots(group)]
    if axis.size:
        angle = 10.0 ** draw(st.floats(-10.0, -2.0)) if small else draw(st.floats(1e-2, 3.0))
        norm = np.linalg.norm(axis)
        unit = axis / norm if norm > 0.0 else np.eye(axis.size)[0]
        xi[_rotation_slots(group)] = angle * unit
    return group, xi


@KERNEL_PROPERTY
@given(st.booleans().flatmap(lambda small: st.tuples(st.just(small), algebra_at_angle(small))))
def test_log_inverts_exp_at_small_and_moderate_angles(sample):
    # (1 - cos t)/t^2 in exp, and V^-1's coefficient, which divides by
    # 1 - cos t, cancel at small angles unless written in half angles.
    small, (group, xi) = sample
    tol = (1e-14 if small else 1e-12) * max(1.0, np.linalg.norm(xi))
    assert np.max(np.abs(group.log_vector(group.exp_matrix(xi)) - xi)) <= tol


@PROPERTY
@given(st.sampled_from([SO2, SO3, SE3]), st.floats(0.0, 0.99e-6),
       st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_log_rejects_rotations_near_the_cut_locus(group, gap, coords):
    xi = np.array(coords[:group.dim])
    axis = xi[_rotation_slots(group)]
    norm = np.linalg.norm(axis)
    unit = axis / norm if norm > 1e-3 else np.eye(axis.size)[0]
    xi[_rotation_slots(group)] = (math.pi - gap) * unit
    with pytest.raises(CutLocusError, match="within 1e-6 of pi"):
        group.log_vector(group.exp_matrix(xi))


# The angles at the two series switches and their float neighbours, where the
# batched kernels' masks and the scalar kernels' branches must agree.
SWITCH_ANGLES = [float(x) for switch in (lg._SMALL_ANGLE, lg._DEXPINV_SERIES)
                 for x in (np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1.0))]
STACK_ANGLES = st.one_of(st.floats(-10.0, math.log10(3.0)).map(lambda e: 10.0 ** e),
                         st.sampled_from(SWITCH_ANGLES))


@st.composite
def algebra_stacks(draw):
    """(group, xis): up to 12 algebra vectors of one group, each rotation angle
    log-uniform in [1e-10, 3] or next to a series switch.  A rotation about
    a coordinate axis has exactly its drawn angle."""
    group = draw(st.sampled_from([SO2, SO3, SE3, translation_group(2)]))
    rows = draw(st.lists(st.tuples(STACK_ANGLES, st.booleans(),
                                   st.lists(st.floats(-3.0, 3.0), min_size=group.dim,
                                            max_size=group.dim)),
                         min_size=1, max_size=12))
    xis = np.array([coords for _, _, coords in rows], dtype=float).reshape(len(rows), group.dim)
    slots = _rotation_slots(group)
    for xi, (angle, on_axis, _) in zip(xis, rows):
        axis = xi[slots]
        if axis.size:
            norm = np.linalg.norm(axis)
            unit = axis / norm if norm > 0.0 and not on_axis else np.eye(axis.size)[0]
            xi[slots] = angle * unit
    return group, xis


@KERNEL_PROPERTY
@given(algebra_stacks(), st.integers(0, 12), st.booleans())
def test_batched_kernels_equal_the_scalar_kernels_row_by_row(sample, nan_at, with_nan):
    # Bit for bit: the batched kernels evaluate the scalar kernels'
    # coefficient formulas, with the same libm functions, and their products
    # in the same order.
    group, xis = sample
    exps = group.exp_matrices(xis)
    assert exps.shape == (len(xis), group.matrix_size, group.matrix_size)
    assert np.array_equal(exps, np.array([group.exp_matrix(xi) for xi in xis]))
    cayleys = group.cayley_matrices(xis)
    assert cayleys.shape == exps.shape
    assert cayleys.tobytes() == np.array([group.cayley_matrix(xi) for xi in xis]).tobytes()
    # Products of two exps reach every angle up to the cut, away from the axes.
    moved = exps @ group.exp_matrices(xis[::-1] / 3.0)
    inverses = group.inverse_matrices(moved)
    assert np.array_equal(inverses, np.array([group.inverse_matrix(m) for m in moved]))
    if with_nan and group in (SO3, SE3):
        # A NaN rotation clamps to a half-turn in both logs.
        moved = np.insert(moved, nan_at % (len(moved) + 1), np.nan, axis=0)
    try:
        logs = [group.log_vector(m) for m in moved]
    except CutLocusError as exc:
        with pytest.raises(CutLocusError, match=re.escape(str(exc))):
            group.log_vectors(moved)
    else:
        batched = group.log_vectors(moved)
        assert batched.shape == (len(moved), group.dim)
        assert np.array_equal(batched, np.array(logs))


@KERNEL_PROPERTY
@given(st.lists(STACK_ANGLES, min_size=1, max_size=32))
def test_angle_coefficients_on_rows_equal_them_on_floats(angles):
    # The exact switch neighbours reach the coefficients here; a log's angle
    # comes out of acos and cannot be aimed at them.  numpy's tan, arccos and
    # power differ from libm's in the last place on a share of these angles.
    theta = np.array(angles)
    for coefficients, x in ((lambda t, m: lg._exp_coefficients(t, m, True), theta),
                            (lambda t, m: (lg._dexpinv_c2(t, m),), theta),
                            (lg._log_angle, np.cos(theta))):
        rows = np.array(coefficients(x, lg._ROWS))
        floats = np.array([coefficients(t, lg._FLOATS) for t in x.tolist()]).T
        assert rows.tobytes() == floats.tobytes()


@PROPERTY
@given(st.sampled_from([SO2, SO3, SE3]), st.lists(st.floats(0.0, 0.99e-6), min_size=1,
                                                 max_size=4),
       st.integers(0, 5), st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_batched_log_rejects_the_first_rotation_near_the_cut_locus(group, gaps, lead, coords):
    # ``lead`` rotations inside the domain come first; the first one within
    # 1e-6 of pi names its angle, as the scalar log of that matrix does.
    xi = np.array(coords[:group.dim])
    axis = xi[_rotation_slots(group)]
    norm = np.linalg.norm(axis)
    unit = axis / norm if norm > 1e-3 else np.eye(axis.size)[0]
    xis = np.tile(xi, (lead + len(gaps), 1))
    xis[:, _rotation_slots(group)] = np.outer([0.5] * lead + [math.pi - g for g in gaps], unit)
    matrices = group.exp_matrices(xis)
    with pytest.raises(CutLocusError) as scalar:
        group.log_vector(matrices[lead])
    with pytest.raises(CutLocusError, match="within 1e-6 of pi") as batched:
        group.log_vectors(matrices)
    assert str(batched.value) == str(scalar.value)


@st.composite
def perturbed_spheres(draw):
    """(level, vertices, faces) of an icosphere with radially jittered vertices."""
    level = draw(st.integers(1, 2))
    verts, faces = icosphere(level)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitude = draw(st.floats(0.0, 0.3))
    radii = 1.0 + amplitude * rng.uniform(-1.0, 1.0, len(verts))
    return level, verts * radii[:, None], faces


@PROPERTY
@given(perturbed_spheres())
def test_gauss_bonnet_on_perturbed_spheres(sphere):
    _, verts, faces = sphere
    K = MetricComplex.from_embedding(verts, faces)
    assert abs(total_defect(K) - 4.0 * math.pi) < 1e-9
    # Each vertex's curvature angle is its defect, and the all-vertex report
    # holds the defect's norm on the circle.
    A = connection_form(K)
    report = quality_report(K, A)
    assert set(report) == set(range(K.vertex_count))
    for v in range(K.vertex_count):
        defect = angle_defect(K, v)
        assert angle_gap(rotation_angle(curvature(K, A, v).matrix), defect) < 1e-10
        assert abs(report[v] - angle_gap(defect, 0.0)) < 1e-10


# Chart positions of a triangle's three vertices.
CHART = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def cholesky_normal(K: MetricComplex, t: int, face) -> np.ndarray:
    """Outward unit normal of an edge of triangle t, in the Cholesky frame of its chart metric."""
    tri = K.triangles[t].tolist()
    i, j = tri.index(face[0]), tri.index(face[1])
    lt = np.linalg.cholesky(K.chart_metrics[t]).T
    y_edge = lt @ (CHART[j] - CHART[i])
    n = np.array([-y_edge[1], y_edge[0]]) / np.linalg.norm(y_edge)
    return -n if n @ (lt @ (CHART[3 - i - j] - CHART[i])) > 0.0 else n


@PROPERTY
@given(perturbed_spheres())
def test_face_normals_match_the_cholesky_construction(sphere):
    _, verts, faces = sphere
    K = MetricComplex.from_embedding(verts, faces)
    for t, tri in enumerate(K.triangles.tolist()):
        for k in range(3):
            for face in ((tri[k], tri[k - 1]), (tri[k - 1], tri[k])):
                assert np.max(np.abs(face_normal(K, t, face) - cholesky_normal(K, t, face))) < 1e-13


@PROPERTY
@given(perturbed_spheres(), st.integers(0, 2**32 - 1))
def test_curvature_and_holonomy_do_not_depend_on_the_gauge(sphere, seed):
    # Reordering the triangles and rotating each one's vertex list rotates
    # every chart basis, so it changes the gauge.
    level, verts, faces = sphere
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(faces))
    shuffled = np.array([np.roll(f, r) for f, r in zip(faces[perm], rng.integers(0, 3, len(faces)))])
    new_index = np.argsort(perm)
    K = MetricComplex.from_embedding(verts, faces)
    S = MetricComplex.from_embedding(verts, shuffled)
    A, B = connection_form(K), connection_form(S)
    for v in range(len(verts)):
        assert angle_gap(rotation_angle(curvature(K, A, v).matrix),
                         rotation_angle(curvature(S, B, v).matrix)) < 1e-12
    # The band is found on the unperturbed sphere; it is a closed dual path of both.
    loop, _ = latitude_loop(MetricComplex.from_embedding(*icosphere(level)), math.radians(50.0))
    h = holonomy(K, A, loop)
    h_shuffled = holonomy(S, B, [int(new_index[t]) for t in loop])
    assert angle_gap(rotation_angle(h.matrix), rotation_angle(h_shuffled.matrix)) < 1e-12


@st.composite
def scalable_meshes(draw):
    """("rows", abstract complex) of a cone, grid or torus, or ("coordinates",
    vertices, faces) of a perturbed icosphere."""
    kind = draw(st.sampled_from(["cone", "grid", "torus", "sphere"]))
    if kind == "sphere":
        _, verts, faces = draw(perturbed_spheres())
        return "coordinates", verts, faces
    if kind == "cone":
        return "rows", cone(draw(st.integers(3, 12)))
    sides = st.integers(1 if kind == "grid" else 3, 6)
    return "rows", (flat_grid if kind == "grid" else torus_grid)(draw(sides), draw(sides))


def scaled(mesh, factor: float) -> MetricComplex:
    """The complex with every edge length or vertex coordinate times ``factor``."""
    if mesh[0] == "coordinates":
        return MetricComplex.from_embedding(factor * mesh[1], mesh[2])
    n, tris, rows = mesh[1]
    return MetricComplex.from_edge_lengths(n, tris, rows * [1.0, 1.0, factor])


@PROPERTY
@given(scalable_meshes())
def test_transport_angles_are_local_to_each_edge(mesh):
    # Each interior edge's angle reads only its two cofaces: the complex of
    # those two triangles alone, in the same order, gives it bit for bit.
    K = scaled(mesh, 1.0)
    for e in np.flatnonzero(K.edge_faces[:, 1] >= 0).tolist():
        pair = K.edge_faces[e]
        labels, tris = np.unique(K.triangles[pair], return_inverse=True)
        P = MetricComplex(len(labels), tris.reshape(2, 3), K.chart_metrics[pair])
        a, b = np.searchsorted(labels, K.edges[e])
        (local,) = np.flatnonzero((P.edges == (a, b)).all(axis=1))
        assert P.transport_angles[local].tobytes() == K.transport_angles[e].tobytes()


ANGLE_TABLES = ("corner_angles", "angle_defects", "transport_angles")


@PROPERTY
@given(scalable_meshes(), st.integers(-500, 500))
def test_power_of_two_scaling_leaves_every_angle_bit_identical(mesh, j):
    # The metrics scale by 4^j exactly, and each is normalized by a power of
    # four before any test or angle, so nothing but the lengths can tell.
    K, L = scaled(mesh, 1.0), scaled(mesh, 2.0**j)
    for name in ANGLE_TABLES:
        assert np.array_equal(getattr(L, name), getattr(K, name), equal_nan=True), name
    assert np.array_equal(L.lengths, np.ldexp(K.lengths, j))


@PROPERTY
@given(scalable_meshes(), st.floats(-150.0, 150.0))
def test_any_scaling_moves_angles_by_rounding_only(mesh, exponent):
    # Scaling by 10^exponent rounds every length or coordinate once.  Over
    # 3 000 draws the largest changes (mod 2 pi) were 8.9e-16 in a corner
    # angle, 3.6e-15 in a defect and 1.8e-15 in a transport angle.
    K, L = scaled(mesh, 1.0), scaled(mesh, 10.0**exponent)
    for name, bound in zip(ANGLE_TABLES, (2e-15, 8e-15, 4e-15)):
        gap = np.remainder(getattr(L, name) - getattr(K, name) + math.pi, math.tau) - math.pi
        assert np.nanmax(np.abs(gap), initial=0.0) <= bound, name


@st.composite
def lagrangian_starts(draw):
    """(L, q0, q1, rng): a Lagrangian fixture, a nearby pair of points and the draw's generator."""
    L = LAGRANGIAN_FIXTURES[draw(st.sampled_from(sorted(LAGRANGIAN_FIXTURES)))]()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = L.bundle
    q0 = b.random_point(rng, shape_scale=0.3, fiber_scale=0.3)
    q1 = b.point(q0.shape.coords + 0.05 * rng.standard_normal(b.shape_dim),
                 lg.compose(q0.fiber, lg.random_element(b.group, rng, 0.05)))
    return L, q0, q1, rng


def point_gap(a: BundlePoint, b: BundlePoint) -> float:
    return max(float(np.max(np.abs(a.shape.coords - b.shape.coords), initial=0.0)),
               float(np.max(np.abs(a.fiber.matrix - b.fiber.matrix))))


@PROPERTY
@given(lagrangian_starts())
def test_del_flow_is_group_equivariant(start):
    L, q0, q1, rng = start
    h = lg.random_element(L.bundle.group, rng)
    moved = del_step(L, act(h, q0), act(h, q1))
    assert point_gap(moved, act(h, del_step(L, q0, q1))) < 1e-10


@PROPERTY
@given(lagrangian_starts())
def test_del_trajectory_chain_round_trips_through_the_mechanical_connection(start):
    L, q0, q1, _ = start
    qs = del_trajectory(L, q0, q1, 5)
    c = mechanical_discrete_connection(L)
    shapes, adjoints = decompose_chain(c, qs)
    for got, want in zip(assemble_chain(c, shapes, adjoints), canonical_chain(qs), strict=True):
        assert point_gap(got, want) < 1e-10


QUOTIENT_FAMILIES = {
    **{f"trivial-{g.name}": (lambda g=g: trivial_connection(Bundle(g, 2)))
       for g in (SO2, SO3, SE3, translation_group(2))},
    **{f"exponentiated:{k}": (lambda k=k: exponentiated_connection(CONTINUOUS_FIXTURES[k]()))
       for k in CONTINUOUS_FIXTURES},
    **{f"mechanical:{k}": (lambda k=k: mechanical_discrete_connection(LAGRANGIAN_FIXTURES[k]()))
       for k in LAGRANGIAN_FIXTURES},
}


@st.composite
def quotient_samples(draw):
    """(c, p, g): a connection, a pair within its validity radius and a group element."""
    c = QUOTIENT_FAMILIES[draw(st.sampled_from(sorted(QUOTIENT_FAMILIES)))]()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = c.bundle
    q0 = b.random_point(rng, shape_scale=0.2, fiber_scale=0.5)
    step = rng.standard_normal(b.shape_dim)
    if b.shape_dim:
        step *= draw(st.floats(0.0, 0.45)) / np.linalg.norm(step)
    q1 = b.point(q0.shape.coords + step, lg.random_element(b.group, rng, 0.5))
    return c, PairElement(q0, q1), lg.random_element(b.group, rng, 0.5)


@PROPERTY
@given(quotient_samples())
def test_quotient_splitting_is_the_two_point_chain_splitting(sample):
    c, p, g = sample
    qp = quotient_pair(p)
    x0, x1, a = decompose_quotient(c, qp)
    shapes, (b,) = decompose_chain(c, [p.first, p.second])
    assert np.array_equal(x0.coords, shapes[0].coords)
    assert np.array_equal(x1.coords, shapes[1].coords)
    assert np.max(np.abs(a.group_part.matrix - b.group_part.matrix)) < 1e-10
    # assemble(decompose(qp)) = qp and decompose(assemble(x0, x1, a)) = (x0, x1, a).
    back = assemble_quotient(c, x0, x1, a).representative
    assert point_gap(back.first, qp.representative.first) < 1e-10
    assert point_gap(back.second, qp.representative.second) < 1e-10
    moved = AdjointBundleElement(x0, g)
    y0, y1, again = decompose_quotient(c, assemble_quotient(c, x0, x1, moved))
    assert np.array_equal(y0.coords, x0.coords) and np.array_equal(y1.coords, x1.coords)
    assert np.max(np.abs(again.group_part.matrix - g.matrix)) < 1e-10


# (family, group) of every connection family the CLI resolves.
CLI_FAMILIES = [
    *(("trivial", g) for g in ("SO2", "SO3", "SE3", "T1")),
    ("euler_poincare", "SO3"),
    *((f"{kind}:{f}", "SO3") for kind in ("exponentiated", "cayley", "forward_difference")
      for f in sorted(CONTINUOUS_FIXTURES)),
    *((f"mechanical:{f}", "SO3") for f in sorted(LAGRANGIAN_FIXTURES)),
]


@pytest.mark.parametrize("family, group", CLI_FAMILIES)
@PROPERTY
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.45))
def test_local_reps_are_read_only_matrices_of_the_bundle_group(family, group, seed, distance):
    # local_rep(x0, x1) is A(x0, x1) as a bare matrix, and A(x, x) is exactly e.
    c = resolve_connection(family, group)
    b = c.bundle
    rng = np.random.default_rng(seed)
    x0 = ShapePoint(0.2 * rng.standard_normal(b.shape_dim))
    step = rng.standard_normal(b.shape_dim)
    if b.shape_dim:
        step *= distance / np.linalg.norm(step)
    x1 = ShapePoint(x0.coords + step)
    for a in (c.local_rep(x0, x1), c.local_rep(x1, x0)):
        assert type(a) is np.ndarray and not a.flags.writeable
        b.group.check_matrix(a)
    for x in (x0, x1):
        assert np.array_equal(c.local_rep(x, x), b.group.identity_matrix())


@pytest.mark.parametrize("family, group", CLI_FAMILIES)
def test_forms_and_lifts_refuse_points_of_another_shape_dimension(family, group):
    # A point with one coordinate too many is refused before any local
    # representation sees it, the lift's base point included.
    c = resolve_connection(family, group)
    b = c.bundle
    s = b.shape_dim
    e = lg.identity(b.group)
    good, wide = ShapePoint(np.full(s, 0.1)), ShapePoint(np.full(s + 1, 0.1))
    message = f"shape dimensions differ: bundle {s}, point {s + 1}"
    for x0, x1 in ((wide, good), (good, wide), (wide, wide)):
        with pytest.raises(ShapeMismatchError, match=message):
            eval_form(c, PairElement(BundlePoint(x0, e), BundlePoint(x1, e)))
        with pytest.raises(ShapeMismatchError, match=message):
            form_matrix(c, x0, x1, e.matrix, e.matrix)
        with pytest.raises(ShapeMismatchError, match=message):
            horizontal_lift(c, x0, x1, BundlePoint(x0, e))
    with pytest.raises(ShapeMismatchError, match=message):
        horizontal_lift(c, good, good, BundlePoint(wide, e))


def _shape_pairs(b, seed, distances):
    """Bases near 0 and endpoints at the given chart distances from them, as two
    (n, shape_dim) arrays."""
    n = len(distances)
    rng = np.random.default_rng(seed)
    x0s = 0.2 * rng.standard_normal((n, b.shape_dim))
    steps = rng.standard_normal((n, b.shape_dim))
    if b.shape_dim:
        steps *= np.array(distances).reshape(n, 1) / np.linalg.norm(steps, axis=1, keepdims=True)
    return x0s, x0s + steps


def _mechanical_solve(family, x0, x1):
    """The mechanical connection's local representation A(x0, x1), solved afresh."""
    return mechanical._canonical_solve(LAGRANGIAN_FIXTURES[family.partition(":")[2]](), x0, x1)


@pytest.mark.parametrize("family, group", CLI_FAMILIES)
@PROPERTY
@given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 1.0), max_size=12))
def test_stacked_local_reps_equal_the_per_pair_reps_row_by_row(family, group, seed, distances):
    # Bit for bit, the empty stack included: local_reps(x0s, x1s)[i] is A on
    # (x0s[i], x1s[i]), with per-row bases and with one base for all rows.  A
    # mechanical row is its own Newton solve; a mechanical stack stays within
    # 0.45, where the solves converge.
    c = resolve_connection(family, group)
    solved = family.startswith("mechanical:")
    per_pair = partial(_mechanical_solve, family) if solved else c.local_rep
    b, n = c.bundle, len(distances)
    x0s, x1s = _shape_pairs(b, seed, [0.45 * d for d in distances] if solved else distances)
    x0 = 0.2 * np.random.default_rng(seed + 1).standard_normal(b.shape_dim)
    k = b.group.matrix_size
    for bases, ends in ((x0s, x1s), (x0, x1s - x0s + x0)):
        stacked = c.local_reps(bases, ends)
        assert stacked.shape == (n, k, k) and not stacked.flags.writeable
        rows = np.array([per_pair(ShapePoint(y0), ShapePoint(y1))
                         for y0, y1 in zip(np.broadcast_to(bases, ends.shape), ends)])
        assert stacked.tobytes() == rows.reshape(n, k, k).tobytes()
    assert c.local_reps(x0, x1s[:0]).shape == c.local_reps(x0s[:0], x1s[:0]).shape == (0, k, k)


def _equal_within(got, want, tol):
    """Bit for bit when tol is 0, else every entry within tol."""
    return got.tobytes() == want.tobytes() if tol == 0.0 else np.max(np.abs(got - want)) <= tol


# Inverting an SE(3) rep twice rounds its translation: 2.8e-17 at most over
# 50 pairs of each SE(3) family.  SO(n) inverses are transposes, Tn's exact.
INVOLUTION_DRIFT = {"SE3": 1e-16}


@pytest.mark.parametrize("family, group", CLI_FAMILIES)
@PROPERTY
@given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 0.45), min_size=1, max_size=6))
def test_the_adjoint_of_the_adjoint_is_the_connection(family, group, seed, distances):
    # A*(x0, x1) = A(x1, x0)^-1, per pair and stacked.
    c = resolve_connection(family, group)
    twice = adjoint(adjoint(c))
    tol = INVOLUTION_DRIFT.get(c.bundle.group.name, 0.0)
    x0s, x1s = _shape_pairs(c.bundle, seed, distances)
    for x0, x1 in zip(map(ShapePoint, x0s), map(ShapePoint, x1s)):
        got = twice.local_rep(x0, x1)
        assert not got.flags.writeable and _equal_within(got, c.local_rep(x0, x1), tol)
    got = twice.local_reps(x0s, x1s)
    assert not got.flags.writeable and _equal_within(got, c.local_reps(x0s, x1s), tol)


@pytest.mark.parametrize("family, group", [(f, g) for f, g in CLI_FAMILIES if f in (
    "trivial", "euler_poincare", "mechanical:free_particle", "mechanical:so3_pure")])
@PROPERTY
@given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 0.45), min_size=1, max_size=6))
def test_trivial_and_free_particle_connections_are_self_adjoint(family, group, seed, distances):
    # A(x1, x0)^-1 = A(x0, x1) exactly: these connections are reversible.  (Not
    # bit for bit on SE(3): the inverse of e there has the translation -0.)
    c = resolve_connection(family, group)
    x0s, x1s = _shape_pairs(c.bundle, seed, distances)
    for x0, x1 in zip(map(ShapePoint, x0s), map(ShapePoint, x1s)):
        assert np.array_equal(adjoint(c).local_rep(x0, x1), c.local_rep(x0, x1))


@pytest.mark.parametrize("family, group", CLI_FAMILIES)
@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_the_adjoint_has_the_continuous_limit_of_the_connection(family, group, seed):
    c = resolve_connection(family, group)
    b = c.bundle
    rng = np.random.default_rng(seed)
    q = b.point(0.2 * rng.standard_normal(b.shape_dim), lg.random_element(b.group, rng, 0.5))
    v = rng.standard_normal(b.shape_dim + b.group.dim)
    got = induced_continuous(adjoint(c), q, v)
    assert np.max(np.abs(got - induced_continuous(c, q, v))) < 1e-8
