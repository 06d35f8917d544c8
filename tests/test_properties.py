"""Property tests of the Levi-Civita transport over generated meshes, of
the discrete Euler-Lagrange flow over the Lagrangian fixtures and of the
quotient splitting over the connection families.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn import lie_group as lg
from dconn.bundle import Bundle, BundlePoint, PairElement, act
from dconn.connection import (
    AdjointBundleElement,
    assemble_chain,
    assemble_quotient,
    canonical_chain,
    decompose_chain,
    decompose_quotient,
    quotient_pair,
    trivial_connection,
)
from dconn.levi_civita import (
    MetricComplex,
    angle_defect,
    connection_form,
    curvature,
    curvature_form,
    holonomy,
    total_defect,
)
from dconn.lie_group import SE3, SO2, SO3, translation_group
from dconn.limits import exponentiated_connection
from dconn.mechanical import del_step, mechanical_discrete_connection
from dconn.meshes import icosphere, latitude_loop
from dconn.presets import CONTINUOUS_FIXTURES, LAGRANGIAN_FIXTURES

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)


def rotation_angle(m: np.ndarray) -> float:
    return math.atan2(m[1, 0], m[0, 0])


def angle_gap(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


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
    # Each vertex's curvature angle, alone and in the all-vertex form, is its defect.
    A = connection_form(K)
    F = curvature_form(K, A)
    assert set(F.values) == set(range(K.vertex_count))
    for v in range(K.vertex_count):
        defect = angle_defect(K, v)
        assert angle_gap(rotation_angle(curvature(K, A, v).matrix), defect) < 1e-10
        assert angle_gap(rotation_angle(F.values[v].matrix), defect) < 1e-10


@PROPERTY
@given(perturbed_spheres(), st.integers(0, 2**32 - 1))
def test_curvature_and_holonomy_do_not_depend_on_the_gauge(sphere, seed):
    # Reordering the triangles and rotating each one's vertex list moves the
    # spanning tree's root and every chart basis, so it changes the gauge.
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
    qs = [q0, q1]
    for _ in range(5):
        qs.append(del_step(L, qs[-2], qs[-1]))
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
