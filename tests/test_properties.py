"""Property tests of the Levi-Civita transport over generated meshes.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn.levi_civita import (
    MetricComplex,
    angle_defect,
    connection_form,
    curvature,
    curvature_form,
    holonomy,
    total_defect,
)
from dconn.meshes import icosphere, latitude_loop

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
