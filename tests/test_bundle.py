"""Trivialized bundle: action, freeness, fiber generators, vertical composition.

The sampled properties run under hypothesis over the ``bundle`` fixture's
groups, derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dconn import bundle as bd
from dconn import lie_group as lg
from dconn.bundle import BASE_TOL, Bundle, PairElement, chart_distance, shape_point
from dconn.errors import BasepointMismatchError, GroupMismatchError, NotVerticalError
from dconn.lie_group import SE3, SO3

SAMPLED = settings(derandomize=True, max_examples=30, deadline=None, database=None)


@pytest.fixture(params=[SO3, SE3], ids=lambda g: g.name, scope="module")
def bundle(request):
    return Bundle(group=request.param, shape_dim=2)


def _coords(n, bound=3.0):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


def elements(group, bound=3.0):
    return _coords(group.dim, bound).map(lambda xi: lg.exp(group, xi))


def points(b):
    return st.builds(b.point, _coords(b.shape_dim), elements(b.group))


def _far_from_identity(h, tol):
    return np.max(np.abs(h.matrix - np.eye(h.group.matrix_size))) >= tol


@SAMPLED
@given(data=st.data())
def test_point_and_project(bundle, data):
    x = data.draw(_coords(2))
    g = data.draw(elements(bundle.group))
    q = bundle.point(x, g)
    assert np.array_equal(bd.project(q).coords, x)
    assert np.array_equal(q.fiber.matrix, g.matrix)


def test_point_accepts_raw_matrix():
    b = Bundle(group=SO3, shape_dim=1)
    q = b.point([0.3], np.eye(3))
    assert q.fiber.group is SO3


def test_point_rejects_foreign_fiber():
    b = Bundle(group=SO3, shape_dim=2)
    with pytest.raises(GroupMismatchError):
        b.point(np.zeros(2), lg.identity(SE3))


def test_shape_point_helpers():
    a = shape_point(1.0, 2.0)
    b = shape_point(4.0, 6.0)
    assert chart_distance(a, b) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        a.coords[0] = 9.0


def test_shift_moves_single_coordinate():
    b = Bundle(SO3, 2)
    q = b.point([0.1, 0.2], np.eye(3))
    moved = bd.shift(q, np.array([0.0, 0.05, 0.0, 0.0, 0.0]))
    assert np.allclose(moved.shape.coords, [0.1, 0.25])
    assert np.array_equal(moved.fiber.matrix, q.fiber.matrix)
    spun = bd.shift(q, np.array([0.0, 0.0, 0.3, 0.0, 0.0]))
    assert np.array_equal(spun.shape.coords, q.shape.coords)
    want = lg.exp(SO3, [0.3, 0.0, 0.0])
    assert np.max(np.abs(spun.fiber.matrix - want.matrix)) < 1e-15
    assert bd.points_match(bd.shift(q, 0.0 * np.array([0.2, -0.1, 0.1, 0.3, -0.2])), q)


@SAMPLED
@given(data=st.data())
def test_action_identity_and_associativity(bundle, data):
    e = lg.identity(bundle.group)
    q = data.draw(points(bundle))
    assert np.array_equal(bd.act(e, q).fiber.matrix, q.fiber.matrix)
    h1, h2 = data.draw(elements(bundle.group)), data.draw(elements(bundle.group))
    once = bd.act(lg.compose(h1, h2), q)
    twice = bd.act(h1, bd.act(h2, q))
    assert np.max(np.abs(once.fiber.matrix - twice.fiber.matrix)) < 1e-12
    assert np.array_equal(bd.project(once).coords, bd.project(q).coords)


@SAMPLED
@given(data=st.data())
def test_action_returns_to_identity_fiber(bundle, data):
    q = data.draw(points(bundle))
    back = bd.act(lg.inverse(q.fiber), q)
    assert np.max(np.abs(back.fiber.matrix - np.eye(bundle.group.matrix_size))) < 1e-13


@SAMPLED
@given(data=st.data())
def test_action_is_free(bundle, data):
    # act(h, q) = q forces h = e; check the contrapositive on h != e.
    q = data.draw(points(bundle))
    h = data.draw(elements(bundle.group, bound=1.5))
    assume(_far_from_identity(h, 1e-8))
    assert not bd.points_match(bd.act(h, q), q)


@SAMPLED
@given(data=st.data())
def test_discrete_generator_shape(bundle, data):
    q, g = data.draw(points(bundle)), data.draw(elements(bundle.group))
    pair = bd.discrete_generator(q, g)
    assert pair.first is q
    assert np.array_equal(bd.project(pair.second).coords, bd.project(q).coords)
    assert np.max(np.abs(pair.second.fiber.matrix - (g.matrix @ q.fiber.matrix))) < 1e-13


@SAMPLED
@given(data=st.data())
def test_discrete_generator_is_homomorphism(bundle, data):
    # i_q(g1 g2) = i_q(g1) * i_q(g2) under vertical composition.
    q = data.draw(points(bundle))
    g1, g2 = data.draw(elements(bundle.group)), data.draw(elements(bundle.group))
    whole = bd.discrete_generator(q, lg.compose(g1, g2))
    part = bd.vertical_compose(bd.discrete_generator(q, g1),
                               bd.discrete_generator(q, g2))
    assert np.max(np.abs(whole.second.fiber.matrix - part.second.fiber.matrix)) < 1e-12


@SAMPLED
@given(data=st.data())
def test_discrete_generator_equivariance(bundle, data):
    # h . i_q(g) = i_{h.q}(h g h^-1).
    q = data.draw(points(bundle))
    g, h = data.draw(elements(bundle.group)), data.draw(elements(bundle.group))
    lhs = bd.act_pair(h, bd.discrete_generator(q, g))
    conj = lg.compose(h, lg.compose(g, lg.inverse(h)))
    rhs = bd.discrete_generator(bd.act(h, q), conj)
    assert np.max(np.abs(lhs.second.fiber.matrix - rhs.second.fiber.matrix)) < 1e-12
    assert bd.points_match(lhs.first, rhs.first)


@SAMPLED
@given(data=st.data())
def test_vertical_compose_identity(bundle, data):
    q, other = data.draw(points(bundle)), data.draw(points(bundle))
    p = PairElement(q, other)
    unit = bd.discrete_generator(q, lg.identity(bundle.group))
    same = bd.vertical_compose(unit, p)
    assert bd.points_match(same.second, p.second)
    vert = bd.discrete_generator(q, data.draw(elements(bundle.group)))
    onto_diagonal = bd.vertical_compose(vert, PairElement(q, q))
    assert bd.points_match(onto_diagonal.second, vert.second)


@SAMPLED
@given(data=st.data())
def test_vertical_compose_acts_on_far_end(bundle, data):
    q, q1 = data.draw(points(bundle)), data.draw(points(bundle))
    g = data.draw(elements(bundle.group))
    out = bd.vertical_compose(bd.discrete_generator(q, g), PairElement(q, q1))
    assert bd.points_match(out.first, q)
    assert bd.points_match(out.second, bd.act(g, q1))


@SAMPLED
@given(data=st.data())
def test_vertical_compose_equivariance(bundle, data):
    q = data.draw(points(bundle))
    p = PairElement(q, data.draw(points(bundle)))
    v = bd.discrete_generator(q, data.draw(elements(bundle.group)))
    h = data.draw(elements(bundle.group))
    translated = bd.vertical_compose(bd.act_pair(h, v), bd.act_pair(h, p))
    expect = bd.act_pair(h, bd.vertical_compose(v, p))
    assert bd.points_match(translated.second, expect.second, tol=1e-11)


@SAMPLED
@given(data=st.data())
def test_vertical_compose_rejects_nonvertical(bundle, data):
    q, other = data.draw(points(bundle)), data.draw(points(bundle))
    assume(chart_distance(q.shape, other.shape) > BASE_TOL)
    slanted = PairElement(q, other)
    with pytest.raises(NotVerticalError):
        bd.vertical_compose(slanted, PairElement(q, q))


@SAMPLED
@given(data=st.data())
def test_vertical_compose_rejects_mismatched_join(bundle, data):
    # Same chart point but a different fiber is still a basepoint mismatch.
    q, g = data.draw(points(bundle)), data.draw(elements(bundle.group))
    assume(_far_from_identity(g, 1e-8))
    elsewhere = bd.act(g, q)
    v = bd.discrete_generator(elsewhere, g)
    with pytest.raises(BasepointMismatchError):
        bd.vertical_compose(v, PairElement(q, q))


def test_points_match_tolerance():
    b = Bundle(group=SO3, shape_dim=2)
    q = b.point([0.0, 0.0], np.eye(3))
    near = b.point([0.0, 1e-12], np.eye(3))
    far = b.point([0.0, 1e-3], np.eye(3))
    assert bd.points_match(q, near)
    assert not bd.points_match(q, far)


def test_negative_shape_dimension_is_rejected():
    with pytest.raises(ValueError, match="shape_dim"):
        Bundle(group=SO3, shape_dim=-1)


@SAMPLED
@given(data=st.data())
def test_zero_dimensional_shape(bundle, data):
    b = Bundle(group=bundle.group, shape_dim=0)
    q = b.point(np.zeros(0), data.draw(elements(b.group)))
    assert bd.project(q).coords.shape == (0,)
    moved = bd.act(data.draw(elements(b.group)), q)
    assert bd.project(moved).coords.shape == (0,)
