"""Trivialized bundle: action, freeness, fiber generators, vertical composition."""

import numpy as np
import pytest

from dconn import bundle as bd
from dconn import lie_group as lg
from dconn.bundle import Bundle, PairElement, chart_distance, shape_point
from dconn.errors import BasepointMismatchError, GroupMismatchError, NotVerticalError
from dconn.lie_group import SE3, SO3


@pytest.fixture(params=[SO3, SE3], ids=lambda g: g.name)
def bundle(request):
    return Bundle(group=request.param, shape_dim=2)


def test_point_and_project(bundle):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2)
    g = lg.random_element(bundle.group, rng)
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


def test_action_identity_and_associativity(bundle):
    rng = np.random.default_rng(1)
    e = lg.identity(bundle.group)
    for _ in range(30):
        q = bundle.random_point(rng)
        assert np.array_equal(bd.act(e, q).fiber.matrix, q.fiber.matrix)
        h1 = lg.random_element(bundle.group, rng)
        h2 = lg.random_element(bundle.group, rng)
        once = bd.act(lg.compose(h1, h2), q)
        twice = bd.act(h1, bd.act(h2, q))
        assert np.max(np.abs(once.fiber.matrix - twice.fiber.matrix)) < 1e-12
        assert np.array_equal(bd.project(once).coords, bd.project(q).coords)


def test_action_returns_to_identity_fiber(bundle):
    rng = np.random.default_rng(2)
    q = bundle.random_point(rng)
    back = bd.act(lg.inverse(q.fiber), q)
    assert np.max(np.abs(back.fiber.matrix - np.eye(bundle.group.matrix_size))) < 1e-13


def test_action_is_free(bundle):
    # act(h, q) = q forces h = e; check the contrapositive on random h != e.
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = bundle.random_point(rng)
        h = lg.random_element(bundle.group, rng, scale=0.5)
        if np.max(np.abs(h.matrix - np.eye(bundle.group.matrix_size))) < 1e-8:
            continue
        moved = bd.act(h, q)
        assert not bd.points_match(moved, q)


def test_discrete_generator_shape(bundle):
    rng = np.random.default_rng(4)
    for _ in range(20):
        q = bundle.random_point(rng)
        g = lg.random_element(bundle.group, rng)
        pair = bd.discrete_generator(q, g)
        assert pair.first is q
        assert np.array_equal(bd.project(pair.second).coords, bd.project(q).coords)
        assert np.max(np.abs(pair.second.fiber.matrix - (g.matrix @ q.fiber.matrix))) < 1e-13


def test_discrete_generator_is_homomorphism(bundle):
    # i_q(g1 g2) = i_q(g1) * i_q(g2) under vertical composition.
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = bundle.random_point(rng)
        g1 = lg.random_element(bundle.group, rng)
        g2 = lg.random_element(bundle.group, rng)
        whole = bd.discrete_generator(q, lg.compose(g1, g2))
        part = bd.vertical_compose(bd.discrete_generator(q, g1),
                                   bd.discrete_generator(q, g2))
        assert np.max(np.abs(whole.second.fiber.matrix - part.second.fiber.matrix)) < 1e-12


def test_discrete_generator_equivariance(bundle):
    # h . i_q(g) = i_{h.q}(h g h^-1).
    rng = np.random.default_rng(6)
    for _ in range(20):
        q = bundle.random_point(rng)
        g = lg.random_element(bundle.group, rng)
        h = lg.random_element(bundle.group, rng)
        lhs = bd.act_pair(h, bd.discrete_generator(q, g))
        conj = lg.compose(h, lg.compose(g, lg.inverse(h)))
        rhs = bd.discrete_generator(bd.act(h, q), conj)
        assert np.max(np.abs(lhs.second.fiber.matrix - rhs.second.fiber.matrix)) < 1e-12
        assert bd.points_match(lhs.first, rhs.first)


def test_vertical_compose_identity(bundle):
    rng = np.random.default_rng(7)
    q = bundle.random_point(rng)
    other = bundle.random_point(rng)
    p = PairElement(q, other)
    unit = bd.discrete_generator(q, lg.identity(bundle.group))
    same = bd.vertical_compose(unit, p)
    assert bd.points_match(same.second, p.second)
    g = lg.random_element(bundle.group, rng)
    vert = bd.discrete_generator(q, g)
    onto_diagonal = bd.vertical_compose(vert, PairElement(q, q))
    assert bd.points_match(onto_diagonal.second, vert.second)


def test_vertical_compose_acts_on_far_end(bundle):
    rng = np.random.default_rng(8)
    q = bundle.random_point(rng)
    q1 = bundle.random_point(rng)
    g = lg.random_element(bundle.group, rng)
    out = bd.vertical_compose(bd.discrete_generator(q, g), PairElement(q, q1))
    assert bd.points_match(out.first, q)
    assert bd.points_match(out.second, bd.act(g, q1))


def test_vertical_compose_equivariance(bundle):
    rng = np.random.default_rng(9)
    for _ in range(10):
        q = bundle.random_point(rng)
        p = PairElement(q, bundle.random_point(rng))
        v = bd.discrete_generator(q, lg.random_element(bundle.group, rng))
        h = lg.random_element(bundle.group, rng)
        translated = bd.vertical_compose(bd.act_pair(h, v), bd.act_pair(h, p))
        expect = bd.act_pair(h, bd.vertical_compose(v, p))
        assert bd.points_match(translated.second, expect.second, tol=1e-11)


def test_vertical_compose_rejects_nonvertical(bundle):
    rng = np.random.default_rng(10)
    q = bundle.random_point(rng)
    other = bundle.random_point(rng)
    slanted = PairElement(q, other)
    with pytest.raises(NotVerticalError):
        bd.vertical_compose(slanted, PairElement(q, q))


def test_vertical_compose_rejects_mismatched_join(bundle):
    # Same chart point but a different fiber is still a basepoint mismatch.
    rng = np.random.default_rng(11)
    q = bundle.random_point(rng)
    g = lg.random_element(bundle.group, rng)
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


def test_zero_dimensional_shape():
    b = Bundle(group=SO3, shape_dim=0)
    rng = np.random.default_rng(12)
    q = b.point(np.zeros(0), lg.random_element(SO3, rng))
    assert bd.project(q).coords.shape == (0,)
    moved = bd.act(lg.random_element(SO3, rng), q)
    assert bd.project(moved).coords.shape == (0,)
