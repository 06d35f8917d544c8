"""Continuous limits, induced forms, variations and order-of-accuracy sweeps."""

import math

import numpy as np
import pytest

from dconn import bundle as bd
from dconn import lie_group as lg
from dconn.bundle import Bundle, BundlePoint, PairElement, ShapePoint
from dconn.connection import eval_form, trivial_connection
from dconn.errors import BasepointMismatchError, DegenerateFitError
from dconn.lie_group import SO3, translation_group
from dconn.limits import (
    cayley_connection,
    chart_curve,
    chart_pair_log,
    derivative_at_zero,
    endpoint_connection,
    estimate_order,
    exponentiated_connection,
    horizontal_variation,
    induced_continuous,
    tangent,
    unit_directions,
    vertical_tangent,
    vertical_variation,
)
from dconn.presets import CONTINUOUS_FIXTURES, abelian_mechanical, so3_mechanical

T1 = translation_group(1)


# -- chart curves -------------------------------------------------------------


def test_chart_curve_endpoints():
    b = Bundle(SO3, 2)
    rng = np.random.default_rng(50)
    q = b.random_point(rng)
    v = tangent(q, [0.2, -0.1], [0.1, 0.3, -0.2])
    assert bd.points_match(chart_curve(v, 0.0), q)
    far = chart_curve(v, 1.0)
    assert np.max(np.abs(far.shape.coords - (q.shape.coords + v.shape_velocity))) < 1e-15


def test_chart_pair_log_inverts_chart_curve():
    b = Bundle(SO3, 2)
    rng = np.random.default_rng(51)
    for _ in range(20):
        q = b.random_point(rng)
        v = tangent(q, rng.standard_normal(2), 0.5 * rng.standard_normal(3))
        back = chart_pair_log(PairElement(q, chart_curve(v, 1.0)))
        assert np.max(np.abs(back.shape_velocity - v.shape_velocity)) < 1e-12
        assert np.max(np.abs(back.fiber_velocity.vector - v.fiber_velocity.vector)) < 1e-10


def test_vertical_tangent_generates_group_action():
    # chart_curve of the generator of xi reaches exp(xi) . q at t = 1.
    b = Bundle(SO3, 2)
    rng = np.random.default_rng(52)
    for _ in range(10):
        q = b.random_point(rng)
        xi = lg.random_algebra(SO3, rng, scale=0.5)
        end = chart_curve(vertical_tangent(q, xi), 1.0)
        assert bd.points_match(end, bd.act(lg.exp(xi), q), tol=1e-11)


# -- scalar differentiation ----------------------------------------------------


def test_derivative_exact_on_cubics():
    def sample(t):
        return np.array([1.0 + 2.0 * t - 3.0 * t**2 + 0.5 * t**3])

    d = derivative_at_zero(sample)
    assert abs(d[0] - 2.0) < 1e-12


def test_derivative_single_step_is_plain_stencil():
    d = derivative_at_zero(np.sin, h_list=[0.1])
    # 4th-order stencil alone: error ~ h^4 / 30.
    assert abs(d - 1.0) < 1e-5
    assert abs(d - 1.0) > 1e-9


def test_richardson_level_improves_accuracy():
    coarse = abs(derivative_at_zero(np.sin, h_list=[0.4, 0.2]) - 1.0)
    fine = abs(derivative_at_zero(np.sin, h_list=[0.2, 0.1]) - 1.0)
    assert coarse / fine >= 3.0


def test_derivative_rejects_bad_h_lists():
    with pytest.raises(ValueError):
        derivative_at_zero(np.sin, h_list=[])
    with pytest.raises(ValueError):
        derivative_at_zero(np.sin, h_list=[0.1, 0.2])
    with pytest.raises(ValueError):
        derivative_at_zero(np.sin, h_list=[0.1, -0.05])


# -- induced continuous forms ----------------------------------------------------


def test_induced_form_of_trivial_connection():
    # form(q, q exp(t eta)) = g exp(t eta) g^-1, so the induced value is Ad_g eta.
    b = Bundle(SO3, 2)
    c = trivial_connection(b)
    rng = np.random.default_rng(53)
    for _ in range(10):
        q = b.random_point(rng)
        v = tangent(q, rng.standard_normal(2), 0.5 * rng.standard_normal(3))
        got = induced_continuous(c, v)
        want = lg.adjoint(q.fiber, v.fiber_velocity)
        assert np.max(np.abs(got.vector - want.vector)) < 1e-9


def test_induced_form_recovers_vertical_generator():
    fixtures = [
        trivial_connection(Bundle(SO3, 2)),
        exponentiated_connection(so3_mechanical()),
    ]
    rng = np.random.default_rng(54)
    for c in fixtures:
        for _ in range(10):
            q = c.bundle.random_point(rng, shape_scale=0.1)
            xi = lg.random_algebra(SO3, rng, scale=0.5)
            got = induced_continuous(c, vertical_tangent(q, xi))
            assert np.max(np.abs(got.vector - xi.vector)) < 1e-8


def test_induced_form_zero_on_zero_tangent():
    c = exponentiated_connection(so3_mechanical())
    rng = np.random.default_rng(55)
    q = c.bundle.random_point(rng, shape_scale=0.1)
    v = tangent(q, np.zeros(2), np.zeros(3))
    assert np.max(np.abs(induced_continuous(c, v).vector)) < 1e-14


def test_induced_form_recovers_continuous_one_form():
    # Round trip: discretize exactly, then differentiate back.
    a = so3_mechanical()
    c = exponentiated_connection(a)
    rng = np.random.default_rng(56)
    for _ in range(10):
        q = a.bundle.random_point(rng, shape_scale=0.1)
        v = tangent(q, rng.standard_normal(2), 0.3 * rng.standard_normal(3))
        got = induced_continuous(c, v)
        want = a.one_form(v)
        assert np.max(np.abs(got.vector - want.vector)) < 1e-7


def test_induced_form_abelian_closed_form():
    a = abelian_mechanical()
    c = exponentiated_connection(a)
    rng = np.random.default_rng(57)
    for _ in range(10):
        x = 0.3 * rng.standard_normal(1)
        q = a.bundle.point(x, lg.random_element(T1, rng))
        u = rng.standard_normal(1)
        eta = rng.standard_normal(1)
        got = induced_continuous(c, tangent(q, u, eta))
        want = eta[0] + 0.4 * math.cos(x[0]) * u[0]
        assert abs(got.vector[0] - want) < 1e-9


# -- exact and Cayley discretizations ----------------------------------------------


def test_exact_discretization_on_diagonal():
    c = exponentiated_connection(so3_mechanical())
    rng = np.random.default_rng(58)
    q = c.bundle.random_point(rng)
    w = eval_form(c, PairElement(q, q))
    assert np.max(np.abs(w.matrix - np.eye(3))) < 1e-15


def test_exact_discretization_on_vertical_pairs():
    # exp(xi) . q over the same base point maps back to exp(xi).
    c = exponentiated_connection(so3_mechanical())
    rng = np.random.default_rng(59)
    for _ in range(10):
        q = c.bundle.random_point(rng, shape_scale=0.1)
        xi = lg.random_algebra(SO3, rng, scale=0.6)
        w = eval_form(c, PairElement(q, bd.act(lg.exp(xi), q)))
        assert np.max(np.abs(w.matrix - lg.exp(xi).matrix)) < 1e-11


def test_exponentiated_connection_abelian_closed_form():
    c = exponentiated_connection(abelian_mechanical())
    rng = np.random.default_rng(60)
    for _ in range(10):
        x0 = 0.3 * rng.standard_normal(1)
        x1 = x0 + 0.3 * rng.standard_normal(1)
        a = c.local_rep(ShapePoint(x0), ShapePoint(x1))
        # Translation part integrates the frozen coefficient at x0.
        assert abs(a.matrix[0, 1] - 0.4 * math.cos(x0[0]) * (x1[0] - x0[0])) < 1e-14


@pytest.mark.parametrize("fixture", sorted(CONTINUOUS_FIXTURES))
def test_local_reps_are_the_one_form_on_the_shape_step(fixture):
    # Each discretization maps the one-form on the tangent (x1 - x0, 0) at
    # (x, e) to the group: exp at x0, Cayley at x0, exp at x1.
    a = CONTINUOUS_FIXTURES[fixture]()
    b = a.bundle
    e = lg.identity(b.group)
    rng = np.random.default_rng(62)
    schemes = ((exponentiated_connection, lg.exp, False),
               (cayley_connection, lg.cayley, False),
               (endpoint_connection, lg.exp, True))
    for build, to_group, at_far_end in schemes:
        c = build(a)
        for _ in range(5):
            x0 = ShapePoint(0.3 * rng.standard_normal(b.shape_dim))
            x1 = ShapePoint(x0.coords + 0.2 * rng.standard_normal(b.shape_dim))
            base = BundlePoint(x1 if at_far_end else x0, e)
            v = tangent(base, x1.coords - x0.coords, np.zeros(b.group.dim))
            assert np.array_equal(c.local_rep(x0, x1).matrix, to_group(a.one_form(v)).matrix)


def test_cayley_discretization_identity_and_group_membership():
    c = cayley_connection(so3_mechanical())
    rng = np.random.default_rng(61)
    q = c.bundle.random_point(rng)
    assert np.max(np.abs(eval_form(c, PairElement(q, q)).matrix - np.eye(3))) < 1e-15
    for _ in range(5):
        p = PairElement(c.bundle.random_point(rng, shape_scale=0.1),
                        c.bundle.random_point(rng, shape_scale=0.1))
        SO3.check_matrix(eval_form(c, p).matrix, tol=1e-12)


# -- direction sampling --------------------------------------------------------------


def test_unit_directions_deterministic_and_unit():
    b = Bundle(SO3, 2)
    q = b.point([0.1, -0.2], np.eye(3))
    one = unit_directions(b, q, count=12, seed=3)
    two = unit_directions(b, q, count=12, seed=3)
    other = unit_directions(b, q, count=12, seed=4)
    assert len(one) == 12
    for v1, v2 in zip(one, two):
        assert np.array_equal(v1.coordinates(), v2.coordinates())
        assert abs(np.linalg.norm(v1.coordinates()) - 1.0) < 1e-12
    assert not np.array_equal(one[0].coordinates(), other[0].coordinates())


# -- order estimation ------------------------------------------------------------------


@pytest.fixture(scope="module")
def order_setup():
    a = so3_mechanical()
    exact = exponentiated_connection(a)
    q = a.bundle.point([0.1, -0.15], np.eye(3))
    dirs = unit_directions(a.bundle, q, count=16)
    hs = list(np.geomspace(1e-1, 1e-3, 7))
    return a, exact, q, dirs, hs


def test_cayley_connection_is_second_order(order_setup):
    a, exact, q, dirs, hs = order_setup
    est = estimate_order(cayley_connection(a), exact, q, dirs, hs)
    assert est.order == pytest.approx(2.0, abs=0.2)
    assert not est.exact_match
    assert est.step_sizes == tuple(hs)
    assert all(e1 > e2 for e1, e2 in zip(est.max_errors, est.max_errors[1:]))


def test_endpoint_connection_is_first_order(order_setup):
    a, exact, q, dirs, hs = order_setup
    est = estimate_order(endpoint_connection(a), exact, q, dirs, hs)
    assert est.order == pytest.approx(1.0, abs=0.2)


def test_identical_connections_report_exact_match(order_setup):
    a, exact, q, dirs, hs = order_setup
    est = estimate_order(exact, exact, q, dirs, hs)
    assert est.exact_match
    assert est.order == math.inf


def test_sweep_at_rounding_floor_is_rejected(order_setup):
    a, exact, q, dirs, _ = order_setup
    tiny = list(np.geomspace(1e-2, 1e-5, 7))
    with pytest.raises(DegenerateFitError):
        estimate_order(cayley_connection(a), exact, q, dirs, tiny)


def test_order_estimate_input_validation(order_setup):
    a, exact, q, dirs, hs = order_setup
    with pytest.raises(ValueError):
        estimate_order(cayley_connection(a), exact, q, dirs, [1e-2, 5e-3])
    stretched = [tangent(q, 2.0 * v.shape_velocity, 2.0 * v.fiber_velocity.vector)
                 for v in dirs]
    with pytest.raises(ValueError):
        estimate_order(cayley_connection(a), exact, q, stretched, hs)
    with pytest.raises(ValueError, match="directions"):
        estimate_order(cayley_connection(a), exact, q, [], hs)


# -- variations -------------------------------------------------------------------------


def test_variations_of_stationary_curve_vanish():
    c = exponentiated_connection(so3_mechanical())
    rng = np.random.default_rng(62)
    p = PairElement(c.bundle.random_point(rng, shape_scale=0.1),
                    c.bundle.random_point(rng, shape_scale=0.1))
    frozen = tangent(p.second, np.zeros(2), np.zeros(3))
    assert np.max(np.abs(vertical_variation(c, p, frozen).coordinates())) < 1e-12
    hvar = horizontal_variation(c, p, frozen)
    assert np.max(np.abs(hvar.fiber_velocity.vector)) < 1e-12
    assert np.max(np.abs(hvar.shape_velocity)) == 0.0


def test_variations_of_trivial_connection_split_coordinates():
    # ver end fiber is g1 itself, hor end fiber stays g0: the variation
    # velocity lands entirely in one factor.
    c = trivial_connection(Bundle(SO3, 2))
    rng = np.random.default_rng(63)
    for _ in range(5):
        p = PairElement(c.bundle.random_point(rng, shape_scale=0.1),
                        c.bundle.random_point(rng, shape_scale=0.1))
        u = rng.standard_normal(2)
        eta = 0.5 * rng.standard_normal(3)
        v = tangent(p.second, u, eta)
        ver = vertical_variation(c, p, v)
        assert np.max(np.abs(ver.shape_velocity)) == 0.0
        assert np.max(np.abs(ver.fiber_velocity.vector - eta)) < 1e-9
        hor = horizontal_variation(c, p, v)
        assert np.array_equal(hor.shape_velocity, u)
        assert np.max(np.abs(hor.fiber_velocity.vector)) < 1e-9


def test_vertical_curve_has_no_horizontal_fiber_motion():
    # Vary the endpoint purely vertically: the horizontal part of the pair
    # keeps its fiber, only the connection value moves.
    c = exponentiated_connection(so3_mechanical())
    rng = np.random.default_rng(64)
    p = PairElement(c.bundle.random_point(rng, shape_scale=0.1),
                    c.bundle.random_point(rng, shape_scale=0.1))
    xi = lg.random_algebra(SO3, rng)
    v = vertical_tangent(p.second, xi)
    hor = horizontal_variation(c, p, v)
    assert np.max(np.abs(hor.shape_velocity)) == 0.0
    assert np.max(np.abs(hor.fiber_velocity.vector)) < 1e-9


def test_variations_reject_misbased_velocity():
    c = trivial_connection(Bundle(SO3, 2))
    rng = np.random.default_rng(65)
    p = PairElement(c.bundle.random_point(rng, shape_scale=0.1),
                    c.bundle.random_point(rng, shape_scale=0.1))
    stray = tangent(p.first, np.zeros(2), np.zeros(3))
    with pytest.raises(BasepointMismatchError):
        vertical_variation(c, p, stray)
    with pytest.raises(BasepointMismatchError):
        horizontal_variation(c, p, stray)
