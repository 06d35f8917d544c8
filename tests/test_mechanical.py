"""Discrete Lagrangians, momentum maps, time stepping, mechanical connections."""

import numpy as np
import pytest

from dconn import lie_group as lg
from dconn import mechanical
from dconn.bundle import Bundle, BundlePoint, PairElement, ShapePoint
from dconn.connection import eval_form
from dconn.errors import NonDegenerateError, SolverDivergedError
from dconn.lie_group import SO3, translation_group
from dconn.mechanical import (
    DiscreteLagrangian,
    del_step,
    del_trajectory,
    discrete_momentum,
    fiber_derivative,
    mechanical_connection,
    mechanical_discrete_connection,
)
from dconn.presets import (
    FREE_PARTICLE_STEP,
    coupling_so3,
    free_particle,
    se3_coupled,
    so3_coupled,
    so3_pure,
)

FIXTURES = {
    "free_particle": free_particle,
    "so3_coupled": so3_coupled,
    "se3_coupled": se3_coupled,
    "so3_pure": so3_pure,
}


@pytest.fixture(params=list(FIXTURES), scope="module")
def lagrangian(request):
    return FIXTURES[request.param]()


def sample_pair(L, rng, scale=0.3) -> PairElement:
    b = L.bundle
    return PairElement(b.random_point(rng, shape_scale=scale, fiber_scale=scale),
                       b.random_point(rng, shape_scale=scale, fiber_scale=scale))


# -- slot derivatives -----------------------------------------------------------


def test_analytic_slot_derivatives_match_finite_differences(lagrangian):
    # Rebuild the fixture without derivatives to force the FD fallback.
    fallback = DiscreteLagrangian(lagrangian.bundle, lagrangian.value)
    rng = np.random.default_rng(70)
    for _ in range(5):
        p = sample_pair(lagrangian, rng)
        a1 = lagrangian.d1_eval(p.first, p.second)
        a2 = lagrangian.d2_eval(p.first, p.second)
        f1 = fallback.d1_eval(p.first, p.second)
        f2 = fallback.d2_eval(p.first, p.second)
        assert np.max(np.abs(a1 - f1)) < 1e-7
        assert np.max(np.abs(a2 - f2)) < 1e-7


def test_analytic_d12_matches_differences_of_d1(lagrangian):
    # Without d12, d12_eval falls back to central differences of d1.
    fallback = DiscreteLagrangian(lagrangian.bundle, lagrangian.value, lagrangian.d1,
                                  lagrangian.d2)
    group = lagrangian.bundle.group
    rng = np.random.default_rng(74)
    pairs = [sample_pair(lagrangian, rng) for _ in range(5)]
    # Relative rotation angles below the 1e-4 switch to the dexpinv series.
    q0, x1 = pairs[0].first, pairs[0].second.shape
    for angle in (5e-5, 0.0):
        tiny = lg.exp(group, angle * np.eye(group.dim)[0])
        pairs.append(PairElement(q0, BundlePoint(x1, lg.compose(q0.fiber, tiny))))
    for p in pairs:
        exact = lagrangian.d12_eval(p.first, p.second)
        approx = fallback.d12_eval(p.first, p.second)
        assert exact.shape == approx.shape
        assert np.max(np.abs(exact - approx)) < 1e-7 * max(1.0, np.max(np.abs(approx)))


@pytest.mark.parametrize("name", ["so3_coupled", "se3_coupled", "so3_pure"])
def test_slot_derivatives_answer_the_pair_asked_for(name):
    # The coupled fixtures share their pieces between calls at one pair.
    # Interleaved calls over two pairs, an equal copy of a point and the
    # swapped pair must each give what a fresh fixture gives for that call.
    L = FIXTURES[name]()
    rng = np.random.default_rng(76)
    p, r = sample_pair(L, rng), sample_pair(L, rng)
    twin = BundlePoint(ShapePoint(p.second.shape.coords),
                       lg.element(L.bundle.group, p.second.fiber.matrix))
    calls = [
        ("d1", p.first, p.second), ("d12", r.first, p.second), ("d12", p.first, p.second),
        ("d1", p.first, r.second), ("d2", r.first, r.second),
        ("d12", p.first, p.second), ("value", r.first, r.second), ("d1", p.first, twin),
        ("d12", p.first, twin), ("d2", p.second, p.first), ("d1", p.second, p.first),
        ("d12", r.first, r.second), ("value", p.first, p.second), ("d1", r.first, r.second),
        ("d2", p.first, p.second), ("d12", p.second, p.first), ("value", p.first, twin),
    ]
    for slot, q0, q1 in calls:
        got = getattr(L, slot)(q0, q1)
        assert np.array_equal(got, getattr(FIXTURES[name](), slot)(q0, q1)), (slot, q0, q1)


def test_value_is_group_invariant(lagrangian):
    rng = np.random.default_rng(71)
    from dconn.bundle import act

    for _ in range(10):
        p = sample_pair(lagrangian, rng)
        base = lagrangian.value(p.first, p.second)
        h = lg.random_element(lagrangian.bundle.group, rng)
        moved = lagrangian.value(act(h, p.first), act(h, p.second))
        assert abs(moved - base) < 1e-11 * max(1.0, abs(base))


def test_invariance_identity_on_slot_derivatives(lagrangian):
    # d/dt L(exp(t xi) q0, exp(t xi) q1) = 0 pairs the fiber blocks of D1, D2
    # with the trivialized generator coordinates Ad_{g^-1} xi.
    rng = np.random.default_rng(72)
    d = lagrangian.bundle.shape_dim
    group = lagrangian.bundle.group
    for _ in range(10):
        p = sample_pair(lagrangian, rng)
        xi = lg.random_algebra(group, rng)
        d1f = lagrangian.d1_eval(p.first, p.second)[d:]
        d2f = lagrangian.d2_eval(p.first, p.second)[d:]
        total = (d1f @ lg.adjoint(lg.inverse(p.first.fiber), xi)
                 + d2f @ lg.adjoint(lg.inverse(p.second.fiber), xi))
        assert abs(total) < 1e-8


# -- momentum -------------------------------------------------------------------


def test_free_particle_momentum_is_vertical_velocity():
    L = free_particle()
    b = L.bundle
    y0, y1 = 0.2, 0.7
    p = PairElement(b.point([0.0], [[1.0, y0], [0.0, 1.0]]),
                    b.point([0.3], [[1.0, y1], [0.0, 1.0]]))
    mom = discrete_momentum(L, p)
    assert mom.covector == pytest.approx([(y1 - y0) / FREE_PARTICLE_STEP], abs=1e-12)
    flat = discrete_momentum(L, PairElement(p.first, p.first))
    assert np.max(np.abs(flat.covector)) == 0.0


def test_momentum_agrees_with_fiber_derivative_pairing(lagrangian):
    rng = np.random.default_rng(73)
    d = lagrangian.bundle.shape_dim
    group = lagrangian.bundle.group
    for _ in range(5):
        p = sample_pair(lagrangian, rng)
        base, covector = fiber_derivative(lagrangian, p)
        assert base is p.first
        mom = discrete_momentum(lagrangian, p)
        for _ in range(3):
            xi = lg.random_algebra(group, rng)
            eta = lg.adjoint(lg.inverse(p.first.fiber), xi)
            assert mom.pair(xi) == pytest.approx(covector[d:] @ eta, abs=1e-10)


# -- time stepping ----------------------------------------------------------------


def test_free_particle_step_is_linear_extrapolation():
    L = free_particle()
    b = L.bundle
    q0 = b.point([0.1], [[1.0, -0.2], [0.0, 1.0]])
    q1 = b.point([0.25], [[1.0, 0.1], [0.0, 1.0]])
    q2 = del_step(L, q0, q1)
    assert np.max(np.abs(q2.shape.coords - [0.4])) < 1e-10
    assert abs(q2.fiber.matrix[0, 1] - 0.4) < 1e-10


def test_del_step_fixes_equilibria(lagrangian):
    rng = np.random.default_rng(74)
    q = lagrangian.bundle.random_point(rng, shape_scale=0.2)
    q2 = del_step(lagrangian, q, q)
    assert np.linalg.norm(q2.shape.coords - q.shape.coords) < 1e-9
    assert np.max(np.abs(q2.fiber.matrix - q.fiber.matrix)) < 1e-9


def test_momentum_is_conserved_along_trajectories():
    # Discrete Noether: J(q_k, q_{k+1}) is constant along solution sequences.
    cases = []
    L = free_particle()
    b = L.bundle
    cases.append((L, b.point([0.0], [[1.0, 0.0], [0.0, 1.0]]),
                  b.point([0.05], [[1.0, 0.03], [0.0, 1.0]]), 50, 1e-12))
    L2 = so3_coupled()
    q0 = L2.bundle.point([0.05, -0.05], np.eye(3))
    q1 = L2.bundle.point([0.08, -0.02], lg.exp(SO3, [0.02, -0.01, 0.03]))
    cases.append((L2, q0, q1, 20, 1e-10))
    for L, q0, q1, steps, tol in cases:
        path = del_trajectory(L, q0, q1, steps)
        values = [discrete_momentum(L, PairElement(a, b)).covector
                  for a, b in zip(path, path[1:])]
        drift = max(np.max(np.abs(v - values[0])) for v in values)
        assert drift < tol


def test_del_step_reports_divergence(monkeypatch):
    monkeypatch.setattr(mechanical, "NEWTON_MAX_ITER", 1)
    L = so3_coupled()
    b = L.bundle
    q0 = b.point([0.0, 0.0], np.eye(3))
    q1 = b.point([0.6, -0.4], lg.exp(SO3, [0.9, 0.7, -0.8]))
    with pytest.raises(SolverDivergedError):
        del_step(L, q0, q1)


def test_mechanical_connection_reports_a_stall(monkeypatch):
    monkeypatch.setattr(mechanical, "NEWTON_MAX_ITER", 1)
    L = so3_coupled()
    b = L.bundle
    p = PairElement(b.point([0.0, 0.0], np.eye(3)),
                    b.point([0.6, -0.4], lg.exp(SO3, [0.9, 0.7, -0.8])))
    with pytest.raises(SolverDivergedError, match="stalled"):
        mechanical_connection(L, p)


# -- mechanical connections ----------------------------------------------------------


def test_mechanical_connection_abelian_difference():
    L = free_particle()
    b = L.bundle
    p = PairElement(b.point([0.1], [[1.0, 0.3], [0.0, 1.0]]),
                    b.point([0.2], [[1.0, 0.9], [0.0, 1.0]]))
    w = mechanical_connection(L, p)
    assert abs(w.matrix[0, 1] - 0.6) < 1e-12


def test_mechanical_connection_pure_group_word():
    L = so3_pure()
    b = L.bundle
    rng = np.random.default_rng(75)
    for _ in range(10):
        g0 = lg.random_element(SO3, rng)
        g1 = lg.random_element(SO3, rng)
        p = PairElement(b.point(np.zeros(0), g0), b.point(np.zeros(0), g1))
        w = mechanical_connection(L, p)
        assert np.max(np.abs(w.matrix - g1.matrix @ g0.matrix.T)) < 1e-13


def test_mechanical_connection_coupled_closed_form():
    # Zero momentum solves in closed form; the value is g1 exp(C(x0) dx) g0^-1.
    L = so3_coupled()
    b = L.bundle
    rng = np.random.default_rng(76)
    for _ in range(10):
        p = sample_pair(L, rng, scale=0.2)
        w = mechanical_connection(L, p)
        dx = p.second.shape.coords - p.first.shape.coords
        a = lg.exp(SO3, coupling_so3(p.first.shape.coords) @ dx)
        want = lg.compose(p.second.fiber, lg.compose(a, lg.inverse(p.first.fiber)))
        assert np.max(np.abs(w.matrix - want.matrix)) < 1e-10


def test_horizontal_pairs_carry_zero_momentum():
    from dconn.connection import horizontal_component

    for make in (so3_coupled, se3_coupled):
        L = make()
        c = mechanical_discrete_connection(L)
        rng = np.random.default_rng(77)
        for _ in range(5):
            p = sample_pair(L, rng, scale=0.15)
            hor = horizontal_component(c, p)
            mom = discrete_momentum(L, hor)
            assert np.max(np.abs(mom.covector)) < 1e-9


def test_degenerate_lagrangian_is_detected():
    # Fiber T^2 but the value only sees the first fiber coordinate, offset so
    # the zero-momentum equation is both unsolvable in the dead direction and
    # nontrivial in the live one.
    b = Bundle(translation_group(2), 0)

    def delta0(q0: BundlePoint, q1: BundlePoint) -> float:
        return float(q1.fiber.matrix[0, 2] - q0.fiber.matrix[0, 2])

    def value(q0, q1):
        return 0.5 * (delta0(q0, q1) - 1.0) ** 2

    def d1(q0, q1):
        return np.array([-(delta0(q0, q1) - 1.0), 0.0])

    def d2(q0, q1):
        return np.array([delta0(q0, q1) - 1.0, 0.0])

    L = DiscreteLagrangian(b, value, d1, d2)
    p = PairElement(b.point(np.zeros(0), np.eye(3)), b.point(np.zeros(0), np.eye(3)))
    with pytest.raises(NonDegenerateError):
        mechanical_connection(L, p)


def test_mechanical_discrete_connection_solves_each_shape_pair_once(monkeypatch):
    solves = []

    def counting(L, p):
        solves.append(p)
        return mechanical_connection(L, p)

    c = mechanical_discrete_connection(so3_coupled())
    monkeypatch.setattr(mechanical, "mechanical_connection", counting)
    rng = np.random.default_rng(79)
    x0, x1 = [0.1, -0.2], [0.25, -0.1]
    p = PairElement(c.bundle.point(x0, np.eye(3)), c.bundle.point(x1, np.eye(3)))
    first, second = eval_form(c, p), eval_form(c, p)
    moved = PairElement(c.bundle.point(x0, lg.random_element(SO3, rng)),
                        c.bundle.point(x1, lg.random_element(SO3, rng)))
    w = eval_form(c, moved)
    assert len(solves) == 1
    assert np.array_equal(first.matrix, second.matrix)
    # The one solved local representation serves every pair over (x0, x1).
    want = lg.compose(moved.second.fiber, lg.compose(first, lg.inverse(moved.first.fiber)))
    assert np.array_equal(w.matrix, want.matrix)


def test_mechanical_discrete_connection_matches_pointwise_solve():
    L = so3_coupled()
    c = mechanical_discrete_connection(L)
    rng = np.random.default_rng(78)
    for _ in range(5):
        x0 = ShapePoint(0.2 * rng.standard_normal(2))
        x1 = ShapePoint(x0.coords + 0.2 * rng.standard_normal(2))
        e = lg.identity(SO3)
        via_rep = c.local_rep(x0, x1)
        via_solve = mechanical_connection(
            L, PairElement(BundlePoint(x0, e), BundlePoint(x1, e)))
        assert np.max(np.abs(via_rep - via_solve.matrix)) < 1e-12
