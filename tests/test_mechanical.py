"""Discrete Lagrangians, momentum maps, time stepping, mechanical connections.

The sampled properties run under hypothesis, derandomized, so every run
draws the same examples.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn import lie_group as lg
from dconn import mechanical, presets
from dconn.bundle import Bundle, BundlePoint, PairElement, ShapePoint, act_pair, shift
from dconn.connection import eval_form
from dconn.errors import (
    GroupMismatchError,
    NonDegenerateError,
    ShapeMismatchError,
    SolverDivergedError,
)
from dconn.lie_group import SE3, SO3, translation_group
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
    default_pair,
    dexpinv_so3,
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


MECHANICS = settings(derandomize=True, max_examples=10, deadline=None, database=None)


def _coords(n, bound):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


def algebra(group, bound=1.5):
    """Algebra coordinates within ``bound``; 1.5 keeps every rotation angle below pi."""
    return _coords(group.dim, bound)


def elements(group, bound=1.5):
    return algebra(group, bound).map(lambda xi: lg.exp(group, xi))


def points(b, shape=0.6, fiber=0.6):
    """Points of b with shape coordinates within ``shape``, fiber log within ``fiber``."""
    return st.builds(b.point, _coords(b.shape_dim, shape), elements(b.group, fiber))


def pairs(b, shape=0.6, fiber=0.6):
    return st.builds(PairElement, points(b, shape, fiber), points(b, shape, fiber))


def short_pairs(b, step=0.3, fiber=0.6):
    """Pairs whose shape step has coordinates within ``step``."""
    def build(q0, dx, g1):
        return PairElement(q0, BundlePoint(ShapePoint(q0.shape.coords + dx), g1))

    return st.builds(build, points(b, 0.4, fiber), _coords(b.shape_dim, step),
                     elements(b.group, fiber))


# -- slot derivatives -----------------------------------------------------------


@MECHANICS
@given(data=st.data())
def test_analytic_slot_derivatives_match_finite_differences(lagrangian, data):
    # Rebuild the fixture without derivatives to force the chart-curve fallback.
    fallback = DiscreteLagrangian(lagrangian.bundle, lagrangian.value)
    p = data.draw(pairs(lagrangian.bundle))
    a1 = lagrangian.d1_eval(p.first, p.second)
    a2 = lagrangian.d2_eval(p.first, p.second)
    f1 = fallback.d1_eval(p.first, p.second)
    f2 = fallback.d2_eval(p.first, p.second)
    assert np.max(np.abs(a1 - f1)) < 1e-9
    assert np.max(np.abs(a2 - f2)) < 1e-9


def _d12_gap(L, p) -> float:
    # Without d12, d12_eval falls back to chart-curve derivatives of d1.
    fallback = DiscreteLagrangian(L.bundle, L.value, L.d1, L.d2)
    exact = L.d12_eval(p.first, p.second)
    approx = fallback.d12_eval(p.first, p.second)
    assert exact.shape == approx.shape
    return np.max(np.abs(exact - approx)) / max(1.0, np.max(np.abs(approx)))


@MECHANICS
@given(data=st.data())
def test_analytic_d12_matches_differences_of_d1(lagrangian, data):
    assert _d12_gap(lagrangian, data.draw(pairs(lagrangian.bundle))) < 1e-9


@pytest.mark.parametrize("angle", [5e-5, 0.0])
def test_analytic_d12_matches_differences_of_d1_at_tiny_angles(lagrangian, angle):
    # Relative rotation angles below the 1e-4 switch to the dexpinv series.
    q0 = default_pair(lagrangian.bundle).first
    tiny = lg.exp(lagrangian.bundle.group, angle * np.eye(lagrangian.bundle.group.dim)[0])
    x1 = ShapePoint(q0.shape.coords + 0.1)
    assert _d12_gap(lagrangian, PairElement(q0, BundlePoint(x1, lg.compose(q0.fiber, tiny)))) < 1e-9


@pytest.mark.parametrize("name", ["so3_coupled", "se3_coupled", "so3_pure"])
@MECHANICS
@given(data=st.data())
def test_slot_derivatives_answer_the_pair_asked_for(name, data):
    # The coupled fixtures share their pieces between calls at one pair.
    # Interleaved calls over two pairs, an equal copy of a point and the
    # swapped pair must each give what a fresh fixture gives for that call.
    L = FIXTURES[name]()
    p, r = data.draw(pairs(L.bundle)), data.draw(pairs(L.bundle))
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


@MECHANICS
@given(data=st.data())
def test_value_is_group_invariant(lagrangian, data):
    from dconn.bundle import act

    p = data.draw(pairs(lagrangian.bundle))
    h = data.draw(elements(lagrangian.bundle.group))
    base = lagrangian.value(p.first, p.second)
    moved = lagrangian.value(act(h, p.first), act(h, p.second))
    assert abs(moved - base) < 1e-11 * max(1.0, abs(base))


@MECHANICS
@given(data=st.data())
def test_invariance_identity_on_slot_derivatives(lagrangian, data):
    # d/dt L(exp(t xi) q0, exp(t xi) q1) = 0 pairs the fiber blocks of D1, D2
    # with the trivialized generator coordinates Ad_{g^-1} xi.
    d = lagrangian.bundle.shape_dim
    p = data.draw(pairs(lagrangian.bundle))
    xi = data.draw(algebra(lagrangian.bundle.group))
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


@MECHANICS
@given(data=st.data())
def test_momentum_agrees_with_fiber_derivative_pairing(lagrangian, data):
    d = lagrangian.bundle.shape_dim
    p = data.draw(pairs(lagrangian.bundle))
    xi = data.draw(algebra(lagrangian.bundle.group))
    base, covector = fiber_derivative(lagrangian, p)
    assert base is p.first
    mom = discrete_momentum(lagrangian, p)
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


@MECHANICS
@given(data=st.data())
def test_del_step_fixes_equilibria(lagrangian, data):
    q = data.draw(points(lagrangian.bundle, 0.4, 1.5))
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


# The DEL map F: (q0, q1) -> (q1, q2) preserves Omega_L = sum d^2 L / dz0_i dz1_j
# dz0_i ^ dz1_j (Marsden and West, Acta Numerica 2001, section 1.3).  Both are
# read in the product charts shift(q0, .) x shift(q1, .); Omega_L is a
# coordinate 2-form there, so no correction term enters.  Omega_L comes from
# ``value`` alone, so a d1 or d2 that is not the derivative of ``value``
# breaks the identity.  Probed gaps are 3e-9 to 2e-8, with |Omega_L| near 10.
SYMPLECTIC_GAP = 1e-6


def chart_offset(q: BundlePoint, r: BundlePoint) -> np.ndarray:
    """The z with shift(q, z) = r."""
    g = q.fiber.group
    rel = g.inverse_matrix(q.fiber.matrix) @ r.fiber.matrix
    return np.concatenate([r.shape.coords - q.shape.coords, g.log_vector(rel)])


def lagrangian_form(L, q0, q1, eps=1e-4) -> np.ndarray:
    """Omega_L at (q0, q1): central differences of ``value`` in both charts."""
    steps = eps * np.eye(q0.shape.coords.size + q0.fiber.group.dim)
    return sum(s0 * s1 * np.array([[L.value(shift(q0, s0 * a), shift(q1, s1 * b)) for b in steps]
                                   for a in steps])
               for s0 in (1.0, -1.0) for s1 in (1.0, -1.0)) / (4.0 * eps * eps)


def symplectic_gap(L, q0, q1, dirs, eps=1e-5) -> float:
    """max |F*Omega_L - Omega_L| on the tangent vectors that are the rows of
    ``dirs`` (z0 then z1), with the columns of dF by central differences."""
    n = dirs.shape[1] // 2
    q2 = del_step(L, q0, q1)
    cols = []
    for v in dirs:
        ends = [chart_offset(q2, del_step(L, shift(q0, s * v[:n]), shift(q1, s * v[n:])))
                for s in (eps, -eps)]
        cols.append(np.concatenate([v[n:], (ends[0] - ends[1]) / (2.0 * eps)]))

    def pairing(omega, vecs):
        return vecs[:, :n] @ omega @ vecs[:, n:].T - vecs[:, n:] @ omega.T @ vecs[:, :n].T

    return float(np.max(np.abs(pairing(lagrangian_form(L, q1, q2), np.array(cols))
                               - pairing(lagrangian_form(L, q0, q1), dirs))))


def near_default_pair(b, offset=0.02):
    """default_pair moved by chart offsets within ``offset`` in each slot."""
    n = b.shape_dim + b.group.dim
    p = default_pair(b)
    return st.builds(lambda z0, z1: (shift(p.first, z0), shift(p.second, z1)),
                     _coords(n, offset), _coords(n, offset))


@pytest.mark.parametrize("name", list(FIXTURES))
@settings(derandomize=True, max_examples=4, deadline=None, database=None)
@given(data=st.data())
def test_del_flow_is_symplectic(name, data):
    L = FIXTURES[name]()
    q0, q1 = data.draw(near_default_pair(L.bundle))
    dirs = np.eye(2 * (L.bundle.shape_dim + L.bundle.group.dim))
    assert symplectic_gap(L, q0, q1, dirs) < SYMPLECTIC_GAP


@pytest.mark.parametrize("name", list(FIXTURES))
@settings(derandomize=True, max_examples=1, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_value_only_del_flow_is_symplectic(name, data, seed):
    # A value-only step costs 0.1-0.3 s on the coupled fixtures, so two drawn
    # tangent directions stand in for the whole Jacobian.
    L = FIXTURES[name]()
    lean = DiscreteLagrangian(L.bundle, L.value)
    q0, q1 = data.draw(near_default_pair(L.bundle))
    n = L.bundle.shape_dim + L.bundle.group.dim
    dirs = np.random.default_rng(seed).standard_normal((2, 2 * n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    assert symplectic_gap(lean, q0, q1, dirs) < SYMPLECTIC_GAP


def point_gap(a: BundlePoint, b: BundlePoint) -> float:
    return max(float(np.max(np.abs(a.shape.coords - b.shape.coords), initial=0.0)),
               float(np.max(np.abs(a.fiber.matrix - b.fiber.matrix))))


@pytest.mark.parametrize("name", ["so3_coupled", "se3_coupled", "so3_pure"])
def test_value_only_lagrangian_steps_like_the_analytic_one(name):
    # Every slot derivative and the Newton Jacobian come from chart-curve
    # derivatives of the value alone.
    L = FIXTURES[name]()
    p = default_pair(L.bundle)
    got = del_step(DiscreteLagrangian(L.bundle, L.value), p.first, p.second)
    assert point_gap(got, del_step(L, p.first, p.second)) < 1e-12


def test_value_only_lagrangian_solves_the_mechanical_connection():
    L = so3_coupled()
    p = default_pair(L.bundle)
    got = mechanical_connection(DiscreteLagrangian(L.bundle, L.value), p)
    assert np.max(np.abs(got.matrix - mechanical_connection(L, p).matrix)) < 1e-12


@pytest.mark.parametrize("slots", ["value", "value and d1"])
def test_mechanical_connection_differentiates_only_the_fiber_block(slots):
    # Without d12 only the fiber block of D1 L is differentiated, along the
    # fiber directions: 8 dim instead of 8 (shape_dim + dim) blocks per
    # Jacobian.  Without d1 a block costs 8 dim value calls, where the whole
    # D1 L costs 8 (shape_dim + dim).  The solve keeps the bits of the square
    # chart-curve Jacobian.
    L = so3_coupled()
    d, dim = L.bundle.shape_dim, L.bundle.group.dim
    p = default_pair(L.bundle)
    calls = []

    def counted(f):
        return lambda q0, q1: calls.append(1) or f(q0, q1)

    lean = (DiscreteLagrangian(L.bundle, counted(L.value)) if slots == "value"
            else DiscreteLagrangian(L.bundle, L.value, counted(L.d1)))
    square = dataclasses.replace(lean, d12=lambda q0, q1: mechanical._chart_derivative(
        lambda q: lean.d1_eval(q0, q), q1))
    # Counted calls per fiber block of D1 L and per whole D1 L.
    block, whole = (8 * dim, 8 * (d + dim)) if slots == "value" else (1, 1)
    counts, got = {}, {}
    for name, lagrangian in (("lean", lean), ("square", square)):
        calls.clear()
        got[name] = mechanical_connection(lagrangian, p).matrix.tobytes()
        counts[name] = len(calls)
    assert got["lean"] == got["square"]
    # One residual and one Jacobian per Newton step, and the converged residual.
    steps = (counts["square"] - block) // (block + 8 * (d + dim) * whole)
    assert steps >= 1
    assert counts["square"] == block + steps * (block + 8 * (d + dim) * whole)
    assert counts["lean"] == block + steps * (block + 8 * dim * block)


def test_value_only_lagrangian_differentiates_value_along_the_fiber_only():
    # 8 value calls per fiber direction for a fiber block of D1 L, where the
    # whole D1 L takes 8 (shape_dim + dim) = 40; the stencil is elementwise,
    # so the block keeps the whole D1 L's bits.
    L = so3_coupled()
    p = default_pair(L.bundle)
    calls = []
    lean = DiscreteLagrangian(L.bundle, lambda q0, q1: calls.append(1) or L.value(q0, q1))
    momentum = discrete_momentum(lean, p).covector
    assert len(calls) == 24
    whole = DiscreteLagrangian(L.bundle, L.value, lean.d1_eval)
    assert momentum.tobytes() == discrete_momentum(whole, p).covector.tobytes()
    calls.clear()
    mechanical_connection(lean, p)
    assert len(calls) == 624


def test_singular_newton_system_is_a_divergence():
    # Fiber T^2 with no shape: D1 L = (1 - delta0, 1) has a constant second
    # entry, so that entry of the residual D2 L(q0, q1) + D1 L(q1, q2) stays at
    # 1 while the Jacobian of d1 in q2, taken by the chart-curve fallback, has
    # a zero column.
    b = Bundle(translation_group(2), 0)

    def delta0(q0: BundlePoint, q1: BundlePoint) -> float:
        return float(q1.fiber.matrix[0, 2] - q0.fiber.matrix[0, 2])

    def value(q0, q1):
        return 0.5 * (delta0(q0, q1) - 1.0) ** 2 + q0.fiber.matrix[1, 2]

    def d1(q0, q1):
        return np.array([-(delta0(q0, q1) - 1.0), 1.0])

    def d2(q0, q1):
        return np.array([delta0(q0, q1) - 1.0, 0.0])

    L = DiscreteLagrangian(b, value, d1, d2)
    q0 = b.point(np.zeros(0), np.eye(3))
    q1 = b.point(np.zeros(0), [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SolverDivergedError, match="singular Newton system"):
        del_step(L, q0, q1)


def test_del_step_reports_divergence(monkeypatch):
    monkeypatch.setattr(mechanical, "NEWTON_MAX_ITER", 1)
    L = so3_coupled()
    b = L.bundle
    q0 = b.point([0.0, 0.0], np.eye(3))
    q1 = b.point([0.6, -0.4], lg.exp(SO3, [0.9, 0.7, -0.8]))
    with pytest.raises(SolverDivergedError, match="stalled at residual .* after 1 iterations"):
        del_step(L, q0, q1)


def test_mechanical_connection_reports_a_stall(monkeypatch):
    monkeypatch.setattr(mechanical, "NEWTON_MAX_ITER", 1)
    L = so3_coupled()
    b = L.bundle
    p = PairElement(b.point([0.0, 0.0], np.eye(3)),
                    b.point([0.6, -0.4], lg.exp(SO3, [0.9, 0.7, -0.8])))
    with pytest.raises(SolverDivergedError, match="stalled at residual .* after 1 iterations"):
        mechanical_connection(L, p)


# -- points outside the Lagrangian's bundle -------------------------------------------


def _refuse(*args):
    raise AssertionError("the Lagrangian was evaluated before the point check")


# A Lagrangian on so3_coupled's bundle that fails on any evaluation, so a
# refusal shows the check ran before any solve.
REFUSING = DiscreteLagrangian(Bundle(SO3, 2), _refuse, _refuse, _refuse, _refuse)
CALLS = {
    "del_step": lambda L, q0, q1: del_step(L, q0, q1),
    "del_trajectory": lambda L, q0, q1: del_trajectory(L, q0, q1, 3),
    "discrete_momentum": lambda L, q0, q1: discrete_momentum(L, PairElement(q0, q1)),
    "fiber_derivative": lambda L, q0, q1: fiber_derivative(L, PairElement(q0, q1)),
    "mechanical_connection": lambda L, q0, q1: mechanical_connection(L, PairElement(q0, q1)),
}


@pytest.mark.parametrize("call", CALLS)
def test_points_of_another_group_are_refused(call):
    good = REFUSING.bundle.point([0.1, -0.2], np.eye(3))
    for group in (SE3, translation_group(3)):
        bad = Bundle(group, 2).point([0.1, -0.2], lg.identity(group))
        for q0, q1 in ((good, bad), (bad, good)):
            with pytest.raises(GroupMismatchError,
                               match=f"point group {group.name} != bundle group SO3"):
                CALLS[call](REFUSING, q0, q1)


@pytest.mark.parametrize("call", CALLS)
def test_points_of_another_shape_dimension_are_refused(call):
    good = REFUSING.bundle.point([0.1, -0.2], np.eye(3))
    for n in (3, 0):
        bad = Bundle(SO3, n).point(np.full(n, 0.1), np.eye(3))
        for q0, q1 in ((good, bad), (bad, good)):
            with pytest.raises(ShapeMismatchError,
                               match=f"shape dimensions differ: bundle 2, point {n}"):
                CALLS[call](REFUSING, q0, q1)


# -- mechanical connections ----------------------------------------------------------


def test_mechanical_connection_abelian_difference():
    L = free_particle()
    b = L.bundle
    p = PairElement(b.point([0.1], [[1.0, 0.3], [0.0, 1.0]]),
                    b.point([0.2], [[1.0, 0.9], [0.0, 1.0]]))
    w = mechanical_connection(L, p)
    assert abs(w.matrix[0, 1] - 0.6) < 1e-12


@MECHANICS
@given(pairs(so3_pure().bundle, 0.0, 1.5))
def test_mechanical_connection_pure_group_word(p):
    w = mechanical_connection(so3_pure(), p)
    assert np.max(np.abs(w.matrix - p.second.fiber.matrix @ p.first.fiber.matrix.T)) < 1e-13


@MECHANICS
@given(pairs(so3_coupled().bundle, 0.4, 0.4))
def test_mechanical_connection_coupled_closed_form(p):
    # Zero momentum solves in closed form; the value is g1 exp(C(x0) dx) g0^-1.
    w = mechanical_connection(so3_coupled(), p)
    dx = p.second.shape.coords - p.first.shape.coords
    a = lg.exp(SO3, coupling_so3(p.first.shape.coords) @ dx)
    want = lg.compose(p.second.fiber, lg.compose(a, lg.inverse(p.first.fiber)))
    assert np.max(np.abs(w.matrix - want.matrix)) < 1e-10


@MECHANICS
@given(data=st.data())
def test_horizontal_pairs_carry_zero_momentum(data):
    from dconn.connection import horizontal_component

    for make in (so3_coupled, se3_coupled):
        L = make()
        p = data.draw(short_pairs(L.bundle, fiber=0.3))
        hor = horizontal_component(mechanical_discrete_connection(L), p)
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


@MECHANICS
@given(g0=elements(SO3), g1=elements(SO3))
def test_mechanical_discrete_connection_solves_each_shape_pair_once(g0, g1):
    solves = []
    solve = mechanical._canonical_solve

    def counting(L, x0, x1):
        solves.append((x0, x1))
        return solve(L, x0, x1)

    c = mechanical_discrete_connection(so3_coupled())
    x0, x1 = [0.1, -0.2], [0.25, -0.1]
    p = PairElement(c.bundle.point(x0, np.eye(3)), c.bundle.point(x1, np.eye(3)))
    moved = PairElement(c.bundle.point(x0, g0), c.bundle.point(x1, g1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanical, "_canonical_solve", counting)
        first, second = eval_form(c, p), eval_form(c, p)
        w = eval_form(c, moved)
    assert len(solves) == 1
    assert np.array_equal(first.matrix, second.matrix)
    # The one solved local representation serves every pair over (x0, x1).
    want = lg.compose(moved.second.fiber, lg.compose(first, lg.inverse(moved.first.fiber)))
    assert np.array_equal(w.matrix, want.matrix)


def test_a_failing_stack_raises_its_first_failing_row_after_solving_the_rows_before_it():
    # Rows 2 and 3 both fail; row 2's error is raised and rows 3 and 4 are never solved.
    tried = []
    solve = mechanical._canonical_solve

    def failing(L, x0, x1):
        tried.append(x1.coords.tolist())
        if x1.coords[0] > 0.3:
            raise SolverDivergedError(f"stalled at x1 = {x1.coords[0]:.2f}")
        return solve(L, x0, x1)

    c = mechanical_discrete_connection(so3_coupled())
    x0 = np.array([0.1, -0.2])
    x1s = x0 + np.array([[0.0, 0.1], [0.1, 0.0], [0.25, 0.0], [0.3, 0.0], [0.05, 0.0]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanical, "_canonical_solve", failing)
        with pytest.raises(SolverDivergedError, match=r"stalled at x1 = 0\.35$"):
            c.local_reps(x0, x1s)
    assert tried == x1s[:3].tolist()


@pytest.mark.parametrize("name", ["so3_coupled", "se3_coupled"])
@MECHANICS
@given(data=st.data())
def test_mechanical_discrete_connection_matches_pointwise_solve(name, data):
    # Both are one product g1 A g0^-1 of one canonical solve, so bit for bit.
    L = FIXTURES[name]()
    p = data.draw(short_pairs(L.bundle))
    via_form = eval_form(mechanical_discrete_connection(L), p)
    assert mechanical_connection(L, p).matrix.tobytes() == via_form.matrix.tobytes()


def se3_translated(data):
    """SE(3) elements: a rotation as in ``elements`` and a translation whose
    length is log-uniform in [1e-2, 1e6]."""
    u = data.draw(_coords(3, 1.0).filter(lambda v: np.linalg.norm(v) > 1e-3))
    m = lg.exp(SE3, np.concatenate([data.draw(algebra(SO3)), np.zeros(3)])).matrix.copy()
    m[:3, 3] = u * (10.0 ** data.draw(st.floats(-2.0, 6.0)) / np.linalg.norm(u))
    return lg.GroupElement(SE3, m)


@pytest.mark.parametrize("name", ["so3_coupled", "se3_coupled"])
@MECHANICS
@given(data=st.data())
def test_mechanical_connection_is_equivariant(name, data):
    # form(h p) = h form(p) h^-1: the solve sees only the shape pair, so a far
    # translation of both fibers moves the value by rounding alone.  Products
    # with a translation of length T round by about T ulps, whatever the
    # value's size, so the bound is relative to the largest entry of h too.
    L = FIXTURES[name]()
    p = data.draw(short_pairs(L.bundle))
    h = se3_translated(data) if L.bundle.group is SE3 else data.draw(elements(SO3))
    got = mechanical_connection(L, act_pair(h, p)).matrix
    want = lg.compose(h, lg.compose(mechanical_connection(L, p), lg.inverse(h))).matrix
    scale = max(np.max(np.abs(want)), np.max(np.abs(h.matrix)))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


# -- the displacement charts' Jacobians ----------------------------------------------


def reference_dexpinv(v):
    # I - L/2 + c2 L^2, written out for L = hat(v).
    w = SO3.hat(v)
    return np.eye(3) - 0.5 * w + lg._dexpinv_c2(float(np.linalg.norm(v))) * (w @ w)


def reference_extract_d1(m):
    r = m[:3, :3]
    out = np.zeros((6, 6))
    out[:3, :3] = (r - np.trace(r) * np.eye(3)) / 2.0
    out[3:, :3] = SO3.hat(m[:3, 3])
    out[3:, 3:] = -np.eye(3)
    return out


def reference_extract_d2(m):
    r = m[:3, :3]
    out = np.zeros((6, 6))
    out[:3, :3] = (np.trace(r) * np.eye(3) - r.T) / 2.0
    out[3:, 3:] = r
    return out


@st.composite
def rotation_vectors(draw):
    """so(3) vectors of length log-uniform in [1e-9, 2.5] (a third of them below
    the dexp^-1 series switch at 1e-4), and the zero vector."""
    u = draw(_coords(3, 1.0))
    norm = np.linalg.norm(u)
    return u if norm == 0.0 else u * (10.0 ** draw(st.floats(-9.0, 0.4)) / norm)


CHARTS = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@CHARTS
@given(rotation_vectors())
def test_log_chart_jacobians_are_the_two_dexpinv_calls_bit_for_bit(lam):
    # The entries of -dexpinv(lam) and dexpinv(-lam), from the numpy formula's L^2.
    w = SO3.hat(lam)
    p1, p2 = (np.array(e).reshape(3, 3) for e in presets._log_chart_entries(
        lam.tolist(), lg._dexpinv_c2(lg._norm(lam)), (w @ w).ravel().tolist()))
    assert p1.tobytes() == (-dexpinv_so3(lam)).tobytes() == (-reference_dexpinv(lam)).tobytes()
    assert p2.tobytes() == dexpinv_so3(-lam).tobytes() == reference_dexpinv(-lam).tobytes()


@CHARTS
@given(algebra(SE3, 2.0))
def test_extract_chart_jacobians_are_the_two_extract_derivatives_bit_for_bit(xi):
    m = lg.exp(SE3, xi).matrix
    d1_t, d2_t = presets._se3_extract_jacobian_entries(m.tolist())
    assert np.array(d1_t).tobytes() == reference_extract_d1(m).T.tobytes()
    assert np.array(d2_t).tobytes() == reference_extract_d2(m).T.tobytes()


def reference_dexpinv_transpose_derivative(lam, w):
    # The numpy formula the float kernel replaced, with c2'(t)/t taken from the
    # module: its own accuracy is tested against the exact series below.
    theta = lg._norm(lam)
    c2 = lg._dexpinv_c2(theta)
    dc2 = presets._dexpinv_c2_slope(theta, c2)
    lw = float(lam @ w)
    triple = lam * lw - w * float(lam @ lam)
    return (-0.5 * SO3.hat(w)
            + c2 * (lw * SO3.identity_matrix() + lam[:, None] * w - 2.0 * (w[:, None] * lam))
            + dc2 * (triple[:, None] * lam))


def reference_extract_d1_derivative(m, w):
    r = m[:3, :3]
    omega, v = w[:3], w[3:]
    out = np.zeros((6, 6))
    out[:3, :3] = (omega[:, None] * SO3.vee(r - r.T) + SO3.hat(r.T @ omega)) / 2.0
    out[:3, 3:] = SO3.hat(v) @ r
    return out


def reference_extract(m):
    r = m[:3, :3]
    return np.concatenate([SO3.vee((r - r.T) / 2.0), m[:3, 3]])


def ulps(got, want) -> float:
    """max |got - want| in units in the last place of want's largest entry."""
    return float(np.max(np.abs(got - want)) / np.spacing(np.max(np.abs(want))))


@st.composite
def switch_neighbours(draw):
    """so(3) vectors within 8 ulps of a series switch: c2's at 1e-4 or its slope's at 0.5."""
    u = draw(_coords(3, 1.0))
    norm = np.linalg.norm(u)
    u = np.array([1.0, 0.0, 0.0]) if norm == 0.0 else u / norm
    switch = draw(st.sampled_from([lg._DEXPINV_SERIES, presets._DC2_SERIES]))
    return u * switch * (1.0 + draw(st.integers(-8, 8)) * 2.0**-52)


# The float kernels against the numpy formulas: at most 2 ulps of the largest
# entry over 200 000 SO(3) and 100 000 SE(3) draws like the ones below.
FLOAT_KERNEL_ULPS = 3.0


@CHARTS
@given(st.one_of(rotation_vectors(), switch_neighbours()), _coords(3, 2.0))
def test_float_dexpinv_transpose_derivative_matches_the_numpy_formula(lam, w):
    x, y, z = lam.tolist()  # with |lam|^2 summed as _so3_jacobians sums it
    got = np.array(presets._dexpinv_transpose_entries([x, y, z], w.tolist(),
                                                      x * x + y * y + z * z)).reshape(3, 3)
    assert ulps(got, reference_dexpinv_transpose_derivative(lam, w)) <= FLOAT_KERNEL_ULPS


@CHARTS
@given(algebra(SE3, 2.0), _coords(6, 2.0))
def test_float_extract_d1_derivative_matches_the_numpy_formula(xi, w):
    m = lg.exp(SE3, xi).matrix
    got = np.array(presets._se3_extract_d1_entries(m.tolist(), w.tolist())).reshape(6, 6)
    assert ulps(got, reference_extract_d1_derivative(m, w)) <= FLOAT_KERNEL_ULPS
    assert np.array_equal(got[3:], np.zeros((3, 6)))
    # The chart itself only halves differences, so its bits are the numpy formula's.
    assert presets.se3_extract(m).tobytes() == reference_extract(m).tobytes()


# |B_2n| for n = 2 .. 13; c2'(t)/t = sum over n >= 2 of (2n - 2) |B_2n| t^(2n-4) / (2n)!.
BERNOULLI = [Fraction(1, 30), Fraction(1, 42), Fraction(1, 30), Fraction(5, 66),
             Fraction(691, 2730), Fraction(7, 6), Fraction(3617, 510), Fraction(43867, 798),
             Fraction(174611, 330), Fraction(854513, 138), Fraction(236364091, 2730),
             Fraction(8553103, 6)]
SLOPE_SERIES = [(2 * n - 2) * b / math.factorial(2 * n) for n, b in enumerate(BERNOULLI, start=2)]


def exact_slope(t: float) -> float:
    """c2'(t)/t from twelve terms of its series in exact arithmetic, rounded once.

    For t <= 1 the omitted terms are below 1e-18 of the sum (their ratio
    tends to (t / 2 pi)^2).
    """
    s = Fraction(t) ** 2
    return float(sum(c * s**k for k, c in enumerate(SLOPE_SERIES)))


@CHARTS
@given(st.one_of(st.floats(0.0, 1.0),
                 st.integers(-64, 64).map(lambda k: presets._DC2_SERIES * (1.0 + k * 2.0**-52))))
def test_dexpinv_c2_slope_matches_its_exact_series(t):
    # Six series terms hold it within 5e-13 below the switch; the closed form
    # above it cancels terms 720/t^4 times its size, 2.2e-12 at the switch.
    got = presets._dexpinv_c2_slope(t, lg._dexpinv_c2(t))
    tol = 1e-12 if t < presets._DC2_SERIES else 3e-12
    assert abs(got - exact_slope(t)) <= tol * exact_slope(t)


# c2(t) = sum over n >= 1 of |B_2n| t^(2n-2) / (2n)!, with |B_2| = 1/6.
C2_SERIES = [b / math.factorial(2 * n) for n, b in enumerate([Fraction(1, 6), *BERNOULLI], 1)]


def exact_c2(t: float) -> float:
    """c2(t) from thirteen terms of its series in exact arithmetic, rounded once."""
    s = Fraction(t) ** 2
    return float(sum(c * s**k for k, c in enumerate(C2_SERIES)))


@CHARTS
@given(st.one_of(st.floats(0.0, 1.0), st.floats(-8.0, 0.0).map(lambda e: 10.0**e),
                 st.integers(-64, 64).map(lambda k: lg._DEXPINV_SERIES * (1.0 + k * 2.0**-52))))
def test_dexpinv_c2_matches_its_exact_series_on_both_sides_of_the_switch(t):
    # Eight series terms stay within rounding (1.7e-16) below the switch; the
    # closed form above it cancels terms 12/t^2 times its size, 7.3e-15 at 0.5.
    tol = 4e-16 if t < lg._DEXPINV_SERIES else 1e-14
    assert abs(lg._dexpinv_c2(t) - exact_c2(t)) <= tol * exact_c2(t)


# -- the coupled pair table against the numpy formulas ---------------------------------

COUPLINGS = {"so3_coupled": (presets._SO3_C0, (presets._SO3_C1, presets._SO3_C2)),
             "se3_coupled": (presets._SE3_C0, (presets._SE3_C1, presets._SE3_C2)),
             "so3_pure": (np.zeros((3, 0)), ())}


def reference_coupled(name, q0, q1):
    """value, d1, d2 and d12 of a coupled fixture by the numpy formulas the float
    pair table replaced: one matrix expression per block, as in _coupled's docstring."""
    h, k = presets.COUPLED_STEP, presets.COUPLED_KAPPA / presets.COUPLED_STEP
    group = q0.fiber.group
    d, n = q0.shape.coords.size, group.dim
    c0, partials = COUPLINGS[name]
    stack = np.array(partials, dtype=float).reshape(d, n, d)
    m = group.inverse_matrix(q0.fiber.matrix) @ q1.fiber.matrix
    x0 = q0.shape.coords
    dx = q1.shape.coords - x0
    c = c0 + np.tensordot(x0, stack, axes=1)
    if group is SE3:
        lam, p1, p2 = reference_extract(m), reference_extract_d1(m), reference_extract_d2(m)
    else:
        lam = SO3.log_vector(m)
        p1, p2 = -reference_dexpinv(lam), reference_dexpinv(-lam)
    w = lam + c @ dx
    b = stack @ dx - c.T
    if group is SE3:
        second = reference_extract_d1_derivative(m, w)
    else:
        second = -(reference_dexpinv_transpose_derivative(lam, w) @ p2)
    jac = np.empty((d + n, d + n))
    jac[:d, :d] = k * (b @ c + stack.transpose(0, 2, 1) @ w) - np.eye(d) / h
    jac[:d, d:] = k * (b @ p2)
    jac[d:, :d] = k * (p1.T @ c)
    jac[d:, d:] = k * (p1.T @ p2 + second)
    return {"value": np.array(float(dx @ dx) / (2.0 * h) + presets.COUPLED_KAPPA * float(w @ w) / (2.0 * h)),
            "d1": np.concatenate([-dx / h + k * (b @ w), k * (p1.T @ w)]),
            "d2": np.concatenate([dx / h + k * (c.T @ w), k * (p2.T @ w)]),
            "d12": jac}


def table_ulps(got, want) -> float:
    """max |got - want| in units in the last place of want's largest entry, or
    of 1: a slot at two equal points is zero, and the numpy formulas' rounding
    of g0^-1 g1 leaves it at 1e-34 instead."""
    return float(np.max(np.abs(got - want)) / np.spacing(max(1.0, np.max(np.abs(want)))))


# The float pair table against reference_coupled: at most 12 table_ulps (the
# value of so3_pure; 9 on so3_coupled, 7 on se3_coupled, 5 to 8 for d1 and d2
# and at most 5 for d12) over 100 000 draws per coupled fixture like the ones below.
FLOAT_TABLE_ULPS = 16.0


@pytest.mark.parametrize("name", ["so3_coupled", "se3_coupled", "so3_pure"])
@CHARTS
@given(data=st.data())
def test_float_pair_table_matches_the_numpy_formulas(name, data):
    L = FIXTURES[name]()
    p = data.draw(st.one_of(pairs(L.bundle), short_pairs(L.bundle)))
    want = reference_coupled(name, p.first, p.second)
    for slot, ref in want.items():
        got = np.asarray(getattr(L, slot)(p.first, p.second))
        assert got.shape == ref.shape
        assert table_ulps(got, ref) <= FLOAT_TABLE_ULPS, slot


def test_coupled_fixtures_build_their_fixed_arrays_once_per_coupling():
    # Each build of a fixture reuses the arrays of an equal coupling, so a
    # fresh Lagrangian per trajectory or CLI report costs no table.
    for c0, partials in COUPLINGS.values():
        stack = np.array(partials, dtype=float).reshape(c0.shape[1], *c0.shape)
        first = presets._coupling_tables(c0, stack)
        assert presets._coupling_tables(c0.copy(), stack.copy()) is first
        assert all(not a.flags.writeable for a in first)


# -- evaluations per Newton iterate ---------------------------------------------------


def counted(name):
    """The coupled fixture ``name`` with calls of its chart's phi (one per pair
    table) and of each slot derivative counted."""
    calls = {"phi": 0, "d1": 0, "d2": 0, "d12": 0}

    def counting(key, f):
        def wrapper(*args):
            calls[key] += 1
            return f(*args)
        return wrapper

    build = presets._coupled
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presets, "_coupled", lambda bundle, coupling, partials, chart: build(
            bundle, coupling, partials, chart._replace(phi=counting("phi", chart.phi))))
        L = FIXTURES[name]()
    slots = {key: counting(key, getattr(L, key)) for key in ("d1", "d2", "d12")}
    return dataclasses.replace(L, **slots), calls


def benchmark_pairs(b):
    """Pairs like the starts of the benchmark's DEL trajectories: shape within
    0.1, fiber log within 0.3, and a step within 0.05 in the shape and 0.03
    in the fiber."""
    def build(q0, dx, xi):
        return PairElement(q0, BundlePoint(ShapePoint(q0.shape.coords + dx),
                                           lg.compose(q0.fiber, lg.exp(b.group, xi))))

    return st.builds(build, points(b, 0.1, 0.3), _coords(b.shape_dim, 0.05),
                     algebra(b.group, 0.03))


COUPLED = ["so3_coupled", "se3_coupled", "so3_pure"]


@pytest.mark.parametrize("name", COUPLED)
@MECHANICS
@given(data=st.data())
def test_del_trajectory_builds_one_pair_table_per_residual(name, data):
    # d12 at an iterate reuses the table of its residual, and the next step's
    # d2 that of the last residual, so only the first pair's d2 builds its own.
    L, calls = counted(name)
    p = data.draw(benchmark_pairs(L.bundle))
    steps = 4
    del_trajectory(L, p.first, p.second, steps)
    assert calls["d2"] == steps
    assert calls["d12"] == calls["d1"] - steps  # each step ends on one converged residual
    assert calls["phi"] == calls["d1"] + 1


@pytest.mark.parametrize("name", COUPLED)
@MECHANICS
@given(data=st.data())
def test_mechanical_connection_builds_one_pair_table_per_residual(name, data):
    L, calls = counted(name)
    mechanical_connection(L, data.draw(benchmark_pairs(L.bundle)))
    assert calls["d12"] == calls["d1"] - 1
    assert calls["phi"] == calls["d1"]
