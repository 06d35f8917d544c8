"""Continuous limits, induced forms, variations and order-of-accuracy sweeps.

The tangent properties run under hypothesis, derandomized, so every run
draws the same examples.
"""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn import bundle as bd
from dconn import lie_group as lg
from dconn.bundle import Bundle, BundlePoint, PairElement, ShapePoint
from dconn.connection import (
    VALIDITY_RADIUS,
    DiscreteConnection,
    _check_distance,
    eval_form,
    form_matrix,
    horizontal_component,
    trivial_connection,
    vertical_component,
)
from dconn.errors import (
    CutLocusError,
    DegenerateFitError,
    GroupMismatchError,
    OutOfDomainError,
    ShapeMismatchError,
    SolverDivergedError,
)
from dconn.lie_group import SE3, SO2, SO3, _norm, translation_group
from dconn.limits import (
    ContinuousConnection,
    cayley_connection,
    chart_pair_log,
    derivative_at_zero,
    endpoint_connection,
    estimate_order,
    exponentiated_connection,
    horizontal_variation,
    induced_continuous,
    unit_directions,
    vertical_tangent,
    vertical_variation,
)
from dconn.mechanical import DiscreteLagrangian
from dconn.presets import (
    CONTINUOUS_FIXTURES,
    LAGRANGIAN_FIXTURES,
    abelian_mechanical,
    default_pair,
    resolve_connection,
    so3_mechanical,
)

T1 = translation_group(1)


# -- tangents at a base point ---------------------------------------------------

TANGENT = settings(derandomize=True, max_examples=40, deadline=None, database=None)
GROUPS = (SO2, SO3, SE3, translation_group(3))


def _coords(n, bound=1.0):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


def _point(draw, b, shape_bound=0.1):
    # Fiber coordinates of at most 1 keep every rotation angle below pi.
    return b.point(draw(_coords(b.shape_dim, shape_bound)),
                   lg.exp(b.group, draw(_coords(b.group.dim))))


def _coefficient_form(b):
    """A continuous connection on b whose coefficient field a(x) varies with both coordinates."""
    k = np.arange(2 * b.group.dim, dtype=float).reshape(b.group.dim, 2)
    return ContinuousConnection(b, lambda x: 0.2 * np.cos(k + x[..., :1, None])
                                + 0.1 * x[..., 1:, None])


@st.composite
def tangents(draw, fiber_scale=0.5):
    """A bundle over 2 shape coordinates, a point q of it and a tangent v at q."""
    b = Bundle(draw(st.sampled_from(GROUPS)), 2)
    q = _point(draw, b)
    v = np.concatenate([draw(_coords(2)), draw(_coords(b.group.dim, fiber_scale))])
    return b, q, v


@st.composite
def pairs(draw):
    """A bundle, a pair p of it inside the validity radius and a tangent v at p.second."""
    b, q1, v = draw(tangents())
    return b, PairElement(_point(draw, b), q1), v


@TANGENT
@given(tangents())
def test_chart_pair_log_inverts_shift(sample):
    b, q, v = sample
    back = chart_pair_log(PairElement(q, bd.shift(q, v)))
    assert back.shape == v.shape and not back.flags.writeable
    assert np.max(np.abs(back[:2] - v[:2])) < 1e-12
    assert np.max(np.abs(back[2:] - v[2:])) < 1e-10


@TANGENT
@given(tangents())
def test_vertical_tangent_generates_group_action(sample):
    # The chart curve of the generator of xi reaches exp(xi) . q at t = 1.
    b, q, v = sample
    xi = v[2:]
    gen = vertical_tangent(q, xi)
    assert not gen.flags.writeable and np.array_equal(gen[:2], np.zeros(2))
    assert bd.points_match(bd.shift(q, gen), bd.act(lg.exp(b.group, xi), q), tol=1e-11)


def _tangent_call(call, a, c, p, v):
    if call == "one_form":
        return a.one_form(p.second, v)
    if call == "induced":
        return induced_continuous(c, p.second, v)
    variation = vertical_variation if call == "vertical" else horizontal_variation
    return variation(c, p, v)


@pytest.mark.parametrize("call", ["one_form", "induced", "vertical", "horizontal"])
def test_tangent_of_another_width_is_refused(call):
    a = so3_mechanical()
    c = exponentiated_connection(a)
    p = default_pair(a.bundle)
    for bad in (np.zeros(3), np.zeros(6), np.zeros((1, 5)), 0.0):
        with pytest.raises(ShapeMismatchError, match="need 5 columns at q"):
            _tangent_call(call, a, c, p, bad)


def _foreign_pairs(call, a, foreign):
    """The foreign pair, and for a variation, which reads p.first too, the pair
    whose first point alone is foreign."""
    if call in ("one_form", "induced"):
        return [foreign]
    return [foreign, PairElement(foreign.first, default_pair(a.bundle).second)]


@pytest.mark.parametrize("call", ["one_form", "induced", "vertical", "horizontal"])
def test_tangent_in_another_group_is_refused(call):
    # T3 and SO(3) share dimension 3, so the tangent's width cannot tell them apart.
    a = so3_mechanical()
    c = exponentiated_connection(a)
    for p in _foreign_pairs(call, a, default_pair(Bundle(translation_group(3), 2))):
        with pytest.raises(GroupMismatchError, match="point group T3 != bundle group SO3"):
            _tangent_call(call, a, c, p, np.zeros(5))


@pytest.mark.parametrize("call", ["one_form", "induced", "vertical", "horizontal"])
def test_tangent_over_another_shape_dimension_is_refused(call):
    a = so3_mechanical()
    c = exponentiated_connection(a)
    # The tangent sits at p.second, so its width is p.second's.
    for p, width in zip(_foreign_pairs(call, a, default_pair(Bundle(SO3, 3))), (6, 5)):
        with pytest.raises(ShapeMismatchError, match="shape dimensions differ: bundle 2, point 3"):
            _tangent_call(call, a, c, p, np.zeros(width))


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


@TANGENT
@given(tangents())
def test_induced_form_of_trivial_connection(sample):
    # form(q, q exp(t eta)) = g exp(t eta) g^-1, so the induced value is Ad_g eta.
    b, q, v = sample
    got = induced_continuous(trivial_connection(b), q, v)
    assert np.max(np.abs(got - lg.adjoint(q.fiber, v[2:]))) < 1e-9


@TANGENT
@given(tangents(), st.sampled_from(["trivial", "exponentiated"]))
def test_induced_form_recovers_vertical_generator(sample, kind):
    b, q, v = sample
    c = (trivial_connection(b) if kind == "trivial"
         else exponentiated_connection(_coefficient_form(b)))
    got = induced_continuous(c, q, vertical_tangent(q, v[2:]))
    assert np.max(np.abs(got - v[2:])) < 1e-8


@TANGENT
@given(tangents())
def test_induced_form_zero_on_zero_tangent(sample):
    b, q, v = sample
    c = exponentiated_connection(_coefficient_form(b))
    assert np.max(np.abs(induced_continuous(c, q, np.zeros_like(v)))) < 1e-14


@TANGENT
@given(tangents(fiber_scale=0.3))
def test_induced_form_recovers_continuous_one_form(sample):
    # Round trip: discretize exactly, then differentiate back.
    b, q, v = sample
    a = _coefficient_form(b)
    got = induced_continuous(exponentiated_connection(a), q, v)
    assert np.max(np.abs(got - a.one_form(q, v))) < 1e-7


@TANGENT
@given(st.floats(-0.3, 0.3), st.floats(-1.0, 1.0), _coords(1), _coords(1))
def test_induced_form_abelian_closed_form(x, fiber, u, eta):
    a = abelian_mechanical()
    q = a.bundle.point([x], lg.exp(T1, [fiber]))
    got = induced_continuous(exponentiated_connection(a), q, np.concatenate([u, eta]))
    assert abs(got[0] - (eta[0] + 0.4 * math.cos(x) * u[0])) < 1e-9


# -- exact and Cayley discretizations ----------------------------------------------


@TANGENT
@given(st.data())
def test_exact_discretization_on_diagonal(data):
    c = exponentiated_connection(so3_mechanical())
    q = _point(data.draw, c.bundle, shape_bound=2.0)
    w = eval_form(c, PairElement(q, q))
    assert np.max(np.abs(w.matrix - np.eye(3))) < 1e-15


@TANGENT
@given(st.data())
def test_exact_discretization_on_vertical_pairs(data):
    # exp(xi) . q over the same base point maps back to exp(xi).
    c = exponentiated_connection(so3_mechanical())
    q = _point(data.draw, c.bundle, shape_bound=0.3)
    xi = data.draw(_coords(3))
    w = eval_form(c, PairElement(q, bd.act(lg.exp(SO3, xi), q)))
    assert np.max(np.abs(w.matrix - lg.exp(SO3, xi).matrix)) < 1e-11


@TANGENT
@given(_coords(1), _coords(1))
def test_exponentiated_connection_abelian_closed_form(x0, step):
    c = exponentiated_connection(abelian_mechanical())
    x1 = x0 + step
    a = c.local_rep(ShapePoint(x0), ShapePoint(x1))
    # Translation part integrates the frozen coefficient at x0.
    assert abs(a[0, 1] - 0.4 * math.cos(x0[0]) * (x1[0] - x0[0])) < 1e-14


# The far-end one-form of se3_mechanical differs from forward difference in the
# last bits: 1.1e-16 at most over 20 000 draws of this test's ranges.
FAR_END_DRIFT = {"so3_mechanical": 0.0, "abelian": 0.0, "se3_mechanical": 2.5e-16}


@pytest.mark.parametrize("fixture", sorted(CONTINUOUS_FIXTURES))
@TANGENT
@given(st.data())
def test_local_reps_are_the_one_form_on_the_shape_step(fixture, data):
    # Exponentiated and Cayley map the one-form on the tangent (x1 - x0, 0) at
    # (x0, e) to the group.  Forward difference is exponentiated's adjoint,
    # A(x1, x0)^-1, which is the exp of the one-form at (x1, e) up to rounding.
    a = CONTINUOUS_FIXTURES[fixture]()
    b = a.bundle
    e = lg.identity(b.group)
    x0 = ShapePoint(data.draw(_coords(b.shape_dim)))
    x1 = ShapePoint(x0.coords + data.draw(_coords(b.shape_dim, 0.5)))
    v = np.concatenate([x1.coords - x0.coords, np.zeros(b.group.dim)])
    for build, to_group in ((exponentiated_connection, lg.exp), (cayley_connection, lg.cayley)):
        assert np.array_equal(build(a).local_rep(x0, x1),
                              to_group(b.group, a.one_form(BundlePoint(x0, e), v)).matrix)
    forward = endpoint_connection(a).local_rep(x0, x1)
    swapped = exponentiated_connection(a).local_rep(x1, x0)
    assert forward.tobytes() == b.group.inverse_matrix(swapped).tobytes()
    far_end = lg.exp(b.group, a.one_form(BundlePoint(x1, e), v)).matrix
    assert np.max(np.abs(forward - far_end)) <= FAR_END_DRIFT[fixture]


# -- coefficient fields on stacks ---------------------------------------------------


CONTINUOUS_BUILDS = pytest.mark.parametrize(
    "build", [exponentiated_connection, cayley_connection, endpoint_connection],
    ids=["exponentiated", "cayley", "forward_difference"])


@pytest.mark.parametrize("fixture", sorted(CONTINUOUS_FIXTURES))
@TANGENT
@given(st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_preset_fields_on_a_stack_are_their_values_row_by_row(fixture, seed, n):
    # Bit for bit, the empty stack included: coefficient(xs)[i] is coefficient(xs[i]),
    # and a stack of any leading shape is the flat stack reshaped.
    a = CONTINUOUS_FIXTURES[fixture]()
    s, d = a.bundle.shape_dim, a.bundle.group.dim
    xs = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, s))
    stacked = a.coefficient(xs)
    assert stacked.shape == (n, d, s)
    for x, row in zip(xs, stacked):
        assert a.coefficient(x).tobytes() == row.tobytes()
    if n % 2 == 0:
        square = a.coefficient(xs.reshape(2, n // 2, s))
        assert square.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("fixture", sorted(CONTINUOUS_FIXTURES))
@CONTINUOUS_BUILDS
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 256))
def test_a_field_returning_a_non_contiguous_stack_gives_the_contiguous_reps(fixture, build,
                                                                             seed, n):
    # The same values as every other column of a wider array: np.matmul on such
    # a view can round differently, so the reps take the field's result as one
    # C-contiguous stack.
    a = CONTINUOUS_FIXTURES[fixture]()

    def strided(x):
        return np.repeat(a.coefficient(x), 2, axis=-1)[..., ::2]

    assert not strided(np.zeros((4, a.bundle.shape_dim))).flags.c_contiguous
    rng = np.random.default_rng(seed)
    x0 = ShapePoint(0.2 * rng.standard_normal(a.bundle.shape_dim))
    x1s = x0.coords + 0.2 * rng.standard_normal((n, a.bundle.shape_dim))
    plain, viewed = build(a), build(dataclasses.replace(a, coefficient=strided))
    assert viewed.local_reps(x0.coords, x1s).tobytes() == \
        plain.local_reps(x0.coords, x1s).tobytes()
    for x in x1s[:8]:
        assert viewed.local_rep(x0, ShapePoint(x)).tobytes() == \
            plain.local_rep(x0, ShapePoint(x)).tobytes()


def test_a_point_wise_field_is_refused_on_the_forward_difference_paths():
    # On a stack of bases, k + x[0] broadcasts to one (3, 2) matrix instead of
    # one per base.  The per-pair rep hands the field its base as a one-row stack.
    k = np.arange(6.0).reshape(3, 2)
    a = ContinuousConnection(Bundle(SO3, 2), lambda x: 0.1 * (k + x[0]))
    c = endpoint_connection(a)
    x0 = ShapePoint([0.1, -0.2])
    x1s = x0.coords + np.array([[0.05, 0.0], [0.0, 0.05]])
    with pytest.raises(ShapeMismatchError, match=r"returned shape \(3, 2\), not \(1, 3, 2\)"):
        c.local_rep(x0, ShapePoint(x1s[0]))
    with pytest.raises(ShapeMismatchError, match=r"returned shape \(3, 2\), not \(2, 3, 2\)"):
        c.local_reps(x0.coords, x1s)
    q = Bundle(SO3, 2).point(x0.coords, np.eye(3))
    with pytest.raises(ShapeMismatchError, match=r"returned shape \(3, 2\), not \(8, 3, 2\)"):
        estimate_order(c, exponentiated_connection(so3_mechanical()), q,
                       unit_directions(c.bundle, 4), [1e-1, 1e-2])


@TANGENT
@given(st.data())
def test_cayley_discretization_identity_and_group_membership(data):
    c = cayley_connection(so3_mechanical())
    q = _point(data.draw, c.bundle, shape_bound=2.0)
    assert np.max(np.abs(eval_form(c, PairElement(q, q)).matrix - np.eye(3))) < 1e-15
    p = PairElement(_point(data.draw, c.bundle), _point(data.draw, c.bundle))
    SO3.check_matrix(eval_form(c, p).matrix, tol=1e-12)


# -- direction sampling --------------------------------------------------------------


def test_unit_directions_deterministic_and_unit():
    b = Bundle(SO3, 2)
    one = unit_directions(b, count=12, seed=3)
    two = unit_directions(b, count=12, seed=3)
    other = unit_directions(b, count=12, seed=4)
    assert len(one) == 12
    for v1, v2 in zip(one, two):
        assert np.array_equal(v1, v2)
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-12
    assert not np.array_equal(one[0], other[0])


@pytest.mark.parametrize("group, shape_dim", [(SO3, 2), (lg.SE3, 3), (T1, 1)],
                         ids=["SO3", "SE3", "T1"])
def test_unit_directions_are_the_per_row_draw(group, shape_dim):
    # Oracle: one standard-normal draw per row, divided by np.linalg.norm.
    b = Bundle(group, shape_dim)
    for count, seed in itertools.product((0, 1, 5, 32), (0, 7, 123)):
        rng = np.random.Generator(np.random.PCG64(seed))
        width = shape_dim + group.dim
        rows = [rng.standard_normal(width) for _ in range(count)]
        want = np.array([r / np.linalg.norm(r) for r in rows]).reshape(count, width)
        got = unit_directions(b, count, seed)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


# -- order estimation ------------------------------------------------------------------


@pytest.fixture(scope="module")
def order_setup():
    a = so3_mechanical()
    exact = exponentiated_connection(a)
    q = a.bundle.point([0.1, -0.15], np.eye(3))
    dirs = unit_directions(a.bundle, count=16)
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
    stretched = 2.0 * dirs
    with pytest.raises(ValueError):
        estimate_order(cayley_connection(a), exact, q, stretched, hs)
    with pytest.raises(ValueError, match="directions"):
        estimate_order(cayley_connection(a), exact, q, [], hs)


def test_sweep_across_groups_is_rejected(order_setup):
    # T2 and SO(3) share 3x3 matrices, so only the group tags tell them apart.
    a, exact, q, dirs, hs = order_setup
    t2 = trivial_connection(Bundle(translation_group(2), 2))
    with pytest.raises(GroupMismatchError):
        estimate_order(t2, exact, q, dirs, hs)
    q_t2 = t2.bundle.point(q.shape.coords, np.eye(3))
    with pytest.raises(ShapeMismatchError):
        estimate_order(t2, t2, q_t2, dirs, hs)
    with pytest.raises(GroupMismatchError):
        eval_form(t2, PairElement(q, q))


def test_sweep_past_the_validity_radius_is_rejected(order_setup):
    # At h = 1 some unit direction moves the shape farther than VALIDITY_RADIUS.
    a, exact, q, dirs, _ = order_setup
    with pytest.raises(OutOfDomainError, match="exceeds validity radius"):
        estimate_order(cayley_connection(a), exact, q, dirs, [1.0, 0.1, 0.01])


@pytest.mark.parametrize("fixture", ["so3_mechanical", "se3_mechanical", "abelian"])
@pytest.mark.parametrize("build", [cayley_connection, endpoint_connection],
                         ids=["cayley", "forward_difference"])
def test_order_errors_are_those_of_eval_form(fixture, build):
    # The sweep shares one base-fiber inverse; its errors must still be, bit
    # for bit, the norms of exact(p) candidate(p)^-1 composed from eval_form.
    a = CONTINUOUS_FIXTURES[fixture]()
    exact, candidate = exponentiated_connection(a), build(a)
    q = default_pair(a.bundle).first
    dirs = unit_directions(a.bundle, count=8)
    s = a.bundle.shape_dim
    hs = [1e-1, 3e-2, 1e-2]
    want = [[lg.conj_invariant_norm(lg.compose(eval_form(exact, p),
                                               lg.inverse(eval_form(candidate, p))))
             for p in (PairElement(q, bd.shift(q, h * d)) for d in dirs)] for h in hs]
    got = estimate_order(candidate, exact, q, dirs, hs).errors
    assert np.array(got).tobytes() == np.array(want).tobytes()


def per_sample_errors(candidate, exact, q, directions, hs):
    """The errors of an order sweep, one sample at a time.

    This is the loop estimate_order ran before its arithmetic was stacked,
    kept as the oracle of the stacked sweep: per sample, the chart-curve
    endpoint, both forms with their domain checks, the error and its norm.
    """
    group = q.fiber.group
    x0, g0inv = q.shape, group.inverse_matrix(q.fiber.matrix)
    s = x0.coords.size
    rows = []
    for h in hs:
        row = []
        for d in directions:
            x1 = ShapePoint(x0.coords + h * d[:s])
            g1 = q.fiber.matrix @ group.exp_matrix(h * d[s:])
            err = (form_matrix(exact, x0, x1, g1, g0inv)
                   @ group.inverse_matrix(form_matrix(candidate, x0, x1, g1, g0inv)))
            row.append(_norm(group.log_vector(err)))
        rows.append(tuple(row))
    return tuple(rows)


def _cli_order_pairs():
    """Every (candidate, reference) pair of CLI families that share a group and shape dimension."""
    families = [("trivial", "SO3", 2), ("trivial", "SE3", 2), ("trivial", "T1", 1),
                ("euler_poincare", "SO3", 0)]
    families += [(f"{kind}:{f}", "SO3", 2) for kind in ("exponentiated", "cayley",
                                                          "forward_difference")
                 for f in CONTINUOUS_FIXTURES]
    families += [(f"mechanical:{f}", "SO3", 2) for f in LAGRANGIAN_FIXTURES]
    conns = {f"{name}/{group}": resolve_connection(name, group, dim)
             for name, group, dim in families}
    return [(a, b) for a in conns for b in conns
            if (conns[a].bundle.group, conns[a].bundle.shape_dim)
            == (conns[b].bundle.group, conns[b].bundle.shape_dim)], conns


CLI_ORDER_PAIRS, CLI_CONNECTIONS = _cli_order_pairs()


@pytest.mark.parametrize("candidate, reference", CLI_ORDER_PAIRS)
def test_stacked_sweep_matches_the_per_sample_loop(candidate, reference):
    # Bound: equal bit for bit, errors and fit alike.
    cand, exact = CLI_CONNECTIONS[candidate], CLI_CONNECTIONS[reference]
    q = default_pair(exact.bundle).first
    dirs = unit_directions(exact.bundle, count=4)
    hs = [1e-1, 3e-2, 1e-2]
    want = per_sample_errors(cand, exact, q, dirs, hs)
    try:
        got = estimate_order(cand, exact, q, dirs, hs)
    except DegenerateFitError:
        maxima = [max(row) for row in want]
        assert min(maxima) < 1e-13 <= max(maxima)
        return
    assert got.errors == want
    assert got.max_errors == tuple(max(row) for row in want)


def _trap(name, cut_at, fail_at, calls):
    """An SO(3) connection over the plane whose local representation is e up to
    chart distance cut_at, a rotation within 1e-7 of pi beyond it, and a
    Newton failure beyond fail_at; it records each row it takes, in order."""
    half_turn = lg.exp(SO3, [0.0, 0.0, math.pi - 1e-7]).matrix

    def reps(x0s, x1s):
        out = []
        for x0, x1 in zip(np.broadcast_to(x0s, x1s.shape), x1s):
            calls.append((name, x1.tobytes()))
            d = bd.chart_distance(ShapePoint(x0), ShapePoint(x1))
            if d > fail_at:
                raise SolverDivergedError(f"{name} stalled at distance {d:.6f}")
            out.append(half_turn if d > cut_at else SO3.identity_matrix())
        return np.array(out)

    return DiscreteConnection(Bundle(SO3, 2), reps)


def _outcome(fn):
    try:
        return "ok", fn()
    except (OutOfDomainError, CutLocusError, SolverDivergedError) as exc:
        return type(exc).__name__, str(exc)


def check_then_compute_errors(candidate, exact, q, directions, hs):
    """The errors of an order sweep that checks, then computes, one sample at a time.

    Kept as the oracle of a sweep's refusals: every sample's chart distance
    is checked before any local representation is taken; then exact's
    representations of all samples, in sweep order, then candidate's; then
    per_sample_errors, whose first log past the cut raises.
    """
    x0, s = q.shape, q.shape.coords.size
    ends = [ShapePoint(x0.coords + h * d[:s]) for h in hs for d in directions]
    for x1 in ends:
        _check_distance(bd.chart_distance(x0, x1))
    for c in (exact, candidate):
        for x1 in ends:
            c.local_rep(x0, x1)
    return per_sample_errors(candidate, exact, q, directions, hs)


def test_failing_sweeps_check_then_compute():
    # Over a grid of failure distances a sweep refuses, in this order: a
    # sample past the radius (h = 0.7 moves some directions out), before any
    # local representation; exact's first stalled solve; candidate's first
    # stalled solve; a log at the cut locus.
    q = Bundle(SO3, 2).point([0.1, -0.15], lg.exp(SO3, [0.2, -0.1, 0.3]).matrix)
    dirs = unit_directions(Bundle(SO3, 2), count=8)
    inf = math.inf
    seen = collections.Counter()
    grid = itertools.product(([0.7, 0.2, 0.05], [0.45, 0.1, 0.03]), (inf, 0.3, 0.02),
                             (inf, 0.4, 0.1), (inf, 0.35, 0.05))
    for hs, cut_at, exact_fails, candidate_fails in grid:
        calls = {"oracle": [], "sweep": []}
        traps = {mode: (_trap("candidate", cut_at, candidate_fails, calls[mode]),
                        _trap("exact", inf, exact_fails, calls[mode])) for mode in calls}
        oracle = _outcome(lambda: check_then_compute_errors(*traps["oracle"], q, dirs, hs))
        got = _outcome(lambda: estimate_order(*traps["sweep"], q, dirs, hs).errors)
        assert got == oracle
        ends = [(q.shape.coords + h * d[:2]).tobytes() for h in hs for d in dirs]
        every = [("exact", x) for x in ends] + [("candidate", x) for x in ends]
        kind, detail = oracle
        kind = f"{kind}:{detail.split()[0]}" if kind == "SolverDivergedError" else kind
        taken = calls["sweep"]
        assert taken == every[:len(taken)]
        if kind == "OutOfDomainError":
            assert taken == []
        elif kind in ("ok", "CutLocusError"):
            assert taken == every
        seen[kind] += 1
    assert seen == {"ok": 1, "OutOfDomainError": 27, "SolverDivergedError:exact": 18,
                    "SolverDivergedError:candidate": 6, "CutLocusError": 2}


# Each continuous fixture's group, with the Lagrangian fixture on its bundle.
SWEEP_BUNDLES = {"so3_mechanical": ("SO3", "so3_coupled"),
                 "se3_mechanical": ("SE3", "se3_coupled"), "abelian": ("T1", "free_particle")}


@pytest.mark.parametrize("fixture", sorted(SWEEP_BUNDLES))
@pytest.mark.parametrize("kind", ["exponentiated", "cayley", "forward_difference", "trivial",
                                  "mechanical"])
def test_sweeps_take_one_stacked_call_per_connection(fixture, kind):
    a = CONTINUOUS_FIXTURES[fixture]()
    group, lagrangian = SWEEP_BUNDLES[fixture]
    family = {"trivial": "trivial",
              "mechanical": f"mechanical:{lagrangian}"}.get(kind, f"{kind}:{fixture}")
    calls = []

    def counted(c, name):
        def stacked(x0s, x1s):
            calls.append(f"{name}.local_reps({len(x1s)})")
            return c.local_reps(x0s, x1s)

        return dataclasses.replace(c, local_reps=stacked)

    q = default_pair(a.bundle).first
    dirs = unit_directions(a.bundle, count=8)
    candidate = resolve_connection(family, group, a.bundle.shape_dim)
    estimate_order(counted(candidate, "candidate"), counted(exponentiated_connection(a), "exact"),
                   q, dirs, [1e-1, 3e-2, 1e-2])
    assert calls == ["exact.local_reps(24)", "candidate.local_reps(24)"]


@pytest.mark.parametrize("fixture", ["so3_mechanical", "se3_mechanical", "abelian"])
@CONTINUOUS_BUILDS
def test_continuous_sweep_leaving_the_domain_raises_the_per_sample_error(fixture, build):
    # At h = 0.9 the directions' shape steps straddle VALIDITY_RADIUS: the
    # stacked reps cover the in-domain prefix, and the first sample past the
    # radius names its distance as the per-sample loop does.
    a = CONTINUOUS_FIXTURES[fixture]()
    exact, candidate = exponentiated_connection(a), build(a)
    q = default_pair(a.bundle).first
    dirs = unit_directions(a.bundle, count=16)
    hs = [0.9, 0.1, 0.01]
    inside = [0.9 * np.linalg.norm(d[:a.bundle.shape_dim]) <= VALIDITY_RADIUS for d in dirs]
    assert inside[0] and not all(inside)
    with pytest.raises(OutOfDomainError) as oracle:
        per_sample_errors(candidate, exact, q, dirs, hs)
    with pytest.raises(OutOfDomainError) as stacked:
        estimate_order(candidate, exact, q, dirs, hs)
    assert str(stacked.value) == str(oracle.value)


def _trap_field(x0, cut_at, fail_at):
    """An SO(3) coefficient field over the plane for the far-end scheme: zero
    up to chart distance cut_at from x0, a step to a rotation within 1e-7 of
    pi beyond it, and a Newton failure beyond fail_at, at the stack's first
    point that far out."""

    def coefficient(x):
        dx = x - x0
        d2 = np.sum(dx * dx, axis=-1)[..., None, None]
        d = np.sqrt(d2)
        if np.any(d > fail_at):
            raise SolverDivergedError(f"coefficient stalled at distance {d[d > fail_at][0]:.6f}")
        turn = np.array([[0.0], [0.0], [math.pi - 1e-7]]) * dx[..., None, :]
        return np.divide(turn, d2, out=np.zeros_like(turn), where=d > cut_at)

    return ContinuousConnection(Bundle(SO3, 2), coefficient)


def test_failing_stacked_reps_check_then_compute():
    # A stacked rep that raises names the first failing sample in sweep
    # order, as its per-pair rep does; a sweep that leaves the domain takes
    # no rep, and a log at the cut locus raises only once every rep is taken.
    q = Bundle(SO3, 2).point([0.1, -0.15], lg.exp(SO3, [0.2, -0.1, 0.3]).matrix)
    dirs = unit_directions(Bundle(SO3, 2), count=8)
    exact = exponentiated_connection(ContinuousConnection(
        Bundle(SO3, 2), lambda x: np.zeros(x.shape[:-1] + (3, 2))))
    inf = math.inf
    seen = collections.Counter()
    grid = itertools.product(([0.7, 0.2, 0.05], [0.45, 0.1, 0.03]), (inf, 0.3, 0.02),
                             (inf, 0.35, 0.05))
    for hs, cut_at, fail_at in grid:
        cand = endpoint_connection(_trap_field(q.shape.coords, cut_at, fail_at))
        oracle = _outcome(lambda: check_then_compute_errors(cand, exact, q, dirs, hs))
        assert _outcome(lambda: estimate_order(cand, exact, q, dirs, hs).errors) == oracle
        seen[oracle[0]] += 1
    assert seen == {"ok": 1, "OutOfDomainError": 9, "CutLocusError": 2,
                    "SolverDivergedError": 6}


def test_sweep_with_mismatched_shape_dimensions_is_rejected(order_setup):
    a, exact, q, dirs, hs = order_setup
    wide = trivial_connection(Bundle(SO3, 5))
    with pytest.raises(ShapeMismatchError, match="candidate 5, exact 2, q 2"):
        estimate_order(wide, exact, q, dirs, hs)
    q5 = wide.bundle.point(np.zeros(5), np.eye(3))
    with pytest.raises(ShapeMismatchError, match=r"need 8 columns at q .* shape \(16, 5\)"):
        estimate_order(wide, wide, q5, dirs, hs)


def test_sweep_directions_must_be_rows_of_tangent_coordinates(order_setup):
    a, exact, q, dirs, hs = order_setup
    for bad in (dirs[0], dirs[:, :4], np.hstack([dirs, dirs[:, :1]]), dirs[None]):
        with pytest.raises(ShapeMismatchError, match="need 5 columns"):
            estimate_order(cayley_connection(a), exact, q, bad, hs)


@pytest.mark.parametrize("part", [slice(0, 2), slice(2, 5)], ids=["shape", "fiber"])
@pytest.mark.parametrize("value", [np.nan, 2.0], ids=["nan", "norm2"])
def test_sweep_directions_must_be_unit_rows(order_setup, part, value):
    # A NaN row's norm is NaN, which no tolerance may let through.
    a, exact, q, dirs, hs = order_setup
    bad = np.array(dirs)
    bad[3] = 0.0
    bad[3, part.start] = value
    with pytest.raises(ValueError, match=rf"directions must be unit vectors \(norm {value:.6f}\)"):
        estimate_order(cayley_connection(a), exact, q, bad, hs)


@pytest.mark.parametrize("coordinate", [math.inf, math.nan], ids=["inf", "nan"])
def test_sweep_from_a_non_finite_base_point_is_rejected(order_setup, coordinate):
    # An infinite one was once subtracted from itself before any check: a
    # RuntimeWarning (an error under this suite's filter), then "shape pair
    # distance nan is not finite".
    a, exact, q, dirs, hs = order_setup
    far = BundlePoint(ShapePoint([coordinate, 0.0]), q.fiber)
    with pytest.raises(ValueError, match="base point shape coordinates must be finite"):
        estimate_order(cayley_connection(a), exact, far, dirs, hs)


# -- variations -------------------------------------------------------------------------


@TANGENT
@given(pairs())
def test_variations_of_stationary_curve_vanish(sample):
    b, p, v = sample
    c = exponentiated_connection(_coefficient_form(b))
    frozen = np.zeros_like(v)
    assert np.max(np.abs(vertical_variation(c, p, frozen))) < 1e-12
    hvar = horizontal_variation(c, p, frozen)
    assert np.max(np.abs(hvar[2:])) < 1e-12
    assert np.max(np.abs(hvar[:2])) == 0.0


@TANGENT
@given(pairs())
def test_variations_of_trivial_connection_split_coordinates(sample):
    # ver end fiber is g1 itself, hor end fiber stays g0: the variation
    # velocity lands entirely in one factor.
    b, p, v = sample
    c = trivial_connection(b)
    ver = vertical_variation(c, p, v)
    assert not ver.flags.writeable and ver.shape == v.shape
    assert np.max(np.abs(ver[:2])) == 0.0
    assert np.max(np.abs(ver[2:] - v[2:])) < 1e-9
    hor = horizontal_variation(c, p, v)
    assert np.array_equal(hor[:2], v[:2])
    assert np.max(np.abs(hor[2:])) < 1e-9


@TANGENT
@given(pairs())
def test_vertical_curve_has_no_horizontal_fiber_motion(sample):
    # Vary the endpoint purely vertically: the horizontal part of the pair
    # keeps its fiber, only the connection value moves.
    b, p, v = sample
    c = exponentiated_connection(_coefficient_form(b))
    hor = horizontal_variation(c, p, vertical_tangent(p.second, v[2:]))
    assert np.max(np.abs(hor[:2])) == 0.0
    assert np.max(np.abs(hor[2:])) < 1e-9


# -- stacked chart-curve samples --------------------------------------------------------


def per_sample_derivative(sample, h_list=(5.0e-3, 2.5e-3)):
    """derivative_at_zero as it ran before the stencil took stacked samples: one
    call of the sampler per stencil time, coarser step first, kept as the oracle."""
    hs = [float(h) for h in h_list]

    def stencil(h):
        return (-sample(2 * h) + 8 * sample(h) - 8 * sample(-h) + sample(-2 * h)) / (12 * h)

    estimates = [stencil(h) for h in hs[-2:]]
    if len(estimates) == 1:
        return estimates[0]
    r = hs[-2] / hs[-1]
    return (r**4 * estimates[-1] - estimates[-2]) / (r**4 - 1.0)


def per_sample_induced(c, q, v, h_list=(5.0e-3, 2.5e-3)):
    """induced_continuous one sample at a time: eval_form at each chart-curve point."""
    def sample(t):
        return lg.log(eval_form(c, PairElement(q, bd.shift(q, t * v))))

    return per_sample_derivative(sample, h_list)


def per_sample_variation(call, c, p, v):
    """A variation one sample at a time: the endpoint of ver or hor of (q0, shift(q1, t v))."""
    component = vertical_component if call == "vertical" else horizontal_component

    def endpoint(t):
        return component(c, PairElement(p.first, bd.shift(p.second, t * v))).second.fiber

    g0inv = lg.inverse(endpoint(0.0))
    fiber = per_sample_derivative(lambda t: lg.log(lg.compose(g0inv, endpoint(t))))
    s = p.second.shape.coords.size
    return np.concatenate([v[:s] if call == "horizontal" else np.zeros(s), fiber])


def per_sample_chart_derivative(f, q, first=0):
    """A value-only slot derivative: per_sample_derivative along each chart curve
    t -> shift(q, t e_i), i >= first."""
    dim = q.shape.coords.size + q.fiber.group.dim
    return np.stack([per_sample_derivative(lambda t, e=e: f(bd.shift(q, t * e)))
                     for e in np.eye(dim)[first:]], axis=-1)


# (family, group) of every connection family the CLI resolves.
CLI_FAMILIES = [
    *(("trivial", g) for g in ("SO2", "SO3", "SE3", "T1")),
    ("euler_poincare", "SO3"),
    *((f"{kind}:{f}", "SO3") for kind in ("exponentiated", "cayley", "forward_difference")
      for f in sorted(CONTINUOUS_FIXTURES)),
    *((f"mechanical:{f}", "SO3") for f in sorted(LAGRANGIAN_FIXTURES)),
]
STACKED = settings(derandomize=True, max_examples=8, deadline=None, database=None)


def _random_pair(b, rng):
    """A pair of b whose points lie within 0.3 of each other, and a tangent at
    its second point."""
    q0 = b.random_point(rng, shape_scale=0.2, fiber_scale=0.5)
    step = rng.standard_normal(b.shape_dim)
    if b.shape_dim:
        step *= 0.3 * rng.uniform() / np.linalg.norm(step)
    q1 = b.point(q0.shape.coords + step, lg.random_element(b.group, rng, 0.5))
    return PairElement(q0, q1), rng.standard_normal(b.shape_dim + b.group.dim)


@pytest.mark.parametrize("family, group", CLI_FAMILIES)
@STACKED
@given(st.integers(0, 2**32 - 1), st.sampled_from([(5.0e-3, 2.5e-3), (1e-2,), (0.1, 0.03, 0.02)]))
def test_stacked_samples_equal_the_per_sample_loops(family, group, seed, h_list):
    # Bound: equal bit for bit, the induced form at each h_list and both variations.
    c = resolve_connection(family, group)
    p, v = _random_pair(c.bundle, np.random.default_rng(seed))
    got = induced_continuous(c, p.second, v, h_list)
    assert got.tobytes() == per_sample_induced(c, p.second, v, h_list).tobytes()
    for call, variation in (("vertical", vertical_variation), ("horizontal", horizontal_variation)):
        assert variation(c, p, v).tobytes() == per_sample_variation(call, c, p, v).tobytes()


@pytest.mark.parametrize("fixture", sorted(LAGRANGIAN_FIXTURES))
@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_value_only_slot_derivatives_equal_the_per_sample_loops(fixture, seed):
    # Bound: equal bit for bit, d12 the derivative of the value-only d1.
    L = LAGRANGIAN_FIXTURES[fixture]()
    lean = DiscreteLagrangian(L.bundle, L.value)
    p, _ = _random_pair(L.bundle, np.random.default_rng(seed))
    q0, q1 = p.first, p.second
    s = L.bundle.shape_dim

    def d1(q0, q1, first=0):
        return per_sample_chart_derivative(lambda q: L.value(q, q1), q0, first)

    pairs = [(lean.d1_eval(q0, q1), d1(q0, q1)), (lean.d1_eval(q0, q1, s), d1(q0, q1, s)),
             (lean.d2_eval(q0, q1), per_sample_chart_derivative(lambda q: L.value(q0, q), q1)),
             (lean.d12_eval(q0, q1, s),
              per_sample_chart_derivative(lambda q: d1(q0, q, s), q1, s))]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()


def test_derivative_of_a_scalar_sampler_keeps_its_type():
    for h_list in ([0.1], [0.4, 0.2]):
        for sample in (np.sin, math.sin, lambda t: np.array([math.sin(t)])):
            got, want = derivative_at_zero(sample, h_list), per_sample_derivative(sample, h_list)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _counted(c, calls):
    """c with each local_reps call recorded as its row count."""

    def stacked(x0s, x1s):
        calls.append(len(x1s))
        return c.local_reps(x0s, x1s)

    return dataclasses.replace(c, local_reps=stacked)


@pytest.mark.parametrize("family, group", CLI_FAMILIES)
def test_chart_curve_derivatives_take_one_stacked_call(family, group):
    c = resolve_connection(family, group)
    p, v = _random_pair(c.bundle, np.random.default_rng(5))
    for fn, rows in ((lambda k: induced_continuous(k, p.second, v), 8),
                     (lambda k: induced_continuous(k, p.second, v, [1e-2]), 4),
                     (lambda k: vertical_variation(k, p, v), 9),
                     (lambda k: horizontal_variation(k, p, v), 9)):
        calls = []
        fn(_counted(c, calls))
        assert calls == [rows]


def _stack_times(call):
    """The times of a stacked derivative's rows at the default h_list: a
    variation's t = 0, then 2h, h, -h, -2h for each step h."""
    return ([] if call == "induced" else [0.0]) + [
        t for h in (5.0e-3, 2.5e-3) for t in (2 * h, h, -h, -2 * h)]


def check_then_compute(call, c, p, v):
    """A chart-curve derivative that checks, then computes, one sample at a time.

    Kept as the oracle of a stacked derivative's refusals: every row's chart
    distance is checked, in stack order (a variation's t = 0 first), before any
    local representation is taken; then the representations of all rows; then
    the per-sample loop, whose first log past the cut raises.
    """
    q0 = p.second if call == "induced" else p.first
    ends = [bd.shift(p.second, t * v).shape for t in _stack_times(call)]
    for x1 in ends:
        _check_distance(bd.chart_distance(q0.shape, x1))
    for x1 in ends:
        c.local_rep(q0.shape, x1)
    if call == "induced":
        return per_sample_induced(c, p.second, v)
    return per_sample_variation(call, c, p, v)


@pytest.mark.parametrize("call, want", [
    ("induced", {"ok": 13, "OutOfDomainError": 9, "SolverDivergedError": 3, "CutLocusError": 2}),
    ("vertical", {"ok": 2, "OutOfDomainError": 18, "SolverDivergedError": 6, "CutLocusError": 1}),
    ("horizontal", {"ok": 2, "OutOfDomainError": 18, "SolverDivergedError": 6,
                    "CutLocusError": 1})])
def test_failing_chart_curve_derivatives_check_then_compute(call, want):
    # Over a grid of speeds and failure distances a stacked derivative refuses,
    # in this order: a row past the radius, before any local representation;
    # the first stalled solve; a log at the cut locus.  The tangent moves the
    # shape only, so a rep of a half turn meets the cut.  p.second sits 0.3
    # from p.first along it: at speed 5 a variation's row 1 (t = 0.01) is the
    # farthest, at 0.35.
    b = Bundle(SO3, 2)
    q0 = b.point([0.1, -0.15], lg.exp(SO3, [0.2, -0.1, 0.3]).matrix)
    p = PairElement(q0, b.point([0.4, -0.15], lg.exp(SO3, [-0.1, 0.3, 0.2]).matrix))
    inf = math.inf
    seen = collections.Counter()
    for speed, cut_at, fail_at in itertools.product((5.0, 25.0, 60.0), (inf, 0.32, 0.1),
                                                    (inf, 0.34, 0.2)):
        v = np.array([speed, 0.0, 0.0, 0.0, 0.0])
        calls = {"oracle": [], "stacked": []}
        traps = {mode: _trap("c", cut_at, fail_at, calls[mode]) for mode in calls}
        oracle = _outcome(lambda: check_then_compute(call, traps["oracle"], p, v))
        kind, got = _outcome(lambda: _tangent_call(call, None, traps["stacked"], p, v))
        assert kind == oracle[0]
        assert (got.tobytes() == oracle[1].tobytes()) if kind == "ok" else (got == oracle[1])
        every = [("c", bd.shift(p.second, t * v).shape.coords.tobytes())
                 for t in _stack_times(call)]
        taken = calls["stacked"]
        assert taken == every[:len(taken)]
        if kind == "OutOfDomainError":
            assert taken == []
        elif kind in ("ok", "CutLocusError"):
            assert taken == every
        seen[kind] += 1
    assert seen == want


@pytest.mark.parametrize("call", ["vertical", "horizontal"])
def test_a_later_row_past_the_radius_raises_before_an_earlier_rows_solve(call):
    # Row 0 (t = 0) sits 0.3 out and its solve stalls; row 1 (t = 0.01) sits
    # 0.55 out.  The per-sample loop met the stall first, the stack meets the
    # domain check first and takes no rep.
    b = Bundle(SO3, 2)
    p = PairElement(b.point([0.1, -0.15], np.eye(3)), b.point([0.4, -0.15], np.eye(3)))
    v = np.array([25.0, 0.0, 0.0, 0.0, 0.0])
    calls = []
    trap = _trap("c", math.inf, 0.2, calls)
    with pytest.raises(SolverDivergedError, match="c stalled at distance 0.300000"):
        per_sample_variation(call, trap, p, v)
    calls.clear()
    with pytest.raises(OutOfDomainError, match="distance 0.5500 exceeds"):
        _tangent_call(call, None, trap, p, v)
    assert calls == []
