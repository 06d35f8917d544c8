"""Continuous limits, induced forms, variations and order-of-accuracy sweeps."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from dconn import bundle as bd
from dconn import lie_group as lg
from dconn.bundle import Bundle, BundlePoint, PairElement, ShapePoint
from dconn.connection import (
    VALIDITY_RADIUS,
    DiscreteConnection,
    eval_form,
    form_matrix,
    trivial_connection,
)
from dconn.errors import (
    BasepointMismatchError,
    CutLocusError,
    DegenerateFitError,
    GroupMismatchError,
    OutOfDomainError,
    ShapeMismatchError,
    SolverDivergedError,
)
from dconn.lie_group import SO3, _norm, translation_group
from dconn.limits import (
    ContinuousConnection,
    TangentVector,
    cayley_connection,
    chart_curve,
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
from dconn.presets import (
    CONTINUOUS_FIXTURES,
    LAGRANGIAN_FIXTURES,
    abelian_mechanical,
    default_pair,
    resolve_connection,
    so3_mechanical,
)

T1 = translation_group(1)


# -- chart curves -------------------------------------------------------------


def test_chart_curve_endpoints():
    b = Bundle(SO3, 2)
    rng = np.random.default_rng(50)
    q = b.random_point(rng)
    eta = np.array([0.1, 0.3, -0.2])
    v = TangentVector(q, [0.2, -0.1], eta)
    eta[0] = 9.0  # the fiber velocity is a read-only copy
    assert v.fiber_velocity[0] == 0.1 and not v.fiber_velocity.flags.writeable
    assert bd.points_match(chart_curve(v, 0.0), q)
    far = chart_curve(v, 1.0)
    assert np.max(np.abs(far.shape.coords - (q.shape.coords + v.shape_velocity))) < 1e-15


def test_chart_pair_log_inverts_chart_curve():
    b = Bundle(SO3, 2)
    rng = np.random.default_rng(51)
    for _ in range(20):
        q = b.random_point(rng)
        v = TangentVector(q, rng.standard_normal(2), 0.5 * rng.standard_normal(3))
        back = chart_pair_log(PairElement(q, chart_curve(v, 1.0)))
        assert np.max(np.abs(back.shape_velocity - v.shape_velocity)) < 1e-12
        assert np.max(np.abs(back.fiber_velocity - v.fiber_velocity)) < 1e-10


def test_vertical_tangent_generates_group_action():
    # chart_curve of the generator of xi reaches exp(xi) . q at t = 1.
    b = Bundle(SO3, 2)
    rng = np.random.default_rng(52)
    for _ in range(10):
        q = b.random_point(rng)
        xi = lg.random_algebra(SO3, rng, scale=0.5)
        end = chart_curve(vertical_tangent(q, xi), 1.0)
        assert bd.points_match(end, bd.act(lg.exp(SO3, xi), q), tol=1e-11)


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
        v = TangentVector(q, rng.standard_normal(2), 0.5 * rng.standard_normal(3))
        got = induced_continuous(c, v)
        want = lg.adjoint(q.fiber, v.fiber_velocity)
        assert np.max(np.abs(got - want)) < 1e-9


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
            assert np.max(np.abs(got - xi)) < 1e-8


def test_induced_form_zero_on_zero_tangent():
    c = exponentiated_connection(so3_mechanical())
    rng = np.random.default_rng(55)
    q = c.bundle.random_point(rng, shape_scale=0.1)
    v = TangentVector(q, np.zeros(2), np.zeros(3))
    assert np.max(np.abs(induced_continuous(c, v))) < 1e-14


def test_induced_form_recovers_continuous_one_form():
    # Round trip: discretize exactly, then differentiate back.
    a = so3_mechanical()
    c = exponentiated_connection(a)
    rng = np.random.default_rng(56)
    for _ in range(10):
        q = a.bundle.random_point(rng, shape_scale=0.1)
        v = TangentVector(q, rng.standard_normal(2), 0.3 * rng.standard_normal(3))
        got = induced_continuous(c, v)
        want = a.one_form(v)
        assert np.max(np.abs(got - want)) < 1e-7


def test_induced_form_abelian_closed_form():
    a = abelian_mechanical()
    c = exponentiated_connection(a)
    rng = np.random.default_rng(57)
    for _ in range(10):
        x = 0.3 * rng.standard_normal(1)
        q = a.bundle.point(x, lg.random_element(T1, rng))
        u = rng.standard_normal(1)
        eta = rng.standard_normal(1)
        got = induced_continuous(c, TangentVector(q, u, eta))
        want = eta[0] + 0.4 * math.cos(x[0]) * u[0]
        assert abs(got[0] - want) < 1e-9


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
        w = eval_form(c, PairElement(q, bd.act(lg.exp(SO3, xi), q)))
        assert np.max(np.abs(w.matrix - lg.exp(SO3, xi).matrix)) < 1e-11


def test_exponentiated_connection_abelian_closed_form():
    c = exponentiated_connection(abelian_mechanical())
    rng = np.random.default_rng(60)
    for _ in range(10):
        x0 = 0.3 * rng.standard_normal(1)
        x1 = x0 + 0.3 * rng.standard_normal(1)
        a = c.local_rep(ShapePoint(x0), ShapePoint(x1))
        # Translation part integrates the frozen coefficient at x0.
        assert abs(a[0, 1] - 0.4 * math.cos(x0[0]) * (x1[0] - x0[0])) < 1e-14


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
            v = TangentVector(base, x1.coords - x0.coords, np.zeros(b.group.dim))
            assert np.array_equal(c.local_rep(x0, x1), to_group(b.group, a.one_form(v)).matrix)


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
             for p in (PairElement(q, chart_curve(TangentVector(q, d[:s], d[s:]), h))
                       for d in dirs)] for h in hs]
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
    Newton failure beyond fail_at; it records each call."""
    half_turn = lg.exp(SO3, [0.0, 0.0, math.pi - 1e-7]).matrix

    def rep(x0, x1):
        calls.append((name, x1.coords.tobytes()))
        d = bd.chart_distance(x0, x1)
        if d > fail_at:
            raise SolverDivergedError(f"{name} stalled at distance {d:.6f}")
        return half_turn if d > cut_at else SO3.identity_matrix()

    return DiscreteConnection(Bundle(SO3, 2), rep)


def _outcome(fn):
    try:
        return "ok", fn()
    except (OutOfDomainError, CutLocusError, SolverDivergedError) as exc:
        return type(exc).__name__, str(exc)


def test_failing_sweeps_raise_what_the_per_sample_loop_raises():
    # Over a grid of failure distances the first failing sample decides, as
    # in the per-sample loop: an out-of-domain sample (h = 0.7 moves some
    # directions past the radius), a log at the cut locus or a stalled solve
    # in either connection's local representation.
    q = Bundle(SO3, 2).point([0.1, -0.15], lg.exp(SO3, [0.2, -0.1, 0.3]).matrix)
    dirs = unit_directions(Bundle(SO3, 2), count=8)
    inf = math.inf
    seen = set()
    grid = itertools.product(([0.7, 0.2, 0.05], [0.45, 0.1, 0.03]), (inf, 0.3, 0.02),
                             (inf, 0.4, 0.1), (inf, 0.35, 0.05))
    for hs, cut_at, exact_fails, candidate_fails in grid:
        calls = {"oracle": [], "stacked": []}
        run = {}
        for mode in calls:
            exact = _trap("exact", inf, exact_fails, calls[mode])
            cand = _trap("candidate", cut_at, candidate_fails, calls[mode])
            sweep = per_sample_errors if mode == "oracle" else (
                lambda *a: estimate_order(*a).errors)
            run[mode] = _outcome(lambda: sweep(cand, exact, q, dirs, hs))
        assert run["stacked"] == run["oracle"]
        if run["oracle"][0] == "ok":
            # Each sample calls exact.local_rep, then candidate.local_rep.
            assert calls["stacked"] == calls["oracle"]
        kind, detail = run["oracle"]
        seen.add(f"{kind}:{detail.split()[0]}" if kind == "SolverDivergedError" else kind)
    assert seen == {"ok", "OutOfDomainError", "CutLocusError", "SolverDivergedError:exact",
                    "SolverDivergedError:candidate"}


CONTINUOUS_BUILDS = pytest.mark.parametrize(
    "build", [exponentiated_connection, cayley_connection, endpoint_connection],
    ids=["exponentiated", "cayley", "forward_difference"])


@pytest.mark.parametrize("fixture", ["so3_mechanical", "se3_mechanical", "abelian"])
@CONTINUOUS_BUILDS
def test_continuous_sweeps_take_one_stacked_call_per_connection(fixture, build):
    a = CONTINUOUS_FIXTURES[fixture]()
    calls = []

    def counted(c, name):
        def per_pair(x0, x1):
            calls.append(f"{name}.local_rep")
            return c.local_rep(x0, x1)

        def stacked(x0, x1s):
            calls.append(f"{name}.local_reps({len(x1s)})")
            return c.local_reps(x0, x1s)

        return dataclasses.replace(c, local_rep=per_pair, local_reps=stacked)

    q = default_pair(a.bundle).first
    dirs = unit_directions(a.bundle, count=8)
    estimate_order(counted(build(a), "candidate"), counted(exponentiated_connection(a), "exact"),
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
    pi beyond it, and a Newton failure beyond fail_at."""

    def coefficient(x):
        dx = x - x0
        d = _norm(dx)
        if d > fail_at:
            raise SolverDivergedError(f"coefficient stalled at distance {d:.6f}")
        if d <= cut_at:
            return np.zeros((3, 2))
        return np.outer([0.0, 0.0, math.pi - 1e-7], dx) / (dx @ dx)

    return ContinuousConnection(Bundle(SO3, 2), coefficient)


def test_failing_stacked_reps_raise_what_the_per_sample_loop_raises():
    # A stacked rep that raises is retaken pair by pair, so a log at the cut
    # locus in an earlier sample still wins over a later coefficient failure.
    q = Bundle(SO3, 2).point([0.1, -0.15], lg.exp(SO3, [0.2, -0.1, 0.3]).matrix)
    dirs = unit_directions(Bundle(SO3, 2), count=8)
    exact = exponentiated_connection(ContinuousConnection(Bundle(SO3, 2),
                                                          lambda x: np.zeros((3, 2))))
    inf = math.inf
    seen = set()
    grid = itertools.product(([0.7, 0.2, 0.05], [0.45, 0.1, 0.03]), (inf, 0.3, 0.02),
                             (inf, 0.35, 0.05))
    for hs, cut_at, fail_at in grid:
        cand = endpoint_connection(_trap_field(q.shape.coords, cut_at, fail_at))
        oracle = _outcome(lambda: per_sample_errors(cand, exact, q, dirs, hs))
        assert _outcome(lambda: estimate_order(cand, exact, q, dirs, hs).errors) == oracle
        seen.add(oracle[0])
    assert seen == {"ok", "OutOfDomainError", "CutLocusError", "SolverDivergedError"}


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


# -- variations -------------------------------------------------------------------------


def test_variations_of_stationary_curve_vanish():
    c = exponentiated_connection(so3_mechanical())
    rng = np.random.default_rng(62)
    p = PairElement(c.bundle.random_point(rng, shape_scale=0.1),
                    c.bundle.random_point(rng, shape_scale=0.1))
    frozen = TangentVector(p.second, np.zeros(2), np.zeros(3))
    assert np.max(np.abs(vertical_variation(c, p, frozen).coordinates())) < 1e-12
    hvar = horizontal_variation(c, p, frozen)
    assert np.max(np.abs(hvar.fiber_velocity)) < 1e-12
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
        v = TangentVector(p.second, u, eta)
        ver = vertical_variation(c, p, v)
        assert np.max(np.abs(ver.shape_velocity)) == 0.0
        assert np.max(np.abs(ver.fiber_velocity - eta)) < 1e-9
        hor = horizontal_variation(c, p, v)
        assert np.array_equal(hor.shape_velocity, u)
        assert np.max(np.abs(hor.fiber_velocity)) < 1e-9


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
    assert np.max(np.abs(hor.fiber_velocity)) < 1e-9


def test_variations_reject_misbased_velocity():
    c = trivial_connection(Bundle(SO3, 2))
    rng = np.random.default_rng(65)
    p = PairElement(c.bundle.random_point(rng, shape_scale=0.1),
                    c.bundle.random_point(rng, shape_scale=0.1))
    stray = TangentVector(p.first, np.zeros(2), np.zeros(3))
    with pytest.raises(BasepointMismatchError):
        vertical_variation(c, p, stray)
    with pytest.raises(BasepointMismatchError):
        horizontal_variation(c, p, stray)
