"""Discrete connections: splitting, lifts, quotients, chains, composition.

The sampled identities run under hypothesis over the ``conn`` fixture's
connections, on SO(2), SO(3), SE(3) and translation fibers, derandomized, so
every run draws the same examples.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn import bundle as bd
from dconn import connection as cn
from dconn import lie_group as lg
from dconn.bundle import Bundle, BundlePoint, PairElement, ShapePoint
from dconn.connection import (
    adjoint,
    adjoint_element,
    assemble_chain,
    assemble_quotient,
    canonical_chain,
    decompose_chain,
    decompose_quotient,
    eval_form,
    extended_compose,
    higher_order_form,
    horizontal_component,
    horizontal_lift,
    quotient_pair,
    splitting_form,
    trivial_connection,
    vertical_component,
)
from dconn.errors import (
    BasepointMismatchError,
    GroupMismatchError,
    LengthMismatchError,
    OutOfDomainError,
    ShapeMismatchError,
)
from dconn.lie_group import SE3, SO2, SO3, translation_group
from dconn.mechanical import mechanical_discrete_connection
from dconn.limits import exponentiated_connection
from dconn.presets import abelian_mechanical, se3_mechanical, so3_coupled, so3_mechanical

SAMPLED = settings(derandomize=True, max_examples=10, deadline=None, database=None)
# Shape coordinates within SHAPE_BOUND put two points at most 0.495 apart on
# two coordinates, next to VALIDITY_RADIUS (0.5), and CHAIN_BOUND keeps the
# links of a chain at most 0.4 apart.
SHAPE_BOUND = 0.175
CHAIN_BOUND = 0.14


def _fixtures():
    return {
        "trivial_so2": trivial_connection(Bundle(SO2, 2)),
        "trivial_so3": trivial_connection(Bundle(SO3, 2)),
        "trivial_se3": trivial_connection(Bundle(SE3, 2)),
        "trivial_t2": trivial_connection(Bundle(translation_group(2), 2)),
        "pure_group": trivial_connection(Bundle(SO3, 0)),
        "exponentiated": exponentiated_connection(so3_mechanical()),
        "abelian": exponentiated_connection(abelian_mechanical()),
        "mechanical": mechanical_discrete_connection(so3_coupled()),
        "adjoint_exponentiated": adjoint(exponentiated_connection(so3_mechanical())),
        "adjoint_se3": adjoint(exponentiated_connection(se3_mechanical())),
        # A mechanical connection has no stacked rep, so its adjoint takes the per-pair path.
        "adjoint_mechanical": adjoint(mechanical_discrete_connection(so3_coupled())),
    }


@pytest.fixture(params=list(_fixtures()), scope="module")
def conn(request):
    return _fixtures()[request.param]


# Each strategy is built once per bundle or group: building one costs as much as drawing from it.
@cache
def _coords(n, bound):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


@cache
def elements(group, bound=3.0):
    """exp of algebra coordinates within bound: SO(3) and SE(3) rotations of
    every angle, the cut locus at pi included, and SO(2) ones up to 3."""
    return _coords(group.dim, bound).map(lambda xi: lg.exp(group, xi))


@cache
def shapes(b, bound=SHAPE_BOUND):
    return _coords(b.shape_dim, bound).map(ShapePoint)


@cache
def points(b, bound=SHAPE_BOUND):
    return st.builds(b.point, _coords(b.shape_dim, bound), elements(b.group))


@cache
def pairs(b):
    return st.builds(PairElement, points(b), points(b))


def matrices_close(a, b, tol=1e-12) -> bool:
    return float(np.max(np.abs(a.matrix - b.matrix))) < tol


# -- form ----------------------------------------------------------------------


@SAMPLED
@given(data=st.data())
def test_form_is_identity_on_diagonal(conn, data):
    q = data.draw(points(conn.bundle))
    w = eval_form(conn, PairElement(q, q))
    assert matrices_close(w, lg.identity(conn.bundle.group))


@SAMPLED
@given(data=st.data())
def test_form_recovers_generator_word(conn, data):
    # form(i_q(g)) = g.
    q = data.draw(points(conn.bundle))
    g = data.draw(elements(conn.bundle.group))
    w = eval_form(conn, bd.discrete_generator(q, g))
    assert matrices_close(w, g)


@SAMPLED
@given(data=st.data())
def test_form_equivariance(conn, data):
    # form(h . p) = h form(p) h^-1.
    p = data.draw(pairs(conn.bundle))
    h = data.draw(elements(conn.bundle.group))
    lhs = eval_form(conn, bd.act_pair(h, p))
    rhs = lg.compose(h, lg.compose(eval_form(conn, p), lg.inverse(h)))
    assert matrices_close(lhs, rhs, tol=1e-11)


def test_form_rejects_distant_pairs():
    c = trivial_connection(Bundle(SO3, 2))
    b = c.bundle
    far = PairElement(b.point([0.0, 0.0], np.eye(3)), b.point([1.0, 0.0], np.eye(3)))
    with pytest.raises(OutOfDomainError):
        eval_form(c, far)


@SAMPLED
@given(data=st.data())
def test_local_rep_recovered_from_form(conn, data):
    # A(x0, x1) = g1^-1 form(p) g0.
    p = data.draw(pairs(conn.bundle))
    w = eval_form(conn, p)
    back = lg.compose(lg.inverse(p.second.fiber), lg.compose(w, p.first.fiber))
    a = conn.local_rep(p.first.shape, p.second.shape)
    assert float(np.max(np.abs(back.matrix - a))) < 1e-11


# -- splitting ------------------------------------------------------------------


@SAMPLED
@given(data=st.data())
def test_vertical_plus_horizontal_recomposes(conn, data):
    p = data.draw(pairs(conn.bundle))
    ver = vertical_component(conn, p)
    hor = horizontal_component(conn, p)
    back = bd.vertical_compose(ver, hor)
    assert bd.points_match(back.first, p.first, tol=1e-12)
    assert bd.points_match(back.second, p.second, tol=1e-11)


@SAMPLED
@given(data=st.data())
def test_horizontal_is_idempotent(conn, data):
    p = data.draw(pairs(conn.bundle))
    h1 = horizontal_component(conn, p)
    h2 = horizontal_component(conn, h1)
    assert bd.points_match(h2.second, h1.second, tol=1e-11)
    w = eval_form(conn, h1)
    assert matrices_close(w, lg.identity(conn.bundle.group), tol=1e-11)


@SAMPLED
@given(data=st.data())
def test_vertical_fixes_vertical_pairs(conn, data):
    q = data.draw(points(conn.bundle))
    g = data.draw(elements(conn.bundle.group))
    p = bd.discrete_generator(q, g)
    again = vertical_component(conn, p)
    assert bd.points_match(again.second, p.second, tol=1e-11)


@SAMPLED
@given(p=pairs(Bundle(translation_group(2), 2)))
def test_trivial_abelian_horizontal_formula(p):
    # For the trivial connection hor(p) carries the first fiber across.
    c = trivial_connection(Bundle(translation_group(2), 2))
    hor = horizontal_component(c, p)
    assert np.array_equal(hor.second.shape.coords, p.second.shape.coords)
    assert matrices_close(hor.second.fiber, p.first.fiber)


# -- horizontal lift ---------------------------------------------------------------


@SAMPLED
@given(data=st.data())
def test_lift_matches_horizontal_component(conn, data):
    p = data.draw(pairs(conn.bundle))
    lift = horizontal_lift(conn, p.first.shape, p.second.shape, p.first)
    hor = horizontal_component(conn, p)
    assert bd.points_match(lift.second, hor.second, tol=1e-11)


@SAMPLED
@given(data=st.data())
def test_lift_of_diagonal_is_stationary(conn, data):
    q = data.draw(points(conn.bundle))
    lift = horizontal_lift(conn, q.shape, q.shape, q)
    assert bd.points_match(lift.second, q, tol=1e-12)


@SAMPLED
@given(data=st.data())
def test_lift_is_horizontal(conn, data):
    p = data.draw(pairs(conn.bundle))
    lift = horizontal_lift(conn, p.first.shape, p.second.shape, p.first)
    w = eval_form(conn, lift)
    assert matrices_close(w, lg.identity(conn.bundle.group), tol=1e-11)


@SAMPLED
@given(data=st.data())
def test_lift_equivariance(conn, data):
    p = data.draw(pairs(conn.bundle))
    h = data.draw(elements(conn.bundle.group))
    lifted_then_moved = bd.act_pair(h, horizontal_lift(conn, p.first.shape, p.second.shape, p.first))
    moved_then_lifted = horizontal_lift(conn, p.first.shape, p.second.shape, bd.act(h, p.first))
    assert bd.points_match(lifted_then_moved.second, moved_then_lifted.second, tol=1e-11)


def test_lift_rejects_wrong_base():
    c = trivial_connection(Bundle(SO3, 2))
    q = c.bundle.point([0.3, 0.1], np.eye(3))
    with pytest.raises(BasepointMismatchError):
        horizontal_lift(c, ShapePoint(np.array([0.0, 0.0])), ShapePoint(np.array([0.1, 0.0])), q)


def test_lift_rejects_distant_target():
    c = trivial_connection(Bundle(SO3, 2))
    q = c.bundle.point([0.0, 0.0], np.eye(3))
    with pytest.raises(OutOfDomainError):
        horizontal_lift(c, q.shape, ShapePoint(np.array([2.0, 0.0])), q)


@pytest.mark.parametrize("c", [trivial_connection(Bundle(SO3, 2)),
                               exponentiated_connection(so3_mechanical())],
                         ids=["trivial", "exponentiated"])
def test_lift_rejects_a_fiber_of_another_group(c):
    # T2 and SO(3) both use 3x3 matrices; only the group tag tells them apart.
    q = Bundle(translation_group(2), 2).point([0.0, 0.0], np.eye(3))
    with pytest.raises(GroupMismatchError, match="point group T2 != bundle group SO3"):
        horizontal_lift(c, q.shape, ShapePoint(np.array([0.1, 0.0])), q)


# A point of another group or shape dimension than Bundle(SO3, 2), the error it
# raises and the start of its message.  T2 shares SO(3)'s 3x3 matrices.
FOREIGN = {"group": (Bundle(translation_group(2), 2), GroupMismatchError, "point group"),
           "shape_dim": (Bundle(SO3, 3), ShapeMismatchError, "shape dimensions differ: bundle")}


def _foreign_calls(entry, c, q, bad):
    """Calls of ``entry`` on c's bundle, each with bad in place of one of its points."""
    if entry == "Bundle.point":
        return [lambda: c.bundle.point(bad.shape.coords, bad.fiber)]
    if entry == "assemble_chain":
        a = cn.AdjointBundleElement(q.shape, q.fiber)
        calls = [lambda: assemble_chain(c, [q.shape, q.shape],
                                        [cn.AdjointBundleElement(bad.shape, bad.fiber)])]
        if bad.shape.coords.size != q.shape.coords.size:  # a bare shape point has no group
            calls += [lambda xs=xs: assemble_chain(c, xs, [a])
                      for xs in ([bad.shape, q.shape], [q.shape, bad.shape])]
        return calls
    compose = bd.vertical_compose
    if entry == "extended_compose":
        def compose(p, r):
            return extended_compose(c, p, r)
    slots = [[bad if j == i else q for j in range(4)] for i in range(4)]
    return [lambda s=s: compose(PairElement(*s[:2]), PairElement(*s[2:])) for s in slots]


@pytest.mark.parametrize("kind", FOREIGN)
@pytest.mark.parametrize("entry", ["extended_compose", "vertical_compose", "assemble_chain",
                                   "Bundle.point", "points_match"])
def test_entry_points_refuse_a_point_of_another_bundle(entry, kind):
    # On another shape dimension each once failed in numpy ("operands could not
    # be broadcast", "cannot reshape"); extended_compose once returned a pair
    # whose first point was a T2 point.
    foreign, error, message = FOREIGN[kind]
    c = trivial_connection(Bundle(SO3, 2))
    q = c.bundle.point([0.1, -0.2], lg.exp(SO3, [0.3, 0.0, -0.1]))
    bad = foreign.point(np.full(foreign.shape_dim, 0.1), lg.identity(foreign.group))
    if entry == "points_match":
        assert not bd.points_match(q, bad) and not bd.points_match(bad, q)
        return
    for call in _foreign_calls(entry, c, q, bad):
        with pytest.raises(error, match=message):
            call()


# -- quotients ----------------------------------------------------------------------


@SAMPLED
@given(data=st.data())
def test_splitting_form_inverts_generator(conn, data):
    # The splitting form sends [i_q(g)] to the adjoint class of (q, g).
    q = data.draw(points(conn.bundle))
    g = data.draw(elements(conn.bundle.group))
    got = splitting_form(conn, quotient_pair(bd.discrete_generator(q, g)))
    want = adjoint_element(q, g)
    assert np.linalg.norm(got.base.coords - want.base.coords) < 1e-12
    assert matrices_close(got.group_part, want.group_part, tol=1e-11)


@SAMPLED
@given(data=st.data())
def test_splitting_form_orbit_independence(conn, data):
    p = data.draw(pairs(conn.bundle))
    h = data.draw(elements(conn.bundle.group))
    ref = splitting_form(conn, quotient_pair(p))
    moved = splitting_form(conn, quotient_pair(bd.act_pair(h, p)))
    assert matrices_close(moved.group_part, ref.group_part, tol=1e-11)


@SAMPLED
@given(data=st.data())
def test_splitting_form_diagonal_is_identity(conn, data):
    q = data.draw(points(conn.bundle))
    a = splitting_form(conn, quotient_pair(PairElement(q, q)))
    assert matrices_close(a.group_part, lg.identity(conn.bundle.group), tol=1e-12)


@SAMPLED
@given(data=st.data())
def test_quotient_decompose_assemble_roundtrip(conn, data):
    qp = quotient_pair(data.draw(pairs(conn.bundle)))
    x0, x1, a = decompose_quotient(conn, qp)
    back = assemble_quotient(conn, x0, x1, a)
    assert bd.points_match(back.representative.first, qp.representative.first, tol=1e-11)
    assert bd.points_match(back.representative.second, qp.representative.second, tol=1e-11)


@SAMPLED
@given(data=st.data())
def test_quotient_assemble_decompose_roundtrip(conn, data):
    group = conn.bundle.group
    x0, x1 = data.draw(shapes(conn.bundle)), data.draw(shapes(conn.bundle))
    a = adjoint_element(BundlePoint(x0, lg.identity(group)), data.draw(elements(group)))
    qp = assemble_quotient(conn, x0, x1, a)
    y0, y1, b = decompose_quotient(conn, qp)
    assert np.linalg.norm(y0.coords - x0.coords) < 1e-12
    assert np.linalg.norm(y1.coords - x1.coords) < 1e-12
    assert matrices_close(b.group_part, a.group_part, tol=1e-11)


def test_assemble_quotient_rejects_misbased_adjoint():
    c = trivial_connection(Bundle(SO3, 2))
    group = c.bundle.group
    x0 = ShapePoint(np.array([0.0, 0.0]))
    x1 = ShapePoint(np.array([0.1, 0.0]))
    stray = adjoint_element(BundlePoint(x1, lg.identity(group)), lg.identity(group))
    with pytest.raises(BasepointMismatchError):
        assemble_quotient(c, x0, x1, stray)


def test_pure_group_reduction_example():
    # On a trivial-shape bundle the quotient data is the single group word
    # g0^-1 g1, conjugation-normalized to the identity-fiber representative.
    c = trivial_connection(Bundle(SO3, 0))
    b = c.bundle
    g0 = lg.exp(SO3, [0.3, -0.2, 0.5])
    g1 = lg.exp(SO3, [-0.1, 0.4, 0.2])
    p = PairElement(b.point(np.zeros(0), g0), b.point(np.zeros(0), g1))
    x0, x1, a = decompose_quotient(c, quotient_pair(p))
    expected = g0.matrix.T @ g1.matrix
    assert np.max(np.abs(a.group_part.matrix - expected)) < 1e-12
    back = assemble_quotient(c, x0, x1, a)
    assert np.max(np.abs(back.representative.first.fiber.matrix - np.eye(3))) < 1e-12
    assert np.max(np.abs(back.representative.second.fiber.matrix - expected)) < 1e-12


# -- extended composition -------------------------------------------------------------


@cache
@st.composite
def composable_triples(draw, b):
    """Pairs p, r, s whose shapes chain: p ends where r starts, r where s starts."""
    xs = [draw(shapes(b)) for _ in range(4)]
    fibers = [draw(elements(b.group)) for _ in range(6)]
    return tuple(PairElement(BundlePoint(xs[i], fibers[2 * i]), BundlePoint(xs[i + 1], fibers[2 * i + 1]))
                 for i in range(3))


@SAMPLED
@given(data=st.data())
def test_extended_compose_reduces_to_groupoid(conn, data):
    # When the middle bundle points agree exactly, composition just chains.
    p, r, _ = data.draw(composable_triples(conn.bundle))
    joined = PairElement(p.second, r.second)
    out = extended_compose(conn, p, joined)
    assert bd.points_match(out.first, p.first)
    assert bd.points_match(out.second, r.second, tol=1e-12)


@SAMPLED
@given(data=st.data())
def test_extended_compose_vertical_consistency(conn, data):
    # Composing with a vertical pair agrees with vertical composition.
    q, q1 = data.draw(pairs(conn.bundle)).first, data.draw(points(conn.bundle))
    v = bd.discrete_generator(q, data.draw(elements(conn.bundle.group)))
    p = PairElement(q, q1)
    via_extended = extended_compose(conn, v, p)
    via_vertical = bd.vertical_compose(v, p)
    assert bd.points_match(via_extended.second, via_vertical.second, tol=1e-12)


@SAMPLED
@given(data=st.data())
def test_extended_compose_associative(conn, data):
    p, r, s = data.draw(composable_triples(conn.bundle))
    left = extended_compose(conn, extended_compose(conn, p, r), s)
    right = extended_compose(conn, p, extended_compose(conn, r, s))
    assert bd.points_match(left.first, right.first)
    assert bd.points_match(left.second, right.second, tol=1e-10)


@SAMPLED
@given(data=st.data())
def test_extended_compose_equivariance(conn, data):
    p, r, _ = data.draw(composable_triples(conn.bundle))
    h = data.draw(elements(conn.bundle.group))
    moved = extended_compose(conn, bd.act_pair(h, p), bd.act_pair(h, r))
    expect = bd.act_pair(h, extended_compose(conn, p, r))
    assert bd.points_match(moved.second, expect.second, tol=1e-10)


def test_extended_compose_rejects_mismatched_middle():
    c = trivial_connection(Bundle(SO3, 2))
    b = c.bundle
    p = PairElement(b.point([0.0, 0.0], np.eye(3)), b.point([0.1, 0.0], np.eye(3)))
    r = PairElement(b.point([0.3, 0.0], np.eye(3)), b.point([0.4, 0.0], np.eye(3)))
    with pytest.raises(ShapeMismatchError):
        extended_compose(c, p, r)


# -- chains ---------------------------------------------------------------------------


@cache
def chains(b, k=3):
    """Chains of k + 1 points, each link within CHAIN_BOUND's reach."""
    return st.lists(points(b, CHAIN_BOUND), min_size=k + 1, max_size=k + 1)


@SAMPLED
@given(data=st.data())
def test_higher_order_form_first_order_matches_pair_form(conn, data):
    qs = data.draw(chains(conn.bundle, k=1))
    values = higher_order_form(conn, qs)
    assert len(values) == 1
    assert matrices_close(values[0], eval_form(conn, PairElement(qs[0], qs[1])))


@SAMPLED
@given(data=st.data())
def test_higher_order_form_constant_chain(conn, data):
    q = data.draw(points(conn.bundle))
    values = higher_order_form(conn, [q, q, q, q])
    assert len(values) == 3
    for w in values:
        assert matrices_close(w, lg.identity(conn.bundle.group), tol=1e-12)


@SAMPLED
@given(data=st.data())
def test_higher_order_form_equivariance(conn, data):
    # Each entry conjugates under the diagonal action.
    qs = data.draw(chains(conn.bundle))
    h = data.draw(elements(conn.bundle.group))
    base = higher_order_form(conn, qs)
    moved = higher_order_form(conn, [bd.act(h, q) for q in qs])
    for w0, w1 in zip(base, moved):
        conj = lg.compose(h, lg.compose(w0, lg.inverse(h)))
        assert matrices_close(w1, conj, tol=1e-11)


def test_higher_order_form_length_check(conn):
    # The chain fixes the order; a chain of one point has no pair to evaluate.
    q = conn.bundle.point(np.full(conn.bundle.shape_dim, 0.1), lg.identity(conn.bundle.group))
    for chain in ([q], []):
        with pytest.raises(LengthMismatchError, match="at least two points"):
            higher_order_form(conn, chain)
        with pytest.raises(LengthMismatchError, match="at least two points"):
            decompose_chain(conn, chain)


@SAMPLED
@given(data=st.data())
def test_chain_roundtrip(conn, data):
    qs = data.draw(chains(conn.bundle))
    xs, adjoints = decompose_chain(conn, qs)
    rebuilt = assemble_chain(conn, xs, adjoints)
    canon = canonical_chain(qs)
    assert len(rebuilt) == len(canon)
    for a, b in zip(rebuilt, canon):
        assert bd.points_match(a, b, tol=1e-10)


@SAMPLED
@given(data=st.data())
def test_chain_assemble_length_and_base_checks(conn, data):
    qs = data.draw(chains(conn.bundle, k=2))
    xs, adjoints = decompose_chain(conn, qs)
    with pytest.raises(LengthMismatchError):
        assemble_chain(conn, xs, adjoints[:-1])
    with pytest.raises(LengthMismatchError):
        decompose_chain(conn, qs[:1])


@SAMPLED
@given(x0=_coords(2, 0.35), step=_coords(2, 0.35))
def test_mechanical_local_rep_closed_form(x0, step):
    # The coupled-rotation fixture solves the zero-momentum equation in
    # closed form: A(x0, x1) = exp(C(x0) (x1 - x0)).  Steps reach 0.495.
    from dconn.presets import coupling_so3

    c = mechanical_discrete_connection(so3_coupled())
    a = c.local_rep(ShapePoint(x0), ShapePoint(x0 + step))
    want = lg.exp(SO3, coupling_so3(x0) @ step)
    assert float(np.max(np.abs(a - want.matrix))) < 1e-10
