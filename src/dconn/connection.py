"""Discrete connections on trivialized principal bundles.

A discrete connection assigns to nearby configuration pairs a group
element splitting each pair into a vertical factor and a horizontal
remainder.  It is stored through its local representation, a map
A(x0, x1) on shape pairs with A(x, x) = e, taken over a stack of pairs
at once; the full form on bundle pairs is

    form((x0, g0), (x1, g1)) = g1 A(x0, x1) g0^-1,

which makes equivariance, the splitting property and the horizontal-lift
identities hold by construction.  All quotient objects are handled through
canonical representatives whose leading fiber is the identity; a quotient
pair is the one-step case of a chain, so its splitting and reassembly are
those of a two-point chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import lie_group as lg
from .bundle import (
    BASE_TOL,
    Bundle,
    BundlePoint,
    PairElement,
    ShapePoint,
    act,
    chart_distance,
    discrete_generator,
    project,
)
from .errors import (
    BasepointMismatchError,
    LengthMismatchError,
    OutOfDomainError,
    ShapeMismatchError,
)
from .lie_group import GroupElement, _frozen, _norms

# Chart distance up to which a local representation is trusted.
VALIDITY_RADIUS = 0.5


@dataclass(frozen=True)
class DiscreteConnection:
    """A discrete connection, stored via its local representation.

    ``local_reps(x0s, x1s)`` is A over the rows of two coordinate arrays that
    broadcast, each (shape_dim,) or (n, shape_dim): an (n, k, k) read-only
    stack of matrices of ``bundle.group``, whose row i is A on the i-th pair
    and the identity matrix where the pair's points agree.  A is only trusted
    for shape pairs within VALIDITY_RADIUS of each other.
    """

    bundle: Bundle
    local_reps: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def local_rep(self, x0: ShapePoint, x1: ShapePoint) -> np.ndarray:
        """A(x0, x1): the one-row case of ``local_reps``."""
        return self.local_reps(x0.coords, x1.coords[None])[0]


def _broadcast_rows(x0s: np.ndarray, x1s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The arguments of ``local_reps`` broadcast to two (n, shape_dim) arrays."""
    return np.broadcast_arrays(np.atleast_2d(x0s), np.atleast_2d(x1s))


def trivial_connection(bundle: Bundle) -> DiscreteConnection:
    """The connection whose local representation is identically e."""
    eye = bundle.group.identity_matrix()
    return DiscreteConnection(bundle, lambda x0s, x1s: np.broadcast_to(
        eye, (len(_broadcast_rows(x0s, x1s)[0]),) + eye.shape))


def adjoint(c: DiscreteConnection) -> DiscreteConnection:
    """A*(x0, x1) = A(x1, x0)^-1, a discrete connection with c's continuous limit,
    from c's local representations with the endpoints as bases."""
    inverses = c.bundle.group.inverse_matrices
    return DiscreteConnection(c.bundle, lambda x0s, x1s: _frozen(inverses(c.local_reps(x1s, x0s))))


def _check_distance(d: float) -> None:
    """Raise OutOfDomainError unless a shape pair's chart distance d is within VALIDITY_RADIUS."""
    if not math.isfinite(d):
        raise OutOfDomainError(f"shape pair distance {d} is not finite")
    if d > VALIDITY_RADIUS:
        raise OutOfDomainError(
            f"shape pair distance {d:.4f} exceeds validity radius {VALIDITY_RADIUS}"
        )


def _checked_rep(c: DiscreteConnection, x0: ShapePoint, x1: ShapePoint) -> np.ndarray:
    """A(x0, x1) for points x0 and x1 of c's shape space (the caller checks
    their shapes), once they are within VALIDITY_RADIUS of each other."""
    _check_distance(chart_distance(x0, x1))
    return c.local_rep(x0, x1)


def _checked_reps(c: DiscreteConnection, x0s: np.ndarray, x1s: np.ndarray) -> np.ndarray:
    """c.local_reps(x0s, x1s) over the rows of an (n, shape_dim) x1s, checked first.

    The one rule for stacked samples: check, then compute.  One vectorized
    chart distance checks every row, and the first row past VALIDITY_RADIUS
    (NaN counts as past) raises _check_distance's OutOfDomainError before
    any local representation is taken.  Then one ``local_reps`` call takes
    them all and raises for its first failing row, and each later stage
    (products, logs) is one array operation raising for its first failing row.
    """
    distances = _norms(x1s - x0s)
    outside = ~(distances <= VALIDITY_RADIUS)
    if outside.any():
        _check_distance(float(distances[np.argmax(outside)]))
    return c.local_reps(x0s, x1s)


def eval_form(c: DiscreteConnection, p: PairElement) -> GroupElement:
    """The connection form g1 A(x0, x1) g0^-1 on a pair of c's bundle."""
    c.bundle.check(p.first, p.second)
    group, g1, g0 = c.bundle.group, p.second.fiber, p.first.fiber
    a = _checked_rep(c, p.first.shape, p.second.shape)
    return GroupElement(group, _form_product(g1.matrix, a, group.inverse_matrix(g0.matrix)), True)


def form_matrix(c: DiscreteConnection, x0: ShapePoint, x1: ShapePoint, g1: np.ndarray,
                g0inv: np.ndarray) -> np.ndarray:
    """The form g1 A(x0, x1) g0^-1 on bare matrices of the connection's group.

    Raises ShapeMismatchError when x0 or x1 has another shape dimension than
    the connection, OutOfDomainError when (x0, x1) lies outside VALIDITY_RADIUS.
    """
    c.bundle.check_shapes(x0, x1)
    return _form_product(g1, _checked_rep(c, x0, x1), g0inv)


def _form_product(g1: np.ndarray, a: np.ndarray, g0inv: np.ndarray) -> np.ndarray:
    """g1 A g0^-1 on bare matrices, or on stacks of them that broadcast together."""
    return g1 @ (a @ g0inv)


def vertical_from_form(p: PairElement, w: GroupElement) -> PairElement:
    """ver(p) = i_{q0}(w), given the connection form value w = form(p)."""
    return discrete_generator(p.first, w)


def horizontal_from_form(p: PairElement, w: GroupElement) -> PairElement:
    """hor(p) = (q0, w^-1 q1), given the connection form value w = form(p)."""
    return PairElement(p.first, act(lg.inverse(w), p.second))


def vertical_component(c: DiscreteConnection, p: PairElement) -> PairElement:
    """ver(p) = i_{q0}(form(p)): the vertical factor of p."""
    return vertical_from_form(p, eval_form(c, p))


def horizontal_component(c: DiscreteConnection, p: PairElement) -> PairElement:
    """hor(p): the remainder once the vertical factor is removed."""
    return horizontal_from_form(p, eval_form(c, p))


def horizontal_lift(c: DiscreteConnection, x0: ShapePoint, x1: ShapePoint,
                    q: BundlePoint) -> PairElement:
    """The horizontal pair over (x0, x1) starting at q.

    In the trivialization the lift is (q, (x1, g0 A(x0, x1)^-1)).
    """
    c.bundle.check(q)
    c.bundle.check_shapes(x0, x1)
    if chart_distance(project(q), x0) > BASE_TOL:
        raise BasepointMismatchError("lift base point q does not sit over x0")
    group = c.bundle.group
    a_inv = group.inverse_matrix(_checked_rep(c, x0, x1))
    return PairElement(q, BundlePoint(x1, GroupElement(group, q.fiber.matrix @ a_inv, True)))


@dataclass(frozen=True, eq=False)
class QuotientPair:
    """A G-orbit of pairs, stored as the representative with first fiber e."""

    representative: PairElement


def quotient_pair(p: PairElement) -> QuotientPair:
    """Canonicalize a pair: translate the orbit so the first fiber is e."""
    return QuotientPair(PairElement(*canonical_chain([p.first, p.second])))


@dataclass(frozen=True, eq=False)
class AdjointBundleElement:
    """A G-orbit of (point, group element) pairs under h.(q, g) = (hq, hgh^-1).

    Stored as the representative whose point has fiber e, so the orbit is
    determined by the base shape point plus one group element.
    """

    base: ShapePoint
    group_part: GroupElement


def adjoint_element(q: BundlePoint, g: GroupElement) -> AdjointBundleElement:
    """Canonicalize the orbit of (q, g): base pi(q), group part g_q^-1 g g_q."""
    gq = q.fiber
    canon = lg.compose(lg.inverse(gq), lg.compose(g, gq))
    return AdjointBundleElement(project(q), canon)


def splitting_form(c: DiscreteConnection, qp: QuotientPair) -> AdjointBundleElement:
    """The adjoint-bundle part [q0, form(q0, q1)] of a quotient pair."""
    return decompose_quotient(c, qp)[2]


def decompose_quotient(
    c: DiscreteConnection, qp: QuotientPair
) -> tuple[ShapePoint, ShapePoint, AdjointBundleElement]:
    """Split a quotient pair into its shape pair and adjoint-bundle part."""
    rep = qp.representative
    (x0, x1), (a,) = decompose_chain(c, [rep.first, rep.second])
    return x0, x1, a


def assemble_quotient(c: DiscreteConnection, x0: ShapePoint, x1: ShapePoint,
                      a: AdjointBundleElement) -> QuotientPair:
    """Inverse of decompose_quotient.

    Acts with the adjoint group part on the horizontal lift of (x0, x1)
    based at (x0, e), giving the representative ((x0, e), (x1, g A(x0,x1)^-1)).
    """
    return QuotientPair(PairElement(*assemble_chain(c, [x0, x1], [a])))


def extended_compose(c: DiscreteConnection, p: PairElement, r: PairElement) -> PairElement:
    """Connection-dependent composition of pairs sharing a middle shape point.

    For p = (q0, q1) and r = (r0, r1) with pi(q1) = pi(r0), the composite is
    (q0, form(r0, q1) r1).  It is associative and G-equivariant.
    """
    c.bundle.check(p.first, p.second, r.first, r.second)
    d = chart_distance(p.second.shape, r.first.shape)
    if d > BASE_TOL:
        raise ShapeMismatchError(
            f"middle shape points differ by {d:.2e}; pairs cannot be composed"
        )
    w = eval_form(c, PairElement(r.first, p.second))
    return PairElement(p.first, act(w, r.second))


def higher_order_form(c: DiscreteConnection, qs: Sequence[BundlePoint]) -> list[GroupElement]:
    """Connection form of a chain of k + 1 >= 2 points: one value per consecutive pair."""
    if len(qs) < 2:
        raise LengthMismatchError(f"chain needs at least two points, got {len(qs)}")
    return [eval_form(c, PairElement(qs[i], qs[i + 1])) for i in range(len(qs) - 1)]


def canonical_chain(qs: Sequence[BundlePoint]) -> list[BundlePoint]:
    """Translate a chain by its leading fiber so the first fiber is e."""
    g0inv = lg.inverse(qs[0].fiber)
    return [act(g0inv, q) for q in qs]


def decompose_chain(
    c: DiscreteConnection, qs: Sequence[BundlePoint]
) -> tuple[list[ShapePoint], list[AdjointBundleElement]]:
    """Split a chain into shape points plus adjoint parts based at the start.

    The l-th adjoint part is [q0, form(q_l, q_{l+1})]; all parts share the
    base point of the chain.
    """
    forms = higher_order_form(c, qs)
    return [project(q) for q in qs], [adjoint_element(qs[0], w) for w in forms]


def assemble_chain(
    c: DiscreteConnection,
    shapes: Sequence[ShapePoint],
    adjoints: Sequence[AdjointBundleElement],
) -> list[BundlePoint]:
    """Inverse of decompose_chain, returned as the canonical chain.

    Builds the horizontal chain through (x0, e) (every consecutive form
    value e), then translates the (l+1)-th point by g_l g_{l-1} ... g_0.
    The round trip decompose(assemble(...)) is the identity.
    """
    if len(shapes) != len(adjoints) + 1:
        raise LengthMismatchError(
            f"{len(shapes)} shape points need {len(shapes) - 1} adjoint parts, got {len(adjoints)}"
        )
    # An adjoint part's base and group part stand where a point's shape and fiber do.
    c.bundle.check(*(BundlePoint(a.base, a.group_part) for a in adjoints))
    c.bundle.check_shapes(*shapes)
    x0 = shapes[0]
    for a in adjoints:
        if chart_distance(a.base, x0) > BASE_TOL:
            raise BasepointMismatchError("adjoint part is not based at the chain start")
    accum = lg.identity(c.bundle.group)
    lifted = BundlePoint(x0, accum)
    out = [lifted]
    for x, y, a in zip(shapes, shapes[1:], adjoints):
        lifted = horizontal_lift(c, x, y, lifted).second
        accum = lg.compose(a.group_part, accum)
        out.append(act(accum, lifted))
    return out
