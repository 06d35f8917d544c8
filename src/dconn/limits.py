"""Continuous limits of discrete connections and order-of-accuracy tools.

Tangent vectors are stored in trivialized coordinates: a shape velocity in
the chart plus a left-trivialized fiber velocity eta (the group curve is
g exp(t eta)).  Derivatives are taken along the straight chart line with a
one-parameter subgroup in the fiber; a 4th-order central stencil plus one
Richardson extrapolation level keeps the finite differencing well inside
the stated tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import lie_group as lg
from .bundle import Bundle, BundlePoint, PairElement, ShapePoint
from .connection import DiscreteConnection, eval_form, horizontal_component, vertical_component
from .errors import BasepointMismatchError, DegenerateFitError
from .lie_group import AlgebraElement, GroupElement

DEFAULT_H_LIST = (1.0e-2, 5.0e-3, 2.5e-3)
# Below this error magnitude a log-log fit measures rounding noise, not order.
ERROR_FLOOR = 1.0e-13


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A trivialized tangent vector (shape velocity, left-trivialized fiber velocity)."""

    base: BundlePoint
    shape_velocity: np.ndarray
    fiber_velocity: AlgebraElement

    def __post_init__(self):
        v = np.asarray(self.shape_velocity, dtype=float).reshape(self.base.shape.coords.shape)
        object.__setattr__(self, "shape_velocity", v)

    def coordinates(self) -> np.ndarray:
        return np.concatenate([self.shape_velocity, self.fiber_velocity.vector])


def tangent(base: BundlePoint, shape_velocity, fiber_velocity) -> TangentVector:
    group = base.fiber.group
    if isinstance(fiber_velocity, AlgebraElement):
        eta = fiber_velocity
    else:
        eta = AlgebraElement(group, fiber_velocity)
    return TangentVector(base, np.asarray(shape_velocity, dtype=float), eta)


def vertical_tangent(q: BundlePoint, xi: AlgebraElement) -> TangentVector:
    """The infinitesimal generator xi_Q(q): zero shape velocity, eta = Ad_{g^-1} xi."""
    eta = lg.adjoint(lg.inverse(q.fiber), xi)
    return TangentVector(q, np.zeros_like(q.shape.coords), eta)


def chart_curve(v: TangentVector, t: float) -> BundlePoint:
    """The curve (x + t xdot, g exp(t eta)) through v.base with velocity v."""
    x = ShapePoint(v.base.shape.coords + t * v.shape_velocity)
    step = lg.exp(AlgebraElement(v.fiber_velocity.group, t * v.fiber_velocity.vector))
    return BundlePoint(x, lg.compose(v.base.fiber, step))


def chart_pair_log(p: PairElement) -> TangentVector:
    """Inverse of chart_curve at t=1: chart difference plus fiber log.

    This is the Riemannian log of the product of the flat chart metric with
    a bi-invariant (or left-invariant) group metric; it satisfies
    chart_curve(vertical lift of xi) = exp(xi) . q, the compatibility needed
    by the exact discretization.
    """
    dx = p.second.shape.coords - p.first.shape.coords
    rel = lg.compose(lg.inverse(p.first.fiber), p.second.fiber)
    return TangentVector(p.first, dx, lg.log(rel))


@dataclass(frozen=True)
class ContinuousConnection:
    """The principal connection with local form Ad_g(eta + a(x) xdot).

    ``coefficient(x)`` returns the (algebra dim x shape dim) matrix a(x).
    Verticality and equivariance hold for any smooth coefficient field.
    """

    bundle: Bundle
    coefficient: Callable[[np.ndarray], np.ndarray]

    def one_form(self, v: TangentVector) -> AlgebraElement:
        a = np.asarray(self.coefficient(v.base.shape.coords), dtype=float)
        vec = v.fiber_velocity.vector + a @ v.shape_velocity
        return AlgebraElement(self.bundle.group, lg.adjoint_matrix(v.base.fiber) @ vec)


def _validate_h_list(h_list: Sequence[float]) -> list[float]:
    hs = [float(h) for h in h_list]
    if not hs or not all(0 < h < math.inf for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_list must be finite, positive and strictly decreasing")
    return hs


def _stencil(sample: Callable[[float], np.ndarray], h: float) -> np.ndarray:
    # 4th-order central difference for the first derivative at 0.
    return (-sample(2 * h) + 8 * sample(h) - 8 * sample(-h) + sample(-2 * h)) / (12 * h)


def derivative_at_zero(sample: Callable[[float], np.ndarray],
                       h_list: Sequence[float] = DEFAULT_H_LIST) -> np.ndarray:
    """4th-order stencil estimates over h_list plus one Richardson level."""
    hs = _validate_h_list(h_list)
    estimates = [_stencil(sample, h) for h in hs]
    if len(estimates) == 1:
        return estimates[0]
    r = hs[-2] / hs[-1]
    return (r**4 * estimates[-1] - estimates[-2]) / (r**4 - 1.0)


def induced_continuous(c: DiscreteConnection, v: TangentVector,
                       h_list: Sequence[float] = DEFAULT_H_LIST) -> AlgebraElement:
    """The derivative of t -> log form(q, q(t)) at t = 0 along the chart curve.

    Recovers the continuous connection underlying a consistent discrete one;
    on a vertical tangent xi_Q(q) the result is xi exactly up to stencil
    error, thanks to the splitting property.
    """
    group = c.bundle.group
    q0 = v.base

    def sample(t: float) -> np.ndarray:
        return lg.log(eval_form(c, PairElement(q0, chart_curve(v, t)))).vector

    return AlgebraElement(group, derivative_at_zero(sample, h_list))


def _local_rep(a: ContinuousConnection, to_group,
               at_far_end: bool = False) -> Callable[[ShapePoint, ShapePoint], GroupElement]:
    """to_group of the one-form on the chart log of ((x0, e), (x1, e)).

    That chart log is the tangent (x1 - x0, 0) at (x0, e), where the one-form
    is a(x0)(x1 - x0); with ``at_far_end`` the coefficient is taken at x1.
    """
    group = a.bundle.group

    def rep(x0: ShapePoint, x1: ShapePoint) -> GroupElement:
        x = x1 if at_far_end else x0
        step = np.asarray(a.coefficient(x.coords), dtype=float) @ (x1.coords - x0.coords)
        return to_group(AlgebraElement(group, step))

    return rep


def exponentiated_connection(a: ContinuousConnection) -> DiscreteConnection:
    """The discrete connection exp(one_form(chart_pair_log)), stored via its local rep."""
    return DiscreteConnection(a.bundle, _local_rep(a, lg.exp))


def cayley_connection(a: ContinuousConnection) -> DiscreteConnection:
    """Second-order Cayley counterpart of exponentiated_connection."""
    return DiscreteConnection(a.bundle, _local_rep(a, lg.cayley))


def endpoint_connection(a: ContinuousConnection) -> DiscreteConnection:
    """First-order variant: the one-form is evaluated at the far endpoint.

    A literal forward-difference exponential I + hat(...) leaves the group,
    so the one-sided first-order scheme shifts the evaluation point instead.
    """
    return DiscreteConnection(a.bundle, _local_rep(a, lg.exp, at_far_end=True))


def unit_directions(bundle: Bundle, q: BundlePoint, count: int = 32,
                    seed: int = 7) -> list[TangentVector]:
    """Deterministic unit tangent directions at q (seeded PCG sphere sample)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = bundle.shape_dim + bundle.group.dim
    out = []
    for _ in range(count):
        raw = rng.standard_normal(dim)
        raw /= np.linalg.norm(raw)
        out.append(tangent(q, raw[: bundle.shape_dim], raw[bundle.shape_dim:]))
    return out


@dataclass(frozen=True)
class OrderEstimate:
    """Result of an order-of-accuracy sweep.

    ``order`` is the fitted slope of log max-error against log h minus one
    (the analytic order k); ``exact_match`` marks sweeps whose errors all sat
    below the floating-point floor, where ``order`` is reported as inf.
    """

    order: float
    slope: float
    step_sizes: tuple[float, ...]
    max_errors: tuple[float, ...]
    errors: tuple[tuple[float, ...], ...]
    exact_match: bool = False


def estimate_order(candidate: DiscreteConnection, exact: DiscreteConnection,
                   q: BundlePoint, directions: Sequence[TangentVector],
                   h_list: Sequence[float]) -> OrderEstimate:
    """Fit the analytic order of a candidate connection against a reference.

    For each step size h and unit direction v the error is the
    conjugation-invariant norm of exact(q, q_h) candidate(q, q_h)^-1 with
    q_h = chart_curve(v, h).  The fitted slope of log max-error versus
    log h minus one is the reported order.
    """
    hs = _validate_h_list(h_list)
    if hs[0] / hs[-1] < 10.0:
        raise ValueError("h_list must span at least one decade")
    if not directions:
        raise ValueError("directions must hold at least one unit tangent")
    for v in directions:
        n = np.linalg.norm(v.coordinates())
        if abs(n - 1.0) > 1.0e-8:
            raise ValueError(f"directions must be unit vectors (norm {n:.6f})")
    rows = []
    for h in hs:
        row = []
        for v in directions:
            p = PairElement(q, chart_curve(v, h))
            err = lg.compose(eval_form(exact, p), lg.inverse(eval_form(candidate, p)))
            row.append(lg.conj_invariant_norm(err))
        rows.append(tuple(row))
    max_errors = tuple(max(row) for row in rows)
    if all(e < ERROR_FLOOR for e in max_errors):
        return OrderEstimate(math.inf, math.inf, tuple(hs), max_errors, tuple(rows), True)
    if any(e < ERROR_FLOOR for e in max_errors):
        raise DegenerateFitError(
            "part of the sweep sits at the floating-point floor; shrink the h range"
        )
    slope, _ = np.polyfit(np.log(hs), np.log(max_errors), 1)
    return OrderEstimate(float(slope) - 1.0, float(slope), tuple(hs), max_errors, tuple(rows))


def _require_based_at(v: TangentVector, q: BundlePoint) -> None:
    from .bundle import points_match

    if not points_match(v.base, q):
        raise BasepointMismatchError("curve velocity must be based at p.second")


def _endpoint_variation(component: Callable[[DiscreteConnection, PairElement], PairElement],
                        c: DiscreteConnection, p: PairElement, curve_velocity: TangentVector,
                        h_list: Sequence[float], shape_velocity: np.ndarray) -> TangentVector:
    """Derivative of eps -> component(q0, q1^eps).second along the chart curve at q1.

    The fiber velocity is left-trivialized at component(p).second; the shape
    velocity is the caller's.
    """
    _require_based_at(curve_velocity, p.second)

    def endpoint(t: float) -> GroupElement:
        return component(c, PairElement(p.first, chart_curve(curve_velocity, t))).second.fiber

    g0inv = lg.inverse(endpoint(0.0))

    def sample(t: float) -> np.ndarray:
        return lg.log(lg.compose(g0inv, endpoint(t))).vector

    eta = AlgebraElement(c.bundle.group, derivative_at_zero(sample, h_list))
    return TangentVector(component(c, p).second, shape_velocity, eta)


def vertical_variation(c: DiscreteConnection, p: PairElement, curve_velocity: TangentVector,
                       h_list: Sequence[float] = DEFAULT_H_LIST) -> TangentVector:
    """Derivative of eps -> ver(q0, q1^eps).second along the chart curve at q1.

    The vertical endpoint moves only in the fiber over pi(q0); the result is
    its left-trivialized velocity at ver(p).second.
    """
    return _endpoint_variation(vertical_component, c, p, curve_velocity, h_list,
                               np.zeros_like(p.first.shape.coords))


def horizontal_variation(c: DiscreteConnection, p: PairElement, curve_velocity: TangentVector,
                         h_list: Sequence[float] = DEFAULT_H_LIST) -> TangentVector:
    """Derivative of eps -> hor(q0, q1^eps).second along the chart curve at q1.

    The horizontal endpoint follows the shape curve of the variation; its
    fiber velocity comes from the local representation alone.
    """
    return _endpoint_variation(horizontal_component, c, p, curve_velocity, h_list,
                               np.array(curve_velocity.shape_velocity))
