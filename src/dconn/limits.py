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
from .connection import (
    VALIDITY_RADIUS,
    DiscreteConnection,
    _check_distance,
    _form_product,
    eval_form,
    horizontal_component,
    vertical_component,
)
from .errors import (
    BasepointMismatchError,
    DegenerateFitError,
    GroupMismatchError,
    ShapeMismatchError,
)
from .lie_group import GroupElement, _frozen, _norms

DEFAULT_H_LIST = (1.0e-2, 5.0e-3, 2.5e-3)
# Below this error magnitude a log-log fit measures rounding noise, not order.
ERROR_FLOOR = 1.0e-13


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A trivialized tangent vector (shape velocity, left-trivialized fiber velocity).

    The fiber velocity is kept as a read-only copy of its algebra coordinates.
    """

    base: BundlePoint
    shape_velocity: np.ndarray
    fiber_velocity: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.shape_velocity, dtype=float).reshape(self.base.shape.coords.shape)
        object.__setattr__(self, "shape_velocity", v)
        eta = np.array(self.fiber_velocity, dtype=float).reshape(self.base.fiber.group.dim)
        eta.flags.writeable = False
        object.__setattr__(self, "fiber_velocity", eta)

    def coordinates(self) -> np.ndarray:
        return np.concatenate([self.shape_velocity, self.fiber_velocity])


def vertical_tangent(q: BundlePoint, xi) -> TangentVector:
    """The infinitesimal generator xi_Q(q): zero shape velocity, eta = Ad_{g^-1} xi."""
    eta = lg.adjoint(lg.inverse(q.fiber), xi)
    return TangentVector(q, np.zeros_like(q.shape.coords), eta)


def chart_curve(v: TangentVector, t: float) -> BundlePoint:
    """The curve (x + t xdot, g exp(t eta)) through v.base with velocity v."""
    x = ShapePoint(v.base.shape.coords + t * v.shape_velocity)
    step = lg.exp(v.base.fiber.group, t * v.fiber_velocity)
    return BundlePoint(x, lg.compose(v.base.fiber, step))


def chart_pair_log(p: PairElement) -> TangentVector:
    """Inverse of chart_curve at t=1: chart difference plus fiber log.

    This is the Riemannian log of the product of the flat chart metric with
    a bi-invariant (or left-invariant) group metric; it satisfies
    chart_curve(vertical lift of xi) = exp(xi) . q, the compatibility needed
    by the exponentiated discretization (``exponentiated_connection``).
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

    def one_form(self, v: TangentVector) -> np.ndarray:
        a = np.asarray(self.coefficient(v.base.shape.coords), dtype=float)
        return lg.adjoint(v.base.fiber, v.fiber_velocity + a @ v.shape_velocity)


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
                       h_list: Sequence[float] = DEFAULT_H_LIST) -> np.ndarray:
    """The derivative of t -> log form(q, q(t)) at t = 0 along the chart curve.

    Recovers the continuous connection underlying a consistent discrete one;
    on a vertical tangent xi_Q(q) the result is xi exactly up to stencil
    error, thanks to the splitting property.
    """
    q0 = v.base

    def sample(t: float) -> np.ndarray:
        return lg.log(eval_form(c, PairElement(q0, chart_curve(v, t))))

    return derivative_at_zero(sample, h_list)


def _local_rep(a: ContinuousConnection, kernel: Callable[[np.ndarray], np.ndarray],
               kernels: Callable[[np.ndarray], np.ndarray],
               at_far_end: bool = False) -> tuple[Callable, Callable]:
    """The per-pair and the stacked local representation of a discretized one-form.

    A(x0, x1) is ``kernel`` of the one-form on the chart log of
    ((x0, e), (x1, e)).  That chart log is the tangent (x1 - x0, 0) at
    (x0, e), where the one-form is a(x0)(x1 - x0); with ``at_far_end`` the
    coefficient is taken at x1.  ``kernel`` is the bundle group's
    ``exp_matrix`` or ``cayley_matrix``, and ``kernels`` its batched twin.

    The stacked rep takes x0 and an (n, shape_dim) array of endpoints and
    returns the n matrices as one read-only stack: a(x0) is evaluated once
    (a(x1) once per row at the far end) and the batched kernel runs once.
    Both reps take their steps from ``steps``, where each row's
    a(x)(x1 - x0) is its own matrix-vector product, so a stacked row equals
    the per-pair rep bit for bit.  The per-pair rep keeps the scalar
    kernel, which costs a fraction of a one-row batched call.
    """

    def steps(x0: ShapePoint, x1s: np.ndarray) -> np.ndarray:
        dx = x1s - x0.coords
        if at_far_end:
            # The reshape keeps an empty stack of coefficients three-dimensional.
            coefficient = np.array([a.coefficient(x) for x in x1s], dtype=float).reshape(
                len(x1s), a.bundle.group.dim, x0.coords.size)
        else:
            coefficient = np.asarray(a.coefficient(x0.coords), dtype=float)
        return np.matmul(coefficient, dx[:, :, None])[:, :, 0]

    def rep(x0: ShapePoint, x1: ShapePoint) -> np.ndarray:
        return _frozen(kernel(steps(x0, x1.coords[None])[0]))

    def reps(x0: ShapePoint, x1s: np.ndarray) -> np.ndarray:
        return _frozen(kernels(steps(x0, x1s)))

    return rep, reps


def exponentiated_connection(a: ContinuousConnection) -> DiscreteConnection:
    """The discrete connection exp(one_form(chart_pair_log)), stored via its local rep."""
    return DiscreteConnection(a.bundle, *_local_rep(a, a.bundle.group.exp_matrix,
                                                     a.bundle.group.exp_matrices))


def cayley_connection(a: ContinuousConnection) -> DiscreteConnection:
    """Second-order Cayley counterpart of exponentiated_connection."""
    return DiscreteConnection(a.bundle, *_local_rep(a, a.bundle.group.cayley_matrix,
                                                     a.bundle.group.cayley_matrices))


def endpoint_connection(a: ContinuousConnection) -> DiscreteConnection:
    """First-order variant: the one-form is evaluated at the far endpoint.

    A literal forward-difference exponential I + hat(...) leaves the group,
    so the one-sided first-order scheme shifts the evaluation point instead.
    """
    return DiscreteConnection(a.bundle,
                              *_local_rep(a, a.bundle.group.exp_matrix,
                                          a.bundle.group.exp_matrices, at_far_end=True))


def unit_directions(bundle: Bundle, q: BundlePoint, count: int = 32,
                    seed: int = 7) -> list[TangentVector]:
    """Deterministic unit tangent directions at q (seeded PCG sphere sample)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = bundle.shape_dim + bundle.group.dim
    out = []
    for _ in range(count):
        raw = rng.standard_normal(dim)
        raw /= np.linalg.norm(raw)
        out.append(TangentVector(q, raw[: bundle.shape_dim], raw[bundle.shape_dim:]))
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


def _sweep_reps(exact: DiscreteConnection, candidate: DiscreteConnection, x0: ShapePoint,
                x1s: np.ndarray) -> tuple[np.ndarray, Exception | None]:
    """exact's and candidate's A(x0, x1) for each row x1 of x1s, as an (n, 2, k, k) stack.

    The stack stops before the first sample whose representation raised;
    that failure is returned with it.  A failed stacked call is retaken pair
    by pair, so the failure and the samples before it are the loop's.
    """
    if exact.local_reps is not None and candidate.local_reps is not None:
        try:
            return np.stack([exact.local_reps(x0, x1s), candidate.local_reps(x0, x1s)], 1), None
        except Exception:  # retaken below, where the first failing sample raises first
            pass
    k = exact.bundle.group.matrix_size
    reps, failure = [], None
    try:
        for x in x1s:
            x1 = ShapePoint(x)
            reps.append(exact.local_rep(x0, x1))
            reps.append(candidate.local_rep(x0, x1))
    except Exception as exc:  # raised by the caller, after the logs of the samples before it
        failure = exc
    done = len(reps) // 2
    return np.array(reps[:2 * done]).reshape(done, 2, k, k), failure


def estimate_order(candidate: DiscreteConnection, exact: DiscreteConnection,
                   q: BundlePoint, directions: Sequence[TangentVector],
                   h_list: Sequence[float]) -> OrderEstimate:
    """Fit the analytic order of a candidate connection against a reference.

    For each step size h and unit direction v the error is the
    conjugation-invariant norm of exact(q, q_h) candidate(q, q_h)^-1 with
    q_h = chart_curve(v, h).  The fitted slope of log max-error versus
    log h minus one is the reported order.

    The samples run h-major, (h, v) in sweep order.  Their arithmetic is
    stacked: the chart-curve endpoints, one domain check, both forms, the
    errors and their logs and norms are each one array operation over the
    whole sweep.  When both connections have a stacked local representation
    (``local_reps``), the in-domain samples take their representations in
    two calls, one per connection; otherwise, or when a stacked call fails,
    each sample calls exact.local_rep, then candidate.local_rep.  A failing
    sample raises what the sample-by-sample loop raises: a failure in a
    local representation or a log wins over the out-of-domain failure of a
    later sample, and the first failing sample's failure wins.
    """
    hs = _validate_h_list(h_list)
    if hs[0] / hs[-1] < 10.0:
        raise ValueError("h_list must span at least one decade")
    if not directions:
        raise ValueError("directions must hold at least one unit tangent")
    group, x0 = q.fiber.group, q.shape
    for v in directions:
        n = np.linalg.norm(v.coordinates())
        if abs(n - 1.0) > 1.0e-8:
            raise ValueError(f"directions must be unit vectors (norm {n:.6f})")
        if v.base.fiber.group is not group:
            raise GroupMismatchError("directions must be based in the group of q")
        if v.base.shape.coords.size != x0.coords.size:
            raise ShapeMismatchError("directions must be based in the shape space of q")
    if candidate.bundle.group is not group or exact.bundle.group is not group:
        raise GroupMismatchError("both connections must act in the group of q")
    dims = (candidate.bundle.shape_dim, exact.bundle.shape_dim, x0.coords.size)
    if len(set(dims)) > 1:
        raise ShapeMismatchError(
            "shape dimensions differ: candidate {}, exact {}, q {}".format(*dims))
    # Sample (h, v) ends at (x + h xdot, g exp(h eta)) from v's base point (x, g).
    k, total = group.matrix_size, len(hs) * len(directions)
    steps = np.array(hs)[:, None, None]
    bases = [v.base for v in directions]
    x1s = (np.array([b.shape.coords for b in bases])
           + steps * np.array([v.shape_velocity for v in directions])).reshape(total, x0.coords.size)
    etas = (steps * np.array([v.fiber_velocity for v in directions])).reshape(total, group.dim)
    g1s = (np.array([b.fiber.matrix for b in bases])
           @ group.exp_matrices(etas).reshape(len(hs), len(bases), k, k)).reshape(total, 1, k, k)
    distances = _norms(x1s - x0.coords)
    inside = distances <= VALIDITY_RADIUS
    reps, failure = _sweep_reps(exact, candidate, x0,
                                x1s[:total if inside.all() else int(np.argmin(inside))])
    done = len(reps)
    forms = _form_product(g1s[:done], reps, group.inverse_matrix(q.fiber.matrix))
    errors = _norms(group.log_vectors(forms[:, 0] @ group.inverse_matrices(forms[:, 1])))
    if failure is not None:
        raise failure
    if done < total:
        _check_distance(float(distances[done]))
    rows = [tuple(row) for row in errors.reshape(len(hs), len(directions)).tolist()]
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
        return lg.log(lg.compose(g0inv, endpoint(t)))

    eta = derivative_at_zero(sample, h_list)
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
