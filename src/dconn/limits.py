"""Continuous limits of discrete connections and order-of-accuracy tools.

A tangent at q = (x, g) is a float array of shape_dim + group.dim
coordinates, the shape velocity xdot then the left-trivialized fiber
velocity eta, and every function here takes q beside it.  Derivatives are
taken along its chart curve t -> bundle.shift(q, t v) = (x + t xdot,
g exp(t eta)); a 4th-order central stencil plus one Richardson
extrapolation level keeps the finite differencing well inside the stated
tolerances.  A derivative of a connection, like the order sweep, takes its
chart-curve points as one stack under ``connection._checked_reps``'s rule:
check every row, then compute each stage over all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import lie_group as lg
from .bundle import Bundle, BundlePoint, PairElement
from .connection import DiscreteConnection, _checked_reps, _form_product, adjoint
from .errors import DegenerateFitError, ShapeMismatchError
from .lie_group import _frozen, _norms

DEFAULT_H_LIST = (5.0e-3, 2.5e-3)
# Below this error magnitude a log-log fit measures rounding noise, not order.
ERROR_FLOOR = 1.0e-13


def _tangents(q: BundlePoint, v, ndim: int, *connections) -> np.ndarray:
    """v as a float array of ``ndim`` axes whose last axis holds tangents at q.

    Raises ShapeMismatchError unless that axis has q's shape_dim + group.dim
    entries, then ``Bundle.check``'s error unless q is a point of the bundle
    of each of ``connections``.
    """
    d = np.asarray(v, dtype=float)
    group, s = q.fiber.group, q.shape.coords.size
    if d.ndim != ndim or d.shape[-1] != s + group.dim:
        raise ShapeMismatchError(f"tangents need {s + group.dim} columns at q (shape {s}, "
                                 f"fiber {group.dim}), got an array of shape {d.shape}")
    for c in connections:
        c.bundle.check(q)
    return d


def vertical_tangent(q: BundlePoint, xi) -> np.ndarray:
    """The infinitesimal generator xi_Q(q) at q: zero shape velocity, eta = Ad_{g^-1} xi."""
    eta = lg.adjoint(lg.inverse(q.fiber), xi)
    return _frozen(np.concatenate([np.zeros_like(q.shape.coords), eta]))


def chart_pair_log(p: PairElement) -> np.ndarray:
    """The tangent at p.first whose chart curve reaches p.second at t = 1:
    the chart difference, then the fiber log of g0^-1 g1.

    This is the Riemannian log of the product of the flat chart metric with
    a bi-invariant (or left-invariant) group metric; the chart curve of the
    vertical tangent of xi reaches exp(xi) . q at t = 1, the compatibility
    needed by the exponentiated discretization (``exponentiated_connection``).
    """
    dx = p.second.shape.coords - p.first.shape.coords
    rel = lg.compose(lg.inverse(p.first.fiber), p.second.fiber)
    return _frozen(np.concatenate([dx, lg.log(rel)]))


@dataclass(frozen=True)
class ContinuousConnection:
    """The principal connection with local form Ad_g(eta + a(x) xdot).

    ``coefficient`` maps shape points (..., shape_dim) to their matrices a(x),
    (..., group.dim, shape_dim), each row bit for bit as if it came alone.
    Verticality and equivariance hold for any smooth coefficient field.
    """

    bundle: Bundle
    coefficient: Callable[[np.ndarray], np.ndarray]

    def one_form(self, q: BundlePoint, v) -> np.ndarray:
        """The one-form on the tangent v = (xdot, eta) at q = (x, g)."""
        v = _tangents(q, v, 1, self)
        s = q.shape.coords.size
        return lg.adjoint(q.fiber, v[s:] + _coefficients(self, q.shape.coords) @ v[:s])


def _coefficients(a: ContinuousConnection, x: np.ndarray) -> np.ndarray:
    """a's field on the point or stack x as a C-contiguous float array (np.matmul rounds a
    non-contiguous one differently); ShapeMismatchError on a shape other than
    x.shape[:-1] + (group.dim, shape_dim), as a point-wise field gives on a stack."""
    out = np.ascontiguousarray(a.coefficient(x), dtype=float)
    want = x.shape[:-1] + (a.bundle.group.dim, a.bundle.shape_dim)
    if out.shape != want:
        raise ShapeMismatchError(f"coefficient field on points of shape {x.shape} returned "
                                 f"shape {out.shape}, not {want}")
    return out


def _validate_h_list(h_list: Sequence[float]) -> list[float]:
    hs = [float(h) for h in h_list]
    if not hs or not all(0 < h < math.inf for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_list must be finite, positive and strictly decreasing")
    return hs


def _stencil_times(h_list: Sequence[float]) -> tuple[list[float], list[list[float]]]:
    """The two finest steps of h_list and, per step h, the stencil's sample
    times 2h, h, -h, -2h; ValueError unless h_list is finite, positive and
    strictly decreasing."""
    hs = _validate_h_list(h_list)[-2:]
    return hs, [[2 * h, h, -h, -2 * h] for h in hs]


def _stencil(samples, hs: list[float]):
    """The derivative at 0 from samples[i][j], the sample at the j-th stencil
    time of hs[i] (``_stencil_times``): a 4th-order central difference per
    step plus one Richardson level, the plain stencil when hs holds one step.

    The arithmetic is elementwise, so each entry of a stacked (len(hs), 4,
    ...) sample array gets the bits it would get from its own scalars.
    """
    estimates = [(-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12 * h) for f, h in zip(samples, hs)]
    if len(estimates) == 1:
        return estimates[0]
    r = hs[-2] / hs[-1]
    return (r**4 * estimates[-1] - estimates[-2]) / (r**4 - 1.0)


def derivative_at_zero(sample: Callable[[float], np.ndarray],
                       h_list: Sequence[float] = DEFAULT_H_LIST) -> np.ndarray:
    """The derivative at t = 0 of a scalar sampler t -> value (a float or an
    array): ``_stencil`` over its samples at the stencil times of the two
    finest steps of h_list, taken in order, coarser step first."""
    hs, times = _stencil_times(h_list)
    return _stencil([[sample(t) for t in row] for row in times], hs)


def _chart_ends(q: BundlePoint, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """shift(q, z) for each row z of an (n, shape_dim + dim) array, as its shape
    coordinates x + z_shape, (n, shape_dim), and its fibers g exp(z_fiber),
    (n, k, k), from one ``exp_matrices`` call."""
    s = q.shape.coords.size
    return q.shape.coords + zs[:, :s], q.fiber.matrix @ q.fiber.group.exp_matrices(zs[:, s:])


def induced_continuous(c: DiscreteConnection, q: BundlePoint, v,
                       h_list: Sequence[float] = DEFAULT_H_LIST) -> np.ndarray:
    """The derivative of t -> log form(q, shift(q, t v)) at t = 0, for a tangent v at q.

    Recovers the continuous connection underlying a consistent discrete one;
    on a vertical tangent xi_Q(q) the result is xi exactly up to stencil
    error, thanks to the splitting property.  The forms at every stencil
    time are one stack (``_checked_reps``), their logs one ``log_vectors``
    call, fed to one ``_stencil``.
    """
    v = _tangents(q, v, 1, c)
    group = c.bundle.group
    hs, times = _stencil_times(h_list)
    x1s, g1s = _chart_ends(q, np.ravel(times)[:, None] * v)
    a = _checked_reps(c, q.shape.coords, x1s)
    forms = _form_product(g1s, a, group.inverse_matrix(q.fiber.matrix))
    return _stencil(group.log_vectors(forms).reshape(len(hs), 4, -1), hs)


def _local_rep(a: ContinuousConnection, kernels: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """The local representation of a discretized one-form.

    A(x0, x1) is the bundle group's ``exp_matrices`` or ``cayley_matrices``
    (``kernels``) of the one-form on the chart log of ((x0, e), (x1, e)).
    That chart log is the tangent (x1 - x0, 0) at (x0, e), where the one-form
    is a(x0)(x1 - x0).  Bases and endpoints are coordinate arrays that
    broadcast, each (shape_dim,) or (n, shape_dim); the n matrices come as
    one read-only stack, from one coefficient call on the bases and one
    kernel call.  Each row's a(x0)(x1 - x0) is its own matrix-vector
    product, so a row does not depend on the others.
    """

    def reps(x0s: np.ndarray, x1s: np.ndarray) -> np.ndarray:
        return _frozen(kernels(np.matmul(_coefficients(a, x0s), (x1s - x0s)[..., None])[..., 0]))

    return reps


def exponentiated_connection(a: ContinuousConnection) -> DiscreteConnection:
    """The discrete connection exp(one_form(chart_pair_log)), stored via its local rep."""
    return DiscreteConnection(a.bundle, _local_rep(a, a.bundle.group.exp_matrices))


def cayley_connection(a: ContinuousConnection) -> DiscreteConnection:
    """Cayley counterpart of exponentiated_connection: first order, like it, against
    exact horizontal transport, and second order relative to exponentiated_connection."""
    return DiscreteConnection(a.bundle, _local_rep(a, a.bundle.group.cayley_matrices))


def endpoint_connection(a: ContinuousConnection) -> DiscreteConnection:
    """Forward difference, the adjoint of exponentiated_connection: up to rounding
    exp(a(x1)(x1 - x0)), the one-form at the far endpoint.  A literal
    forward-difference exponential I + hat(...) would leave the group."""
    return adjoint(exponentiated_connection(a))


def unit_directions(bundle: Bundle, count: int = 32, seed: int = 7) -> np.ndarray:
    """Deterministic unit tangents (seeded PCG sphere sample) as a read-only
    (count, shape_dim + group.dim) array: shape velocity, then fiber velocity."""
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.standard_normal((count, bundle.shape_dim + bundle.group.dim))
    return _frozen(raw / _norms(raw)[:, None])


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
                   q: BundlePoint, directions: np.ndarray,
                   h_list: Sequence[float]) -> OrderEstimate:
    """Fit the analytic order of a candidate connection against a reference.

    ``directions`` holds unit tangent directions at q, one per row: shape
    velocity, then fiber velocity, as ``unit_directions`` draws them.  For
    each step size h and direction v = (xdot, eta) the error is the
    conjugation-invariant norm of exact(q, q_h) candidate(q, q_h)^-1 with
    q_h = (x + h xdot, g exp(h eta)) for q = (x, g).  The fitted slope of
    log max-error versus log h minus one is the reported order.  It is the
    order relative to ``exact``: Cayley against exponentiated_connection
    reads 2, though against exact horizontal transport both are first order.

    The samples run h-major, (h, v) in sweep order, and follow the rule of
    ``connection._checked_reps``: one domain check over the whole sweep, then
    each stage is one array operation over it: the endpoints (one
    ``_chart_ends`` call), each connection's local representations (one
    ``local_reps`` call each), both forms, the errors and their logs and
    norms.  So a failing sweep raises the domain check's OutOfDomainError,
    else exact's first failing sample, else candidate's, else the error log's
    CutLocusError for its first sample past the cut.
    """
    hs = _validate_h_list(h_list)
    if hs[0] / hs[-1] < 10.0:
        raise ValueError("h_list must span at least one decade")
    d = np.asarray(directions, dtype=float)
    if d.size == 0:
        raise ValueError("directions must hold at least one unit tangent")
    group, x0 = q.fiber.group, q.shape
    if not np.isfinite(x0.coords).all():
        raise ValueError(f"base point shape coordinates must be finite, got {x0.coords.tolist()}")
    s = x0.coords.size
    dims = (candidate.bundle.shape_dim, exact.bundle.shape_dim, s)
    if len(set(dims)) > 1:
        raise ShapeMismatchError(
            "shape dimensions differ: candidate {}, exact {}, q {}".format(*dims))
    d = _tangents(q, d, 2, candidate, exact)
    norms = _norms(d)
    bad = ~(np.abs(norms - 1.0) <= 1.0e-8)  # NaN fails too
    if bad.any():
        raise ValueError(f"directions must be unit vectors (norm {norms[np.argmax(bad)]:.6f})")
    x1s, g1s = _chart_ends(q, (np.array(hs)[:, None, None] * d).reshape(len(hs) * len(d), -1))
    reps = np.stack([_checked_reps(exact, x0.coords, x1s), candidate.local_reps(x0.coords, x1s)], 1)
    forms = _form_product(g1s[:, None], reps, group.inverse_matrix(q.fiber.matrix))
    errors = _norms(group.log_vectors(forms[:, 0] @ group.inverse_matrices(forms[:, 1])))
    rows = [tuple(row) for row in errors.reshape(len(hs), len(d)).tolist()]
    max_errors = tuple(max(row) for row in rows)
    if all(e < ERROR_FLOOR for e in max_errors):
        return OrderEstimate(math.inf, math.inf, tuple(hs), max_errors, tuple(rows), True)
    if any(e < ERROR_FLOOR for e in max_errors):
        raise DegenerateFitError(
            "part of the sweep sits at the floating-point floor; shrink the h range"
        )
    slope, _ = np.polyfit(np.log(hs), np.log(max_errors), 1)
    return OrderEstimate(float(slope) - 1.0, float(slope), tuple(hs), max_errors, tuple(rows))


def _endpoint_variation(c: DiscreteConnection, p: PairElement, v,
                        horizontal: bool) -> np.ndarray:
    """Derivative of t -> hor(q0, shift(q1, t v)).second if ``horizontal``, else
    ver(...).second, at t = 0 for v at q1, as a tangent at that endpoint at t = 0:
    v's shape velocity if ``horizontal``, else 0.

    One stack holds t = 0 as row 0, then the stencil times; its forms
    w(t) = form(q0, shift(q1, t v)) take one ``_checked_reps`` call.  The
    vertical endpoint is w g0 and the horizontal one w^-1 g1(t); the samples
    are the logs of the endpoint at 0, inverted, times each later endpoint.
    """
    v = _tangents(p.second, v, 1, c)
    c.bundle.check(p.first)
    group, g0 = c.bundle.group, p.first.fiber.matrix
    hs, times = _stencil_times(DEFAULT_H_LIST)
    x1s, g1s = _chart_ends(p.second, np.append(0.0, times)[:, None] * v)
    a = _checked_reps(c, p.first.shape.coords, x1s)
    forms = _form_product(g1s, a, group.inverse_matrix(g0))
    ends = group.inverse_matrices(forms) @ g1s if horizontal else forms @ g0
    samples = group.log_vectors(group.inverse_matrix(ends[0]) @ ends[1:])
    s = p.second.shape.coords.size
    shape_velocity = v[:s] if horizontal else np.zeros(s)
    return _frozen(np.concatenate([shape_velocity, _stencil(samples.reshape(len(hs), 4, -1), hs)]))


def vertical_variation(c: DiscreteConnection, p: PairElement, v) -> np.ndarray:
    """Derivative of t -> ver(q0, shift(q1, t v)).second at t = 0, for a tangent v at q1.

    The vertical endpoint moves only in the fiber over pi(q0); the result is
    its velocity at ver(p).second, with zero shape velocity.
    """
    return _endpoint_variation(c, p, v, False)


def horizontal_variation(c: DiscreteConnection, p: PairElement, v) -> np.ndarray:
    """Derivative of t -> hor(q0, shift(q1, t v)).second at t = 0, for a tangent v at q1.

    The horizontal endpoint follows the shape curve of the variation, so the
    result at hor(p).second keeps v's shape velocity; its fiber velocity
    comes from the local representation alone.
    """
    return _endpoint_variation(c, p, v, True)
