"""Ready-made bundles, connections and Lagrangians for tests and the CLI.

The continuous fixtures are genuine mechanical connections: each is the
shape form Ad_g(eta + a(x) xdot) of a kinetic metric whose locked inertia
is the identity and whose coupling block is a(x), a numpy expression over
a stack of shape points.  The Lagrangian fixtures carry analytic slot
derivatives so Newton residuals can reach 1e-12.

Apart from the closed-form ``free_particle``, the Lagrangian fixtures are
one coupled form, built by ``_coupled``:

    L(q0, q1) = |dx|^2 / (2h) + kappa |phi(g0^-1 g1) + C(x0) dx|^2 / (2h),

with dx = x1 - x0 and a coupling C linear in the shape point, which keeps
the zero-momentum equation solvable in closed form for cross-checks.  Only
the displacement chart phi differs: the logarithm on SO(3) (``so3_coupled``,
and ``so3_pure`` with no shape), ``se3_extract`` on SE(3) (``se3_coupled``).
A chart supplies phi(m) of m = g0^-1 g1; the Jacobians P1 and P2 of phi under
g0 exp(t delta) and g1 exp(t delta), both from one call per Newton iterate;
and the Jacobian of P1^T w under g1 exp(t delta) with w held fixed, a closed
form on Python floats for both charts.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import lie_group as lg
from .bundle import Bundle, BundlePoint, PairElement, ShapePoint
from .connection import DiscreteConnection, trivial_connection
from .errors import DconnError
from .lie_group import SE3, SO3, _dexpinv_c2, _norm, group_by_name, translation_group
from .limits import (
    ContinuousConnection,
    cayley_connection,
    endpoint_connection,
    exponentiated_connection,
)
from .mechanical import DiscreteLagrangian, mechanical_discrete_connection

# -- algebra helpers --------------------------------------------------------


def dexpinv_so3(vec: np.ndarray) -> np.ndarray:
    """The inverse differential of exp on so(3) as a 3x3 matrix.

    Maps the velocity delta of g(t) = exp(t delta) exp(lam) to the coordinate
    velocity d/dt log(g(t)) at t = 0:
    I - hat(lam)/2 + c2 hat(lam)^2 with c2 = (1 - (t/2) cot(t/2)) / t^2.
    For g(t) = exp(lam) exp(t delta) the map is dexpinv_so3(-lam).
    """
    return -_log_chart_jacobians(np.asarray(vec, dtype=float).reshape(3))[0]


def _log_chart_jacobians(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-dexpinv_so3(lam) and dexpinv_so3(-lam), bit for bit, from one hat(lam),
    one hat(lam)^2 and one c2: -(I - L/2 + c2 L^2) and I + L/2 + c2 L^2 for L = hat(lam)."""
    w = SO3.hat(lam)
    half = 0.5 * w
    square = _dexpinv_c2(_norm(lam)) * (w @ w)
    eye = SO3.identity_matrix()
    return -(eye - half + square), eye + half + square


# Angle at which c2'(t)/t switches from its series to its closed form.  The
# closed form cancels terms about 720/t^4 times its size, so its error grows as
# 1/t^4 below the switch; at the switch six series terms are within 5e-13 of
# c2'(t)/t and the closed form within 2.2e-12.
_DC2_SERIES = 0.5


def _dexpinv_c2_slope(theta: float, c2: float) -> float:
    """c2'(t)/t at t = theta, given c2 = c2(theta).

    The series is sum over n >= 2 of (2n - 2) |B_2n| t^(2n - 4) / (2n)!, with
    B_2n the Bernoulli numbers.
    """
    if theta < _DC2_SERIES:
        s = theta * theta
        return 1.0 / 360.0 + s * (1.0 / 7560.0 + s * (1.0 / 201600.0 + s * (
            1.0 / 5987520.0 + s * (691.0 / 130767436800.0 + s / 6227020800.0))))
    half = theta / 2.0
    df = (half / math.sin(half) ** 2 - 1.0 / math.tan(half)) / 2.0  # d/dt (1 - half cot half)
    return (df - 2.0 * c2 * theta) / theta**3


def _dexpinv_transpose_derivative(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Jacobian in lam, for fixed w, of dexpinv_so3(lam)^T w.

    dexpinv_so3(lam)^T w = w + lam x w / 2 + c2(|lam|) lam x (lam x w), so the
    Jacobian is -hat(w)/2 + c2 ((lam . w) I + lam w^T - 2 w lam^T)
    + (c2'(t)/t) (lam x (lam x w)) lam^T, entry by entry on floats.
    """
    a0, a1, a2 = lam.tolist()
    v0, v1, v2 = w.tolist()
    # |lam| as _log_chart_jacobians takes it: the closed forms of c2 and its
    # slope cancel, so a last-bit change in theta would move them far more.
    sq = float(lam.dot(lam))
    theta = math.sqrt(sq)
    c2 = _dexpinv_c2(theta)
    dc2 = _dexpinv_c2_slope(theta, c2)
    lw = a0 * v0 + a1 * v1 + a2 * v2
    t0, t1, t2 = a0 * lw - v0 * sq, a1 * lw - v1 * sq, a2 * lw - v2 * sq  # lam x (lam x w)
    return np.array((
        c2 * (lw + a0 * v0 - 2.0 * (v0 * a0)) + dc2 * (t0 * a0),
        0.5 * v2 + c2 * (a0 * v1 - 2.0 * (v0 * a1)) + dc2 * (t0 * a1),
        -0.5 * v1 + c2 * (a0 * v2 - 2.0 * (v0 * a2)) + dc2 * (t0 * a2),
        -0.5 * v2 + c2 * (a1 * v0 - 2.0 * (v1 * a0)) + dc2 * (t1 * a0),
        c2 * (lw + a1 * v1 - 2.0 * (v1 * a1)) + dc2 * (t1 * a1),
        0.5 * v0 + c2 * (a1 * v2 - 2.0 * (v1 * a2)) + dc2 * (t1 * a2),
        0.5 * v1 + c2 * (a2 * v0 - 2.0 * (v2 * a0)) + dc2 * (t2 * a0),
        -0.5 * v0 + c2 * (a2 * v1 - 2.0 * (v2 * a1)) + dc2 * (t2 * a1),
        c2 * (lw + a2 * v2 - 2.0 * (v2 * a2)) + dc2 * (t2 * a2),
    )).reshape(3, 3)


# -- continuous mechanical fixtures -----------------------------------------


# The field's entries, row by row, in the table of sin and cos of s, t, s + t and s - t:
# [[sin s, cos t], [cos s, sin t], [sin(s + t), cos(s - t)], [cos(s + t), sin(s - t)],
#  [sin(s - t), cos(s + t)], [cos s, sin(s + t)]].
_SE3_ENTRIES = np.array([0, 5, 4, 1, 2, 7, 6, 3, 3, 6, 4, 2])


def _se3_shape_coefficient(x: np.ndarray) -> np.ndarray:
    s, t = x[..., :1], x[..., 1:]
    angles = np.concatenate([x, s + t, s - t], axis=-1)
    table = np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)
    return 0.3 * table.take(_SE3_ENTRIES, axis=-1).reshape(x.shape[:-1] + (6, 2))


def _so3_shape_coefficient(x: np.ndarray) -> np.ndarray:
    return _se3_shape_coefficient(x)[..., :3, :]  # the first three rows


def _abelian_shape_coefficient(x: np.ndarray) -> np.ndarray:
    return 0.4 * np.cos(x)[..., None]


def so3_mechanical() -> ContinuousConnection:
    """Mechanical connection of a coupled kinetic metric on a rank-3 rotation bundle."""
    return ContinuousConnection(Bundle(SO3, 2), _so3_shape_coefficient)


def se3_mechanical() -> ContinuousConnection:
    """Mechanical connection of a coupled kinetic metric on a rigid-motion bundle."""
    return ContinuousConnection(Bundle(SE3, 2), _se3_shape_coefficient)


def abelian_mechanical() -> ContinuousConnection:
    """Scalar-translation fiber over a line; one-form has a closed antiderivative."""
    return ContinuousConnection(Bundle(translation_group(1), 1), _abelian_shape_coefficient)


CONTINUOUS_FIXTURES = {
    "so3_mechanical": so3_mechanical,
    "se3_mechanical": se3_mechanical,
    "abelian": abelian_mechanical,
}


# -- discrete Lagrangian fixtures --------------------------------------------

FREE_PARTICLE_STEP = 0.1
COUPLED_STEP = 0.1
COUPLED_KAPPA = 0.8

_SO3_C0 = 0.3 * np.array([[1.0, 0.2], [-0.4, 0.5], [0.1, -0.3]])
_SO3_C1 = 0.2 * np.array([[0.5, -0.2], [0.3, 0.1], [-0.1, 0.4]])
_SO3_C2 = 0.2 * np.array([[-0.3, 0.2], [0.2, -0.5], [0.4, 0.1]])

_SE3_C0 = 0.25 * np.array(
    [
        [1.0, 0.2],
        [-0.4, 0.5],
        [0.1, -0.3],
        [0.3, 0.4],
        [-0.2, 0.1],
        [0.5, -0.1],
    ]
)
_SE3_C1 = 0.15 * np.array(
    [
        [0.5, -0.2],
        [0.3, 0.1],
        [-0.1, 0.4],
        [0.2, 0.3],
        [0.4, -0.3],
        [-0.2, 0.5],
    ]
)
_SE3_C2 = 0.15 * np.array(
    [
        [-0.3, 0.2],
        [0.2, -0.5],
        [0.4, 0.1],
        [-0.1, 0.2],
        [0.3, 0.4],
        [0.1, -0.4],
    ]
)


def coupling_so3(x: np.ndarray) -> np.ndarray:
    """The 3x2 shape-to-rotation coupling of the coupled rotation Lagrangian."""
    s, t = x.tolist()
    return _SO3_C0 + s * _SO3_C1 + t * _SO3_C2


def coupling_se3(x: np.ndarray) -> np.ndarray:
    """The 6x2 shape-to-motion coupling of the coupled rigid-motion Lagrangian."""
    s, t = x.tolist()
    return _SE3_C0 + s * _SE3_C1 + t * _SE3_C2


def free_particle() -> DiscreteLagrangian:
    """Planar free particle; the fiber is the vertical translation coordinate.

    value = |q1 - q0|^2 / (2h) over combined (x, y) chart coordinates, so the
    discrete flow is the closed-form extrapolation q2 = 2 q1 - q0 and the
    momentum is the vertical velocity (y1 - y0)/h.
    """
    bundle = Bundle(translation_group(1), 1)
    h = FREE_PARTICLE_STEP

    def combined(q: BundlePoint) -> np.ndarray:
        return np.concatenate([q.shape.coords, [q.fiber.matrix[0, 1]]])

    def value(q0: BundlePoint, q1: BundlePoint) -> float:
        d = combined(q1) - combined(q0)
        return float(d @ d) / (2.0 * h)

    def d1(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        return -(combined(q1) - combined(q0)) / h

    def d2(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        return (combined(q1) - combined(q0)) / h

    def d12(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        return -np.eye(2) / h

    return DiscreteLagrangian(bundle, value, d1, d2, d12)


class _Chart(NamedTuple):
    """A displacement chart, called with m = g0^-1 g1 and lam = phi(m).

    ``jacobians(m, lam)`` is (P1, P2) and ``d1_derivative(m, lam, w, P2)`` is
    the Jacobian of P1^T w, all as in the module docstring.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    jacobians: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    d1_derivative: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _coupled(bundle: Bundle, coupling: Callable[[np.ndarray], np.ndarray],
             partials: tuple[np.ndarray, ...], chart: _Chart) -> DiscreteLagrangian:
    """The coupled Lagrangian |dx|^2/(2h) + kappa |phi(g0^-1 g1) + C(x0) dx|^2 / (2h).

    ``coupling(x)`` is C(x), linear in x with the coefficient matrices
    ``partials``, stacked once into a (shape_dim, dim, shape_dim) array S with
    S[j] = dC/dx_j; ``chart`` is phi.  With w = phi + C dx the slot derivatives
    are D1 = (-dx/h + (kappa/h) B w, (kappa/h) P1^T w) and
    D2 = (dx/h + (kappa/h) C^T w, (kappa/h) P2^T w), where row j of
    B = S dx - C^T, dC/dx_j dx - C[:, j], is the x0_j-derivative of w.  Each
    slot derivative fills one new (shape_dim + dim,) array.

    The pair table m, phi(m), dx, C(x0), w, B and P1, P2 of one pair serves
    every call at it: the last pair is kept and matched by the identity of its
    two immutable points, which the Newton solvers hold for d1 and d12 of an
    iterate (and del_step for d2 of the pair its last residual checked).
    """
    h = COUPLED_STEP
    k = COUPLED_KAPPA / h
    d = bundle.shape_dim
    group = bundle.group
    n = group.dim
    eye_h = np.eye(d) / h
    stack = np.array(partials, dtype=float).reshape(d, n, d)
    stack_t = stack.transpose(0, 2, 1)  # stack_t[j] = (dC/dx_j)^T
    last: list = [None, None, None]  # q0, q1 and their pair table

    def pieces(q0: BundlePoint, q1: BundlePoint) -> tuple:
        if last[0] is not q0 or last[1] is not q1:
            m = group.inverse_matrix(q0.fiber.matrix) @ q1.fiber.matrix
            lam = chart.phi(m)
            x0 = q0.shape.coords
            dx = q1.shape.coords - x0
            c = coupling(x0)
            last[:] = q0, q1, (m, lam, dx, c, lam + c @ dx, stack @ dx - c.T,
                               *chart.jacobians(m, lam))
        return last[2]

    def value(q0: BundlePoint, q1: BundlePoint) -> float:
        _, _, dx, _, w, _, _, _ = pieces(q0, q1)
        return float(dx @ dx) / (2.0 * h) + COUPLED_KAPPA * float(w @ w) / (2.0 * h)

    def d1(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        _, _, dx, _, w, b, p1, _ = pieces(q0, q1)
        out = np.empty(d + n)
        out[:d] = -dx / h + k * (b @ w)
        out[d:] = k * (p1.T @ w)
        return out

    def d2(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        _, _, dx, c, w, _, _, p2 = pieces(q0, q1)
        out = np.empty(d + n)
        out[:d] = dx / h + k * (c.T @ w)
        out[d:] = k * (p2.T @ w)
        return out

    def d12(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        # Shape moves of q1 change w by C and leave P1 alone; fiber moves change w by P2.
        m, lam, _, c, w, b, p1, p2 = pieces(q0, q1)
        jac = np.empty((d + n, d + n))
        jac[:d, :d] = k * (b @ c + stack_t @ w) - eye_h
        jac[:d, d:] = k * (b @ p2)
        jac[d:, :d] = k * (p1.T @ c)
        jac[d:, d:] = k * (p1.T @ p2 + chart.d1_derivative(m, lam, w, p2))
        return jac

    return DiscreteLagrangian(bundle, value, d1, d2, d12)


def _so3_chart() -> _Chart:
    # g0 exp(t delta) perturbs lam with derivative -dexpinv(lam) delta,
    # g1 exp(t delta) with dexpinv(-lam) delta.
    return _Chart(
        SO3.log_vector,
        lambda m, lam: _log_chart_jacobians(lam),
        lambda m, lam, w, p2: -(_dexpinv_transpose_derivative(lam, w) @ p2),
    )


def so3_coupled() -> DiscreteLagrangian:
    """Rotation fiber coupled to a planar shape through a linear coupling.

    value = |dx|^2/(2h) + kappa |log(g0^-1 g1) + C(x0) dx|^2 / (2h).  The
    zero-momentum equation solves in closed form: the discrete mechanical
    connection has local representation exp(C(x0) dx).
    """
    return _coupled(Bundle(SO3, 2), coupling_so3, (_SO3_C1, _SO3_C2), _so3_chart())


def se3_extract(m: np.ndarray) -> np.ndarray:
    """Linear-in-M coordinates (vee of the skew part of R, translation) of M in SE(3).

    A chart near the identity that avoids the matrix logarithm, so the slot
    derivatives of Lagrangians built on it stay elementary.
    """
    (_, r01, r02, p0), (r10, _, r12, p1), (r20, r21, _, p2), _ = m.tolist()
    return np.array(((r21 - r12) / 2.0, (r02 - r20) / 2.0, (r10 - r01) / 2.0, p0, p1, p2))


def _se3_extract_jacobians(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d1, d2): the derivatives of se3_extract under exp(-t hat(delta)) M and
    under M exp(t hat(delta)), as columns over the basis, from one read of R
    and its trace.

    se3_extract is linear, so column i of d1 is se3_extract(-hat(e_i) M) and
    of d2 se3_extract(M hat(e_i)); they assemble to
    d1 = [[(R - tr(R) I)/2, 0], [hat(p), -I]] and
    d2 = [[(tr(R) I - R^T)/2, 0], [0, R]].
    """
    r = m[:3, :3]
    trace_eye = np.trace(r) * SO3.identity_matrix()
    d1, d2 = np.zeros((6, 6)), np.zeros((6, 6))
    d1[:3, :3] = (r - trace_eye) / 2.0
    d1[3:, :3] = SO3.hat(m[:3, 3])
    d1[3:, 3:] = -SO3.identity_matrix()
    d2[:3, :3] = (trace_eye - r.T) / 2.0
    d2[3:, 3:] = r
    return d1, d2


def _se3_extract_d1_derivative(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Jacobian of d1(M)^T w under M exp(t hat(delta)), w held fixed, with d1
    the first of _se3_extract_jacobians(M).

    Column j is the w-pairing of se3_extract(-hat(e_i) M hat(e_j)) over i:
    [[(omega s^T + hat(R^T omega))/2, hat(v) R], [0, 0]] with w = (omega, v)
    and s = vee(R - R^T), entry by entry on floats.
    """
    (r00, r01, r02, _), (r10, r11, r12, _), (r20, r21, r22, _), _ = m.tolist()
    o0, o1, o2, v0, v1, v2 = w.tolist()
    s0, s1, s2 = r21 - r12, r02 - r20, r10 - r01
    # u = R^T omega; the left block is (omega s^T + hat(u)) / 2.
    u0 = o0 * r00 + o1 * r10 + o2 * r20
    u1 = o0 * r01 + o1 * r11 + o2 * r21
    u2 = o0 * r02 + o1 * r12 + o2 * r22
    # hat(v) has rows (0, -v2, v1), (v2, 0, -v0), (-v1, v0, 0).
    return np.array((
        o0 * s0 / 2.0, (o0 * s1 - u2) / 2.0, (o0 * s2 + u1) / 2.0,
        v1 * r20 - v2 * r10, v1 * r21 - v2 * r11, v1 * r22 - v2 * r12,
        (o1 * s0 + u2) / 2.0, o1 * s1 / 2.0, (o1 * s2 - u0) / 2.0,
        v2 * r00 - v0 * r20, v2 * r01 - v0 * r21, v2 * r02 - v0 * r22,
        (o2 * s0 - u1) / 2.0, (o2 * s1 + u0) / 2.0, o2 * s2 / 2.0,
        v0 * r10 - v1 * r00, v0 * r11 - v1 * r01, v0 * r12 - v1 * r02,
    ) + (0.0,) * 18).reshape(6, 6)  # the bottom three rows are zero


def se3_coupled() -> DiscreteLagrangian:
    """Rigid-motion fiber coupled to a planar shape through a linear coupling.

    Uses the linear extraction se3_extract in place of the logarithm, so the
    displacement chart degrades gracefully and the derivatives are exact.
    """
    chart = _Chart(
        se3_extract,
        lambda m, lam: _se3_extract_jacobians(m),
        lambda m, lam, w, p2: _se3_extract_d1_derivative(m, w),
    )
    return _coupled(Bundle(SE3, 2), coupling_se3, (_SE3_C1, _SE3_C2), chart)


def so3_pure() -> DiscreteLagrangian:
    """Pure rotation group, trivial shape: value depends on g0^-1 g1 alone.

    The coupled rotation Lagrangian with no shape; its discrete mechanical
    connection must coincide with g1 g0^-1.
    """
    return _coupled(Bundle(SO3, 0), lambda x: np.zeros((3, 0)), (), _so3_chart())


LAGRANGIAN_FIXTURES = {
    "free_particle": free_particle,
    "so3_coupled": so3_coupled,
    "se3_coupled": se3_coupled,
    "so3_pure": so3_pure,
}


# -- deterministic sample points ---------------------------------------------


def default_base_point(bundle: Bundle) -> BundlePoint:
    """A fixed, mildly generic base point used by CLI defaults and tests.

    The fiber seeds have six entries and repeat cyclically past them.
    """
    coords = 0.1 * np.array([(-1.0) ** i * (1.0 + 0.5 * i) for i in range(bundle.shape_dim)])
    seed = np.resize([1.0, -0.5, 0.25, 0.75, -0.25, 0.5], bundle.group.dim)
    fiber = lg.exp(bundle.group, 0.15 * seed)
    return bundle.point(coords, fiber)


def default_pair(bundle: Bundle) -> PairElement:
    q0 = default_base_point(bundle)
    coords = q0.shape.coords + 0.2 * np.array(
        [1.0 / (1.0 + i) for i in range(bundle.shape_dim)]
    )
    seed = np.resize([-0.5, 1.0, 0.5, -0.25, 0.75, 0.25], bundle.group.dim)
    fiber = lg.compose(q0.fiber, lg.exp(bundle.group, 0.2 * seed))
    return PairElement(q0, BundlePoint(ShapePoint(coords), fiber))


# -- CLI connection families --------------------------------------------------


def resolve_connection(family: str, group_name: str = "SO3", shape_dim: int = 2) -> DiscreteConnection:
    """Build a named connection: trivial, euler_poincare, or <kind>:<fixture>.

    Kinds: exponentiated, cayley, forward_difference (continuous fixtures)
    and mechanical (Lagrangian fixtures).
    """
    if family == "trivial":
        return trivial_connection(Bundle(group_by_name(group_name), shape_dim))
    if family == "euler_poincare":
        return trivial_connection(Bundle(group_by_name(group_name), 0))
    kind, _, fixture = family.partition(":")
    if kind in ("exponentiated", "cayley", "forward_difference"):
        maker = CONTINUOUS_FIXTURES.get(fixture)
        if maker is None:
            raise DconnError(f"unknown continuous fixture {fixture!r}")
        build = {
            "exponentiated": exponentiated_connection,
            "cayley": cayley_connection,
            "forward_difference": endpoint_connection,
        }[kind]
        return build(maker())
    if kind == "mechanical":
        maker = LAGRANGIAN_FIXTURES.get(fixture)
        if maker is None:
            raise DconnError(f"unknown Lagrangian fixture {fixture!r}")
        return mechanical_discrete_connection(maker())
    raise DconnError(f"unknown connection family {family!r}")
