"""Ready-made bundles, connections and Lagrangians for tests and the CLI.

The continuous fixtures are genuine mechanical connections: each is the
shape form Ad_g(eta + a(x) xdot) of a kinetic metric whose locked inertia
is the identity and whose coupling block is a(x).  The Lagrangian
fixtures carry analytic slot derivatives so Newton residuals can reach
1e-12.

Apart from the closed-form ``free_particle``, the Lagrangian fixtures are
one coupled form, built by ``_coupled``:

    L(q0, q1) = |dx|^2 / (2h) + kappa |phi(g0^-1 g1) + C(x0) dx|^2 / (2h),

with dx = x1 - x0 and a coupling C linear in the shape point, which keeps
the zero-momentum equation solvable in closed form for cross-checks.  Only
the displacement chart phi differs: the logarithm on SO(3) (``so3_coupled``,
and ``so3_pure`` with no shape), ``se3_extract`` on SE(3) (``se3_coupled``).
A chart supplies phi(m) of m = g0^-1 g1; the Jacobians P1 and P2 of phi under
g0 exp(t delta) and g1 exp(t delta); and the Jacobian of P1^T w under
g1 exp(t delta) with w held fixed.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import lie_group as lg
from .bundle import Bundle, BundlePoint, PairElement, ShapePoint
from .connection import DiscreteConnection, trivial_connection
from .errors import DconnError
from .lie_group import SE3, SO3, _dexpinv_c2, group_by_name, translation_group
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
    v = np.asarray(vec, dtype=float).reshape(3)
    w = SO3.hat(v)
    return SO3.identity_matrix() - 0.5 * w + _dexpinv_c2(float(np.linalg.norm(v))) * (w @ w)


def _dexpinv_transpose_derivative(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Jacobian in lam, for fixed w, of dexpinv_so3(lam)^T w.

    dexpinv_so3(lam)^T w = w + lam x w / 2 + c2(|lam|) lam x (lam x w).
    """
    theta = float(np.linalg.norm(lam))
    c2 = _dexpinv_c2(theta)
    # c2'(t) / t; the closed form cancels 1/t^4-sized terms, so small angles use the series.
    if theta < 1.0e-2:
        dc2 = 1.0 / 360.0 + theta**2 / 7560.0 + theta**4 / 201600.0
    else:
        half = theta / 2.0
        df = (half / math.sin(half) ** 2 - 1.0 / math.tan(half)) / 2.0  # d/dt (1 - half cot half)
        dc2 = (df - 2.0 * c2 * theta) / theta**3
    lw = float(lam @ w)
    triple = lam * lw - w * float(lam @ lam)  # lam x (lam x w)
    return (-0.5 * SO3.hat(w)
            + c2 * (lw * SO3.identity_matrix() + np.outer(lam, w) - 2.0 * np.outer(w, lam))
            + dc2 * np.outer(triple, lam))


# -- continuous mechanical fixtures -----------------------------------------


def _so3_shape_coefficient(x: np.ndarray) -> np.ndarray:
    s, t = x.tolist()
    return 0.3 * np.array(
        [
            [math.sin(s), math.cos(t)],
            [math.cos(s), math.sin(t)],
            [math.sin(s + t), math.cos(s - t)],
        ]
    )


def _se3_shape_coefficient(x: np.ndarray) -> np.ndarray:
    s, t = x.tolist()
    return 0.3 * np.array(
        [
            [math.sin(s), math.cos(t)],
            [math.cos(s), math.sin(t)],
            [math.sin(s + t), math.cos(s - t)],
            [math.cos(s + t), math.sin(s - t)],
            [math.sin(s - t), math.cos(s + t)],
            [math.cos(s), math.sin(s + t)],
        ]
    )


def _abelian_shape_coefficient(x: np.ndarray) -> np.ndarray:
    (s,) = x.tolist()
    return np.array([[0.4 * math.cos(s)]])


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

    ``d1(m, lam)`` is P1, ``d2(m, lam)`` is P2 and ``d1_derivative(m, lam, w, P2)``
    is the Jacobian of P1^T w, all as in the module docstring.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d1_derivative: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _coupled(bundle: Bundle, coupling: Callable[[np.ndarray], np.ndarray],
             partials: tuple[np.ndarray, ...], chart: _Chart) -> DiscreteLagrangian:
    """The coupled Lagrangian |dx|^2/(2h) + kappa |phi(g0^-1 g1) + C(x0) dx|^2 / (2h).

    ``coupling(x)`` is C(x), linear in x with the coefficient matrices
    ``partials``; ``chart`` is phi.  With w = phi + C dx the slot derivatives
    are D1 = (-dx/h + (kappa/h) B^T w, (kappa/h) P1^T w) and
    D2 = (dx/h + (kappa/h) C^T w, (kappa/h) P2^T w), where column j of B is
    dC/dx_j dx - C[:, j], the x0_j-derivative of w.

    The pieces m, phi(m), dx, C(x0), w, B and P1, P2 of one pair serve every
    call at it: the last pair is kept and matched by the identity of its two
    immutable points, which the Newton solvers hold for d1 and d12 of an
    iterate (and del_step for d2 of the pair its last residual checked).
    """
    h = COUPLED_STEP
    k = COUPLED_KAPPA / h
    d = bundle.shape_dim
    group = bundle.group
    last: list = [None, None, None]  # q0, q1 and their pieces

    def pieces(q0: BundlePoint, q1: BundlePoint) -> tuple:
        if last[0] is not q0 or last[1] is not q1:
            m = group.inverse_matrix(q0.fiber.matrix) @ q1.fiber.matrix
            lam = chart.phi(m)
            x0 = q0.shape.coords
            dx = q1.shape.coords - x0
            c = coupling(x0)
            # Row j is column j of B.
            bt = np.array([cj @ dx - c[:, j] for j, cj in enumerate(partials)])
            last[:] = q0, q1, (m, lam, dx, c, lam + c @ dx, bt.reshape(d, c.shape[0]),
                               chart.d1(m, lam), chart.d2(m, lam))
        return last[2]

    def value(q0: BundlePoint, q1: BundlePoint) -> float:
        _, _, dx, _, w, _, _, _ = pieces(q0, q1)
        return float(dx @ dx) / (2.0 * h) + COUPLED_KAPPA * float(w @ w) / (2.0 * h)

    def d1(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        _, _, dx, _, w, bt, p1, _ = pieces(q0, q1)
        shape = -dx / h + k * np.array([w @ bj for bj in bt])
        return np.concatenate([shape, k * (p1.T @ w)])

    def d2(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        _, _, dx, c, w, _, _, p2 = pieces(q0, q1)
        return np.concatenate([dx / h + k * (c.T @ w), k * (p2.T @ w)])

    def d12(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        # Shape moves of q1 change w by C and leave P1 alone; fiber moves change w by P2.
        m, lam, _, c, w, bt, p1, p2 = pieces(q0, q1)
        g = np.array([cj.T @ w for cj in partials])
        jac = np.empty((d + w.size, d + w.size))
        jac[:d, :d] = k * (bt @ c + g) - np.eye(d) / h
        jac[:d, d:] = k * (bt @ p2)
        jac[d:, :d] = k * (p1.T @ c)
        jac[d:, d:] = k * (p1.T @ p2 + chart.d1_derivative(m, lam, w, p2))
        return jac

    return DiscreteLagrangian(bundle, value, d1, d2, d12)


def _so3_chart() -> _Chart:
    # g0 exp(t delta) perturbs lam with derivative -dexpinv(lam) delta,
    # g1 exp(t delta) with dexpinv(-lam) delta.
    return _Chart(
        SO3.log_vector,
        lambda m, lam: -dexpinv_so3(lam),
        lambda m, lam: dexpinv_so3(-lam),
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
    r = m[:3, :3]
    return np.concatenate([SO3.vee((r - r.T) / 2.0), m[:3, 3]])


def se3_extract_d2(m: np.ndarray) -> np.ndarray:
    """Derivative of se3_extract under M exp(t hat(delta)): columns over the basis.

    se3_extract is linear, so column i is se3_extract(M hat(e_i)); the
    columns assemble to [[(tr(R) I - R^T)/2, 0], [0, R]].
    """
    r = m[:3, :3]
    out = np.zeros((6, 6))
    out[:3, :3] = (np.trace(r) * SO3.identity_matrix() - r.T) / 2.0
    out[3:, 3:] = r
    return out


def se3_extract_d1(m: np.ndarray) -> np.ndarray:
    """Derivative of se3_extract under exp(-t hat(delta)) M: columns over the basis.

    Column i is se3_extract(-hat(e_i) M); the columns assemble to
    [[(R - tr(R) I)/2, 0], [hat(p), -I]].
    """
    r = m[:3, :3]
    out = np.zeros((6, 6))
    out[:3, :3] = (r - np.trace(r) * SO3.identity_matrix()) / 2.0
    out[3:, :3] = SO3.hat(m[:3, 3])
    out[3:, 3:] = -SO3.identity_matrix()
    return out


def _se3_extract_d1_derivative(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Jacobian of se3_extract_d1(M)^T w under M exp(t hat(delta)), w held fixed.

    Column j is the w-pairing of se3_extract(-hat(e_i) M hat(e_j)) over i:
    [[(omega s^T + hat(R^T omega))/2, hat(v) R], [0, 0]] with w = (omega, v)
    and s = vee(R - R^T).
    """
    r = m[:3, :3]
    omega, v = w[:3], w[3:]
    out = np.zeros((6, 6))
    out[:3, :3] = (np.outer(omega, SO3.vee(r - r.T)) + SO3.hat(r.T @ omega)) / 2.0
    out[:3, 3:] = SO3.hat(v) @ r
    return out


def se3_coupled() -> DiscreteLagrangian:
    """Rigid-motion fiber coupled to a planar shape through a linear coupling.

    Uses the linear extraction se3_extract in place of the logarithm, so the
    displacement chart degrades gracefully and the derivatives are exact.
    """
    chart = _Chart(
        se3_extract,
        lambda m, lam: se3_extract_d1(m),
        lambda m, lam: se3_extract_d2(m),
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
