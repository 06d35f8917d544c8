"""Ready-made bundles, connections and Lagrangians for tests and the CLI.

The continuous fixtures are genuine mechanical connections: each is the
shape form Ad_g(eta + a(x) xdot) of a kinetic metric whose locked inertia
is the identity and whose coupling block is a(x).  The Lagrangian
fixtures carry analytic slot derivatives so Newton residuals can reach
1e-12; their couplings are linear in the shape point, which keeps the
zero-momentum equation solvable in closed form for cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import lie_group as lg
from .bundle import Bundle, BundlePoint, PairElement, ShapePoint
from .connection import DiscreteConnection, trivial_connection
from .errors import DconnError
from .lie_group import SE3, SO3, AlgebraElement, group_by_name, translation_group
from .limits import (
    ContinuousConnection,
    cayley_connection,
    endpoint_connection,
    exponentiated_connection,
    shape_form_connection,
)
from .mechanical import DiscreteLagrangian, mechanical_discrete_connection

# -- algebra helpers --------------------------------------------------------


# Angle below which the dexpinv coefficient switches to its Taylor series.
_DEXPINV_SERIES = 1.0e-4


def _dexpinv_c2(theta: float) -> float:
    """c2(t) = (1 - (t/2) cot(t/2)) / t^2."""
    if theta < _DEXPINV_SERIES:
        return 1.0 / 12.0 + theta**2 / 720.0
    half = theta / 2.0
    return (1.0 - half / math.tan(half)) / theta**2


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
    s, t = float(x[0]), float(x[1])
    return 0.3 * np.array(
        [
            [math.sin(s), math.cos(t)],
            [math.cos(s), math.sin(t)],
            [math.sin(s + t), math.cos(s - t)],
        ]
    )


def _se3_shape_coefficient(x: np.ndarray) -> np.ndarray:
    s, t = float(x[0]), float(x[1])
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
    return np.array([[0.4 * math.cos(float(x[0]))]])


def so3_mechanical() -> ContinuousConnection:
    """Mechanical connection of a coupled kinetic metric on a rank-3 rotation bundle."""
    return shape_form_connection(Bundle(SO3, 2), _so3_shape_coefficient)


def se3_mechanical() -> ContinuousConnection:
    """Mechanical connection of a coupled kinetic metric on a rigid-motion bundle."""
    return shape_form_connection(Bundle(SE3, 2), _se3_shape_coefficient)


def abelian_mechanical() -> ContinuousConnection:
    """Scalar-translation fiber over a line; one-form has a closed antiderivative."""
    return shape_form_connection(Bundle(translation_group(1), 1), _abelian_shape_coefficient)


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
    return _SO3_C0 + float(x[0]) * _SO3_C1 + float(x[1]) * _SO3_C2


def coupling_se3(x: np.ndarray) -> np.ndarray:
    """The 6x2 shape-to-motion coupling of the coupled rigid-motion Lagrangian."""
    return _SE3_C0 + float(x[0]) * _SE3_C1 + float(x[1]) * _SE3_C2


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


def _coupled_value(h: float, kappa: float, coupling, displacement):
    def value(q0: BundlePoint, q1: BundlePoint) -> float:
        dx = q1.shape.coords - q0.shape.coords
        w = displacement(q0, q1) + coupling(q0.shape.coords) @ dx
        return float(dx @ dx) / (2.0 * h) + kappa * float(w @ w) / (2.0 * h)

    return value


def _coupled_shape_blocks(h, kappa, coupling, partials, q0, q1, w):
    x0, dx = q0.shape.coords, q1.shape.coords - q0.shape.coords
    c = coupling(x0)
    d1_shape = -dx / h + (kappa / h) * np.array(
        [w @ (cj @ dx - c[:, j]) for j, cj in enumerate(partials)]
    )
    d2_shape = dx / h + (kappa / h) * (c.T @ w)
    return d1_shape, d2_shape


def _coupled_d12(h, kappa, coupling, partials, q0, q1, w, w_fiber, p, p_fiber):
    """d12 of a coupled Lagrangian whose d1 is [d1_shape, (kappa/h) p^T w].

    ``w_fiber`` is the Jacobian of w under the fiber moves g1 exp(z) and
    ``p_fiber`` that of p^T w with w held fixed.  Shape moves of q1 change
    w by the coupling and leave p alone.
    """
    x0, dx = q0.shape.coords, q1.shape.coords - q0.shape.coords
    c = coupling(x0)
    k = kappa / h
    b = np.column_stack([cj @ dx - c[:, j] for j, cj in enumerate(partials)])
    g = np.array([cj.T @ w for cj in partials])
    return np.block([
        [k * (b.T @ c + g) - np.eye(dx.size) / h, k * (b.T @ w_fiber)],
        [k * (p.T @ c), k * (p.T @ w_fiber + p_fiber)],
    ])


def so3_coupled() -> DiscreteLagrangian:
    """Rotation fiber coupled to a planar shape through a linear coupling.

    value = |dx|^2/(2h) + kappa |log(g0^-1 g1) + C(x0) dx|^2 / (2h).  The
    zero-momentum equation solves in closed form: the discrete mechanical
    connection has local representation exp(C(x0) dx).
    """
    bundle = Bundle(SO3, 2)
    h, kappa = COUPLED_STEP, COUPLED_KAPPA
    partials = (_SO3_C1, _SO3_C2)

    def displacement(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        return lg.log(lg.compose(lg.inverse(q0.fiber), q1.fiber)).vector

    value = _coupled_value(h, kappa, coupling_so3, displacement)

    def d1(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        lam = displacement(q0, q1)
        w = lam + coupling_so3(q0.shape.coords) @ (q1.shape.coords - q0.shape.coords)
        d1_shape, _ = _coupled_shape_blocks(h, kappa, coupling_so3, partials, q0, q1, w)
        # g0 exp(t delta) perturbs lam with derivative -dexpinv(lam) delta.
        return np.concatenate([d1_shape, -(kappa / h) * (dexpinv_so3(lam).T @ w)])

    def d2(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        lam = displacement(q0, q1)
        w = lam + coupling_so3(q0.shape.coords) @ (q1.shape.coords - q0.shape.coords)
        _, d2_shape = _coupled_shape_blocks(h, kappa, coupling_so3, partials, q0, q1, w)
        # g1 exp(t delta) perturbs lam with derivative dexpinv(-lam) delta.
        return np.concatenate([d2_shape, (kappa / h) * (dexpinv_so3(-lam).T @ w)])

    def d12(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        lam = displacement(q0, q1)
        w = lam + coupling_so3(q0.shape.coords) @ (q1.shape.coords - q0.shape.coords)
        lam_fiber = dexpinv_so3(-lam)
        return _coupled_d12(h, kappa, coupling_so3, partials, q0, q1, w, lam_fiber,
                            -dexpinv_so3(lam),
                            -(_dexpinv_transpose_derivative(lam, w) @ lam_fiber))

    return DiscreteLagrangian(bundle, value, d1, d2, d12)


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
    bundle = Bundle(SE3, 2)
    h, kappa = COUPLED_STEP, COUPLED_KAPPA
    partials = (_SE3_C1, _SE3_C2)

    def relative(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        return lg.compose(lg.inverse(q0.fiber), q1.fiber).matrix

    def displacement(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        return se3_extract(relative(q0, q1))

    value = _coupled_value(h, kappa, coupling_se3, displacement)

    def d1(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        m = relative(q0, q1)
        w = se3_extract(m) + coupling_se3(q0.shape.coords) @ (q1.shape.coords - q0.shape.coords)
        d1_shape, _ = _coupled_shape_blocks(h, kappa, coupling_se3, partials, q0, q1, w)
        return np.concatenate([d1_shape, (kappa / h) * (se3_extract_d1(m).T @ w)])

    def d2(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        m = relative(q0, q1)
        w = se3_extract(m) + coupling_se3(q0.shape.coords) @ (q1.shape.coords - q0.shape.coords)
        _, d2_shape = _coupled_shape_blocks(h, kappa, coupling_se3, partials, q0, q1, w)
        return np.concatenate([d2_shape, (kappa / h) * (se3_extract_d2(m).T @ w)])

    def d12(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        m = relative(q0, q1)
        w = se3_extract(m) + coupling_se3(q0.shape.coords) @ (q1.shape.coords - q0.shape.coords)
        return _coupled_d12(h, kappa, coupling_se3, partials, q0, q1, w, se3_extract_d2(m),
                            se3_extract_d1(m), _se3_extract_d1_derivative(m, w))

    return DiscreteLagrangian(bundle, value, d1, d2, d12)


def so3_pure() -> DiscreteLagrangian:
    """Pure rotation group, trivial shape: value depends on g0^-1 g1 alone.

    Its discrete mechanical connection must coincide with g1 g0^-1.
    """
    bundle = Bundle(SO3, 0)
    h, kappa = COUPLED_STEP, COUPLED_KAPPA

    def displacement(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        return lg.log(lg.compose(lg.inverse(q0.fiber), q1.fiber)).vector

    def value(q0: BundlePoint, q1: BundlePoint) -> float:
        lam = displacement(q0, q1)
        return kappa * float(lam @ lam) / (2.0 * h)

    def d1(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        lam = displacement(q0, q1)
        return -(kappa / h) * (dexpinv_so3(lam).T @ lam)

    def d2(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        lam = displacement(q0, q1)
        return (kappa / h) * (dexpinv_so3(-lam).T @ lam)

    def d12(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        # d1 = -(kappa/h) lam, since dexpinv(lam)^T lam = lam.
        return -(kappa / h) * dexpinv_so3(-displacement(q0, q1))

    return DiscreteLagrangian(bundle, value, d1, d2, d12)


LAGRANGIAN_FIXTURES = {
    "free_particle": free_particle,
    "so3_coupled": so3_coupled,
    "se3_coupled": se3_coupled,
    "so3_pure": so3_pure,
}


# -- deterministic sample points ---------------------------------------------


def default_base_point(bundle: Bundle) -> BundlePoint:
    """A fixed, mildly generic base point used by CLI defaults and tests."""
    coords = 0.1 * np.array([(-1.0) ** i * (1.0 + 0.5 * i) for i in range(bundle.shape_dim)])
    seed = np.array([1.0, -0.5, 0.25, 0.75, -0.25, 0.5][: bundle.group.dim])
    fiber = lg.exp(AlgebraElement(bundle.group, 0.15 * seed))
    return bundle.point(coords, fiber)


def default_pair(bundle: Bundle, separation: float = 0.2) -> PairElement:
    q0 = default_base_point(bundle)
    coords = q0.shape.coords + separation * np.array(
        [1.0 / (1.0 + i) for i in range(bundle.shape_dim)]
    )
    seed = np.array([-0.5, 1.0, 0.5, -0.25, 0.75, 0.25][: bundle.group.dim])
    fiber = lg.compose(q0.fiber, lg.exp(AlgebraElement(bundle.group, 0.2 * seed)))
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
