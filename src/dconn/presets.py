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
A chart supplies, as entry formulas on Python floats: m = g0^-1 g1 and
phi(m); P1^T w and P2^T w for the Jacobians P1 and P2 of phi under
g0 exp(t delta) and g1 exp(t delta) (cross products for the logarithm, block
forms for ``se3_extract``); and, for d12 alone, the entries of P1^T, P2^T and
the Jacobian D of P1^T w under g1 exp(t delta) with w held fixed.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul, sub
from typing import Callable, NamedTuple

import numpy as np

from . import lie_group as lg
from .bundle import Bundle, BundlePoint, PairElement, ShapePoint
from .connection import DiscreteConnection, trivial_connection
from .errors import DconnError
from .lie_group import SE3, SO3, _dexpinv_c2, _frozen, group_by_name, translation_group
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
    lam = np.asarray(vec, dtype=float).reshape(3)
    w = SO3.hat(lam)
    p1, _ = _log_chart_entries(lam.tolist(), _dexpinv_c2(lg._norm(lam)), (w @ w).ravel().tolist())
    return -np.array(p1).reshape(3, 3)


def _log_chart_entries(lam, c2: float, square) -> tuple[tuple, tuple]:
    """The row-major entries of -(I - L/2 + c2 L^2) and I + L/2 + c2 L^2 for
    L = hat(lam), from the floats lam, c2 and the row-major entries of L^2.

    Each entry adds as the matrix expressions do, (I -+ L/2) + c2 L^2, with
    0.0 -+ an off-diagonal half of L, so its zeros keep their signs too.
    """
    x, y, z = lam
    hx, hy, hz = 0.5 * x, 0.5 * y, 0.5 * z
    s00, s01, s02, s10, s11, s12, s20, s21, s22 = [c2 * b for b in square]
    return ((-(1.0 + s00), -((0.0 + hz) + s01), -((0.0 - hy) + s02),
             -((0.0 - hz) + s10), -(1.0 + s11), -((0.0 + hx) + s12),
             -((0.0 + hy) + s20), -((0.0 - hx) + s21), -(1.0 + s22)),
            (1.0 + s00, (0.0 - hz) + s01, (0.0 + hy) + s02,
             (0.0 + hz) + s10, 1.0 + s11, (0.0 - hx) + s12,
             (0.0 - hy) + s20, (0.0 + hx) + s21, 1.0 + s22))


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


def _dexpinv_transpose_entries(lam, w, sq: float) -> tuple:
    """The row-major entries of the Jacobian in lam, for fixed w, of
    dexpinv_so3(lam)^T w, from the floats lam and w and sq = lam . lam.

    dexpinv_so3(lam)^T w = w + lam x w / 2 + c2(|lam|) lam x (lam x w), so the
    Jacobian is -hat(w)/2 + c2 ((lam . w) I + lam w^T - 2 w lam^T)
    + (c2'(t)/t) (lam x (lam x w)) lam^T.
    """
    a0, a1, a2 = lam
    v0, v1, v2 = w
    # c2 and its slope from one theta: their closed forms cancel, so a
    # last-bit change in theta between them would move the sum far more.
    theta = math.sqrt(sq)
    c2 = _dexpinv_c2(theta)
    dc2 = _dexpinv_c2_slope(theta, c2)
    lw = a0 * v0 + a1 * v1 + a2 * v2
    t0, t1, t2 = a0 * lw - v0 * sq, a1 * lw - v1 * sq, a2 * lw - v2 * sq  # lam x (lam x w)
    return (
        c2 * (lw + a0 * v0 - 2.0 * (v0 * a0)) + dc2 * (t0 * a0),
        0.5 * v2 + c2 * (a0 * v1 - 2.0 * (v0 * a1)) + dc2 * (t0 * a1),
        -0.5 * v1 + c2 * (a0 * v2 - 2.0 * (v0 * a2)) + dc2 * (t0 * a2),
        -0.5 * v2 + c2 * (a1 * v0 - 2.0 * (v1 * a0)) + dc2 * (t1 * a0),
        c2 * (lw + a1 * v1 - 2.0 * (v1 * a1)) + dc2 * (t1 * a1),
        0.5 * v0 + c2 * (a1 * v2 - 2.0 * (v1 * a2)) + dc2 * (t1 * a2),
        0.5 * v1 + c2 * (a2 * v0 - 2.0 * (v2 * a0)) + dc2 * (t2 * a0),
        -0.5 * v0 + c2 * (a2 * v1 - 2.0 * (v2 * a1)) + dc2 * (t2 * a1),
        c2 * (lw + a2 * v2 - 2.0 * (v2 * a2)) + dc2 * (t2 * a2),
    )


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
    """The 3x2 shape-to-rotation coupling C(x) = C0 + x0 C1 + x1 C2 of the coupled
    rotation Lagrangian, as a stacked field: (..., 2) points to (..., 3, 2)
    matrices, so it can be a ``ContinuousConnection`` coefficient."""
    return _SO3_C0 + x[..., 0, None, None] * _SO3_C1 + x[..., 1, None, None] * _SO3_C2


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
    """A displacement chart as entry formulas on Python floats.

    ``relative(a, b)`` is the rows of m = g0^-1 g1 from the rows a of g0 and b
    of g1, and ``phi(m)`` the chart's coordinates lam = phi(m).  With w the
    covector of the module docstring, ``transposes(m, lam, w)`` is
    (P1^T w, P2^T w).  ``jacobians(m, lam, w)`` is the row-major entries of
    P1^T, of P2^T and of the Jacobian D of P1^T w under g1 exp(t delta) with
    w held fixed.
    """

    relative: Callable[[list, list], tuple]
    phi: Callable[[tuple], tuple]
    transposes: Callable[[tuple, tuple, list], tuple[tuple, tuple]]
    jacobians: Callable[[tuple, tuple, list], tuple[tuple, tuple, tuple]]


def _coupled(bundle: Bundle, c0: np.ndarray, partials: tuple[np.ndarray, ...],
             chart: _Chart) -> DiscreteLagrangian:
    """The coupled Lagrangian |dx|^2/(2h) + kappa |phi(g0^-1 g1) + C(x0) dx|^2 / (2h).

    C(x) = c0 + sum_j x_j S_j is linear in the shape point, with the
    (dim, shape_dim) coefficient matrices S_j = ``partials[j]``; ``chart`` is
    phi.  With w = phi + C dx the slot derivatives are
    D1 = (-dx/h + (kappa/h) B w, (kappa/h) P1^T w) and
    D2 = (dx/h + (kappa/h) C^T w, (kappa/h) P2^T w), where row j of
    B = S dx - C^T, S_j dx - C[:, j], is the x0_j-derivative of w.

    Everything but phi is bilinear in the shape pair.  With Q = [c0, S_0,
    S_1, ...] and v = (dx, x0 (x) dx), C dx = Q v, so w = lam + Q v and Q^T w
    (which holds c0^T w and each S_j^T w) are linear in (lam, v), and B and
    C(x0)^T in (1, x0, dx): all four are the one product
    [1, x0, lam, v] M, for a fixed M built once per coupling
    (``_coupling_tables``).  Then C^T w = c0^T w + sum_j x0_j S_j^T w and
    (B w)_j = (S_j^T w) . dx - (C^T w)_j.

    One pair table of Python floats serves every call at a pair: m, lam, dx,
    w, C^T w, Q^T w, B, C^T, P1^T w and P2^T w, read with one ``tolist`` per
    array of the two points and of the product.  value, d1 and d2 each
    assemble one new array from it.  d12 alone builds the chart's P1^T, P2^T
    and D: one array of their entries and the table's B and C^T, laid out
    by one ``take`` as the two factors of one matrix product,
    [[B, S^T w - I/kappa, 0], [P1^T, 0, D]] [[C^T, I], [P2^T, I]]^T.  The
    last pair is kept and matched by the identity of its two immutable
    points: both Newton solvers take d1 and d12 of an iterate at the same
    two objects (the mechanical solve keeps one canonical (x0, e) for its
    whole solve and slices the fiber blocks), and del_step takes d2 of the
    pair its last residual checked.
    """
    h = COUPLED_STEP
    k = COUPLED_KAPPA / h
    d = bundle.shape_dim
    n = bundle.group.dim
    product, layout = _coupling_tables(np.asarray(c0, dtype=float).reshape(n, d),
                                       np.array(partials, dtype=float).reshape(d, n, d))
    sources = int(layout.max()) + 1  # the entries d12 lays out, 0 and 1 last
    wide = n + d + d * d  # the product's columns of w and Q^T w
    slopes = [d + j * d for j in range(d)]  # where each S_j^T w starts in Q^T w
    last: list = [None, None, None]  # q0, q1 and their pair table

    def pieces(q0: BundlePoint, q1: BundlePoint) -> tuple:
        if last[0] is not q0 or last[1] is not q1:
            m = chart.relative(q0.fiber.matrix.tolist(), q1.fiber.matrix.tolist())
            lam = chart.phi(m)
            x0 = q0.shape.coords.tolist()
            dx = list(map(sub, q1.shape.coords.tolist(), x0))
            row = np.array([1.0, *x0, *lam, *dx, *[x * e for x in x0 for e in dx]])
            table = (row @ product).tolist()
            w, qw, b_ct = table[:n], table[n:wide], table[wide:]
            ctw = [sum(map(mul, (1.0, *x0), qw[j::d])) for j in range(d)]
            last[:] = q0, q1, (m, lam, dx, w, ctw, qw, b_ct, *chart.transposes(m, lam, w))
        return last[2]

    def value(q0: BundlePoint, q1: BundlePoint) -> float:
        _, _, dx, w, _, _, _, _, _ = pieces(q0, q1)
        return sum(map(mul, dx, dx)) / (2.0 * h) + COUPLED_KAPPA * sum(map(mul, w, w)) / (2.0 * h)

    def d1(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        _, _, dx, _, ctw, qw, _, p1w, _ = pieces(q0, q1)
        return np.array([-x / h + k * (sum(map(mul, qw[i:i + d], dx)) - a)
                         for x, a, i in zip(dx, ctw, slopes)] + [k * a for a in p1w])

    def d2(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        _, _, dx, _, ctw, _, _, _, p2w = pieces(q0, q1)
        return np.array([x / h + k * a for x, a in zip(dx, ctw)] + [k * a for a in p2w])

    def d12(q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        # Shape moves of q1 change w by C and B w by S^T w; fiber moves change
        # w by P2 and P1^T w by D: k ([B; P1^T] [C, P2] + [[S^T w - I/kappa, 0], [0, D]]).
        m, lam, _, w, _, qw, b_ct, _, _ = pieces(q0, q1)
        shape = [qw[i + c] - (1.0 / COUPLED_KAPPA if c == r else 0.0)
                 for r, i in enumerate(slopes) for c in range(d)]
        factors = np.fromiter(chain(b_ct, *chart.jacobians(m, lam, w), shape, (0.0, 1.0)),
                              float, sources).take(layout)
        jac = factors[0] @ factors[1].T
        jac *= k
        return jac

    return DiscreteLagrangian(bundle, value, d1, d2, d12)


# The fixed arrays of each coupling _coupled has built, keyed by its bytes; read-only,
# since every Lagrangian of that coupling shares them.
_TABLES: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _coupling_tables(c0: np.ndarray, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_coupled's fixed arrays for C(x) = c0 + sum_j x_j stack[j]: M, and d12's layout.

    M's rows take 1, x0, lam, dx and x0 (x) dx; its columns give w, Q^T w,
    then B and C(x0)^T row-major, so w and Q^T w are [lam, v] [[I, Q],
    [Q^T, Q^T Q]].  d12's entries are B, C^T, P1^T, P2^T, D and the shape
    block, each row-major, then 0 and 1; the layout picks from them the two
    factors [[B, shape, 0], [P1^T, 0, D]] and [[C^T, I], [P2^T, I]], whose
    product adds the shape block and D to [B; P1^T] [C, P2].
    """
    key = (c0.shape, c0.tobytes(), stack.tobytes())
    if key not in _TABLES:
        n, d = c0.shape
        q = np.concatenate([c0, *stack], axis=1)
        wide = n + d + d * d  # where B starts
        product = np.zeros((1 + 2 * d + n + d * d, wide + 2 * d * n))
        product[1 + d:, :wide] = np.block([[np.eye(n), q], [q.T, q.T @ q]])
        # b_ct's rows take 1, x0 and dx; its columns hold B, then C^T, row-major.
        b_ct = np.zeros((1 + 2 * d, 2, d, n))
        b_ct[0, 1], b_ct[1:d + 1, 1] = c0.T, stack.transpose(0, 2, 1)
        b_ct[:, 0] = -b_ct[:, 1]
        b_ct[d + 1:, 0] = stack.transpose(2, 0, 1)
        b_ct = b_ct.reshape(1 + 2 * d, 2 * d * n)
        product[:1 + d, wide:], product[1 + d + n:1 + 2 * d + n, wide:] = b_ct[:1 + d], b_ct[1 + d:]
        size = 2 * d * n + 3 * n * n + d * d
        entries = np.arange(size)
        b, ct = entries[:2 * d * n].reshape(2, d, n)
        p1_t, p2_t, second = entries[2 * d * n:size - d * d].reshape(3, n, n)
        zero, one = size, size + 1
        layout = np.full((2, d + n, 2 * n + d), zero)
        layout[0, :d, :n], layout[0, :d, n:n + d] = b, entries[size - d * d:].reshape(d, d)
        layout[0, d:, :n], layout[0, d:, n + d:] = p1_t, second
        layout[1, :d, :n], layout[1, d:, :n] = ct, p2_t
        layout[1, :, n:] = np.where(np.eye(d + n, dtype=bool), one, zero)
        _TABLES[key] = _frozen(product), _frozen(layout)
    return _TABLES[key]


def _so3_relative(a: list, b: list) -> tuple:
    """The rows of R0^T R1 from the rows a of R0 and b of R1."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return ((a00 * b00 + a10 * b10 + a20 * b20, a00 * b01 + a10 * b11 + a20 * b21,
             a00 * b02 + a10 * b12 + a20 * b22),
            (a01 * b00 + a11 * b10 + a21 * b20, a01 * b01 + a11 * b11 + a21 * b21,
             a01 * b02 + a11 * b12 + a21 * b22),
            (a02 * b00 + a12 * b10 + a22 * b20, a02 * b01 + a12 * b11 + a22 * b21,
             a02 * b02 + a12 * b12 + a22 * b22))


def _so3_transposes(m: tuple, lam: tuple, w: list) -> tuple[tuple, tuple]:
    """P1^T w = -(w + lam x w / 2 + c2 lam x (lam x w)) and
    P2^T w = w - lam x w / 2 + c2 lam x (lam x w), the transposes of
    -dexpinv_so3(lam) and dexpinv_so3(-lam) applied to w."""
    a0, a1, a2 = lam
    u0, u1, u2 = u = lg._cross(lam, w)
    t0, t1, t2 = lg._cross(lam, u)
    c2 = _dexpinv_c2(math.sqrt(a0 * a0 + a1 * a1 + a2 * a2))
    w0, w1, w2 = w
    return ((-(w0 + 0.5 * u0 + c2 * t0), -(w1 + 0.5 * u1 + c2 * t1), -(w2 + 0.5 * u2 + c2 * t2)),
            (w0 - 0.5 * u0 + c2 * t0, w1 - 0.5 * u1 + c2 * t1, w2 - 0.5 * u2 + c2 * t2))


def _so3_jacobians(m: tuple, lam: tuple, w: list) -> tuple[list, list, tuple]:
    """P1^T, P2^T and D, row-major.

    g0 exp(t delta) perturbs lam with derivative P1 = -dexpinv(lam) delta and
    g1 exp(t delta) with P2 = dexpinv(-lam) delta = dexpinv(lam)^T delta, so
    P1^T = -P2 and P2^T = -P1 entry for entry; D = -J P2 for J the Jacobian
    of dexpinv(lam)^T w in lam.  L^2 = lam lam^T - |lam|^2 I.
    """
    x, y, z = lam
    sq = x * x + y * y + z * z
    square = (x * x - sq, x * y, x * z, y * x, y * y - sq, y * z, z * x, z * y, z * z - sq)
    p1, p2 = _log_chart_entries(lam, _dexpinv_c2(math.sqrt(sq)), square)
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = _dexpinv_transpose_entries(lam, w, sq)
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = p2
    return [-a for a in p2], [-a for a in p1], (
        -(j00 * b00 + j01 * b10 + j02 * b20), -(j00 * b01 + j01 * b11 + j02 * b21),
        -(j00 * b02 + j01 * b12 + j02 * b22),
        -(j10 * b00 + j11 * b10 + j12 * b20), -(j10 * b01 + j11 * b11 + j12 * b21),
        -(j10 * b02 + j11 * b12 + j12 * b22),
        -(j20 * b00 + j21 * b10 + j22 * b20), -(j20 * b01 + j21 * b11 + j22 * b21),
        -(j20 * b02 + j21 * b12 + j22 * b22))


_SO3_CHART = _Chart(_so3_relative, lambda m: lg._so3_log(m)[0], _so3_transposes,
                    _so3_jacobians)


def so3_coupled() -> DiscreteLagrangian:
    """Rotation fiber coupled to a planar shape through a linear coupling.

    value = |dx|^2/(2h) + kappa |log(g0^-1 g1) + C(x0) dx|^2 / (2h).  The
    zero-momentum equation solves in closed form: the discrete mechanical
    connection has local representation exp(C(x0) dx).
    """
    return _coupled(Bundle(SO3, 2), _SO3_C0, (_SO3_C1, _SO3_C2), _SO3_CHART)


def _se3_extract_entries(r) -> tuple:
    """se3_extract of the matrix with rows r."""
    (_, r01, r02, p0), (r10, _, r12, p1), (r20, r21, _, p2), _ = r
    return ((r21 - r12) / 2.0, (r02 - r20) / 2.0, (r10 - r01) / 2.0, p0, p1, p2)


def se3_extract(m: np.ndarray) -> np.ndarray:
    """Linear-in-M coordinates (vee of the skew part of R, translation) of M in SE(3).

    A chart near the identity that avoids the matrix logarithm, so the slot
    derivatives of Lagrangians built on it stay elementary.
    """
    return np.array(_se3_extract_entries(m.tolist()))


def _se3_relative(a: list, b: list) -> tuple:
    """The rows of g0^-1 g1 = (R0^T R1, R0^T (p1 - p0)) from the rows a of g0 and b of g1."""
    (a00, a01, a02, p0), (a10, a11, a12, p1), (a20, a21, a22, p2), _ = a
    (b00, b01, b02, q0), (b10, b11, b12, q1), (b20, b21, b22, q2), _ = b
    d0, d1, d2 = q0 - p0, q1 - p1, q2 - p2
    return ((a00 * b00 + a10 * b10 + a20 * b20, a00 * b01 + a10 * b11 + a20 * b21,
             a00 * b02 + a10 * b12 + a20 * b22, a00 * d0 + a10 * d1 + a20 * d2),
            (a01 * b00 + a11 * b10 + a21 * b20, a01 * b01 + a11 * b11 + a21 * b21,
             a01 * b02 + a11 * b12 + a21 * b22, a01 * d0 + a11 * d1 + a21 * d2),
            (a02 * b00 + a12 * b10 + a22 * b20, a02 * b01 + a12 * b11 + a22 * b21,
             a02 * b02 + a12 * b12 + a22 * b22, a02 * d0 + a12 * d1 + a22 * d2),
            (0.0, 0.0, 0.0, 1.0))


def _se3_extract_transposes(m: tuple, lam: tuple, w: list) -> tuple[tuple, tuple]:
    """P1^T w and P2^T w for the two Jacobians of _se3_extract_jacobian_entries,
    in block form: with w = (omega, v) and p the translation of M,
    P1^T w = ((R^T omega - tr(R) omega)/2 - p x v, -v) and
    P2^T w = ((tr(R) omega - R omega)/2, R^T v)."""
    (r00, r01, r02, p0), (r10, r11, r12, p1), (r20, r21, r22, p2), _ = m
    o0, o1, o2, v0, v1, v2 = w
    tr = r00 + r11 + r22
    k0, k1, k2 = lg._cross((p0, p1, p2), (v0, v1, v2))
    return ((((o0 * r00 + o1 * r10 + o2 * r20) - tr * o0) / 2.0 - k0,
             ((o0 * r01 + o1 * r11 + o2 * r21) - tr * o1) / 2.0 - k1,
             ((o0 * r02 + o1 * r12 + o2 * r22) - tr * o2) / 2.0 - k2, -v0, -v1, -v2),
            ((tr * o0 - (r00 * o0 + r01 * o1 + r02 * o2)) / 2.0,
             (tr * o1 - (r10 * o0 + r11 * o1 + r12 * o2)) / 2.0,
             (tr * o2 - (r20 * o0 + r21 * o1 + r22 * o2)) / 2.0,
             v0 * r00 + v1 * r10 + v2 * r20, v0 * r01 + v1 * r11 + v2 * r21,
             v0 * r02 + v1 * r12 + v2 * r22))


def _se3_extract_jacobian_entries(m) -> tuple[tuple, tuple]:
    """The row-major entries of d1^T and d2^T, from the rows of M, for d1 and
    d2 the derivatives of se3_extract under exp(-t hat(delta)) M and under
    M exp(t hat(delta)), as columns over the basis.

    se3_extract is linear, so column i of d1 is se3_extract(-hat(e_i) M) and
    of d2 se3_extract(M hat(e_i)); they assemble to
    d1 = [[(R - tr(R) I)/2, 0], [hat(p), -I]] and
    d2 = [[(tr(R) I - R^T)/2, 0], [0, R]].  An off-diagonal entry of
    tr(R) I is tr(R) * 0.0, so every zero keeps the sign it has in the
    matrix expressions.
    """
    (r00, r01, r02, p0), (r10, r11, r12, p1), (r20, r21, r22, p2), _ = m
    tr = r00 + r11 + r22
    z = tr * 0.0
    return ((
        (r00 - tr) / 2.0, (r10 - z) / 2.0, (r20 - z) / 2.0, 0.0, p2, -p1,
        (r01 - z) / 2.0, (r11 - tr) / 2.0, (r21 - z) / 2.0, -p2, 0.0, p0,
        (r02 - z) / 2.0, (r12 - z) / 2.0, (r22 - tr) / 2.0, p1, -p0, 0.0,
        0.0, 0.0, 0.0, -1.0, -0.0, -0.0,
        0.0, 0.0, 0.0, -0.0, -1.0, -0.0,
        0.0, 0.0, 0.0, -0.0, -0.0, -1.0,
    ), (
        (tr - r00) / 2.0, (z - r01) / 2.0, (z - r02) / 2.0, 0.0, 0.0, 0.0,
        (z - r10) / 2.0, (tr - r11) / 2.0, (z - r12) / 2.0, 0.0, 0.0, 0.0,
        (z - r20) / 2.0, (z - r21) / 2.0, (tr - r22) / 2.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, r00, r10, r20,
        0.0, 0.0, 0.0, r01, r11, r21,
        0.0, 0.0, 0.0, r02, r12, r22,
    ))


def _se3_extract_d1_entries(m, w) -> tuple:
    """The row-major entries of the Jacobian of d1(M)^T w under M exp(t hat(delta)),
    w held fixed, with d1 as in _se3_extract_jacobian_entries, from the rows
    of M and six floats w.

    Column j is the w-pairing of se3_extract(-hat(e_i) M hat(e_j)) over i:
    [[(omega s^T + hat(R^T omega))/2, hat(v) R], [0, 0]] with w = (omega, v)
    and s = vee(R - R^T).
    """
    (r00, r01, r02, _), (r10, r11, r12, _), (r20, r21, r22, _), _ = m
    o0, o1, o2, v0, v1, v2 = w
    s0, s1, s2 = r21 - r12, r02 - r20, r10 - r01
    # u = R^T omega; the left block is (omega s^T + hat(u)) / 2.
    u0 = o0 * r00 + o1 * r10 + o2 * r20
    u1 = o0 * r01 + o1 * r11 + o2 * r21
    u2 = o0 * r02 + o1 * r12 + o2 * r22
    # hat(v) has rows (0, -v2, v1), (v2, 0, -v0), (-v1, v0, 0).
    return (
        o0 * s0 / 2.0, (o0 * s1 - u2) / 2.0, (o0 * s2 + u1) / 2.0,
        v1 * r20 - v2 * r10, v1 * r21 - v2 * r11, v1 * r22 - v2 * r12,
        (o1 * s0 + u2) / 2.0, o1 * s1 / 2.0, (o1 * s2 - u0) / 2.0,
        v2 * r00 - v0 * r20, v2 * r01 - v0 * r21, v2 * r02 - v0 * r22,
        (o2 * s0 - u1) / 2.0, (o2 * s1 + u0) / 2.0, o2 * s2 / 2.0,
        v0 * r10 - v1 * r00, v0 * r11 - v1 * r01, v0 * r12 - v1 * r02,
    ) + (0.0,) * 18  # the bottom three rows are zero


def _se3_jacobians(m: tuple, lam: tuple, w: list) -> tuple[tuple, tuple, tuple]:
    """P1^T, P2^T and D, row-major."""
    return (*_se3_extract_jacobian_entries(m), _se3_extract_d1_entries(m, w))


_SE3_CHART = _Chart(_se3_relative, _se3_extract_entries, _se3_extract_transposes,
                    _se3_jacobians)


def se3_coupled() -> DiscreteLagrangian:
    """Rigid-motion fiber coupled to a planar shape through a linear coupling.

    Uses the linear extraction se3_extract in place of the logarithm, so the
    displacement chart degrades gracefully and the derivatives are exact.
    """
    return _coupled(Bundle(SE3, 2), _SE3_C0, (_SE3_C1, _SE3_C2), _SE3_CHART)


def so3_pure() -> DiscreteLagrangian:
    """Pure rotation group, trivial shape: value depends on g0^-1 g1 alone.

    The coupled rotation Lagrangian with no shape; its discrete mechanical
    connection must coincide with g1 g0^-1.
    """
    return _coupled(Bundle(SO3, 0), np.zeros((3, 0)), (), _SO3_CHART)


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
