"""Discrete mechanics on trivialized bundles.

A discrete Lagrangian is a scalar function of configuration pairs.  Its
slot derivatives are covectors in the trivialized coordinates used
throughout the package: shape components pair with chart velocities, fiber
components with left-trivialized algebra velocities (curves g exp(t delta)).
From the first-slot derivative come the discrete momentum map, the discrete
Euler-Lagrange step and, for group-invariant Lagrangians, the discrete
mechanical connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lie_group as lg
from .bundle import Bundle, BundlePoint, PairElement, ShapePoint
from .connection import DiscreteConnection
from .errors import CutLocusError, NonDegenerateError, SolverDivergedError
from .lie_group import AlgebraElement, GroupElement

# Relative step for the 6-point central-difference fallback.
FD_STEP = 1.0e-5
# Step of the central-difference fallback for d12.
JAC_FD_STEP = 1.0e-6
NEWTON_TOL = 1.0e-12
NEWTON_MAX_ITER = 50
# Reciprocal condition number below which the momentum Jacobian counts as singular.
RCOND_FLOOR = 1.0e-10

# 6-point central difference: nodes +-1h, +-2h, +-3h, error O(h^6).
_FD_NODES = (3.0, 2.0, 1.0, -1.0, -2.0, -3.0)
_FD_WEIGHTS = (1.0 / 60.0, -9.0 / 60.0, 45.0 / 60.0, -45.0 / 60.0, 9.0 / 60.0, -1.0 / 60.0)


def shift(q: BundlePoint, z: np.ndarray) -> BundlePoint:
    """The trivialized move (x + z_shape, g exp(z_fiber)) of q by coordinates z."""
    d = q.shape.coords.size
    fiber = lg.compose(q.fiber, lg.exp(AlgebraElement(q.fiber.group, z[d:])))
    return BundlePoint(ShapePoint(q.shape.coords + z[:d]), fiber)


@dataclass(frozen=True)
class DiscreteLagrangian:
    """A discrete Lagrangian with optional analytic slot derivatives.

    ``d1``/``d2`` return covector arrays of length shape_dim + algebra dim.
    When omitted they fall back to 6-point central differences of ``value``
    with relative step FD_STEP; the fallback is accurate to roughly 1e-10,
    which is fine for derivative checks but too noisy for the default
    Newton residual tolerance, so analytic derivatives are preferred for
    time stepping.

    ``d12(q0, q1)`` is the square Jacobian of ``d1(q0, q1)`` under the
    trivialized moves ``shift(q1, z)`` = (x1 + z_shape, g1 exp(z_fiber)),
    column j for coordinate z_j.  Both Newton solvers take their Jacobian
    from it; when omitted it falls back to central differences of
    ``d1_eval`` with step JAC_FD_STEP.
    """

    bundle: Bundle
    value: Callable[[BundlePoint, BundlePoint], float]
    d1: Callable[[BundlePoint, BundlePoint], np.ndarray] | None = None
    d2: Callable[[BundlePoint, BundlePoint], np.ndarray] | None = None
    d12: Callable[[BundlePoint, BundlePoint], np.ndarray] | None = None

    def _fd_slot(self, q0: BundlePoint, q1: BundlePoint, slot: int) -> np.ndarray:
        dim = self.bundle.shape_dim + self.bundle.group.dim
        h = FD_STEP * max(1.0, abs(q0.shape.coords).max(initial=0.0),
                          abs(q1.shape.coords).max(initial=0.0))
        out = np.zeros(dim)
        for i, step in enumerate(h * np.eye(dim)):
            acc = 0.0
            for node, w in zip(_FD_NODES, _FD_WEIGHTS):
                if slot == 0:
                    acc += w * self.value(shift(q0, node * step), q1)
                else:
                    acc += w * self.value(q0, shift(q1, node * step))
            out[i] = acc / h
        return out

    def d1_eval(self, q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        if self.d1 is not None:
            return np.asarray(self.d1(q0, q1), dtype=float)
        return self._fd_slot(q0, q1, 0)

    def d2_eval(self, q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        if self.d2 is not None:
            return np.asarray(self.d2(q0, q1), dtype=float)
        return self._fd_slot(q0, q1, 1)

    def d12_eval(self, q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        if self.d12 is not None:
            return np.asarray(self.d12(q0, q1), dtype=float)
        dim = self.bundle.shape_dim + self.bundle.group.dim
        jac = np.empty((dim, dim))
        for j, step in enumerate(JAC_FD_STEP * np.eye(dim)):
            jac[:, j] = (self.d1_eval(q0, shift(q1, step))
                         - self.d1_eval(q0, shift(q1, -step))) / (2 * JAC_FD_STEP)
        return jac


@dataclass(frozen=True, eq=False)
class MomentumValue:
    """A momentum covector in the dual algebra basis."""

    group: lg.MatrixGroup
    covector: np.ndarray

    def pair(self, xi: AlgebraElement) -> float:
        return float(self.covector @ xi.vector)


def discrete_momentum(L: DiscreteLagrangian, p: PairElement) -> MomentumValue:
    """The discrete momentum map <J(q0, q1), xi> = -D1 L(q0, q1) . xi_Q(q0).

    xi_Q(q0) has trivialized coordinates (0, Ad_{g0^-1} xi), so only the
    fiber block of D1 L enters.
    """
    d1_fiber = L.d1_eval(p.first, p.second)[L.bundle.shape_dim:]
    ad_inv = lg.adjoint_matrix(lg.inverse(p.first.fiber))
    return MomentumValue(L.bundle.group, -(ad_inv.T @ d1_fiber))


def fiber_derivative(L: DiscreteLagrangian, p: PairElement) -> tuple[BundlePoint, np.ndarray]:
    """The discrete fiber derivative (q0, -D1 L(q0, q1))."""
    return p.first, -L.d1_eval(p.first, p.second)


def del_step(L: DiscreteLagrangian, q0: BundlePoint, q1: BundlePoint,
             tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAX_ITER) -> BundlePoint:
    """Solve the discrete Euler-Lagrange equation D2 L(q0,q1) + D1 L(q1,q2) = 0.

    Newton iteration in trivialized coordinates around the chart
    extrapolation (2 x1 - x0, g1 (g0^-1 g1)); raises SolverDivergedError if
    the residual does not fall below ``tol`` within ``max_iter`` iterations.
    """
    rhs = L.d2_eval(q0, q1)
    seed_coords = 2.0 * q1.shape.coords - q0.shape.coords
    # Extrapolate the fiber through the exp chart, not by a bare product:
    # g1 exp(log(g0^-1 g1)) equals g1 (g0^-1 g1) on the group but projects
    # rounding noise back onto it.  A three-term product recursion amplifies
    # any off-group component by (1 + sqrt(2)) per step, which would wreck
    # long trajectories.
    try:
        rel = lg.log(lg.compose(lg.inverse(q0.fiber), q1.fiber))
        seed_fiber = lg.compose(q1.fiber, lg.exp(rel))
    except CutLocusError:
        seed_fiber = lg.compose(q1.fiber, lg.compose(lg.inverse(q0.fiber), q1.fiber))
    q2 = BundlePoint(ShapePoint(seed_coords), seed_fiber)

    def residual(q: BundlePoint) -> np.ndarray:
        return rhs + L.d1_eval(q1, q)

    for _ in range(max_iter):
        res = residual(q2)
        if np.max(np.abs(res)) < tol:
            return q2
        try:
            delta = np.linalg.solve(L.d12_eval(q1, q2), -res)
        except np.linalg.LinAlgError as exc:
            raise SolverDivergedError(f"singular Newton system: {exc}") from exc
        q2 = shift(q2, delta)
    res = np.max(np.abs(residual(q2)))
    raise SolverDivergedError(
        f"discrete Euler-Lagrange Newton stalled at residual {res:.3e} after {max_iter} iterations"
    )


def mechanical_connection(L: DiscreteLagrangian, p: PairElement,
                          tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAX_ITER) -> GroupElement:
    """The discrete mechanical connection value for a G-invariant Lagrangian.

    Solves J(x0, g0, x1, g) = 0 for g near g0 by Newton iteration in the
    exponential chart and returns g1 g^-1.  Raises NonDegenerateError when
    the momentum Jacobian in g is singular beyond RCOND_FLOOR conditioning.
    """
    group = L.bundle.group
    d = L.bundle.shape_dim
    x1 = p.second.shape
    g = p.first.fiber
    # J = -Ad_{g0^-1}^T D1 L(q0, (x1, g)), and g exp(z) moves only the fiber of the second slot.
    ad_inv_t = lg.adjoint_matrix(lg.inverse(p.first.fiber)).T

    def momentum(gg: GroupElement) -> np.ndarray:
        return discrete_momentum(L, PairElement(p.first, BundlePoint(x1, gg))).covector

    for _ in range(max_iter):
        res = momentum(g)
        if np.max(np.abs(res)) < tol:
            return lg.compose(p.second.fiber, lg.inverse(g))
        jac = -(ad_inv_t @ L.d12_eval(p.first, BundlePoint(x1, g))[d:, d:])
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= RCOND_FLOOR * sv[0] or sv[0] == 0.0:
            raise NonDegenerateError(
                f"momentum Jacobian is singular (rcond {sv[-1] / sv[0] if sv[0] else 0.0:.2e})"
            )
        g = lg.compose(g, lg.exp(AlgebraElement(group, np.linalg.solve(jac, -res))))
    raise SolverDivergedError(
        f"mechanical connection Newton stalled at residual {np.max(np.abs(momentum(g))):.3e}"
    )


def mechanical_discrete_connection(L: DiscreteLagrangian) -> DiscreteConnection:
    """Wrap the mechanical connection of L as a stored discrete connection.

    Each value costs a Newton solve, so the local representation keeps every
    value it has solved, keyed by the shape pair.
    """
    group = L.bundle.group
    solved: dict[tuple[bytes, bytes], GroupElement] = {}

    def rep(x0: ShapePoint, x1: ShapePoint) -> GroupElement:
        key = (x0.coords.tobytes(), x1.coords.tobytes())
        if key not in solved:
            e = lg.identity(group)
            p = PairElement(BundlePoint(x0, e), BundlePoint(x1, e))
            solved[key] = mechanical_connection(L, p)
        return solved[key]

    return DiscreteConnection(L.bundle, rep)
