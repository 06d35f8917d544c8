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
from .bundle import Bundle, BundlePoint, PairElement, ShapePoint, shift
from .connection import DiscreteConnection
from .errors import CutLocusError, NonDegenerateError, SolverDivergedError
from .lie_group import GroupElement

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
    ``d1_eval`` with step JAC_FD_STEP.  The solvers evaluate ``d1`` and
    ``d12`` of one iterate at the same point objects.
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

    def pair(self, xi: np.ndarray) -> float:
        return float(self.covector @ xi)


def discrete_momentum(L: DiscreteLagrangian, p: PairElement) -> MomentumValue:
    """The discrete momentum map <J(q0, q1), xi> = -D1 L(q0, q1) . xi_Q(q0).

    xi_Q(q0) has trivialized coordinates (0, Ad_{g0^-1} xi), so only the
    fiber block of D1 L enters.
    """
    group = L.bundle.group
    d1_fiber = L.d1_eval(p.first, p.second)[L.bundle.shape_dim:]
    ad_inv = group.adjoint_matrix(group.inverse_matrix(p.first.fiber.matrix))
    return MomentumValue(group, -(ad_inv.T @ d1_fiber))


def fiber_derivative(L: DiscreteLagrangian, p: PairElement) -> tuple[BundlePoint, np.ndarray]:
    """The discrete fiber derivative (q0, -D1 L(q0, q1))."""
    return p.first, -L.d1_eval(p.first, p.second)


def del_step(L: DiscreteLagrangian, q0: BundlePoint, q1: BundlePoint) -> BundlePoint:
    """Solve the discrete Euler-Lagrange equation D2 L(q0,q1) + D1 L(q1,q2) = 0.

    Newton iteration in trivialized coordinates around the chart
    extrapolation (2 x1 - x0, g1 (g0^-1 g1)); raises SolverDivergedError if
    the residual does not fall below NEWTON_TOL within NEWTON_MAX_ITER
    iterations.  Each iterate is one point object, so a Lagrangian that
    shares work between d1 and d12 at one pair can reuse it.
    """
    rhs = L.d2_eval(q0, q1)
    seed_coords = 2.0 * q1.shape.coords - q0.shape.coords
    # Extrapolate the fiber through the exp chart, not by a bare product:
    # g1 exp(log(g0^-1 g1)) equals g1 (g0^-1 g1) on the group but projects
    # rounding noise back onto it.  A three-term product recursion amplifies
    # any off-group component by (1 + sqrt(2)) per step, which would wreck
    # long trajectories.
    group = q1.fiber.group
    g1 = q1.fiber.matrix
    rel_matrix = group.inverse_matrix(q0.fiber.matrix) @ g1
    try:
        seed_fiber = g1 @ group.exp_matrix(group.log_vector(rel_matrix))
    except CutLocusError:
        seed_fiber = g1 @ rel_matrix
    q2 = BundlePoint(ShapePoint(seed_coords), GroupElement(group, seed_fiber, True))

    def residual(q: BundlePoint) -> np.ndarray:
        return rhs + L.d1_eval(q1, q)

    for _ in range(NEWTON_MAX_ITER):
        res = residual(q2)
        if np.max(np.abs(res)) < NEWTON_TOL:
            return q2
        try:
            delta = np.linalg.solve(L.d12_eval(q1, q2), -res)
        except np.linalg.LinAlgError as exc:
            raise SolverDivergedError(f"singular Newton system: {exc}") from exc
        q2 = shift(q2, delta)
    res = np.max(np.abs(residual(q2)))
    raise SolverDivergedError(
        f"discrete Euler-Lagrange Newton stalled at residual {res:.3e} "
        f"after {NEWTON_MAX_ITER} iterations"
    )


def del_trajectory(L: DiscreteLagrangian, q0: BundlePoint, q1: BundlePoint,
                   steps: int) -> list[BundlePoint]:
    """The discrete trajectory q0, q1, ..., q_{steps+1}: ``steps`` del_step solves."""
    path = [q0, q1]
    for _ in range(steps):
        path.append(del_step(L, path[-2], path[-1]))
    return path


def mechanical_connection(L: DiscreteLagrangian, p: PairElement) -> GroupElement:
    """The discrete mechanical connection value for a G-invariant Lagrangian.

    Solves J(x0, g0, x1, g) = 0 for g near g0 by Newton iteration in the
    exponential chart and returns g1 g^-1, within NEWTON_TOL and
    NEWTON_MAX_ITER as in del_step.  Raises NonDegenerateError when the
    momentum Jacobian in g is singular beyond RCOND_FLOOR conditioning.
    """
    group = L.bundle.group
    d = L.bundle.shape_dim
    x1 = p.second.shape
    # The second slot (x1, g), g starting at g0; one point object per iterate.
    q1 = BundlePoint(x1, p.first.fiber)
    # J = -Ad_{g0^-1}^T D1 L(q0, (x1, g)) as in discrete_momentum, and g exp(z)
    # moves only the fiber of the second slot.
    ad_inv_t = group.adjoint_matrix(group.inverse_matrix(p.first.fiber.matrix)).T

    def momentum(q: BundlePoint) -> np.ndarray:
        return -(ad_inv_t @ L.d1_eval(p.first, q)[d:])

    for _ in range(NEWTON_MAX_ITER):
        res = momentum(q1)
        if np.max(np.abs(res)) < NEWTON_TOL:
            return GroupElement(
                group, p.second.fiber.matrix @ group.inverse_matrix(q1.fiber.matrix), True)
        jac = -(ad_inv_t @ L.d12_eval(p.first, q1)[d:, d:])
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= RCOND_FLOOR * sv[0] or sv[0] == 0.0:
            raise NonDegenerateError(
                f"momentum Jacobian is singular (rcond {sv[-1] / sv[0] if sv[0] else 0.0:.2e})"
            )
        step = group.exp_matrix(np.linalg.solve(jac, -res))
        q1 = BundlePoint(x1, GroupElement(group, q1.fiber.matrix @ step, True))
    raise SolverDivergedError(
        f"mechanical connection Newton stalled at residual {np.max(np.abs(momentum(q1))):.3e}"
    )


def mechanical_discrete_connection(L: DiscreteLagrangian) -> DiscreteConnection:
    """Wrap the mechanical connection of L as a stored discrete connection.

    Each value costs a Newton solve, so the local representation keeps the
    read-only matrix of every value it has solved, keyed by the shape pair.
    """
    solved: dict[tuple[bytes, bytes], np.ndarray] = {}

    def rep(x0: ShapePoint, x1: ShapePoint) -> np.ndarray:
        key = (x0.coords.tobytes(), x1.coords.tobytes())
        if key not in solved:
            e = lg.identity(L.bundle.group)
            p = PairElement(BundlePoint(x0, e), BundlePoint(x1, e))
            solved[key] = mechanical_connection(L, p).matrix
        return solved[key]

    return DiscreteConnection(L.bundle, rep)
