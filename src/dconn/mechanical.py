"""Discrete mechanics on trivialized bundles.

A discrete Lagrangian is a scalar function of configuration pairs.  Its
slot derivatives are covectors in the trivialized coordinates used
throughout the package: shape components pair with chart velocities, fiber
components with left-trivialized algebra velocities (curves g exp(t delta)).
From the first-slot derivative come the discrete momentum map, the discrete
Euler-Lagrange step and, for group-invariant Lagrangians, the discrete
mechanical connection: one zero-momentum solve on the canonical pair
((x0, e), (x1, g)) gives its local representation A(x0, x1), and its value
on any pair over (x0, x1) is g1 A(x0, x1) g0^-1.

Slot derivatives a Lagrangian leaves out are ``limits.derivative_at_zero``
along the chart curves t -> bundle.shift(q, t e_i), taken from a first
coordinate on when only a trailing block is read.  Both solvers share one
Newton loop that moves its iterate by ``bundle.shift``.  Every public
function refuses points outside the Lagrangian's bundle before it evaluates
the Lagrangian (``Bundle.check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lie_group as lg
from .bundle import Bundle, BundlePoint, PairElement, ShapePoint, shift
from .connection import DiscreteConnection, _broadcast_rows, _form_product
from .errors import CutLocusError, NonDegenerateError, SolverDivergedError
from .lie_group import GroupElement, _frozen
from .limits import derivative_at_zero

NEWTON_TOL = 1.0e-12
NEWTON_MAX_ITER = 50
# Reciprocal condition number below which the momentum Jacobian counts as singular.
RCOND_FLOOR = 1.0e-10


def _chart_derivative(f: Callable[[BundlePoint], np.ndarray], q: BundlePoint,
                      first: int = 0) -> np.ndarray:
    """The derivatives of f along the chart curves t -> shift(q, t e_i), i >= first
    on the last axis."""
    dim = q.shape.coords.size + q.fiber.group.dim
    return np.stack([derivative_at_zero(lambda t, e=e: f(shift(q, t * e)))
                     for e in np.eye(dim)[first:]], axis=-1)


@dataclass(frozen=True)
class DiscreteLagrangian:
    """A discrete Lagrangian with optional analytic slot derivatives.

    ``d1``/``d2`` return covector arrays of length shape_dim + algebra dim.
    ``d12(q0, q1)`` is the square Jacobian of ``d1(q0, q1)`` under the
    trivialized moves ``shift(q1, z)`` = (x1 + z_shape, g1 exp(z_fiber)),
    column j for coordinate z_j.  Both Newton solvers take their Jacobian
    from it and evaluate ``d1`` and ``d12`` of one iterate at the same
    point objects.

    An omitted ``d1``/``d2`` is the chart-curve derivative of ``value`` in
    its slot (accurate to about 1e-12), an omitted ``d12`` that of
    ``d1_eval``; they cost 64 (shape_dim + dim)^2 calls of ``value`` per
    Newton iteration, so analytic derivatives are preferred.
    """

    bundle: Bundle
    value: Callable[[BundlePoint, BundlePoint], float]
    d1: Callable[[BundlePoint, BundlePoint], np.ndarray] | None = None
    d2: Callable[[BundlePoint, BundlePoint], np.ndarray] | None = None
    d12: Callable[[BundlePoint, BundlePoint], np.ndarray] | None = None

    def d1_eval(self, q0: BundlePoint, q1: BundlePoint, first: int = 0) -> np.ndarray:
        """D1 L(q0, q1) from coordinate ``first`` on: an analytic d1 is sliced,
        a missing one differentiated along those directions only (the stencil
        is elementwise, so the block keeps the bits of the whole covector)."""
        if self.d1 is not None:
            return np.asarray(self.d1(q0, q1), dtype=float)[first:]
        return _chart_derivative(lambda q: self.value(q, q1), q0, first)

    def d2_eval(self, q0: BundlePoint, q1: BundlePoint) -> np.ndarray:
        if self.d2 is not None:
            return np.asarray(self.d2(q0, q1), dtype=float)
        return _chart_derivative(lambda q: self.value(q0, q), q1)

    def d12_eval(self, q0: BundlePoint, q1: BundlePoint, first: int = 0) -> np.ndarray:
        """The block of d12 from row and column ``first`` on, as in d1_eval."""
        if self.d12 is not None:
            return np.asarray(self.d12(q0, q1), dtype=float)[first:, first:]
        return _chart_derivative(lambda q: self.d1_eval(q0, q, first), q1, first)


def _newton(q: BundlePoint, residual: Callable[[BundlePoint], np.ndarray],
            step: Callable[[BundlePoint, np.ndarray], np.ndarray], what: str) -> BundlePoint:
    """Move q to shift(q, step(q, residual(q))) until max |residual(q)| < NEWTON_TOL;
    SolverDivergedError naming ``what`` after NEWTON_MAX_ITER iterations."""
    for _ in range(NEWTON_MAX_ITER):
        res = residual(q)
        if abs(res).max() < NEWTON_TOL:
            return q
        q = shift(q, step(q, res))
    raise SolverDivergedError(
        f"{what} Newton stalled at residual {np.max(np.abs(residual(q))):.3e} "
        f"after {NEWTON_MAX_ITER} iterations"
    )


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
    L.bundle.check(p.first, p.second)
    group = L.bundle.group
    ad_inv = group.adjoint_matrix(group.inverse_matrix(p.first.fiber.matrix))
    return MomentumValue(group, -(ad_inv.T @ L.d1_eval(p.first, p.second, L.bundle.shape_dim)))


def fiber_derivative(L: DiscreteLagrangian, p: PairElement) -> tuple[BundlePoint, np.ndarray]:
    """The discrete fiber derivative (q0, -D1 L(q0, q1))."""
    L.bundle.check(p.first, p.second)
    return p.first, -L.d1_eval(p.first, p.second)


def del_step(L: DiscreteLagrangian, q0: BundlePoint, q1: BundlePoint) -> BundlePoint:
    """Solve the discrete Euler-Lagrange equation D2 L(q0,q1) + D1 L(q1,q2) = 0.

    Newton iteration in trivialized coordinates around the chart
    extrapolation (2 x1 - x0, g1 (g0^-1 g1)); raises SolverDivergedError
    on a singular Newton system or a stall.  Each iterate is one point
    object, so a Lagrangian that shares work between d1 and d12 at one pair
    can reuse it.
    """
    L.bundle.check(q0, q1)
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
    seed = BundlePoint(ShapePoint(seed_coords, True), GroupElement(group, seed_fiber, True))

    def residual(q: BundlePoint) -> np.ndarray:
        return rhs + L.d1_eval(q1, q)

    def step(q: BundlePoint, res: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(L.d12_eval(q1, q), -res)
        except np.linalg.LinAlgError as exc:
            raise SolverDivergedError(f"singular Newton system: {exc}") from exc

    return _newton(seed, residual, step, "discrete Euler-Lagrange")


def del_trajectory(L: DiscreteLagrangian, q0: BundlePoint, q1: BundlePoint,
                   steps: int) -> list[BundlePoint]:
    """The discrete trajectory q0, q1, ..., q_{steps+1}: ``steps`` del_step solves."""
    L.bundle.check(q0, q1)
    path = [q0, q1]
    for _ in range(steps):
        path.append(del_step(L, path[-2], path[-1]))
    return path


def _canonical_solve(L: DiscreteLagrangian, x0: ShapePoint, x1: ShapePoint) -> np.ndarray:
    """The local representation A(x0, x1) = g^-1 of the mechanical connection.

    Drives the fiber block of D1 L((x0, e), (x1, g)), the momentum on the
    canonical pair, to zero by Newton iteration from g = e (chart moves with
    a zero shape part), within NEWTON_TOL and NEWTON_MAX_ITER as in
    del_step.  Raises NonDegenerateError when the block's Jacobian in g is
    singular beyond RCOND_FLOOR conditioning.
    """
    group = L.bundle.group
    d = L.bundle.shape_dim
    e = lg.identity(group)
    q0 = BundlePoint(x0, e)

    def step(q: BundlePoint, res: np.ndarray) -> np.ndarray:
        jac = L.d12_eval(q0, q, d)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= RCOND_FLOOR * sv[0] or sv[0] == 0.0:
            raise NonDegenerateError(
                f"momentum Jacobian is singular (rcond {sv[-1] / sv[0] if sv[0] else 0.0:.2e})"
            )
        z = np.zeros(d + group.dim)
        z[d:] = np.linalg.solve(jac, -res)
        return z

    q = _newton(BundlePoint(x1, e), lambda q: L.d1_eval(q0, q, d), step,
                "mechanical connection")
    return group.inverse_matrix(q.fiber.matrix)


def mechanical_connection(L: DiscreteLagrangian, p: PairElement) -> GroupElement:
    """The discrete mechanical connection value g1 A(x0, x1) g0^-1 for a
    G-invariant Lagrangian.  A(x0, x1) comes from one zero-momentum solve on
    the canonical pair ((x0, e), (x1, .)), so its tolerances and errors
    (``_canonical_solve``) do not depend on g0."""
    L.bundle.check(p.first, p.second)
    group = L.bundle.group
    a = _canonical_solve(L, p.first.shape, p.second.shape)
    return GroupElement(group, _form_product(p.second.fiber.matrix, a,
                                             group.inverse_matrix(p.first.fiber.matrix)), True)


def mechanical_discrete_connection(L: DiscreteLagrangian) -> DiscreteConnection:
    """Wrap the mechanical connection of L as a stored discrete connection.

    Each local representation costs one canonical Newton solve, so the
    connection keeps the matrix of every one it has solved, keyed by the
    shape pair; a form on any pair over it is then g1 A(x0, x1) g0^-1.
    A stack of pairs is solved row by row, in row order, so a failing stack
    raises the error of its first failing row.
    """
    solved: dict[tuple[bytes, bytes], np.ndarray] = {}

    def solve(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
        key = (x0.tobytes(), x1.tobytes())
        if key not in solved:
            shapes = ShapePoint(x0), ShapePoint(x1)
            L.bundle.check_shapes(*shapes)
            solved[key] = _canonical_solve(L, *shapes)
        return solved[key]

    def reps(x0s: np.ndarray, x1s: np.ndarray) -> np.ndarray:
        x0s, x1s = _broadcast_rows(x0s, x1s)
        k = L.bundle.group.matrix_size
        out = np.empty((len(x0s), k, k))
        for i, (x0, x1) in enumerate(zip(x0s, x1s)):
            out[i] = solve(x0, x1)
        return _frozen(out)

    return DiscreteConnection(L.bundle, reps)
