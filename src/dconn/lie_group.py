"""Matrix Lie groups used as structure groups.

Supported groups: SO(2), SO(3), SE(3) and the additive translation groups
R^n (represented as homogeneous matrices so every group shares one code
path).  Each group fixes a Lie-algebra basis through ``hat``/``vee``; all
algebra coordinates below refer to that basis.

Conventions:
  * so(3) uses the standard hat map, so ``exp`` is the Rodrigues formula.
  * se(3) coordinates are ordered (omega, v): rotation first, then
    translation.  Elements are 4x4 homogeneous matrices.
  * Logarithms are principal: the rotation angle must stay strictly below
    pi, enforced with a 1e-6 safety margin (``CutLocusError`` otherwise).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import CutLocusError, GroupMismatchError

# Angle below which trig coefficient ratios switch to their Taylor series.
_SMALL_ANGLE = 1.0e-8
# Principal-log domain: rotation angle must be < pi - _CUT_MARGIN.
_CUT_MARGIN = 1.0e-6


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_EYE1 = _frozen(np.eye(1))
_EYE3 = _frozen(np.eye(3))
_EYE4 = _frozen(np.eye(4))


class MatrixGroup:
    """A matrix Lie group with a fixed algebra basis and closed-form exp/log."""

    name: str
    dim: int
    matrix_size: int

    def __init__(self):
        self._eye = _frozen(np.eye(self.matrix_size))

    def hat(self, vector: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def vee(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def exp_matrix(self, vector: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_vector(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Ad_g in algebra coordinates, for the element g with this matrix."""
        raise NotImplementedError

    def identity_matrix(self) -> np.ndarray:
        """The identity matrix (read-only, shared)."""
        return self._eye

    def cayley_matrix(self, vector: np.ndarray) -> np.ndarray:
        # (I - xi/2)^-1 (I + xi/2); lands in the group for all four families.
        half = 0.5 * self.hat(vector)
        return np.linalg.solve(self._eye - half, self._eye + half)

    def check_matrix(self, matrix: np.ndarray, tol: float = 1.0e-8) -> None:
        """Validate that ``matrix`` lies in the group (raises ValueError)."""
        m = np.asarray(matrix, dtype=float)
        if m.shape != (self.matrix_size, self.matrix_size):
            raise ValueError(
                f"{self.name}: expected {self.matrix_size}x{self.matrix_size} matrix, got {m.shape}"
            )
        if not np.isfinite(m).all():
            raise ValueError(f"{self.name}: matrix has non-finite entries")
        self._check_structure(m, tol)

    def _check_structure(self, m: np.ndarray, tol: float) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _check_rotation(r: np.ndarray, tol: float, name: str) -> None:
    err = np.max(np.abs(r.T @ r - np.eye(r.shape[0])))
    if err > tol:
        raise ValueError(f"{name}: rotation block not orthonormal (error {err:.2e})")
    if np.linalg.det(r) < 0.0:
        raise ValueError(f"{name}: rotation block has negative determinant")


class _SO2(MatrixGroup):
    name = "SO2"
    dim = 1
    matrix_size = 2

    def hat(self, vector):
        (t,) = np.asarray(vector, dtype=float).reshape(1)
        return np.array([[0.0, -t], [t, 0.0]])

    def vee(self, matrix):
        return np.array([matrix[1, 0]])

    def exp_matrix(self, vector):
        (t,) = np.asarray(vector, dtype=float).reshape(1)
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, -s], [s, c]])

    def log_vector(self, matrix):
        t = np.arctan2(matrix[1, 0], matrix[0, 0])
        if abs(t) >= np.pi - _CUT_MARGIN:
            raise CutLocusError(f"SO2: rotation angle {t:.8f} within 1e-6 of pi")
        return np.array([t])

    def adjoint_matrix(self, matrix):
        return _EYE1

    def _check_structure(self, m, tol):
        _check_rotation(m, tol, self.name)


def _so3_hat(w: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def _norm(w: np.ndarray) -> float:
    return math.sqrt(w.dot(w))


def _so3_exp(w: np.ndarray) -> np.ndarray:
    theta = _norm(w)
    k = _so3_hat(w)
    if theta < _SMALL_ANGLE:
        # sin(t)/t and (1-cos t)/t^2 to second order.
        a = 1.0 - theta**2 / 6.0
        b = 0.5 - theta**2 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta**2
    return _EYE3 + a * k + b * (k @ k)


def _so3_rotation_angle(r: np.ndarray) -> float:
    c = (r[0, 0] + r[1, 1] + r[2, 2] - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def _so3_log(r: np.ndarray) -> np.ndarray:
    theta = _so3_rotation_angle(r)
    if theta >= np.pi - _CUT_MARGIN:
        raise CutLocusError(f"SO3: rotation angle {theta:.8f} within 1e-6 of pi")
    w = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < _SMALL_ANGLE:
        # w = sin(theta) * axis; sin(t)/t inverse to second order.
        return w * (1.0 + theta**2 / 6.0)
    return w * (theta / math.sin(theta))


class _SO3(MatrixGroup):
    name = "SO3"
    dim = 3
    matrix_size = 3

    def hat(self, vector):
        return _so3_hat(np.asarray(vector, dtype=float).reshape(3))

    def vee(self, matrix):
        return np.array([matrix[2, 1], matrix[0, 2], matrix[1, 0]])

    def exp_matrix(self, vector):
        return _so3_exp(np.asarray(vector, dtype=float).reshape(3))

    def log_vector(self, matrix):
        return _so3_log(matrix)

    def adjoint_matrix(self, matrix):
        return matrix

    def _check_structure(self, m, tol):
        _check_rotation(m, tol, self.name)


def _se3_v_matrix(w: np.ndarray) -> np.ndarray:
    theta = _norm(w)
    k = _so3_hat(w)
    if theta < _SMALL_ANGLE:
        b = 0.5 - theta**2 / 24.0
        c = 1.0 / 6.0 - theta**2 / 120.0
    else:
        b = (1.0 - math.cos(theta)) / theta**2
        c = (theta - math.sin(theta)) / theta**3
    return _EYE3 + b * k + c * (k @ k)


def _se3_v_inverse(w: np.ndarray) -> np.ndarray:
    theta = _norm(w)
    k = _so3_hat(w)
    if theta < 1.0e-4:
        c = 1.0 / 12.0 + theta**2 / 720.0
    else:
        c = (1.0 - 0.5 * theta * math.sin(theta) / (1.0 - math.cos(theta))) / theta**2
    return _EYE3 - 0.5 * k + c * (k @ k)


class _SE3(MatrixGroup):
    name = "SE3"
    dim = 6
    matrix_size = 4

    def hat(self, vector):
        x = np.asarray(vector, dtype=float).reshape(6)
        out = np.zeros((4, 4))
        out[:3, :3] = _so3_hat(x[:3])
        out[:3, 3] = x[3:]
        return out

    def vee(self, matrix):
        return np.array(
            [matrix[2, 1], matrix[0, 2], matrix[1, 0], matrix[0, 3], matrix[1, 3], matrix[2, 3]]
        )

    def exp_matrix(self, vector):
        x = np.asarray(vector, dtype=float).reshape(6)
        w, v = x[:3], x[3:]
        out = _EYE4.copy()
        out[:3, :3] = _so3_exp(w)
        out[:3, 3] = _se3_v_matrix(w) @ v
        return out

    def log_vector(self, matrix):
        w = _so3_log(matrix[:3, :3])
        v = _se3_v_inverse(w) @ matrix[:3, 3]
        return np.concatenate([w, v])

    def adjoint_matrix(self, matrix):
        # Ad_g (omega, v) = (R omega, p x R omega + R v).
        r = matrix[:3, :3]
        out = np.zeros((6, 6))
        out[:3, :3] = r
        out[3:, 3:] = r
        out[3:, :3] = _so3_hat(matrix[:3, 3]) @ r
        return _frozen(out)

    def _check_structure(self, m, tol):
        _check_rotation(m[:3, :3], tol, self.name)
        bottom = np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))
        if np.max(bottom) > tol:
            raise ValueError(f"{self.name}: bottom row is not (0,0,0,1)")


class _Translation(MatrixGroup):
    """Additive group R^n as (n+1)x(n+1) homogeneous matrices."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("translation group needs n >= 1")
        self.name = f"T{n}"
        self.dim = n
        self.matrix_size = n + 1
        super().__init__()
        self._ad = _frozen(np.eye(n))

    def hat(self, vector):
        v = np.asarray(vector, dtype=float).reshape(self.dim)
        out = np.zeros((self.matrix_size, self.matrix_size))
        out[:-1, -1] = v
        return out

    def vee(self, matrix):
        return np.array(matrix[:-1, -1])

    def exp_matrix(self, vector):
        # hat(v) is nilpotent of index 2, so exp is I + hat(v).
        return self._eye + self.hat(vector)

    def log_vector(self, matrix):
        return self.vee(matrix)

    def adjoint_matrix(self, matrix):
        return self._ad

    def _check_structure(self, m, tol):
        n = self.dim
        err = np.max(np.abs(m[:n, :n] - self._eye[:n, :n]))
        bottom = np.max(np.abs(m[n] - self._eye[n]))
        if max(err, bottom) > tol:
            raise ValueError(f"{self.name}: not a homogeneous translation matrix")


SO2 = _SO2()
SO3 = _SO3()
SE3 = _SE3()

_TRANSLATION_CACHE: dict[int, _Translation] = {}


def translation_group(n: int) -> MatrixGroup:
    """The additive group R^n (one instance per n, so instances compare by identity)."""
    if n not in _TRANSLATION_CACHE:
        _TRANSLATION_CACHE[n] = _Translation(n)
    return _TRANSLATION_CACHE[n]


_NAMED = {"SO2": SO2, "SO3": SO3, "SE3": SE3}


def group_by_name(name: str) -> MatrixGroup:
    """Look up a group by tag: SO2, SO3, SE3, or Tn for R^n."""
    if name in _NAMED:
        return _NAMED[name]
    if name.startswith("T") and name[1:].isdigit():
        return translation_group(int(name[1:]))
    raise ValueError(f"unknown group tag {name!r}")


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A group element: an immutable square matrix plus its group tag.

    The matrix is copied into a read-only array.  The kernels of this module
    pass ``_owned=True`` for a float array they have just computed and share
    with no caller, which is frozen in place instead of copied.
    """

    group: MatrixGroup
    matrix: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        if _owned:
            self.matrix.flags.writeable = False
        else:
            object.__setattr__(self, "matrix", _readonly(self.matrix))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A Lie-algebra element in basis coordinates (copied like GroupElement.matrix)."""

    group: MatrixGroup
    vector: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        if _owned:
            self.vector.flags.writeable = False
        else:
            object.__setattr__(self, "vector", _readonly(np.reshape(self.vector, (self.group.dim,))))


def element(group: MatrixGroup, matrix: np.ndarray) -> GroupElement:
    return GroupElement(group, matrix)


def algebra(group: MatrixGroup, vector: np.ndarray) -> AlgebraElement:
    return AlgebraElement(group, vector)


def identity(group: MatrixGroup) -> GroupElement:
    return GroupElement(group, group.identity_matrix(), True)


def _same_group(a, b, what: str) -> None:
    if a.group is not b.group:
        raise GroupMismatchError(f"{what}: {a.group.name} vs {b.group.name}")


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product a*b.  No re-orthonormalization is applied."""
    _same_group(a, b, "compose")
    return GroupElement(a.group, a.matrix @ b.matrix, True)


def inverse(a: GroupElement) -> GroupElement:
    """Group inverse; exploits the rigid-transform block structure."""
    g = a.group
    if g is SO2 or g is SO3:
        # A transposed view of a read-only matrix is itself read-only.
        return GroupElement(g, a.matrix.T, True)
    if g is SE3:
        r = a.matrix[:3, :3]
        out = _EYE4.copy()
        out[:3, :3] = r.T
        out[:3, 3] = -r.T @ a.matrix[:3, 3]
        return GroupElement(g, out, True)
    return GroupElement(g, 2.0 * g.identity_matrix() - a.matrix, True)


def exp(xi: AlgebraElement) -> GroupElement:
    """Group exponential (closed form for each supported group)."""
    return GroupElement(xi.group, xi.group.exp_matrix(xi.vector), True)


def log(g: GroupElement) -> AlgebraElement:
    """Principal logarithm.  Raises CutLocusError near the cut locus."""
    return AlgebraElement(g.group, g.group.log_vector(g.matrix), True)


def cayley(xi: AlgebraElement) -> GroupElement:
    """Cayley transform (I - xi/2)^-1 (I + xi/2): a second-order map to the group."""
    return GroupElement(xi.group, xi.group.cayley_matrix(xi.vector), True)


def hat(xi: AlgebraElement) -> np.ndarray:
    return xi.group.hat(xi.vector)


def vee(group: MatrixGroup, matrix: np.ndarray) -> AlgebraElement:
    return AlgebraElement(group, group.vee(matrix), True)


def adjoint_matrix(g: GroupElement) -> np.ndarray:
    """The read-only matrix of Ad_g in algebra coordinates.

    The identity on SO(2) and R^n, R on SO(3), and [[R, 0], [hat(p) R, R]] on
    SE(3) in (omega, v) order.
    """
    return g.group.adjoint_matrix(g.matrix)


def adjoint(g: GroupElement, xi: AlgebraElement) -> AlgebraElement:
    """Adjoint action Ad_g(xi) = vee(g hat(xi) g^-1)."""
    _same_group(g, xi, "adjoint")
    return AlgebraElement(g.group, adjoint_matrix(g) @ xi.vector, True)


def bracket(xi: AlgebraElement, eta: AlgebraElement) -> AlgebraElement:
    """Lie bracket [xi, eta] in algebra coordinates."""
    _same_group(xi, eta, "bracket")
    g = xi.group
    m = g.hat(xi.vector) @ g.hat(eta.vector) - g.hat(eta.vector) @ g.hat(xi.vector)
    return AlgebraElement(g, g.vee(m), True)


def conj_invariant_norm(g: GroupElement) -> float:
    """Norm of the principal logarithm in algebra coordinates.

    Invariant under conjugation whenever the adjoint action is orthogonal
    in the chosen basis (SO(2), SO(3) and R^n; for SE(3) only conjugation
    by rotations preserves it, since no nondegenerate fully
    conjugation-invariant norm exists there).
    """
    return _norm(log(g).vector)


def random_algebra(group: MatrixGroup, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    return AlgebraElement(group, scale * rng.standard_normal(group.dim), True)


def random_element(group: MatrixGroup, rng: np.random.Generator, scale: float = 1.0) -> GroupElement:
    return exp(random_algebra(group, rng, scale))
