"""Matrix Lie groups used as structure groups.

Supported groups: SO(2), SO(3), SE(3) and the additive translation groups
R^n (represented as homogeneous matrices so every group shares one code
path).  Each group fixes a Lie-algebra basis through ``hat``/``vee``; all
algebra coordinates below refer to that basis.  Algebra elements are plain
float arrays of length ``group.dim``; the kernels return them read-only.

Every group operation has one matrix kernel, a method of ``MatrixGroup``
on bare arrays (``exp_matrix``, ``log_vector``, ``inverse_matrix``,
``cayley_matrix``, ``adjoint_matrix``; the product is ``@``), and all but
the adjoint have a batched twin over stacks (``exp_matrices``,
``cayley_matrices``, ``log_vectors``, ``inverse_matrices``).  The
module-level functions wrap the kernels for ``GroupElement``s; hot loops
elsewhere in the package call the kernels directly.  No group's Cayley map
solves a linear system.  Coefficients that cancel at small angles,
(1 - cos t)/t^2 and the t^2-order coefficient of SE(3)'s V^-1, are
evaluated in half angles, so exp and log keep roundoff accuracy there.

Each kernel is written once, batched: ``MatrixGroup``'s per-element
kernel is the one-row case of its twin.  Only SO(3) and SE(3) keep exp,
log and inverse also as closed forms on Python floats (one ``tolist`` in,
one array out), because Newton iterates and ``bundle.shift`` call them one
element at a time; Cayley has no float form.  Their batched twins are the
same closed forms: the entry formulas and the angle coefficients are each
written once and run on floats or on (n,) arrays of entries.  On arrays,
every sin, tan, acos and power is libm's, mapped over the rows in one
C-level loop.  On a float each series branch is a plain ``if`` that
computes only the branch it takes; on arrays it is a mask over safe values,
computed only when the rows take both branches, so every row equals the
float kernel's result bit for bit with no Python per row.

Conventions:
  * so(3) uses the standard hat map, so ``exp`` is the Rodrigues formula.
  * se(3) coordinates are ordered (omega, v): rotation first, then
    translation.  Elements are 4x4 homogeneous matrices.
  * Logarithms are principal: the rotation angle must stay strictly below
    pi, enforced with a 1e-6 safety margin (``CutLocusError`` otherwise).
    Short of the margin the SO(3)/SE(3) log stays exact: past _LOG_PIVOT
    it takes the angle from atan2 and the axis from the symmetric part.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import InitVar, dataclass
from itertools import repeat
from operator import mul
from types import SimpleNamespace

import numpy as np

from .errors import CutLocusError, GroupMismatchError

# Angle below which trig coefficient ratios switch to their Taylor series.
_SMALL_ANGLE = 1.0e-8
# Principal-log domain: rotation angle must be < pi - _CUT_MARGIN.
_CUT_MARGIN = 1.0e-6
# Angle below which the dexp^-1 coefficient switches to its Taylor series.  The
# closed form cancels terms about 12/t^2 times its size: 7.3e-15 of it at 0.5,
# where eight series terms are within rounding.
_DEXPINV_SERIES = 0.5
# Angle past which the SO(3) log takes its angle from atan2 and its axis from
# the symmetric part: acos(c) loses about 1e-16/d of the angle pi - d, and
# t/sin(t) turns that into about 1e-16/d^2 of the log.
_LOG_PIVOT = 2.0


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_EYE1 = _frozen(np.eye(1))


def _cross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a 2-D array, each rounded exactly as _norm rounds it."""
    # A stack of (1 x n)(n x 1) products takes numpy's vector-dot path, the one w.dot(w) takes.
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _stacked(entries, n: int, k: int) -> np.ndarray:
    """n k x k matrices from k*k row-major entries, each an (n,) array or a constant."""
    out = np.empty((n, k * k))
    for j, e in enumerate(entries):
        out[:, j] = e
    return out.reshape(n, k, k)


def _libm(f):
    """libm's f on each entry of an (n,) array, in one C-level loop."""
    return lambda x: np.fromiter(map(f, x.tolist()), float, len(x))


def _libm_pow(x: np.ndarray, y: float) -> np.ndarray:
    return np.fromiter(map(math.pow, x.tolist(), repeat(y)), float, len(x))


def _libm_atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), float, len(y))


def _float_branch(small, theta, series, closed, *args) -> tuple:
    """series(theta) if small else closed(theta): on a float only the branch taken runs."""
    return (series if small else closed)(theta, _FLOATS, *args)


def _row_branch(small, theta, series, closed, *args) -> tuple:
    """series(theta) on the rows where small, closed(theta) on the others.

    When every row takes one branch, only that branch runs.  Otherwise both
    run on every row, on safe values: the series at 0 where the closed form
    is taken, the closed form at 1 where the series is.
    """
    if not small.any():
        return closed(theta, _ROWS, *args)
    if small.all():
        return series(theta, _ROWS, *args)
    below = series(np.where(small, theta, 0.0), _ROWS, *args)
    above = closed(np.where(small, 1.0, theta), _ROWS, *args)
    return tuple(map(np.where, repeat(small), below, above))


# The arithmetic that the angle coefficients need beyond + - * /, on one float
# (_FLOATS) or on an (n,) array of them (_ROWS).  Both take every
# transcendental and power from libm: numpy's own sin, arccos, tan, arctan2
# and power differ from libm's in the last place on a share of inputs, and so
# would the batched kernels' rows from the float kernels.  ``branch`` takes a
# series or a closed form by a mask: a plain ``if`` on a float, and on rows
# the one side they all take, or both sides on safe values.  ``where`` picks
# between two values by a mask.
_FLOATS = SimpleNamespace(sin=math.sin, tan=math.tan, acos=math.acos, atan2=math.atan2,
                          pow=math.pow, sqrt=math.sqrt, copysign=math.copysign,
                          fmin=min, fmax=max, any=bool, branch=_float_branch,
                          where=lambda mask, x, y: x if mask else y)
_ROWS = SimpleNamespace(sin=_libm(math.sin), tan=_libm(math.tan), acos=_libm(math.acos),
                        atan2=_libm_atan2, pow=_libm_pow, sqrt=np.sqrt, copysign=np.copysign,
                        fmin=np.fmin, fmax=np.fmax, any=np.ndarray.any, branch=_row_branch,
                        where=np.where)


def _exp_series(s, m, se3: bool) -> tuple:
    # Second-order Taylor series below _SMALL_ANGLE.
    s2 = m.pow(s, 2.0)
    if not se3:
        return 1.0 - s2 / 6.0, 0.5 - s2 / 24.0
    return 1.0 - s2 / 6.0, 0.5 - s2 / 24.0, 1.0 / 6.0 - s2 / 120.0


def _exp_closed(t, m, se3: bool) -> tuple:
    half = 0.5 * t
    sin_t, sinc_half = m.sin(t), m.sin(half) / half
    if not se3:
        return sin_t / t, 0.5 * sinc_half * sinc_half
    return sin_t / t, 0.5 * sinc_half * sinc_half, (t - sin_t) / m.pow(t, 3.0)


def _exp_coefficients(theta, m=_FLOATS, se3: bool = False) -> tuple:
    """a = sin(t)/t and b = (1 - cos t)/t^2 of Rodrigues' formula at t = theta,
    and with ``se3`` c = (t - sin t)/t^3 of SE(3)'s V matrix.

    b is evaluated as (sin(t/2)/(t/2))^2 / 2, which keeps its digits where
    1 - cos t cancels.  theta is a float, or an (n,) array with m = _ROWS.
    """
    return m.branch(theta < _SMALL_ANGLE, theta, _exp_series, _exp_closed, se3)


def _c2_series(s, m) -> tuple:
    s2 = s * s
    return (1.0 / 12.0 + s2 * (1.0 / 720.0 + s2 * (1.0 / 30240.0 + s2 * (1.0 / 1209600.0 + s2 * (
        1.0 / 47900160.0 + s2 * (691.0 / 1307674368000.0 + s2 * (
            1.0 / 74724249600.0 + s2 * (3617.0 / 10670622842880000.0))))))),)


def _c2_closed(t, m) -> tuple:
    half = t / 2.0
    return ((1.0 - half / m.tan(half)) / m.pow(t, 2.0),)


def _dexpinv_c2(theta, m=_FLOATS):
    """c2(t) = (1 - (t/2) cot(t/2)) / t^2, the hat(w)^2 coefficient of dexp^-1.

    It is also the hat(w)^2 coefficient of SE(3)'s V^-1.  Below the switch it
    is the series sum over n >= 1 of |B_2n| t^(2n - 2) / (2n)!, with B_2n the
    Bernoulli numbers.  theta is a float, or an (n,) array with m = _ROWS.
    """
    return m.branch(theta < _DEXPINV_SERIES, theta, _c2_series, _c2_closed)[0]


def _rotation(x: float, y: float, z: float, a: float, b: float) -> tuple[float, ...]:
    """I + a K + b K^2 row by row, for K = hat(x, y, z) and K^2 = w w^T - |w|^2 I."""
    bx, by, bz = b * x, b * y, b * z
    bxy, bxz, byz = bx * y, bx * z, by * z
    ax, ay, az = a * x, a * y, a * z
    return (1.0 - (by * y + bz * z), bxy - az, bxz + ay,
            bxy + az, 1.0 - (bx * x + bz * z), byz - ax,
            bxz - ay, byz + ax, 1.0 - (bx * x + by * y))


def _se3_entries(x, y, z, v, a, b, p, q) -> tuple:
    """The row-major entries of the SE(3) matrix with rotation I + a K + b K^2
    and translation v + p K v + q K^2 v, for K = hat(x, y, z).

    The arguments are floats, or (n,) arrays for n matrices at once.
    """
    w = (x, y, z)
    k0, k1, k2 = k = _cross(w, v)
    kk0, kk1, kk2 = _cross(w, k)
    v0, v1, v2 = v
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = _rotation(x, y, z, a, b)
    return (r00, r01, r02, v0 + p * k0 + q * kk0,
            r10, r11, r12, v1 + p * k1 + q * kk1,
            r20, r21, r22, v2 + p * k2 + q * kk2,
            0.0, 0.0, 0.0, 1.0)


def _cayley_scale(x, y, z):
    """d = 1/(1 + |w|^2/4) of the SO(3) and SE(3) Cayley maps, for the (n,)
    arrays w = (x, y, z) of n maps."""
    return 1.0 / (1.0 + 0.25 * (x * x + y * y + z * z))


def _sinc_inverse_series(s, m) -> tuple:
    # sin(t)/t inverse to second order at small angles.
    return (1.0 + m.pow(s, 2.0) / 6.0,)


def _sinc_inverse_closed(t, m) -> tuple:
    return (t / m.sin(t),)


def _log_angle(c, m=_FLOATS) -> tuple:
    """The angle t of a rotation with (tr R - 1)/2 = c, and t/sin(t).

    c is a float, or an (n,) array with m = _ROWS.  Raises CutLocusError
    within _CUT_MARGIN of pi, for the first such angle; a NaN c clamps to -1,
    a half-turn.  Past _LOG_PIVOT the angle is only the branch test of
    _so3_log, which takes a better one.
    """
    theta = m.acos(m.fmin(1.0, m.fmax(-1.0, c)))
    past = theta >= math.pi - _CUT_MARGIN
    if m.any(past):
        first = np.ravel(theta)[np.argmax(past)]
        raise CutLocusError(f"SO3: rotation angle {first:.8f} within 1e-6 of pi")
    return theta, m.branch(theta < _SMALL_ANGLE, theta, _sinc_inverse_series,
                           _sinc_inverse_closed)[0]


def _near_pi_log(r, c, s, m) -> tuple:
    """(omega, t) of a rotation past _LOG_PIVOT, from its rows r, its c = (tr R - 1)/2
    and its skew part s = vee(R - R^T)/2 = sin(t) n.

    t = atan2(|s|, c) keeps the digits that acos(c) loses near pi.  The axis
    comes from the symmetric part, n n^T = E / (1 - c) with E = (R + R^T)/2 - c I:
    the column k of E's largest diagonal entry is (1 - c) n_k n, signed by s_k
    (Shepperd's pivoting, in axis form).
    """
    t = m.atan2(m.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2]), c)
    e00, e11, e22 = r[0][0] - c, r[1][1] - c, r[2][2] - c
    e01, e02, e12 = (r[0][1] + r[1][0]) / 2.0, (r[0][2] + r[2][0]) / 2.0, (r[1][2] + r[2][1]) / 2.0
    # The column, its diagonal entry and s_k, for k = 0, then 1 and 2 where
    # theirs is larger (by comparisons alone, which treat NaN alike on floats and rows).
    pick = (e00, e01, e02, e00, s[0])
    for column in ((e01, e11, e12, e11, s[1]), (e02, e12, e22, e22, s[2])):
        larger = column[3] > pick[3]
        pick = tuple(m.where(larger, a, b) for a, b in zip(column, pick))
    n0, n1, n2, diagonal, sign = pick
    scale = m.copysign(t, sign) / m.sqrt(diagonal * (1.0 - c))
    return (n0 * scale, n1 * scale, n2 * scale), t


def _so3_log(r, m=_FLOATS) -> tuple[tuple, float]:
    """Principal log and rotation angle of the rotation block of a matrix's rows r.

    r holds floats; with m = _ROWS it holds (n,) arrays, and the result is n
    logs and angles.  Past _LOG_PIVOT both come from _near_pi_log, computed
    on rows only when some row is past it.
    """
    c = (r[0][0] + r[1][1] + r[2][2] - 1.0) / 2.0
    theta, f = _log_angle(c, m)
    # The skew part is sin(theta) times the axis.
    s = (0.5 * (r[2][1] - r[1][2]), 0.5 * (r[0][2] - r[2][0]), 0.5 * (r[1][0] - r[0][1]))
    w = (s[0] * f, s[1] * f, s[2] * f)
    past = theta > _LOG_PIVOT
    if m.any(past):
        # Rows short of the pivot take the branch at c = -1, where it is finite.
        near, t = _near_pi_log(r, m.where(past, c, -1.0), s, m)
        w = tuple(m.where(past, a, b) for a, b in zip(near, w))
        theta = m.where(past, t, theta)
    return w, theta


def _se3_log_coordinates(w, p, c2) -> tuple:
    """(omega, V^-1 p) with V^-1 p = p - K p / 2 + c2 K^2 p, for K = hat(omega)."""
    p0, p1, p2 = p
    k0, k1, k2 = k = _cross(w, p)
    kk0, kk1, kk2 = _cross(w, k)
    return (*w, p0 - 0.5 * k0 + c2 * kk0, p1 - 0.5 * k1 + c2 * kk1, p2 - 0.5 * k2 + c2 * kk2)


def _se3_inverse_entries(r) -> tuple:
    """The row-major entries of (R, p)^-1 = (R^T, -R^T p), from a matrix's rows r."""
    (r00, r01, r02, p0), (r10, r11, r12, p1), (r20, r21, r22, p2) = r[0], r[1], r[2]
    return (r00, r10, r20, -(r00 * p0 + r10 * p1 + r20 * p2),
            r01, r11, r21, -(r01 * p0 + r11 * p1 + r21 * p2),
            r02, r12, r22, -(r02 * p0 + r12 * p1 + r22 * p2),
            0.0, 0.0, 0.0, 1.0)


def _columns(matrices: np.ndarray) -> np.ndarray:
    """A stack of matrices as one matrix of (n,) arrays: entry [i][j] holds every M[i, j]."""
    return np.moveaxis(matrices, 0, -1)


class MatrixGroup:
    """A matrix Lie group with a fixed algebra basis and closed-form kernels.

    A group defines the batched kernels; the per-element ``exp_matrix``,
    ``log_vector``, ``inverse_matrix`` and ``cayley_matrix`` default to
    their one-row case.  SO(3) and SE(3) override exp, log and inverse with
    float closed forms whose results the batched rows equal bit for bit.
    """

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
        """The group exponential of algebra coordinates (ValueError on a wrong length)."""
        return self.exp_matrices(np.asarray(vector, dtype=float).reshape(1, self.dim))[0]

    def log_vector(self, matrix: np.ndarray) -> np.ndarray:
        """The principal log in algebra coordinates (CutLocusError past the cut)."""
        return self.log_vectors(matrix[None])[0]

    def inverse_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """The inverse of a group matrix, from the group's block structure."""
        return self.inverse_matrices(matrix[None])[0]

    def adjoint_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Ad_g in algebra coordinates, for the element g with this matrix."""
        raise NotImplementedError

    def cayley_matrix(self, vector: np.ndarray) -> np.ndarray:
        """(I - xi/2)^-1 (I + xi/2) for xi = hat(vector), in closed form."""
        return self.cayley_matrices(np.asarray(vector, dtype=float).reshape(1, self.dim))[0]

    def exp_matrices(self, vectors: np.ndarray) -> np.ndarray:
        """exp_matrix of each row of an (n, dim) array, as an (n, k, k) stack."""
        raise NotImplementedError

    def cayley_matrices(self, vectors: np.ndarray) -> np.ndarray:
        """cayley_matrix of each row of an (n, dim) array, as an (n, k, k) stack."""
        raise NotImplementedError

    def log_vectors(self, matrices: np.ndarray) -> np.ndarray:
        """log_vector of each matrix of an (n, k, k) stack, as an (n, dim) array.

        Raises log_vector's CutLocusError for the first matrix past the cut.
        """
        raise NotImplementedError

    def inverse_matrices(self, matrices: np.ndarray) -> np.ndarray:
        """inverse_matrix of each matrix of an (n, k, k) stack."""
        raise NotImplementedError

    def identity_matrix(self) -> np.ndarray:
        """The identity matrix (read-only, shared)."""
        return self._eye

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
    err = abs(r.T @ r - np.eye(len(r))).max()
    if err > tol:
        raise ValueError(f"{name}: rotation block not orthonormal (error {err:.2e})")
    # Closed-form 2x2 or 3x3 determinant: a near-orthonormal block's is near +-1,
    # so its sign is LAPACK's.
    rows = r.tolist()
    if len(rows) == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
    else:
        a, b, c = rows
        det = sum(map(mul, a, _cross(b, c)))
    if det < 0.0:
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

    def exp_matrices(self, vectors):
        t = np.asarray(vectors, dtype=float).reshape(-1)
        c, s = np.cos(t), np.sin(t)
        return _stacked((c, -s, s, c), len(t), 2)

    def log_vectors(self, matrices):
        t = np.arctan2(matrices[:, 1, 0], matrices[:, 0, 0])
        inside = np.abs(t) < np.pi - _CUT_MARGIN  # false for a NaN angle
        if not inside.all():
            raise CutLocusError(
                f"SO2: rotation angle {t[np.argmin(inside)]:.8f} within 1e-6 of pi")
        return t[:, None]

    def inverse_matrices(self, matrices):
        return np.swapaxes(matrices, 1, 2)

    def adjoint_matrix(self, matrix):
        return _EYE1

    def cayley_matrices(self, vectors):
        # The rotation by 2 atan(t/2): cos (1 - t^2/4)/(1 + t^2/4), sin t/(1 + t^2/4).
        t = np.asarray(vectors, dtype=float).reshape(-1)
        q = 0.25 * t * t
        d = 1.0 / (1.0 + q)
        c, s = (1.0 - q) * d, t * d
        return _stacked((c, -s, s, c), len(t), 2)

    def _check_structure(self, m, tol):
        _check_rotation(m, tol, self.name)


def _so3_hat(x: float, y: float, z: float) -> np.ndarray:
    return np.array((0.0, -z, y, z, 0.0, -x, -y, x, 0.0)).reshape(3, 3)


def _norm(w: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, rounded exactly as np.linalg.norm rounds it."""
    return math.sqrt(w.dot(w))


class _SO3(MatrixGroup):
    name = "SO3"
    dim = 3
    matrix_size = 3

    def hat(self, vector):
        return _so3_hat(*np.asarray(vector, dtype=float).reshape(3).tolist())

    def vee(self, matrix):
        return np.array([matrix[2, 1], matrix[0, 2], matrix[1, 0]])

    def exp_matrix(self, vector):
        # Rodrigues: I + a K + b K^2.
        x, y, z = np.asarray(vector, dtype=float).reshape(3).tolist()
        a, b = _exp_coefficients(math.sqrt(x * x + y * y + z * z))
        return np.array(_rotation(x, y, z, a, b)).reshape(3, 3)

    def log_vector(self, matrix):
        w, _ = _so3_log(matrix.tolist())
        return np.array(w)

    def inverse_matrix(self, matrix):
        return matrix.T

    def exp_matrices(self, vectors):
        v = np.asarray(vectors, dtype=float).reshape(-1, 3)
        x, y, z = v.T
        a, b = _exp_coefficients(np.sqrt(x * x + y * y + z * z), _ROWS)
        return _stacked(_rotation(x, y, z, a, b), len(v), 3)

    def log_vectors(self, matrices):
        w, _ = _so3_log(_columns(matrices), _ROWS)
        return np.stack(w, axis=1)

    def inverse_matrices(self, matrices):
        return np.swapaxes(matrices, 1, 2)

    def adjoint_matrix(self, matrix):
        return matrix

    def cayley_matrices(self, vectors):
        # I + d (K + K^2/2) with d = 1/(1 + |w|^2/4).
        v = np.asarray(vectors, dtype=float).reshape(-1, 3)
        x, y, z = v.T
        d = _cayley_scale(x, y, z)
        return _stacked(_rotation(x, y, z, d, 0.5 * d), len(v), 3)

    def _check_structure(self, m, tol):
        _check_rotation(m, tol, self.name)


class _SE3(MatrixGroup):
    name = "SE3"
    dim = 6
    matrix_size = 4

    def hat(self, vector):
        x = np.asarray(vector, dtype=float).reshape(6).tolist()
        out = np.zeros((4, 4))
        out[:3, :3] = _so3_hat(*x[:3])
        out[:3, 3] = x[3:]
        return out

    def vee(self, matrix):
        return np.array(
            [matrix[2, 1], matrix[0, 2], matrix[1, 0], matrix[0, 3], matrix[1, 3], matrix[2, 3]]
        )

    def exp_matrix(self, vector):
        # Rotation by Rodrigues; translation V v = v + b K v + c K^2 v with
        # c = (t - sin t)/t^3.
        x, y, z, *v = np.asarray(vector, dtype=float).reshape(6).tolist()
        a, b, c = _exp_coefficients(math.sqrt(x * x + y * y + z * z), se3=True)
        return np.array(_se3_entries(x, y, z, v, a, b, b, c)).reshape(4, 4)

    def log_vector(self, matrix):
        r = matrix.tolist()
        w, theta = _so3_log(r)
        return np.array(_se3_log_coordinates(w, (r[0][3], r[1][3], r[2][3]),
                                             _dexpinv_c2(theta)))

    def inverse_matrix(self, matrix):
        return np.array(_se3_inverse_entries(matrix.tolist())).reshape(4, 4)

    def exp_matrices(self, vectors):
        v = np.asarray(vectors, dtype=float).reshape(-1, 6)
        x, y, z, *u = v.T
        a, b, c = _exp_coefficients(np.sqrt(x * x + y * y + z * z), _ROWS, True)
        return _stacked(_se3_entries(x, y, z, u, a, b, b, c), len(v), 4)

    def log_vectors(self, matrices):
        r = _columns(matrices)
        w, theta = _so3_log(r, _ROWS)
        c2 = _dexpinv_c2(theta, _ROWS)
        return np.stack(_se3_log_coordinates(w, (r[0][3], r[1][3], r[2][3]), c2), axis=1)

    def inverse_matrices(self, matrices):
        return _stacked(_se3_inverse_entries(_columns(matrices)), len(matrices), 4)

    def adjoint_matrix(self, matrix):
        # Ad_g (omega, v) = (R omega, p x R omega + R v); column j of hat(p) R
        # is p x (column j of R).
        (r00, r01, r02, p0), (r10, r11, r12, p1), (r20, r21, r22, p2), _ = matrix.tolist()
        p = (p0, p1, p2)
        (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = (
            _cross(p, (r00, r10, r20)), _cross(p, (r01, r11, r21)), _cross(p, (r02, r12, r22)))
        return _frozen(np.array([
            r00, r01, r02, 0.0, 0.0, 0.0,
            r10, r11, r12, 0.0, 0.0, 0.0,
            r20, r21, r22, 0.0, 0.0, 0.0,
            m00, m01, m02, r00, r01, r02,
            m10, m11, m12, r10, r11, r12,
            m20, m21, m22, r20, r21, r22,
        ]).reshape(6, 6))

    def cayley_matrices(self, vectors):
        # The SO(3) Cayley rotation; translation (I - K/2)^-1 v = v + d (K v/2 + K^2 v/4).
        v = np.asarray(vectors, dtype=float).reshape(-1, 6)
        x, y, z, *u = v.T
        d = _cayley_scale(x, y, z)
        return _stacked(_se3_entries(x, y, z, u, d, 0.5 * d, 0.5 * d, 0.25 * d), len(v), 4)

    def _check_structure(self, m, tol):
        _check_rotation(m[:3, :3], tol, self.name)
        if abs(m[3] - self._eye[3]).max() > tol:
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

    def exp_matrices(self, vectors):
        v = np.asarray(vectors, dtype=float).reshape(-1, self.dim)
        hats = np.zeros((len(v), self.matrix_size, self.matrix_size))
        hats[:, :-1, -1] = v
        return self._eye + hats

    def log_vectors(self, matrices):
        return np.array(matrices[:, :-1, -1])

    def inverse_matrices(self, matrices):
        return 2.0 * self._eye - matrices

    def adjoint_matrix(self, matrix):
        return self._ad

    def cayley_matrices(self, vectors):
        return self.exp_matrices(vectors)

    def _check_structure(self, m, tol):
        n = self.dim
        err = abs(m[:n, :n] - self._eye[:n, :n]).max()
        bottom = abs(m[n] - self._eye[n]).max()
        if max(err, bottom) > tol:
            raise ValueError(f"{self.name}: not a homogeneous translation matrix")


SO2 = _SO2()
SO3 = _SO3()
SE3 = _SE3()

# Weak, so an R^n nothing holds any more frees its dense (n + 1) x (n + 1) matrices.
_TRANSLATION_CACHE: weakref.WeakValueDictionary[int, _Translation] = weakref.WeakValueDictionary()


def translation_group(n: int) -> MatrixGroup:
    """The additive group R^n (one live instance per n, so instances compare by identity)."""
    group = _TRANSLATION_CACHE.get(n)
    if group is None:
        group = _TRANSLATION_CACHE[n] = _Translation(n)
    return group


_NAMED = {"SO2": SO2, "SO3": SO3, "SE3": SE3}
# The largest n a Tn tag may name: R^n is built as dense (n + 1) x (n + 1) matrices.
MAX_TRANSLATION_DIM = 1000
# n >= 1 in ASCII digits ([0-9], unlike str.isdigit, takes no other script's digits).
_TRANSLATION_TAG = re.compile(r"T0*([1-9][0-9]*)")


def group_by_name(name: str) -> MatrixGroup:
    """Look up a group by tag: SO2, SO3, SE3, or Tn for R^n, 1 <= n <= MAX_TRANSLATION_DIM.

    n is compared with the cap on its digits, before int() reads them.  A
    bad tag raises ValueError with a message that says what the tag must be,
    phrased to follow the name of the field that held it.
    """
    if not isinstance(name, str):
        raise ValueError(f"must be a group tag string, got {name!r}")
    if name in _NAMED:
        return _NAMED[name]
    match = _TRANSLATION_TAG.fullmatch(name)
    if match is None:
        raise ValueError(f"must name SO2, SO3, SE3 or Tn with n >= 1, got {name!r}")
    digits = match[1]
    if len(digits) > len(str(MAX_TRANSLATION_DIM)) or int(digits) > MAX_TRANSLATION_DIM:
        raise ValueError(f"must be at most T{MAX_TRANSLATION_DIM}, got {name!r}")
    return translation_group(int(digits))


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A group element: an immutable square matrix plus its group tag.

    The matrix is copied into a read-only array.  The package's own code
    passes ``_owned=True`` for a float array it has just computed and shares
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


def element(group: MatrixGroup, matrix: np.ndarray) -> GroupElement:
    return GroupElement(group, matrix)


def identity(group: MatrixGroup) -> GroupElement:
    return GroupElement(group, group.identity_matrix(), True)


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product a*b.  No re-orthonormalization is applied."""
    if a.group is not b.group:
        raise GroupMismatchError(f"compose: {a.group.name} vs {b.group.name}")
    return GroupElement(a.group, a.matrix @ b.matrix, True)


def inverse(a: GroupElement) -> GroupElement:
    """Group inverse, from the group's block structure (``inverse_matrix``)."""
    return GroupElement(a.group, a.group.inverse_matrix(a.matrix), True)


def exp(group: MatrixGroup, xi) -> GroupElement:
    """Group exponential of the algebra coordinates xi (closed form per group)."""
    return GroupElement(group, group.exp_matrix(xi), True)


def log(g: GroupElement) -> np.ndarray:
    """Principal logarithm as read-only algebra coordinates.

    Raises CutLocusError near the cut locus.
    """
    return _frozen(g.group.log_vector(g.matrix))


def cayley(group: MatrixGroup, xi) -> GroupElement:
    """Cayley transform (I - xi/2)^-1 (I + xi/2): a second-order map to the group."""
    return GroupElement(group, group.cayley_matrix(xi), True)


def adjoint_matrix(g: GroupElement) -> np.ndarray:
    """The read-only matrix of Ad_g in algebra coordinates.

    The identity on SO(2) and R^n, R on SO(3), and [[R, 0], [hat(p) R, R]] on
    SE(3) in (omega, v) order.
    """
    return g.group.adjoint_matrix(g.matrix)


def adjoint(g: GroupElement, xi) -> np.ndarray:
    """Adjoint action Ad_g(xi) = vee(g hat(xi) g^-1), as read-only coordinates."""
    return _frozen(adjoint_matrix(g) @ xi)


def bracket(group: MatrixGroup, xi, eta) -> np.ndarray:
    """Lie bracket [xi, eta] in algebra coordinates, read-only."""
    a, b = group.hat(xi), group.hat(eta)
    return _frozen(group.vee(a @ b - b @ a))


def conj_invariant_norm(g: GroupElement) -> float:
    """Norm of the principal logarithm in algebra coordinates.

    Invariant under conjugation whenever the adjoint action is orthogonal
    in the chosen basis (SO(2), SO(3) and R^n; for SE(3) only conjugation
    by rotations preserves it, since no nondegenerate fully
    conjugation-invariant norm exists there).
    """
    return _norm(log(g))


def random_algebra(group: MatrixGroup, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return _frozen(scale * rng.standard_normal(group.dim))


def random_element(group: MatrixGroup, rng: np.random.Generator, scale: float = 1.0) -> GroupElement:
    return exp(group, random_algebra(group, rng, scale))
