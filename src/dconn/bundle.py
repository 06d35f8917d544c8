"""Trivialized principal bundles Q = S x G and their pair elements.

The shape space S is an open chart of R^d; the structure group G acts
freely on the left fiber factor: act(h, (x, g)) = (x, h g).  Pairs of
bundle points are the discrete analogue of tangent vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lie_group as lg
from .errors import BasepointMismatchError, GroupMismatchError, NotVerticalError
from .lie_group import GroupElement, MatrixGroup

# Chart distance below which two points count as the same base point.
BASE_TOL = 1.0e-10


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ShapePoint:
    """A point of the shape space, as chart coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _readonly(np.atleast_1d(self.coords)))


def shape_point(*coords: float) -> ShapePoint:
    return ShapePoint(np.array(coords, dtype=float))


def chart_distance(x0: ShapePoint, x1: ShapePoint) -> float:
    return float(np.linalg.norm(x1.coords - x0.coords))


@dataclass(frozen=True, eq=False)
class BundlePoint:
    """A point (x, g) of the trivialized bundle."""

    shape: ShapePoint
    fiber: GroupElement


@dataclass(frozen=True, eq=False)
class PairElement:
    """An ordered pair of bundle points (q0, q1)."""

    first: BundlePoint
    second: BundlePoint


@dataclass(frozen=True)
class Bundle:
    """A trivialized principal bundle: shape dimension plus structure group."""

    group: MatrixGroup
    shape_dim: int

    def __post_init__(self):
        if self.shape_dim < 0:
            raise ValueError(f"shape_dim must be non-negative, got {self.shape_dim}")

    def point(self, coords, fiber) -> BundlePoint:
        x = ShapePoint(np.asarray(coords, dtype=float).reshape(self.shape_dim))
        if isinstance(fiber, GroupElement):
            if fiber.group is not self.group:
                raise GroupMismatchError(
                    f"fiber group {fiber.group.name} != bundle group {self.group.name}"
                )
            g = fiber
        else:
            g = GroupElement(self.group, fiber)
        return BundlePoint(x, g)

    def random_point(self, rng: np.random.Generator, shape_scale: float = 1.0,
                     fiber_scale: float = 1.0) -> BundlePoint:
        coords = shape_scale * rng.standard_normal(self.shape_dim)
        return self.point(coords, lg.random_element(self.group, rng, fiber_scale))


def project(q: BundlePoint) -> ShapePoint:
    """Bundle projection pi(x, g) = x."""
    return q.shape


def act(h: GroupElement, q: BundlePoint) -> BundlePoint:
    """Left action of the structure group on the fiber factor."""
    return BundlePoint(q.shape, lg.compose(h, q.fiber))


def act_pair(h: GroupElement, p: PairElement) -> PairElement:
    """Diagonal action of G on pairs."""
    return PairElement(act(h, p.first), act(h, p.second))


def discrete_generator(q: BundlePoint, g: GroupElement) -> PairElement:
    """The vertical pair i_q(g) = (q, g q)."""
    return PairElement(q, act(g, q))


def points_match(a: BundlePoint, b: BundlePoint, tol: float = BASE_TOL) -> bool:
    if a.fiber.group is not b.fiber.group:
        return False
    if chart_distance(a.shape, b.shape) > tol:
        return False
    return float(np.max(np.abs(a.fiber.matrix - b.fiber.matrix))) <= tol


def vertical_compose(v: PairElement, p: PairElement) -> PairElement:
    """Compose a vertical pair v = i_{q0}(g) with p = (q0, q1), giving (q0, g q1).

    The group element is recovered from v as g = g1' g0'^-1, where g0', g1'
    are the fibers of v.  Raises NotVerticalError if v is not vertical and
    BasepointMismatchError if v is not based at p.first.
    """
    if chart_distance(v.first.shape, v.second.shape) > BASE_TOL:
        raise NotVerticalError(
            f"pair spans distinct base points (chart distance "
            f"{chart_distance(v.first.shape, v.second.shape):.2e})"
        )
    if not points_match(v.first, p.first):
        raise BasepointMismatchError("vertical pair is not based at p.first")
    g = lg.compose(v.second.fiber, lg.inverse(v.first.fiber))
    return PairElement(p.first, act(g, p.second))
