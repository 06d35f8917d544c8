"""Hypothesis strategies shared by the tests: coordinates, group elements,
bundle points and pairs of points.

Each strategy is built once per argument tuple: building one costs as much
as drawing from it.  Every bound is the caller's, so each test keeps its own.
"""

from functools import cache

import numpy as np
from hypothesis import strategies as st

from dconn import lie_group as lg
from dconn.bundle import PairElement


@cache
def coords(n, bound):
    """Float arrays of n coordinates, each within [-bound, bound]."""
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


@cache
def elements(group, bound):
    """exp of algebra coordinates within bound."""
    return coords(group.dim, bound).map(lambda xi: lg.exp(group, xi))


@cache
def points(b, shape, fiber):
    """Points of the bundle b: shape coordinates within ``shape``, the fiber's
    algebra coordinates within ``fiber``."""
    return st.builds(b.point, coords(b.shape_dim, shape), elements(b.group, fiber))


@cache
def pairs(b, shape, fiber):
    """Pairs of two independent ``points(b, shape, fiber)``."""
    return st.builds(PairElement, points(b, shape, fiber), points(b, shape, fiber))
