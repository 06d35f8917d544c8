"""Exception taxonomy for the dconn package.

Every domain or validation failure raises a subclass of ``DconnError`` so
callers (and the CLI) can distinguish bad inputs from programming errors.
"""

from __future__ import annotations


class DconnError(Exception):
    """Base class for all dconn domain errors."""


class GroupMismatchError(DconnError):
    """Operands belong to different matrix groups."""


class CutLocusError(DconnError):
    """Principal logarithm undefined: rotation angle at or beyond pi."""


class NotVerticalError(DconnError):
    """Pair expected to be vertical (equal base points) is not."""


class BasepointMismatchError(DconnError):
    """Two objects that must share a base point do not."""


class OutOfDomainError(DconnError):
    """A shape pair's distance is not finite or exceeds connection.VALIDITY_RADIUS (0.5)."""


class ShapeMismatchError(DconnError):
    """Composition requires matching shape points and they differ."""


class LengthMismatchError(DconnError):
    """A chain or list has the wrong number of entries."""


class SolverDivergedError(DconnError):
    """Newton iteration failed to reach the residual tolerance."""


class NonDegenerateError(DconnError):
    """Momentum-map Jacobian is singular; no well-defined solution nearby."""


class DegenerateFitError(DconnError):
    """Order-estimation errors sit at the floating-point floor; no slope fits."""


class NotAFacetError(DconnError):
    """Given face is not a facet of the given simplex."""


class BoundaryFaceError(DconnError):
    """Face lies on the boundary; it has no second coface."""


class BoundaryHingeError(DconnError):
    """Hinge lies on the boundary; its dual loop does not close."""


class NotAdjacentError(DconnError):
    """Consecutive simplices in a path do not share a facet."""


class NotClosedError(DconnError):
    """Simplex path does not start and end at the same simplex."""


class MeshFormatError(DconnError):
    """Mesh file is malformed or internally inconsistent."""
