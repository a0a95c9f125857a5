"""Exception hierarchy for the toolkit.

Grouped by failure class so callers (and the command line front end) can
react to a whole category at once: bad input files, broken mesh topology,
and numeric degeneracies are distinct failure modes.
"""


class PnpSubdivError(Exception):
    """Base class for all toolkit errors."""


class MeshParseError(PnpSubdivError):
    """A mesh file could not be parsed; ``line`` holds the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingNormalsError(PnpSubdivError):
    """An operation that needs per-vertex normals got a mesh without them."""


class TopologyError(PnpSubdivError):
    """Base class for mesh connectivity problems."""


class NonManifoldError(TopologyError):
    """The face list does not describe an oriented 2-manifold."""


class OpenBoundaryError(TopologyError):
    """An edge has only one incident face; only closed meshes are supported."""


class MixedFaceArityError(TopologyError):
    """Faces must be all triangles or all quads."""


class ArityMismatchError(TopologyError):
    """The mesh face arity does not match the requested subdivision scheme."""


class NumericDegeneracyError(PnpSubdivError):
    """Base class for geometric configurations outside an operation's domain."""


class AntipodalNormalsError(NumericDegeneracyError):
    """Two normals are opposite; the averaging construction is undefined."""


class NotInCarrierError(NumericDegeneracyError):
    """A point-normal pair does not lie in the required carrier plane."""


class DegenerateCornerError(NumericDegeneracyError):
    """A mesh corner spans collinear edges and has no wedge normal."""


class VanishingNormalError(NumericDegeneracyError):
    """The angle-weighted wedge normals at a vertex cancel out."""


class DegenerateFaceError(NumericDegeneracyError):
    """A face has (near-)zero area."""


class ZeroAreaError(NumericDegeneracyError):
    """The cell area around a vertex vanishes; curvature is undefined."""


class StencilError(PnpSubdivError, ValueError):
    """Base class for invalid averaging stencils."""


class AffineWeightError(StencilError):
    """Stencil weights do not sum to one (or a partial sum is non-positive)."""
