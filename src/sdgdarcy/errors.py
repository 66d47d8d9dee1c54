"""Exception types raised across the package."""


class MeshError(Exception):
    """Base class for mesh construction and refinement failures."""


class EmptyDomain(MeshError):
    """Domain outline produced no cells."""


class FractureNotAligned(MeshError):
    """A fracture segment does not lie on grid lines of the initial mesh."""


class NotStarShaped(MeshError):
    """A polygon is not star-shaped with respect to its centroid."""


class SingularK(ValueError):
    """Permeability tensor is not symmetric positive definite."""


class SolverError(Exception):
    """Base class for linear solver failures."""


class SingularSystem(SolverError):
    """The assembled system matrix is singular."""


class NonFinite(SolverError):
    """NaN or Inf encountered in the system or the solution."""


class NoExactSolution(ValueError):
    """True-error computation requested without an exact solution."""


class AllZeroIndicators(ValueError):
    """Dorfler marking received indicators that sum to zero."""


class ConfigError(ValueError):
    """Run configuration is malformed; message names the offending key."""


class GridTooLarge(MeshError, ConfigError):
    """More initial cells than `build_initial_mesh` takes; `sdg run` exits 2."""


class IoError(Exception):
    """An artifact file could not be written or parsed."""
