"""Exception types raised across the package, and the checks of run options
that raise `ConfigError`."""

import numbers


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


def is_real(value) -> bool:
    """A real number, numpy's included, that is not a bool."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def check_integer(name: str, value) -> None:
    """Raise ConfigError unless `value` is an integer; a bool is none."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name}={value!r} is not an integer")


def check_fraction(name: str, value) -> None:
    """Raise ConfigError unless `value` is a real number in (0, 1]."""
    if not is_real(value) or not 0.0 < value <= 1.0:
        raise ConfigError(f"{name}={value!r} is not a real number in (0, 1]")
