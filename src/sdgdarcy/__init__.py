"""Staggered DG solver for Darcy flow in fractured porous media.

Polygonal primal meshes with fracture-aligned edges, staggered
pressure/flux spaces on the simplicial subdivision, a reduced-dimension
fracture unknown coupled through interface resistances, a residual
a posteriori error estimator, and Dorfler-marked adaptive refinement.
"""

__version__ = "0.1.0"

from .adaptivity import (
    ADAPTIVE,
    UNIFORM,
    AmrConfig,
    ConvergenceHistory,
    IterationRecord,
    amr_loop,
    dorfler_mark,
)
from .assembly import DiscreteSolution, LinearSystem, assemble_system
from .benchmarks import BENCHMARKS, get_benchmark
from .errors import (
    AllZeroIndicators,
    ConfigError,
    EmptyDomain,
    FractureNotAligned,
    GridTooLarge,
    IoError,
    MeshError,
    NoExactSolution,
    NonFinite,
    NotStarShaped,
    SingularK,
    SingularSystem,
    SolverError,
)
from .estimator import (
    ErrorReport,
    EstimatorBreakdown,
    compute_estimator,
    data_oscillation,
    true_error,
)
from .geometry import (
    BOUNDARY,
    DUAL,
    FRACTURE,
    INTERIOR,
    CycleTable,
    DomainSpec,
    Fracture,
    PolygonalMesh,
    RegularityReport,
    Subdivision,
    build_initial_mesh,
    check_regularity,
    refine,
)
from .io import (
    HISTORY_COLUMNS,
    dump_system,
    export_mesh_json,
    export_solution,
    read_history_csv,
    write_convergence_svg,
    write_history_csv,
)
from .problem import DIRICHLET, NEUMANN, BoundaryRule, ProblemSpec, constant, everywhere
from .solve import SolveReport, solve_system
from .spaces import SpaceConfig, build_S_h, build_V_h, build_W_h

__all__ = [
    "__version__",
    "ADAPTIVE",
    "UNIFORM",
    "AmrConfig",
    "ConvergenceHistory",
    "IterationRecord",
    "amr_loop",
    "dorfler_mark",
    "DiscreteSolution",
    "LinearSystem",
    "assemble_system",
    "BENCHMARKS",
    "get_benchmark",
    "AllZeroIndicators",
    "ConfigError",
    "EmptyDomain",
    "FractureNotAligned",
    "GridTooLarge",
    "IoError",
    "MeshError",
    "NoExactSolution",
    "NonFinite",
    "NotStarShaped",
    "SingularK",
    "SingularSystem",
    "SolverError",
    "ErrorReport",
    "EstimatorBreakdown",
    "compute_estimator",
    "data_oscillation",
    "true_error",
    "BOUNDARY",
    "DUAL",
    "FRACTURE",
    "INTERIOR",
    "CycleTable",
    "DomainSpec",
    "Fracture",
    "PolygonalMesh",
    "RegularityReport",
    "Subdivision",
    "build_initial_mesh",
    "check_regularity",
    "refine",
    "HISTORY_COLUMNS",
    "dump_system",
    "export_mesh_json",
    "export_solution",
    "read_history_csv",
    "write_convergence_svg",
    "write_history_csv",
    "DIRICHLET",
    "NEUMANN",
    "BoundaryRule",
    "ProblemSpec",
    "constant",
    "everywhere",
    "SolveReport",
    "solve_system",
    "SpaceConfig",
    "build_S_h",
    "build_V_h",
    "build_W_h",
]
