"""Projection-free convex optimization over atomic domains.

Sparse greedy updates with duality-gap certificates: each step calls a
linear minimization oracle instead of a projection, so iterates stay
convex combinations of a small number of domain atoms (sparse vectors,
rank-one matrices, two-support PSD atoms).
"""

from .core import (
    Atom,
    CoordinateAtom,
    IterateLedger,
    LmoResult,
    ObjectiveOracle,
    RunTrace,
    StepSchedule,
    StopRule,
    TraceRow,
    make_rng,
)
from .eigen import (
    SymmetricOperator,
    approx_largest_ev,
    approx_smallest_ev,
    dense_eig_oracle,
    spectral_range_bound,
)
from .objectives import least_squares, linear, squared_distance, squared_norm
from .solver import (
    CertifiedRun,
    RunResult,
    certified_iteration_count,
    curvature_from_hessian,
    fw_run,
    gap_certified_run,
    line_search_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "CertifiedRun",
    "CoordinateAtom",
    "IterateLedger",
    "LmoResult",
    "ObjectiveOracle",
    "RunResult",
    "RunTrace",
    "StepSchedule",
    "StopRule",
    "SymmetricOperator",
    "TraceRow",
    "approx_largest_ev",
    "approx_smallest_ev",
    "certified_iteration_count",
    "curvature_from_hessian",
    "dense_eig_oracle",
    "fw_run",
    "gap_certified_run",
    "least_squares",
    "line_search_alpha",
    "linear",
    "make_rng",
    "spectral_range_bound",
    "squared_distance",
    "squared_norm",
    "__version__",
]
