"""Matrix-free hyper-differential sensitivity analysis (HDSA).

Sensitivity of the SOLUTION of a PDE-constrained optimization problem with
respect to auxiliary uncertain parameters, computed through KKT solves and a
weighted SVD of the resulting sensitivity operator: exact where assembling the
operator costs fewer solves, randomized otherwise.
"""

from .indices import local_indices, set_indices
from .linalg import SpdOperator
from .operators import KKT_TOL, KktOperator, SensitivityOperator, SolveError
from .optimizer import OptimalPoint, OptimizerConfig, OptimizerError, solve_optimization
from .problems import ProblemDefinition, build_diffusion_control_1d, check_derivatives
from .randeig import (
    RandEigConfig,
    Triples,
    alternative_formulation,
    dense_oracle,
    randomized_geneig,
)
from .sampling import Distribution

__version__ = "0.1.0"

__all__ = [
    "local_indices",
    "set_indices",
    "SpdOperator",
    "KKT_TOL",
    "KktOperator",
    "SensitivityOperator",
    "SolveError",
    "OptimalPoint",
    "OptimizerConfig",
    "OptimizerError",
    "solve_optimization",
    "ProblemDefinition",
    "build_diffusion_control_1d",
    "check_derivatives",
    "RandEigConfig",
    "Triples",
    "alternative_formulation",
    "dense_oracle",
    "randomized_geneig",
    "Distribution",
]
