"""Matrix-free hyper-differential sensitivity analysis (HDSA).

Sensitivity of the SOLUTION of a PDE-constrained optimization problem with
respect to auxiliary uncertain parameters, computed through KKT solves and a
weighted SVD of the resulting sensitivity operator: exact where assembling the
operator costs fewer solves, randomized otherwise.
"""

from .analysis import (
    HdsaReport,
    PerturbationCheck,
    SampleResult,
    global_analysis,
    perturbation_check,
    traditional_comparison,
)
from .indices import local_indices, set_indices
from .linalg import (
    LinalgError,
    SolverStats,
    SpdOperator,
    b_orthonormalize,
    dense_cholesky,
    dense_svd,
    dense_sym_eig,
)
from .operators import (
    KKT_TOL,
    KktOperator,
    ParamJacobianOperator,
    SensitivityOperator,
    SolveError,
)
from .optimizer import (
    OptimalPoint,
    OptimizerConfig,
    OptimizerError,
    check_sosc,
    solve_adjoint,
    solve_forward,
    solve_optimization,
)
from .problems import (
    EvalPoint,
    ProblemDefinition,
    ProblemError,
    SetPartition,
    WeightedSpaces,
    build_advdiff_inversion_1d,
    build_diffusion_control_1d,
    build_logistic_toy,
    check_derivatives,
)
from .randeig import (
    RandEigConfig,
    SingularTriple,
    alternative_formulation,
    apply_pencil_a,
    dense_oracle,
    randomized_geneig,
)
from .sampling import Distribution, InitialIterate, SamplingPlan, probe_vector

__version__ = "0.1.0"

__all__ = [
    "HdsaReport",
    "PerturbationCheck",
    "SampleResult",
    "global_analysis",
    "perturbation_check",
    "traditional_comparison",
    "local_indices",
    "set_indices",
    "LinalgError",
    "SolverStats",
    "SpdOperator",
    "b_orthonormalize",
    "dense_cholesky",
    "dense_svd",
    "dense_sym_eig",
    "KKT_TOL",
    "KktOperator",
    "ParamJacobianOperator",
    "SensitivityOperator",
    "SolveError",
    "OptimalPoint",
    "OptimizerConfig",
    "OptimizerError",
    "check_sosc",
    "solve_adjoint",
    "solve_forward",
    "solve_optimization",
    "EvalPoint",
    "ProblemDefinition",
    "ProblemError",
    "SetPartition",
    "WeightedSpaces",
    "build_advdiff_inversion_1d",
    "build_diffusion_control_1d",
    "build_logistic_toy",
    "check_derivatives",
    "RandEigConfig",
    "SingularTriple",
    "alternative_formulation",
    "apply_pencil_a",
    "dense_oracle",
    "randomized_geneig",
    "Distribution",
    "InitialIterate",
    "SamplingPlan",
    "probe_vector",
]
