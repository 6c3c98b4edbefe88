"""Sampled global sensitivity analysis and the first-order diagnostics.

Runs the full pipeline per parameter sample (optimize, weighted SVD, indices),
aggregates Monte Carlo statistics across samples, and provides the
perturbation-ratio and fixed-z comparison diagnostics.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .indices import local_indices, set_indices
from .operators import SensitivityOperator
from .optimizer import (
    COMPUTE_ERRORS,
    OptimalPoint,
    OptimizerConfig,
    solve_forward,
    solve_optimization,
)
from .problems.base import EvalPoint, ProblemDefinition
from .randeig import (
    GenEigDiagnostics,
    RandEigConfig,
    Triples,
    exact_triples,
    randomized_geneig,
    svd_path,
)
from .sampling import SamplingPlan


class AllSamplesFailedError(RuntimeError):
    """A sweep in which every sample failed with a numerical error."""


@dataclass
class SampleResult:
    sample_index: int
    theta: np.ndarray
    optimal: OptimalPoint
    triples: Triples
    local: np.ndarray
    sets: dict[str, float]
    diagnostics: GenEigDiagnostics
    svd: str  # "exact" | "randomized", the path svd_path chose
    # the sample's KKT work, read from its operator after the set indices
    kkt_solves: int  # KktOperator.solve calls
    kkt_rhs: int  # right-hand-side columns of every elimination pass, full or half
    kkt_backward_error: float  # worst of the operator's KKT solves

    @property
    def spectral_decay(self) -> float:
        s = self.triples.sigma
        return float(s[-1] / s[0]) if s.size and s[0] > 0 else 0.0


@dataclass
class SampleFailure:
    sample_index: int
    message: str


@dataclass
class HdsaReport:
    samples: list[SampleResult]
    failures: list[SampleFailure]
    cfg: RandEigConfig

    @property
    def n_requested(self) -> int:
        return self.cfg.n_samples

    def local_mean(self) -> np.ndarray:
        return np.mean([s.local for s in self.samples], axis=0)

    def local_std(self) -> np.ndarray:
        return np.std([s.local for s in self.samples], axis=0, ddof=0)

    def set_mean(self) -> dict[str, float]:
        names = self.samples[0].sets.keys()
        return {
            n: float(np.mean([s.sets[n] for s in self.samples])) for n in names
        }

    def set_std(self) -> dict[str, float]:
        names = self.samples[0].sets.keys()
        return {
            n: float(np.std([s.sets[n] for s in self.samples], ddof=0))
            for n in names
        }


def analyze_sample(
    problem: ProblemDefinition,
    plan: SamplingPlan,
    cfg: RandEigConfig,
    j: int,
    opt_cfg: OptimizerConfig | None = None,
) -> SampleResult:
    """Single outer-loop iteration: sample, optimize, decompose, index."""
    theta = plan.sample(j)
    optimal = solve_optimization(problem, theta, cfg=opt_cfg)
    sens = SensitivityOperator(
        problem,
        optimal.as_eval_point(),
        optimal.state_sensitivity,
        optimal.hessian_factor,
    )
    # the operator holds W and the factor for its elimination; the sample
    # result keeps neither
    optimal = replace(optimal, state_sensitivity=None, hessian_factor=None)
    svd = svd_path(cfg, sens.n_theta, sens.n_z)
    if svd == "exact":
        triples, diag, every = exact_triples(sens, problem.spaces, cfg)
    else:
        triples, diag = randomized_geneig(sens, problem.spaces, cfg, sample_index=j)
    local = local_indices(triples, problem.spaces)
    if svd == "exact" and cfg.set_index_mode == "direct":
        # every triple of the one SVD spans D, so their set Gram is the
        # direct index sigma_1(D Pi_S)
        sets = set_indices(every, problem.spaces)
    else:
        sets = set_indices(
            triples,
            problem.spaces,
            mode=cfg.set_index_mode,
            sens_op=sens,
            cfg=cfg,
            sample_index=j,
        )
    solves, rhs = sens.kkt.work()
    worst = max(s.backward_error for s in sens.kkt.solve_stats)
    return SampleResult(j, theta, optimal, triples, local, sets, diag, svd, solves, rhs, worst)


def global_analysis(
    problem: ProblemDefinition,
    plan: SamplingPlan,
    cfg: RandEigConfig,
    opt_cfg: OptimizerConfig | None = None,
) -> HdsaReport:
    """Monte Carlo sweep over N parameter samples, in sample order.

    Per-sample numerical failures (optimizer divergence, rejected SOSC, KKT
    solves short of tolerance) are recorded and excluded from the aggregates;
    any other exception propagates. If every sample fails, the sweep raises
    ``AllSamplesFailedError``.
    """
    results: list[SampleResult] = []
    failures: list[SampleFailure] = []
    for j in range(cfg.n_samples):
        try:
            results.append(analyze_sample(problem, plan, cfg, j, opt_cfg))
        except COMPUTE_ERRORS as exc:
            failures.append(SampleFailure(j, str(exc)))

    if not results:
        raise AllSamplesFailedError(
            "every sample failed; first failure: "
            + (failures[0].message if failures else "unknown")
        )
    return HdsaReport(samples=results, failures=failures, cfg=cfg)


def perturbation_check(
    problem: ProblemDefinition,
    point: OptimalPoint,
    phi: np.ndarray,
    deltas: Sequence[float],
    sens: SensitivityOperator,
) -> tuple[np.ndarray, float]:
    """Empirical first-order check along ``phi`` (scaled to unit
    M_Theta-norm): the distances ||z_opt(theta0 + delta phi) - z0||_Z the
    optimum moves at each of the nonzero ``deltas``, and ||D phi||_Z, which
    predicts delta ||D phi||_Z for each.

    The moved optima come from one block of chord steps on the first-order
    conditions with the KKT operator of ``sens``
    (``KktOperator.stationary_point``), so they cost no W, reduced Hessian or
    factorization at a moved theta. The second-order condition is certified
    at the base point only. A zero ``phi`` or delta raises ValueError; a
    re-solve that does not converge raises OptimizerError.
    """
    spaces = problem.spaces
    nrm = spaces.m_theta.norm(phi)
    if nrm == 0.0:
        raise ValueError("perturbation direction must be nonzero")
    if not all(deltas):
        raise ValueError(f"perturbation deltas must be nonzero, got {list(deltas)}")
    phi = phi / nrm
    d_phi = spaces.m_z.norm(sens.apply(phi))
    thetas = point.theta0[:, None] + np.multiply.outer(phi, deltas)
    z = np.column_stack([q.z for q in sens.kkt.stationary_point(thetas)])
    return spaces.m_z.norms(z - point.z0[:, None]), d_phi


def traditional_comparison(
    problem: ProblemDefinition, point: OptimalPoint
) -> np.ndarray:
    """|d/dtheta_i| of the reduced objective at FIXED z0 (forward + adjoint).

    This is the sensitivity a fixed-design analysis would report; contrasted
    with the indices of the optimal-solution map.
    """
    u = solve_forward(problem, point.z0, point.theta0, point.u0)
    lam = problem.state_jacobian_adjoint_solve(
        point.as_eval_point(), -problem.obj_grad_u(u, point.z0, point.theta0)
    )
    p = EvalPoint(u, point.z0, lam, point.theta0)
    g = problem.obj_grad_theta(u, point.z0, point.theta0) + problem.c_theta_adj(p, lam)
    return np.abs(g)
