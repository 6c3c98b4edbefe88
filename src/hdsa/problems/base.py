"""Problem abstraction: objective, constraint, and Lagrangian derivative blocks."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from ..linalg import SpdOperator


class ProblemError(Exception):
    """Invalid problem configuration or evaluation outside the domain."""


def number_array(value, what: str) -> np.ndarray:
    """``value``, a number or a list of numbers (not bools), as a 1-D float
    array; ``ProblemError`` naming ``what`` otherwise."""
    arr = np.atleast_1d(np.asarray(value, dtype=object))
    if arr.ndim != 1 or not all(isinstance(v, Real) and not isinstance(v, bool) for v in arr):
        raise ProblemError(f"{what} must be a number or a list of numbers, got {value!r}")
    return arr.astype(float)


@dataclass(frozen=True)
class ProblemDims:
    n_u: int
    n_z: int
    n_theta: int
    n_lambda: int

    def __post_init__(self):
        for name in ("n_u", "n_z", "n_theta", "n_lambda"):
            if getattr(self, name) <= 0:
                raise ProblemError(f"{name} must be positive")

    @property
    def n_stacked(self) -> int:
        return self.n_u + self.n_z + self.n_lambda


@dataclass(frozen=True)
class SetPartition:
    """Ordered, disjoint index ranges covering all parameter coordinates."""

    sets: tuple[tuple[str, int, int], ...]  # (name, start, stop) half-open

    def __post_init__(self):
        covered = []
        for name, start, stop in self.sets:
            if stop <= start:
                raise ProblemError(f"partition set {name!r} is empty")
            covered.extend(range(start, stop))
        if len(covered) != len(set(covered)):
            raise ProblemError("partition ranges overlap")

    def validate_cover(self, n_theta: int) -> None:
        covered = sorted(
            i for _, start, stop in self.sets for i in range(start, stop)
        )
        if covered != list(range(n_theta)):
            raise ProblemError("partition does not cover all parameter coordinates")

    @property
    def names(self) -> list[str]:
        return [name for name, _, _ in self.sets]


@dataclass
class WeightedSpaces:
    """Weighting (mass) matrices defining the parameter and optimization inner products."""

    m_theta: SpdOperator
    m_z: SpdOperator
    partition: SetPartition | None = None


@dataclass(frozen=True)
class EvalPoint:
    """Evaluation point (u, z, lambda, theta) for derivative blocks."""

    u: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    theta: np.ndarray


class ProblemDefinition(ABC):
    """Evaluation surface for J, c, and all first/second Lagrangian blocks.

    All derivative methods are matrix-free actions. The Lagrangian is
    L(u, z, lam, theta) = J(u, z, theta) + lam . c(u, z, theta), and the
    second-derivative blocks below are evaluated at an ``EvalPoint``.
    Instances are immutable after construction.

    Block contract: every derivative action and both linearized solves take
    a vector or a block of columns. An (n,) operand gives an (m,) result and
    an (n, r) operand gives an (m, r) result whose column j is the action on
    column j. A block solve costs one factorization and one sweep for all of
    its columns, which is where the sensitivity pipeline gets its speed.
    """

    name: str = "problem"
    # True when the reduced Hessian depends on theta alone (constraint linear
    # in (u, z), objective quadratic); the optimizer then assembles it once
    constant_reduced_hessian: bool = False

    @property
    @abstractmethod
    def dims(self) -> ProblemDims: ...

    @property
    @abstractmethod
    def spaces(self) -> WeightedSpaces: ...

    @abstractmethod
    def objective(self, u: np.ndarray, z: np.ndarray, theta: np.ndarray) -> float: ...

    @abstractmethod
    def residual(self, u: np.ndarray, z: np.ndarray, theta: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def residual_term_sizes(self, u, z, theta) -> np.ndarray:
        """Summed magnitudes of the terms of each entry of c: |A| |u| + |B| |z|
        + |f| for c = A u + B z + f, the scale of the rounding in ``residual``."""

    # First derivatives of the objective.
    @abstractmethod
    def obj_grad_u(self, u, z, theta) -> np.ndarray: ...

    @abstractmethod
    def obj_grad_z(self, u, z, theta) -> np.ndarray: ...

    @abstractmethod
    def obj_grad_theta(self, u, z, theta) -> np.ndarray: ...

    # Constraint Jacobian actions and adjoints.
    @abstractmethod
    def c_u(self, p: EvalPoint, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def c_u_adj(self, p: EvalPoint, w: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def c_z(self, p: EvalPoint, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def c_z_adj(self, p: EvalPoint, w: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def c_theta(self, p: EvalPoint, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def c_theta_adj(self, p: EvalPoint, w: np.ndarray) -> np.ndarray: ...

    # Lagrangian second-derivative block actions.
    @abstractmethod
    def l_uu(self, p: EvalPoint, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def l_uz(self, p: EvalPoint, v: np.ndarray) -> np.ndarray:
        """Direction v in z-space, result in u-space."""

    @abstractmethod
    def l_zu(self, p: EvalPoint, v: np.ndarray) -> np.ndarray:
        """Direction v in u-space, result in z-space."""

    @abstractmethod
    def l_zz(self, p: EvalPoint, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def l_utheta(self, p: EvalPoint, v: np.ndarray) -> np.ndarray:
        """Direction v in theta-space, result in u-space."""

    @abstractmethod
    def l_ztheta(self, p: EvalPoint, v: np.ndarray) -> np.ndarray:
        """Direction v in theta-space, result in z-space."""

    @abstractmethod
    def l_utheta_adj(self, p: EvalPoint, w: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def l_ztheta_adj(self, p: EvalPoint, w: np.ndarray) -> np.ndarray: ...

    # Linearized state solves.
    @abstractmethod
    def state_jacobian_solve(self, p: EvalPoint, rhs: np.ndarray) -> np.ndarray:
        """Solve c_u(p) du = rhs."""

    @abstractmethod
    def state_jacobian_adjoint_solve(self, p: EvalPoint, rhs: np.ndarray) -> np.ndarray:
        """Solve c_u(p)^T w = rhs."""

    # Hooks with sensible defaults.
    def default_theta(self) -> np.ndarray:
        return np.zeros(self.dims.n_theta)

    def lagrangian_grad_u(self, p: EvalPoint) -> np.ndarray:
        return self.obj_grad_u(p.u, p.z, p.theta) + self.c_u_adj(p, p.lam)

    def lagrangian_grad_z(self, p: EvalPoint) -> np.ndarray:
        return self.obj_grad_z(p.u, p.z, p.theta) + self.c_z_adj(p, p.lam)


@dataclass
class DerivativeCheckReport:
    """Relative errors per derivative block plus the pass threshold."""

    h: float
    threshold: float
    errors: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e <= self.threshold for e in self.errors.values())

    def failures(self) -> dict[str, float]:
        return {k: v for k, v in self.errors.items() if v > self.threshold}


def _rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(exact)), float(np.linalg.norm(approx)), 1e-14)
    return float(np.linalg.norm(approx - exact)) / scale


def check_derivatives(
    problem: ProblemDefinition,
    point: EvalPoint,
    h: float = 1e-4,
    seed: int = 0,
) -> DerivativeCheckReport:
    """Central finite-difference check of every derivative block.

    Passes iff every relative error is at most max(50 h^2, 1e-6). Adjoint
    consistency of the Jacobian blocks is checked with random vectors.
    """
    if not (1e-7 <= h <= 1e-2):
        raise ProblemError("finite-difference step must lie in [1e-7, 1e-2]")
    rng = np.random.default_rng(seed)
    dims = problem.dims
    report = DerivativeCheckReport(h=h, threshold=max(50.0 * h * h, 1e-6))
    u, z, lam, theta = point.u, point.z, point.lam, point.theta

    du = rng.standard_normal(dims.n_u)
    dz = rng.standard_normal(dims.n_z)
    dth = rng.standard_normal(dims.n_theta)

    def central(f, x, dx):
        return (f(x + h * dx) - f(x - h * dx)) / (2.0 * h)

    # First derivatives of J.
    report.errors["J_u"] = _rel_err(
        np.atleast_1d(central(lambda v: problem.objective(v, z, theta), u, du)),
        np.atleast_1d(problem.obj_grad_u(u, z, theta) @ du),
    )
    report.errors["J_z"] = _rel_err(
        np.atleast_1d(central(lambda v: problem.objective(u, v, theta), z, dz)),
        np.atleast_1d(problem.obj_grad_z(u, z, theta) @ dz),
    )
    report.errors["J_theta"] = _rel_err(
        np.atleast_1d(central(lambda v: problem.objective(u, z, v), theta, dth)),
        np.atleast_1d(problem.obj_grad_theta(u, z, theta) @ dth),
    )

    # Constraint Jacobian blocks.
    report.errors["c_u"] = _rel_err(
        central(lambda v: problem.residual(v, z, theta), u, du),
        problem.c_u(point, du),
    )
    report.errors["c_z"] = _rel_err(
        central(lambda v: problem.residual(u, v, theta), z, dz),
        problem.c_z(point, dz),
    )
    report.errors["c_theta"] = _rel_err(
        central(lambda v: problem.residual(u, z, v), theta, dth),
        problem.c_theta(point, dth),
    )

    # Adjoint consistency <Av, w> = <v, A^T w> on random pairs.
    wu = rng.standard_normal(dims.n_lambda)
    report.errors["c_u_adjoint"] = abs(
        problem.c_u(point, du) @ wu - du @ problem.c_u_adj(point, wu)
    ) / max(abs(problem.c_u(point, du) @ wu), 1e-14)
    report.errors["c_z_adjoint"] = abs(
        problem.c_z(point, dz) @ wu - dz @ problem.c_z_adj(point, wu)
    ) / max(abs(problem.c_z(point, dz) @ wu), 1e-14)
    report.errors["c_theta_adjoint"] = abs(
        problem.c_theta(point, dth) @ wu - dth @ problem.c_theta_adj(point, wu)
    ) / max(abs(problem.c_theta(point, dth) @ wu), 1e-14)

    # Second derivative blocks against differences of the Lagrangian gradients.
    def l_u(uu, zz, tt):
        p = EvalPoint(uu, zz, lam, tt)
        return problem.lagrangian_grad_u(p)

    def l_z(uu, zz, tt):
        p = EvalPoint(uu, zz, lam, tt)
        return problem.lagrangian_grad_z(p)

    report.errors["L_uu"] = _rel_err(
        central(lambda v: l_u(v, z, theta), u, du), problem.l_uu(point, du)
    )
    report.errors["L_uz"] = _rel_err(
        central(lambda v: l_u(u, v, theta), z, dz), problem.l_uz(point, dz)
    )
    report.errors["L_utheta"] = _rel_err(
        central(lambda v: l_u(u, z, v), theta, dth), problem.l_utheta(point, dth)
    )
    report.errors["L_zu"] = _rel_err(
        central(lambda v: l_z(v, z, theta), u, du), problem.l_zu(point, du)
    )
    report.errors["L_zz"] = _rel_err(
        central(lambda v: l_z(u, v, theta), z, dz), problem.l_zz(point, dz)
    )
    report.errors["L_ztheta"] = _rel_err(
        central(lambda v: l_z(u, z, v), theta, dth), problem.l_ztheta(point, dth)
    )

    # Block symmetry L_uz vs L_zu and cross-adjoints.
    report.errors["L_uz_symmetry"] = abs(
        problem.l_uz(point, dz) @ du - dz @ problem.l_zu(point, du)
    ) / max(abs(problem.l_uz(point, dz) @ du), 1e-14)
    report.errors["L_utheta_adjoint"] = abs(
        problem.l_utheta(point, dth) @ du - dth @ problem.l_utheta_adj(point, du)
    ) / max(abs(problem.l_utheta(point, dth) @ du), 1e-14)
    report.errors["L_ztheta_adjoint"] = abs(
        problem.l_ztheta(point, dth) @ dz - dth @ problem.l_ztheta_adj(point, dz)
    ) / max(abs(problem.l_ztheta(point, dth) @ dz), 1e-14)

    return report
