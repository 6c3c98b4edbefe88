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

    # Lagrangian gradients from the blocks above.
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


def check_derivatives(problem: ProblemDefinition, point: EvalPoint) -> DerivativeCheckReport:
    """Central finite-difference check of every derivative block at step
    h = 1e-4, along random directions du, dz and dtheta.

    Passes iff every relative error is at most max(50 h^2, 1e-6). Each
    adjoint action, and L_zu as the adjoint of L_uz, is paired with its
    forward action on the same random vectors.
    """
    h = 1e-4
    rng = np.random.default_rng(0)
    dims = problem.dims
    report = DerivativeCheckReport(h=h, threshold=max(50.0 * h * h, 1e-6))
    x = {"u": point.u, "z": point.z, "theta": point.theta}
    d = {s: rng.standard_normal(n) for s, n in zip(x, (dims.n_u, dims.n_z, dims.n_theta))}
    w_lam = rng.standard_normal(dims.n_lambda)

    def central(f, s):
        plus, minus = {**x, s: x[s] + h * d[s]}, {**x, s: x[s] - h * d[s]}
        return (f(*plus.values()) - f(*minus.values())) / (2.0 * h)

    def at_lam(grad):
        return lambda u, z, theta: grad(EvalPoint(u, z, point.lam, theta))

    def block(prefix):
        return lambda s: getattr(problem, prefix + s)(point, d[s])

    # (row prefix, a function of (u, z, theta), its derivative along slot s
    # applied to d[s]): row prefix + s differences the function along d[s]
    differenced = (
        ("J_", problem.objective, lambda s: getattr(problem, "obj_grad_" + s)(*x.values()) @ d[s]),
        ("c_", problem.residual, block("c_")),
        ("L_u", at_lam(problem.lagrangian_grad_u), block("l_u")),
        ("L_z", at_lam(problem.lagrangian_grad_z), block("l_z")),
    )
    for prefix, f, derivative in differenced:
        for s in x:
            report.errors[prefix + s] = _rel_err(
                np.atleast_1d(central(f, s)), np.atleast_1d(derivative(s))
            )

    # (row, A, its adjoint, v, w): <A v, w> against <v, A^T w>, where L_zu is
    # the adjoint of L_uz
    paired = (
        ("c_u_adjoint", problem.c_u, problem.c_u_adj, d["u"], w_lam),
        ("c_z_adjoint", problem.c_z, problem.c_z_adj, d["z"], w_lam),
        ("c_theta_adjoint", problem.c_theta, problem.c_theta_adj, d["theta"], w_lam),
        ("L_uz_symmetry", problem.l_uz, problem.l_zu, d["z"], d["u"]),
        ("L_utheta_adjoint", problem.l_utheta, problem.l_utheta_adj, d["theta"], d["u"]),
        ("L_ztheta_adjoint", problem.l_ztheta, problem.l_ztheta_adj, d["theta"], d["z"]),
    )
    for name, a, a_adj, v, w in paired:
        avw = a(point, v) @ w
        report.errors[name] = abs(avw - v @ a_adj(point, w)) / max(abs(avw), 1e-14)
    return report
