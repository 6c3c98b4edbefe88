"""Reduced-space Newton solver for the inner PDE-constrained problem.

Produces a verified stationary triple (u0, z0, lambda0) with adjoint recovery
and a second-order sufficiency check, as required before any sensitivity
computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import (
    DENSE_THRESHOLD,
    LinalgError,
    SolveError,
    block_width,
    dense_sym_eig,
    identity_columns,
    matmul,
)
from .problems.base import EvalPoint, ProblemDefinition, ProblemError
from .sampling import InitialIterate


class OptimizerError(Exception):
    """Non-convergence or a rejected (non-minimizer) stationary point."""


# Numerical failures: a line search answers them with a shorter step and a
# sample sweep records them as a failed sample. Anything else is a
# programming error and propagates.
COMPUTE_ERRORS = (ProblemError, OptimizerError, SolveError, LinalgError)

# Newton iterations of the forward solve, and the Armijo sufficient-decrease
# constant (Nocedal & Wright, Numerical Optimization, sec. 3.1) and shortest
# step of the outer line search
FORWARD_MAX_ITER = 50
ARMIJO_C1 = 1e-4
MIN_STEP = 1e-14


@dataclass
class OptimizerConfig:
    stationarity_tol: float = 1e-9  # on the M^{-1}-norm of the reduced gradient
    max_iter: int = 100
    forward_tol: float = 1e-12  # on ||c|| / ||residual_term_sizes|| (solve_forward)
    check_sosc: bool = True

    # max_iter and stationarity_tol are not checked: a caller may force a
    # failure with max_iter=0
    def __post_init__(self):
        if not self.forward_tol > 0:
            raise OptimizerError("forward_tol must be positive")


@dataclass
class OptimalPoint:
    u0: np.ndarray
    z0: np.ndarray
    lambda0: np.ndarray
    theta0: np.ndarray
    grad_norm: float
    sosc_min_eig_est: float
    iterations: int
    objective: float = 0.0
    # W = -c_u^{-1} c_z and the Cholesky factor of the reduced Hessian at this
    # point (None where it is not positive definite), reused by the KKT
    # elimination
    state_sensitivity: np.ndarray | None = field(default=None, repr=False)
    hessian_factor: tuple | None = field(default=None, repr=False)

    def as_eval_point(self) -> EvalPoint:
        return EvalPoint(self.u0, self.z0, self.lambda0, self.theta0)


def _point(problem, u, z, theta, lam=None):
    if lam is None:
        lam = np.zeros(problem.dims.n_lambda)
    return EvalPoint(u, z, lam, theta)


def solve_forward(
    problem: ProblemDefinition,
    z: np.ndarray,
    theta: np.ndarray,
    u_guess: np.ndarray | None = None,
    tol: float = OptimizerConfig.forward_tol,
) -> np.ndarray:
    """Newton with backtracking on c(u, z, theta) = 0, to the normwise
    backward error ||c|| <= tol ||s||, with s the summed magnitudes of the
    terms of c (``residual_term_sizes``); rounding meets it on any mesh."""
    u = np.zeros(problem.dims.n_u) if u_guess is None else u_guess.copy()
    r = problem.residual(u, z, theta)
    for it in range(FORWARD_MAX_ITER + 1):
        rn = float(np.linalg.norm(r))
        if rn <= tol * float(np.linalg.norm(problem.residual_term_sizes(u, z, theta))):
            return u
        if it == FORWARD_MAX_ITER:
            raise OptimizerError(f"forward solve did not converge: residual {rn:.3e}")
        du = problem.state_jacobian_solve(_point(problem, u, z, theta), -r)
        step = 1.0
        while step >= 1e-12:
            u_trial = u + step * du
            try:
                r_trial = problem.residual(u_trial, z, theta)
            except COMPUTE_ERRORS:
                step *= 0.5
                continue
            if float(np.linalg.norm(r_trial)) < rn:
                u, r = u_trial, r_trial
                break
            step *= 0.5
        else:
            raise OptimizerError(
                f"forward Newton line search failed at residual {rn:.3e}"
            )


def solve_adjoint(
    problem: ProblemDefinition, u: np.ndarray, z: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Adjoint state from c_u^T lambda = -J_u."""
    p = _point(problem, u, z, theta)
    rhs = -problem.obj_grad_u(u, z, theta)
    return problem.state_jacobian_adjoint_solve(p, rhs)


def reduced_gradient(problem, u, z, theta, lam) -> np.ndarray:
    p = EvalPoint(u, z, lam, theta)
    return problem.obj_grad_z(u, z, theta) + problem.c_z_adj(p, lam)


def reduced_hessian_matvec(problem: ProblemDefinition, p: EvalPoint, v: np.ndarray) -> np.ndarray:
    """Action of the reduced Hessian at a stationary-ish point on a vector or
    block: one state and one adjoint solve per column. The matrix-free
    reference for ``reduced_hessian_dense``."""
    du = problem.state_jacobian_solve(p, -problem.c_z(p, v))
    w = problem.l_uu(p, du) + problem.l_uz(p, v)
    dlam = problem.state_jacobian_adjoint_solve(p, -w)
    return problem.l_zu(p, du) + problem.l_zz(p, v) + problem.c_z_adj(p, dlam)


def state_sensitivity(problem: ProblemDefinition, p: EvalPoint) -> np.ndarray:
    """W = -c_u^{-1} c_z, the state's change per unit change of z: n_z state
    solves, in column blocks of ``block_width(n_u)``, stored in Fortran order
    so that each block is written to contiguous memory."""
    d = problem.dims
    if d.n_z > DENSE_THRESHOLD:
        raise OptimizerError("reduced Hessian too large to form densely")
    w = np.empty((d.n_u, d.n_z), order="F")
    width = block_width(d.n_u)
    for start in range(0, d.n_z, width):
        stop = min(start + width, d.n_z)
        w[:, start:stop] = problem.state_jacobian_solve(
            p, -problem.c_z(p, identity_columns(d.n_z, start, stop))
        )
    return w


def reduced_hessian_dense(
    problem: ProblemDefinition, p: EvalPoint, w: np.ndarray | None = None
) -> np.ndarray:
    """H = L_zz + L_zu W + W^T (L_uu W + L_uz), the null-space form
    Z^T (grad^2 L) Z with Z = [W; I], symmetrized. Costs no PDE solve beyond
    the n_z of W, which is formed here unless given."""
    if w is None:
        w = state_sensitivity(problem, p)
    n_z = problem.dims.n_z
    h = np.empty((n_z, n_z))
    width = block_width(problem.dims.n_u)
    for start in range(0, n_z, width):
        stop = min(start + width, n_z)
        e, w_c = identity_columns(n_z, start, stop), w[:, start:stop]
        h_c = h[:, start:stop]
        h_c[...] = matmul(w, problem.l_uu(p, w_c) + problem.l_uz(p, e), trans_a=True)
        h_c += problem.l_zu(p, w_c)
        h_c += problem.l_zz(p, e)
    return 0.5 * (h + h.T)


def factor_reduced_hessian(h: np.ndarray) -> tuple | None:
    """``scipy.linalg.cho_factor`` of H, or None where H is not positive definite."""
    try:
        return scipy.linalg.cho_factor(h)
    except np.linalg.LinAlgError:
        return None


def _inverse_norm_estimate(factor: tuple) -> float:
    """Hager-Higham lower estimate of ||H^-1||_1 from the Cholesky factor of
    a symmetric H (Higham, ACM TOMS 14, 1988, Alg. 4.1), as in LAPACK dpocon,
    at up to 11 dpotrs solves. dpocon itself returned different last bits
    from run to run under two OpenBLAS threads; these solves do not."""
    c, lower = factor
    n = c.shape[0]

    def solve(v):
        return scipy.linalg.lapack.dpotrs(c, v, lower=lower)[0]

    y = solve(np.full(n, 1.0 / n))
    est, sign = np.abs(y).sum(), np.copysign(1.0, y)
    z = np.abs(solve(sign))
    j = int(np.argmax(z))
    for _ in range(4):
        y = solve(np.eye(1, n, j)[0])  # column j of H^-1
        est_old, est = est, max(est, np.abs(y).sum())
        # a repeated sign vector has converged; no growth is cycling
        if np.array_equal(np.copysign(1.0, y), sign) or est <= est_old:
            break
        sign = np.copysign(1.0, y)
        z = np.abs(solve(sign))
        j_last, j = j, int(np.argmax(z))
        if z[j_last] == z[j]:
            break
    # an alternating-sign vector guards against an unlucky start
    alt = np.linspace(1.0, 2.0, n) * (-1.0) ** np.arange(n)
    return float(max(est, 2.0 * np.abs(solve(alt)).sum() / (3.0 * n)))


def check_sosc(h: np.ndarray, factor: tuple | None) -> float:
    """Certify the second-order sufficient condition from the Cholesky factor
    of the reduced Hessian H, which proves H positive definite up to a small
    backward error (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, ch. 10), and return ``1 / est||H^-1||_1``, an estimate of
    H's smallest eigenvalue (not a bound). Raises OptimizerError where the
    factorization failed, with the exact smallest eigenvalue, or where the
    estimate is at or below ``eps ||H||_1``."""
    if factor is None:
        evals, _ = dense_sym_eig(h, vectors=False)
        raise OptimizerError(
            f"not a verified local minimizer: reduced Hessian min eig {evals[-1]:.3e}"
        )
    est = 1.0 / _inverse_norm_estimate(factor)
    floor = np.finfo(float).eps * float(np.linalg.norm(h, 1))
    if not est > floor:
        raise OptimizerError(
            f"not a verified local minimizer: reduced Hessian min eig estimate "
            f"{est:.3e}, floor eps ||H||_1 = {floor:.3e}"
        )
    return est


def solve_optimization(
    problem: ProblemDefinition,
    theta0: np.ndarray,
    init: InitialIterate | None = None,
    cfg: OptimizerConfig | None = None,
) -> OptimalPoint:
    """Reduced-space Newton with Armijo backtracking.

    Each step solves H d = -g with the Cholesky factor of the dense reduced
    Hessian H, factored once per assembly, and takes steepest descent where
    H is not positive definite. A problem whose H does not depend on the
    iterate forms W and H once. Returns an OptimalPoint whose adjoint, W and
    factor are the ones the last iteration computed at the final iterate;
    the factor certifies H positive definite (``check_sosc``, unless
    disabled), and W and the factor are handed on for the KKT elimination.
    """
    cfg = cfg or OptimizerConfig()
    dims = problem.dims
    if init is None:
        init = InitialIterate(np.zeros(dims.n_u), np.zeros(dims.n_z))
    if init.z_init.shape != (dims.n_z,) or init.u_init.shape != (dims.n_u,):
        raise OptimizerError("initial iterate dimensions do not match the problem")
    m_z = problem.spaces.m_z

    z = init.z_init.copy()
    u = solve_forward(problem, z, theta0, init.u_init, tol=cfg.forward_tol)

    def grad_m_norm(g):
        return float(np.sqrt(max(g @ m_z.solve(g), 0.0)))

    it = 0
    f = problem.objective(u, z, theta0)
    w = None
    while True:
        lam = solve_adjoint(problem, u, z, theta0)
        g = reduced_gradient(problem, u, z, theta0, lam)
        gnorm = grad_m_norm(g)
        if w is None or not problem.constant_reduced_hessian:
            p = EvalPoint(u, z, lam, theta0)
            w = state_sensitivity(problem, p)
            h = reduced_hessian_dense(problem, p, w)
            factor = factor_reduced_hessian(h)
        if gnorm <= cfg.stationarity_tol or it >= cfg.max_iter:
            break
        # steepest descent where H is not positive definite
        d = -g if factor is None else -scipy.linalg.cho_solve(factor, g)
        if float(d @ g) >= 0.0:
            d = -g
        step = 1.0
        accepted = False
        while step >= MIN_STEP:
            z_trial = z + step * d
            try:
                u_trial = solve_forward(problem, z_trial, theta0, u, tol=cfg.forward_tol)
            except COMPUTE_ERRORS:
                step *= 0.5
                continue
            f_trial = problem.objective(u_trial, z_trial, theta0)
            if f_trial <= f + ARMIJO_C1 * step * float(d @ g) + 1e-14:
                z, u, f = z_trial, u_trial, f_trial
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise OptimizerError(
                f"Armijo line search failed at iteration {it} (|g|_M = {gnorm:.3e})"
            )
        it += 1

    if gnorm > cfg.stationarity_tol:
        raise OptimizerError(
            f"optimizer did not reach stationarity: |g|_M = {gnorm:.3e} "
            f"after {it} iterations"
        )
    return OptimalPoint(
        u0=u,
        z0=z,
        lambda0=lam,
        theta0=np.asarray(theta0, dtype=float).copy(),
        grad_norm=gnorm,
        sosc_min_eig_est=check_sosc(h, factor) if cfg.check_sosc else np.nan,
        iterations=it,
        objective=f,
        state_sensitivity=w,
        hessian_factor=factor,
    )
