"""Reduced-space Newton solver for the inner PDE-constrained problem.

Produces a verified stationary triple (u0, z0, lambda0) with adjoint recovery
and a second-order sufficiency check, as required before any sensitivity
computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DENSE_THRESHOLD,
    LinalgError,
    SolveError,
    block_width,
    cho_solve,
    cholesky_in_place,
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

# Newton iterations and normwise backward-error tolerance of the forward
# solve, and the Armijo sufficient-decrease constant (Nocedal & Wright,
# Numerical Optimization, sec. 3.1) and shortest step of the outer line search
FORWARD_MAX_ITER = 50
FORWARD_TOL = 1e-12
ARMIJO_C1 = 1e-4
MIN_STEP = 1e-14


@dataclass
class OptimizerConfig:
    stationarity_tol: float = 1e-9  # on the M^{-1}-norm of the reduced gradient
    max_iter: int = 100
    check_sosc: bool = True


@dataclass
class OptimalPoint:
    """The accepted KKT point of ``solve_optimization``. ``lambda0`` is the
    adjoint solved at (u0, z0), the last adjoint solve of the run, so
    (u0, z0, lambda0) is the stationary triple that the sensitivity
    operator and the derivative checks read."""

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
    # elimination. The factor is ``factor_reduced_hessian``'s one n_z x n_z
    # array: R in its upper triangle, which every solve reads, and in its
    # strict lower triangle the mirror of H's upper block triangle, which
    # none reads
    state_sensitivity: np.ndarray | None = field(default=None, repr=False)
    hessian_factor: np.ndarray | None = field(default=None, repr=False)

    def as_eval_point(self) -> EvalPoint:
        return EvalPoint(self.u0, self.z0, self.lambda0, self.theta0)


def _point(problem, u, z, theta):
    return EvalPoint(u, z, np.zeros(problem.dims.n_lambda), theta)


def solve_forward(
    problem: ProblemDefinition,
    z: np.ndarray,
    theta: np.ndarray,
    u_guess: np.ndarray | None = None,
) -> np.ndarray:
    """Newton with backtracking on c(u, z, theta) = 0, to the normwise
    backward error ||c|| <= FORWARD_TOL ||s||, with s the summed magnitudes of
    the terms of c (``residual_term_sizes``); rounding meets it on any mesh."""
    u = np.zeros(problem.dims.n_u) if u_guess is None else u_guess.copy()
    r = problem.residual(u, z, theta)
    for it in range(FORWARD_MAX_ITER + 1):
        rn = float(np.linalg.norm(r))
        sizes = problem.residual_term_sizes(u, z, theta)
        if rn <= FORWARD_TOL * float(np.linalg.norm(sizes)):
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


def reduced_hessian_matvec(problem: ProblemDefinition, p: EvalPoint, v: np.ndarray) -> np.ndarray:
    """Action of the reduced Hessian at a stationary-ish point on a vector or
    block: one state and one adjoint solve per column. The matrix-free
    reference for ``reduced_hessian_dense``."""
    du = problem.state_jacobian_solve(p, -problem.c_z(p, v))
    w = problem.l_uu(p, du) + problem.l_uz(p, v)
    dlam = problem.state_jacobian_adjoint_solve(p, -w)
    return problem.l_zu(p, du) + problem.l_zz(p, v) + problem.c_z_adj(p, dlam)


def reduced_hessian_dense(
    problem: ProblemDefinition, p: EvalPoint
) -> tuple[np.ndarray, np.ndarray]:
    """(W, H): the state sensitivity W = -c_u^{-1} c_z, the state's change
    per unit change of z, and the reduced Hessian
    H = L_zz + L_zu W + W^T (L_uu W + L_uz), the null-space form
    Z^T (grad^2 L) Z with Z = [W; I]. Costs the n_z state solves of W and
    no other PDE solve.

    Both are formed in one pass over column blocks [start, stop) of
    ``block_width(n_u)``, each Fortran-ordered so that a block is written
    to contiguous memory and ``factor_reduced_hessian`` can factor H in its
    own storage. A block's identity columns give W's block, by one state
    solve of -c_z on them, and H's block column above the diagonal: rows
    [:stop] of the formula, by one product with W[:, :stop], whose
    transpose is copied into the rows below, so H is exactly symmetric."""
    n_u, n_z = problem.dims.n_u, problem.dims.n_z
    if n_z > DENSE_THRESHOLD:
        raise OptimizerError("reduced Hessian too large to form densely")
    w = np.empty((n_u, n_z), order="F")
    h = np.empty((n_z, n_z), order="F")
    width = block_width(n_u)
    for start in range(0, n_z, width):
        stop = min(start + width, n_z)
        e, w_c = identity_columns(n_z, start, stop), w[:, start:stop]
        w_c[...] = problem.state_jacobian_solve(p, problem.c_z(p, -e))
        h_c = h[:stop, start:stop]
        h_c[...] = matmul(w[:, :stop], problem.l_uu(p, w_c) + problem.l_uz(p, e), trans_a=True)
        h_c += problem.l_zu(p, w_c)[:stop]
        h_c += problem.l_zz(p, e)[:stop]
        # the diagonal block's upper triangle and the block column above it,
        # transposed, fill the rows below
        i, j = np.tril_indices(stop - start, -1)
        h[start + i, start + j] = h[start + j, start + i]
        h[start:stop, :start] = h[:start, start:stop].T
    return w, h


def _norm_1(h: np.ndarray) -> float:
    """||h||_1, the largest absolute column sum, taken by column blocks so
    that no temporary is larger than ``BLOCK_BYTES``."""
    width = block_width(h.shape[0])
    return max(
        float(np.abs(h[:, j : j + width]).sum(axis=0).max())
        for j in range(0, h.shape[1], width)
    )


def factor_reduced_hessian(h: np.ndarray) -> np.ndarray | None:
    """R with R^T R = H, in the upper triangle of the array that ``cho_solve``
    takes, or None where H is not positive definite.

    H (from ``reduced_hessian_dense``) is factored in its own storage by one
    upper ``potrf``, which reads and writes only the upper triangle. So the
    returned array is ``h`` itself, made read-only: R in its upper
    triangle, bit for bit the factor of ``scipy.linalg.cholesky(h)``, and H's own
    entries in its strict lower triangle, which no solve reads. Where the
    factorization fails, H is rebuilt in place from that strict lower
    triangle and its saved diagonal, so that ``check_sosc`` reports H's
    exact smallest eigenvalue."""
    diagonal = h.diagonal().copy()
    if not cholesky_in_place(h):
        upper = np.triu_indices_from(h, 1)
        h[upper] = h.T[upper]
        np.fill_diagonal(h, diagonal)
        return None
    h.flags.writeable = False
    return h


def _inverse_norm_estimate(factor: np.ndarray) -> float:
    """Hager-Higham lower estimate of ||H^-1||_1 from R^T R = H in the upper
    triangle of ``factor`` (Higham, ACM TOMS 14, 1988, Alg. 4.1), as in
    LAPACK dpocon, at up to 11 solves. dpocon itself returned different last
    bits from run to run under two OpenBLAS threads; these solves do not."""
    n = factor.shape[0]
    y = cho_solve(factor, np.full(n, 1.0 / n))
    est, sign = np.abs(y).sum(), np.copysign(1.0, y)
    z = np.abs(cho_solve(factor, sign))
    j = int(np.argmax(z))
    for _ in range(4):
        y = cho_solve(factor, np.eye(1, n, j)[0])  # column j of H^-1
        est_old, est = est, max(est, np.abs(y).sum())
        # a repeated sign vector has converged; no growth is cycling
        if np.array_equal(np.copysign(1.0, y), sign) or est <= est_old:
            break
        sign = np.copysign(1.0, y)
        z = np.abs(cho_solve(factor, sign))
        j_last, j = j, int(np.argmax(z))
        if z[j_last] == z[j]:
            break
    # an alternating-sign vector guards against an unlucky start
    alt = np.linspace(1.0, 2.0, n) * (-1.0) ** np.arange(n)
    return float(max(est, 2.0 * np.abs(cho_solve(factor, alt)).sum() / (3.0 * n)))


def check_sosc(h: np.ndarray, factor: np.ndarray | None, h_norm: float) -> float:
    """Certify the second-order sufficient condition from the Cholesky factor
    R of the reduced Hessian H, which proves H positive definite up to a small
    backward error (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, ch. 10), and return ``1 / est||H^-1||_1``, an estimate of
    H's smallest eigenvalue (not a bound). Raises OptimizerError where the
    factorization failed, with the exact smallest eigenvalue of ``h``, or
    where the estimate is at or below ``eps h_norm``, with ``h_norm`` =
    ||H||_1. Where ``factor`` is not None only its upper triangle, R, is
    read, and ``h`` not at all: ``factor_reduced_hessian`` factors H in H's
    own array and returns it, so its 1-norm is taken before."""
    if factor is None:
        evals, _ = dense_sym_eig(h)
        raise OptimizerError(
            f"not a verified local minimizer: reduced Hessian min eig {evals[-1]:.3e}"
        )
    est = 1.0 / _inverse_norm_estimate(factor)
    floor = np.finfo(float).eps * h_norm
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
    Hessian H, factored once per assembly in H's own array after its 1-norm
    is taken, and takes steepest descent where H is not positive definite.
    The reduced gradient is g = J_z + W^T J_u, one product with the state
    sensitivity W the loop holds: the sensitivity form of J_z + c_z^T lambda
    for lambda = -c_u^{-T} J_u (Hinze, Pinnau, Ulbrich and Ulbrich,
    *Optimization with PDE Constraints*, 2009, sec. 1.6), which solves no
    adjoint. So lambda is solved only where it is read. Where H reads it,
    it is solved at every iterate before W and H are formed there. A problem
    whose H does not depend on the iterate (``constant_reduced_hessian``)
    forms W and H once, at lambda = 0, which its second-derivative blocks
    do not read, and solves lambda once, at the accepted point; a run that
    stops short of stationarity raises before that solve.
    Returns an OptimalPoint whose W and factor are the ones the last
    assembly computed; the factor certifies H positive definite
    (``check_sosc``, unless disabled), and W and the factor are handed on
    for the KKT elimination.
    """
    cfg = cfg or OptimizerConfig()
    dims = problem.dims
    if init is None:
        init = InitialIterate(np.zeros(dims.n_u), np.zeros(dims.n_z))
    if init.z_init.shape != (dims.n_z,) or init.u_init.shape != (dims.n_u,):
        raise OptimizerError("initial iterate dimensions do not match the problem")
    m_z = problem.spaces.m_z

    z = init.z_init.copy()
    u = solve_forward(problem, z, theta0, init.u_init)

    def grad_m_norm(g):
        return float(np.sqrt(max(g @ m_z.solve(g), 0.0)))

    it = 0
    f = problem.objective(u, z, theta0)
    constant = problem.constant_reduced_hessian
    w = None
    while True:
        if w is None or not constant:
            # a constant H reads no lambda: it is formed at lambda = 0
            lam = np.zeros(dims.n_lambda) if constant else solve_adjoint(problem, u, z, theta0)
            p = EvalPoint(u, z, lam, theta0)
            w, h = reduced_hessian_dense(problem, p)
            h_norm = _norm_1(h)
            factor = factor_reduced_hessian(h)
        # J_z + c_z^T lambda in its sensitivity form, with no adjoint solve
        g = problem.obj_grad_z(u, z, theta0) + matmul(
            w, problem.obj_grad_u(u, z, theta0), trans_a=True
        )
        gnorm = grad_m_norm(g)
        if gnorm <= cfg.stationarity_tol or it >= cfg.max_iter:
            break
        # steepest descent where H is not positive definite
        d = -g if factor is None else -cho_solve(factor, g)
        if float(d @ g) >= 0.0:
            d = -g
        # the linearized state, u + step W d, solves a linear state equation
        # to rounding and starts a nonlinear one's Newton iteration closer
        du = matmul(w, d)
        step = 1.0
        accepted = False
        while step >= MIN_STEP:
            z_trial = z + step * d
            try:
                u_trial = solve_forward(problem, z_trial, theta0, u + step * du)
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
    if constant:
        lam = solve_adjoint(problem, u, z, theta0)
    return OptimalPoint(
        u0=u,
        z0=z,
        lambda0=lam,
        theta0=np.asarray(theta0, dtype=float).copy(),
        grad_norm=gnorm,
        sosc_min_eig_est=check_sosc(h, factor, h_norm) if cfg.check_sosc else np.nan,
        iterations=it,
        objective=f,
        state_sensitivity=w,
        hessian_factor=factor,
    )
