"""KKT and sensitivity operators at an optimal point.

The sensitivity operator maps a parameter perturbation to the first-order
change of the optimal optimization variable: the z-block of the KKT solve
against the negated Lagrangian cross-derivatives, from the forward half of
the block elimination alone; its transpose takes the backward half.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .linalg import (
    DENSE_THRESHOLD,
    LinalgError,
    SolveError,
    SolverStats,
    as_rows,
    block_width,
    check_operand,
    cho_solve,
    identity_columns,
    matmul,
)
from .optimizer import OptimizerError, factor_reduced_hessian, reduced_hessian_dense
from .problems.base import EvalPoint, ProblemDefinition
from .sampling import KKT_NORM_STREAM, rng_for

# A KKT solve is accepted when its normwise backward error is at most this.
KKT_TOL = 1e-10

# Probe columns of the fixed block that estimates ||K||, and the number of an
# operator's first columns that check it.
NORM_PROBES = 4

# Chord re-solve at a nearby theta: converged when the z-correction is at
# most CHORD_TOL of the distance z has moved from the base point, or when it
# stops shrinking at or below CHORD_FLOOR of that distance, or of
# CHORD_NOISE ||z0||_Z where z does not move, where rounding holds it;
# CHORD_MAX_STEPS steps without either is a failure. A re-solved z within
# CHORD_NOISE ||z0||_Z of z0 has not moved.
CHORD_TOL = 1e-9
CHORD_FLOOR = float(np.sqrt(np.finfo(float).eps))
CHORD_NOISE = float(64 * np.finfo(float).eps)
CHORD_MAX_STEPS = 50


class KktOperator:
    """Symmetric 3x3 block operator of Lagrangian second derivatives.

    Rows: (L_uu, L_uz, c_u^T; L_zu, L_zz, c_z^T; c_u, c_z, 0), evaluated at a
    fixed stationary point. Systems are solved by block elimination through
    the reduced Hessian H, with W = -c_u^{-1} c_z; ``state_sensitivity`` and
    ``hessian_factor`` may pass in the W and the Cholesky factor of H that
    the optimizer computed at the point. Without a factor, the first solve
    forms both by one ``reduced_hessian_dense`` pass. ``apply`` and ``solve``
    take a vector (dim,) or a block (dim, r); ``solve_z`` and
    ``solve_from_z`` run the forward and the backward half.
    """

    def __init__(
        self,
        problem: ProblemDefinition,
        point: EvalPoint,
        state_sensitivity: np.ndarray | None = None,
        hessian_factor: tuple | None = None,
    ):
        self.problem = problem
        self.point = point
        d = problem.dims
        self.n_u, self.n_z, self.n_lam = d.n_u, d.n_z, d.n_lambda
        self.dim = d.n_stacked
        self._w = state_sensitivity
        self._factor = hessian_factor
        self._norm_est = None
        self.solve_stats: list[SolverStats] = []
        self.rhs_columns = 0

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            v[: self.n_u],
            v[self.n_u : self.n_u + self.n_z],
            v[self.n_u + self.n_z :],
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        check_operand(v, self.dim, "KKT operator")
        p, pt = self.problem, self.point
        du, dz, dl = self.split(v)
        # rows summed in place, so a block apply holds few stacked temporaries
        out = np.empty(v.shape)
        row_u, row_z, row_l = self.split(out)
        row_u[...] = p.l_uu(pt, du)
        row_u += p.l_uz(pt, dz)
        row_u += p.c_u_adj(pt, dl)
        row_z[...] = p.l_zu(pt, du)
        row_z += p.l_zz(pt, dz)
        row_z += p.c_z_adj(pt, dl)
        row_l[...] = p.c_u(pt, du)
        row_l += p.c_z(pt, dz)
        return out

    def dense(self) -> np.ndarray:
        if self.dim > DENSE_THRESHOLD:
            raise SolveError(
                f"KKT dimension {self.dim} exceeds the dense threshold {DENSE_THRESHOLD}"
            )
        k = np.empty((self.dim, self.dim))
        width = block_width(self.dim)
        for start in range(0, self.dim, width):
            stop = min(start + width, self.dim)
            k[:, start:stop] = self.apply(identity_columns(self.dim, start, stop))
        return k

    def solve(
        self, rhs: np.ndarray, x: np.ndarray | None = None
    ) -> tuple[np.ndarray, SolverStats]:
        """Solve K x = rhs, a vector or every column of a block, in one
        elimination pass whose worst backward error must be ``KKT_TOL``.
        A caller that has run that pass on rhs already hands in its ``x``,
        which is then gated alone."""
        check_operand(rhs, self.dim, "KKT solve")
        if x is None:
            x = self._backward(self.split(rhs)[0], *self.solve_z(rhs))
        err = float(self._backward_errors(x, rhs).max())
        if not err <= KKT_TOL:
            raise SolveError(f"KKT solve did not reach backward error {KKT_TOL:g}: {err:.3e}")
        stats = SolverStats(1, err)
        self.solve_stats.append(stats)
        return x, stats

    def work(self) -> tuple[int, int]:
        """(solve calls, columns of every elimination pass, full or half)."""
        return len(self.solve_stats), self.rhs_columns

    def _norm_estimate(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """K x, and a lower bound on ||K|| from a fixed probe block Psi.

        The bound is formed once, on the first call, from the same K apply
        as K x: [x | Psi] goes through ``apply`` as one block. Psi is keyed
        by its own stream, so the bound and every backward error measured
        with it depend on the operator alone, not on which vectors were
        applied or solved before.
        """
        if self._norm_est is not None:
            return self.apply(x), self._norm_est
        probes = _norm_probes(self.dim)
        applied = self.apply(np.column_stack([x, probes]))
        k_probes = applied[:, -NORM_PROBES:]
        ratios = np.linalg.norm(k_probes, axis=0) / np.linalg.norm(probes, axis=0)
        self._norm_est = float(ratios.max())
        return applied[:, :-NORM_PROBES].reshape(x.shape), self._norm_est

    def _backward_errors(self, x, rhs) -> np.ndarray:
        """Normwise backward error ||r|| / (||K||*||x|| + ||b||) per column.

        The plain relative residual is floored at eps * ||K|| * ||x|| / ||b||,
        which for the ill-conditioned gamma -> 0 regime sits far above any
        sensible tolerance; the backward error is the achievable measure. A
        column of x that is not finite has an infinite error; it enters the
        K apply as zeros, so no invalid arithmetic runs.
        """
        finite = np.atleast_1d(np.isfinite(x).all(axis=0))
        x = np.where(finite, x, 0.0)
        r, k_norm = self._norm_estimate(x)
        r -= rhs
        r_norm = np.atleast_1d(np.linalg.norm(r, axis=0))
        x_norm = np.atleast_1d(np.linalg.norm(x, axis=0))
        denom = k_norm * x_norm + np.atleast_1d(np.linalg.norm(rhs, axis=0))
        # only b = 0 solved by x = 0 has no scale, and it is solved exactly
        err = np.divide(r_norm, denom, out=np.zeros_like(r_norm), where=denom > 0.0)
        err[~finite] = np.inf
        return err

    def _hessian_factor(self) -> tuple:
        p, pt = self.problem, self.point
        if self._factor is None:
            self._w, h = reduced_hessian_dense(p, pt)
            self._factor = factor_reduced_hessian(h)
            if self._factor is None:
                raise SolveError("KKT elimination: the reduced Hessian is not positive definite")
        return self._factor

    def solve_z(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forward half of the elimination, one state solve per column: with
        S = c_u^{-1}, s = S b_l and the z-block of K^{-1} rhs,
        dz = H^{-1} (b_z - L_zu s + W^T (b_u - L_uu s))."""
        p, pt = self.problem, self.point
        factor = self._hessian_factor()
        self.rhs_columns += rhs.size // self.dim
        b_u, b_z, b_l = self.split(rhs)
        # b_l = 0 (the check of D^T) is solved by s = 0
        s = p.state_jacobian_solve(pt, b_l) if b_l.any() else np.zeros(b_u.shape)
        red = matmul(self._w, b_u - p.l_uu(pt, s), trans_a=True)
        red += b_z
        red -= p.l_zu(pt, s)
        return s, cho_solve(factor, red)

    def solve_from_z(self, w: np.ndarray) -> np.ndarray:
        """K^{-1} P^T w for w in z-space: s = 0, dz = H^{-1} w and the
        backward half, one adjoint solve per column."""
        self.rhs_columns += w.size // self.n_z
        return self._backward(0.0, 0.0, cho_solve(self._hessian_factor(), w))

    def _backward(self, b_u, s, dz: np.ndarray) -> np.ndarray:
        """Backward half: the stacked (du, dz, dl) with du = s + W dz and
        dl = S^T (b_u - L_uu du - L_uz dz)."""
        p, pt = self.problem, self.point
        du = s + matmul(self._w, dz)
        dl = p.state_jacobian_adjoint_solve(pt, b_u - p.l_uu(pt, du) - p.l_uz(pt, dz))
        return np.concatenate([du, dz, dl])

    def stationary_point(self, thetas: np.ndarray) -> list[EvalPoint]:
        """The stationary point at each column of a block ``thetas``
        (n_theta, m) near the base point's theta, by chord (simplified
        Newton) steps x <- x - K^{-1} F(x; theta) from the base point on the
        KKT residual F = (grad_u L, grad_z L, c), with this K (Kelley,
        Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
        ch. 5). A step is one elimination pass: one state and one adjoint
        solve per column, and no W, H or factorization at theta.

        The columns still iterating share each step's pass; a column leaves
        the block once the rule stated at ``CHORD_TOL`` stops it, so the
        block takes as many passes as its slowest column.

        F is evaluated exactly at theta, so the fixed point does not depend
        on K: a wrong K makes the steps contract slowly or diverge, not land
        on a wrong z. Contracting steps stay on the base point's branch of
        stationary points; nothing here certifies the second-order condition
        at theta. A non-finite residual or step in any column, or
        ``CHORD_MAX_STEPS`` steps without every column stopping, raise
        OptimizerError.
        """
        if thetas.ndim != 2:
            raise ValueError(f"stationary_point takes a block (n_theta, m), got {thetas.shape}")
        pt, m_z = self.point, self.problem.spaces.m_z
        m = thetas.shape[1]
        # one column per theta, each contiguous for the evaluation of F
        x = np.asfortranarray(np.repeat(np.concatenate([pt.u, pt.z, pt.lam])[:, None], m, 1))
        live, last = np.arange(m), np.full(m, np.inf)
        noise = CHORD_NOISE * m_z.norm(pt.z)
        for step in range(1, CHORD_MAX_STEPS + 1):
            f = np.column_stack([self._kkt_residual(x[:, j], thetas[:, j]) for j in live])
            if not np.isfinite(f).all():
                raise OptimizerError(f"chord re-solve: non-finite KKT residual at step {step}")
            dx = self._backward(self.split(f)[0], *self.solve_z(f))
            if not np.isfinite(dx).all():
                raise OptimizerError(f"chord re-solve: non-finite step {step}")
            x[:, live] -= dx
            dz_norm = m_z.norms(self.split(dx)[1])
            moved = m_z.norms(self.split(x[:, live])[1] - pt.z[:, None])
            stop = (dz_norm <= CHORD_TOL * moved) | (
                (last <= dz_norm) & (dz_norm <= np.maximum(CHORD_FLOOR * moved, noise))
            )
            live, last, moved = live[~stop], dz_norm[~stop], moved[~stop]
            if not live.size:
                return [EvalPoint(*self.split(x[:, j]), thetas[:, j]) for j in range(m)]
        raise OptimizerError(
            f"chord re-solve did not converge in {CHORD_MAX_STEPS} steps: "
            f"z-correction {last[0]:.3e} after moving {moved[0]:.3e}"
        )

    def _kkt_residual(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """F(x; theta) = (grad_u L, grad_z L, c) at the stacked x."""
        p = self.problem
        u, z, lam = self.split(x)
        q = EvalPoint(u, z, lam, theta)
        return np.concatenate(
            [p.lagrangian_grad_u(q), p.lagrangian_grad_z(q), p.residual(u, z, theta)]
        )


@cache
def _norm_probes(dim: int) -> np.ndarray:
    """The probe block Psi of ``KktOperator._norm_estimate``: it depends on
    the stacked dimension alone, so it is drawn once per dimension and kept
    read-only for every operator of that dimension."""
    probes = rng_for(0, KKT_NORM_STREAM).standard_normal((dim, NORM_PROBES))
    probes.flags.writeable = False
    return probes


class SensitivityOperator:
    """Frechet derivative D = P K^{-1} B of the optimal z with respect to the
    parameters, where B, the negated Lagrangian cross-derivatives in theta,
    is applied by ``b`` and ``b_transpose``.

    ``apply`` and ``apply_transpose`` take a vector or a block of columns. A
    block goes through the KKT elimination ``block_width(n_stacked)`` columns
    at a time, which caps the stacked arrays that one pass forms.
    """

    def __init__(
        self,
        problem: ProblemDefinition,
        point: EvalPoint,
        state_sensitivity: np.ndarray | None = None,
        hessian_factor: tuple | None = None,
    ):
        self.problem = problem
        self.point = point
        self.kkt = KktOperator(problem, point, state_sensitivity, hessian_factor)
        d = problem.dims
        self.n_theta = d.n_theta
        self.n_z = d.n_z

    def b(self, phi: np.ndarray) -> np.ndarray:
        """B phi = -(L_utheta phi, L_ztheta phi, c_theta phi), stacked."""
        p, pt = self.problem, self.point
        return -np.concatenate([p.l_utheta(pt, phi), p.l_ztheta(pt, phi), p.c_theta(pt, phi)])

    def b_transpose(self, w: np.ndarray) -> np.ndarray:
        """B^T w for a stacked w."""
        p, pt = self.problem, self.point
        wu, wz, wl = self.kkt.split(w)
        return -(p.l_utheta_adj(pt, wu) + p.l_ztheta_adj(pt, wz) + p.c_theta_adj(pt, wl))

    def _by_chunks(self, v: np.ndarray, n_out: int, half) -> np.ndarray:
        """``half(columns, gate)`` on a vector, or on a block in chunks of
        ``block_width(n_stacked)`` columns from column 0.

        The operator's first pass checks it: with ``gate`` set, ``half``
        hands the full KKT solution of the chunk's first
        ``min(NORM_PROBES, r)`` columns to one ``KktOperator.solve``, which
        gates it against ``KKT_TOL`` and records its ``SolverStats``. The
        check costs no right-hand side beyond the operator's own, only the
        other half pass on those columns. Every block is chunked alike, so
        the bits of a column do not depend on the blocks applied before it.
        """
        gate = not self.kkt.solve_stats
        if v.ndim == 1:
            return half(v, gate)
        r = v.shape[1]
        width = block_width(self.kkt.dim)
        out = np.empty((n_out, r))
        for start in range(0, r, width):
            stop = start + width
            out[:, start:stop] = half(v[:, start:stop], gate and start == 0)
        return out

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """D phi = P K^{-1} B phi: the forward half, one state solve per column."""
        check_operand(phi, self.n_theta, "sensitivity operator")
        kkt = self.kkt

        def half(c, gate):
            rhs = self.b(c)
            s, dz = kkt.solve_z(rhs)
            if gate:
                i = _checked(c)
                kkt.solve(rhs[i], kkt._backward(kkt.split(rhs[i])[0], s[i], dz[i]))
            return dz

        return self._by_chunks(phi, self.n_z, half)

    def apply_transpose(self, w: np.ndarray) -> np.ndarray:
        """Euclidean transpose D^T w = B^T K^{-1} P^T w: the backward half, one
        adjoint solve per column."""
        check_operand(w, self.n_z, "sensitivity transpose")
        kkt = self.kkt

        def half(c, gate):
            x = kkt.solve_from_z(c)
            if gate:
                i = _checked(c)
                rhs = np.zeros((kkt.dim,) + c[i].shape[1:])
                kkt.split(rhs)[1][...] = c[i]
                kkt.solve(rhs, x[i])
            return self.b_transpose(x)

        return self._by_chunks(w, self.n_theta, half)

    def dense(self) -> np.ndarray:
        """Coordinate matrix of D: the operator applied to the identity block,
        n_theta KKT right-hand sides on every call. n_z is at most
        ``DENSE_THRESHOLD`` wherever an optimal point was found, so only
        n_theta is checked, before any solve."""
        if self.n_theta > DENSE_THRESHOLD:
            raise LinalgError(
                "problem too large to assemble D densely; use the randomized path"
            )
        return self.apply(np.eye(self.n_theta))


def _checked(c: np.ndarray):
    """Index of the columns of a pass that check its operator: all of a
    vector, the first ``NORM_PROBES`` of a block."""
    return np.s_[:, :NORM_PROBES] if c.ndim == 2 else np.s_[:]


class ProjectedSensitivityOperator:
    """Composition D o Pi for a single partition set (coordinate zeroing)."""

    def __init__(self, base: SensitivityOperator, indices: np.ndarray):
        self.base = base
        self.n_theta = base.n_theta
        self.n_z = base.n_z
        mask = np.zeros(base.n_theta)
        mask[indices] = 1.0
        self._mask = mask

    def apply(self, phi: np.ndarray) -> np.ndarray:
        return self.base.apply(as_rows(self._mask, phi) * phi)

    def apply_transpose(self, w: np.ndarray) -> np.ndarray:
        out = self.base.apply_transpose(w)
        return as_rows(self._mask, out) * out
