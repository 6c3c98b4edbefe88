"""KKT, parameter-Jacobian, and sensitivity operators at an optimal point.

The sensitivity operator maps a parameter perturbation to the first-order
change of the optimal optimization variable: extract the z-block of the KKT
solve against the negated Lagrangian cross-derivatives.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .linalg import DENSE_THRESHOLD, LinalgError, SolveError, SolverStats
from .optimizer import reduced_hessian_dense
from .problems.base import EvalPoint, ProblemDefinition, WeightedSpaces

# A KKT solve has converged when its normwise backward error is at most this.
KKT_TOL = 1e-10


class KktOperator:
    """Symmetric 3x3 block operator of Lagrangian second derivatives.

    Rows: (L_uu, L_uz, c_u^T; L_zu, L_zz, c_z^T; c_u, c_z, 0), evaluated at a
    fixed stationary point. Systems up to ``DENSE_THRESHOLD`` are solved by
    dense LU, larger ones by block elimination through the reduced Hessian;
    ``reduced_hessian`` may pass in the one already assembled at the point.
    """

    def __init__(
        self,
        problem: ProblemDefinition,
        point: EvalPoint,
        reduced_hessian: np.ndarray | None = None,
    ):
        self.problem = problem
        self.point = point
        d = problem.dims
        self.n_u, self.n_z, self.n_lam = d.n_u, d.n_z, d.n_lambda
        self.dim = d.n_stacked
        self._dense_lu = None
        self._dense_scale = None
        # only the elimination path needs the reduced Hessian; it is dropped
        # once factored
        self._reduced_hessian = (
            reduced_hessian if self.dim > DENSE_THRESHOLD else None
        )
        self._schur_cho = None
        self._norm_est = 0.0
        self.solve_stats: list[SolverStats] = []

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            v[: self.n_u],
            v[self.n_u : self.n_u + self.n_z],
            v[self.n_u + self.n_z :],
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.dim,):
            raise LinalgError(f"KKT operator expects length {self.dim}, got {v.shape}")
        p, pt = self.problem, self.point
        du, dz, dl = self.split(v)
        row_u = p.l_uu(pt, du) + p.l_uz(pt, dz) + p.c_u_adj(pt, dl)
        row_z = p.l_zu(pt, du) + p.l_zz(pt, dz) + p.c_z_adj(pt, dl)
        row_l = p.c_u(pt, du) + p.c_z(pt, dz)
        out = np.concatenate([row_u, row_z, row_l])
        v_norm = float(np.linalg.norm(v))
        if v_norm > 0.0:
            # running lower bound on ||K||, used by the backward-error measure
            self._norm_est = max(
                self._norm_est, float(np.linalg.norm(out)) / v_norm
            )
        return out

    def dense(self) -> np.ndarray:
        if self.dim > DENSE_THRESHOLD:
            raise SolveError(
                f"KKT dimension {self.dim} exceeds the dense threshold {DENSE_THRESHOLD}"
            )
        cols = [self.apply(e) for e in np.eye(self.dim)]
        return np.column_stack(cols)

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, SolverStats]:
        if rhs.shape != (self.dim,):
            raise LinalgError(f"KKT solve expects length {self.dim}, got {rhs.shape}")
        if self.dim <= DENSE_THRESHOLD:
            x, stats = self._solve_dense(rhs)
        else:
            x, stats = self._solve_schur(rhs)
        if not stats.converged:
            raise SolveError(
                f"KKT solve did not reach backward error {KKT_TOL:g}: "
                f"{stats.backward_error:.3e} after {stats.iterations} sweeps"
            )
        self.solve_stats.append(stats)
        return x, stats

    def _residual(self, x, rhs) -> float:
        """Normwise backward error ||r|| / (||K||*||x|| + ||b||).

        The plain relative residual is floored at eps * ||K|| * ||x|| / ||b||,
        which for the ill-conditioned gamma -> 0 regime sits far above any
        sensible tolerance; the backward error is the achievable measure.
        """
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return 0.0
        r_norm = float(np.linalg.norm(rhs - self.apply(x)))
        x_norm = float(np.linalg.norm(x))
        return r_norm / (self._norm_est * x_norm + rhs_norm)

    def _solve_dense(self, rhs):
        # symmetric equilibration plus iterative refinement: the KKT blocks
        # mix O(1/h) stiffness with O(h) mass scales, so a raw LU pass can
        # lose most of its digits on the small blocks
        if self._dense_lu is None:
            k = self.dense()
            s = 1.0 / np.sqrt(np.maximum(np.abs(k).max(axis=1), 1e-30))
            self._dense_scale = s
            self._dense_lu = scipy.linalg.lu_factor(s[:, None] * k * s[None, :])
        s = self._dense_scale

        def pass_(b):
            return s * scipy.linalg.lu_solve(self._dense_lu, s * b)

        x = pass_(rhs)
        its = 1
        rel = self._residual(x, rhs)
        while rel > KKT_TOL and its < 10:
            x = x + pass_(rhs - self.apply(x))
            rel = self._residual(x, rhs)
            its += 1
        return x, SolverStats(its, rel, rel <= KKT_TOL)

    def _solve_schur(self, rhs):
        """Block elimination through the (SPD) reduced Hessian.

        With S = c_u^{-1}:
          du = S (b_l - c_z dz)
          dl = S^T (b_u - L_uu du - L_uz dz)
          H_red dz = b_z - L_zu S b_l - c_z^T S^T (b_u - L_uu S b_l)
        """
        x = self._schur_pass(rhs)
        # refinement through the same elimination kills the loss of accuracy
        # from the widely spread block scales
        its = 1
        rel = self._residual(x, rhs)
        while rel > KKT_TOL and its < 5:
            x = x + self._schur_pass(rhs - self.apply(x))
            rel = self._residual(x, rhs)
            its += 1
        return x, SolverStats(its, rel, rel <= KKT_TOL)

    def _schur_pass(self, rhs: np.ndarray) -> np.ndarray:
        p, pt = self.problem, self.point
        if self._schur_cho is None:
            h = self._reduced_hessian
            if h is None:
                h = reduced_hessian_dense(p, pt)
            self._schur_cho = scipy.linalg.cho_factor(h, lower=False)
            self._reduced_hessian = None
        b_u, b_z, b_l = self.split(rhs)
        s_bl = p.state_jacobian_solve(pt, b_l)
        w = b_u - p.l_uu(pt, s_bl)
        st_w = p.state_jacobian_adjoint_solve(pt, w)
        red_rhs = b_z - p.l_zu(pt, s_bl) - p.c_z_adj(pt, st_w)
        dz = scipy.linalg.cho_solve(self._schur_cho, red_rhs)
        du = p.state_jacobian_solve(pt, b_l - p.c_z(pt, dz))
        dl = p.state_jacobian_adjoint_solve(
            pt, b_u - p.l_uu(pt, du) - p.l_uz(pt, dz)
        )
        return np.concatenate([du, dz, dl])


class ParamJacobianOperator:
    """Negated Lagrangian cross-derivative block: theta-direction to stacked space."""

    def __init__(self, problem: ProblemDefinition, point: EvalPoint):
        self.problem = problem
        self.point = point
        d = problem.dims
        self.in_dim = d.n_theta
        self.out_dim = d.n_stacked

    def apply(self, phi: np.ndarray) -> np.ndarray:
        p, pt = self.problem, self.point
        return -np.concatenate(
            [p.l_utheta(pt, phi), p.l_ztheta(pt, phi), p.c_theta(pt, phi)]
        )

    def apply_adjoint(self, w: np.ndarray) -> np.ndarray:
        p, pt = self.problem, self.point
        d = p.dims
        wu = w[: d.n_u]
        wz = w[d.n_u : d.n_u + d.n_z]
        wl = w[d.n_u + d.n_z :]
        return -(
            p.l_utheta_adj(pt, wu) + p.l_ztheta_adj(pt, wz) + p.c_theta_adj(pt, wl)
        )


class SensitivityOperator:
    """Frechet derivative of the optimal z with respect to the parameters."""

    def __init__(
        self,
        problem: ProblemDefinition,
        point: EvalPoint,
        reduced_hessian: np.ndarray | None = None,
    ):
        self.problem = problem
        self.point = point
        self.spaces: WeightedSpaces = problem.spaces
        self.kkt = KktOperator(problem, point, reduced_hessian)
        self.b = ParamJacobianOperator(problem, point)
        d = problem.dims
        self.n_theta = d.n_theta
        self.n_z = d.n_z

    def _z_block(self, v: np.ndarray) -> np.ndarray:
        d = self.problem.dims
        return v[d.n_u : d.n_u + d.n_z]

    def _inject_z(self, w: np.ndarray) -> np.ndarray:
        d = self.problem.dims
        out = np.zeros(d.n_stacked)
        out[d.n_u : d.n_u + d.n_z] = w
        return out

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """D phi = P K^{-1} B phi (one KKT solve)."""
        if phi.shape != (self.n_theta,):
            raise LinalgError(f"expected theta-vector of length {self.n_theta}")
        x, _ = self.kkt.solve(self.b.apply(phi))
        return self._z_block(x)

    def apply_transpose(self, w: np.ndarray) -> np.ndarray:
        """Euclidean transpose D^T w = B^T K^{-1} P^T w (one KKT solve)."""
        if w.shape != (self.n_z,):
            raise LinalgError(f"expected z-vector of length {self.n_z}")
        x, _ = self.kkt.solve(self._inject_z(w))
        return self.b.apply_adjoint(x)

    def dense(self) -> np.ndarray:
        """Coordinate matrix of D, one KKT solve per parameter basis vector."""
        return np.column_stack([self.apply(e) for e in np.eye(self.n_theta)])

    def directional_sensitivity(self, phi: np.ndarray) -> float:
        """||D (phi / ||phi||_Theta)||_Z with the weighted norms."""
        m_theta, m_z = self.spaces.m_theta, self.spaces.m_z
        nrm = m_theta.norm(phi)
        if nrm == 0.0:
            raise LinalgError("directional sensitivity of the zero direction")
        return m_z.norm(self.apply(phi / nrm))


class ProjectedSensitivityOperator:
    """Composition D o Pi for a single partition set (coordinate zeroing)."""

    def __init__(self, base: SensitivityOperator, indices: np.ndarray):
        self.base = base
        self.spaces = base.spaces
        self.kkt = base.kkt
        self.n_theta = base.n_theta
        self.n_z = base.n_z
        mask = np.zeros(base.n_theta)
        mask[indices] = 1.0
        self._mask = mask

    def apply(self, phi: np.ndarray) -> np.ndarray:
        return self.base.apply(self._mask * phi)

    def apply_transpose(self, w: np.ndarray) -> np.ndarray:
        return self._mask * self.base.apply_transpose(w)
