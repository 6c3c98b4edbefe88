"""1D elliptic diffusion control with an uncertain diffusion coefficient.

min 1/2 ||u - d||_M^2 + gamma/2 ||z||_M^2
s.t. A(theta) u = M z  (linear FE discretization of -(kappa(x; theta) u')' = z
on (0, 1) with homogeneous Dirichlet conditions)

kappa(x; theta) = kappa0 (1 + sum_k a_k theta_k phi_k(x)) with piecewise-linear
basis functions phi_k on a coarser parameter grid, so A is affine in theta.
The amplitude may be a scalar (one a for all k) or per-parameter, which makes
the spectral decay of the sensitivity operator configurable.
"""

from __future__ import annotations

import numpy as np

from ..linalg import SpdOperator, as_rows, solve_tridiagonal
from .base import ProblemDefinition, ProblemDims, ProblemError, SetPartition, WeightedSpaces, number_array
from .fem1d import evaluate_preset, hat_interpolation, mass_band


class DiffusionControlProblem(ProblemDefinition):
    name = "diffusion_control_1d"
    constant_reduced_hessian = True

    def __init__(
        self,
        n_state: int = 64,
        n_param: int = 16,
        gamma: float = 0.01,
        kappa0: float = 1.0,
        amplitude: float | list[float] = 0.2,
        target: dict | None = None,
    ):
        if gamma < 0:
            raise ProblemError("gamma must be nonnegative")
        if kappa0 <= 0:
            raise ProblemError("kappa0 must be positive")
        if n_state < 2:
            raise ProblemError("n_state must be at least 2")
        if n_param < 2:
            raise ProblemError("n_param must be at least 2")
        self.n_state = n_state
        self.n_param = n_param
        self.gamma = gamma
        self.kappa0 = kappa0
        amp = number_array(amplitude, "amplitude")
        if amp.shape == (1,):
            amp = np.full(n_param, amp[0])
        if amp.shape != (n_param,):
            raise ProblemError("amplitude must be a scalar or one value per parameter")
        self.amplitude = amp
        self._dims = ProblemDims(n_u=n_state, n_z=n_state, n_theta=n_param)

        self.h = 1.0 / (n_state + 1)
        self.x_interior = self.h * np.arange(1, n_state + 1)
        self._n_elem = n_state + 1
        midpoints = self.h * (np.arange(self._n_elem) + 0.5)
        # hat-basis values of the parameter expansion at element midpoints
        self._phi_mid = hat_interpolation(midpoints, n_param)

        target = target if target is not None else {"preset": "sine"}
        self.target = evaluate_preset(target, self.x_interior, "target")

        # (theta's bytes, (kappa, band of A)) of the last theta, one attribute
        # so that a reader never pairs one theta's key with another's values
        self._at_theta = (None, None)
        self._spaces = WeightedSpaces(
            m_theta=SpdOperator(band=mass_band(n_param)),
            # the mass matrix of the interior nodes of a Dirichlet grid
            m_z=SpdOperator(band=mass_band(n_state + 2)[:, 1:-1]),
            partition=SetPartition((("kappa", 0, n_param),)),
        )

    # Coefficient handling -------------------------------------------------

    def _coefficients(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """kappa(theta) at the element midpoints and the band of A(theta) as
        ``solve_tridiagonal`` takes it, read-only and kept for the last
        theta: a sample's solves, residuals and c_u applies all read them at
        one theta. A theta where kappa is not positive raises ProblemError
        on every call and is never kept."""
        key = np.asarray(theta, dtype=float).tobytes()
        cached_key, coeffs = self._at_theta
        if key == cached_key:
            return coeffs
        kappa = self.kappa0 * (1.0 + self._phi_mid @ (self.amplitude * theta))
        if np.min(kappa) <= 0.0:
            raise ProblemError(
                "diffusion coefficient is non-positive on the grid (ellipticity lost)"
            )
        ab = np.zeros((3, self.n_state))
        ab[1] = (kappa[:-1] + kappa[1:]) / self.h
        ab[0, 1:] = -kappa[1:-1] / self.h
        ab[2, :-1] = -kappa[1:-1] / self.h
        kappa.flags.writeable = False
        ab.flags.writeable = False
        self._at_theta = (key, (kappa, ab))
        return kappa, ab

    @staticmethod
    def _jumps(u: np.ndarray) -> np.ndarray:
        """Per-element differences of u (vector or columns), zero boundary values."""
        ue = np.zeros((u.shape[0] + 2,) + u.shape[1:])
        ue[1:-1] = u
        return np.diff(ue, axis=0)

    def _apply_stiffness(self, coeff_mid: np.ndarray, u: np.ndarray) -> np.ndarray:
        # either the coefficient or u may be a block of columns
        du = self._jumps(u)
        flux = as_rows(coeff_mid, du) * as_rows(du, coeff_mid) / self.h
        return flux[:-1] - flux[1:]

    def _element_bilinear(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Per-element values of (Delta u)(Delta w)/h, so that
        w^T A_coeff(c) u = sum_e c_e * out_e; u is a vector, w may be a block."""
        return as_rows(self._jumps(u), w) * self._jumps(w) / self.h

    def _coeff_direction(self, v: np.ndarray) -> np.ndarray:
        """Element-midpoint coefficient change for a theta direction (or block)."""
        return self.kappa0 * (self._phi_mid @ (as_rows(self.amplitude, v) * v))

    def _coeff_adjoint(self, g: np.ndarray) -> np.ndarray:
        """Adjoint of ``_coeff_direction`` applied to per-element values."""
        return self.kappa0 * as_rows(self.amplitude, g) * (self._phi_mid.T @ g)

    def stiffness_dense(self, theta: np.ndarray) -> np.ndarray:
        ab = self._coefficients(theta)[1]
        idx = np.arange(self.n_state - 1)
        a = np.diag(ab[1])
        a[idx, idx + 1] = ab[0, 1:]
        a[idx + 1, idx] = ab[2, :-1]
        return a

    def mass_dense(self) -> np.ndarray:
        return self.spaces.m_z.dense()

    # Problem surface -------------------------------------------------------

    def objective(self, u, z, theta) -> float:
        du, m_z = u - self.target, self.spaces.m_z
        return float(0.5 * du @ m_z.apply(du) + 0.5 * self.gamma * z @ m_z.apply(z))

    def residual(self, u, z, theta) -> np.ndarray:
        return self._apply_stiffness(self._coefficients(theta)[0], u) - self.spaces.m_z.apply(z)

    def residual_term_sizes(self, u, z, theta) -> np.ndarray:
        # element e couples its two nodes with weight kappa_e / h in A(theta)
        nodes = np.zeros(self.n_state + 2)
        nodes[1:-1] = np.abs(u)
        elem = self._coefficients(theta)[0] * (nodes[:-1] + nodes[1:]) / self.h
        return elem[:-1] + elem[1:] + self.spaces.m_z.apply(np.abs(z))

    def obj_grad_u(self, u, z, theta) -> np.ndarray:
        return self.spaces.m_z.apply(u - self.target)

    def obj_grad_z(self, u, z, theta) -> np.ndarray:
        return self.gamma * self.spaces.m_z.apply(z)

    def obj_grad_theta(self, u, z, theta) -> np.ndarray:
        return np.zeros(self.n_param)

    def c_u(self, p, v) -> np.ndarray:
        return self._apply_stiffness(self._coefficients(p.theta)[0], v)

    c_u_adj = c_u  # the stiffness matrix is symmetric

    def c_z(self, p, v) -> np.ndarray:
        return -self.spaces.m_z.apply(v)

    c_z_adj = c_z  # M is symmetric

    def c_theta(self, p, v) -> np.ndarray:
        return self._apply_stiffness(self._coeff_direction(v), p.u)

    def c_theta_adj(self, p, w) -> np.ndarray:
        return self._coeff_adjoint(self._element_bilinear(p.u, w))

    def l_uu(self, p, v) -> np.ndarray:
        return self.spaces.m_z.apply(v)

    def l_uz(self, p, v) -> np.ndarray:
        return np.zeros_like(v)

    l_zu = l_uz  # both zero, and n_u = n_z

    def l_zz(self, p, v) -> np.ndarray:
        return self.gamma * self.spaces.m_z.apply(v)

    def l_utheta(self, p, v) -> np.ndarray:
        # d/dtheta (A(theta)^T lam) . v, with A affine in theta
        return self._apply_stiffness(self._coeff_direction(v), p.lam)

    def l_utheta_adj(self, p, w) -> np.ndarray:
        return self._coeff_adjoint(self._element_bilinear(p.lam, w))

    def l_ztheta(self, p, v) -> np.ndarray:
        return np.zeros((self.n_state,) + v.shape[1:])

    def l_ztheta_adj(self, p, w) -> np.ndarray:
        return np.zeros((self.n_param,) + w.shape[1:])

    def state_jacobian_solve(self, p, rhs) -> np.ndarray:
        return solve_tridiagonal(self._coefficients(p.theta)[1], rhs)

    state_jacobian_adjoint_solve = state_jacobian_solve


def build_diffusion_control_1d(**kwargs) -> DiffusionControlProblem:
    return DiffusionControlProblem(**kwargs)
