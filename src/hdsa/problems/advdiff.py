"""Transient 1D advection-diffusion source inversion with backward Euler.

State: concentration at every time step, stacked into one vector. The
stationary spatial source z is active on a fixed time window and recovered
from sparse noisy observations:

min 1/2 sum_{i in obs} ||S c_i - d_i||^2 + alpha/2 z^T M z
s.t. M (c_i - c_{i-1}) + dt A(theta) c_i = dt w_i(theta) M z,  c_0 = 0

A(theta) = eps(theta) K + vel(theta) C with zero-flux boundaries. Uncertain
parameters: a diffusion scalar, a velocity scalar, and the temporal weights of
the source window.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..linalg import SpdOperator
from .base import ProblemDefinition, ProblemDims, ProblemError, SetPartition, WeightedSpaces, number_array
from .fem1d import (
    advection_matrix_neumann,
    evaluate_preset,
    hat_interpolation,
    mass_matrix,
    stiffness_matrix_neumann,
)


class AdvDiffInversionProblem(ProblemDefinition):
    name = "advdiff_inversion_1d"
    constant_reduced_hessian = True

    def __init__(
        self,
        n_space: int = 64,
        n_steps: int = 40,
        t_final: float = 0.5,
        eps0: float = 0.05,
        vel0: float = 1.0,
        diff_amplitude: float = 0.2,
        vel_amplitude: float = 0.2,
        window: tuple[float, float] = (0.05, 0.35),
        n_window: int = 14,
        window_amplitude: float = 0.2,
        alpha: float = 0.0005,
        sensors: list[float] | None = None,
        obs_every: int = 1,
        noise_level: float = 0.03,
        data_seed: int = 2025,
        data_refine: int = 2,
        true_source: dict | None = None,
    ):
        window = number_array(window, "window")
        if eps0 <= 0:
            raise ProblemError("nominal diffusion coefficient must be positive")
        if len(window) != 2 or not (0.0 <= window[0] < window[1] <= t_final):
            raise ProblemError("source window must be two times inside (0, t_final)")
        if n_window < 2:
            raise ProblemError("need at least 2 source-window parameters")
        if min(n_steps, obs_every) < 1 or data_seed < 0:
            raise ProblemError("n_steps and obs_every must be positive, data_seed nonnegative")
        if data_refine < 1:
            raise ProblemError("data_refine must be positive")
        if noise_level < 0 or alpha < 0:
            raise ProblemError("noise_level and alpha must be nonnegative")
        self.n_space = n_space
        self.n_steps = n_steps
        self.t_final = t_final
        self.dt = t_final / n_steps
        self.eps0 = eps0
        self.vel0 = vel0
        self.diff_amplitude = diff_amplitude
        self.vel_amplitude = vel_amplitude
        self.window = window
        self.n_window = n_window
        self.window_amplitude = window_amplitude
        self.alpha = alpha
        self.noise_level = noise_level
        self.data_seed = data_seed

        n_theta = 2 + n_window
        self._dims = ProblemDims(
            n_u=n_space * n_steps, n_z=n_space, n_theta=n_theta, n_lambda=n_space * n_steps
        )
        self.x_nodes = np.linspace(0.0, 1.0, n_space)

        self._mass = mass_matrix(n_space)
        self._stiff = stiffness_matrix_neumann(n_space)
        self._adv = advection_matrix_neumann(n_space)

        # temporal source profile: chi on the window plus hat-basis weights
        times = self.dt * np.arange(1, n_steps + 1)
        self.times = times
        self._chi = ((times >= window[0]) & (times <= window[1])).astype(float)
        psi = np.zeros((n_steps, n_window))
        in_win = self._chi > 0.0
        if not np.any(in_win):
            raise ProblemError("source window contains no time steps")
        win_nodes = np.linspace(window[0], window[1], n_window)
        rel = (times[in_win] - window[0]) / (window[1] - window[0])
        psi[in_win] = hat_interpolation(rel, n_window)
        self._psi = psi
        self._win_nodes = win_nodes

        if sensors is None:
            sensors = list(np.linspace(0.0, 1.0, 11))
        self.sensors = number_array(sensors, "sensors")
        if self.sensors.size == 0:
            raise ProblemError("sensors must name at least one point")
        self._s_obs = hat_interpolation(self.sensors, n_space)
        self.obs_steps = np.arange(0, n_steps, obs_every)  # 0-based step indices
        self.n_sensors = self.sensors.shape[0]

        m_theta = scipy.linalg.block_diag(
            np.eye(2), mass_matrix(n_window, length=window[1] - window[0])
        )
        partition = SetPartition(
            (
                ("diffusion", 0, 1),
                ("velocity", 1, 2),
                ("source_window", 2, n_theta),
            )
        )
        self._spaces = WeightedSpaces(
            m_theta=SpdOperator(m_theta),
            m_z=SpdOperator(self._mass),
            partition=partition,
        )

        true_source = true_source if true_source is not None else {
            "preset": "gaussian-bump",
            "center": 0.3,
            "width": 0.05,
            "amplitude": 1.0,
        }
        self.true_source = evaluate_preset(true_source, self.x_nodes, "true_source")
        self._true_source_spec = dict(true_source)
        self.data = self._generate_data(data_refine)

    # Coefficients -----------------------------------------------------------

    def _coeffs(self, theta: np.ndarray) -> tuple[float, float]:
        eps = self.eps0 * (1.0 + self.diff_amplitude * theta[0])
        vel = self.vel0 * (1.0 + self.vel_amplitude * theta[1])
        if eps <= 0.0:
            raise ProblemError("diffusion coefficient is non-positive for this theta")
        return eps, vel

    def _weights(self, theta: np.ndarray) -> np.ndarray:
        return self._chi + self.window_amplitude * (self._psi @ theta[2:])

    def _system_matrix(self, theta: np.ndarray) -> np.ndarray:
        eps, vel = self._coeffs(theta)
        return self._mass + self.dt * (eps * self._stiff + vel * self._adv)

    def _blocks(self, v: np.ndarray) -> np.ndarray:
        return v.reshape(self.n_steps, self.n_space)

    def _columns(self, v: np.ndarray) -> np.ndarray:
        """Space-time operand (vector or block) as (n_steps, n_space, r)."""
        return v.reshape(self.n_steps, self.n_space, -1)

    def _stacked(self, out: np.ndarray, like: np.ndarray) -> np.ndarray:
        """(n_steps, n_space, r) result shaped like the operand: (n_u,) or (n_u, r)."""
        return out.reshape((self.dims.n_u,) + like.shape[1:])

    def _theta_parts(self, v: np.ndarray):
        """Diffusion and velocity changes (r,) and source weights (n_steps, r)."""
        v = v.reshape(self.dims.n_theta, -1)
        dk = self.eps0 * self.diff_amplitude * v[0]
        dv = self.vel0 * self.vel_amplitude * v[1]
        dw = self.window_amplitude * (self._psi @ v[2:])
        return dk, dv, dw

    # Synthetic data ----------------------------------------------------------

    def _generate_data(self, refine: int) -> np.ndarray:
        nx = refine * (self.n_space - 1) + 1
        x = np.linspace(0.0, 1.0, nx)
        mass = mass_matrix(nx)
        stiff = stiffness_matrix_neumann(nx)
        adv = advection_matrix_neumann(nx)
        g = mass + self.dt * (self.eps0 * stiff + self.vel0 * adv)
        lu = scipy.linalg.lu_factor(g)
        z_true = evaluate_preset(self._true_source_spec, x)
        s_obs = hat_interpolation(self.sensors, nx)
        c = np.zeros(nx)
        data = np.zeros((self.obs_steps.shape[0], self.n_sensors))
        obs_set = {int(s): r for r, s in enumerate(self.obs_steps)}
        for i in range(self.n_steps):
            rhs = mass @ c + self.dt * self._chi[i] * (mass @ z_true)
            c = scipy.linalg.lu_solve(lu, rhs)
            if i in obs_set:
                data[obs_set[i]] = s_obs @ c
        if self.noise_level > 0.0:
            rng = np.random.default_rng(np.random.SeedSequence(self.data_seed))
            data = data + self.noise_level * np.abs(data) * rng.standard_normal(data.shape)
        return data

    # Problem surface ----------------------------------------------------------

    @property
    def dims(self) -> ProblemDims:
        return self._dims

    @property
    def spaces(self) -> WeightedSpaces:
        return self._spaces

    def objective(self, u, z, theta) -> float:
        c = self._blocks(u)
        misfit = 0.0
        for r, i in enumerate(self.obs_steps):
            res = self._s_obs @ c[i] - self.data[r]
            misfit += float(res @ res)
        return 0.5 * misfit + 0.5 * self.alpha * float(z @ (self._mass @ z))

    def residual(self, u, z, theta) -> np.ndarray:
        c = self._blocks(u)
        g = self._system_matrix(theta)
        w = self._weights(theta)
        mz = self._mass @ z
        out = np.empty_like(c)
        prev = np.zeros(self.n_space)
        for i in range(self.n_steps):
            out[i] = g @ c[i] - self._mass @ prev - self.dt * w[i] * mz
            prev = c[i]
        return out.ravel()

    def residual_term_sizes(self, u, z, theta) -> np.ndarray:
        c = np.abs(self._blocks(u))
        mass = np.abs(self._mass)
        out = c @ np.abs(self._system_matrix(theta)).T
        out[1:] += c[:-1] @ mass.T
        out += self.dt * np.abs(self._weights(theta))[:, None] * (mass @ np.abs(z))
        return out.ravel()

    def obj_grad_u(self, u, z, theta) -> np.ndarray:
        c = self._blocks(u)
        out = np.zeros_like(c)
        for r, i in enumerate(self.obs_steps):
            out[i] = self._s_obs.T @ (self._s_obs @ c[i] - self.data[r])
        return out.ravel()

    def obj_grad_z(self, u, z, theta) -> np.ndarray:
        return self.alpha * (self._mass @ z)

    def obj_grad_theta(self, u, z, theta) -> np.ndarray:
        return np.zeros(self.dims.n_theta)

    # Derivative actions take a vector or a block of columns (see
    # ProblemDefinition); all time steps are handled by stacked matmuls.

    def c_u(self, p, v) -> np.ndarray:
        c = self._columns(v)
        out = self._system_matrix(p.theta) @ c
        out[1:] -= self._mass @ c[:-1]
        return self._stacked(out, v)

    def c_u_adj(self, p, w) -> np.ndarray:
        lam = self._columns(w)
        out = self._system_matrix(p.theta).T @ lam
        out[:-1] -= self._mass @ lam[1:]
        return self._stacked(out, w)

    def c_z(self, p, v) -> np.ndarray:
        w = self._weights(p.theta)
        mv = (self._mass @ v).reshape(1, self.n_space, -1)
        return self._stacked(-self.dt * w[:, None, None] * mv, v)

    def c_z_adj(self, p, w) -> np.ndarray:
        lam = self._columns(w)
        wt = self._weights(p.theta)
        out = -self.dt * (self._mass @ np.tensordot(wt, lam, axes=(0, 0)))
        return out.reshape((self.n_space,) + w.shape[1:])

    def c_theta(self, p, v) -> np.ndarray:
        c = self._blocks(p.u)
        dk, dv, dw = self._theta_parts(v)
        mz = self._mass @ p.z
        out = self.dt * (
            (c @ self._stiff.T)[..., None] * dk
            + (c @ self._adv.T)[..., None] * dv
            - dw[:, None, :] * mz[None, :, None]
        )
        return self._stacked(out, v)

    def c_theta_adj(self, p, w) -> np.ndarray:
        c = self._blocks(p.u)
        lam = self._columns(w)
        mz = self._mass @ p.z
        out = np.zeros((self.dims.n_theta, lam.shape[2]))
        out[0] = self.dt * self.eps0 * self.diff_amplitude * np.tensordot(
            c @ self._stiff.T, lam, axes=([0, 1], [0, 1])
        )
        out[1] = self.dt * self.vel0 * self.vel_amplitude * np.tensordot(
            c @ self._adv.T, lam, axes=([0, 1], [0, 1])
        )
        out[2:] = -self.dt * self.window_amplitude * (
            self._psi.T @ np.tensordot(lam, mz, axes=(1, 0))
        )
        return out.reshape((self.dims.n_theta,) + w.shape[1:])

    def l_uu(self, p, v) -> np.ndarray:
        c = self._columns(v)
        out = np.zeros_like(c)
        # S^T (S c) on every observed step: with 11 sensors on 64 nodes this
        # is fewer flops than a precomputed S^T S
        out[self.obs_steps] = self._s_obs.T @ (self._s_obs @ c[self.obs_steps])
        return self._stacked(out, v)

    def l_uz(self, p, v) -> np.ndarray:
        return np.zeros((self.dims.n_u,) + v.shape[1:])

    def l_zu(self, p, v) -> np.ndarray:
        return np.zeros((self.dims.n_z,) + v.shape[1:])

    def l_zz(self, p, v) -> np.ndarray:
        return self.alpha * (self._mass @ v)

    def l_utheta(self, p, v) -> np.ndarray:
        lam = self._blocks(p.lam)
        dk, dv, _ = self._theta_parts(v)
        out = self.dt * (
            (lam @ self._stiff)[..., None] * dk + (lam @ self._adv)[..., None] * dv
        )
        return self._stacked(out, v)

    def l_utheta_adj(self, p, w) -> np.ndarray:
        lam = self._blocks(p.lam)
        wb = self._columns(w)
        out = np.zeros((self.dims.n_theta, wb.shape[2]))
        out[0] = self.dt * self.eps0 * self.diff_amplitude * np.tensordot(
            lam @ self._stiff, wb, axes=([0, 1], [0, 1])
        )
        out[1] = self.dt * self.vel0 * self.vel_amplitude * np.tensordot(
            lam @ self._adv, wb, axes=([0, 1], [0, 1])
        )
        return out.reshape((self.dims.n_theta,) + w.shape[1:])

    def l_ztheta(self, p, v) -> np.ndarray:
        lam = self._blocks(p.lam)
        _, _, dw = self._theta_parts(v)
        out = -self.dt * (self._mass @ (lam.T @ dw))
        return out.reshape((self.n_space,) + v.shape[1:])

    def l_ztheta_adj(self, p, w) -> np.ndarray:
        lam = self._blocks(p.lam)
        mv = (self._mass @ w).reshape(self.n_space, -1)
        out = np.zeros((self.dims.n_theta, mv.shape[1]))
        out[2:] = -self.dt * self.window_amplitude * (self._psi.T @ (lam @ mv))
        return out.reshape((self.dims.n_theta,) + w.shape[1:])

    # One factorization of G(theta) per call; every column of the block is
    # stepped through the time levels together by LAPACK getrs, called
    # directly: scipy's lu_solve would add its batching, dtype dispatch and
    # finiteness check on each of the n_steps levels. The adjoint runs
    # backwards in time on the same factor, transposed.

    def state_jacobian_solve(self, p, rhs) -> np.ndarray:
        return self._step_levels(p, rhs, trans=0)

    def state_jacobian_adjoint_solve(self, p, rhs) -> np.ndarray:
        return self._step_levels(p, rhs, trans=1)

    def _step_levels(self, p, rhs, trans: int) -> np.ndarray:
        _check_finite(rhs)
        b = self._columns(rhs)
        lu, piv = scipy.linalg.lu_factor(self._system_matrix(p.theta))
        (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))

        def solve(v, overwrite_b):
            x, info = getrs(lu, piv, v, trans=trans, overwrite_b=overwrite_b)
            if info != 0:
                raise ValueError(f"illegal value in {-info}th argument of internal getrs")
            return x

        step = -1 if trans else 1
        levels = range(self.n_steps)[::step]
        out = np.empty_like(b)
        # the first level's b is a view into the caller's rhs, so getrs works
        # on a copy; every later level solves a temporary in place
        out[levels[0]] = solve(b[levels[0]], overwrite_b=0)
        for i in levels[1:]:
            out[i] = solve(b[i] + self._mass @ out[i - step], overwrite_b=1)
        # a non-finite intermediate carries through to the result, so this
        # one check covers every level
        _check_finite(out)
        return self._stacked(out, rhs)


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def build_advdiff_inversion_1d(**kwargs) -> AdvDiffInversionProblem:
    return AdvDiffInversionProblem(**kwargs)
