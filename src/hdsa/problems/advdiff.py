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

from ..linalg import SpdOperator, check_finite, lu_factor, lu_solve
from .base import ProblemDefinition, ProblemDims, ProblemError, SetPartition, WeightedSpaces, number_array
from .fem1d import (
    advection_matrix_neumann,
    evaluate_preset,
    hat_interpolation,
    mass_band,
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
        self._dims = ProblemDims(n_u=n_space * n_steps, n_z=n_space, n_theta=n_theta)
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

        # I_2 (+) the window's mass matrix, in upper band storage
        m_theta = np.hstack([[[0.0, 0.0], [1.0, 1.0]], mass_band(n_window, window[1] - window[0])])
        self._spaces = WeightedSpaces(
            m_theta=SpdOperator(band=m_theta),
            m_z=SpdOperator(band=mass_band(n_space)),
            partition=SetPartition(
                (("diffusion", 0, 1), ("velocity", 1, 2), ("source_window", 2, n_theta))
            ),
        )

        true_source = true_source if true_source is not None else {
            "preset": "gaussian-bump",
            "center": 0.3,
            "width": 0.05,
            "amplitude": 1.0,
        }
        self.true_source = evaluate_preset(true_source, self.x_nodes, "true_source")
        self._true_source_spec = dict(true_source)
        # (key, propagators) of the last G(theta) stepped with, one attribute
        # so that a reader never pairs one theta's key with another's matrices
        self._stepper = (None, None)
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

    def _propagators_at(self, theta: np.ndarray):
        """The forward and the adjoint ``_propagators`` of G(theta), from one
        LU, kept for the last theta. G reads only theta's diffusion and
        velocity entries, so their bytes are the key."""
        key = np.asarray(theta, dtype=float)[:2].tobytes()
        cached_key, props = self._stepper
        if key != cached_key:
            lu = lu_factor(self._system_matrix(theta))
            props = tuple(_propagators(lu, self._mass, trans) for trans in (0, 1))
            self._stepper = (key, props)
        return props

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
        """Sensor readings of the true source at nominal theta, stepped by the
        state solve's own stepper on a mesh ``refine`` times finer."""
        nx = refine * (self.n_space - 1) + 1
        mass = mass_matrix(nx)
        stiff = stiffness_matrix_neumann(nx)
        adv = advection_matrix_neumann(nx)
        g = mass + self.dt * (self.eps0 * stiff + self.vel0 * adv)
        x_fine = np.linspace(0.0, 1.0, nx)
        source = mass @ evaluate_preset(self._true_source_spec, x_fine, "true_source")
        b = (self.dt * self._chi)[:, None, None] * source[:, None]
        c = _step_levels(_propagators(lu_factor(g), mass, 0), b, trans=0)
        data = (hat_interpolation(self.sensors, nx) @ c[self.obs_steps])[..., 0]
        if self.noise_level > 0.0:
            rng = np.random.default_rng(np.random.SeedSequence(self.data_seed))
            data = data + self.noise_level * np.abs(data) * rng.standard_normal(data.shape)
        return data

    # Problem surface ----------------------------------------------------------

    # The evaluations below state the model on their own, not through the
    # derivative actions, so ``check_derivatives`` differences an independent
    # statement of it. Each product of a matrix with the (n_steps, n, 1)
    # stack of states runs one matrix-vector product per step.

    def _misfit(self, u) -> np.ndarray:
        """S c_i - d_i on every observed step, one row per observation."""
        c = self._blocks(u)[self.obs_steps, :, None]
        return (self._s_obs @ c)[..., 0] - self.data

    def objective(self, u, z, theta) -> float:
        misfit = sum(float(res @ res) for res in self._misfit(u))
        return 0.5 * misfit + 0.5 * self.alpha * float(z @ (self._mass @ z))

    def residual(self, u, z, theta) -> np.ndarray:
        c = self._blocks(u)[..., None]
        out = self._system_matrix(theta) @ c
        out[1:] -= self._mass @ c[:-1]
        out -= (self.dt * self._weights(theta))[:, None, None] * (self._mass @ z)[:, None]
        return out.ravel()

    def residual_term_sizes(self, u, z, theta) -> np.ndarray:
        c = np.abs(self._blocks(u))
        mass = np.abs(self._mass)
        out = c @ np.abs(self._system_matrix(theta)).T
        out[1:] += c[:-1] @ mass.T
        out += self.dt * np.abs(self._weights(theta))[:, None] * (mass @ np.abs(z))
        return out.ravel()

    def obj_grad_u(self, u, z, theta) -> np.ndarray:
        out = np.zeros((self.n_steps, self.n_space))
        out[self.obs_steps] = (self._s_obs.T @ self._misfit(u)[..., None])[..., 0]
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

    def state_jacobian_solve(self, p, rhs) -> np.ndarray:
        props = self._propagators_at(p.theta)[0]
        return self._stacked(_step_levels(props, self._columns(rhs), 0), rhs)

    def state_jacobian_adjoint_solve(self, p, rhs) -> np.ndarray:
        props = self._propagators_at(p.theta)[1]
        return self._stacked(_step_levels(props, self._columns(rhs), 1), rhs)


def _propagators(lu, mass: np.ndarray, trans: int):
    """(G^-1, G^-1 M), the backward Euler step as products, or with ``trans``
    the adjoint step's (G^-T, G^-T M): one getrs on [I | M] with ``lu``, the
    ``lu_factor`` of G. Read-only."""
    n = mass.shape[0]
    x = lu_solve(lu, np.hstack([np.eye(n), mass]), trans)
    x.flags.writeable = False
    return x[:, :n], x[:, n:]


def _step_levels(props, b: np.ndarray, trans: int) -> np.ndarray:
    """Backward Euler levels c_i = G^-1 b_i + P c_{i-1} from c_0 = 0, with
    ``props`` = (G^-1, P = G^-1 M), for every column of the (n_steps, n, r)
    block ``b``; with ``trans`` and (G^-T, G^-T M) the adjoint levels
    l_i = G^-T b_i + G^-T M l_{i+1}, backwards in time from l_{n_steps+1} = 0.

    G^-1 b goes over all levels in one stacked product, then each level adds
    one product with P. A product that overflows leaves an inf or a NaN where
    getrs would have, without numpy's warning; the check at the end covers
    every level, since a non-finite intermediate carries through to it.
    """
    g_inv, prop = props
    check_finite(b)
    step = -1 if trans else 1
    levels = range(b.shape[0])[::step]
    with np.errstate(over="ignore", invalid="ignore"):
        out = g_inv @ b
        for i in levels[1:]:
            out[i] += prop @ out[i - step]
    check_finite(out)
    return out


def build_advdiff_inversion_1d(**kwargs) -> AdvDiffInversionProblem:
    return AdvDiffInversionProblem(**kwargs)
