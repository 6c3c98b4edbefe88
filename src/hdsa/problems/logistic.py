"""Scalar logistic-constraint toy problem with two uncertain parameters.

min (u - 2)^2 + 0.0005 z^2  subject to  u = 1 / (1 + exp(-theta_1 z)) + theta_2.
"""

from __future__ import annotations

import numpy as np

from ..linalg import SpdOperator
from .base import EvalPoint, ProblemDefinition, ProblemDims, SetPartition, WeightedSpaces


def _sigmoid(s: float) -> float:
    if s >= 0:
        return 1.0 / (1.0 + np.exp(-s))
    e = np.exp(s)
    return e / (1.0 + e)


class LogisticToyProblem(ProblemDefinition):
    name = "logistic_toy"

    def __init__(self, corrupt_derivative: bool = False):
        self._dims = ProblemDims(n_u=1, n_z=1, n_theta=2)
        self._spaces = WeightedSpaces(
            m_theta=SpdOperator.identity(2),
            m_z=SpdOperator.identity(1),
            partition=SetPartition((("theta1", 0, 1), ("theta2", 1, 2))),
        )
        # test fixture: deliberately mis-scale one second-derivative block
        self._corrupt = corrupt_derivative

    def objective(self, u, z, theta) -> float:
        return float((u[0] - 2.0) ** 2 + 0.0005 * z[0] ** 2)

    def residual(self, u, z, theta) -> np.ndarray:
        return np.array([u[0] - _sigmoid(theta[0] * z[0]) - theta[1]])

    def residual_term_sizes(self, u, z, theta) -> np.ndarray:
        return np.array([abs(u[0]) + _sigmoid(theta[0] * z[0]) + abs(theta[1])])

    def obj_grad_u(self, u, z, theta) -> np.ndarray:
        return np.array([2.0 * (u[0] - 2.0)])

    def obj_grad_z(self, u, z, theta) -> np.ndarray:
        return np.array([0.001 * z[0]])

    def obj_grad_theta(self, u, z, theta) -> np.ndarray:
        return np.zeros(2)

    # Sigmoid derivatives at the constraint's argument s = theta_1 z.
    def _sig(self, p: EvalPoint):
        s = p.theta[0] * p.z[0]
        sig = _sigmoid(s)
        d1 = sig * (1.0 - sig)
        d2 = d1 * (1.0 - 2.0 * sig)
        return sig, d1, d2

    def c_u(self, p, v) -> np.ndarray:
        return np.array([v[0]])

    c_u_adj = c_u  # every block of this scalar constraint is 1 x 1

    def c_z(self, p, v) -> np.ndarray:
        _, d1, _ = self._sig(p)
        return np.array([-d1 * p.theta[0] * v[0]])

    c_z_adj = c_z

    def c_theta(self, p, v) -> np.ndarray:
        _, d1, _ = self._sig(p)
        return np.array([-d1 * p.z[0] * v[0] - v[1]])

    def c_theta_adj(self, p, w) -> np.ndarray:
        _, d1, _ = self._sig(p)
        return np.array([-d1 * p.z[0] * w[0], -w[0]])

    def l_uu(self, p, v) -> np.ndarray:
        return np.array([2.0 * v[0]])

    def l_uz(self, p, v) -> np.ndarray:
        return np.zeros_like(v)

    l_zu = l_uz  # both zero

    def l_zz(self, p, v) -> np.ndarray:
        _, _, d2 = self._sig(p)
        czz = -d2 * p.theta[0] ** 2
        return np.array([(0.001 + p.lam[0] * czz) * v[0]])

    def _c_ztheta1(self, p: EvalPoint) -> float:
        # d/dtheta_1 of c_z = -(sigma''(s) z theta_1 + sigma'(s))
        _, d1, d2 = self._sig(p)
        val = -(d2 * p.z[0] * p.theta[0] + d1)
        if self._corrupt:
            val *= 1.5
        return val

    def l_utheta(self, p, v) -> np.ndarray:
        return np.zeros((1,) + v.shape[1:])

    def l_utheta_adj(self, p, w) -> np.ndarray:
        return np.zeros((2,) + w.shape[1:])

    def l_ztheta(self, p, v) -> np.ndarray:
        return np.array([p.lam[0] * self._c_ztheta1(p) * v[0]])

    def l_ztheta_adj(self, p, w) -> np.ndarray:
        out = np.zeros((2,) + w.shape[1:])
        out[0] = p.lam[0] * self._c_ztheta1(p) * w[0]
        return out

    def state_jacobian_solve(self, p, rhs) -> np.ndarray:
        return np.array([rhs[0]])

    state_jacobian_adjoint_solve = state_jacobian_solve


def build_logistic_toy(corrupt_derivative: bool = False) -> LogisticToyProblem:
    return LogisticToyProblem(corrupt_derivative=corrupt_derivative)
