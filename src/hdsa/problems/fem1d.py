"""1D linear finite element assembly on uniform grids."""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .base import ProblemError, number_array


def mass_matrix(n_nodes: int, length: float = 1.0) -> scipy.sparse.csr_matrix:
    """Consistent mass matrix for linear elements on n_nodes equally spaced nodes."""
    if n_nodes < 2:
        raise ProblemError("mass_matrix needs at least 2 nodes")
    h = length / (n_nodes - 1)
    main = np.full(n_nodes, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    off = np.full(n_nodes - 1, h / 6.0)
    return scipy.sparse.diags([off, main, off], [-1, 0, 1]).tocsr()


def interior_mass_matrix(n_interior: int, length: float = 1.0) -> scipy.sparse.csr_matrix:
    """Mass matrix restricted to the interior nodes of a Dirichlet grid."""
    h = length / (n_interior + 1)
    main = np.full(n_interior, 2.0 * h / 3.0)
    off = np.full(n_interior - 1, h / 6.0)
    return scipy.sparse.diags([off, main, off], [-1, 0, 1]).tocsr()


def stiffness_matrix_neumann(
    n_nodes: int, length: float = 1.0
) -> scipy.sparse.csr_matrix:
    """Stiffness matrix for -u'' with zero-flux boundaries (unit coefficient)."""
    h = length / (n_nodes - 1)
    main = np.full(n_nodes, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n_nodes - 1, -1.0 / h)
    return scipy.sparse.diags([off, main, off], [-1, 0, 1]).tocsr()


def advection_matrix_neumann(n_nodes: int, length: float = 1.0) -> scipy.sparse.csr_matrix:
    """Advection matrix C_ij = integral(phi_i phi_j') for unit velocity."""
    # element contribution for nodes (a, b): [[-1/2, 1/2], [-1/2, 1/2]]
    main = np.zeros(n_nodes)
    lower = np.full(n_nodes - 1, -0.5)
    upper = np.full(n_nodes - 1, 0.5)
    main[0] = -0.5
    main[-1] = 0.5
    return scipy.sparse.diags([lower, main, upper], [-1, 0, 1]).tocsr()


def hat_interpolation(points: np.ndarray, n_nodes: int, length: float = 1.0) -> np.ndarray:
    """Rows evaluate the linear FE interpolant at ``points`` on an n_nodes grid."""
    points = np.asarray(points, dtype=float)
    if np.any(points < 0.0) or np.any(points > length):
        raise ProblemError("evaluation points outside the domain")
    h = length / (n_nodes - 1)
    out = np.zeros((points.shape[0], n_nodes))
    for r, x in enumerate(points):
        e = min(int(x / h), n_nodes - 2)
        t = (x - e * h) / h
        out[r, e] = 1.0 - t
        out[r, e + 1] = t
    return out


_PRESETS = {
    "sine": lambda x, p: p.get("amplitude", 1.0) * np.sin(
        p.get("frequency", 1.0) * np.pi * x
    ),
    "constant": lambda x, p: np.full_like(x, p.get("value", 1.0)),
    "gaussian-bump": lambda x, p: p.get("amplitude", 1.0)
    * np.exp(-((x - p.get("center", 0.5)) ** 2) / (2.0 * p.get("width", 0.05) ** 2)),
    "zero": lambda x, p: np.zeros_like(x),
}


def evaluate_preset(spec: dict, x: np.ndarray, what: str = "preset") -> np.ndarray:
    """Evaluate the named analytic preset ``what`` (sine, constant, gaussian-bump, zero)."""
    if not isinstance(spec, dict) or spec.get("preset") not in _PRESETS:
        raise ProblemError(f"{what} must name a preset of {sorted(_PRESETS)}, got {spec!r}")
    params = {k: v for k, v in spec.items() if k != "preset"}
    number_array(list(params.values()), f"{what} parameters")
    return _PRESETS[spec["preset"]](np.asarray(x, dtype=float), params)
