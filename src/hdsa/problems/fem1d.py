"""1D linear finite element assembly on uniform grids."""

from __future__ import annotations

import numpy as np

from .base import ProblemError, number_array


def _tridiagonal(lower: np.ndarray, main: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Dense matrix with the given sub-, main and super-diagonal."""
    out = np.diag(main)
    out.flat[main.size :: main.size + 1] = lower
    out.flat[1 :: main.size + 1] = upper
    return out


def mass_matrix(n_nodes: int, length: float = 1.0) -> np.ndarray:
    """Consistent mass matrix for linear elements on n_nodes equally spaced nodes."""
    if n_nodes < 2:
        raise ProblemError("mass_matrix needs at least 2 nodes")
    h = length / (n_nodes - 1)
    main = np.full(n_nodes, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    off = np.full(n_nodes - 1, h / 6.0)
    return _tridiagonal(off, main, off)


def interior_mass_matrix(n_interior: int, length: float = 1.0) -> np.ndarray:
    """Mass matrix restricted to the interior nodes of a Dirichlet grid."""
    return mass_matrix(n_interior + 2, length)[1:-1, 1:-1].copy()


def stiffness_matrix_neumann(n_nodes: int, length: float = 1.0) -> np.ndarray:
    """Stiffness matrix for -u'' with zero-flux boundaries (unit coefficient)."""
    h = length / (n_nodes - 1)
    main = np.full(n_nodes, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n_nodes - 1, -1.0 / h)
    return _tridiagonal(off, main, off)


def advection_matrix_neumann(n_nodes: int, length: float = 1.0) -> np.ndarray:
    """Advection matrix C_ij = integral(phi_i phi_j') for unit velocity."""
    # element contribution for nodes (a, b): [[-1/2, 1/2], [-1/2, 1/2]]
    main = np.zeros(n_nodes)
    lower = np.full(n_nodes - 1, -0.5)
    upper = np.full(n_nodes - 1, 0.5)
    main[0] = -0.5
    main[-1] = 0.5
    return _tridiagonal(lower, main, upper)


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


# name -> (the keys the preset reads, with their defaults; its formula)
_PRESETS = {
    "sine": (
        {"amplitude": 1.0, "frequency": 1.0},
        lambda x, p: p["amplitude"] * np.sin(p["frequency"] * np.pi * x),
    ),
    "constant": ({"value": 1.0}, lambda x, p: np.full_like(x, p["value"])),
    "gaussian-bump": (
        {"amplitude": 1.0, "center": 0.5, "width": 0.05},
        lambda x, p: p["amplitude"]
        * np.exp(-((x - p["center"]) ** 2) / (2.0 * p["width"] ** 2)),
    ),
    "zero": ({}, lambda x, p: np.zeros_like(x)),
}


def evaluate_preset(spec: dict, x: np.ndarray, what: str = "preset") -> np.ndarray:
    """Evaluate the named analytic preset ``what`` (sine, constant, gaussian-bump,
    zero); a key the preset does not read is a ``ProblemError`` naming it."""
    if not isinstance(spec, dict) or spec.get("preset") not in _PRESETS:
        raise ProblemError(f"{what} must name a preset of {sorted(_PRESETS)}, got {spec!r}")
    defaults, formula = _PRESETS[spec["preset"]]
    params = {k: v for k, v in spec.items() if k != "preset"}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ProblemError(
            f"{what} preset {spec['preset']!r} does not read {', '.join(unknown)}"
        )
    number_array(list(params.values()), f"{what} parameters")
    return formula(np.asarray(x, dtype=float), {**defaults, **params})
