"""Checks of an `hdsa run` bundle against references computed apart from it.

(a) Finite differences of the solution map: re-solve the optimization at
    theta +- h theta_k and compare the centred difference of z_opt with
    sigma_k z_k in the M_Z norm, for the top two triples of sample 0.
(b) Diffusion problems only: an independent dense solve of the reduced
    normal equations gives z_opt, and a dense weighted SVD of its
    finite-difference Jacobian gives sigma_1..sigma_K.
(c) Properties the method must have: sigma positive and non-increasing,
    M_Theta- and M_Z-orthonormal vectors, set indices at most sigma_1, and
    no failed samples.

Each check returns rows ``(reason, passed, detail)``; ``reason`` names the
check in an operation's failure list.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.linalg

# Gates. (b)'s sigma gate is the one `hdsa verify` applies to its own oracle.
FD_STEP = 1e-4
FD_SOLUTION_MAP_TOL = 1e-4
DENSE_Z_TOL = 1e-9
DENSE_SIGMA_TOL = 1e-6
ORTHONORMAL_TOL = 1e-8


def snapshot(bundle: Path) -> dict[str, bytes]:
    """Every file of a bundle; the manifest without its wall-clock time."""
    out = {}
    for path in sorted(bundle.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("wall_clock_seconds", None)
            data = json.dumps(doc, sort_keys=True).encode()
        out[path.name] = data
    return out


def bundle_bytes(bundle: Path) -> int:
    return sum(p.stat().st_size for p in bundle.iterdir())


class Bundle:
    """The numbers of one bundle, keyed by sample index."""

    def __init__(self, path: Path):
        self.report = json.loads((path / "report.json").read_text())
        self.sigma = self._series(path / "singular_values.csv")
        self.theta_vecs = self._vectors(path / "singular_vectors_theta.csv")
        self.z_vecs = self._vectors(path / "singular_vectors_z.csv")
        self.z_opt = self._series(path / "optimal_z.csv")
        self.sets = defaultdict(dict)
        for j, name, value in self._rows(path / "set_indices.csv"):
            self.sets[int(j)][name] = float(value)
        self.theta = {s["j"]: np.array(s["theta"]) for s in self.report["samples"]}

    @staticmethod
    def _rows(path: Path):
        with path.open(newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            yield from rows

    def _series(self, path: Path) -> dict[int, np.ndarray]:
        acc = defaultdict(list)
        for j, _i, value in self._rows(path):
            acc[int(j)].append(float(value))
        return {j: np.array(v) for j, v in acc.items()}

    def _vectors(self, path: Path) -> dict[int, np.ndarray]:
        """Sample j -> matrix whose column k is vector k."""
        acc = defaultdict(lambda: defaultdict(list))
        for j, k, _i, value in self._rows(path):
            acc[int(j)][int(k)].append(float(value))
        return {j: np.column_stack([cols[k] for k in sorted(cols)])
                for j, cols in acc.items()}


def _m_norm(m: np.ndarray, v: np.ndarray) -> float:
    return float(np.sqrt(max(v @ m @ v, 0.0)))


def check_fd_solution_map(problem, optimizer_cfg, bundle: Bundle) -> list[tuple]:
    """(a) centred differences of re-solved z_opt against sigma_k z_k."""
    from hdsa.optimizer import OptimizerConfig, OptimizerError, solve_optimization
    from hdsa.sampling import InitialIterate

    # SOSC was certified at the base point; the re-solves only need z_opt.
    cfg = OptimizerConfig(**{**vars(optimizer_cfg), "check_sosc": False})
    m_z = problem.spaces.m_z.dense()
    theta, z0 = bundle.theta[0], bundle.z_opt[0]
    worst = 0.0
    n_top = min(2, len(bundle.sigma[0]))
    for k in range(n_top):
        direction = bundle.theta_vecs[0][:, k]
        moved = []
        for sign in (1.0, -1.0):
            warm = InitialIterate(np.zeros(problem.dims.n_u), z0.copy())
            try:
                opt = solve_optimization(
                    problem, theta + sign * FD_STEP * direction, warm, cfg
                )
            except OptimizerError as exc:
                return [("check-a fd-solution-map", False, f"re-solve failed: {exc}")]
            moved.append(opt.z0)
        fd = (moved[0] - moved[1]) / (2.0 * FD_STEP)
        sigma = bundle.sigma[0][k]
        err = _m_norm(m_z, fd - sigma * bundle.z_vecs[0][:, k]) / sigma
        worst = max(worst, err)
    return [(
        "check-a fd-solution-map",
        worst <= FD_SOLUTION_MAP_TOL,
        f"max |FD dz - sigma_k z_k|_Z / sigma_k = {worst:.2e} over top {n_top} "
        f"triples of sample 0 (gate {FD_SOLUTION_MAP_TOL:g})",
    )]


def _tridiagonal_bands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = a.shape[0]
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    if np.any(a[~band] != 0.0):
        raise ValueError("expected a tridiagonal matrix")
    return np.diag(a).copy(), np.diag(a, 1).copy()


def _tridiag_matmul(diag, upper, x):
    """Symmetric tridiagonal matrix times the columns of x."""
    out = diag[:, None] * x
    out[:-1] += upper[:, None] * x[1:]
    out[1:] += upper[:, None] * x[:-1]
    return out


def dense_z_opt(problem, theta: np.ndarray) -> np.ndarray:
    """z_opt of the diffusion control problem by a dense solve.

    With u = A^-1 M z, the reduced normal equations
    (M A^-1 M A^-1 M + gamma M) z = M A^-1 M d, multiplied by A M^-1,
    read (M A^-1 M + gamma A) z = M d.
    """
    a = problem.stiffness_dense(theta)
    m = problem.mass_dense()
    a_diag, a_up = _tridiagonal_bands(a)
    m_diag, m_up = _tridiagonal_bands(m)
    ab = np.vstack([np.concatenate(([0.0], a_up)), a_diag])
    a_inv_m = scipy.linalg.solveh_banded(ab, m)
    normal = _tridiag_matmul(m_diag, m_up, a_inv_m) + problem.gamma * a
    rhs = _tridiag_matmul(m_diag, m_up, problem.target[:, None])[:, 0]
    return scipy.linalg.solve(0.5 * (normal + normal.T), rhs, assume_a="pos")


def check_dense_reference(problem, bundle: Bundle) -> list[tuple]:
    """(b) z_opt and sigma_1..sigma_K of every sample against dense references."""
    r_z = scipy.linalg.cholesky(problem.spaces.m_z.dense())
    r_theta = scipy.linalg.cholesky(problem.spaces.m_theta.dense())
    n_theta = problem.dims.n_theta
    worst_z = worst_sigma = 0.0
    for j, theta in bundle.theta.items():
        z = dense_z_opt(problem, theta)
        worst_z = max(worst_z, float(np.linalg.norm(r_z @ (bundle.z_opt[j] - z))
                                     / np.linalg.norm(r_z @ z)))
        jac = np.column_stack([
            (dense_z_opt(problem, theta + FD_STEP * e)
             - dense_z_opt(problem, theta - FD_STEP * e)) / (2.0 * FD_STEP)
            for e in np.eye(n_theta)
        ])
        # weighted SVD: singular values of R_Z J R_Theta^-1
        core = scipy.linalg.solve_triangular(r_theta, (r_z @ jac).T, trans="T").T
        ref = scipy.linalg.svdvals(core)
        got = bundle.sigma[j]
        worst_sigma = max(worst_sigma, float(np.max(np.abs(got - ref[: got.size])
                                                    / ref[: got.size])))
    n = len(bundle.theta)
    return [
        ("check-b z-dense-solve", worst_z <= DENSE_Z_TOL,
         f"max relative |z_opt - z_dense|_Z = {worst_z:.2e} over {n} samples "
         f"(gate {DENSE_Z_TOL:g})"),
        ("check-b sigma-dense-svd", worst_sigma <= DENSE_SIGMA_TOL,
         f"max relative sigma error against the dense SVD = {worst_sigma:.2e} "
         f"over {n} samples (gate {DENSE_SIGMA_TOL:g})"),
    ]


def check_properties(problem, bundle: Bundle) -> list[tuple]:
    """(c) positivity, ordering, orthonormality, set-index bound, no failures."""
    m_theta = problem.spaces.m_theta.dense()
    m_z = problem.spaces.m_z.dense()
    ordered, ortho, bounded = True, 0.0, True
    for j, sigma in bundle.sigma.items():
        ordered &= bool(np.all(sigma > 0.0) and np.all(np.diff(sigma) <= 0.0))
        for vecs, m in ((bundle.theta_vecs[j], m_theta), (bundle.z_vecs[j], m_z)):
            gram = vecs.T @ m @ vecs
            ortho = max(ortho, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
        bounded &= all(v <= sigma[0] * (1.0 + 1e-12) for v in bundle.sets[j].values())
    n_failures = bundle.report["n_failures"]
    return [
        ("check-c sigma-order", ordered, "sigma positive and non-increasing"),
        ("check-c orthonormal", ortho <= ORTHONORMAL_TOL,
         f"max |V^T M V - I| = {ortho:.2e} (gate {ORTHONORMAL_TOL:g})"),
        ("check-c set-bound", bounded, "every set index <= sigma_1"),
        ("check-c no-failures", n_failures == 0, f"n_failures = {n_failures}"),
    ]


def check_bundle(cfg, problem, path: Path) -> list[tuple]:
    """All reference checks that apply to the bundle's problem."""
    bundle = Bundle(path)
    rows = check_properties(problem, bundle)
    rows += check_fd_solution_map(problem, cfg.optimizer, bundle)
    if cfg.problem_name == "diffusion_control_1d":
        rows += check_dense_reference(problem, bundle)
    return rows
