"""Randomized generalized eigensolver for the weighted SVD of the sensitivity map.

The singular triples of the sensitivity operator (in the mass-weighted inner
products) are the positive eigenpairs of the symmetric pencil

    A = [[0, M_Z D], [D^T M_Z, 0]],   B = blockdiag(M_Z, M_Theta),

solved by randomized range finding plus Rayleigh-Ritz. Where assembling D
costs fewer KKT right-hand sides than the probes would, ``exact_triples``
takes the weighted SVD of the assembled matrix instead. A dense
Cholesky-based oracle and the n x n squared formulation
D^T M_Z D theta = alpha M_Theta theta are provided for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    DENSE_THRESHOLD,
    LinalgError,
    SpdOperator,
    b_orthonormalize,
    check_operand,
    dense_svd,
    dense_sym_eig,
)
from .operators import SensitivityOperator
from .problems.base import WeightedSpaces
from .sampling import PROBE_STREAM, SQUARED_PROBE_STREAM, probe_vector

# Eigenvalues or singular values at or below this fraction of the largest are
# treated as zero rank.
RANK_TOL = 1e-12


@dataclass
class RandEigConfig:
    k_pairs: int = 4
    oversampling: int = 8
    seed: int = 0
    n_samples: int = 1
    # extra pencil applications to sharpen the captured subspace; each pass
    # costs one more application of B^{-1}A per probe vector
    power_iterations: int = 2
    set_index_mode: str = "truncated"  # "truncated" | "direct"

    def __post_init__(self):
        if self.k_pairs < 1:
            raise LinalgError("k_pairs must be at least 1")
        if self.oversampling < 0:
            raise LinalgError("oversampling must be nonnegative")
        if self.n_samples < 1:
            raise LinalgError("n_samples must be at least 1")
        if self.set_index_mode not in ("truncated", "direct"):
            raise LinalgError(f"unknown set_index_mode {self.set_index_mode!r}")

    @property
    def n_probes(self) -> int:
        return 2 * self.k_pairs + self.oversampling


@dataclass
class SingularTriple:
    sigma: float
    theta_vec: np.ndarray  # right vector, unit M_Theta norm
    z_vec: np.ndarray  # left vector, unit M_Z norm


@dataclass
class GenEigDiagnostics:
    ritz_values: np.ndarray
    n_probes: int
    n_dropped: int
    rank_deficient: bool
    kkt_solves: int  # KktOperator.solve calls
    kkt_rhs: int  # right-hand-side columns of those calls
    # per returned triple: max(||D theta - sigma z||_Z, ||D* z - sigma theta||_Theta)
    # / sigma, with D* = M_Theta^{-1} D^T M_Z the weighted adjoint
    triple_residuals: list[float]


def _kkt_work(d: SensitivityOperator, before: int) -> dict[str, int]:
    stats = d.kkt.solve_stats[before:]
    return {"kkt_solves": len(stats), "kkt_rhs": sum(s.n_rhs for s in stats)}


def _positive_pairs(evals: np.ndarray, k_pairs: int) -> list[int]:
    max_eval = float(evals[0]) if evals.size else 0.0
    return [
        k for k in range(evals.shape[0])
        if evals[k] > 0.0 and evals[k] > RANK_TOL * max_eval
    ][:k_pairs]


class _BlockMass:
    """B = blockdiag(M_Z, M_Theta) on stacked (z, theta) vectors or blocks."""

    def __init__(self, spaces: WeightedSpaces, n_z: int, n_theta: int):
        self.m_z = spaces.m_z
        self.m_theta = spaces.m_theta
        self.n_z = n_z
        self.dim = n_z + n_theta

    def apply(self, v):
        return np.concatenate(
            [self.m_z.apply(v[: self.n_z]), self.m_theta.apply(v[self.n_z :])]
        )

    def solve(self, v):
        return np.concatenate(
            [self.m_z.solve(v[: self.n_z]), self.m_theta.solve(v[self.n_z :])]
        )

    def inner(self, v, w):
        return float(v @ self.apply(w))

    def norm(self, v):
        return float(np.sqrt(max(self.inner(v, v), 0.0)))


def apply_pencil_a(d: SensitivityOperator, spaces: WeightedSpaces, v: np.ndarray) -> np.ndarray:
    """A (z~, theta~) = (M_Z D theta~, D^T M_Z z~) on a vector or on every
    column of a block; two KKT right-hand sides per column."""
    n_z = d.n_z
    check_operand(v, n_z + d.n_theta, "pencil")
    z_part, th_part = v[:n_z], v[n_z:]
    top = spaces.m_z.apply(d.apply(th_part))
    bottom = d.apply_transpose(spaces.m_z.apply(z_part))
    return np.concatenate([top, bottom])


def _fix_sign(t: SingularTriple) -> SingularTriple:
    """The triple with its sign fixed: the entry of theta_vec largest in
    magnitude (the first of them, on a tie) is positive, and z_vec flips with
    theta_vec. Eigensolvers fix no sign, so without this a change in rounding
    could flip a reported pair of vectors."""
    if t.theta_vec[np.argmax(np.abs(t.theta_vec))] >= 0.0:
        return t
    return SingularTriple(t.sigma, -t.theta_vec, -t.z_vec)


def _normalize_triples(
    sigmas: np.ndarray,
    z_vecs: np.ndarray,
    theta_vecs: np.ndarray,
    spaces: WeightedSpaces,
) -> list[SingularTriple]:
    triples = []
    for k in range(sigmas.shape[0]):
        th = theta_vecs[:, k]
        zv = z_vecs[:, k]
        th_n = spaces.m_theta.norm(th)
        z_n = spaces.m_z.norm(zv)
        if th_n == 0.0 or z_n == 0.0:
            continue
        triples.append(
            _fix_sign(SingularTriple(float(sigmas[k]), th / th_n, zv / z_n))
        )
    return triples


def _ritz_triples(
    sigmas: np.ndarray,
    vectors: np.ndarray,
    images: np.ndarray,
    spaces: WeightedSpaces,
) -> tuple[list[SingularTriple], list[float]]:
    """Triples from Ritz vectors (z~, theta~) and their a-posteriori residuals.

    ``images`` holds B^{-1} A of each Ritz vector, that is (D theta~, D* z~),
    so the residuals cost no operator application.
    """
    n_z = spaces.m_z.dim
    triples, residuals = [], []
    for k, sigma in enumerate(sigmas):
        z_t, th_t = vectors[:n_z, k], vectors[n_z:, k]
        z_n, th_n = spaces.m_z.norm(z_t), spaces.m_theta.norm(th_t)
        if th_n == 0.0 or z_n == 0.0:
            continue
        t = SingularTriple(float(sigma), th_t / th_n, z_t / z_n)
        res_z = spaces.m_z.norm(images[:n_z, k] / th_n - t.sigma * t.z_vec)
        res_th = spaces.m_theta.norm(images[n_z:, k] / z_n - t.sigma * t.theta_vec)
        triples.append(_fix_sign(t))
        residuals.append(max(res_z, res_th) / t.sigma)
    return triples, residuals


def randomized_geneig(
    d: SensitivityOperator,
    spaces: WeightedSpaces,
    cfg: RandEigConfig,
    sample_index: int = 0,
    key: tuple[int, ...] | None = None,
) -> tuple[list[SingularTriple], GenEigDiagnostics]:
    """Randomized solve of the pencil; returns up to K singular triples.

    Probes are standard-normal vectors keyed by (seed, *key, probe index),
    with ``key = (PROBE_STREAM, sample_index)`` unless given, so results do
    not depend on scheduling. Each power pass applies the pencil to the whole
    probe block in one call (Halko, Martinsson and Tropp 2011, Alg. 4.3/4.4).
    Fewer than K positive eigenvalues above the rank tolerance yields a
    truncated list with a rank flag.
    """
    n_z, n_theta = d.n_z, d.n_theta
    dim = n_z + n_theta
    # never draw more probes than the pencil has dimensions; small problems
    # then get the exact subspace and a possibly rank-deficient triple list
    r = min(cfg.n_probes, dim)
    b = _BlockMass(spaces, n_z, n_theta)
    solves_before = len(d.kkt.solve_stats)
    key = (PROBE_STREAM, sample_index) if key is None else key

    y = np.column_stack([probe_vector(cfg.seed, key, i, dim) for i in range(r)])
    y = b.solve(apply_pencil_a(d, spaces, y))
    dropped = 0
    for _ in range(cfg.power_iterations):
        y, ndrop = b_orthonormalize(y, b)
        dropped += ndrop
        y = b.solve(apply_pencil_a(d, spaces, y))
    q, ndrop = b_orthonormalize(y, b)
    dropped += ndrop

    aq = apply_pencil_a(d, spaces, q)
    t = q.T @ aq
    evals, evecs = dense_sym_eig(0.5 * (t + t.T))
    keep = _positive_pairs(evals, cfg.k_pairs)
    ritz = evecs[:, keep]
    triples, residuals = _ritz_triples(
        evals[keep], q @ ritz, b.solve(aq @ ritz), spaces
    )
    diag = GenEigDiagnostics(
        ritz_values=evals,
        n_probes=r,
        n_dropped=dropped,
        rank_deficient=len(triples) < cfg.k_pairs,
        triple_residuals=residuals,
        **_kkt_work(d, solves_before),
    )
    return triples, diag


def _weighted_svd(dmat: np.ndarray, spaces: WeightedSpaces) -> list[SingularTriple]:
    """Every singular triple of an assembled D in the weighted inner
    products, from the SVD of R_Z D R_Theta^{-1} with R^T R = M."""
    r_z = spaces.m_z.cholesky()
    r_theta = spaces.m_theta.cholesky()
    # R_Z D R_Theta^{-1} without forming the inverse
    core = r_z @ scipy.linalg.solve_triangular(
        r_theta, dmat.T, lower=False, trans="T"
    ).T
    sig, u, v = dense_svd(core)
    theta_vecs = scipy.linalg.solve_triangular(r_theta, v, lower=False)
    z_vecs = scipy.linalg.solve_triangular(r_z, u, lower=False)
    return _normalize_triples(sig, z_vecs, theta_vecs, spaces)


def _assembled(d: SensitivityOperator) -> np.ndarray:
    """D as a matrix, from one block of KKT solves over the parameter basis."""
    if d.n_z + d.n_theta > DENSE_THRESHOLD:
        raise LinalgError(
            "problem too large to assemble D densely; use the randomized path"
        )
    return d.dense()


def exact_triples(
    d: SensitivityOperator, spaces: WeightedSpaces, cfg: RandEigConfig
) -> tuple[list[SingularTriple], GenEigDiagnostics]:
    """The first K singular triples of D, from its weighted SVD.

    Assembles D from one KKT right-hand side per parameter, so it pays where
    n_theta is at most the randomized solve's right-hand-side count. Triples at
    or below ``RANK_TOL`` times sigma_1 are dropped, with the rank flag set
    when fewer than K remain. Residuals use the assembled matrix and cost no
    further KKT solve.
    """
    solves_before = len(d.kkt.solve_stats)
    dmat = _assembled(d)
    every = _weighted_svd(dmat, spaces)
    triples = [t for t in every if t.sigma > RANK_TOL * every[0].sigma][: cfg.k_pairs]
    m_z, m_theta = spaces.m_z, spaces.m_theta
    residuals = [
        max(
            m_z.norm(dmat @ t.theta_vec - t.sigma * t.z_vec),
            m_theta.norm(
                m_theta.solve(dmat.T @ m_z.apply(t.z_vec)) - t.sigma * t.theta_vec
            ),
        )
        / t.sigma
        for t in triples
    ]
    diag = GenEigDiagnostics(
        ritz_values=np.array([t.sigma for t in every]),
        n_probes=d.n_theta,
        n_dropped=0,
        rank_deficient=len(triples) < cfg.k_pairs,
        triple_residuals=residuals,
        **_kkt_work(d, solves_before),
    )
    return triples, diag


def dense_oracle(d: SensitivityOperator, spaces: WeightedSpaces) -> list[SingularTriple]:
    """Weighted SVD via explicit Cholesky factors: SVD of R_Z D R_Theta^{-1}.

    Builds D from one block of KKT solves over the parameter basis and returns
    the full set of singular triples in the weighted inner products.
    """
    return _weighted_svd(_assembled(d), spaces)


def alternative_formulation(
    d: SensitivityOperator,
    spaces: WeightedSpaces,
    cfg: RandEigConfig,
    sample_index: int = 0,
) -> tuple[list[SingularTriple], GenEigDiagnostics]:
    """Randomized solve of D^T M_Z D theta = alpha M_Theta theta.

    The returned eigenvalues are the squares of the primary formulation's
    singular values; sigma = sqrt(alpha). Left vectors are recovered with one
    more block application of the sensitivity operator: z_k = D theta_k / sigma_k.
    """
    n_theta = d.n_theta
    r = min(cfg.k_pairs + cfg.oversampling, n_theta)
    m_theta, m_z = spaces.m_theta, spaces.m_z
    solves_before = len(d.kkt.solve_stats)

    def apply_a2(mat):
        return d.apply_transpose(m_z.apply(d.apply(mat)))

    key = (SQUARED_PROBE_STREAM, sample_index)
    y = np.column_stack([probe_vector(cfg.seed, key, i, n_theta) for i in range(r)])
    y = m_theta.solve(apply_a2(y))
    dropped = 0
    for _ in range(cfg.power_iterations):
        y, ndrop = b_orthonormalize(y, m_theta)
        dropped += ndrop
        y = m_theta.solve(apply_a2(y))
    q, ndrop = b_orthonormalize(y, m_theta)
    dropped += ndrop

    aq = apply_a2(q)
    t = q.T @ aq
    evals, evecs = dense_sym_eig(0.5 * (t + t.T))
    keep = _positive_pairs(evals, cfg.k_pairs)
    thetas = q @ evecs[:, keep]
    th_norms = np.array([m_theta.norm(thetas[:, k]) for k in range(len(keep))])
    thetas = thetas / th_norms
    # D* D theta_k from the Rayleigh-Ritz block, for the residuals
    adj_images = m_theta.solve(aq @ evecs[:, keep]) / th_norms
    images = d.apply(thetas)

    triples, residuals = [], []
    for k in range(len(keep)):
        sigma = float(np.sqrt(evals[keep[k]]))
        d_n = m_z.norm(images[:, k])
        if d_n == 0.0:
            continue
        triple = SingularTriple(sigma, thetas[:, k], images[:, k] / d_n)
        # z_k is parallel to D theta_k, so ||D theta - sigma z||_Z = | ||D theta||_Z - sigma |
        res_th = m_theta.norm(adj_images[:, k] / d_n - sigma * triple.theta_vec)
        triples.append(_fix_sign(triple))
        residuals.append(max(abs(d_n - sigma), res_th) / sigma)
    diag = GenEigDiagnostics(
        ritz_values=evals,
        n_probes=r,
        n_dropped=dropped,
        rank_deficient=len(triples) < cfg.k_pairs,
        triple_residuals=residuals,
        **_kkt_work(d, solves_before),
    )
    return triples, diag
