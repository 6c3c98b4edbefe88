"""Randomized weighted SVD of the sensitivity map.

The singular triples of the sensitivity operator D in the mass-weighted inner
products satisfy D theta_k = sigma_k z_k and D* z_k = sigma_k theta_k, with
D* = M_Theta^{-1} D^T M_Z the weighted adjoint. Both solvers take them from
one Cholesky-based weighted SVD: ``exact_triples`` feeds it D, assembled
where ``svd_path`` says, and ``randomized_geneig`` the projection Q^T M_Z D
onto a sampled range basis Q.
A dense oracle and the n x n squared formulation
D^T M_Z D theta = alpha M_Theta theta are provided for cross-validation.
``apply_pencil_a`` applies the stacked pencil [[0, M_Z D], [D^T M_Z, 0]],
whose positive eigenvalues are the same sigma_k; no solver here uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    LinalgError,
    b_orthonormalize,
    check_operand,
    dense_svd,
    dense_sym_eig,
    matmul,
)
from .operators import SensitivityOperator, fits_dense
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
    # extra passes through D* D to sharpen the sampled range; each pass costs
    # two more KKT right-hand sides per probe. Taken only where the r = min(K
    # + p, n_theta) probes sample fewer directions than n_theta: at r =
    # n_theta the sketch already spans range(D) and a pass cannot change it
    power_iterations: int = 2
    set_index_mode: str = "truncated"  # "truncated" | "direct"

    def __post_init__(self):
        if self.k_pairs < 1:
            raise LinalgError("k_pairs must be at least 1")
        if self.oversampling < 0:
            raise LinalgError("oversampling must be nonnegative")
        if self.n_samples < 1:
            raise LinalgError("n_samples must be at least 1")
        if self.power_iterations < 0:
            raise LinalgError("power_iterations must be nonnegative")
        if self.seed < 0:
            raise LinalgError("seed must be nonnegative")
        if self.set_index_mode not in ("truncated", "direct"):
            raise LinalgError(f"unknown set_index_mode {self.set_index_mode!r}")

    @property
    def n_probes(self) -> int:
        return self.k_pairs + self.oversampling


@dataclass(frozen=True, eq=False)
class Triples:
    """K weighted singular triples of D as one block, with
    D theta[:, k] = sigma[k] z[:, k]."""

    sigma: np.ndarray  # (K,), descending
    theta: np.ndarray  # (n_theta, K), right vectors with unit M_Theta norm
    z: np.ndarray  # (n_z, K), left vectors with unit M_Z norm

    def __len__(self) -> int:
        return self.sigma.shape[0]

    def __getitem__(self, k: slice) -> Triples:
        """The triples at the positions of slice ``k``, as copies: a view
        would keep every column of a sample's full SVD alive."""
        sigma, theta, z = self.sigma[k], self.theta[:, k], self.z[:, k]
        return Triples(sigma.copy(), theta.copy(), z.copy())


@dataclass
class GenEigDiagnostics:
    ritz_values: np.ndarray  # every weighted sigma of the assembled or projected D
    n_dropped: int
    rank_deficient: bool
    # per returned triple: max(||D theta - sigma z||_Z, ||D* z - sigma theta||_Theta)
    # / sigma
    triple_residuals: np.ndarray


def _positive_pairs(evals: np.ndarray, k_pairs: int) -> list[int]:
    max_eval = float(evals[0]) if evals.size else 0.0
    return [
        k for k in range(evals.shape[0])
        if evals[k] > 0.0 and evals[k] > RANK_TOL * max_eval
    ][:k_pairs]


def apply_pencil_a(d: SensitivityOperator, spaces: WeightedSpaces, v: np.ndarray) -> np.ndarray:
    """A (z~, theta~) = (M_Z D theta~, D^T M_Z z~) on a vector or on every
    column of a block; two KKT right-hand sides per column."""
    n_z = d.n_z
    check_operand(v, n_z + d.n_theta, "pencil")
    z_part, th_part = v[:n_z], v[n_z:]
    top = spaces.m_z.apply(d.apply(th_part))
    bottom = d.apply_transpose(spaces.m_z.apply(z_part))
    return np.concatenate([top, bottom])


def _normalized(
    sigma: np.ndarray, theta: np.ndarray, z: np.ndarray, spaces: WeightedSpaces
) -> Triples:
    """The triples with unit M-norm columns, less those with a zero column.

    Signs are fixed: the entry of each theta column largest in magnitude (the
    first of them, on a tie) is positive, and z flips with theta. Eigensolvers
    fix no sign, so without this a change in rounding could flip a reported
    pair of vectors.
    """
    th_n, z_n = spaces.m_theta.norms(theta), spaces.m_z.norms(z)
    live = (th_n != 0.0) & (z_n != 0.0)
    theta, z = theta[:, live] / th_n[live], z[:, live] / z_n[live]
    peak = theta[np.argmax(np.abs(theta), axis=0), np.arange(theta.shape[1])]
    sign = np.where(peak >= 0.0, 1.0, -1.0)
    return Triples(sigma[live], theta * sign, z * sign)


def _weighted_svd(core: np.ndarray, spaces: WeightedSpaces):
    """sigma, U and the theta vectors R_Theta^{-1} V of the SVD
    U diag(sigma) V^T of ``core``, a matrix times R_Theta^{-1}."""
    sig, u, v = dense_svd(core)
    return sig, u, spaces.m_theta.solve_factor(v)


def _leading(every: Triples, k_pairs: int) -> Triples:
    """The first K triples above ``RANK_TOL`` times sigma_1."""
    above = int(np.count_nonzero(every.sigma > RANK_TOL * every.sigma[:1]))
    return every[: min(above, k_pairs)]


def _residuals(
    t: Triples, d_theta: np.ndarray, adj_z: np.ndarray, spaces: WeightedSpaces
) -> np.ndarray:
    """max(||D theta - sigma z||_Z, ||D* z - sigma theta||_Theta) / sigma of
    each triple, given the blocks D Theta and D* Z."""
    r_z = spaces.m_z.norms(d_theta - t.z * t.sigma)
    r_theta = spaces.m_theta.norms(adj_z - t.theta * t.sigma)
    return np.maximum(r_z, r_theta) / t.sigma


def _power_passes(cfg: RandEigConfig, n_theta: int) -> int:
    """``cfg.power_iterations`` where the r = min(K + p, n_theta) probes
    sample fewer directions than n_theta, 0 where they span the parameter
    space (Halko, Martinsson and Tropp 2011 iterate only for r below the
    rank, Alg. 4.3-4.4)."""
    return cfg.power_iterations if cfg.n_probes < n_theta else 0


def randomized_rhs(cfg: RandEigConfig, n_theta: int) -> int:
    """KKT right-hand sides of ``randomized_geneig`` when K triples come out
    and no probe drops: D or D^T applied 2 + 2q times to r = min(K + p,
    n_theta) columns, and D once more to the K triples for their residuals.
    q is ``cfg.power_iterations`` where r < n_theta and 0 where r = n_theta,
    so a complete sketch costs 2 n_theta + K."""
    q = _power_passes(cfg, n_theta)
    return (2 + 2 * q) * min(cfg.n_probes, n_theta) + cfg.k_pairs


def svd_path(cfg: RandEigConfig, n_theta: int, n_z: int) -> str:
    """"exact" where D ``fits_dense`` and assembling it from its narrow
    side, min(n_z, n_theta) KKT right-hand sides, takes no more than the
    ``randomized_rhs`` of the randomized solve; "randomized" otherwise."""
    if fits_dense(n_z, n_theta) and min(n_z, n_theta) <= randomized_rhs(cfg, n_theta):
        return "exact"
    return "randomized"


def randomized_geneig(
    d: SensitivityOperator,
    spaces: WeightedSpaces,
    cfg: RandEigConfig,
    sample_index: int = 0,
    key: tuple[int, ...] | None = None,
) -> tuple[Triples, GenEigDiagnostics]:
    """Randomized weighted SVD of D; returns up to K singular triples.

    Samples Y = D Omega with r = min(K + p, n_theta) standard-normal probes
    keyed by (seed, *key, probe index), ``key = (PROBE_STREAM, sample_index)``
    unless given, so results do not depend on scheduling. Where r < n_theta,
    each of q power passes M_Z-orthonormalizes Y, applies D*,
    M_Theta-orthonormalizes and applies D. Where r = n_theta the probes span
    the parameter space, Y spans range(D) already, and no pass is taken.
    With Q = M_Z-orth(Y) and B^T = D^T M_Z Q, the SVD of
    B R_Theta^{-1} gives z_k = Q u_k and theta_k = R_Theta^{-1} v_k (Halko,
    Martinsson and Tropp 2011, Alg. 4.4 + 5.1; Saibaba, Hart and van Bloemen
    Waanders 2021). Columns that drop for rank cost no further solve. Fewer
    than K singular values above the rank tolerance set the rank flag.
    """
    m_z, m_theta = spaces.m_z, spaces.m_theta
    r = min(cfg.n_probes, d.n_theta)
    key = (PROBE_STREAM, sample_index) if key is None else key

    omega = [probe_vector(cfg.seed, key, i, d.n_theta) for i in range(r)]
    y = d.apply(np.column_stack(omega))
    dropped = 0
    for _ in range(_power_passes(cfg, d.n_theta)):
        q, ndrop_z = b_orthonormalize(y, m_z)
        w, ndrop_th = b_orthonormalize(
            m_theta.solve(d.apply_transpose(m_z.apply(q))), m_theta
        )
        dropped += ndrop_z + ndrop_th
        y = d.apply(w)
    q, ndrop = b_orthonormalize(y, m_z)
    dropped += ndrop

    bt = d.apply_transpose(m_z.apply(q))
    # B R_Theta^{-1} = (R_Theta^-T B^T)^T
    sig, u, theta = _weighted_svd(m_theta.solve_factor(bt, trans=True).T, spaces)
    triples = _leading(_normalized(sig, theta, q @ u, spaces), cfg.k_pairs)
    residuals = np.zeros(0)
    if triples:
        # z_k lies in the range of Q, so D* z_k = M_Theta^{-1} B^T Q^T M_Z z_k
        adj_z = m_theta.solve(bt @ (q.T @ m_z.apply(triples.z)))
        residuals = _residuals(triples, d.apply(triples.theta), adj_z, spaces)
    diag = GenEigDiagnostics(
        ritz_values=sig,
        n_dropped=dropped,
        rank_deficient=len(triples) < cfg.k_pairs,
        triple_residuals=residuals,
    )
    return triples, diag


def _all_triples(dmat: np.ndarray, spaces: WeightedSpaces) -> Triples:
    """Every weighted singular triple of an assembled D, from the SVD of
    R_Z D R_Theta^{-1} with R^T R = M."""
    m_z = spaces.m_z
    core = m_z.apply_factor(spaces.m_theta.solve_factor(dmat.T, trans=True).T)
    sig, u, theta = _weighted_svd(core, spaces)
    return _normalized(sig, theta, m_z.solve_factor(u), spaces)


def exact_triples(
    d: SensitivityOperator, spaces: WeightedSpaces, cfg: RandEigConfig
) -> tuple[Triples, GenEigDiagnostics, Triples]:
    """The first K singular triples of D, its diagnostics, and every triple
    of the same weighted SVD.

    Assembles D from its narrow side, min(n_z, n_theta) KKT right-hand
    sides, where it ``fits_dense`` (``SensitivityOperator.dense``). Triples
    at or below ``RANK_TOL`` times sigma_1 are dropped from the first K,
    with the rank flag set when fewer than K remain. Residuals use the
    assembled matrix and cost no further KKT solve. Every triple spans D,
    so the set Gram of ``set_indices`` over them is sigma_1(D Pi_S).
    """
    dmat = d.dense()
    every = _all_triples(dmat, spaces)
    triples = _leading(every, cfg.k_pairs)
    m_z_z = spaces.m_z.apply(triples.z)
    adj_z = spaces.m_theta.solve(matmul(dmat, m_z_z, trans_a=True))
    residuals = _residuals(triples, matmul(dmat, triples.theta), adj_z, spaces)
    diag = GenEigDiagnostics(
        ritz_values=every.sigma,
        n_dropped=0,
        rank_deficient=len(triples) < cfg.k_pairs,
        triple_residuals=residuals,
    )
    return triples, diag, every


def dense_oracle(d: SensitivityOperator, spaces: WeightedSpaces) -> Triples:
    """Weighted SVD via explicit Cholesky factors: SVD of R_Z D R_Theta^{-1}.

    Builds D from one block of KKT solves on its narrow side and returns
    the full set of singular triples in the weighted inner products.
    """
    return _all_triples(d.dense(), spaces)


def alternative_formulation(
    d: SensitivityOperator,
    spaces: WeightedSpaces,
    cfg: RandEigConfig,
    sample_index: int = 0,
) -> tuple[Triples, GenEigDiagnostics]:
    """Randomized solve of D^T M_Z D theta = alpha M_Theta theta.

    Where r = min(K + p, n_theta) < n_theta, the basis is the
    M_Theta-orthonormalized sketch M_Theta^{-1} D^T M_Z D Omega after q power
    passes. Where r = n_theta, it is the M_Theta-orthonormalized probes
    Omega themselves, which span the parameter space: no sketch and no pass,
    and Rayleigh-Ritz on the whole space. The returned eigenvalues are the
    squares of the primary formulation's singular values; sigma =
    sqrt(alpha). Left vectors are recovered with one more block application
    of the sensitivity operator: z_k = D theta_k / sigma_k. Without drops it
    costs (4 + 2q) r + K KKT right-hand sides where r < n_theta, and
    2 n_theta + K where r = n_theta.
    """
    n_theta = d.n_theta
    r = min(cfg.n_probes, n_theta)
    m_theta, m_z = spaces.m_theta, spaces.m_z

    def apply_a2(mat):
        return d.apply_transpose(m_z.apply(d.apply(mat)))

    key = (SQUARED_PROBE_STREAM, sample_index)
    y = np.column_stack([probe_vector(cfg.seed, key, i, n_theta) for i in range(r)])
    dropped = 0
    if r < n_theta:
        y = m_theta.solve(apply_a2(y))
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
    sigma = np.sqrt(evals[keep])
    thetas = q @ evecs[:, keep]
    th_norms = m_theta.norms(thetas)
    thetas = thetas / th_norms
    # D* D theta_k from the Rayleigh-Ritz block, for the residuals
    adj_images = m_theta.solve(aq @ evecs[:, keep]) / th_norms
    images = d.apply(thetas)
    d_n = m_z.norms(images)
    live = d_n != 0.0
    sigma_l, d_n_l = sigma[live], d_n[live]
    # z_k is parallel to D theta_k, so ||D theta - sigma z||_Z = | ||D theta||_Z - sigma |
    res_th = m_theta.norms(adj_images[:, live] / d_n_l - thetas[:, live] * sigma_l)
    residuals = np.maximum(np.abs(d_n_l - sigma_l), res_th) / sigma_l
    triples = _normalized(sigma, thetas, images, spaces)
    diag = GenEigDiagnostics(
        ritz_values=evals,
        n_dropped=dropped,
        rank_deficient=len(triples) < cfg.k_pairs,
        triple_residuals=residuals,
    )
    return triples, diag
