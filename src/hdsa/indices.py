"""Local and set sensitivity indices from truncated singular triples."""

from __future__ import annotations

import numpy as np

from .linalg import dense_sym_eig
from .operators import ProjectedSensitivityOperator, SensitivityOperator
from .problems.base import ProblemError, SetPartition, WeightedSpaces
from .randeig import (
    RandEigConfig,
    Triples,
    _all_triples,
    randomized_geneig,
    svd_path,
)
from .sampling import SET_PROBE_STREAM


def local_indices(triples: Triples, spaces: WeightedSpaces) -> np.ndarray:
    """Per-coordinate indices S_i = sqrt(sum_k sigma_k^2 ((M_Theta theta_k)_i)^2)."""
    if not triples:
        raise ProblemError("local_indices needs at least one singular triple")
    return np.sqrt(spaces.m_theta.apply(triples.theta) ** 2 @ triples.sigma**2)


def _check_partition_orthogonal(
    partition: SetPartition, spaces: WeightedSpaces, tol: float = 1e-12
) -> None:
    m = spaces.m_theta.dense()
    scale = max(float(np.abs(m).max()), 1e-30)
    for i, (_, s1, e1) in enumerate(partition.sets):
        for _, s2, e2 in partition.sets[i + 1 :]:
            if float(np.abs(m[s1:e1, s2:e2]).max()) > tol * scale:
                raise ProblemError(
                    "partition blocks are not mutually M_Theta-orthogonal"
                )


def set_indices(
    triples: Triples,
    spaces: WeightedSpaces,
    partition: SetPartition,
    mode: str = "truncated",
    sens_op: SensitivityOperator | None = None,
    cfg: RandEigConfig | None = None,
    sample_index: int = 0,
) -> dict[str, float]:
    """Largest directional sensitivity per parameter set.

    "truncated" uses the rank-K representation: the index for a set is
    sqrt(lambda_max(S)) with S_kl = sigma_k sigma_l (Pi theta_k)^T M_Theta
    (Pi theta_l). "direct" takes sigma_1 of D o Pi (needs ``sens_op`` and
    ``cfg``): from the assembled D with the other columns zeroed where
    ``svd_path`` assembles D, at no further KKT solve, and from the
    randomized solver on the projected operator otherwise.
    """
    partition.validate_cover(triples.theta.shape[0])
    _check_partition_orthogonal(partition, spaces)
    out: dict[str, float] = {}
    if mode == "truncated":
        if not triples:
            raise ProblemError("set_indices needs at least one singular triple")
        thetas = triples.theta
        m_thetas = spaces.m_theta.apply(thetas)
        for name, start, stop in partition.sets:
            # (Pi theta_k)^T M_Theta (Pi theta_l): M block-diagonal over sets,
            # so the projected pairing only sees the set's own block
            gram = thetas[start:stop].T @ m_thetas[start:stop]
            s = np.outer(triples.sigma, triples.sigma) * gram
            evals, _ = dense_sym_eig(0.5 * (s + s.T))
            out[name] = float(np.sqrt(max(evals[0], 0.0)))
        return out
    if mode == "direct":
        if sens_op is None or cfg is None:
            raise ProblemError("direct set-index mode needs the operator and config")
        dmat = None
        if svd_path(cfg, sens_op.n_z, sens_op.n_theta) == "exact":
            dmat = sens_op.dense()
        for set_i, (name, start, stop) in enumerate(partition.sets):
            if dmat is not None:
                masked = np.zeros_like(dmat)
                masked[:, start:stop] = dmat[:, start:stop]
                out[name] = float(_all_triples(masked, spaces).sigma[0])
                continue
            proj_op = ProjectedSensitivityOperator(sens_op, np.arange(start, stop))
            sub_cfg = RandEigConfig(
                k_pairs=1,
                oversampling=cfg.oversampling,
                seed=cfg.seed,
                power_iterations=max(cfg.power_iterations, 2),
            )
            sub_triples, _ = randomized_geneig(
                proj_op, spaces, sub_cfg, key=(SET_PROBE_STREAM, sample_index, set_i)
            )
            out[name] = float(sub_triples.sigma[0]) if sub_triples else 0.0
        return out
    raise ProblemError(f"unknown set-index mode {mode!r}")
