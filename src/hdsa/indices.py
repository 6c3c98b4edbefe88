"""Local and set sensitivity indices from truncated singular triples."""

from __future__ import annotations

import numpy as np

from .linalg import dense_sym_eig
from .operators import ProjectedSensitivityOperator, SensitivityOperator
from .problems.base import ProblemError, WeightedSpaces
from .randeig import RandEigConfig, Triples, randomized_geneig
from .sampling import SET_PROBE_STREAM


def local_indices(triples: Triples, spaces: WeightedSpaces) -> np.ndarray:
    """Per-coordinate indices S_i = sqrt(sum_k sigma_k^2 ((M_Theta theta_k)_i)^2);
    with no triple (D = 0) every index is 0."""
    return np.sqrt(spaces.m_theta.apply(triples.theta) ** 2 @ triples.sigma**2)


def set_indices(
    triples: Triples,
    spaces: WeightedSpaces,
    mode: str = "truncated",
    sens_op: SensitivityOperator | None = None,
    cfg: RandEigConfig | None = None,
    sample_index: int = 0,
) -> dict[str, float]:
    """Largest directional sensitivity per set of ``spaces.partition``.

    "truncated" uses the rank-K representation: the index for a set is
    sqrt(lambda_max(S)) with S_kl = sigma_k sigma_l (Pi theta_k)^T M_Theta
    (Pi theta_l); over every triple of D's weighted SVD it is
    sigma_1(D o Pi), which is how ``analyze_sample`` takes the direct index
    where it assembles D. "direct" takes sigma_1 of D o Pi from the
    randomized solver on the projected operator (needs ``sens_op`` and
    ``cfg``). With no triple (D = 0) every set reads 0.
    """
    out: dict[str, float] = {}
    if mode == "truncated":
        thetas = triples.theta
        m_thetas = spaces.m_theta.apply(thetas)
        for name, start, stop in spaces.partition.sets:
            # (Pi theta_k)^T M_Theta (Pi theta_l): M block-diagonal over sets,
            # so the projected pairing only sees the set's own block
            gram = thetas[start:stop].T @ m_thetas[start:stop]
            s = np.outer(triples.sigma, triples.sigma) * gram
            evals, _ = dense_sym_eig(0.5 * (s + s.T))
            out[name] = float(np.sqrt(evals.max(initial=0.0)))
        return out
    if mode == "direct":
        if sens_op is None or cfg is None:
            raise ProblemError("direct set-index mode needs the operator and config")
        for set_i, (name, start, stop) in enumerate(spaces.partition.sets):
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
