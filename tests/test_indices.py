import numpy as np
import pytest

from hdsa.indices import local_indices, set_indices
from hdsa.linalg import SpdOperator
from hdsa.operators import SensitivityOperator
from hdsa.optimizer import solve_optimization
from hdsa.problems import (
    ProblemError,
    SetPartition,
    WeightedSpaces,
    build_advdiff_inversion_1d,
)
from hdsa.problems.fem1d import mass_matrix
from hdsa.randeig import RandEigConfig, Triples, dense_oracle


def identity_spaces(n_theta, n_z, partition=None):
    return WeightedSpaces(
        m_theta=SpdOperator.identity(n_theta),
        m_z=SpdOperator.identity(n_z),
        partition=partition,
    )


def unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def rank_one(sigma, theta, z):
    return Triples(np.array([sigma]), theta[:, None], z[:, None])


class TestLocalIndices:
    def test_rank_one_picks_the_active_coordinate(self):
        spaces = identity_spaces(5, 3)
        triples = rank_one(2.0, unit(5, 3), unit(3, 0))
        s = local_indices(triples, spaces)
        np.testing.assert_allclose(s, 2.0 * unit(5, 3), atol=1e-14)

    def test_orthonormal_total_mass(self):
        # with identity weighting and orthonormal right vectors, the squared
        # local indices sum to the squared sigmas
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        sigmas = np.array([3.0, 2.0, 1.0, 0.5])
        spaces = identity_spaces(6, 6)
        triples = Triples(sigmas, q, np.eye(6)[:, :4])
        s = local_indices(triples, spaces)
        assert float(s @ s) == pytest.approx(float(sigmas @ sigmas))

    def test_truncation_is_monotone(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        spaces = identity_spaces(6, 6)
        triples = Triples(np.array([3.0, 2.0, 1.0, 0.5]), q, np.eye(6)[:, :4])
        prev = local_indices(triples[:1], spaces)
        for k in range(2, 5):
            cur = local_indices(triples[:k], spaces)
            assert np.all(cur >= prev - 1e-14)
            prev = cur

    def test_empty_triples_rejected(self):
        with pytest.raises(ProblemError):
            local_indices(
                Triples(np.zeros(0), np.zeros((3, 0)), np.zeros((3, 0))),
                identity_spaces(3, 3),
            )


class TestSetIndices:
    def test_single_covering_set_equals_sigma1(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        part = SetPartition((("all", 0, 6),))
        spaces = identity_spaces(6, 6, part)
        triples = Triples(np.array([3.0, 2.0, 1.0]), q, np.eye(6)[:, :3])
        out = set_indices(triples, spaces, part)
        assert out["all"] == pytest.approx(3.0)

    def test_split_direction_gives_half_mass(self):
        part = SetPartition((("left", 0, 2), ("right", 2, 4)))
        spaces = identity_spaces(4, 4, part)
        th = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
        triples = rank_one(2.0, th, unit(4, 0))
        out = set_indices(triples, spaces, part)
        assert out["left"] == pytest.approx(2.0 * np.sqrt(0.5))
        assert out["right"] == pytest.approx(2.0 * np.sqrt(0.5))

    def test_non_orthogonal_partition_rejected(self):
        part = SetPartition((("a", 0, 2), ("b", 2, 4)))
        spaces = WeightedSpaces(
            m_theta=SpdOperator(mass_matrix(4)),  # tridiagonal coupling
            m_z=SpdOperator.identity(4),
            partition=part,
        )
        triples = rank_one(1.0, unit(4, 0), unit(4, 0))
        with pytest.raises(ProblemError):
            set_indices(triples, spaces, part)

    def test_partition_must_cover(self):
        part = SetPartition((("a", 0, 2),))
        spaces = identity_spaces(4, 4, part)
        triples = rank_one(1.0, unit(4, 0), unit(4, 0))
        with pytest.raises(ProblemError):
            set_indices(triples, spaces, part)

    def test_direct_mode_matches_truncated_full_rank(self):
        problem = build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=5)
        opt = solve_optimization(problem, np.zeros(problem.dims.n_theta))
        sens = SensitivityOperator(problem, opt.as_eval_point())
        triples = dense_oracle(sens, problem.spaces)
        part = problem.spaces.partition
        truncated = set_indices(triples, problem.spaces, part, mode="truncated")
        cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=9, power_iterations=4)
        direct = set_indices(
            triples,
            problem.spaces,
            part,
            mode="direct",
            sens_op=sens,
            cfg=cfg,
        )
        for name in part.names:
            assert direct[name] == pytest.approx(truncated[name], rel=1e-6)
