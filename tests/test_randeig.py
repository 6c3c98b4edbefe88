from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import hdsa.operators as operators
import hdsa.randeig as randeig
from hdsa.indices import set_indices
from hdsa.linalg import LinalgError, SpdOperator
from hdsa.operators import KKT_TOL, NORM_PROBES, SensitivityOperator
from hdsa.optimizer import solve_optimization
from hdsa.problems import (
    build_advdiff_inversion_1d,
    build_diffusion_control_1d,
    build_logistic_toy,
)
from hdsa.problems.base import SetPartition, WeightedSpaces
from hdsa.randeig import (
    RandEigConfig,
    alternative_formulation,
    apply_pencil_a,
    dense_oracle,
    exact_triples,
    randomized_geneig,
)
from hdsa.sampling import Distribution, SamplingPlan


def kkt_work_of(solver, sens, *args, **kwargs):
    """``solver(sens, *args, **kwargs)``, and the KKT solve calls and
    right-hand-side columns it added to ``sens.kkt.work()``, the one count
    of an operator's KKT work."""
    solves, rhs = sens.kkt.work()
    out = solver(sens, *args, **kwargs)
    solves_after, rhs_after = sens.kkt.work()
    return out, (solves_after - solves, rhs_after - rhs)


@pytest.fixture(scope="module")
def diffusion_sens():
    problem = build_diffusion_control_1d(n_state=32, n_param=8)
    rng = np.random.default_rng(0)
    theta = 0.2 * rng.standard_normal(8)
    opt = solve_optimization(problem, theta)
    return problem, SensitivityOperator(problem, opt.as_eval_point())


@pytest.fixture(scope="module")
def logistic_sens():
    problem = build_logistic_toy()
    opt = solve_optimization(problem, np.array([0.5, 0.5]))
    return problem, SensitivityOperator(problem, opt.as_eval_point())


class TestPencil:
    def test_zero_maps_to_zero(self, diffusion_sens):
        problem, sens = diffusion_sens
        v = np.zeros(sens.n_z + sens.n_theta)
        np.testing.assert_allclose(apply_pencil_a(sens, problem.spaces, v), 0.0)

    def test_pencil_is_symmetric(self, diffusion_sens):
        problem, sens = diffusion_sens
        rng = np.random.default_rng(1)
        dim = sens.n_z + sens.n_theta
        v = rng.standard_normal(dim)
        w = rng.standard_normal(dim)
        lhs = float(apply_pencil_a(sens, problem.spaces, v) @ w)
        rhs = float(v @ apply_pencil_a(sens, problem.spaces, w))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


class TestDenseOracle:
    def test_identity_weighting_reduces_to_plain_svd(self, logistic_sens):
        problem, sens = logistic_sens
        triples = dense_oracle(sens, problem.spaces)
        d = sens.dense()
        s = np.linalg.svd(d, compute_uv=False)
        assert len(triples) == 1
        assert triples.sigma[0] == pytest.approx(s[0], rel=1e-12)

    def test_weighted_residual_identity(self, diffusion_sens):
        problem, sens = diffusion_sens
        triples = dense_oracle(sens, problem.spaces)
        m_z = problem.spaces.m_z
        sigma1 = triples.sigma[0]
        for k in range(4):
            r = sens.apply(triples.theta[:, k]) - triples.sigma[k] * triples.z[:, k]
            assert m_z.norm(r) <= 1e-8 * sigma1

    def test_vectors_unit_norm(self, diffusion_sens):
        problem, sens = diffusion_sens
        triples = dense_oracle(sens, problem.spaces)
        for k in range(len(triples)):
            assert problem.spaces.m_theta.norm(triples.theta[:, k]) == pytest.approx(1.0)
            assert problem.spaces.m_z.norm(triples.z[:, k]) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "assemble",
        [
            lambda sens, spaces: sens.dense(),
            lambda sens, spaces: exact_triples(sens, spaces, RandEigConfig()),
            dense_oracle,
        ],
        ids=["dense", "exact_triples", "dense_oracle"],
    )
    def test_refused_above_the_dense_threshold(self, monkeypatch, assemble):
        """D is not assembled where its n_z * n_theta entries exceed
        ``DENSE_THRESHOLD`` squared, and the refusal comes before any KKT
        solve. An n_theta above the threshold alone does not refuse it."""
        problem = build_diffusion_control_1d(n_state=32, n_param=8)
        sens = sample_operator(problem)
        monkeypatch.setattr(operators, "DENSE_THRESHOLD", sens.n_theta - 1)
        with pytest.raises(LinalgError, match="too large to assemble D densely"):
            assemble(sens, problem.spaces)
        assert sens.kkt.work() == (0, 0)
        # 32 parameters against n_z 8: 256 entries, a 16 square, from the
        # 8 adjoint columns of the narrow side
        problem = build_diffusion_control_1d(n_state=8, n_param=32)
        sens = sample_operator(problem)
        monkeypatch.setattr(operators, "DENSE_THRESHOLD", 16)
        assemble(sens, problem.spaces)
        assert sens.kkt.work() == (1, 8)


class TestRandomized:
    def test_matches_oracle(self, diffusion_sens):
        problem, sens = diffusion_sens
        oracle = dense_oracle(sens, problem.spaces)
        cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=11, power_iterations=2)
        triples, diag = randomized_geneig(sens, problem.spaces, cfg)
        assert len(triples) == 4
        assert not diag.rank_deficient
        np.testing.assert_allclose(triples.sigma, oracle.sigma[:4], rtol=1e-7)

    def test_vectors_weighted_orthonormal(self, diffusion_sens):
        problem, sens = diffusion_sens
        cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=11, power_iterations=2)
        triples, _ = randomized_geneig(sens, problem.spaces, cfg)
        th, zv = triples.theta, triples.z
        gram_th = th.T @ (problem.spaces.m_theta.dense() @ th)
        gram_z = zv.T @ (problem.spaces.m_z.dense() @ zv)
        np.testing.assert_allclose(gram_th, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(gram_z, np.eye(4), atol=1e-8)

    def test_deterministic_for_fixed_seed(self, diffusion_sens):
        problem, sens = diffusion_sens
        cfg = RandEigConfig(k_pairs=3, oversampling=6, seed=7)
        t1, _ = randomized_geneig(sens, problem.spaces, cfg)
        t2, _ = randomized_geneig(sens, problem.spaces, cfg)
        np.testing.assert_array_equal(t1.sigma, t2.sigma)
        np.testing.assert_array_equal(t1.theta, t2.theta)

    def test_probe_count_and_rank_flag_on_rank_one_toy(self, logistic_sens):
        problem, sens = logistic_sens
        cfg = RandEigConfig(k_pairs=2, oversampling=8, seed=0)
        triples, diag = randomized_geneig(sens, problem.spaces, cfg)
        # min(K + p, n_theta) = 2 probes; n_z = 1, so rank(D) = 1 and the
        # second column drops at the first M_Z-orthonormalization
        assert diag.n_dropped == 1
        assert len(triples) == 1
        assert diag.rank_deficient
        oracle = dense_oracle(sens, problem.spaces)
        assert triples.sigma[0] == pytest.approx(oracle.sigma[0], rel=1e-12)

    def test_ritz_values_are_the_projected_sigmas(self, diffusion_sens):
        problem, sens = diffusion_sens
        oracle = dense_oracle(sens, problem.spaces).sigma
        cfg = RandEigConfig(k_pairs=3, oversampling=2, seed=3, power_iterations=2)
        triples, diag = randomized_geneig(sens, problem.spaces, cfg)
        # one weighted sigma of Q^T M_Z D per probe, descending, led by the
        # returned triples, and none above the true sigma of its rank
        vals = diag.ritz_values
        assert vals.shape == (cfg.n_probes,)
        assert np.all(vals > 0.0) and np.all(np.diff(vals) <= 0.0)
        np.testing.assert_array_equal(vals[:3], triples.sigma)
        assert np.all(vals <= oracle[: cfg.n_probes] * (1.0 + 1e-12))

    def test_flat_quick_start_spectrum_matches_oracle(self):
        # the README quick start at the default q = 2: a flat spectrum
        problem = build_diffusion_control_1d(n_state=64, n_param=16, gamma=0.01)
        sens = sample_operator(problem)
        oracle = dense_oracle(sens, problem.spaces)
        cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=0, power_iterations=2)
        triples, diag = randomized_geneig(sens, problem.spaces, cfg, sample_index=0)
        assert len(triples) == 4 and diag.n_dropped == 0
        np.testing.assert_allclose(triples.sigma, oracle.sigma[:4], rtol=1e-6)


class TestAlternativeFormulation:
    def test_eigenvalues_are_squared_sigmas(self, diffusion_sens):
        problem, sens = diffusion_sens
        oracle = dense_oracle(sens, problem.spaces)
        cfg = RandEigConfig(k_pairs=4, oversampling=4, seed=5, power_iterations=2)
        triples, diag = alternative_formulation(sens, problem.spaces, cfg)
        assert len(triples) == 4
        np.testing.assert_allclose(triples.sigma, oracle.sigma[:4], rtol=1e-7)

    def test_left_vectors_consistent(self, diffusion_sens):
        problem, sens = diffusion_sens
        cfg = RandEigConfig(k_pairs=3, oversampling=4, seed=5, power_iterations=2)
        triples, _ = alternative_formulation(sens, problem.spaces, cfg)
        for k in range(len(triples)):
            r = sens.apply(triples.theta[:, k]) - triples.sigma[k] * triples.z[:, k]
            assert problem.spaces.m_z.norm(r) <= 1e-6 * triples.sigma[0]


class TestSpectralGapInstance:
    def test_tapered_amplitude_gives_gap(self):
        problem = build_diffusion_control_1d(
            n_state=64, n_param=16, amplitude=[0.2] * 4 + [0.005] * 12
        )
        opt = solve_optimization(problem, np.zeros(16))
        sens = SensitivityOperator(problem, opt.as_eval_point())
        oracle = dense_oracle(sens, problem.spaces)
        sig = oracle.sigma
        assert sig[3] / sig[4] >= 10.0


def sample_operator(problem, j=0):
    """The sensitivity operator at sample j of a uniform(-1, 1) plan, as
    ``analyze_sample`` builds it."""
    plan = SamplingPlan(
        Distribution("uniform", -1.0, 1.0), problem.dims.n_theta, master_seed=0
    )
    opt = solve_optimization(problem, plan.sample(j))
    return SensitivityOperator(
        problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
    )


class TestTripleResiduals:
    """max(||D theta - sigma z||_Z, ||D* z - sigma theta||_Theta) / sigma per triple."""

    @staticmethod
    def randomized(amplitude, power_iterations=2):
        problem = build_diffusion_control_1d(
            n_state=64, n_param=16, gamma=0.01, amplitude=amplitude
        )
        cfg = RandEigConfig(
            k_pairs=4, oversampling=8, seed=0, power_iterations=power_iterations
        )
        sens = sample_operator(problem)
        return randomized_geneig(sens, problem.spaces, cfg, sample_index=0)

    def test_flat_spectrum_is_flagged(self):
        # the README quick-start operator without power passes: randomized
        # triples far from converged (sigma 1.0e-2 off the dense SVD)
        triples, diag = self.randomized(0.2, power_iterations=0)
        assert len(diag.triple_residuals) == len(triples) == 4
        assert max(diag.triple_residuals) >= 1e-3

    def test_gapped_spectrum_is_accurate(self):
        _, diag = self.randomized([0.2] * 4 + [0.005] * 12)
        assert len(diag.triple_residuals) == 4
        assert max(diag.triple_residuals) <= 1e-4

    def test_residuals_match_explicit_applications(self, diffusion_sens):
        problem, sens = diffusion_sens
        spaces = problem.spaces
        cfg = RandEigConfig(k_pairs=3, oversampling=0, seed=2, power_iterations=0)
        triples, diag = randomized_geneig(sens, spaces, cfg)
        assert len(diag.triple_residuals) == len(triples) == 3
        for k, reported in enumerate(diag.triple_residuals):
            sigma, theta, z = triples.sigma[k], triples.theta[:, k], triples.z[:, k]
            r_z = spaces.m_z.norm(sens.apply(theta) - sigma * z)
            adj = spaces.m_theta.solve(sens.apply_transpose(spaces.m_z.apply(z)))
            r_th = spaces.m_theta.norm(adj - sigma * theta)
            assert reported == pytest.approx(max(r_z, r_th) / sigma, rel=1e-6)

    def test_squared_formulation_reports_residuals(self, diffusion_sens):
        problem, sens = diffusion_sens
        cfg = RandEigConfig(k_pairs=4, oversampling=4, seed=5, power_iterations=2)
        triples, diag = alternative_formulation(sens, problem.spaces, cfg)
        assert len(diag.triple_residuals) == len(triples) == 4
        assert max(diag.triple_residuals) <= 1e-6


@pytest.fixture(
    scope="module",
    params=[
        ("quick start", lambda: build_diffusion_control_1d(
            n_state=64, n_param=16, gamma=0.01), 4),
        ("advdiff", build_advdiff_inversion_1d, 12),
    ],
    ids=lambda p: p[0],
)
def exact_case(request):
    _, build, k = request.param
    problem = build()
    return problem, sample_operator(problem), RandEigConfig(k_pairs=k, seed=0)


@pytest.fixture(
    scope="module",
    params=[
        ("quick start", lambda: build_diffusion_control_1d(
            n_state=64, n_param=16, gamma=0.01)),
        ("advdiff", build_advdiff_inversion_1d),
    ],
    ids=lambda p: p[0],
)
def complete_case(request):
    """K + p = 20 probes on n_theta = 16 parameters."""
    _, build = request.param
    problem = build()
    return problem, sample_operator(problem), RandEigConfig(k_pairs=12, seed=0)


@pytest.mark.parametrize("solver", [randomized_geneig, alternative_formulation])
class TestCompleteSketch:
    """Where r = min(K + p, n_theta) = n_theta the probes span the parameter
    space: both solvers take no power pass."""

    def test_power_passes_change_nothing(self, complete_case, solver):
        # a fresh operator for each solve: the first pass through an operator
        # checks its first columns in a narrower block, which can move the
        # last bits of a column on advection-diffusion
        problem, _, cfg = complete_case
        t0, _ = solver(
            sample_operator(problem), problem.spaces, replace(cfg, power_iterations=0)
        )
        t3, _ = solver(
            sample_operator(problem), problem.spaces, replace(cfg, power_iterations=3)
        )
        assert np.array_equal(t0.sigma, t3.sigma)
        assert np.array_equal(t0.theta, t3.theta)
        assert np.array_equal(t0.z, t3.z)

    def test_two_passes_of_the_probes_and_the_residuals(self, complete_case, solver):
        problem, sens, cfg = complete_case
        (triples, diag), (_, rhs) = kkt_work_of(solver, sens, problem.spaces, cfg)
        assert len(triples) == 12 and diag.n_dropped == 0
        assert rhs == 2 * sens.n_theta + cfg.k_pairs == 44
        oracle = dense_oracle(sens, problem.spaces)
        np.testing.assert_allclose(triples.sigma, oracle.sigma[:12], rtol=1e-10)


class TestExactTriples:
    """The weighted SVD of the assembled D, as analyze_sample takes it."""

    def test_match_dense_oracle(self, exact_case):
        problem, sens, cfg = exact_case
        k = cfg.k_pairs
        oracle = dense_oracle(sens, problem.spaces)
        triples, diag, _ = exact_triples(sens, problem.spaces, cfg)
        assert len(triples) == k and not diag.rank_deficient
        np.testing.assert_allclose(triples.sigma, oracle.sigma[:k], rtol=1e-12)
        np.testing.assert_allclose(triples.theta, oracle.theta[:, :k], atol=1e-10)
        np.testing.assert_allclose(triples.z, oracle.z[:, :k], atol=1e-10)
        assert len(diag.triple_residuals) == cfg.k_pairs
        assert max(diag.triple_residuals) <= 1e-10

    def test_sigma_matches_squared_formulation(self, exact_case):
        # a reference that shares no code with the Cholesky-based SVD: the
        # eigenvalues of D^T M_Z D theta = alpha M_Theta theta are sigma^2
        problem, sens, cfg = exact_case
        triples, _, _ = exact_triples(sens, problem.spaces, cfg)
        dmat = sens.dense()
        alpha = scipy.linalg.eigh(
            dmat.T @ problem.spaces.m_z.apply(dmat),
            problem.spaces.m_theta.dense(),
            eigvals_only=True,
        )[::-1]
        np.testing.assert_allclose(
            triples.sigma,
            np.sqrt(alpha[: cfg.k_pairs]),
            rtol=1e-12,
            atol=0.0,
        )

    def test_diagnostics(self, exact_case):
        problem, _, cfg = exact_case
        # a fresh operator, whose first pass checks it
        sens = sample_operator(problem)
        (triples, diag, every), work = kkt_work_of(exact_triples, sens, problem.spaces, cfg)
        # one column of D per parameter, the first ones the operator's check
        assert work == (1, sens.n_theta)
        assert diag.n_dropped == 0
        # every weighted sigma, of which the triples are the first K
        assert diag.ritz_values.shape == (min(sens.n_z, sens.n_theta),)
        np.testing.assert_array_equal(
            diag.ritz_values[: cfg.k_pairs], triples.sigma
        )
        # and every triple comes out of the same SVD
        np.testing.assert_array_equal(every.sigma, diag.ritz_values)
        np.testing.assert_array_equal(every.theta[:, : cfg.k_pairs], triples.theta)

    def test_rank_flag(self, logistic_sens):
        problem, sens = logistic_sens
        # n_z = 1, so D has rank 1
        triples, diag, _ = exact_triples(sens, problem.spaces, RandEigConfig(k_pairs=2))
        assert len(triples) == 1
        assert diag.rank_deficient


def test_kkt_work_counts_calls_and_columns(diffusion_sens):
    problem, shared = diffusion_sens
    sens = SensitivityOperator(problem, shared.point)
    cfg = RandEigConfig(k_pairs=3, oversampling=4, seed=1, power_iterations=1)
    _, work = kkt_work_of(randomized_geneig, sens, problem.spaces, cfg)
    # D Omega, one power pass (D^T, then D) and B^T = D^T M_Z Q on 7 probes,
    # and D on the 3 triples for their residuals, each one half of the
    # elimination; the operator's check is the one KKT solve call, on the
    # first NORM_PROBES columns of D Omega
    assert work == (1, 4 * 7 + 3)
    (check,) = sens.kkt.solve_stats
    assert check.backward_error <= KKT_TOL
    # a second call on the checked operator makes no KKT solve
    _, again = kkt_work_of(randomized_geneig, sens, problem.spaces, cfg)
    assert again == (0, 4 * 7 + 3)


def test_set_probes_apart_from_sample_probes(diffusion_sens, monkeypatch):
    """Direct set indices of sample 0 once drew the probes of sample 100_000."""
    problem, sens = diffusion_sens
    drawn = []
    original = randeig.probe_vector

    def record(seed, key, i, dim):
        v = original(seed, key, i, dim)
        drawn.append(v)
        return v

    monkeypatch.setattr(randeig, "probe_vector", record)
    # 3 sampled columns against 8 for D: the randomized path, which draws probes
    cfg = RandEigConfig(
        k_pairs=1, oversampling=0, power_iterations=0, seed=4, set_index_mode="direct"
    )
    triples = dense_oracle(sens, problem.spaces)[:1]
    set_indices(triples, problem.spaces, mode="direct", sens_op=sens, cfg=cfg, sample_index=0)
    set_probe = drawn[0]
    drawn.clear()
    randomized_geneig(sens, problem.spaces, cfg, sample_index=100_000)
    assert not np.array_equal(set_probe, drawn[0])


@pytest.fixture(scope="module")
def gapped_sens():
    problem = build_diffusion_control_1d(
        n_state=64, n_param=16, amplitude=[0.2] * 4 + [0.005] * 12
    )
    opt = solve_optimization(problem, np.zeros(16))
    return problem, SensitivityOperator(problem, opt.as_eval_point())


class TestTripleSigns:
    """theta_k's largest entry in magnitude is positive and z_k flips with it."""

    @staticmethod
    def assert_sign_rule(triples):
        theta = triples.theta
        peak = theta[np.argmax(np.abs(theta), axis=0), np.arange(len(triples))]
        assert np.all(peak > 0.0)

    def test_randomized_and_oracle_agree_in_sign(self, gapped_sens):
        problem, sens = gapped_sens
        spaces = problem.spaces
        oracle = dense_oracle(sens, spaces)[:4]
        cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=0, power_iterations=2)
        for triples, _ in (
            randomized_geneig(sens, spaces, cfg),
            alternative_formulation(sens, spaces, cfg),
        ):
            assert len(triples) == 4
            self.assert_sign_rule(triples)
            for k in range(4):
                assert spaces.m_theta.inner(triples.theta[:, k], oracle.theta[:, k]) > 0.99
                assert spaces.m_z.inner(triples.z[:, k], oracle.z[:, k]) > 0.99
        self.assert_sign_rule(oracle)

    def test_negated_ritz_vectors_give_the_same_triples(self, gapped_sens):
        problem, sens = gapped_sens
        spaces = problem.spaces
        oracle = dense_oracle(sens, spaces)[:4]
        # Ritz vectors z = Q u and theta = R_Theta^-1 v at an arbitrary scale,
        # as the small SVD returns them, whose signs it does not fix
        theta, z = 3.0 * oracle.theta, 3.0 * oracle.z
        triples = randeig._normalized(oracle.sigma, theta, z, spaces)
        flipped = randeig._normalized(oracle.sigma, -theta, -z, spaces)
        np.testing.assert_array_equal(flipped.sigma, triples.sigma)
        np.testing.assert_array_equal(flipped.theta, triples.theta)
        np.testing.assert_array_equal(flipped.z, triples.z)
        self.assert_sign_rule(triples)

    def test_tie_goes_to_the_first_entry(self):
        spaces = WeightedSpaces(
            SpdOperator.identity(3), SpdOperator.identity(2), SetPartition((("all", 0, 3),))
        )
        # column 0 ties at a positive first entry, column 1 at a negative one
        theta = np.array([[0.5, -0.5], [-0.5, 0.5], [0.5, 0.5]])
        z = np.array([[1.0, 1.0], [2.0, 2.0]])
        t = randeig._normalized(np.array([2.0, 1.0]), theta, z, spaces)
        np.testing.assert_array_equal(
            t.theta, theta * np.array([1.0, -1.0]) / np.sqrt(0.75)
        )
        np.testing.assert_array_equal(t.z, z * np.array([1.0, -1.0]) / np.sqrt(5.0))

    def test_zero_columns_are_dropped(self):
        spaces = WeightedSpaces(
            SpdOperator.identity(2), SpdOperator.identity(2), SetPartition((("all", 0, 2),))
        )
        theta = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        z = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        t = randeig._normalized(np.array([3.0, 2.0, 1.0]), theta, z, spaces)
        np.testing.assert_array_equal(t.sigma, [3.0])
        np.testing.assert_array_equal(t.theta, [[1.0], [0.0]])
        np.testing.assert_array_equal(t.z, [[1.0], [0.0]])
