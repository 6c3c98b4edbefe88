import csv
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from test_randeig import kkt_work_of

import hdsa.analysis as analysis
import hdsa.operators as operators
import hdsa.optimizer as optimizer
import hdsa.randeig as randeig
from hdsa.analysis import (
    analyze_sample,
    global_analysis,
    perturbation_check,
    svd_path,
    traditional_comparison,
)
from hdsa.cli import EXIT_OK, main
from hdsa.config import load_config, parse_config
from hdsa.linalg import DENSE_THRESHOLD, SpdOperator
from hdsa.operators import KKT_TOL, KktOperator, SensitivityOperator
from hdsa.optimizer import OptimizerConfig, solve_forward, solve_optimization
from hdsa.problems import (
    AdvDiffInversionProblem,
    DiffusionControlProblem,
    build_advdiff_inversion_1d,
    build_diffusion_control_1d,
    build_logistic_toy,
)
from hdsa.randeig import (
    RandEigConfig,
    alternative_formulation,
    dense_oracle,
    randomized_geneig,
    randomized_rhs,
)
from hdsa.sampling import THETA_STREAM, Distribution, InitialIterate, SamplingPlan, rng_for


def logistic_plan(seed=0):
    return SamplingPlan(Distribution("uniform", 0.4, 0.6), 2, master_seed=seed)


def optimum_and_operator(problem, theta):
    """The optimal point at theta and the sensitivity operator on its W and
    factor of H, as `hdsa verify` builds them."""
    opt = solve_optimization(problem, theta)
    return opt, SensitivityOperator(
        problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
    )


@pytest.mark.parametrize(
    "dist",
    [
        Distribution("uniform", -1.0, 1.0),
        Distribution("uniform", 0.3, 0.3),
        Distribution("normal", 0.1, 0.3),
        Distribution("normal", 3.0, 0.0),
    ],
    ids=["uniform", "uniform-point", "normal", "normal-sigma-0"],
)
def test_sample_equals_one_scalar_draw_per_coordinate(dist):
    """The vector draw reads the stream as a loop of scalar draws does."""
    for seed, j, n in ((0, 0, 1), (1, 3, 16), (7, 2, 202)):
        rng = rng_for(seed, THETA_STREAM, j)
        if dist.kind == "uniform":
            ref = [rng.uniform(dist.a, dist.b) for _ in range(n)]
        else:
            ref = [dist.a + dist.b * rng.standard_normal() for _ in range(n)]
        got = SamplingPlan(dist, n, master_seed=seed).sample(j)
        assert got.tobytes() == np.array(ref).tobytes()


class TestGlobalAnalysis:
    def test_single_sample_has_zero_std(self):
        problem = build_logistic_toy()
        cfg = RandEigConfig(k_pairs=1, oversampling=2, seed=0, n_samples=1)
        report = global_analysis(problem, logistic_plan(), cfg)
        assert len(report.samples) == 1
        assert not report.failures
        np.testing.assert_array_equal(report.local_std(), 0.0)
        assert all(v == 0.0 for v in report.set_std().values())

    def test_all_samples_failing_raises(self):
        problem = build_logistic_toy()
        cfg = RandEigConfig(k_pairs=1, oversampling=2, seed=0, n_samples=2)
        bad = OptimizerConfig(max_iter=0, stationarity_tol=1e-14)
        with pytest.raises(RuntimeError):
            global_analysis(problem, logistic_plan(), cfg, opt_cfg=bad)

    @pytest.mark.parametrize("n_samples", [1, 2])
    def test_programming_error_propagates(self, monkeypatch, n_samples):
        # a TypeError in a problem method is a bug, not a failed sample,
        # whether the sweep holds one sample or several
        problem = build_logistic_toy()
        residual = problem.residual

        def broken(u, z, theta):
            if np.any(z != 0.0):  # every Armijo trial, never the zero start
                raise TypeError("broken residual")
            return residual(u, z, theta)

        monkeypatch.setattr(problem, "residual", broken)
        cfg = RandEigConfig(k_pairs=1, oversampling=2, seed=0, n_samples=n_samples)
        with pytest.raises(TypeError, match="broken residual"):
            global_analysis(problem, logistic_plan(), cfg)

    def test_shape_error_propagates(self):
        # an M_Z of the wrong size is a bug in the problem, not a failed sample
        problem = build_diffusion_control_1d(n_state=16, n_param=4)
        problem._spaces = replace(problem.spaces, m_z=SpdOperator(np.eye(15)))
        plan = SamplingPlan(Distribution("uniform", -1.0, 1.0), 4)
        cfg = RandEigConfig(k_pairs=2, oversampling=2, seed=0, n_samples=2)
        with pytest.raises(ValueError, match=r"expects shape \(15,\)"):
            global_analysis(problem, plan, cfg)

    def test_analyze_sample_fields(self):
        problem = build_logistic_toy()
        cfg = RandEigConfig(k_pairs=1, oversampling=2, seed=0)
        res = analyze_sample(problem, logistic_plan(), cfg, 0)
        assert res.sample_index == 0
        assert res.local.shape == (2,)
        assert set(res.sets) == {"theta1", "theta2"}
        assert res.spectral_decay == pytest.approx(1.0)  # single retained sigma


class TestPerturbationCheck:
    def test_zero_delta_rejected(self, monkeypatch):
        """A zero delta has no move to measure: it is refused, as a zero
        direction is, before any PDE solve."""
        problem = build_logistic_toy()
        opt, sens = optimum_and_operator(problem, np.array([0.5, 0.5]))

        def forbidden(*args):
            raise AssertionError("a PDE solve for a refused delta")

        for name in ("state_jacobian_solve", "state_jacobian_adjoint_solve"):
            monkeypatch.setattr(problem, name, forbidden)
        with pytest.raises(ValueError, match="deltas must be nonzero"):
            perturbation_check(problem, opt, np.array([1.0, 0.0]), [1e-3, 0.0], sens)
        assert sens.kkt.work() == (0, 0)

    def test_ratio_approaches_one(self):
        problem = build_diffusion_control_1d(n_state=24, n_param=6)
        opt, sens = optimum_and_operator(problem, np.zeros(6))
        phi = np.zeros(6)
        phi[0] = 1.0
        deltas = np.array([1e-1, 1e-3])
        moved, d_phi = perturbation_check(problem, opt, phi, deltas, sens)
        big, small = moved / (deltas * d_phi)
        assert abs(small - 1.0) <= 1e-2
        assert abs(small - 1.0) <= abs(big - 1.0) + 1e-10

    def test_direction_normalization(self):
        problem = build_logistic_toy()
        opt, sens = optimum_and_operator(problem, np.array([0.5, 0.5]))
        (a,), d_a = perturbation_check(problem, opt, np.array([1.0, 0.0]), [1e-3], sens)
        (b,), d_b = perturbation_check(problem, opt, np.array([5.0, 0.0]), [1e-3], sens)
        assert a == pytest.approx(b, rel=1e-10)
        assert d_a == pytest.approx(d_b, rel=1e-10)

    def test_zero_direction_rejected(self):
        problem = build_logistic_toy()
        opt, sens = optimum_and_operator(problem, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            perturbation_check(problem, opt, np.zeros(2), [1e-3], sens)


@pytest.fixture(scope="module")
def sweep_points():
    """Optimal points of the README quick start (sample 0), of the logistic
    toy and of default advection-diffusion (sample 0), each with the
    sensitivity operator that holds the optimizer's W and factor of H."""
    out = {}
    for name, problem in (
        ("quick start", build_diffusion_control_1d(n_state=64, n_param=16, gamma=0.01)),
        ("logistic", build_logistic_toy()),
        ("advdiff", build_advdiff_inversion_1d()),
    ):
        if name == "logistic":
            theta = np.array([0.5, 0.5])
        else:
            dist = Distribution("uniform", -1.0, 1.0)
            theta = SamplingPlan(dist, problem.dims.n_theta).sample(0)
        out[name] = (problem, *optimum_and_operator(problem, theta))
    return out


class TestChordSweep:
    """The sweep's re-solves are chord steps with the base point's KKT
    operator, not optimizer runs."""

    @pytest.mark.parametrize(
        "name, axis",
        [("quick start", 0), ("logistic", 0), ("logistic", 1), ("advdiff", 0)],
    )
    def test_ratios_match_a_tight_optimizer_resolve(self, sweep_points, name, axis):
        problem, opt, sens = sweep_points[name]
        phi = np.zeros(problem.dims.n_theta)
        phi[axis] = 1.0
        unit = phi / problem.spaces.m_theta.norm(phi)
        tight = OptimizerConfig(stationarity_tol=1e-15, max_iter=200)
        deltas = (1e-2, 1e-3, 1e-4)
        moved, d_phi = perturbation_check(problem, opt, phi, deltas, sens)
        for delta, distance in zip(deltas, moved):
            warm = InitialIterate(opt.u0.copy(), opt.z0.copy())
            ref = solve_optimization(problem, opt.theta0 + delta * unit, warm, tight)
            lhs = problem.spaces.m_z.norm(ref.z0 - opt.z0)
            prediction = delta * d_phi
            assert distance / prediction == pytest.approx(lhs / prediction, rel=1e-8, abs=0)

    def test_forms_nothing_at_the_moved_theta(self, sweep_points, monkeypatch):
        """No W, reduced Hessian, factorization or SOSC certificate."""
        problem, opt, sens = sweep_points["quick start"]

        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep formed W, H or a factor")

        for module in (optimizer, operators):
            for name in (
                "reduced_hessian_dense",
                "factor_reduced_hessian",
                "check_sosc",
            ):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        phi = np.eye(problem.dims.n_theta)[0]
        moved, d_phi = perturbation_check(problem, opt, phi, (1e-2, 1e-3, 1e-4), sens)
        assert abs(moved[-1] / (1e-4 * d_phi) - 1.0) <= 1e-3


class TestTraditionalComparison:
    def test_logistic_reference_values(self):
        problem = build_logistic_toy()
        opt = solve_optimization(problem, np.array([0.5, 0.5]))
        trad = traditional_comparison(problem, opt)
        np.testing.assert_allclose(trad, [0.13499, 1.03236], atol=5e-5)

    def test_matches_finite_differences(self):
        problem = build_logistic_toy()
        opt = solve_optimization(problem, np.array([0.5, 0.5]))
        trad = traditional_comparison(problem, opt)

        def reduced_fixed_z(theta):
            u = solve_forward(problem, opt.z0, theta, opt.u0)
            return problem.objective(u, opt.z0, theta)

        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            fd = (
                reduced_fixed_z(opt.theta0 + h * e)
                - reduced_fixed_z(opt.theta0 - h * e)
            ) / (2.0 * h)
            assert trad[i] == pytest.approx(abs(fd), rel=1e-5)

    def test_parameter_independent_problem_has_zero_sensitivity(self):
        problem = build_diffusion_control_1d(n_state=16, n_param=4, amplitude=0.0)
        opt = solve_optimization(problem, np.zeros(4))
        trad = traditional_comparison(problem, opt)
        np.testing.assert_allclose(trad, 0.0, atol=1e-12)


def counted_solve_columns(monkeypatch, cls):
    """State and adjoint right-hand sides that instances of ``cls`` solve; a
    solve made inside another (diffusion's adjoint solve is its state solve)
    counts once."""
    columns, depth = [], []
    for name in ("state_jacobian_solve", "state_jacobian_adjoint_solve"):
        original = getattr(cls, name)

        def counted(self, p, rhs, original=original):
            if not depth:
                columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
            depth.append(1)
            try:
                return original(self, p, rhs)
            finally:
                depth.pop()

        monkeypatch.setattr(cls, name, counted)
    return columns


def run_sample(tmp_path, problem, params, hdsa):
    cfg = parse_config({
        "problem": {"name": problem, "params": params},
        "hdsa": {"n_samples": 1, **hdsa},
        "sampling": {"distribution": {"kind": "uniform", "a": -1.0, "b": 1.0}},
        "output_dir": str(tmp_path),
    })
    problem = cfg.build_problem()
    return analyze_sample(problem, cfg.build_plan(problem), cfg.randeig, 0, cfg.optimizer)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_advdiff_sample_solve_count(tmp_path, monkeypatch, seed):
    """One default advection-diffusion sample solves 85 state and adjoint
    right-hand sides at every seed, n_z + n_theta + min(NORM_PROBES,
    n_theta) + 1: the n_z = 64 state solves of W, from which the optimizer
    builds the reduced Hessian once and takes every reduced gradient, so
    the count does not depend on theta; one state solve for each of the 16
    columns of D, the forward half of the elimination; one adjoint solve
    for each of the 4 columns of D that check the operator through the full
    elimination; and 1 for the optimizer, at the accepted point. Its line
    search predicts the state after its one Newton step without a solve."""
    columns = counted_solve_columns(monkeypatch, AdvDiffInversionProblem)
    res = run_sample(tmp_path, "advdiff_inversion_1d", {}, {
        "k_pairs": 12, "oversampling": 8, "power_iterations": 2, "seed": seed
    })
    assert res.svd == "exact"
    assert res.kkt_rhs == 16
    assert res.optimal.iterations == 1
    assert sum(columns) == 85


@pytest.mark.parametrize(
    "params, hdsa, solves",
    [
        # the README quick start: 64 for W, 1 for the optimizer, at the
        # accepted point, 16 for D and 4 for the adjoint half of its checked
        # columns
        ({"n_state": 64, "n_param": 16, "gamma": 0.01},
         {"k_pairs": 4, "oversampling": 8, "seed": 0}, 85),
        # 600 nodes, with a tapered amplitude that gives a spectral gap
        ({"n_state": 600, "n_param": 16, "gamma": 0.01,
          "amplitude": [0.2] * 4 + [0.005] * 12},
         {"k_pairs": 4, "oversampling": 8, "seed": 1}, 621),
    ],
    ids=["quick start", "n_state 600"],
)
def test_diffusion_sample_solve_count(tmp_path, monkeypatch, params, hdsa, solves):
    """n_z + n_theta + min(NORM_PROBES, n_theta) + 1 state and adjoint
    right-hand sides: n_z for W, n_theta + 4 for D, and 1 for the
    optimizer, at the accepted point, which it reaches in one Newton
    step."""
    columns = counted_solve_columns(monkeypatch, DiffusionControlProblem)
    res = run_sample(tmp_path, "diffusion_control_1d", params, hdsa)
    assert res.svd == "exact"
    assert res.kkt_rhs == 16
    assert res.optimal.iterations == 1
    assert sum(columns) == solves


def quick_start_sample(cfg):
    problem = build_diffusion_control_1d(n_state=64, n_param=16, gamma=0.01)
    plan = SamplingPlan(Distribution("uniform", -1.0, 1.0), 16, master_seed=0)
    return analyze_sample(problem, plan, cfg, 0)


@pytest.fixture(scope="module")
def size_rule_operators():
    """The quick-start operator (n_theta 16), one with n_theta 32, one with
    n_theta 32 against n_z 16, and the rank-1 logistic toy's (n_theta 2,
    n_z 1)."""
    out = {}
    for name, build, theta in (
        ("quick start", lambda: build_diffusion_control_1d(n_state=64, n_param=16), np.zeros(16)),
        ("n_theta 32", lambda: build_diffusion_control_1d(n_state=64, n_param=32), np.zeros(32)),
        (
            "n_z 16",
            lambda: build_advdiff_inversion_1d(n_space=16, n_steps=20, n_window=30),
            np.zeros(32),
        ),
        ("logistic", build_logistic_toy, np.array([0.5, 0.5])),
    ):
        problem = build()
        opt = solve_optimization(problem, theta)
        out[name] = (problem, SensitivityOperator(problem, opt.as_eval_point()))
    return out


class TestSvdPath:
    """D is assembled where its n_z * n_theta entries fit a
    ``DENSE_THRESHOLD`` square and its narrow side, min(n_z, n_theta)
    columns, costs no more KKT right-hand sides than the randomized solve's
    (2 + 2q) r + K, r = min(K + p, n_theta), with q = 0 where r = n_theta."""

    def test_quick_start_defaults_assemble_d(self):
        # 16 columns of D against 6 * 12 + 4 = 76 for the randomized solve;
        # the one KKT solve is the operator's check on the first columns of D
        res = quick_start_sample(RandEigConfig(k_pairs=4, oversampling=8, seed=0))
        assert res.svd == "exact"
        assert (res.kkt_solves, res.kkt_rhs) == (1, 16)
        assert res.kkt_backward_error <= KKT_TOL
        assert res.diagnostics.n_dropped == 0
        assert len(res.triples) == 4 and not res.diagnostics.rank_deficient

    def test_fewer_sampled_columns_take_the_randomized_path(self):
        # 2 * 1 + 1 = 3 right-hand sides for the randomized solve against 16 for D
        cfg = RandEigConfig(k_pairs=1, oversampling=0, power_iterations=0, seed=0)
        res = quick_start_sample(cfg)
        assert res.svd == "randomized"
        assert res.kkt_rhs == 3

    def test_rule_reads_sizes_only(self):
        cfg = RandEigConfig(k_pairs=1, oversampling=0, power_iterations=0)
        assert svd_path(cfg, 3, 64) == "exact"  # 3 <= 3
        assert svd_path(cfg, 4, 64) == "randomized"
        # the narrow side: 3 adjoint columns assemble 100 parameters' D
        assert svd_path(cfg, 100, 3) == "exact"
        assert svd_path(cfg, 100, 4) == "randomized"
        # no more probes than parameters, so n_theta <= K + p always assembles
        cfg = RandEigConfig(k_pairs=4, oversampling=8, power_iterations=0)
        assert svd_path(cfg, 2, 64) == "exact"
        # the 2,000-node diffusion problem's 16 parameters assemble D at 16
        # right-hand sides against 76
        cfg = RandEigConfig(k_pairs=4, oversampling=8)
        assert svd_path(cfg, 16, 2000) == "exact"
        # advection-diffusion at n_window 200: 64 adjoint columns against
        # (2 + 2 * 2) * 20 + 12 = 132
        cfg = RandEigConfig(k_pairs=12, oversampling=8)
        assert svd_path(cfg, 202, 64) == "exact"
        # D's n_z * n_theta entries must fit a DENSE_THRESHOLD square, whatever
        # its narrow side costs: a wide D fits, a square one just above does not
        cfg = RandEigConfig(k_pairs=1000, oversampling=8, power_iterations=0)
        assert randomized_rhs(cfg, DENSE_THRESHOLD + 1) > DENSE_THRESHOLD + 1
        assert svd_path(cfg, DENSE_THRESHOLD + 1, 64) == "exact"
        assert svd_path(cfg, DENSE_THRESHOLD, DENSE_THRESHOLD) == "exact"
        assert svd_path(cfg, DENSE_THRESHOLD + 1, DENSE_THRESHOLD) == "randomized"
        # the set-index mode does not enter
        cfg = RandEigConfig(
            k_pairs=1, oversampling=0, power_iterations=0, set_index_mode="direct"
        )
        assert svd_path(cfg, 4, 64) == "randomized"

    @pytest.mark.parametrize(
        "name, k, p, q",
        [
            ("quick start", 4, 8, 2),  # the README defaults
            ("quick start", 4, 8, 0),
            ("quick start", 3, 2, 3),
            ("quick start", 1, 0, 0),
            ("quick start", 12, 8, 1),  # n_theta < K + p: 16 probes, no pass
            ("quick start", 4, 20, 2),
            ("n_theta 32", 4, 8, 0),  # 28 sampled columns: the randomized path
            ("n_theta 32", 4, 8, 2),
            ("n_z 16", 4, 8, 0),  # 28 sampled columns against 16 adjoint ones
            ("n_z 16", 1, 0, 0),
            ("logistic", 1, 0, 0),
            ("logistic", 1, 0, 2),
        ],
    )
    def test_count_is_the_solvers_kkt_rhs(self, size_rule_operators, name, k, p, q):
        problem, sens = size_rule_operators[name]
        cfg = RandEigConfig(k_pairs=k, oversampling=p, power_iterations=q, seed=0)
        (triples, diag), (_, rhs) = kkt_work_of(randomized_geneig, sens, problem.spaces, cfg)
        assert len(triples) == k and diag.n_dropped == 0
        # the operator's check runs on its own first columns, so it adds none
        assert rhs == randomized_rhs(cfg, sens.n_theta)
        # power passes only where the probes sample part of the parameter
        # space; there the squared formulation's sketch D* D Omega costs 2r more
        r = min(k + p, sens.n_theta)
        sketch = r < sens.n_theta
        assert rhs == (2 + 2 * (q if sketch else 0)) * r + k
        (alt, alt_diag), (_, alt_rhs) = kkt_work_of(
            alternative_formulation, sens, problem.spaces, cfg
        )
        assert len(alt) == k and alt_diag.n_dropped == 0
        assert alt_rhs == rhs + (2 * r if sketch else 0)
        path = "exact" if min(sens.n_z, sens.n_theta) <= rhs else "randomized"
        assert svd_path(cfg, sens.n_theta, sens.n_z) == path


@pytest.mark.parametrize(
    "threshold, svd, rhs",
    [
        # 8 adjoint columns assemble D's 8 x 32 entries, a 16 square
        (16, "exact", 8),
        # 256 entries exceed a 15 square: 12 probes, then the 8 columns left
        # after the rank drops through two power passes and B^T, and 4 for
        # the residuals
        (15, "randomized", 12 + 2 * (8 + 8) + 8 + 4),
    ],
)
def test_one_fit_rule_for_d(monkeypatch, threshold, svd, rhs):
    """``svd_path`` and ``SensitivityOperator.dense`` read one bound: with
    ``operators.DENSE_THRESHOLD`` alone patched, a sample of diffusion at
    n_z 8 and n_theta 32 takes the path that the product n_z * n_theta
    picks, and does not fail."""
    monkeypatch.setattr(operators, "DENSE_THRESHOLD", threshold)
    problem = build_diffusion_control_1d(n_state=8, n_param=32)
    plan = SamplingPlan(Distribution("uniform", -1.0, 1.0), 32, master_seed=0)
    res = analyze_sample(problem, plan, RandEigConfig(seed=0), 0)
    assert (res.svd, res.kkt_rhs) == (svd, rhs)
    assert max(res.diagnostics.triple_residuals) <= 1e-12


def test_direct_set_indices_match_sigma_1(tmp_path):
    """The quick start's one set holds every parameter, so its direct set
    index is the sample's sigma_1."""
    out = tmp_path / "results"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "problem": {
            "name": "diffusion_control_1d",
            "params": {"n_state": 64, "n_param": 16, "gamma": 0.01},
        },
        "hdsa": {"n_samples": 5, "k_pairs": 4, "oversampling": 8, "seed": 0,
                 "set_index_mode": "direct"},
        "sampling": {"distribution": {"kind": "uniform", "a": -1.0, "b": 1.0}},
        "output_dir": str(out),
    }))
    assert main(["run", str(path), "--workers", "1"]) == EXIT_OK
    with (out / "singular_values.csv").open() as fh:
        sigma_1 = {
            int(r["j"]): float(r["sigma"]) for r in csv.DictReader(fh) if r["k"] == "0"
        }
    with (out / "set_indices.csv").open() as fh:
        sets = {int(r["j"]): float(r["value"]) for r in csv.DictReader(fh)}
    assert sorted(sets) == sorted(sigma_1) == list(range(5))
    for j, value in sets.items():
        assert value == pytest.approx(sigma_1[j], rel=1e-12)


def test_randomized_direct_one_parameter_sets_are_column_norms():
    """On the randomized path in direct mode, the index of a set that holds
    one parameter i is sigma_1 of D restricted to e_i: ||D e_i||_Z /
    sqrt((M_Theta)_ii). Advection-diffusion's diffusion and velocity sets
    are such sets; 10 parameters against 7 randomized right-hand sides take
    the randomized path."""
    problem = build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=8)
    cfg = RandEigConfig(k_pairs=1, oversampling=2, power_iterations=0, set_index_mode="direct")
    plan = SamplingPlan(Distribution("uniform", -1.0, 1.0), problem.dims.n_theta, 0)
    result = analyze_sample(problem, plan, cfg, 0)
    assert result.svd == "randomized"
    sens = SensitivityOperator(problem, result.optimal.as_eval_point())
    m_theta = problem.spaces.m_theta.dense()
    for name, start, stop in problem.spaces.partition.sets:
        if stop - start == 1:
            e_i = np.eye(problem.dims.n_theta)[start]
            ref = problem.spaces.m_z.norm(sens.apply(e_i)) / np.sqrt(m_theta[start, start])
            assert result.sets[name] == pytest.approx(ref, rel=1e-12), name


def test_direct_set_indices_take_the_samples_one_svd(monkeypatch):
    """On default advection-diffusion, with three sets, the direct set
    indices come from the sample's one weighted SVD: one dense SVD, and no
    KKT column beyond the n_theta of D."""
    svds, columns = [], []
    dense_svd = randeig.dense_svd
    monkeypatch.setattr(randeig, "dense_svd", lambda a: svds.append(a.shape) or dense_svd(a))
    for name in ("solve_z", "solve_from_z"):
        half = getattr(KktOperator, name)

        def counted(self, rhs, half=half):
            columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
            return half(self, rhs)

        monkeypatch.setattr(KktOperator, name, counted)
    problem = build_advdiff_inversion_1d()
    plan = SamplingPlan(Distribution("uniform", -1.0, 1.0), problem.dims.n_theta)
    cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=0, set_index_mode="direct")
    res = analyze_sample(problem, plan, cfg, 0)
    assert res.svd == "exact" and len(res.sets) == len(problem.spaces.partition.sets) == 3
    assert len(svds) == 1
    assert sum(columns) == problem.dims.n_theta


def test_direct_set_index_costs_no_kkt_solve_beyond_d(monkeypatch):
    """Where D is assembled, each set's direct index is sigma_1 of its
    columns of D, at no further KKT right-hand side."""
    columns = []
    for name in ("solve_z", "solve_from_z"):
        half = getattr(KktOperator, name)

        def counted(self, rhs, half=half):
            columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
            return half(self, rhs)

        monkeypatch.setattr(KktOperator, name, counted)
    res = quick_start_sample(
        RandEigConfig(k_pairs=4, oversampling=8, seed=0, set_index_mode="direct")
    )
    assert res.svd == "exact"
    # D, whose first columns check the operator through the full solve
    assert sum(columns) == 16
    assert res.sets["kappa"] == pytest.approx(res.triples.sigma[0], rel=1e-12)


@pytest.mark.parametrize(
    "hdsa, svd, rhs",
    [
        # 16 columns of D, and in direct mode the set index from its SVD
        ({"k_pairs": 4, "oversampling": 8, "set_index_mode": "truncated"}, "exact", 16),
        ({"k_pairs": 4, "oversampling": 8, "set_index_mode": "direct"}, "exact", 16),
        # 2 * 1 + 1 for the SVD, and in direct mode (2 + 2 * 2) * 1 + 1 more
        # for the one set's randomized solve on the projected operator
        ({"k_pairs": 1, "oversampling": 0, "power_iterations": 0,
          "set_index_mode": "truncated"}, "randomized", 3),
        ({"k_pairs": 1, "oversampling": 0, "power_iterations": 0,
          "set_index_mode": "direct"}, "randomized", 10),
    ],
    ids=["exact truncated", "exact direct", "randomized truncated", "randomized direct"],
)
def test_report_counts_the_operators_kkt_work(tmp_path, monkeypatch, hdsa, svd, rhs):
    """report.json's kkt_solves and kkt_rhs are the sample operator's own
    count after analyze_sample, direct set-index solves included, and its
    kkt_backward_error the worst of the operator's solves."""
    made = []

    def recorded(*args):
        made.append(SensitivityOperator(*args))
        return made[-1]

    monkeypatch.setattr(analysis, "SensitivityOperator", recorded)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "problem": {
            "name": "diffusion_control_1d",
            "params": {"n_state": 64, "n_param": 16, "gamma": 0.01},
        },
        "hdsa": {"n_samples": 1, "seed": 0, **hdsa},
        "sampling": {"distribution": {"kind": "uniform", "a": -1.0, "b": 1.0}},
        "output_dir": str(tmp_path / "results"),
    }))
    assert main(["run", str(path)]) == EXIT_OK
    (s,) = json.loads((tmp_path / "results" / "report.json").read_text())["samples"]
    (sens,) = made
    assert s["svd"] == svd
    assert (s["kkt_solves"], s["kkt_rhs"]) == sens.kkt.work() == (1, rhs)
    assert s["kkt_backward_error"] == max(st.backward_error for st in sens.kkt.solve_stats)


def test_quick_start_run_matches_dense_oracle(tmp_path):
    """The README quick start: sigma of every sample at the dense weighted SVD,
    and no set index above sigma_1."""
    out = tmp_path / "results"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "problem": {
            "name": "diffusion_control_1d",
            "params": {"n_state": 64, "n_param": 16, "gamma": 0.01},
        },
        "hdsa": {"n_samples": 5, "k_pairs": 4, "oversampling": 8, "seed": 0},
        "sampling": {"distribution": {"kind": "uniform", "a": -1.0, "b": 1.0}},
        "output_dir": str(out),
    }))
    assert main(["run", str(path), "--workers", "1"]) == EXIT_OK
    with (out / "singular_values.csv").open() as fh:
        sigmas = [(int(r["j"]), float(r["sigma"])) for r in csv.DictReader(fh)]
    with (out / "set_indices.csv").open() as fh:
        sets = [(int(r["j"]), float(r["value"])) for r in csv.DictReader(fh)]
    assert sets

    cfg = load_config(path)
    problem = cfg.build_problem()
    plan = cfg.build_plan(problem)
    for j in range(5):
        opt = solve_optimization(problem, plan.sample(j), cfg=cfg.optimizer)
        sens = SensitivityOperator(problem, opt.as_eval_point())
        oracle = dense_oracle(sens, problem.spaces).sigma[:4]
        got = [s for i, s in sigmas if i == j]
        np.testing.assert_allclose(got, oracle, rtol=1e-10, atol=0.0)
        # and against a reference that shares no code with either: sigma^2
        # are the eigenvalues of D^T M_Z D theta = alpha M_Theta theta
        dmat = sens.dense()
        alpha = scipy.linalg.eigh(
            dmat.T @ problem.spaces.m_z.apply(dmat),
            problem.spaces.m_theta.dense(),
            eigvals_only=True,
        )[::-1]
        np.testing.assert_allclose(got, np.sqrt(alpha[:4]), rtol=1e-10, atol=0.0)
        # the quick start's one set holds every parameter, so its index is
        # sigma_1 up to rounding
        assert all(v <= got[0] * (1.0 + 1e-12) for i, v in sets if i == j)
