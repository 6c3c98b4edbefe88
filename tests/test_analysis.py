import numpy as np
import pytest

from hdsa.analysis import (
    analyze_sample,
    global_analysis,
    perturbation_check,
    traditional_comparison,
)
from hdsa.config import parse_config
from hdsa.optimizer import OptimizerConfig, solve_forward, solve_optimization
from hdsa.problems import (
    AdvDiffInversionProblem,
    build_diffusion_control_1d,
    build_logistic_toy,
)
from hdsa.randeig import RandEigConfig
from hdsa.sampling import Distribution, SamplingPlan


def logistic_plan(n_u=1, n_z=1, seed=0):
    return SamplingPlan(
        theta_dists=[Distribution("uniform", 0.4, 0.6), Distribution("uniform", 0.4, 0.6)],
        init_mode="zero",
        master_seed=seed,
        n_u=n_u,
        n_z=n_z,
    )


class TestGlobalAnalysis:
    def test_single_sample_has_zero_std(self):
        problem = build_logistic_toy()
        cfg = RandEigConfig(k_pairs=1, oversampling=2, seed=0, n_samples=1)
        report = global_analysis(problem, logistic_plan(), cfg)
        assert len(report.samples) == 1
        assert not report.failures
        np.testing.assert_array_equal(report.local_std(), 0.0)
        assert all(v == 0.0 for v in report.set_std().values())

    def test_worker_count_does_not_change_results(self):
        problem = build_logistic_toy()
        cfg = RandEigConfig(k_pairs=1, oversampling=2, seed=0, n_samples=4)
        serial = global_analysis(problem, logistic_plan(), cfg, workers=1)
        threaded = global_analysis(problem, logistic_plan(), cfg, workers=3)
        for a, b in zip(serial.samples, threaded.samples):
            np.testing.assert_array_equal(a.sigmas, b.sigmas)
            np.testing.assert_array_equal(a.local, b.local)
            assert a.sets == b.sets

    def test_all_samples_failing_raises(self):
        problem = build_logistic_toy()
        cfg = RandEigConfig(k_pairs=1, oversampling=2, seed=0, n_samples=2)
        bad = OptimizerConfig(max_iter=0, stationarity_tol=1e-14)
        with pytest.raises(RuntimeError):
            global_analysis(problem, logistic_plan(), cfg, opt_cfg=bad)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_programming_error_propagates(self, monkeypatch, workers):
        # a TypeError in a problem method is a bug, not a failed sample
        problem = build_logistic_toy()
        residual = problem.residual

        def broken(u, z, theta):
            if np.any(z != 0.0):  # every Armijo trial, never the zero start
                raise TypeError("broken residual")
            return residual(u, z, theta)

        monkeypatch.setattr(problem, "residual", broken)
        cfg = RandEigConfig(k_pairs=1, oversampling=2, seed=0, n_samples=2)
        with pytest.raises(TypeError, match="broken residual"):
            global_analysis(problem, logistic_plan(), cfg, workers=workers)

    def test_analyze_sample_fields(self):
        problem = build_logistic_toy()
        cfg = RandEigConfig(k_pairs=1, oversampling=2, seed=0)
        res = analyze_sample(problem, logistic_plan(), cfg, 0)
        assert res.sample_index == 0
        assert res.local.shape == (2,)
        assert set(res.sets) == {"theta1", "theta2"}
        assert res.spectral_decay == pytest.approx(1.0)  # single retained sigma


class TestPerturbationCheck:
    def test_zero_delta_is_exact(self):
        problem = build_logistic_toy()
        opt = solve_optimization(problem, np.array([0.5, 0.5]))
        pc = perturbation_check(problem, opt, np.array([1.0, 0.0]), 0.0)
        assert pc.ratio == 1.0 and pc.lhs == 0.0

    def test_ratio_approaches_one(self):
        problem = build_diffusion_control_1d(n_state=24, n_param=6)
        opt = solve_optimization(problem, np.zeros(6))
        phi = np.zeros(6)
        phi[0] = 1.0
        pc_big = perturbation_check(problem, opt, phi, 1e-1)
        pc_small = perturbation_check(problem, opt, phi, 1e-3)
        assert abs(pc_small.ratio - 1.0) <= 1e-2
        assert abs(pc_small.ratio - 1.0) <= abs(pc_big.ratio - 1.0) + 1e-10

    def test_direction_normalization(self):
        problem = build_logistic_toy()
        opt = solve_optimization(problem, np.array([0.5, 0.5]))
        a = perturbation_check(problem, opt, np.array([1.0, 0.0]), 1e-3)
        b = perturbation_check(problem, opt, np.array([5.0, 0.0]), 1e-3)
        assert a.lhs == pytest.approx(b.lhs, rel=1e-10)

    def test_zero_direction_rejected(self):
        problem = build_logistic_toy()
        opt = solve_optimization(problem, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            perturbation_check(problem, opt, np.zeros(2), 1e-3)


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


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_advdiff_sample_solve_count(tmp_path, monkeypatch, seed):
    """One default advection-diffusion sample solves 1,156 state and adjoint
    right-hand sides, over its 256 KKT columns, at every seed: the Newton
    steps come from the reduced Hessian, assembled once, so the count does
    not depend on theta."""
    columns = []
    for name in ("state_jacobian_solve", "state_jacobian_adjoint_solve"):
        original = getattr(AdvDiffInversionProblem, name)

        def counted(self, p, rhs, original=original):
            columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
            return original(self, p, rhs)

        monkeypatch.setattr(AdvDiffInversionProblem, name, counted)
    cfg = parse_config({
        "problem": {"name": "advdiff_inversion_1d", "params": {}},
        "hdsa": {"n_samples": 1, "k_pairs": 12, "oversampling": 8,
                 "power_iterations": 2, "seed": seed},
        "sampling": {"distribution": {"kind": "uniform", "a": -1.0, "b": 1.0}},
        "output_dir": str(tmp_path),
    })
    problem = cfg.build_problem()
    res = analyze_sample(problem, cfg.build_plan(problem), cfg.randeig, 0, cfg.optimizer)
    assert res.diagnostics.kkt_rhs == 256
    assert sum(columns) == 1156
