import csv
import json

import numpy as np
import pytest
import scipy.linalg

from hdsa.analysis import (
    analyze_sample,
    global_analysis,
    perturbation_check,
    svd_path,
    traditional_comparison,
)
from hdsa.cli import EXIT_OK, main
from hdsa.config import load_config, parse_config
from hdsa.operators import KKT_TOL, NORM_PROBES, KktOperator, SensitivityOperator
from hdsa.optimizer import OptimizerConfig, solve_forward, solve_optimization
from hdsa.problems import (
    AdvDiffInversionProblem,
    DiffusionControlProblem,
    build_diffusion_control_1d,
    build_logistic_toy,
)
from hdsa.randeig import RandEigConfig, dense_oracle, randomized_geneig, randomized_rhs
from hdsa.sampling import Distribution, SamplingPlan


def logistic_plan(seed=0):
    return SamplingPlan(
        theta_dists=[Distribution("uniform", 0.4, 0.6), Distribution("uniform", 0.4, 0.6)],
        master_seed=seed,
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
    """One default advection-diffusion sample solves 91 state and adjoint
    right-hand sides at every seed: the n_z = 64 state solves of W, from
    which the optimizer builds the reduced Hessian once, so the count does
    not depend on theta; one state and one adjoint solve for each of the
    4 columns of the operator's check; one state solve for each of the 16
    columns of D, the forward half of the elimination; and 3 for the
    optimizer."""
    columns = counted_solve_columns(monkeypatch, AdvDiffInversionProblem)
    res = run_sample(tmp_path, "advdiff_inversion_1d", {}, {
        "k_pairs": 12, "oversampling": 8, "power_iterations": 2, "seed": seed
    })
    assert res.svd == "exact"
    assert res.diagnostics.kkt_rhs == 16 + NORM_PROBES
    assert sum(columns) == 91


@pytest.mark.parametrize(
    "params, hdsa, solves",
    [
        # the README quick start: 64 for W, 3 for the optimizer, 2 x 4 for
        # the check and 16 for D
        ({"n_state": 64, "n_param": 16, "gamma": 0.01},
         {"k_pairs": 4, "oversampling": 8, "seed": 0}, 91),
        # 600 nodes, with a tapered amplitude that gives a spectral gap
        ({"n_state": 600, "n_param": 16, "gamma": 0.01,
          "amplitude": [0.2] * 4 + [0.005] * 12},
         {"k_pairs": 4, "oversampling": 8, "seed": 1}, 627),
    ],
    ids=["quick start", "n_state 600"],
)
def test_diffusion_sample_solve_count(tmp_path, monkeypatch, params, hdsa, solves):
    columns = counted_solve_columns(monkeypatch, DiffusionControlProblem)
    res = run_sample(tmp_path, "diffusion_control_1d", params, hdsa)
    assert res.svd == "exact"
    assert res.diagnostics.kkt_rhs == 16 + NORM_PROBES
    assert sum(columns) == solves


def quick_start_sample(cfg):
    problem = build_diffusion_control_1d(n_state=64, n_param=16, gamma=0.01)
    plan = SamplingPlan(
        theta_dists=[Distribution("uniform", -1.0, 1.0)] * 16,
        master_seed=0,
    )
    return analyze_sample(problem, plan, cfg, 0)


@pytest.fixture(scope="module")
def size_rule_operators():
    """The quick-start operator (n_theta 16), one with n_theta 32, and the
    rank-1 logistic toy's (n_theta 2)."""
    out = {}
    for name, build in (
        ("quick start", lambda: build_diffusion_control_1d(n_state=64, n_param=16)),
        ("n_theta 32", lambda: build_diffusion_control_1d(n_state=64, n_param=32)),
        ("logistic", build_logistic_toy),
    ):
        problem = build()
        opt = solve_optimization(problem, problem.default_theta())
        out[name] = (problem, SensitivityOperator(problem, opt.as_eval_point()))
    return out


class TestSvdPath:
    """D is assembled where its n_theta columns cost no more KKT right-hand
    sides than the randomized solve's (2 + 2q) min(K + p, n_theta) + K."""

    def test_quick_start_defaults_assemble_d(self):
        # 16 columns of D against 6 * 12 + 4 = 76 for the randomized solve;
        # the one KKT solve is the operator's check
        res = quick_start_sample(RandEigConfig(k_pairs=4, oversampling=8, seed=0))
        assert res.svd == "exact"
        assert res.diagnostics.kkt_solves == 1
        assert res.diagnostics.kkt_rhs == 16 + NORM_PROBES
        assert res.diagnostics.kkt_backward_error <= KKT_TOL
        assert res.diagnostics.n_probes == 16
        assert res.diagnostics.n_dropped == 0
        assert len(res.triples) == 4 and not res.diagnostics.rank_deficient

    def test_fewer_sampled_columns_take_the_randomized_path(self):
        # 2 * 1 + 1 = 3 right-hand sides for the randomized solve against 16 for D
        cfg = RandEigConfig(k_pairs=1, oversampling=0, power_iterations=0, seed=0)
        res = quick_start_sample(cfg)
        assert res.svd == "randomized"
        assert res.diagnostics.kkt_rhs == 3 + NORM_PROBES

    def test_rule_reads_sizes_only(self):
        cfg = RandEigConfig(k_pairs=1, oversampling=0, power_iterations=0)
        assert svd_path(cfg, 64, 3) == "exact"  # 3 <= 3
        assert svd_path(cfg, 64, 4) == "randomized"
        # no more probes than parameters, so n_theta <= K + p always assembles
        cfg = RandEigConfig(k_pairs=4, oversampling=8, power_iterations=0)
        assert svd_path(cfg, 1, 2) == "exact"
        # D must also fit the dense threshold, whatever it costs
        cfg = RandEigConfig(k_pairs=4, oversampling=8)
        assert svd_path(cfg, 1984, 16) == "exact"
        assert svd_path(cfg, 1985, 16) == "randomized"

    @pytest.mark.parametrize(
        "name, k, p, q",
        [
            ("quick start", 4, 8, 2),  # the README defaults
            ("quick start", 4, 8, 0),
            ("quick start", 3, 2, 3),
            ("quick start", 1, 0, 0),
            ("quick start", 12, 8, 1),  # n_theta < K + p: 16 probes
            ("quick start", 4, 20, 2),
            ("n_theta 32", 4, 8, 0),  # 28 sampled columns: the randomized path
            ("n_theta 32", 4, 8, 2),
            ("logistic", 1, 0, 0),
            ("logistic", 1, 0, 2),
        ],
    )
    def test_count_is_the_solvers_kkt_rhs(self, size_rule_operators, name, k, p, q):
        problem, sens = size_rule_operators[name]
        cfg = RandEigConfig(k_pairs=k, oversampling=p, power_iterations=q, seed=0)
        triples, diag = randomized_geneig(sens, problem.spaces, cfg)
        assert len(triples) == k and diag.n_dropped == 0
        # the first application of a shared operator also runs its check
        rhs = diag.kkt_rhs - NORM_PROBES * diag.kkt_solves
        assert rhs == randomized_rhs(cfg, sens.n_theta)
        path = "exact" if sens.n_theta <= rhs else "randomized"
        assert svd_path(cfg, sens.n_z, sens.n_theta) == path


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
    # the operator's check, then D
    assert sum(columns) == NORM_PROBES + 16
    assert res.sets["kappa"] == pytest.approx(res.triples.sigma[0], rel=1e-12)


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
