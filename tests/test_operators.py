import numpy as np
import pytest
import scipy.linalg

import hdsa.analysis as analysis
import hdsa.linalg as linalg
import hdsa.operators as operators
import hdsa.optimizer as optimizer
from hdsa.analysis import analyze_sample, global_analysis
from hdsa.operators import (
    KKT_TOL,
    NORM_PROBES,
    KktOperator,
    ParamJacobianOperator,
    ProjectedSensitivityOperator,
    SensitivityOperator,
    SolveError,
)
from hdsa.optimizer import (
    COMPUTE_ERRORS,
    OptimizerConfig,
    reduced_hessian_dense,
    reduced_hessian_matvec,
    solve_adjoint,
    solve_forward,
    solve_optimization,
)
from hdsa.problems import (
    DiffusionControlProblem,
    EvalPoint,
    build_advdiff_inversion_1d,
    build_diffusion_control_1d,
    build_logistic_toy,
    check_derivatives,
)
from hdsa.randeig import RandEigConfig
from hdsa.sampling import Distribution, SamplingPlan


@pytest.fixture(scope="module")
def diffusion_point():
    problem = build_diffusion_control_1d(n_state=24, n_param=6)
    rng = np.random.default_rng(0)
    theta = 0.2 * rng.standard_normal(6)
    opt = solve_optimization(problem, theta)
    return problem, opt.as_eval_point()


@pytest.fixture(scope="module")
def logistic_point():
    problem = build_logistic_toy()
    opt = solve_optimization(problem, np.array([0.5, 0.5]))
    return problem, opt.as_eval_point()


class CoupledDiffusion(DiffusionControlProblem):
    """Diffusion control plus beta u^T M z: the built-in problems all have
    L_uz = L_zu = 0, this one has beta M. With gamma > beta^2 the Hessian of
    the objective in (u, z) stays positive definite."""

    beta = 0.05

    def objective(self, u, z, theta):
        return super().objective(u, z, theta) + self.beta * u @ self._apply_mass(z)

    def obj_grad_u(self, u, z, theta):
        return super().obj_grad_u(u, z, theta) + self.beta * self._apply_mass(z)

    def obj_grad_z(self, u, z, theta):
        return super().obj_grad_z(u, z, theta) + self.beta * self._apply_mass(u)

    def l_uz(self, p, v):
        return self.beta * self._apply_mass(v)

    def l_zu(self, p, v):
        return self.beta * self._apply_mass(v)


@pytest.fixture(scope="module")
def coupled_point():
    problem = CoupledDiffusion(n_state=24, n_param=6)
    theta = 0.2 * np.random.default_rng(5).standard_normal(6)
    return problem, solve_optimization(problem, theta).as_eval_point()


@pytest.fixture(scope="module")
def kkt_points(diffusion_point, logistic_point, coupled_point):
    """Optimal points of the three problems and of the coupled one;
    advection-diffusion on a grid small enough for the dense KKT matrix
    (stacked dimension 336)."""
    problem = build_advdiff_inversion_1d(n_space=16, n_steps=10)
    opt = solve_optimization(problem, problem.default_theta())
    return {
        "diffusion": diffusion_point,
        "advdiff": (problem, opt.as_eval_point()),
        "logistic": logistic_point,
        "coupled": coupled_point,
    }


class TestKktOperator:
    def test_dense_is_symmetric(self, diffusion_point):
        problem, point = diffusion_point
        k = KktOperator(problem, point).dense()
        np.testing.assert_allclose(k, k.T, atol=1e-10)

    def test_apply_matches_dense(self, diffusion_point):
        problem, point = diffusion_point
        op = KktOperator(problem, point)
        k = op.dense()
        rng = np.random.default_rng(1)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(op.apply(v), k @ v, rtol=1e-12, atol=1e-12)

    def test_self_adjoint_action(self, diffusion_point):
        problem, point = diffusion_point
        op = KktOperator(problem, point)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(op.dim)
        w = rng.standard_normal(op.dim)
        lhs = float(op.apply(v) @ w)
        rhs = float(v @ op.apply(w))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("name", ["diffusion", "advdiff", "logistic", "coupled"])
    def test_elimination_matches_dense_solve(self, kkt_points, name):
        problem, point = kkt_points[name]
        op = KktOperator(problem, point)
        k = op.dense()
        rng = np.random.default_rng(3)
        # the right-hand side of D^T w: only the z block is nonzero
        dt_type = np.zeros(op.dim)
        dt_type[op.n_u : op.n_u + op.n_z] = rng.standard_normal(op.n_z)
        rhs = np.column_stack([rng.standard_normal((op.dim, 2)), dt_type])
        for b in (rhs[:, 0], dt_type, rhs):
            x, stats = op.solve(b)
            ref = np.linalg.solve(k, b)
            assert stats.backward_error <= KKT_TOL
            np.testing.assert_allclose(x, ref, rtol=0, atol=1e-8 * np.abs(ref).max())

    def test_indefinite_reduced_hessian_is_a_solve_error(self):
        # the logistic toy's reduced Hessian is negative at z = -5
        problem = build_logistic_toy()
        theta = np.array([0.5, 0.5])
        z = np.array([-5.0])
        u = solve_forward(problem, z, theta)
        point = EvalPoint(u, z, solve_adjoint(problem, u, z, theta), theta)
        assert reduced_hessian_dense(problem, point)[0, 0] < 0.0
        op = KktOperator(problem, point)
        with pytest.raises(SolveError, match="not positive definite"):
            op.solve(np.ones(op.dim))
        assert isinstance(SolveError("x"), COMPUTE_ERRORS)

    def test_stalled_solve_raises(self, diffusion_point, monkeypatch):
        """A backward error just above KKT_TOL is an error."""
        problem, point = diffusion_point
        op = KktOperator(problem, point)
        rng = np.random.default_rng(11)
        rhs = rng.standard_normal(op.dim)
        exact = op.solve(rhs)[0]
        backward = op._backward
        offset = rng.standard_normal(op.dim)

        def offset_pass(scale):
            # the single elimination pass misses by a multiple of the offset,
            # so its backward error is proportional to the multiple
            monkeypatch.setattr(op, "_backward", lambda *a: backward(*a) + scale * offset)
            return float(op._backward_errors(exact + scale * offset, rhs)[0])

        scale = 1e-8 * KKT_TOL / offset_pass(1e-8)
        assert 0.4 * KKT_TOL < offset_pass(0.5 * scale) < 0.6 * KKT_TOL
        assert op.solve(rhs)[1].iterations == 1
        assert 4 * KKT_TOL < offset_pass(5 * scale) < 1e-9
        with pytest.raises(SolveError, match="backward error"):
            op.solve(rhs)
        assert len(op.solve_stats) == 2

    def test_solve_residual_small(self, diffusion_point):
        problem, point = diffusion_point
        op = KktOperator(problem, point)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal(op.dim)
        x, _ = op.solve(rhs)
        k = op.dense()
        r = np.linalg.norm(rhs - k @ x)
        assert r <= 1e-8 * (np.linalg.norm(k, 2) * np.linalg.norm(x))

    def test_block_solve_equals_column_solves(self, diffusion_point):
        problem, point = diffusion_point
        op = KktOperator(problem, point)
        rhs = np.random.default_rng(12).standard_normal((op.dim, 5))
        x, stats = op.solve(rhs)
        cols = [op.solve(rhs[:, j]) for j in range(5)]
        np.testing.assert_allclose(
            x, np.column_stack([c[0] for c in cols]), rtol=0, atol=1e-9 * np.abs(x).max()
        )
        # one stats entry per call, describing all of its columns
        assert op.work() == (6, 10)
        assert stats.iterations == max(c[1].iterations for c in cols)
        assert stats.backward_error <= KKT_TOL

    def test_dense_assembly_in_uneven_chunks(self, diffusion_point, monkeypatch):
        problem, point = diffusion_point
        op = KktOperator(problem, point)
        by_columns = np.column_stack([op.apply(e) for e in np.eye(op.dim)])
        # 5 columns per chunk do not divide the dimension 72
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 8 * op.dim * 5)
        np.testing.assert_allclose(op.dense(), by_columns, rtol=0, atol=1e-12)

    def test_backward_error_independent_of_history(self, diffusion_point):
        """A solve does not depend on which vectors the operator saw before."""
        problem, point = diffusion_point
        # the dominant eigenvector stretches more than any vector a solve
        # applies, so a running estimate of ||K|| would remember it
        evals, evecs = np.linalg.eigh(KktOperator(problem, point).dense())
        fresh = KktOperator(problem, point)
        used = KktOperator(problem, point)
        used.apply(evecs[:, np.argmax(np.abs(evals))])
        rhs = np.random.default_rng(13).standard_normal((fresh.dim, 3))
        x_fresh, stats_fresh = fresh.solve(rhs)
        x_used, stats_used = used.solve(rhs)
        np.testing.assert_array_equal(x_fresh, x_used)
        assert stats_fresh == stats_used



class TestCoupledObjective:
    """The L_zu and L_uz terms of the null-space Hessian and the elimination."""

    def test_derivatives(self, coupled_point):
        problem, point = coupled_point
        report = check_derivatives(problem, point, h=1e-4)
        assert report.passed, report.failures()
        v = np.random.default_rng(6).standard_normal(problem.dims.n_u)
        assert np.linalg.norm(problem.l_zu(point, v)) > 1e-3 * np.linalg.norm(v)

    def test_null_space_form_matches_matvec_columns(self, coupled_point):
        problem, point = coupled_point
        ref = reduced_hessian_matvec(problem, point, np.eye(problem.dims.n_z))
        h = reduced_hessian_dense(problem, point)
        assert np.linalg.norm(h - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_one_elimination_pass_is_exact(self, coupled_point):
        problem, point = coupled_point
        op = KktOperator(problem, point)
        b = np.random.default_rng(7).standard_normal((op.dim, 3))
        ref = np.linalg.solve(op.dense(), b)
        np.testing.assert_allclose(
            op.solve(b)[0], ref, rtol=0, atol=1e-8 * np.abs(ref).max()
        )

    def test_half_passes_match_dense_solve(self, coupled_point):
        """D from the forward half pins L_zu, D^T from the backward half pins
        L_uz: this is the one problem on which either term is nonzero."""
        problem, point = coupled_point
        sens = SensitivityOperator(problem, point)
        kkt = sens.kkt
        ref = np.linalg.solve(kkt.dense(), sens.b.apply(np.eye(sens.n_theta)))
        d_ref = ref[kkt.n_u : kkt.n_u + kkt.n_z]
        d = sens.apply(np.eye(sens.n_theta))
        dt = sens.apply_transpose(np.eye(sens.n_z))
        assert np.linalg.norm(d - d_ref) <= 1e-10 * np.linalg.norm(d_ref)
        assert np.linalg.norm(dt - d_ref.T) <= 1e-10 * np.linalg.norm(d_ref)


class TestSchurPath:
    """A sample's KKT elimination reuses the optimizer's W and factor."""

    @pytest.fixture
    def schur_sample(self, monkeypatch):
        calls = []
        for module in (optimizer, operators):
            for name in ("reduced_hessian_dense", "state_sensitivity"):
                original = getattr(optimizer, name)
                monkeypatch.setattr(
                    module,
                    name,
                    lambda *a, n=name, f=original: calls.append(n) or f(*a),
                )
        problem = build_diffusion_control_1d(n_state=24, n_param=6)
        plan = SamplingPlan(
            theta_dists=[Distribution("uniform", -1.0, 1.0)] * 6,
            master_seed=0,
        )
        cfg = RandEigConfig(k_pairs=2, oversampling=2, seed=0)

        def run(opt_cfg):
            calls.clear()
            return analyze_sample(problem, plan, cfg, 0, opt_cfg), sorted(calls)

        return run

    def test_reduced_hessian_assembled_once(self, schur_sample, monkeypatch):
        factors = []
        cho_factor = scipy.linalg.cho_factor
        monkeypatch.setattr(
            scipy.linalg, "cho_factor", lambda *a, **k: factors.append(1) or cho_factor(*a, **k)
        )
        res, calls = schur_sample(OptimizerConfig())
        assert calls == ["reduced_hessian_dense", "state_sensitivity"]
        assert len(factors) == 1
        assert res.optimal.sosc_min_eig_est > 0.0
        # the sample result keeps neither W nor the factor
        assert res.optimal.state_sensitivity is None
        assert res.optimal.hessian_factor is None

    def test_works_without_sosc_check(self, schur_sample):
        with_sosc, _ = schur_sample(OptimizerConfig())
        without, calls = schur_sample(OptimizerConfig(check_sosc=False))
        # the optimizer still forms W and H for its Newton steps, and the
        # elimination reuses them: same bits, still one assembly
        assert calls == ["reduced_hessian_dense", "state_sensitivity"]
        assert np.isnan(without.optimal.sosc_min_eig_est)
        np.testing.assert_array_equal(without.triples.sigma, with_sosc.triples.sigma)


def _scaled_factor(factor, scale):
    """The Cholesky factor of scale * H, from that of H."""
    c, lower = factor
    return np.sqrt(scale) * c, lower


@pytest.fixture(scope="module")
def check_points():
    """Sample-0 optimal points of the README quick start and of default
    advection-diffusion, with the W and the factor of H the optimizer formed."""
    out = {}
    for name, problem in (
        ("quick start", build_diffusion_control_1d(n_state=64, n_param=16, gamma=0.01)),
        ("advdiff", build_advdiff_inversion_1d()),
    ):
        plan = SamplingPlan([Distribution("uniform", -1.0, 1.0)] * problem.dims.n_theta)
        out[name] = (problem, plan, solve_optimization(problem, plan.sample(0)))
    return out


class TestOperatorCheck:
    """A sensitivity operator solves K x = B Phi once, on its first use, and
    a wrong factor of H fails that solve instead of being refined away."""

    @pytest.mark.parametrize("first", ["apply", "apply_transpose"])
    @pytest.mark.parametrize(
        "name, scale", [("quick start", 1 + 1e-3), ("advdiff", 1 + 1e-6)]
    )
    def test_wrong_factor_fails_first_use(self, check_points, name, scale, first):
        problem, _, opt = check_points[name]
        point, w = opt.as_eval_point(), opt.state_sensitivity
        good = SensitivityOperator(problem, point, w, opt.hessian_factor)
        wrong = SensitivityOperator(
            problem, point, w, _scaled_factor(opt.hessian_factor, scale)
        )
        n_in = good.n_theta if first == "apply" else good.n_z
        v = np.ones(n_in)
        getattr(good, first)(v)
        assert [s.backward_error <= KKT_TOL for s in good.kkt.solve_stats] == [True]
        with pytest.raises(SolveError, match="backward error"):
            getattr(wrong, first)(v)
        assert not wrong.kkt.solve_stats

    def test_check_runs_once(self, check_points):
        problem, _, opt = check_points["quick start"]
        sens = SensitivityOperator(
            problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
        )
        sens.apply(np.eye(sens.n_theta))
        sens.apply_transpose(np.eye(sens.n_z))
        assert sens.kkt.work() == (1, NORM_PROBES + sens.n_theta + sens.n_z)

    def test_wrong_factor_is_a_sample_failure(self, check_points, monkeypatch):
        problem, plan, _ = check_points["quick start"]
        built = []

        class FirstWrong(SensitivityOperator):
            def __init__(self, problem, point, w, factor):
                if not built:
                    factor = _scaled_factor(factor, 1 + 1e-3)
                built.append(1)
                super().__init__(problem, point, w, factor)

        monkeypatch.setattr(analysis, "SensitivityOperator", FirstWrong)
        cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=0, n_samples=2)
        report = global_analysis(problem, plan, cfg)
        assert [f.sample_index for f in report.failures] == [0]
        assert "backward error" in report.failures[0].message
        assert [s.sample_index for s in report.samples] == [1]


class TestParamJacobian:
    def test_adjoint_consistency(self, diffusion_point):
        problem, point = diffusion_point
        b = ParamJacobianOperator(problem, point)
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(b.in_dim)
        w = rng.standard_normal(b.out_dim)
        lhs = float(b.apply(phi) @ w)
        rhs = float(phi @ b.apply_adjoint(w))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestSensitivityOperator:
    def test_logistic_matches_analytic_values(self, logistic_point):
        problem, point = logistic_point
        d = SensitivityOperator(problem, point).dense()
        # chain rule on the reduced stationarity condition at the optimum
        np.testing.assert_allclose(
            d.ravel(), [-9.98954, -3.11988], atol=5e-4
        )

    def test_transpose_consistency(self, diffusion_point):
        problem, point = diffusion_point
        sens = SensitivityOperator(problem, point)
        rng = np.random.default_rng(6)
        phi = rng.standard_normal(sens.n_theta)
        w = rng.standard_normal(sens.n_z)
        lhs = float(sens.apply(phi) @ w)
        rhs = float(phi @ sens.apply_transpose(w))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)

    def test_dense_matches_apply(self, diffusion_point):
        problem, point = diffusion_point
        sens = SensitivityOperator(problem, point)
        d = sens.dense()
        rng = np.random.default_rng(7)
        phi = rng.standard_normal(sens.n_theta)
        np.testing.assert_allclose(sens.apply(phi), d @ phi, atol=1e-9)

    def test_dense_equals_columns_of_apply(self, diffusion_point):
        problem, point = diffusion_point
        sens = SensitivityOperator(problem, point)
        d = sens.dense()
        cols = np.column_stack([sens.apply(e) for e in np.eye(sens.n_theta)])
        np.testing.assert_allclose(d, cols, rtol=0, atol=1e-9 * np.abs(d).max())

    def test_block_apply_in_capped_chunks(self, diffusion_point, monkeypatch):
        problem, point = diffusion_point
        sens = SensitivityOperator(problem, point)
        # two columns per elimination pass, so a 5-column block goes as 2, 2
        # and 1
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 2 * 8 * sens.kkt.dim)
        sens.apply(np.zeros(sens.n_theta))  # the first-use check, a solve of its own width
        widths = []
        for name in ("solve_z", "solve_from_z"):
            half = getattr(sens.kkt, name)
            monkeypatch.setattr(
                sens.kkt, name, lambda c, half=half: widths.append(c.shape[1:]) or half(c)
            )
        rng = np.random.default_rng(14)
        for apply, n_in in (
            (sens.apply, sens.n_theta),
            (sens.apply_transpose, sens.n_z),
        ):
            block = rng.standard_normal((n_in, 5))
            widths.clear()
            out = apply(block)
            assert widths == [(2,), (2,), (1,)]
            cols = np.column_stack([apply(block[:, j]) for j in range(5)])
            np.testing.assert_allclose(
                out, cols, rtol=0, atol=1e-9 * np.abs(cols).max()
            )

    def test_directional_sensitivity_scale_invariant(self, diffusion_point):
        problem, point = diffusion_point
        sens = SensitivityOperator(problem, point)
        rng = np.random.default_rng(8)
        phi = rng.standard_normal(sens.n_theta)
        a = sens.directional_sensitivity(phi)
        b = sens.directional_sensitivity(7.3 * phi)
        assert a == pytest.approx(b, rel=1e-10)

    def test_projected_operator_masks_coordinates(self, diffusion_point):
        problem, point = diffusion_point
        sens = SensitivityOperator(problem, point)
        proj = ProjectedSensitivityOperator(sens, np.array([0, 1]))
        rng = np.random.default_rng(9)
        phi = rng.standard_normal(sens.n_theta)
        masked = phi.copy()
        masked[2:] = 0.0
        np.testing.assert_allclose(proj.apply(phi), sens.apply(masked), atol=1e-10)
        w = rng.standard_normal(sens.n_z)
        back = proj.apply_transpose(w)
        np.testing.assert_allclose(back[2:], 0.0, atol=0.0)
