import re

import numpy as np
import pytest
import scipy.linalg

from hdsa import optimizer
from hdsa.optimizer import (
    OptimizerConfig,
    OptimizerError,
    check_sosc,
    reduced_gradient,
    reduced_hessian_dense,
    reduced_hessian_matvec,
    solve_adjoint,
    solve_forward,
    solve_optimization,
    state_sensitivity,
)
from hdsa.problems import (
    DiffusionControlProblem,
    EvalPoint,
    build_advdiff_inversion_1d,
    build_diffusion_control_1d,
    build_logistic_toy,
)
from hdsa.sampling import Distribution, InitialIterate, SamplingPlan


class TestForward:
    def test_logistic_forward_exact(self):
        p = build_logistic_toy()
        z = np.array([2.0])
        theta = np.array([0.5, 0.5])
        u = solve_forward(p, z, theta)
        np.testing.assert_allclose(p.residual(u, z, theta), 0.0, atol=1e-12)

    def test_diffusion_forward_linear(self):
        p = build_diffusion_control_1d(n_state=32, n_param=8)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(32)
        theta = 0.3 * rng.standard_normal(8)
        u = solve_forward(p, z, theta)
        np.testing.assert_allclose(p.residual(u, z, theta), 0.0, atol=1e-11)

    def test_fine_mesh_newton_step_converges_in_one_iteration(self, monkeypatch):
        # n_state 1,024: after one Newton iteration the residual sits at its
        # rounding floor, 2.3e-12, above an absolute 1e-12 but a backward
        # error of 5e-17 against the size of c's terms
        p = build_diffusion_control_1d(n_state=1024, n_param=16, gamma=0.01)
        plan = SamplingPlan(
            theta_dists=[Distribution("uniform", -1.0, 1.0)] * 16,
            master_seed=0,
        )
        theta = plan.sample(0)
        z = np.zeros(1024)
        u = solve_forward(p, z, theta)
        lam = solve_adjoint(p, u, z, theta)
        h = reduced_hessian_dense(p, EvalPoint(u, z, lam, theta))
        g = reduced_gradient(p, u, z, theta, lam)
        z_newton = z - np.linalg.solve(h, g)
        solves = []
        jacobian_solve = p.state_jacobian_solve

        def counted(pt, rhs):
            solves.append(rhs.shape)
            return jacobian_solve(pt, rhs)

        monkeypatch.setattr(p, "state_jacobian_solve", counted)
        solve_forward(p, z_newton, theta, u)
        assert len(solves) == 1
        monkeypatch.undo()
        # so the optimizer converges at the full Newton step
        opt = solve_optimization(p, theta)
        assert opt.iterations == 1
        assert opt.grad_norm <= OptimizerConfig().stationarity_tol

    def test_programming_error_in_trial_step_propagates(self, monkeypatch):
        p = build_logistic_toy()
        residual = p.residual
        calls = []

        def broken(u, z, theta):
            calls.append(1)
            if len(calls) > 1:  # the first Newton trial, not the start
                raise TypeError("broken residual")
            return residual(u, z, theta)

        monkeypatch.setattr(p, "residual", broken)
        with pytest.raises(TypeError, match="broken residual"):
            solve_forward(p, np.array([2.0]), np.array([0.5, 0.5]))

    def test_adjoint_satisfies_equation(self):
        p = build_diffusion_control_1d(n_state=32, n_param=8)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(32)
        z = rng.standard_normal(32)
        theta = 0.2 * rng.standard_normal(8)
        lam = solve_adjoint(p, u, z, theta)
        pt = EvalPoint(u, z, lam, theta)
        np.testing.assert_allclose(
            p.c_u_adj(pt, lam), -p.obj_grad_u(u, z, theta), atol=1e-11
        )


class TestReducedHessian:
    def test_matvec_matches_dense(self):
        p = build_diffusion_control_1d(n_state=24, n_param=6)
        rng = np.random.default_rng(2)
        theta = 0.2 * rng.standard_normal(6)
        opt = solve_optimization(p, theta)
        pt = opt.as_eval_point()
        h = reduced_hessian_dense(p, pt)
        v = rng.standard_normal(24)
        np.testing.assert_allclose(
            reduced_hessian_matvec(p, pt, v), h @ v, rtol=1e-9, atol=1e-12
        )

    def test_dense_symmetric_and_spd(self):
        p = build_diffusion_control_1d(n_state=24, n_param=6)
        opt = solve_optimization(p, np.zeros(6))
        h = reduced_hessian_dense(p, opt.as_eval_point())
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        # the estimate comes from the factor the optimizer kept
        assert check_sosc(h, opt.hessian_factor) == opt.sosc_min_eig_est > 0.0
        # the optimizer hands on W and the factor of the matrix it certified
        np.testing.assert_array_equal(
            opt.state_sensitivity, state_sensitivity(p, opt.as_eval_point())
        )
        c, lower = opt.hessian_factor
        assert not lower
        np.testing.assert_array_equal(np.triu(c), scipy.linalg.cholesky(h))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_diffusion_control_1d(n_state=24, n_param=6),
            build_advdiff_inversion_1d,
            build_logistic_toy,
        ],
        ids=["diffusion", "advdiff", "logistic"],
    )
    def test_null_space_form_matches_matvec_columns(self, build):
        # H from W = -c_u^{-1} c_z against the state and adjoint solve per
        # column of reduced_hessian_matvec
        p = build()
        rng = np.random.default_rng(9)
        d = p.dims
        pt = EvalPoint(
            solve_forward(p, np.zeros(d.n_z), p.default_theta()),
            rng.standard_normal(d.n_z),
            rng.standard_normal(d.n_lambda),
            p.default_theta(),
        )
        ref = reduced_hessian_matvec(p, pt, np.eye(d.n_z))
        h = reduced_hessian_dense(p, pt)
        assert np.linalg.norm(h - ref) <= 1e-12 * np.linalg.norm(ref)
        w = state_sensitivity(p, pt)
        assert w.flags.f_contiguous
        np.testing.assert_array_equal(reduced_hessian_dense(p, pt, w), h)


class TestConstantReducedHessian:
    @pytest.mark.parametrize(
        "build",
        [build_diffusion_control_1d, build_advdiff_inversion_1d, build_logistic_toy],
        ids=["diffusion", "advdiff", "logistic"],
    )
    def test_flag_matches_the_hessian(self, build):
        # the flag lets the optimizer keep its first reduced Hessian, so it
        # must hold only where H is the same at every (u, z, lambda)
        p = build()
        d = p.dims
        rng = np.random.default_rng(8)
        theta = 0.2 * rng.standard_normal(d.n_theta)
        points = [
            EvalPoint(
                rng.standard_normal(d.n_u),
                rng.standard_normal(d.n_z),
                rng.standard_normal(d.n_lambda),
                theta,
            )
            for _ in range(2)
        ]
        h1, h2 = (reduced_hessian_dense(p, pt) for pt in points)
        gap = np.linalg.norm(h1 - h2) / np.linalg.norm(h1)
        if p.constant_reduced_hessian:
            assert gap <= 1e-12
            # the optimizer then forms W once as well
            w1, w2 = (state_sensitivity(p, pt) for pt in points)
            assert np.linalg.norm(w1 - w2) <= 1e-12 * np.linalg.norm(w1)
        else:
            assert gap > 1e-6


class TestSolveOptimization:
    def test_logistic_known_optimum(self):
        p = build_logistic_toy()
        opt = solve_optimization(p, np.array([0.5, 0.5]))
        assert opt.z0[0] == pytest.approx(8.2156, abs=1e-3)
        assert opt.grad_norm <= 1e-9
        assert opt.sosc_min_eig_est > 0.0
        g = reduced_gradient(p, opt.u0, opt.z0, opt.theta0, opt.lambda0)
        assert abs(g[0]) <= 1e-9

    def test_diffusion_stationarity(self):
        p = build_diffusion_control_1d(n_state=32, n_param=8)
        rng = np.random.default_rng(3)
        theta = 0.2 * rng.standard_normal(8)
        opt = solve_optimization(p, theta)
        assert opt.grad_norm <= 1e-9
        # linear-quadratic: the forward state must close the constraint
        np.testing.assert_allclose(
            p.residual(opt.u0, opt.z0, theta), 0.0, atol=1e-10
        )

    def test_init_independence_for_convex_problem(self):
        p = build_diffusion_control_1d(n_state=24, n_param=6)
        theta = np.zeros(6)
        opt_zero = solve_optimization(p, theta)
        rng = np.random.default_rng(4)
        init = InitialIterate(
            u_init=rng.standard_normal(24),
            z_init=rng.standard_normal(24),
        )
        opt_rand = solve_optimization(p, theta, init)
        np.testing.assert_allclose(opt_rand.z0, opt_zero.z0, atol=1e-6)

    def test_bad_init_dimensions(self):
        p = build_logistic_toy()
        init = InitialIterate(u_init=np.zeros(3), z_init=np.zeros(1))
        with pytest.raises(OptimizerError):
            solve_optimization(p, np.array([0.5, 0.5]), init)

    def test_iteration_budget_enforced(self):
        p = build_logistic_toy()
        cfg = OptimizerConfig(max_iter=0, stationarity_tol=1e-12)
        with pytest.raises(OptimizerError):
            solve_optimization(p, np.array([0.5, 0.5]), cfg=cfg)

    def test_steepest_descent_where_hessian_is_indefinite(self):
        p = build_logistic_toy()
        theta = np.array([0.5, 0.5])
        init = InitialIterate(u_init=np.zeros(1), z_init=np.array([-5.0]))
        # the Cholesky factorization fails at the start
        z = init.z_init
        u = solve_forward(p, z, theta)
        lam = solve_adjoint(p, u, z, theta)
        assert reduced_hessian_dense(p, EvalPoint(u, z, lam, theta))[0, 0] < 0.0
        opt = solve_optimization(p, theta, init)
        assert opt.z0[0] == pytest.approx(8.2156, abs=1e-3)
        assert opt.grad_norm <= 1e-9
        assert opt.sosc_min_eig_est > 0.0

    def test_reduced_hessian_too_large_without_sosc_check(self):
        # the Newton steps need the dense reduced Hessian even when SOSC is off
        p = build_diffusion_control_1d(n_state=2001, n_param=8)
        cfg = OptimizerConfig(check_sosc=False)
        with pytest.raises(OptimizerError, match="reduced Hessian too large"):
            solve_optimization(p, np.zeros(8), cfg=cfg)

    def test_adjoint_solved_once_per_iterate(self, monkeypatch):
        # the loop's last adjoint is at the final iterate; solving it again
        # there costs one more PDE solve for the same lambda
        vectors = []
        original = DiffusionControlProblem.state_jacobian_adjoint_solve

        def counted(self, p, rhs):
            if rhs.ndim == 1:
                vectors.append(rhs)
            return original(self, p, rhs)

        monkeypatch.setattr(
            DiffusionControlProblem, "state_jacobian_adjoint_solve", counted
        )
        p = build_diffusion_control_1d(n_state=24, n_param=6)
        opt = solve_optimization(p, np.zeros(6))
        assert opt.iterations == 1
        assert len(vectors) == 2
        np.testing.assert_array_equal(
            opt.lambda0, solve_adjoint(p, opt.u0, opt.z0, opt.theta0)
        )


BUILT_IN = {
    "diffusion": lambda: build_diffusion_control_1d(n_state=64, n_param=16, gamma=0.01),
    "advdiff": build_advdiff_inversion_1d,
    "logistic": build_logistic_toy,
}


class _NegatedLzz(DiffusionControlProblem):
    """Diffusion control with L_zz negated: the reduced gradient is unchanged,
    so the original optimum stays stationary, but H = -gamma M + W^T M W is
    indefinite there."""

    def l_zz(self, p, v):
        return -super().l_zz(p, v)


class TestSecondOrderCheck:
    @pytest.mark.parametrize("name", sorted(BUILT_IN))
    def test_estimate_tracks_the_smallest_eigenvalue(self, name):
        # the estimate is not a bound: 0.80 (advdiff) to 1.00 (logistic) of
        # the exact value, measured on these problems
        p = BUILT_IN[name]()
        opt = solve_optimization(p, p.default_theta())
        h = reduced_hessian_dense(p, opt.as_eval_point())
        ratio = opt.sosc_min_eig_est / scipy.linalg.eigvalsh(h)[0]
        assert 0.5 <= ratio <= 2.0
        # the estimator is LAPACK's: dpocon gives rcond = 1 / (||H||_1 est)
        h_norm = np.linalg.norm(h, 1)
        rcond, info = scipy.linalg.lapack.dpocon(opt.hessian_factor[0], h_norm)
        assert info == 0
        assert opt.sosc_min_eig_est == pytest.approx(rcond * h_norm, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(BUILT_IN))
    def test_accepted_point_runs_no_eigensolve(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve at an accepted optimal point")

        monkeypatch.setattr(optimizer, "dense_sym_eig", refuse)
        p = BUILT_IN[name]()
        opt = solve_optimization(p, p.default_theta())
        assert opt.sosc_min_eig_est > 0.0

    def test_gamma_zero_fine_mesh_is_accepted(self):
        # the exact lambda_min sits below n eps ||H||_1, which would reject
        # this minimizer, and far above the floor eps ||H||_1
        p = build_diffusion_control_1d(n_state=1024, n_param=16, gamma=0.0)
        opt = solve_optimization(p, p.default_theta())
        h = reduced_hessian_dense(p, opt.as_eval_point(), opt.state_sensitivity)
        floor = np.finfo(float).eps * np.linalg.norm(h, 1)
        assert scipy.linalg.eigvalsh(h)[0] < 1024 * floor
        assert opt.sosc_min_eig_est > 100.0 * floor

    def test_indefinite_stationary_point_is_rejected(self):
        theta = np.zeros(8)
        opt = solve_optimization(build_diffusion_control_1d(n_state=32, n_param=8), theta)
        p = _NegatedLzz(n_state=32, n_param=8)
        h = reduced_hessian_dense(p, opt.as_eval_point())
        lam_min = scipy.linalg.eigvalsh(h)[0]
        assert lam_min < 0.0
        # warm-started at the optimum, the loop stops at iteration 0 with a
        # failed factorization, and the message gives the exact eigenvalue
        init = InitialIterate(u_init=opt.u0, z_init=opt.z0)
        with pytest.raises(OptimizerError, match=re.escape(f"min eig {lam_min:.3e}")):
            solve_optimization(p, theta, init)

    def test_singular_factorable_matrix_is_rejected(self):
        h = np.diag([1.0, 1e-20])
        factor = scipy.linalg.cho_factor(h)
        with pytest.raises(OptimizerError, match="floor eps"):
            check_sosc(h, factor)
        h = np.diag([1.0, 1e-3])
        assert check_sosc(h, scipy.linalg.cho_factor(h)) == pytest.approx(1e-3)
