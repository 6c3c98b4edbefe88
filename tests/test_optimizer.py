import numpy as np
import pytest
import scipy.linalg

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
            n_u=1024,
            n_z=1024,
        )
        theta, init = plan.sample(0)
        z = init.z_init
        u = solve_forward(p, z, theta, init.u_init)
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
        opt = solve_optimization(p, theta, init)
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
        assert check_sosc(h) > 0.0
        assert abs(check_sosc(h) - np.linalg.eigvalsh(h)[0]) <= 1e-12 * np.linalg.norm(h)
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
        assert opt.sosc_min_eig > 0.0
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
        assert opt.sosc_min_eig > 0.0

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
