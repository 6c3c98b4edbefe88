import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hdsa import optimizer
from hdsa.linalg import (
    BLOCK_BYTES,
    block_width,
    cho_solve,
    cholesky_in_place,
    identity_columns,
    matmul,
)
from hdsa.optimizer import (
    OptimizerConfig,
    OptimizerError,
    check_sosc,
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
        plan = SamplingPlan(Distribution("uniform", -1.0, 1.0), 16, master_seed=0)
        theta = plan.sample(0)
        z = np.zeros(1024)
        u = solve_forward(p, z, theta)
        lam = solve_adjoint(p, u, z, theta)
        _, h = reduced_hessian_dense(p, EvalPoint(u, z, lam, theta))
        g = p.lagrangian_grad_z(EvalPoint(u, z, lam, theta))
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
        _, h = reduced_hessian_dense(p, pt)
        v = rng.standard_normal(24)
        np.testing.assert_allclose(
            reduced_hessian_matvec(p, pt, v), h @ v, rtol=1e-9, atol=1e-12
        )

    def test_dense_symmetric_and_spd(self):
        p = build_diffusion_control_1d(n_state=24, n_param=6)
        opt = solve_optimization(p, np.zeros(6))
        w, h = reduced_hessian_dense(p, opt.as_eval_point())
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        # the estimate comes from the factor the optimizer kept
        est = check_sosc(h, opt.hessian_factor, np.linalg.norm(h, 1))
        assert est == opt.sosc_min_eig_est > 0.0
        # the optimizer hands on W and the factor of the matrix it certified
        np.testing.assert_array_equal(opt.state_sensitivity, w)
        c, lower = opt.hessian_factor
        assert not lower
        np.testing.assert_array_equal(np.triu(c), scipy.linalg.cholesky(h))

    @pytest.mark.parametrize(
        "build, theta",
        [
            (lambda: build_diffusion_control_1d(n_state=24, n_param=6), np.zeros(6)),
            (build_advdiff_inversion_1d, np.zeros(16)),
            (build_logistic_toy, np.array([0.5, 0.5])),
        ],
        ids=["diffusion", "advdiff", "logistic"],
    )
    def test_null_space_form_matches_matvec_columns(self, build, theta):
        # H from W = -c_u^{-1} c_z against the state and adjoint solve per
        # column of reduced_hessian_matvec
        p = build()
        rng = np.random.default_rng(9)
        d = p.dims
        pt = EvalPoint(
            solve_forward(p, np.zeros(d.n_z), theta),
            rng.standard_normal(d.n_z),
            rng.standard_normal(d.n_lambda),
            theta,
        )
        ref = reduced_hessian_matvec(p, pt, np.eye(d.n_z))
        w, h = reduced_hessian_dense(p, pt)
        assert np.linalg.norm(h - ref) <= 1e-12 * np.linalg.norm(ref)
        assert w.flags.f_contiguous and h.flags.f_contiguous


@pytest.fixture(scope="module")
def dense_point():
    """Diffusion at 600 nodes, where H is assembled in 9 column blocks."""
    p = build_diffusion_control_1d(n_state=600, n_param=16, gamma=0.01)
    theta = np.linspace(-0.5, 0.5, 16)
    z = np.random.default_rng(11).standard_normal(600)
    u = solve_forward(p, z, theta)
    return p, EvalPoint(u, z, solve_adjoint(p, u, z, theta), theta)


class TestHessianStorage:
    """H, its 1-norm and its Cholesky factor share one n_z x n_z array."""

    def test_upper_block_triangle_mirrored(self, dense_point, monkeypatch):
        """Column block [start, stop) is rows [:stop] of the formula, from
        one product with W[:, :stop]; the rows below take its transpose."""
        p, pt = dense_point
        n_u, n_z = p.dims.n_u, p.dims.n_z
        width = block_width(n_u)
        assert n_z > 8 * width
        read = []

        def spy(a, b, trans_a=False):
            read.append(a)
            return matmul(a, b, trans_a)

        monkeypatch.setattr(optimizer, "matmul", spy)
        w, h = reduced_hessian_dense(p, pt)
        assert h.flags.f_contiguous
        np.testing.assert_array_equal(h, h.T)
        starts = range(0, n_z, width)
        stops = [min(start + width, n_z) for start in starts]
        assert [a.shape for a in read] == [(n_u, stop) for stop in stops]
        for a, stop in zip(read, stops):
            assert np.shares_memory(a, w) and np.array_equal(a, w[:, :stop])
        for start, stop in zip(starts, stops):
            e, w_c = identity_columns(n_z, start, stop), w[:, start:stop]
            ref = matmul(w[:, :stop], p.l_uu(pt, w_c) + p.l_uz(pt, e), trans_a=True)
            ref += p.l_zu(pt, w_c)[:stop]
            ref += p.l_zz(pt, e)[:stop]
            upper = np.triu(np.ones_like(ref, dtype=bool), start)
            np.testing.assert_array_equal(h[:stop, start:stop][upper], ref[upper])

    def test_one_pass_solves_each_block_once(self, dense_point, monkeypatch):
        """W and H come from one pass over the 9 column blocks: one state
        solve and one identity block per column block, 600 columns in all."""
        p, pt = dense_point
        n_z, width = p.dims.n_z, block_width(p.dims.n_u)
        solved, built = [], []
        solve, identity = p.state_jacobian_solve, optimizer.identity_columns
        monkeypatch.setattr(
            p, "state_jacobian_solve", lambda q, rhs: solved.append(rhs.shape[1]) or solve(q, rhs)
        )
        monkeypatch.setattr(
            optimizer, "identity_columns", lambda *a: built.append(a) or identity(*a)
        )
        reduced_hessian_dense(p, pt)
        starts = range(0, n_z, width)
        assert len(starts) == 9
        assert solved == [min(width, n_z - start) for start in starts]
        assert sum(solved) == n_z == 600
        assert built == [(n_z, start, min(start + width, n_z)) for start in starts]

    @pytest.mark.parametrize("name", ["dense", "advdiff", "logistic"])
    def test_state_sensitivity_is_the_solved_negated_c_z(self, dense_point, name):
        """W negates the identity block before c_z, and keeps the bits of
        solving with -c_z(I) block by block; the optimizer holds that W."""
        if name == "dense":
            p, pt = dense_point
        else:
            p = BUILT_IN[name]()
            opt = solve_optimization(p, THETA0[name])
            pt = opt.as_eval_point()
        w, _ = reduced_hessian_dense(p, pt)
        if name != "dense":
            assert np.array_equal(opt.state_sensitivity, w)
        n_z, width = p.dims.n_z, block_width(p.dims.n_u)
        ref = np.column_stack([
            p.state_jacobian_solve(pt, -p.c_z(pt, identity_columns(n_z, s, min(s + width, n_z))))
            for s in range(0, n_z, width)
        ])
        assert np.array_equal(w, ref)

    def test_factor_shares_the_array(self, dense_point):
        _, h = reduced_hessian_dense(*dense_point)
        ref = h.copy()
        c, lower = optimizer.factor_reduced_hessian(h)
        assert c is h and not lower and not c.flags.writeable
        # R above the diagonal, bit for bit the separate factor, and H below
        np.testing.assert_array_equal(np.triu(c), scipy.linalg.cholesky(ref))
        np.testing.assert_array_equal(np.tril(c, -1), np.tril(ref, -1))
        assert optimizer._norm_1(ref) == pytest.approx(np.linalg.norm(ref, 1), rel=1e-14)

    def test_failed_factorization_restores_h(self, dense_point):
        _, h = reduced_hessian_dense(*dense_point)
        # shifted by its middle eigenvalue, H fails well into the factorization
        h -= np.diag(np.full(h.shape[0], np.median(scipy.linalg.eigvalsh(h))))
        ref = h.copy()
        overwritten = h.copy(order="F")
        assert not cholesky_in_place(overwritten)
        assert not np.array_equal(overwritten, ref)
        assert optimizer.factor_reduced_hessian(h) is None
        np.testing.assert_array_equal(h, ref)

    def test_optimizer_peak_memory(self):
        """Above its entry, solve_optimization holds W and H/R and no other
        n_z x n_z array; at the separate factor it held about 4 n_z^2."""
        p = build_diffusion_control_1d(n_state=600, n_param=16, gamma=0.01)
        theta = np.linspace(-0.5, 0.5, 16)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            opt = solve_optimization(p, theta)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        n_z = p.dims.n_z
        assert opt.sosc_min_eig_est > 0.0
        assert peak <= 2 * 8 * n_z**2 + 8 * BLOCK_BYTES


    def test_build_and_solve_peak_memory(self):
        """Building the problem and solving it hold W and H/R and no other
        n_z x n_z array: M_Z and its factor are kept by their band. With a
        dense M_Z and R_Z the peak was about 4 n_z^2 doubles."""
        theta = np.linspace(-0.5, 0.5, 16)
        tracemalloc.start()
        try:
            p = build_diffusion_control_1d(n_state=600, n_param=16, gamma=0.01)
            opt = solve_optimization(p, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_z = p.dims.n_z
        assert opt.sosc_min_eig_est > 0.0
        assert peak <= 2 * 8 * n_z**2 + 8 * BLOCK_BYTES


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
        (w1, h1), (w2, h2) = (reduced_hessian_dense(p, pt) for pt in points)
        gap = np.linalg.norm(h1 - h2) / np.linalg.norm(h1)
        if p.constant_reduced_hessian:
            assert gap <= 1e-12
            # the optimizer then forms W once as well
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
        g = p.lagrangian_grad_z(opt.as_eval_point())
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
        assert reduced_hessian_dense(p, EvalPoint(u, z, lam, theta))[1][0, 0] < 0.0
        opt = solve_optimization(p, theta, init)
        assert opt.z0[0] == pytest.approx(8.2156, abs=1e-3)
        assert opt.grad_norm <= 1e-9
        assert opt.sosc_min_eig_est > 0.0

    def test_reduced_hessian_too_large_without_sosc_check(self, monkeypatch):
        # the Newton steps need the dense reduced Hessian even when SOSC is off
        p = build_diffusion_control_1d(n_state=2001, n_param=8)
        cfg = OptimizerConfig(check_sosc=False)
        solved = []
        solve = p.state_jacobian_solve
        monkeypatch.setattr(
            p, "state_jacobian_solve", lambda pt, rhs: solved.append(rhs.shape) or solve(pt, rhs)
        )
        with pytest.raises(OptimizerError, match="reduced Hessian too large"):
            solve_optimization(p, np.zeros(8), cfg=cfg)
        # u = 0 solves the state equation at z = 0, and W's blocks come after
        # the refusal, so no state solve ran
        assert solved == []

    def test_adjoint_solved_once_per_iterate(self, monkeypatch):
        """The reduced gradient solves no adjoint, so lambda is solved only
        where it is read: once per solve_optimization where H is constant
        (diffusion), at the accepted point, and at each of the iterations + 1
        iterates where H reads it (the logistic toy), as before. lambda0 is
        the last solve, bit for bit the adjoint at (u0, z0)."""
        for build, theta, constant in (
            (lambda: build_diffusion_control_1d(n_state=24, n_param=6), np.zeros(6), True),
            (build_logistic_toy, np.array([0.5, 0.5]), False),
        ):
            p = build()
            assert p.constant_reduced_hessian is constant
            columns = []
            solve = p.state_jacobian_adjoint_solve
            monkeypatch.setattr(
                p,
                "state_jacobian_adjoint_solve",
                lambda pt, rhs: columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
                or solve(pt, rhs),
            )
            opt = solve_optimization(p, theta)
            # a constant H takes one Newton step; the logistic toy takes several
            if constant:
                assert opt.iterations == 1
            else:
                assert opt.iterations >= 1
            assert sum(columns) == (1 if constant else opt.iterations + 1)
            monkeypatch.undo()
            np.testing.assert_array_equal(
                opt.lambda0, solve_adjoint(p, opt.u0, opt.z0, opt.theta0)
            )

    def test_short_run_solves_no_adjoint(self, monkeypatch):
        """A constant-H run that stops short of stationarity raises before
        it pays for lambda."""
        p = build_diffusion_control_1d(n_state=24, n_param=6)
        monkeypatch.setattr(
            p, "state_jacobian_adjoint_solve", lambda pt, rhs: pytest.fail("adjoint solve")
        )
        cfg = OptimizerConfig(max_iter=0)
        with pytest.raises(OptimizerError, match="did not reach stationarity"):
            solve_optimization(p, np.full(6, 0.3), cfg=cfg)


BUILT_IN = {
    "diffusion": lambda: build_diffusion_control_1d(n_state=64, n_param=16, gamma=0.01),
    "advdiff": build_advdiff_inversion_1d,
    "logistic": build_logistic_toy,
}
# the nominal parameters of each: zero for the PDE problems
THETA0 = {
    "diffusion": np.zeros(16),
    "advdiff": np.zeros(16),
    "logistic": np.array([0.5, 0.5]),
}


class TestSensitivityGradient:
    """The optimizer's reduced gradient is J_z + W^T J_u, from the W it
    holds, with no adjoint solve."""

    @pytest.mark.parametrize("name", sorted(BUILT_IN))
    def test_equals_the_adjoint_form(self, name):
        """At a feasible point that is not stationary, J_z + W^T J_u equals
        J_z + c_z^T lambda, lambda from ``solve_adjoint``, to 1e-12 of the
        larger term; and the optimizer's |g|_M there is the M^-1-norm of the
        sensitivity form, bit for bit."""
        p = BUILT_IN[name]()
        d, theta = p.dims, THETA0[name]
        z = np.random.default_rng(12).standard_normal(d.n_z)
        u = solve_forward(p, z, theta)
        w, _ = reduced_hessian_dense(p, EvalPoint(u, z, np.zeros(d.n_lambda), theta))
        j_z, w_j_u = p.obj_grad_z(u, z, theta), matmul(w, p.obj_grad_u(u, z, theta), trans_a=True)
        g = j_z + w_j_u
        lam = solve_adjoint(p, u, z, theta)
        ref = p.lagrangian_grad_z(EvalPoint(u, z, lam, theta))
        m_z = p.spaces.m_z
        assert np.sqrt(ref @ m_z.solve(ref)) > 1e-3
        scale = max(np.linalg.norm(j_z), np.linalg.norm(w_j_u))
        assert np.linalg.norm(g - ref) <= 1e-12 * scale
        cfg = OptimizerConfig(stationarity_tol=np.inf, check_sosc=False)
        opt = solve_optimization(p, theta, InitialIterate(u, z), cfg)
        assert opt.iterations == 0
        np.testing.assert_array_equal(opt.u0, u)
        assert opt.grad_norm == float(np.sqrt(max(g @ m_z.solve(g), 0.0)))

    @pytest.mark.parametrize("name", ["advdiff", "diffusion"])
    def test_constant_hessian_formed_at_zero_lambda(self, name):
        """A constant H is formed at lambda = 0: bit for bit W and H at
        lambda0, and the optimizer's W and factor are that W and the
        Cholesky factor of that H with H's own entries below the diagonal."""
        p = BUILT_IN[name]()
        assert p.constant_reduced_hessian
        opt = solve_optimization(p, THETA0[name])
        assert opt.iterations == 1
        zero = EvalPoint(opt.u0, opt.z0, np.zeros(p.dims.n_lambda), opt.theta0)
        w_zero, h_zero = reduced_hessian_dense(p, zero)
        w_opt, h_opt = reduced_hessian_dense(p, opt.as_eval_point())
        assert np.abs(opt.lambda0).max() > 0.0
        np.testing.assert_array_equal(h_zero, h_opt)
        np.testing.assert_array_equal(w_zero, w_opt)
        np.testing.assert_array_equal(opt.state_sensitivity, w_opt)
        c, lower = opt.hessian_factor
        assert not lower
        np.testing.assert_array_equal(np.tril(c, -1), np.tril(h_opt, -1))
        np.testing.assert_array_equal(np.triu(c), scipy.linalg.cholesky(h_opt))


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
        opt = solve_optimization(p, THETA0[name])
        _, h = reduced_hessian_dense(p, opt.as_eval_point())
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
        opt = solve_optimization(p, THETA0[name])
        assert opt.sosc_min_eig_est > 0.0

    def test_gamma_zero_fine_mesh_is_accepted(self):
        # the exact lambda_min sits below n eps ||H||_1, which would reject
        # this minimizer, and far above the floor eps ||H||_1
        p = build_diffusion_control_1d(n_state=1024, n_param=16, gamma=0.0)
        opt = solve_optimization(p, np.zeros(16))
        _, h = reduced_hessian_dense(p, opt.as_eval_point())
        floor = np.finfo(float).eps * np.linalg.norm(h, 1)
        assert scipy.linalg.eigvalsh(h)[0] < 1024 * floor
        assert opt.sosc_min_eig_est > 100.0 * floor

    def test_indefinite_stationary_point_is_rejected(self):
        theta = np.zeros(8)
        opt = solve_optimization(build_diffusion_control_1d(n_state=32, n_param=8), theta)
        p = _NegatedLzz(n_state=32, n_param=8)
        _, h = reduced_hessian_dense(p, opt.as_eval_point())
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
            check_sosc(h, factor, np.linalg.norm(h, 1))
        h = np.diag([1.0, 1e-3])
        factor = scipy.linalg.cho_factor(h)
        assert check_sosc(h, factor, np.linalg.norm(h, 1)) == pytest.approx(1e-3)


class TestInverseNormEstimate:
    """The SOSC estimate solves with H by ``linalg.cho_solve``, which takes
    a vector by two triangular ``dtrsv``."""

    @staticmethod
    def _dpotrs(factor, v):
        c, lower = factor
        return scipy.linalg.lapack.dpotrs(c, v, lower=lower)[0]

    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("n", [1, 5, 64, 600])
    def test_matches_dpotrs(self, monkeypatch, n, lower):
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        h = (q * np.logspace(0.0, -2.0, n)) @ q.T
        factor = scipy.linalg.cho_factor(h, lower=lower)
        v = rng.standard_normal(n)
        ref = self._dpotrs(factor, v)
        got = cho_solve(factor, v)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        est = optimizer._inverse_norm_estimate(factor)
        for _ in range(3):
            assert optimizer._inverse_norm_estimate(factor) == est
        monkeypatch.setattr(optimizer, "cho_solve", self._dpotrs)
        assert est == pytest.approx(optimizer._inverse_norm_estimate(factor), rel=1e-14)


class TestTrialState:
    """The line search starts each trial forward solve from u + step W d."""

    @pytest.mark.parametrize("name", ["diffusion", "advdiff"])
    def test_trial_of_a_linear_state_costs_no_solve(self, name, monkeypatch):
        p = BUILT_IN[name]()
        per_forward, inside = [], []
        solve, forward = p.state_jacobian_solve, optimizer.solve_forward

        def counted_solve(pt, rhs):
            if inside:
                per_forward[-1] += 1 if rhs.ndim == 1 else rhs.shape[1]
            return solve(pt, rhs)

        def counted_forward(*args, **kwargs):
            per_forward.append(0)
            inside.append(1)
            try:
                return forward(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(p, "state_jacobian_solve", counted_solve)
        monkeypatch.setattr(optimizer, "solve_forward", counted_forward)
        opt = solve_optimization(p, THETA0[name])
        # after the first forward solve, one trial per Newton step, each
        # solved by its prediction
        assert opt.iterations >= 1
        assert per_forward[1:] == [0] * opt.iterations

    @pytest.mark.parametrize(
        "theta, iterations, solves",
        # outer iterations and state solves with trials started from the old u
        [
            ([0.5, 0.5], 4, 10),
            ([0.4, 0.6], 4, 10),
            ([0.6, 0.4], 4, 10),
            ([1.0, 0.0], 4, 10),
            ([0.2, 1.2], 3, 8),
        ],
    )
    def test_logistic_counts_do_not_rise(self, theta, iterations, solves, monkeypatch):
        p = build_logistic_toy()
        columns = []
        solve = p.state_jacobian_solve
        monkeypatch.setattr(
            p, "state_jacobian_solve", lambda pt, rhs: columns.append(1) or solve(pt, rhs)
        )
        opt = solve_optimization(p, np.array(theta))
        assert opt.grad_norm <= 1e-9
        assert opt.iterations <= iterations
        assert len(columns) <= solves
