import numpy as np
import pytest

import hdsa.analysis as analysis
import hdsa.linalg as linalg
import hdsa.operators as operators
import hdsa.optimizer as optimizer
from hdsa.analysis import analyze_sample, global_analysis
from hdsa.operators import (
    KKT_TOL,
    NORM_PROBES,
    KktOperator,
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
        return super().objective(u, z, theta) + self.beta * u @ self.spaces.m_z.apply(z)

    def obj_grad_u(self, u, z, theta):
        return super().obj_grad_u(u, z, theta) + self.beta * self.spaces.m_z.apply(z)

    def obj_grad_z(self, u, z, theta):
        return super().obj_grad_z(u, z, theta) + self.beta * self.spaces.m_z.apply(u)

    def l_uz(self, p, v):
        return self.beta * self.spaces.m_z.apply(v)

    def l_zu(self, p, v):
        return self.beta * self.spaces.m_z.apply(v)


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
    opt = solve_optimization(problem, np.zeros(problem.dims.n_theta))
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
        _, h = reduced_hessian_dense(problem, point)
        assert h[0, 0] < 0.0
        assert optimizer.factor_reduced_hessian(h) is None
        op = KktOperator(problem, point)
        with pytest.raises(SolveError, match="not positive definite"):
            op.solve(np.ones(op.dim))
        assert isinstance(SolveError("x"), COMPUTE_ERRORS)

    @pytest.mark.parametrize("name", ["diffusion", "advdiff"])
    @pytest.mark.parametrize("block", [0, 1, 2], ids=["u", "z", "lambda"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, kkt_points, name, block, bad):
        problem, point = kkt_points[name]
        op = KktOperator(problem, point)
        rhs = np.ones((op.dim, 2))
        op.split(rhs)[block][0, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            op.solve(rhs)

    def test_optimizers_factor_is_read_only(self, diffusion_point):
        problem, point = diffusion_point
        c, lower = optimizer.factor_reduced_hessian(reduced_hessian_dense(problem, point)[1])
        assert not lower
        with pytest.raises(ValueError, match="read-only"):
            c[0, 0] = 1.0

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

    def test_zero_rhs_reads_the_error_of_a_nonzero_x(self, diffusion_point, monkeypatch):
        """b = 0 is solved by x = 0 alone: any other x has a backward error."""
        problem, point = diffusion_point
        op = KktOperator(problem, point)
        x = np.zeros((op.dim, 2))
        x[:, 1] = np.random.default_rng(14).standard_normal(op.dim)
        err = op._backward_errors(x, np.zeros((op.dim, 2)))
        assert err[0] == 0.0 and err[1] > KKT_TOL
        backward = op._backward
        monkeypatch.setattr(op, "_backward", lambda *a: backward(*a) + 1e-6 * x[:, 1])
        with pytest.raises(SolveError, match="backward error"):
            op.solve(np.zeros(op.dim))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_solution_fails_the_gate(self, diffusion_point, monkeypatch, bad):
        """A non-finite x reads an infinite backward error, with no invalid
        arithmetic (pytest makes a RuntimeWarning an error), and the gate
        refuses it; the finite columns beside it keep their errors."""
        problem, point = diffusion_point
        op = KktOperator(problem, point)
        rhs = np.random.default_rng(16).standard_normal((op.dim, 2))
        x = op.solve(rhs)[0]
        spoiled = x.copy()
        spoiled[3, 1] = bad
        err = op._backward_errors(spoiled, rhs)
        assert err[0] == op._backward_errors(x, rhs)[0] <= KKT_TOL
        assert err[1] == np.inf
        backward = op._backward

        def spoil(*a):
            out = backward(*a)
            out[3] = bad
            return out

        monkeypatch.setattr(op, "_backward", spoil)
        with pytest.raises(SolveError, match="backward error"):
            op.solve(rhs[:, 0])
        with pytest.raises(SolveError, match="backward error"):
            op.solve(rhs)

    def test_first_check_applies_k_once(self, diffusion_point, monkeypatch):
        """The first backward error takes the residual and the ||K|| probes
        from one block apply; later ones apply K to x alone."""
        problem, point = diffusion_point
        op = KktOperator(problem, point)
        shapes = []
        apply = op.apply
        monkeypatch.setattr(op, "apply", lambda v: shapes.append(v.shape) or apply(v))
        rhs = np.random.default_rng(15).standard_normal((op.dim, 3))
        op.solve(rhs)
        op.solve(rhs[:, 0])
        assert shapes == [(op.dim, 3 + NORM_PROBES), (op.dim,)]

    def test_norm_probes_drawn_once_per_dimension(self, kkt_points, monkeypatch):
        """Psi is the KKT_NORM_STREAM draw, read-only, and one array for
        every operator of a stacked dimension."""
        draws = []
        rng_for = operators.rng_for
        monkeypatch.setattr(
            operators, "rng_for", lambda *key: draws.append(key) or rng_for(*key)
        )
        operators._norm_probes.cache_clear()
        ops = [KktOperator(*kkt_points[name]) for name in ("diffusion", "diffusion", "advdiff")]
        for op in ops:
            op.solve(np.ones(op.dim))
        assert draws == [(0, operators.KKT_NORM_STREAM)] * 2
        psi = operators._norm_probes(ops[0].dim)
        assert operators._norm_probes(ops[1].dim) is psi
        np.testing.assert_array_equal(
            psi, rng_for(0, operators.KKT_NORM_STREAM).standard_normal((ops[0].dim, NORM_PROBES))
        )
        with pytest.raises(ValueError, match="read-only"):
            psi[0, 0] = 1.0

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
        report = check_derivatives(problem, point)
        assert report.passed, report.failures()
        v = np.random.default_rng(6).standard_normal(problem.dims.n_u)
        assert np.linalg.norm(problem.l_zu(point, v)) > 1e-3 * np.linalg.norm(v)

    def test_null_space_form_matches_matvec_columns(self, coupled_point):
        problem, point = coupled_point
        ref = reduced_hessian_matvec(problem, point, np.eye(problem.dims.n_z))
        _, h = reduced_hessian_dense(problem, point)
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
        ref = np.linalg.solve(kkt.dense(), sens.b(np.eye(sens.n_theta)))
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
        original = optimizer.reduced_hessian_dense
        for module in (optimizer, operators):
            monkeypatch.setattr(
                module,
                "reduced_hessian_dense",
                lambda *a, m=module.__name__: calls.append(m) or original(*a),
            )
        problem = build_diffusion_control_1d(n_state=24, n_param=6)
        plan = SamplingPlan(Distribution("uniform", -1.0, 1.0), 6, master_seed=0)
        cfg = RandEigConfig(k_pairs=2, oversampling=2, seed=0)

        def run(opt_cfg):
            calls.clear()
            return analyze_sample(problem, plan, cfg, 0, opt_cfg), sorted(calls)

        return run

    def test_reduced_hessian_assembled_once(self, schur_sample, monkeypatch):
        factors = []
        cholesky = optimizer.cholesky_in_place
        monkeypatch.setattr(
            optimizer, "cholesky_in_place", lambda *a, **k: factors.append(1) or cholesky(*a, **k)
        )
        res, calls = schur_sample(OptimizerConfig())
        assert calls == ["hdsa.optimizer"]
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
        assert calls == ["hdsa.optimizer"]
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
        plan = SamplingPlan(Distribution("uniform", -1.0, 1.0), problem.dims.n_theta)
        out[name] = (problem, plan, solve_optimization(problem, plan.sample(0)))
    return out


class TestOperatorCheck:
    """A sensitivity operator's first columns go through one full KKT solve,
    on its first use, and a wrong factor of H fails that solve instead of
    being refined away."""

    @pytest.mark.parametrize("first", ["apply", "apply_transpose", "dense"])
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

        def use(op):
            if first == "dense":
                return op.dense()
            return getattr(op, first)(np.ones(op.n_theta if first == "apply" else op.n_z))

        use(good)
        assert [s.backward_error <= KKT_TOL for s in good.kkt.solve_stats] == [True]
        with pytest.raises(SolveError, match="backward error"):
            use(wrong)
        assert not wrong.kkt.solve_stats

    @pytest.mark.parametrize("name", ["quick start", "advdiff"])
    def test_checked_columns_equal_half_pass_columns(self, check_points, name):
        """The columns that the full solve checks are the columns D and D^T
        would give from their half passes."""
        problem, _, opt = check_points[name]
        sens = SensitivityOperator(
            problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
        )
        kkt = sens.kkt
        d = sens.apply(np.eye(sens.n_theta))
        dt = sens.apply_transpose(np.eye(sens.n_z))
        assert len(kkt.solve_stats) == 1
        d_half = kkt.solve_z(sens.b(np.eye(sens.n_theta)))[1]
        dt_half = sens.b_transpose(kkt.solve_from_z(np.eye(sens.n_z)))
        for got, ref in ((d[:, :NORM_PROBES], d_half), (dt[:, :NORM_PROBES], dt_half)):
            ref = ref[:, :NORM_PROBES]
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_first_block_in_one_pass(self, check_points, monkeypatch):
        """D of the quick start fits in one pass: one B apply and one forward
        half over all 16 columns, its first columns gated by one solve, and
        the result equal, bit for bit, to a full solve of the check columns
        plus a half pass of the others."""
        problem, _, opt = check_points["quick start"]

        def sensitivity(factor=opt.hessian_factor):
            return SensitivityOperator(
                problem, opt.as_eval_point(), opt.state_sensitivity, factor
            )

        ref = sensitivity()
        e = np.eye(ref.n_theta)
        checked = ref.kkt.solve(ref.b(e[:, :NORM_PROBES]))[0]
        two_pass = np.column_stack(
            [ref.kkt.split(checked)[1], ref.kkt.solve_z(ref.b(e[:, NORM_PROBES:]))[1]]
        )
        sens = sensitivity()
        widths = []
        solve_z = sens.kkt.solve_z
        monkeypatch.setattr(
            sens.kkt, "solve_z", lambda rhs: widths.append(rhs.shape[1]) or solve_z(rhs)
        )
        d = sens.dense()
        assert widths == [sens.n_theta]
        np.testing.assert_array_equal(d, two_pass)
        assert len(sens.kkt.solve_stats) == 1
        assert sens.kkt.solve_stats[0].backward_error == ref.kkt.solve_stats[0].backward_error
        assert sens.kkt.work() == ref.kkt.work() == (1, sens.n_theta)
        with pytest.raises(SolveError, match="backward error"):
            sensitivity(_scaled_factor(opt.hessian_factor, 2.0)).dense()

    def test_every_block_chunks_from_column_0(self, check_points, monkeypatch):
        """A block wider than one pass chunks from column 0 whether or not it
        is the operator's first: the first chunk of the first block carries
        the check, and the second block takes no further solve call."""
        problem, _, opt = check_points["quick start"]
        sens = SensitivityOperator(
            problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
        )
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 6 * 8 * sens.kkt.dim)
        widths = []
        solve_z = sens.kkt.solve_z
        monkeypatch.setattr(
            sens.kkt, "solve_z", lambda rhs: widths.append(rhs.shape[1]) or solve_z(rhs)
        )
        e = np.eye(sens.n_theta)
        sens.apply(e)
        sens.apply(e)
        assert widths == [6, 6, 4, 6, 6, 4]
        assert sens.kkt.work() == (1, 2 * sens.n_theta)

    def test_second_assembly_is_bit_identical(self, check_points):
        """D of default advection-diffusion takes two passes, and a second
        assembly lays them out as the first did: the same bits, and no
        further solve call."""
        problem, _, opt = check_points["advdiff"]
        sens = SensitivityOperator(
            problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
        )
        assert sens.n_theta > linalg.block_width(sens.kkt.dim)
        e = np.eye(sens.n_theta)
        first = sens.apply(e)
        assert sens.apply(e).tobytes() == first.tobytes()
        assert sens.kkt.work() == (1, 2 * sens.n_theta)

    def test_check_runs_once(self, check_points):
        problem, _, opt = check_points["quick start"]
        sens = SensitivityOperator(
            problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
        )
        sens.apply(np.eye(sens.n_theta))
        sens.apply_transpose(np.eye(sens.n_z))
        assert sens.kkt.work() == (1, sens.n_theta + sens.n_z)

    def test_transpose_check_makes_no_zero_state_solve(self, check_points, monkeypatch):
        """The check of D^T solves K x = P^T w, whose b_l is 0: its forward
        half takes s = 0 instead of solving for it, and the check still gates
        those columns in one KKT solve."""
        problem, _, opt = check_points["quick start"]
        sens = SensitivityOperator(
            problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
        )
        rhs_blocks = []
        state_solve = problem.state_jacobian_solve

        def counted(p, rhs):
            rhs_blocks.append(rhs)
            return state_solve(p, rhs)

        monkeypatch.setattr(problem, "state_jacobian_solve", counted)
        dt = sens.apply_transpose(np.eye(sens.n_z))
        assert not any(not np.any(b, axis=0).all() for b in rhs_blocks)
        assert [s.backward_error <= KKT_TOL for s in sens.kkt.solve_stats] == [True]
        assert sens.kkt.work() == (1, sens.n_z)
        ref = sens.b_transpose(sens.kkt.solve_from_z(np.eye(sens.n_z)))
        assert np.linalg.norm(dt - ref) <= 1e-12 * np.linalg.norm(ref)

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
    def test_adjoint_consistency(self, kkt_points):
        """<B phi, w> = <phi, B^T w> through the sensitivity operator's
        ``b`` and ``b_transpose``, on each built-in problem."""
        for name in ("diffusion", "advdiff", "logistic"):
            sens = SensitivityOperator(*kkt_points[name])
            rng = np.random.default_rng(5)
            phi = rng.standard_normal(sens.n_theta)
            w = rng.standard_normal(sens.kkt.dim)
            lhs = float(sens.b(phi) @ w)
            rhs = float(phi @ sens.b_transpose(w))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0), name


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


class TestChordResolve:
    """``KktOperator.stationary_point``: chord steps with the base point's K
    on the KKT residual at a nearby theta."""

    @staticmethod
    def _counting(problem, kkt, monkeypatch, widths=None):
        """Count chord steps (forward half passes) and PDE solve columns; a
        solve made inside another (diffusion's adjoint solve is its state
        solve) counts once. ``widths`` collects each pass's column count."""
        counts = {"steps": 0, "solves": 0}
        depth = [0]
        for name in ("state_jacobian_solve", "state_jacobian_adjoint_solve"):
            solve = getattr(problem, name)

            def counted(p, rhs, solve=solve):
                counts["solves"] += 0 if depth[0] else rhs.size // rhs.shape[0]
                depth[0] += 1
                try:
                    return solve(p, rhs)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(problem, name, counted)
        solve_z = kkt.solve_z

        def step(rhs):
            counts["steps"] += 1
            if widths is not None:
                widths.append(rhs.size // kkt.dim)
            return solve_z(rhs)

        monkeypatch.setattr(kkt, "solve_z", step)
        return counts

    @staticmethod
    def _resolve(kkt, theta):
        """The re-solved z at one theta, as a block of one column."""
        (q,) = kkt.stationary_point(theta[:, None])
        return q.z

    @staticmethod
    def _sens(check_points, name, factor_scale=1.0):
        problem, _, opt = check_points[name]
        factor = _scaled_factor(opt.hessian_factor, factor_scale)
        sens = SensitivityOperator(problem, opt.as_eval_point(), opt.state_sensitivity, factor)
        phi = np.eye(sens.n_theta)[0]
        return problem, opt, sens, phi / problem.spaces.m_theta.norm(phi)

    @pytest.mark.parametrize(
        "name, steps", [("quick start", [6, 4, 4]), ("advdiff", [5, 4, 3])]
    )
    def test_steps_and_solves_per_step(self, check_points, monkeypatch, name, steps):
        """Each step is one state and one adjoint solve; the step counts pin
        the CHORD_TOL stop at the sweep's deltas."""
        problem, opt, sens, phi = self._sens(check_points, name)
        counts = self._counting(problem, sens.kkt, monkeypatch)
        seen = []
        for delta in (1e-2, 1e-3, 1e-4):
            counts.update(steps=0, solves=0)
            self._resolve(sens.kkt, opt.theta0 + delta * phi)
            assert counts["solves"] <= 2 * counts["steps"]
            seen.append(counts["steps"])
        assert seen == steps

    def test_fixed_point_does_not_depend_on_k(self, check_points):
        """A 1 % error in the factor of H slows the steps; they land on the
        same z."""
        problem, opt, sens, phi = self._sens(check_points, "quick start")
        _, _, wrong, _ = self._sens(check_points, "quick start", 1 + 1e-2)
        theta = opt.theta0 + 1e-2 * phi
        z, z_wrong = self._resolve(sens.kkt, theta), self._resolve(wrong.kkt, theta)
        m_z = problem.spaces.m_z
        assert m_z.norm(z_wrong - z) <= 1e-9 * m_z.norm(z - opt.z0)

    def test_non_contracting_steps_raise(self, check_points):
        """With 0.4 H the error of z grows by 1.5 per step."""
        _, opt, wrong, phi = self._sens(check_points, "quick start", 0.4)
        with pytest.raises(optimizer.OptimizerError, match="did not converge in 50 steps"):
            self._resolve(wrong.kkt, opt.theta0 + 1e-2 * phi)

    @pytest.mark.parametrize("floor, converges", [(4e-9, True), (1e-6, False)])
    def test_rounding_floor(self, check_points, monkeypatch, floor, converges):
        """A correction held up by noise of a fixed size stops the steps once
        it no longer shrinks, if the noise is at most CHORD_FLOOR of the
        distance moved; above that floor the steps run out."""
        problem, opt, sens, phi = self._sens(check_points, "quick start")
        kkt, m_z = sens.kkt, problem.spaces.m_z
        theta = opt.theta0 + 1e-2 * phi
        clean = self._resolve(kkt, theta)
        moved = m_z.norm(clean - opt.z0)
        rng = np.random.default_rng(17)
        backward = kkt._backward

        def noisy(*a):
            out = backward(*a)
            v = rng.standard_normal((kkt.n_z, 1))  # a chord step's pass is a block
            kkt.split(out)[1][...] += floor * moved * v / m_z.norms(v)
            return out

        monkeypatch.setattr(kkt, "_backward", noisy)
        if converges:
            z = self._resolve(kkt, theta)
            assert m_z.norm(z - clean) <= 1e-8 * moved
        else:
            with pytest.raises(optimizer.OptimizerError, match="did not converge"):
                self._resolve(kkt, theta)

    def test_stops_where_z_does_not_move(self, monkeypatch):
        """At amplitude 0 no parameter moves the optimum (D = 0): the
        corrections and the move are both rounding of z0, and the steps stop
        once the correction no longer shrinks below 64 eps ||z0||_Z. Every
        correction is below it; when one first fails to shrink depends on
        the rounding, so the test allows 10 of the 50 steps."""
        problem = build_diffusion_control_1d(n_state=32, n_param=4, amplitude=0.0)
        theta0 = SamplingPlan(Distribution("uniform", -1.0, 1.0), 4).sample(0)
        opt = solve_optimization(problem, theta0)
        sens = SensitivityOperator(
            problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
        )
        counts = self._counting(problem, sens.kkt, monkeypatch)
        z = self._resolve(sens.kkt, theta0 + 1e-2 * np.ones(4))
        m_z = problem.spaces.m_z
        assert m_z.norm(z - opt.z0) <= 64 * np.finfo(float).eps * m_z.norm(opt.z0)
        assert counts["steps"] <= 10, counts

    @pytest.mark.parametrize(
        "name, steps", [("quick start", [6, 4, 4]), ("advdiff", [5, 4, 3])]
    )
    def test_block_takes_the_slowest_columns_passes(
        self, check_points, monkeypatch, name, steps
    ):
        """The sweep's three deltas as one block land each z within 1e-10 of
        its move from the single-theta re-solve: a block pass rounds
        advection-diffusion's products differently, by a few eps of ||z||,
        which at delta = 1e-4 is 2.5e-11 of the move. The block takes as many
        passes as its slowest column, not the sum, on the same solve columns:
        a column that stops leaves the later passes."""
        problem, opt, sens, phi = self._sens(check_points, name)
        m_z, deltas = problem.spaces.m_z, (1e-2, 1e-3, 1e-4)
        widths = []
        counts = self._counting(problem, sens.kkt, monkeypatch, widths)
        single, single_solves = [], 0
        for delta in deltas:
            single.append(self._resolve(sens.kkt, opt.theta0 + delta * phi))
            single_solves += counts["solves"]
            counts.update(steps=0, solves=0)
        assert widths == [1] * sum(steps)
        widths.clear()
        thetas = opt.theta0[:, None] + np.multiply.outer(phi, deltas)
        block = sens.kkt.stationary_point(thetas)
        assert counts["steps"] == max(steps)
        assert widths == [sum(n >= k for n in steps) for k in range(1, max(steps) + 1)]
        assert counts["solves"] == single_solves
        for q, z, theta in zip(block, single, thetas.T):
            np.testing.assert_array_equal(q.theta, theta)
            assert m_z.norm(q.z - z) <= 1e-10 * m_z.norm(z - opt.z0)

    def test_non_finite_residual_in_one_column_raises(self, check_points, monkeypatch):
        """A residual that turns non-finite in one column of a block stops
        every column, naming its step."""
        problem, opt, sens, phi = self._sens(check_points, "quick start")
        counts = self._counting(problem, sens.kkt, monkeypatch)
        thetas = opt.theta0[:, None] + np.multiply.outer(phi, (1e-2, 1e-3, 1e-4))
        residual = problem.residual

        def spoiled(u, z, theta):
            last = counts["steps"] and np.array_equal(theta, thetas[:, 2])
            return residual(u, z, theta) * (np.nan if last else 1.0)

        monkeypatch.setattr(problem, "residual", spoiled)
        with pytest.raises(optimizer.OptimizerError, match="non-finite KKT residual at step 2"):
            sens.kkt.stationary_point(thetas)
        assert counts == {"steps": 1, "solves": 6}

    def test_non_finite_residual_raises(self, check_points, monkeypatch):
        """A non-finite KKT residual stops the steps before any solve sees it."""
        problem, opt, sens, phi = self._sens(check_points, "quick start")
        counts = self._counting(problem, sens.kkt, monkeypatch)
        residual = problem.residual

        def spoiled(u, z, theta):
            return residual(u, z, theta) * (np.nan if counts["steps"] else 1.0)

        monkeypatch.setattr(problem, "residual", spoiled)
        with pytest.raises(optimizer.OptimizerError, match="non-finite KKT residual at step 2"):
            self._resolve(sens.kkt, opt.theta0 + 1e-2 * phi)
        assert counts == {"steps": 1, "solves": 2}

    def test_vector_theta_is_refused(self, check_points, monkeypatch):
        """theta is a block (n_theta, m); a vector is refused before any
        solve."""
        problem, opt, sens, phi = self._sens(check_points, "quick start")
        counts = self._counting(problem, sens.kkt, monkeypatch)
        with pytest.raises(ValueError, match=r"block \(n_theta, m\)"):
            sens.kkt.stationary_point(opt.theta0 + 1e-2 * phi)
        assert counts == {"steps": 0, "solves": 0}
