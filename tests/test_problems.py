import numpy as np
import pytest
import scipy.linalg

from hdsa.linalg import SpdOperator
from hdsa.problems import (
    AdvDiffInversionProblem,
    DiffusionControlProblem,
    EvalPoint,
    LogisticToyProblem,
    ProblemDims,
    ProblemError,
    SetPartition,
    WeightedSpaces,
    build_advdiff_inversion_1d,
    build_diffusion_control_1d,
    build_logistic_toy,
    check_derivatives,
)
from hdsa.problems.fem1d import (
    advection_matrix_neumann,
    evaluate_preset,
    hat_interpolation,
    mass_matrix,
    stiffness_matrix_neumann,
)


def random_point(problem, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    d = problem.dims
    return EvalPoint(
        u=scale * rng.standard_normal(d.n_u),
        z=scale * rng.standard_normal(d.n_z),
        lam=scale * rng.standard_normal(d.n_lambda),
        theta=0.3 * rng.standard_normal(d.n_theta),
    )


class TestFem1d:
    def test_mass_matrix_total_mass(self):
        m = mass_matrix(17, length=2.0)
        ones = np.ones(17)
        assert ones @ m @ ones == pytest.approx(2.0)

    def test_stiffness_annihilates_constants(self):
        k = stiffness_matrix_neumann(12)
        np.testing.assert_allclose(k @ np.ones(12), 0.0, atol=1e-14)

    def test_advection_skew_part(self):
        c = advection_matrix_neumann(10)
        # int phi_i phi_j' over (0,1): row sums vanish, c + c^T is boundary-only
        np.testing.assert_allclose(c.sum(axis=1), 0.0, atol=1e-14)
        s = c + c.T
        assert abs(s[0, 0] + 1.0) < 1e-14 and abs(s[-1, -1] - 1.0) < 1e-14
        np.testing.assert_allclose(s[1:-1, :], 0.0, atol=1e-14)

    def test_hat_interpolation_partition_of_unity(self):
        pts = np.linspace(0.0, 1.0, 33)
        phi = hat_interpolation(pts, 7)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 7, 601])
    def test_hat_interpolation_at_the_ends_and_nodes(self, n):
        """At x = 0, x = 1 (in the last element) and the nodes each row is
        its node's hat to the rounding of t = (x - e h) / h, which grows
        with n, and has the bits of the interpolant evaluated one point at a
        time."""
        nodes = np.arange(n) / (n - 1)
        points = np.concatenate([[0.0, 1.0], nodes, np.random.default_rng(3).random(20)])
        h = 1.0 / (n - 1)
        loop = np.zeros((points.size, n))
        for r, x in enumerate(points):
            e = min(int(x / h), n - 2)
            t = (x - e * h) / h
            loop[r, e], loop[r, e + 1] = 1.0 - t, t
        phi = hat_interpolation(points, n)
        np.testing.assert_array_equal(phi, loop)
        np.testing.assert_allclose(
            phi[: 2 + n], np.eye(n)[[0, -1, *range(n)]], rtol=0, atol=2 * n * np.finfo(float).eps
        )


class TestPartition:
    def test_overlap_rejected(self):
        with pytest.raises(ProblemError):
            SetPartition((("a", 0, 3), ("b", 2, 5)))

    def test_cover_validation(self):
        """The weighted spaces check that their partition covers M_Theta's
        coordinates."""
        part = SetPartition((("a", 0, 2), ("b", 2, 4)))
        WeightedSpaces(SpdOperator.identity(4), SpdOperator.identity(3), part)
        with pytest.raises(ProblemError, match="cover"):
            WeightedSpaces(SpdOperator.identity(5), SpdOperator.identity(3), part)

    def test_partition_is_required(self):
        with pytest.raises(TypeError):
            WeightedSpaces(SpdOperator.identity(4), SpdOperator.identity(3))


class TestEachFactOnce:
    def test_multiplier_space_is_the_state_space(self):
        """n_lambda is derived from n_u, not stated beside it."""
        d = ProblemDims(n_u=5, n_z=3, n_theta=2)
        assert (d.n_lambda, d.n_stacked) == (5, 13)
        with pytest.raises(TypeError):
            ProblemDims(n_u=5, n_z=3, n_theta=2, n_lambda=5)

    @pytest.mark.parametrize(
        "cls", [AdvDiffInversionProblem, DiffusionControlProblem, LogisticToyProblem]
    )
    def test_problems_inherit_dims_and_spaces(self, cls):
        assert "dims" not in vars(cls) and "spaces" not in vars(cls)

    @pytest.mark.parametrize("cls", [DiffusionControlProblem, LogisticToyProblem])
    def test_identical_blocks_are_aliases(self, cls):
        """Each alias stays a name of its own in the class, where the
        benchmark's tracer wraps it."""
        for alias, block in (
            ("c_u_adj", "c_u"), ("c_z_adj", "c_z"), ("l_zu", "l_uz"),
            ("state_jacobian_adjoint_solve", "state_jacobian_solve"),
        ):
            assert vars(cls)[alias] is vars(cls)[block], alias


@pytest.mark.parametrize(
    "build",
    [
        build_logistic_toy,
        lambda: build_diffusion_control_1d(n_state=24, n_param=6),
        lambda: build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=5),
    ],
    ids=["logistic", "diffusion", "advdiff"],
)
def test_derivative_blocks_consistent(build):
    problem = build()
    point = random_point(problem, seed=1)
    report = check_derivatives(problem, point)
    assert report.passed, report.failures()


@pytest.mark.parametrize(
    "build",
    [
        build_logistic_toy,
        lambda: build_diffusion_control_1d(n_state=24, n_param=6),
        lambda: build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=5),
    ],
    ids=["logistic", "diffusion", "advdiff"],
)
def test_residual_term_sizes_bound_the_residual(build):
    # each entry of c is a sum of terms, so it is at most their summed magnitudes
    problem = build()
    for seed in range(3):
        p = random_point(problem, seed=seed)
        sizes = problem.residual_term_sizes(p.u, p.z, p.theta)
        assert np.all(np.abs(problem.residual(p.u, p.z, p.theta)) <= sizes * (1 + 1e-12))


def test_corrupt_derivative_flag_caught():
    problem = build_logistic_toy(corrupt_derivative=True)
    point = random_point(problem, seed=2)
    report = check_derivatives(problem, point)
    assert not report.passed
    assert "L_ztheta" in report.failures()


# each row of check_derivatives and the one action it checks; a pairing row
# checks the adjoint, and L_uz_symmetry checks l_zu against l_uz
DERIVATIVE_ROWS = {
    "J_u": "obj_grad_u", "J_z": "obj_grad_z", "J_theta": "obj_grad_theta",
    "c_u": "c_u", "c_z": "c_z", "c_theta": "c_theta",
    "L_uu": "l_uu", "L_uz": "l_uz", "L_utheta": "l_utheta",
    "L_zu": "l_zu", "L_zz": "l_zz", "L_ztheta": "l_ztheta",
    "c_u_adjoint": "c_u_adj", "c_z_adjoint": "c_z_adj", "c_theta_adjoint": "c_theta_adj",
    "L_uz_symmetry": "l_zu", "L_utheta_adjoint": "l_utheta_adj",
    "L_ztheta_adjoint": "l_ztheta_adj",
}


@pytest.mark.parametrize("row, action", DERIVATIVE_ROWS.items())
def test_every_derivative_row_fails_on_its_own_action(row, action):
    """A fixed linear term of 1e-3 the size of the block (absolute where the
    block is zero) added to the action a row checks fails that row."""
    problem = build_diffusion_control_1d(n_state=24, n_param=6)
    point = random_point(problem, seed=1)
    report = check_derivatives(problem, point)
    assert report.passed and report.errors.keys() == DERIVATIVE_ROWS.keys()

    exact = getattr(problem, action)
    rng = np.random.default_rng(5)
    if action.startswith("obj_grad_"):
        g = exact(point.u, point.z, point.theta)
        term = rng.standard_normal(g.shape)
        term *= 1e-3 * (np.linalg.norm(g) or 1.0) / np.linalg.norm(term)
        setattr(problem, action, lambda u, z, theta: exact(u, z, theta) + term)
    else:
        # u, z and lambda all have n_state entries on diffusion
        d = problem.dims
        dense = exact(point, np.eye(d.n_theta if action.endswith("theta") else d.n_u))
        e = rng.standard_normal(dense.shape)
        e *= 1e-3 * (np.linalg.norm(dense, 2) or 1.0) / np.linalg.norm(e, 2)
        setattr(problem, action, lambda p, v: exact(p, v) + e @ v)
    assert row in check_derivatives(problem, point).failures()


class TestDiffusion:
    def test_forward_matches_dense_assembly(self):
        p = build_diffusion_control_1d(n_state=24, n_param=6)
        rng = np.random.default_rng(3)
        theta = 0.4 * rng.standard_normal(6)
        z = rng.standard_normal(24)
        pt = EvalPoint(np.zeros(24), z, np.zeros(24), theta)
        u = p.state_jacobian_solve(pt, p.mass_dense() @ z)
        np.testing.assert_allclose(
            p.stiffness_dense(theta) @ u, p.mass_dense() @ z, atol=1e-12
        )
        np.testing.assert_allclose(p.residual(u, z, theta), 0.0, atol=1e-12)

    def test_residual_term_sizes_are_absolute_products(self):
        p = build_diffusion_control_1d(n_state=24, n_param=6)
        pt = random_point(p, seed=4)
        expected = (
            np.abs(p.stiffness_dense(pt.theta)) @ np.abs(pt.u)
            + np.abs(p.mass_dense()) @ np.abs(pt.z)
        )
        np.testing.assert_allclose(
            p.residual_term_sizes(pt.u, pt.z, pt.theta), expected, rtol=1e-13
        )

    def test_ellipticity_guard(self):
        p = build_diffusion_control_1d(n_state=24, n_param=6, amplitude=0.5)
        with pytest.raises(ProblemError):
            p.residual(np.zeros(24), np.zeros(24), -3.0 * np.ones(6))

    def test_coefficients_kept_for_the_last_theta(self):
        """Solves, residuals and c_u applies at theta_1, at theta_2 and at
        theta_1 again are a fresh problem's at theta_1, bit for bit."""
        p = build_diffusion_control_1d(n_state=24, n_param=6)
        point = random_point(p, seed=9)
        rhs = np.random.default_rng(10).standard_normal((24, 3))

        def evaluations(prob, theta):
            pt = EvalPoint(point.u, point.z, point.lam, theta)
            return [
                prob.state_jacobian_solve(pt, rhs),
                prob.state_jacobian_adjoint_solve(pt, rhs[:, 0]),
                prob.c_u(pt, rhs),
                prob.residual(point.u, point.z, theta),
                prob.residual_term_sizes(point.u, point.z, theta),
                prob.stiffness_dense(theta),
            ]

        first = evaluations(p, point.theta)
        evaluations(p, point.theta + 0.1)
        again = evaluations(p, point.theta)
        fresh = evaluations(build_diffusion_control_1d(n_state=24, n_param=6), point.theta)
        for a, b, c in zip(first, again, fresh):
            np.testing.assert_array_equal(a, c)
            np.testing.assert_array_equal(b, c)
        kappa, band = p._coefficients(point.theta)
        assert p._coefficients(point.theta.copy())[1] is band
        for values in (kappa, band):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0

    def test_ellipticity_guard_holds_on_every_call(self):
        p = build_diffusion_control_1d(n_state=24, n_param=6, amplitude=0.5)
        bad = -3.0 * np.ones(6)
        pt = EvalPoint(np.zeros(24), np.zeros(24), np.zeros(24), bad)
        for _ in range(2):
            with pytest.raises(ProblemError, match="non-positive"):
                p.state_jacobian_solve(pt, np.ones(24))
            with pytest.raises(ProblemError, match="non-positive"):
                p.residual(pt.u, pt.z, bad)
        p.residual(pt.u, pt.z, np.zeros(6))
        with pytest.raises(ProblemError, match="non-positive"):
            p.c_u(pt, np.ones(24))

    def test_per_parameter_amplitude(self):
        amp = [0.3, 0.2, 0.1, 0.05]
        p = build_diffusion_control_1d(n_state=16, n_param=4, amplitude=amp)
        point = random_point(p, seed=4)
        report = check_derivatives(p, point)
        assert report.passed, report.failures()

    def test_bad_amplitude_length(self):
        with pytest.raises(ProblemError):
            build_diffusion_control_1d(n_state=16, n_param=4, amplitude=[0.1, 0.2])

    @pytest.mark.parametrize("method", ["state_jacobian_solve", "state_jacobian_adjoint_solve"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, method, bad):
        p = build_diffusion_control_1d(n_state=24, n_param=6)
        rhs = np.ones((24, 2))
        rhs[5, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            getattr(p, method)(random_point(p, seed=7), rhs)

    @pytest.mark.parametrize("n_state", [2, 3, 64])
    def test_mass_stencil_matches_dense_mass(self, n_state):
        """Every use of the mass stencil equals its expression on mass_dense()."""
        p = build_diffusion_control_1d(n_state=n_state, n_param=4)
        m = p.mass_dense()
        pt = random_point(p, seed=5)
        u, z, theta = pt.u, pt.z, pt.theta
        du = u - p.target
        # evaluations take vectors
        cases = [
            (p.objective(u, z, theta), 0.5 * du @ m @ du + 0.5 * p.gamma * z @ m @ z),
            (p.residual(u, z, theta), p.stiffness_dense(theta) @ u - m @ z),
            (p.obj_grad_u(u, z, theta), m @ du),
            (p.obj_grad_z(u, z, theta), p.gamma * (m @ z)),
        ]
        # derivative actions take a vector or a 5-column block
        rng = np.random.default_rng(6)
        for v in (rng.standard_normal(n_state), rng.standard_normal((n_state, 5))):
            cases += [
                (p.c_z(pt, v), -(m @ v)),
                (p.c_z_adj(pt, v), -(m @ v)),
                (p.l_uu(pt, v), m @ v),
                (p.l_zz(pt, v), p.gamma * (m @ v)),
            ]
        for out, ref in cases:
            assert np.shape(out) == np.shape(ref)
            scale = float(np.abs(ref).max())
            assert float(np.abs(np.asarray(out) - ref).max()) <= 1e-14 * scale


class TestAdvDiff:
    def test_state_solve_inverts_jacobian(self):
        p = build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=5)
        rng = np.random.default_rng(5)
        pt = random_point(p, seed=5)
        rhs = rng.standard_normal(p.dims.n_u)
        u = p.state_jacobian_solve(pt, rhs)
        np.testing.assert_allclose(p.c_u(pt, u), rhs, atol=1e-10)
        w = p.state_jacobian_adjoint_solve(pt, rhs)
        np.testing.assert_allclose(p.c_u_adj(pt, w), rhs, atol=1e-10)

    def test_mass_conservation_pure_diffusion(self):
        # with zero velocity and zero-flux boundaries, the injected source
        # mass is conserved by backward Euler
        p = build_advdiff_inversion_1d(
            n_space=24, n_steps=10, vel0=0.0, n_window=5, noise_level=0.0
        )
        theta = np.zeros(p.dims.n_theta)
        z = p.true_source
        pt = EvalPoint(np.zeros(p.dims.n_u), z, np.zeros(p.dims.n_u), theta)
        u = p.state_jacobian_solve(pt, -p.residual(np.zeros(p.dims.n_u), z, theta))
        c = u.reshape(p.n_steps, p.n_space)
        mass = p._mass @ np.ones(p.n_space)
        total = c[-1] @ mass
        injected = p.dt * p._weights(theta).sum() * (p._mass @ z) @ np.ones(p.n_space)
        assert total == pytest.approx(injected, rel=1e-10)

    def test_window_guard(self):
        with pytest.raises(ProblemError):
            build_advdiff_inversion_1d(window=(0.4, 0.2))

    def test_data_deterministic(self):
        p1 = build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=5)
        p2 = build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=5)
        np.testing.assert_array_equal(p1.data, p2.data)


def _propagators(g, mass):
    """(G^-1, G^-1 M) and (G^-T, G^-T M) from scipy's LU of G and its solve
    of [I | M]."""
    lu = scipy.linalg.lu_factor(g)
    identity_and_mass = np.hstack([np.eye(g.shape[0]), mass])
    return [
        np.hsplit(scipy.linalg.lu_solve(lu, identity_and_mass, trans=trans), 2)
        for trans in (0, 1)
    ]


def _propagator_levels(problem, point, rhs, trans):
    """One product with G^-1 and one with the propagator per time level: the
    arithmetic that the advection-diffusion solves must reproduce bit for bit."""
    b = rhs.reshape(problem.n_steps, problem.n_space, -1)
    g_inv, prop = _propagators(problem._system_matrix(point.theta), problem._mass)[trans]
    levels = range(problem.n_steps)[:: -1 if trans else 1]
    out = np.empty_like(b)
    out[levels[0]] = g_inv @ b[levels[0]]
    for prev, i in zip(levels, levels[1:]):
        out[i] = g_inv @ b[i] + prop @ out[prev]
    return out.reshape(rhs.shape)


def _lu_solve_levels(problem, point, rhs, trans):
    """One scipy.linalg.lu_solve per time level, the stepping before the
    propagators: the solves must match it to rounding."""
    b = rhs.reshape(problem.n_steps, problem.n_space, -1)
    lu = scipy.linalg.lu_factor(problem._system_matrix(point.theta))
    out = np.empty_like(b)
    if trans == 0:
        out[0] = scipy.linalg.lu_solve(lu, b[0])
        for i in range(1, problem.n_steps):
            out[i] = scipy.linalg.lu_solve(lu, b[i] + problem._mass @ out[i - 1])
    else:
        out[-1] = scipy.linalg.lu_solve(lu, b[-1], trans=1)
        for i in range(problem.n_steps - 2, -1, -1):
            out[i] = scipy.linalg.lu_solve(lu, b[i] + problem._mass @ out[i + 1], trans=1)
    return out.reshape(rhs.shape)


ADVDIFF_SOLVES = [("state_jacobian_solve", 0), ("state_jacobian_adjoint_solve", 1)]


class TestAdvDiffTimeStepping:
    @pytest.fixture(scope="class")
    def setup(self):
        problem = build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=5)
        return problem, random_point(problem, seed=6)

    @pytest.mark.parametrize("method, trans", ADVDIFF_SOLVES)
    @pytest.mark.parametrize("shape", [(), (5,)], ids=["vector", "block"])
    def test_bitwise_equal_to_lu_solve_per_level(self, setup, method, trans, shape):
        problem, point = setup
        rhs = np.random.default_rng(7).standard_normal((problem.dims.n_u,) + shape)
        before = rhs.copy()
        out = getattr(problem, method)(point, rhs)
        np.testing.assert_array_equal(rhs, before)  # the caller's rhs is untouched
        np.testing.assert_array_equal(out, _propagator_levels(problem, point, rhs, trans))
        ref = _lu_solve_levels(problem, point, rhs, trans)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("method", [m for m, _ in ADVDIFF_SOLVES])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, setup, method, bad):
        problem, point = setup
        rhs = np.ones((problem.dims.n_u, 2))
        rhs[problem.n_space * (problem.n_steps // 2) + 3, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            getattr(problem, method)(point, rhs)

    def test_propagators_kept_for_the_last_theta(self, setup):
        """Solves at theta_1, at theta_2 and at theta_1 again are a fresh
        problem's at theta_1, bit for bit."""
        problem, point = setup
        rhs = np.random.default_rng(8).standard_normal((problem.dims.n_u, 3))
        theta_2 = point.theta + 0.1

        def solves(prob, theta):
            pt = EvalPoint(point.u, point.z, point.lam, theta)
            return [getattr(prob, m)(pt, rhs) for m, _ in ADVDIFF_SOLVES]

        first = solves(problem, point.theta)
        solves(problem, theta_2)
        again = solves(problem, point.theta)
        fresh = solves(build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=5), point.theta)
        for a, b, c in zip(first, again, fresh):
            np.testing.assert_array_equal(a, c)
            np.testing.assert_array_equal(b, c)

    def test_propagators_shared_while_g_holds_and_read_only(self, setup):
        # G(theta) reads only the diffusion and velocity entries of theta
        problem, point = setup
        props = problem._propagators_at(point.theta)
        moved = point.theta.copy()
        moved[2:] += 1.0
        assert problem._propagators_at(moved) is props
        moved[1] += 1.0
        assert problem._propagators_at(moved) is not props
        for matrix in (m for pair in props for m in pair):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0

    @pytest.mark.parametrize("method", [m for m, _ in ADVDIFF_SOLVES])
    def test_overflowing_solution_rejected(self, setup, method):
        # a finite rhs whose solution overflows: G(theta) maps constants to
        # M 1, about h times smaller, so the first level solved is already inf
        problem, point = setup
        with pytest.raises(ValueError, match="infs or NaNs"):
            getattr(problem, method)(point, np.full(problem.dims.n_u, 1e308))


# The evaluations of the advection-diffusion problem as per-step loops, each
# time level through its own matrix-vector products: the stacked evaluations
# must reproduce them bit for bit.


def _residual_loop(problem, u, z, theta):
    c = problem._blocks(u)
    g = problem._system_matrix(theta)
    w = problem._weights(theta)
    mz = problem._mass @ z
    out = np.empty_like(c)
    prev = np.zeros(problem.n_space)
    for i in range(problem.n_steps):
        out[i] = g @ c[i] - problem._mass @ prev - problem.dt * w[i] * mz
        prev = c[i]
    return out.ravel()


def _objective_loop(problem, u, z, theta):
    c = problem._blocks(u)
    misfit = 0.0
    for r, i in enumerate(problem.obs_steps):
        res = problem._s_obs @ c[i] - problem.data[r]
        misfit += float(res @ res)
    return 0.5 * misfit + 0.5 * problem.alpha * float(z @ (problem._mass @ z))


def _obj_grad_u_loop(problem, u, z, theta):
    c = problem._blocks(u)
    out = np.zeros_like(c)
    for r, i in enumerate(problem.obs_steps):
        out[i] = problem._s_obs.T @ (problem._s_obs @ c[i] - problem.data[r])
    return out.ravel()


def _data_loop(problem, refine, stepping):
    """The synthetic data, stepped level by level on the fine mesh: by the
    propagators (``stepping`` "propagators"), one product with each per
    level, or by one scipy.linalg.lu_solve per level ("lu")."""
    nx = refine * (problem.n_space - 1) + 1
    x = np.linspace(0.0, 1.0, nx)
    mass = mass_matrix(nx)
    stiff = stiffness_matrix_neumann(nx)
    adv = advection_matrix_neumann(nx)
    g = mass + problem.dt * (problem.eps0 * stiff + problem.vel0 * adv)
    lu = scipy.linalg.lu_factor(g)
    g_inv, prop = _propagators(g, mass)[0]
    source = (mass @ evaluate_preset(problem._true_source_spec, x))[:, None]
    s_obs = hat_interpolation(problem.sensors, nx)
    c = np.zeros((nx, 1))
    data = np.zeros((problem.obs_steps.shape[0], problem.n_sensors))
    obs_set = {int(s): r for r, s in enumerate(problem.obs_steps)}
    for i in range(problem.n_steps):
        b = (problem.dt * problem._chi[i]) * source
        if stepping == "lu":
            c = scipy.linalg.lu_solve(lu, mass @ c + b)
        else:
            c = g_inv @ b if i == 0 else g_inv @ b + prop @ c
        if i in obs_set:
            data[obs_set[i]] = (s_obs @ c)[:, 0]
    if problem.noise_level > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence(problem.data_seed))
        data = data + problem.noise_level * np.abs(data) * rng.standard_normal(data.shape)
    return data


ADVDIFF_GRIDS = {
    "default": {},
    "sparse observations": dict(n_steps=25, obs_every=3, data_refine=3, n_window=5),
}


@pytest.mark.parametrize("params", list(ADVDIFF_GRIDS.values()), ids=list(ADVDIFF_GRIDS))
def test_advdiff_evaluations_equal_per_step_loops(params):
    problem = build_advdiff_inversion_1d(**params)
    refine = params.get("data_refine", 2)
    np.testing.assert_array_equal(problem.data, _data_loop(problem, refine, "propagators"))
    ref = _data_loop(problem, refine, "lu")
    assert np.abs(problem.data - ref).max() <= 1e-13 * np.abs(ref).max()
    for seed in range(3):
        pt = random_point(problem, seed=seed)
        args = (pt.u, pt.z, pt.theta)
        np.testing.assert_array_equal(problem.residual(*args), _residual_loop(problem, *args))
        np.testing.assert_array_equal(
            problem.obj_grad_u(*args), _obj_grad_u_loop(problem, *args)
        )
        assert problem.objective(*args) == _objective_loop(problem, *args)


# (method, operand space) for every derivative action and both solves
BLOCK_METHODS = [
    ("c_u", "n_u"), ("c_u_adj", "n_lambda"), ("c_z", "n_z"), ("c_z_adj", "n_lambda"),
    ("c_theta", "n_theta"), ("c_theta_adj", "n_lambda"),
    ("l_uu", "n_u"), ("l_uz", "n_z"), ("l_zu", "n_u"), ("l_zz", "n_z"),
    ("l_utheta", "n_theta"), ("l_ztheta", "n_theta"),
    ("l_utheta_adj", "n_u"), ("l_ztheta_adj", "n_z"),
    ("state_jacobian_solve", "n_lambda"), ("state_jacobian_adjoint_solve", "n_u"),
]


@pytest.mark.parametrize("name", ["logistic", "diffusion", "advdiff"])
def test_blocks_equal_columns(name):
    """An (n, 5) block gives the five single-column results, column by column."""
    problem = {
        "logistic": build_logistic_toy,
        "diffusion": lambda: build_diffusion_control_1d(n_state=20, n_param=5),
        "advdiff": lambda: build_advdiff_inversion_1d(n_space=12, n_steps=6, n_window=4),
    }[name]()
    point = random_point(problem, seed=3)
    rng = np.random.default_rng(4)
    for method, space in BLOCK_METHODS:
        block = rng.standard_normal((getattr(problem.dims, space), 5))
        out = getattr(problem, method)(point, block)
        cols = np.column_stack(
            [getattr(problem, method)(point, block[:, j]) for j in range(5)]
        )
        assert out.shape == cols.shape, method
        scale = max(float(np.abs(cols).max()), 1e-300)
        assert float(np.abs(out - cols).max()) <= 1e-12 * scale, method
