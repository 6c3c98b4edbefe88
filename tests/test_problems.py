import numpy as np
import pytest
import scipy.linalg

from hdsa.problems import (
    EvalPoint,
    ProblemError,
    SetPartition,
    build_advdiff_inversion_1d,
    build_diffusion_control_1d,
    build_logistic_toy,
    check_derivatives,
)
from hdsa.problems.fem1d import (
    advection_matrix_neumann,
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


class TestPartition:
    def test_overlap_rejected(self):
        with pytest.raises(ProblemError):
            SetPartition((("a", 0, 3), ("b", 2, 5)))

    def test_cover_validation(self):
        part = SetPartition((("a", 0, 2), ("b", 2, 4)))
        part.validate_cover(4)
        with pytest.raises(ProblemError):
            part.validate_cover(5)


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
    report = check_derivatives(problem, point, h=1e-4)
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
    report = check_derivatives(problem, point, h=1e-4)
    assert not report.passed
    assert "L_ztheta" in report.failures()


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

    def test_per_parameter_amplitude(self):
        amp = [0.3, 0.2, 0.1, 0.05]
        p = build_diffusion_control_1d(n_state=16, n_param=4, amplitude=amp)
        point = random_point(p, seed=4)
        report = check_derivatives(p, point, h=1e-4)
        assert report.passed, report.failures()

    def test_bad_amplitude_length(self):
        with pytest.raises(ProblemError):
            build_diffusion_control_1d(n_state=16, n_param=4, amplitude=[0.1, 0.2])

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


def _lu_solve_levels(problem, point, rhs, trans):
    """One scipy.linalg.lu_solve per time level: the arithmetic that the
    advection-diffusion solves must reproduce bit for bit."""
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
        np.testing.assert_array_equal(out, _lu_solve_levels(problem, point, rhs, trans))

    @pytest.mark.parametrize("method", [m for m, _ in ADVDIFF_SOLVES])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, setup, method, bad):
        problem, point = setup
        rhs = np.ones((problem.dims.n_u, 2))
        rhs[problem.n_space * (problem.n_steps // 2) + 3, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            getattr(problem, method)(point, rhs)

    @pytest.mark.parametrize("method", [m for m, _ in ADVDIFF_SOLVES])
    def test_overflowing_solution_rejected(self, setup, method):
        # a finite rhs whose solution overflows: G(theta) maps constants to
        # M 1, about h times smaller, so the first level solved is already inf
        problem, point = setup
        with pytest.raises(ValueError, match="infs or NaNs"):
            getattr(problem, method)(point, np.full(problem.dims.n_u, 1e308))


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
