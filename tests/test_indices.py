import csv
import json

import numpy as np
import pytest

from hdsa.cli import EXIT_OK, main
from hdsa.config import load_config
from hdsa.indices import local_indices, set_indices
from hdsa.linalg import SpdOperator
from hdsa.operators import SensitivityOperator
from hdsa.optimizer import solve_optimization
from hdsa.problems import (
    EvalPoint,
    ProblemError,
    SetPartition,
    WeightedSpaces,
    build_advdiff_inversion_1d,
    build_diffusion_control_1d,
)
from hdsa.problems.fem1d import mass_matrix
from hdsa.randeig import RandEigConfig, Triples, dense_oracle
from hdsa.sampling import Distribution, SamplingPlan


def identity_spaces(n_theta, n_z, partition=None):
    return WeightedSpaces(
        m_theta=SpdOperator.identity(n_theta),
        m_z=SpdOperator.identity(n_z),
        partition=partition,
    )


def unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def rank_one(sigma, theta, z):
    return Triples(np.array([sigma]), theta[:, None], z[:, None])


def random_spd(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def weighted_svd(d, m_theta, m_z):
    """Every triple of D in the M_Theta and M_Z inner products, from the SVD
    of R_Z D R_Theta^-1 with R^T R = M: D theta_k = sigma_k z_k, with
    theta_k M_Theta-orthonormal and z_k M_Z-orthonormal."""
    r_th, r_z = np.linalg.cholesky(m_theta).T, np.linalg.cholesky(m_z).T
    u, sigma, vt = np.linalg.svd(r_z @ d @ np.linalg.inv(r_th), full_matrices=False)
    return Triples(sigma, np.linalg.solve(r_th, vt.T), np.linalg.solve(r_z, u))


def z_norms(d, m_z):
    """||D e_i||_{M_Z} for every coordinate i."""
    return np.sqrt(np.einsum("ij,ij->j", d, m_z @ d))


class TestLocalIndices:
    def test_rank_one_picks_the_active_coordinate(self):
        spaces = identity_spaces(5, 3)
        triples = rank_one(2.0, unit(5, 3), unit(3, 0))
        s = local_indices(triples, spaces)
        np.testing.assert_allclose(s, 2.0 * unit(5, 3), atol=1e-14)

    def test_orthonormal_total_mass(self):
        # with identity weighting and orthonormal right vectors, the squared
        # local indices sum to the squared sigmas
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        sigmas = np.array([3.0, 2.0, 1.0, 0.5])
        spaces = identity_spaces(6, 6)
        triples = Triples(sigmas, q, np.eye(6)[:, :4])
        s = local_indices(triples, spaces)
        assert float(s @ s) == pytest.approx(float(sigmas @ sigmas))

    def test_truncation_is_monotone(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        spaces = identity_spaces(6, 6)
        triples = Triples(np.array([3.0, 2.0, 1.0, 0.5]), q, np.eye(6)[:, :4])
        prev = local_indices(triples[:1], spaces)
        for k in range(2, 5):
            cur = local_indices(triples[:k], spaces)
            assert np.all(cur >= prev - 1e-14)
            prev = cur

    def test_weighted_full_rank_is_the_column_norm(self):
        """With every triple, S_i = ||D e_i||_Z under a non-identity M_Theta:
        e_i = sum_k theta_k (M_Theta theta_k)_i, so D e_i = sum_k sigma_k z_k
        (M_Theta theta_k)_i. Without M_Theta the indices miss."""
        d = np.random.default_rng(3).standard_normal((5, 6))
        m_theta, m_z = random_spd(6, seed=4), random_spd(5, seed=5)
        spaces = WeightedSpaces(m_theta=SpdOperator(m_theta), m_z=SpdOperator(m_z))
        triples = weighted_svd(d, m_theta, m_z)
        ref = z_norms(d, m_z)
        np.testing.assert_allclose(local_indices(triples, spaces), ref, rtol=1e-12)
        unweighted = np.sqrt(triples.theta**2 @ triples.sigma**2)
        assert np.max(np.abs(unweighted - ref) / ref) > 1e-2

    def test_empty_triples_rejected(self):
        with pytest.raises(ProblemError):
            local_indices(
                Triples(np.zeros(0), np.zeros((3, 0)), np.zeros((3, 0))),
                identity_spaces(3, 3),
            )


class TestSetIndices:
    def test_single_covering_set_equals_sigma1(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        part = SetPartition((("all", 0, 6),))
        spaces = identity_spaces(6, 6, part)
        triples = Triples(np.array([3.0, 2.0, 1.0]), q, np.eye(6)[:, :3])
        out = set_indices(triples, spaces, part)
        assert out["all"] == pytest.approx(3.0)

    def test_split_direction_gives_half_mass(self):
        part = SetPartition((("left", 0, 2), ("right", 2, 4)))
        spaces = identity_spaces(4, 4, part)
        th = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
        triples = rank_one(2.0, th, unit(4, 0))
        out = set_indices(triples, spaces, part)
        assert out["left"] == pytest.approx(2.0 * np.sqrt(0.5))
        assert out["right"] == pytest.approx(2.0 * np.sqrt(0.5))

    def test_weighted_sets_are_sigma1_of_the_restriction(self):
        """Under an M_Theta that is SPD and block-diagonal over the sets, and
        a non-identity M_Z, each set index is the largest weighted singular
        value of D restricted to the set's columns."""
        part = SetPartition((("a", 0, 2), ("b", 2, 6)))
        m_theta = np.zeros((6, 6))
        m_theta[:2, :2], m_theta[2:, 2:] = random_spd(2, seed=6), random_spd(4, seed=7)
        m_z = random_spd(5, seed=8)
        spaces = WeightedSpaces(
            m_theta=SpdOperator(m_theta), m_z=SpdOperator(m_z), partition=part
        )
        d = np.random.default_rng(9).standard_normal((5, 6))
        out = set_indices(weighted_svd(d, m_theta, m_z), spaces, part)
        for name, start, stop in part.sets:
            block = m_theta[start:stop, start:stop]
            ref = weighted_svd(d[:, start:stop], block, m_z).sigma[0]
            assert out[name] == pytest.approx(ref, rel=1e-12)

    def test_non_orthogonal_partition_rejected(self):
        part = SetPartition((("a", 0, 2), ("b", 2, 4)))
        spaces = WeightedSpaces(
            m_theta=SpdOperator(mass_matrix(4)),  # tridiagonal coupling
            m_z=SpdOperator.identity(4),
            partition=part,
        )
        triples = rank_one(1.0, unit(4, 0), unit(4, 0))
        with pytest.raises(ProblemError):
            set_indices(triples, spaces, part)

    def test_coupling_read_from_the_band(self, monkeypatch):
        """M_Theta's second superdiagonal alone couples set a to set b;
        the check reads the band and never forms the dense matrix."""

        def no_dense(self):
            raise AssertionError("SpdOperator.dense called")

        part = SetPartition((("a", 0, 3), ("b", 3, 6)))
        m = 4.0 * np.eye(6)
        m[0, 1] = m[1, 0] = m[4, 5] = m[5, 4] = 0.5
        m[0, 2] = m[2, 0] = 0.3  # within set a
        coupled = m.copy()
        coupled[1, 3] = coupled[3, 1] = 0.3
        triples = rank_one(1.0, unit(6, 0), unit(6, 0))
        monkeypatch.setattr(SpdOperator, "dense", no_dense)
        for matrix in (m, coupled):
            spaces = WeightedSpaces(
                m_theta=SpdOperator(matrix), m_z=SpdOperator.identity(6), partition=part
            )
            assert spaces.m_theta.kd == 2
            if matrix is m:
                assert set(set_indices(triples, spaces, part)) == {"a", "b"}
            else:
                with pytest.raises(ProblemError, match="M_Theta-orthogonal"):
                    set_indices(triples, spaces, part)

    def test_partition_must_cover(self):
        part = SetPartition((("a", 0, 2),))
        spaces = identity_spaces(4, 4, part)
        triples = rank_one(1.0, unit(4, 0), unit(4, 0))
        with pytest.raises(ProblemError):
            set_indices(triples, spaces, part)

    def test_direct_mode_matches_truncated_full_rank(self):
        problem = build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=5)
        opt = solve_optimization(problem, np.zeros(problem.dims.n_theta))
        sens = SensitivityOperator(problem, opt.as_eval_point())
        triples = dense_oracle(sens, problem.spaces)
        part = problem.spaces.partition
        truncated = set_indices(triples, problem.spaces, part, mode="truncated")
        cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=9, power_iterations=4)
        direct = set_indices(
            triples,
            problem.spaces,
            part,
            mode="direct",
            sens_op=sens,
            cfg=cfg,
        )
        for name, _, _ in part.sets:
            assert direct[name] == pytest.approx(truncated[name], rel=1e-6)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_diffusion_control_1d(n_state=64, n_param=16, gamma=0.01),
        build_advdiff_inversion_1d,
    ],
    ids=["quick start", "advdiff"],
)
def test_local_indices_of_the_oracle_are_the_weighted_column_norms(build):
    """On the README quick start and default advection-diffusion, whose
    M_Theta are not the identity, the local indices of the full set of
    dense-oracle triples are ||D e_i||_{M_Z} at sample 0."""
    problem = build()
    spaces = problem.spaces
    n_theta = problem.dims.n_theta
    assert not np.array_equal(spaces.m_theta.dense(), np.eye(n_theta))
    plan = SamplingPlan(Distribution("uniform", -1.0, 1.0), n_theta)
    opt = solve_optimization(problem, plan.sample(0))
    sens = SensitivityOperator(
        problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
    )
    ref = z_norms(sens.dense(), spaces.m_z.dense())
    s = local_indices(dense_oracle(sens, spaces), spaces)
    np.testing.assert_allclose(s, ref, rtol=1e-10, atol=1e-12 * ref.max())


@pytest.mark.parametrize("mode", ["direct", "truncated"])
def test_run_set_indices_match_a_numpy_reference(tmp_path, mode):
    """The set indices that `hdsa run` writes for default advection-diffusion,
    whose M_Theta is not the identity, parsed from set_indices.csv. "direct":
    sigma_1 of R_Z D[:, S] R_{Theta,SS}^{-1}, with D one column at a time and
    the R from numpy Cholesky factors. "truncated": the largest eigenvalue of
    the set Gram of the triples in the CSV files."""
    out = tmp_path / "results"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "problem": {"name": "advdiff_inversion_1d"},
        "hdsa": {"n_samples": 2, "set_index_mode": mode},
        "output_dir": str(out),
    }))
    assert main(["run", str(path)]) == EXIT_OK

    def table(name):
        with (out / name).open() as fh:
            return list(csv.DictReader(fh))

    sets = {(int(r["j"]), r["set"]): float(r["value"]) for r in table("set_indices.csv")}
    cfg = load_config(path)
    problem = cfg.build_problem()
    n_theta = problem.dims.n_theta
    m_theta = problem.spaces.m_theta.dense()
    assert not np.allclose(m_theta, np.eye(n_theta))
    partition = problem.spaces.partition.sets
    assert sorted(sets) == sorted((j, name) for j in range(2) for name, _, _ in partition)
    sigma = table("singular_values.csv")
    theta = table("singular_vectors_theta.csv")
    l_z = np.linalg.cholesky(problem.spaces.m_z.dense())
    for j in range(2):
        if mode == "truncated":
            s = np.array([float(r["sigma"]) for r in sigma if int(r["j"]) == j])
            # rows in (k, i) order
            vecs = np.array([float(r["value"]) for r in theta if int(r["j"]) == j])
            vecs = vecs.reshape(s.size, n_theta).T
        else:
            opt = solve_optimization(problem, cfg.build_plan(problem).sample(j))
            sens = SensitivityOperator(problem, opt.as_eval_point())
            d = np.column_stack([sens.apply(e) for e in np.eye(n_theta)])
        for name, start, stop in partition:
            m_s = m_theta[start:stop, start:stop]
            if mode == "truncated":
                v = vecs[start:stop]
                gram = np.outer(s, s) * (v.T @ m_s @ v)
                ref = np.sqrt(np.linalg.eigvalsh(gram)[-1])
            else:
                core = l_z.T @ np.linalg.solve(np.linalg.cholesky(m_s), d[:, start:stop].T).T
                ref = np.linalg.svd(core, compute_uv=False)[0]
            assert sets[j, name] == pytest.approx(ref, rel=1e-12)


def _diffusion_reference(problem, theta):
    """The optimal z and the coordinate matrix D of diffusion control at
    theta, from numpy and scipy alone, sharing no code with
    ``hdsa.optimizer`` or ``hdsa.operators``. With A = A(theta) and M the
    mass matrix, the optimum solves N z = M d, N = M A^-1 M + gamma A, and
    since A is affine in theta, D e_k = N^-1 (M A^-1 A_k A^-1 M - gamma A_k) z
    with A_k = A(e_k) - A(0)."""
    m, gamma = problem.mass_dense(), problem.gamma
    n_theta = problem.dims.n_theta
    a = problem.stiffness_dense(theta)
    a_inv_m = np.linalg.solve(a, m)
    n = m @ a_inv_m + gamma * a
    z = np.linalg.solve(n, m @ problem.target)
    a_0 = problem.stiffness_dense(np.zeros(n_theta))
    cols = []
    for e in np.eye(n_theta):
        a_k = problem.stiffness_dense(e) - a_0
        cols.append(a_inv_m.T @ (a_k @ (a_inv_m @ z)) - gamma * (a_k @ z))
    return z, np.linalg.solve(n, np.column_stack(cols))


def _bundle_tables(out, n_samples):
    """The numbers of a bundle's tables as {file: {j: values}}, rows in file
    order: (k, i) for the singular vectors, partition order for the sets."""
    tables = {}
    for name, column in (
        ("singular_values.csv", "sigma"),
        ("local_indices.csv", "S_hat"),
        ("set_indices.csv", "value"),
        ("optimal_z.csv", "value"),
        ("singular_vectors_theta.csv", "value"),
        ("singular_vectors_z.csv", "value"),
    ):
        with (out / name).open() as fh:
            rows = list(csv.DictReader(fh))
        tables[name] = {
            j: np.array([float(r[column]) for r in rows if int(r["j"]) == j])
            for j in range(n_samples)
        }
    with (out / "set_indices.csv").open() as fh:
        tables["set names"] = [r["set"] for r in csv.DictReader(fh) if r["j"] == "0"]
    return tables


def _reference_indices(sigma, vt, k, r_theta, partition, mode, r_z=None, d=None):
    """The first k sigma_k, the local indices and the set indices of the
    weighted SVD U diag(sigma) V^T = R_Z D R_Theta^{-1}, by numpy alone.
    S_i = sqrt(sum_k sigma_k^2 ((R_Theta^T v_k)_i)^2). A "truncated" set
    index is sqrt(lambda_max) of the set Gram sigma_k sigma_l theta_k[S]^T
    M_SS theta_l[S] of the first k triples, theta_k = R_Theta^{-1} v_k; a
    "direct" one is sigma_1(R_Z D[:, S] R_SS^{-1}), R_SS^T R_SS = M_SS."""
    s, v = sigma[:k], vt[:k].T
    local = np.sqrt((r_theta.T @ v) ** 2 @ s**2)
    m_theta, theta = r_theta.T @ r_theta, np.linalg.solve(r_theta, v)
    sets = []
    for _, start, stop in partition:
        m_s = m_theta[start:stop, start:stop]
        if mode == "truncated":
            gram = np.outer(s, s) * (theta[start:stop].T @ m_s @ theta[start:stop])
            sets.append(np.sqrt(np.linalg.eigvalsh(gram)[-1]))
        else:
            r_s = np.linalg.cholesky(m_s).T
            core = r_z @ np.linalg.solve(r_s.T, d[:, start:stop].T).T
            sets.append(np.linalg.svd(core, compute_uv=False)[0])
    return s, local, np.array(sets)


INDEX_FILES = ("singular_values.csv", "local_indices.csv", "set_indices.csv")


def _assert_indices_match(tables, refs, files=INDEX_FILES):
    """Each table against its reference, sample by sample, to 1e-12 of the
    table's largest entry."""
    for name, ref in zip(files, refs):
        got = tables[name]
        scale = max(np.abs(v).max() for v in got.values())
        for j, r in enumerate(ref):
            assert got[j].shape == r.shape, (name, j)
            np.testing.assert_allclose(got[j], r, rtol=0, atol=1e-12 * scale, err_msg=name)


@pytest.fixture(scope="module")
def diffusion_bundle(tmp_path_factory):
    """A two-sample `hdsa run` bundle of diffusion control, whose M_Z and
    M_Theta are both P1 mass matrices, as {file: {j: values}}, with K, the
    problem, the Cholesky factors R_Z and R_Theta from numpy, and for each
    sample ``_diffusion_reference``'s z and the SVD U, sigma, V^T of
    R_Z D R_Theta^{-1}."""
    out = tmp_path_factory.mktemp("diffusion") / "results"
    path = out.parent / "config.json"
    path.write_text(json.dumps({
        "problem": {"name": "diffusion_control_1d",
                    "params": {"n_state": 64, "n_param": 16, "gamma": 0.01}},
        "hdsa": {"n_samples": 2, "k_pairs": 4},
        "output_dir": str(out),
    }))
    assert main(["run", str(path)]) == EXIT_OK
    tables = _bundle_tables(out, 2)
    cfg = load_config(path)
    problem = cfg.build_problem()
    weights = [problem.spaces.m_z.dense(), problem.spaces.m_theta.dense()]
    for m in weights:
        assert not np.allclose(m, np.diag(np.diag(m)))
    r_z, r_theta = (np.linalg.cholesky(m).T for m in weights)
    refs = []
    for j in range(2):
        z, d = _diffusion_reference(problem, cfg.build_plan(problem).sample(j))
        refs.append((z, *np.linalg.svd(r_z @ np.linalg.solve(r_theta.T, d.T).T)))
    return tables, cfg.randeig.k_pairs, problem, r_z, r_theta, refs


def test_run_sigma_and_local_indices_match_a_numpy_reference(diffusion_bundle):
    """singular_values.csv and local_indices.csv against the first K sigma_k
    of the reference SVD and S_i = sqrt(sum_k sigma_k^2 ((R_Theta^T v_k)_i)^2),
    M_Theta theta_k being R_Theta^T v_k."""
    tables, k, _, _, r_theta, refs = diffusion_bundle
    for j, (_, _, s, vt) in enumerate(refs):
        np.testing.assert_allclose(tables["singular_values.csv"][j], s[:k], rtol=1e-12)
        ref = np.sqrt((r_theta.T @ vt[:k].T) ** 2 @ s[:k] ** 2)
        np.testing.assert_allclose(
            tables["local_indices.csv"][j], ref, rtol=1e-12, atol=1e-12 * ref.max()
        )


def test_run_optimal_z_and_singular_vectors_match_a_numpy_reference(diffusion_bundle):
    """optimal_z.csv against the reference z, and singular_vectors_*.csv
    against theta_k = R_Theta^{-1} v_k and z_k = R_Z^{-1} u_k of the
    reference SVD under the sign rule: the entry of theta_k largest in
    magnitude is positive, and z_k flips with it."""
    tables, k, _, r_z, r_theta, refs = diffusion_bundle
    for j, (z, u, _, vt) in enumerate(refs):
        np.testing.assert_allclose(
            tables["optimal_z.csv"][j], z, rtol=0, atol=1e-13 * np.abs(z).max()
        )
        _assert_vectors_match(tables, j, u, vt, k, r_z, r_theta, 1e-11)


def _assert_vectors_match(tables, j, u, vt, k, r_z, r_theta, gate):
    """Sample j of singular_vectors_*.csv against theta_k = R_Theta^{-1} v_k
    and z_k = R_Z^{-1} u_k of the first k triples of the SVD U, V^T, under
    the sign rule: the entry of theta_k largest in magnitude is positive,
    and z_k flips with it. To ``gate`` of each reference's largest entry."""
    theta_k = np.linalg.solve(r_theta, vt[:k].T)
    peak = theta_k[np.argmax(np.abs(theta_k), axis=0), np.arange(k)]
    sign = np.where(peak >= 0.0, 1.0, -1.0)
    for name, ref in (("theta", theta_k * sign), ("z", np.linalg.solve(r_z, u[:, :k]) * sign)):
        # rows in (k, i) order
        got = tables[f"singular_vectors_{name}.csv"][j].reshape(k, -1).T
        np.testing.assert_allclose(got, ref, rtol=0, atol=gate * np.abs(ref).max(), err_msg=name)


def test_run_set_indices_match_the_diffusion_reference(diffusion_bundle):
    """set_indices.csv (truncated mode, K 4) against the set Gram of the
    first K triples of ``_diffusion_reference``'s SVD, at 1e-12 of the
    file's largest entry (measured 2.7e-14)."""
    tables, k, problem, _, r_theta, refs = diffusion_bundle
    partition = problem.spaces.partition.sets
    assert tables["set names"] == [name for name, _, _ in partition]
    sets = [
        _reference_indices(s, vt, k, r_theta, partition, "truncated")[2]
        for _, _, s, vt in refs
    ]
    _assert_indices_match(tables, [sets], files=["set_indices.csv"])


def _kkt_reference(problem, theta, z):
    """D at the optimal z of a bundle, sharing no code with
    ``hdsa.operators`` or ``hdsa.randeig``. Every block is assembled densely
    by numpy from the problem's block actions on identity columns. u solves
    c(u, z, theta) = 0 by one Newton step from 0, exact since c is affine in
    u on both problems, so c_u does not depend on u; lambda solves
    c_u^T lambda = -J_u; and
    D = -P_z K^{-1} [L_utheta; L_ztheta; c_theta], K the KKT matrix
    (L_uu, L_uz, c_u^T; L_zu, L_zz, c_z^T; c_u, c_z, 0), by
    ``numpy.linalg.solve``."""
    d = problem.dims
    e_u, e_z, e_l, e_t = (np.eye(n) for n in (d.n_u, d.n_z, d.n_lambda, d.n_theta))
    zero_u, zero_l = np.zeros(d.n_u), np.zeros(d.n_lambda)
    c_u = problem.c_u(EvalPoint(zero_u, z, zero_l, theta), e_u)
    u = -np.linalg.solve(c_u, problem.residual(zero_u, z, theta))
    c = problem.residual(u, z, theta)
    assert np.linalg.norm(c) <= 1e-13 * np.linalg.norm(problem.residual_term_sizes(u, z, theta))
    lam = np.linalg.solve(c_u.T, -problem.obj_grad_u(u, z, theta))
    p = EvalPoint(u, z, lam, theta)
    k = np.block([
        [problem.l_uu(p, e_u), problem.l_uz(p, e_z), problem.c_u_adj(p, e_l)],
        [problem.l_zu(p, e_u), problem.l_zz(p, e_z), problem.c_z_adj(p, e_l)],
        [problem.c_u(p, e_u), problem.c_z(p, e_z), np.zeros((d.n_lambda, d.n_lambda))],
    ])
    b = np.vstack([problem.l_utheta(p, e_t), problem.l_ztheta(p, e_t), problem.c_theta(p, e_t)])
    return -np.linalg.solve(k, b)[d.n_u : d.n_u + d.n_z]


# advection-diffusion small enough for a dense K: n_stacked 336. alpha 0.01
# (default 5e-4) brings cond K from 7.7e4 to 5.3e3, so the run's own
# rounding in D sits far below the 1e-12 gate
SMALL_ADVDIFF = {"name": "advdiff_inversion_1d",
                 "params": {"n_space": 16, "n_steps": 10, "n_window": 6, "alpha": 0.01}}


@pytest.mark.parametrize(
    "problem, mode",
    [
        (SMALL_ADVDIFF, "truncated"),
        (SMALL_ADVDIFF, "direct"),
        ({"name": "logistic_toy"}, "truncated"),
    ],
    ids=["advdiff-truncated", "advdiff-direct", "logistic"],
)
def test_run_indices_match_a_dense_kkt_reference(tmp_path, problem, mode):
    """singular_values.csv, local_indices.csv and set_indices.csv of a
    two-sample `hdsa run` against ``_kkt_reference``'s D at each sample's
    optimal z (advection-diffusion with K of dimension 336 and non-identity
    M_Z and M_Theta; the logistic toy, whose D has rank 1), at 1e-12 of each
    file's largest entry. Measured on advection-diffusion (cond K 5.3e3)
    in both modes: sigma 5.3e-15, local 6.5e-15, sets 6.3e-15. At the
    default alpha (cond K 7.7e4) the same comparison reads up to 4.9e-13,
    nearly all of it the run's own rounding in D, so that config is not
    used. On the logistic toy at most 2.9e-16.

    singular_vectors_theta.csv and _z.csv against the vectors of the
    reference SVD under the sign rule, at 1e-12 of each reference's largest
    entry. On advection-diffusion adjacent sigma_1..sigma_4 lie at least
    17.9 % of sigma_1 apart and sigma_5 4.9 % below sigma_4, so each vector
    is well defined; measured theta 4.5e-14, z 1.1e-13. On the logistic toy
    (one triple) at most 1.2e-16."""
    out = tmp_path / "results"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "problem": problem,
        "hdsa": {"n_samples": 2, "set_index_mode": mode},
        "output_dir": str(out),
    }))
    assert main(["run", str(path)]) == EXIT_OK
    tables = _bundle_tables(out, 2)
    cfg = load_config(path)
    problem = cfg.build_problem()
    dims, spaces = problem.dims, problem.spaces
    partition = spaces.partition.sets
    assert tables["set names"] == [name for name, _, _ in partition]
    r_z, r_theta = (np.linalg.cholesky(m.dense()).T for m in (spaces.m_z, spaces.m_theta))
    k = min(cfg.randeig.k_pairs, dims.n_z, dims.n_theta)
    refs = []
    for j in range(2):
        d = _kkt_reference(problem, cfg.build_plan(problem).sample(j), tables["optimal_z.csv"][j])
        u, sigma, vt = np.linalg.svd(r_z @ np.linalg.solve(r_theta.T, d.T).T)
        refs.append(_reference_indices(sigma, vt, k, r_theta, partition, mode, r_z, d))
        _assert_vectors_match(tables, j, u, vt, k, r_z, r_theta, 1e-12)
    _assert_indices_match(tables, list(zip(*refs)))
