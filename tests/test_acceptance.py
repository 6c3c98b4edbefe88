"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single PASS/FAIL line
with the measured quantities, and then asserts the criterion at its stated
tolerance.
"""

import json
import time

import numpy as np
import pytest

from hdsa.analysis import global_analysis, perturbation_check, traditional_comparison
from hdsa.bundle import CSV_FILES
from hdsa.cli import EXIT_OK, main
from hdsa.indices import local_indices, set_indices
from hdsa.linalg import dense_cholesky
from hdsa.operators import KktOperator, SensitivityOperator
from hdsa.optimizer import OptimizerConfig, solve_optimization
from hdsa.problems import (
    build_advdiff_inversion_1d,
    build_diffusion_control_1d,
    build_logistic_toy,
)
from hdsa.randeig import (
    RandEigConfig,
    alternative_formulation,
    dense_oracle,
    randomized_geneig,
)
from hdsa.sampling import Distribution, SamplingPlan


def report(n, name, ok, detail):
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


def gap_problem():
    """Diffusion-control instance engineered for a >=10x spectral gap at K=4."""
    return build_diffusion_control_1d(
        n_state=64, n_param=16, gamma=0.01, amplitude=[0.2] * 4 + [0.005] * 12
    )


def test_criterion_1_logistic_regression():
    t0 = time.perf_counter()
    problem = build_logistic_toy()
    opt = solve_optimization(problem, np.array([0.5, 0.5]))
    sens = np.abs(SensitivityOperator(problem, opt.as_eval_point()).dense().ravel())
    trad = traditional_comparison(problem, opt)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(opt.z0[0] - 8.22) <= 0.01
        and abs(sens[0] - 9.99) <= 0.02
        and abs(sens[1] - 3.12) <= 0.02
        and abs(trad[0] - 0.135) <= 0.005
        and abs(trad[1] - 1.03) <= 0.005
        and elapsed < 1.0
    )
    report(
        1,
        "logistic toy regression",
        ok,
        f"z_opt={opt.z0[0]:.4f}, |D|=({sens[0]:.4f}, {sens[1]:.4f}), "
        f"traditional=({trad[0]:.4f}, {trad[1]:.4f}), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    problem = gap_problem()
    opt = solve_optimization(problem, np.zeros(16))
    sens = SensitivityOperator(problem, opt.as_eval_point())
    oracle = dense_oracle(sens, problem.spaces)
    gap = oracle.sigma[3] / oracle.sigma[4]

    cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=0, power_iterations=3)
    triples, diag = randomized_geneig(sens, problem.spaces, cfg)
    k = len(triples)
    ref = oracle[:k]
    sigma_err = float(np.max(np.abs(triples.sigma - ref.sigma) / ref.sigma))
    m_theta, m_z = problem.spaces.m_theta, problem.spaces.m_z
    sign = np.where(
        np.einsum("ik,ik->k", triples.theta, m_theta.apply(ref.theta)) >= 0, 1.0, -1.0
    )
    vec_err = float(max(
        np.max(m_theta.norms(sign * triples.theta - ref.theta)),
        np.max(m_z.norms(sign * triples.z - ref.z)),
    ))
    elapsed = time.perf_counter() - t0

    ok = (
        gap >= 10.0
        and len(triples) == 4
        and sigma_err <= 1e-6
        and vec_err <= 1e-5
        and elapsed < 30.0
    )
    report(
        2,
        "randomized vs dense oracle",
        ok,
        f"gap sigma4/sigma5={gap:.2f}, sigma rel err={sigma_err:.2e}, "
        f"vector M-norm err={vec_err:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_formulation_equivalence():
    problem = gap_problem()
    opt = solve_optimization(problem, np.zeros(16))
    sens = SensitivityOperator(problem, opt.as_eval_point())
    oracle = dense_oracle(sens, problem.spaces)
    cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=0, power_iterations=3)
    alt, _ = alternative_formulation(sens, problem.spaces, cfg)
    ref = oracle.sigma[: len(alt)] ** 2
    err = float(np.max(np.abs(alt.sigma**2 - ref) / ref))
    ok = len(alt) == 4 and err <= 1e-6
    report(
        3,
        "squared-operator formulation",
        ok,
        f"max relative eigenvalue error {err:.2e} over {len(alt)} pairs",
    )
    assert ok


def test_criterion_4_linearity_of_optimal_solution():
    problem = build_diffusion_control_1d(n_state=64, n_param=16, gamma=0.0)
    plan = SamplingPlan(
        theta_dists=[Distribution("uniform", -1.0, 1.0)] * 16,
        master_seed=7,
    )
    # gamma = 0 makes the reduced Hessian nearly singular; the optimizer has
    # to be run essentially to machine stationarity for the invariance of the
    # sensitivity operator to be visible at 1e-6
    opt_cfg = OptimizerConfig(stationarity_tol=1e-13, max_iter=200)
    cfg = RandEigConfig(k_pairs=4, oversampling=8, seed=0, power_iterations=3)

    sigmas, locals_ = [], []
    for j in range(5):
        opt_j = solve_optimization(problem, plan.sample(j), cfg=opt_cfg)
        sens_j = SensitivityOperator(problem, opt_j.as_eval_point())
        # identical probe vectors across samples isolate the operator itself
        triples, _ = randomized_geneig(sens_j, problem.spaces, cfg, sample_index=0)
        sigmas.append(triples.sigma)
        locals_.append(local_indices(triples, problem.spaces))

    sig_var = max(
        float(np.max(np.abs(s - sigmas[0]) / sigmas[0])) for s in sigmas[1:]
    )
    loc_scale = float(np.max(locals_[0]))
    loc_var = max(
        float(np.max(np.abs(l - locals_[0])) / loc_scale) for l in locals_[1:]
    )
    ok = sig_var <= 1e-6 and loc_var <= 1e-6
    report(
        4,
        "gamma=0 linearity",
        ok,
        f"sigma variation {sig_var:.2e}, local-index variation {loc_var:.2e} "
        f"across 5 theta samples",
    )
    assert ok


def test_criterion_5_perturbation_convergence_order():
    problem = build_logistic_toy()
    opt = solve_optimization(problem, np.array([0.5, 0.5]))
    phi = np.array([1.0, 0.0])
    deltas = [1e-2, 1e-3, 1e-4]
    estimates = [
        perturbation_check(problem, opt, phi, d).lhs / d for d in deltas
    ]
    errors = [abs(e - 9.99) for e in estimates]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    # three-point order estimate from successive differences of the estimates
    # themselves (independent of the rounded reference value)
    order = float(
        np.log10(abs(estimates[0] - estimates[1]) / abs(estimates[1] - estimates[2]))
    )
    ok = decreasing and order >= 1.0
    report(
        5,
        "finite-difference consistency",
        ok,
        f"errors {errors[0]:.4f}, {errors[1]:.5f}, {errors[2]:.6f}; "
        f"observed order {order:.4f}",
    )
    assert decreasing, f"errors not monotone: {errors}"
    # The error sequence against the 3-digit reference 9.99 cannot show the
    # order directly (the rounding floors the smallest error near 4.6e-4);
    # successive differences of the estimates measure the same order without
    # needing the exact limit.
    assert order >= 1.0, f"observed convergence order {order:.4f} < 1.0"


@pytest.mark.parametrize(
    "build",
    [
        build_logistic_toy,
        lambda: build_diffusion_control_1d(n_state=32, n_param=8),
        lambda: build_advdiff_inversion_1d(n_space=16, n_steps=8, n_window=5),
    ],
    ids=["logistic", "diffusion", "advdiff"],
)
def test_criterion_6_invariant_suite(build):
    problem = build()
    theta = problem.default_theta()
    opt = solve_optimization(problem, theta)
    point = opt.as_eval_point()
    sens = SensitivityOperator(problem, point)
    spaces = problem.spaces
    rng = np.random.default_rng(0)
    checks = {}

    # KKT self-adjointness
    kkt = KktOperator(problem, point)
    v = rng.standard_normal(kkt.dim)
    w = rng.standard_normal(kkt.dim)
    lhs = float(kkt.apply(v) @ w)
    checks["kkt_self_adjoint"] = abs(lhs - float(v @ kkt.apply(w))) <= 1e-10 * max(
        abs(lhs), 1.0
    )

    # weighted orthonormality of the randomized triples
    k = min(4, min(sens.n_z, sens.n_theta))
    cfg = RandEigConfig(k_pairs=k, oversampling=8, seed=1, power_iterations=3)
    triples, _ = randomized_geneig(sens, spaces, cfg)
    th, zv = triples.theta, triples.z
    eye = np.eye(len(triples))
    checks["weighted_orthonormality"] = bool(
        np.max(np.abs(th.T @ spaces.m_theta.dense() @ th - eye)) <= 1e-8
        and np.max(np.abs(zv.T @ spaces.m_z.dense() @ zv - eye)) <= 1e-8
    )

    # Parseval at full rank: the squared sigmas sum to the squared weighted
    # Frobenius norm of the sensitivity map
    oracle = dense_oracle(sens, spaces)
    r_z = dense_cholesky(spaces.m_z.dense())
    r_th = dense_cholesky(spaces.m_theta.dense())
    core = r_z @ np.linalg.solve(r_th.T, sens.dense().T).T
    frob2 = float(np.sum(core**2))
    total = float(oracle.sigma @ oracle.sigma)
    checks["parseval_full_rank"] = abs(total - frob2) <= 1e-8 * frob2
    if np.allclose(spaces.m_theta.dense(), np.eye(sens.n_theta)):
        s_loc = local_indices(oracle, spaces)
        checks["parseval_local_indices"] = (
            abs(float(s_loc @ s_loc) - total) <= 1e-8 * total
        )

    # set indices bounded by sigma_1, truncation monotonicity
    sets = set_indices(oracle, spaces, spaces.partition)
    sigma1 = oracle.sigma[0]
    checks["set_index_le_sigma1"] = all(
        val <= sigma1 * (1.0 + 1e-10) for val in sets.values()
    )
    prev = local_indices(oracle[:1], spaces)
    mono = True
    for kk in range(2, len(oracle) + 1):
        cur = local_indices(oracle[:kk], spaces)
        mono &= bool(np.all(cur >= prev - 1e-12))
        prev = cur
    checks["truncation_monotone"] = mono

    # scaling invariance of the directional sensitivity
    phi = rng.standard_normal(sens.n_theta)
    a = sens.directional_sensitivity(phi)
    b = sens.directional_sensitivity(3.7e3 * phi)
    checks["directional_scale_invariant"] = abs(a - b) <= 1e-12 * max(a, 1.0)

    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    report(
        6,
        f"invariant suite [{problem.name}]",
        ok,
        "all invariants hold" if ok else f"failing: {', '.join(failed)}",
    )
    assert ok, failed


def test_criterion_7_worker_determinism(tmp_path):
    outs = []
    for workers in (1, 4, 16):
        out = tmp_path / f"w{workers}"
        cfg = {
            "problem": {
                "name": "diffusion_control_1d",
                "params": {"n_state": 32, "n_param": 8},
            },
            "hdsa": {"n_samples": 3, "k_pairs": 3, "oversampling": 4, "seed": 5},
            "sampling": {"distribution": {"kind": "uniform", "a": -0.5, "b": 0.5}},
            "output_dir": str(out),
        }
        path = tmp_path / f"c{workers}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--workers", str(workers)]) == EXIT_OK
        outs.append(out)

    identical = all(
        (outs[0] / name).read_bytes() == (other / name).read_bytes()
        for other in outs[1:]
        for name in CSV_FILES + ("report.json",)
    )
    report(
        7,
        "worker-count determinism",
        identical,
        "byte-identical outputs for workers 1, 4, 16"
        if identical
        else "outputs differ across worker counts",
    )
    assert identical


def test_criterion_8_transient_inversion_analog():
    t0 = time.perf_counter()
    problem = build_advdiff_inversion_1d()
    plan = SamplingPlan(
        theta_dists=[Distribution("uniform", -1.0, 1.0)] * problem.dims.n_theta,
        master_seed=1234,
    )
    # the theta sample plan is held fixed; the two seeds drive the randomized
    # eigensolver's probe vectors, which is what reproducibility of the
    # ranking is about (the Monte Carlo spread over theta is reported as the
    # std aggregate, not as a stability defect)
    reports = []
    for seed in (101, 202):
        cfg = RandEigConfig(
            k_pairs=12, oversampling=8, seed=seed, n_samples=5, power_iterations=2
        )
        reports.append(global_analysis(problem, plan, cfg))

    decay = max(s.spectral_decay for r in reports for s in r.samples)
    means = [r.set_mean() for r in reports]
    n_sets = len(means[0])
    rank_a = sorted(means[0], key=lambda n: -means[0][n])
    rank_b = sorted(means[1], key=lambda n: -means[1][n])
    value_dev = max(
        abs(means[0][n] - means[1][n]) / means[0][n] for n in means[0]
    )
    elapsed = time.perf_counter() - t0

    complete = all(len(r.samples) == 5 and not r.failures for r in reports)
    ok = (
        complete
        and decay <= 0.1
        and n_sets >= 3
        and rank_a == rank_b
        and value_dev <= 0.01
        and elapsed < 300.0
    )
    report(
        8,
        "transient inversion analog",
        ok,
        f"worst sigma12/sigma1={decay:.4f}, {n_sets} ranked sets "
        f"({' > '.join(rank_a)}), cross-seed index deviation {value_dev:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert ok
