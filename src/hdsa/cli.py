"""Command-line entry points: run, verify, report.

Exit-code contract: 0 success, 1 compute or verification failure, 2 usage or
configuration error. Any other exception is a programming error and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import AllSamplesFailedError, global_analysis, perturbation_check
from .bundle import BundleError, read_bundle, render_report, write_bundle
from .config import ConfigError, RunConfig, load_config
from .operators import SensitivityOperator
from .optimizer import COMPUTE_ERRORS, OptimizerError, solve_optimization
from .problems.base import check_derivatives
from .randeig import alternative_formulation, dense_oracle, randomized_geneig
from .sampling import VERIFY_STREAM, rng_for

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2

# Verification gates: |ratio - 1| of the perturbation sweep at its smallest
# delta, and the relative mismatch of <D phi, w> and <phi, D^T w>.
PERTURBATION_TOL = 1e-3
# |ratio - 1| at or below this counts as converged even where it grows as delta
# shrinks: on a map affine in theta the re-solve's rounding gap is constant,
# so relative to delta it grows while the ratio stays 1 to 1e-7
PERTURBATION_FLOOR = 1e-6
ADJOINT_TOL = 1e-8
# the perturbation sweep's deltas, largest first
PERTURBATION_DELTAS = (1e-2, 1e-3, 1e-4)


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def cmd_run(config_path: str, force: bool = False, workers: int = 1) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_USAGE

    out_dir = cfg.output_dir
    # the output directory, or the nearest of its parents that exists, must
    # be a directory, or the bundle cannot be written once the run is done
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        _err(f"output directory {out_dir} cannot be made: {nearest} is not a directory")
        return EXIT_USAGE
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        _err(f"output directory {out_dir} is not empty; pass --force to replace")
        return EXIT_USAGE
    # --workers has no effect; it is still parsed and range-checked
    if workers < 1:
        _err("--workers must be at least 1")
        return EXIT_USAGE

    try:
        problem = cfg.build_problem()
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_USAGE
    plan = cfg.build_plan(problem)

    t0 = time.perf_counter()
    try:
        report = global_analysis(problem, plan, cfg.randeig, opt_cfg=cfg.optimizer)
    except (*COMPUTE_ERRORS, AllSamplesFailedError) as exc:
        _err(f"analysis failed: {exc}")
        return EXIT_COMPUTE
    wall = time.perf_counter() - t0

    write_bundle(out_dir, report, cfg.raw, cfg.randeig.seed, wall)

    doc_manifest, doc_report = read_bundle(out_dir)
    print(render_report(doc_manifest, doc_report))
    print(f"bundle written to {out_dir} in {wall:.2f} s")
    if report.failures:
        for f in report.failures:
            _err(f"sample {f.sample_index} failed: {f.message}")
        return EXIT_COMPUTE
    return EXIT_OK


def _verify_checks(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    """Run the verification suite; returns (name, passed, detail) rows."""
    checks: list[tuple[str, bool, str]] = []
    problem = cfg.build_problem()
    plan = cfg.build_plan(problem)
    optimal = solve_optimization(problem, plan.sample(0), cfg=cfg.optimizer)
    point = optimal.as_eval_point()

    rep = check_derivatives(problem, point)
    worst = max(rep.errors.values())
    checks.append(
        (
            "derivative check",
            rep.passed,
            f"worst relative error {worst:.3e} (threshold {rep.threshold:.1e})"
            + ("" if rep.passed else f"; failing blocks: {sorted(rep.failures())}"),
        )
    )

    sens = SensitivityOperator(
        problem, point, optimal.state_sensitivity, optimal.hessian_factor
    )
    oracle = dense_oracle(sens, problem.spaces)
    triples, _ = randomized_geneig(sens, problem.spaces, cfg.randeig, sample_index=0)
    k = min(len(triples), len(oracle))
    if k == 0:
        checks.append(("oracle cross-validation", False, "no singular triples"))
    else:
        ref = oracle.sigma[:k]
        rel = float(np.max(np.abs(triples.sigma[:k] - ref) / np.maximum(ref, 1e-30)))
        checks.append(
            (
                "oracle cross-validation",
                rel <= 1e-6,
                f"max relative sigma error {rel:.3e} over {k} triples",
            )
        )

    alt, _ = alternative_formulation(sens, problem.spaces, cfg.randeig, sample_index=0)
    ka = min(len(alt), len(oracle))
    if ka == 0:
        checks.append(("alternative formulation", False, "no eigenpairs"))
    else:
        ref = oracle.sigma[:ka] ** 2
        rel = float(np.max(np.abs(alt.sigma[:ka] ** 2 - ref) / np.maximum(ref, 1e-30)))
        checks.append(
            (
                "alternative formulation",
                rel <= 1e-6,
                f"max relative eigenvalue error {rel:.3e} over {ka} pairs",
            )
        )

    rng = rng_for(cfg.randeig.seed, VERIFY_STREAM)
    phi = rng.standard_normal(problem.dims.n_theta)
    w = rng.standard_normal(problem.dims.n_z)
    forward = float(sens.apply(phi) @ w)
    mismatch = abs(forward - float(phi @ sens.apply_transpose(w)))
    checks.append(
        (
            "adjoint consistency",
            mismatch <= ADJOINT_TOL * abs(forward),
            f"|<D phi, w> - <phi, D^T w>| = {mismatch:.3e} against "
            f"|<D phi, w>| = {abs(forward):.3e}",
        )
    )

    phi = np.zeros(problem.dims.n_theta)
    phi[0] = 1.0
    ratios = []
    ok = True
    detail = ""
    try:
        for delta in PERTURBATION_DELTAS:
            pc = perturbation_check(
                problem, optimal, phi, delta, opt_cfg=cfg.optimizer, sens=sens
            )
            ratios.append(pc.ratio)
        errs = [abs(r - 1.0) for r in ratios]
        # the ratio must approach 1 as delta shrinks and be there at the end;
        # a wrong D gives a ratio that converges, but not to 1
        ok = (
            all(
                e2 <= e1 + 1e-12 or e2 <= PERTURBATION_FLOOR
                for e1, e2 in zip(errs, errs[1:])
            )
            and errs[-1] <= PERTURBATION_TOL
        )
        detail = "ratios " + ", ".join(f"{r:.6f}" for r in ratios)
    except OptimizerError as exc:
        ok = False
        detail = f"re-solve failed: {exc}"
    checks.append(("perturbation sweep", ok, detail))

    gamma = cfg.problem_params.get("gamma")
    if cfg.problem_name == "diffusion_control_1d" and gamma == 0.0:
        sigma_sets = []
        for j in range(3):
            opt_j = solve_optimization(problem, plan.sample(j), cfg=cfg.optimizer)
            s_j = SensitivityOperator(
                problem,
                opt_j.as_eval_point(),
                opt_j.state_sensitivity,
                opt_j.hessian_factor,
            )
            # identical probes across theta samples isolate the operator's
            # theta-dependence from randomized-solver variation
            tr_j, _ = randomized_geneig(
                s_j, problem.spaces, cfg.randeig, sample_index=0
            )
            sigma_sets.append(tr_j.sigma)
        base = sigma_sets[0]
        rel = max(
            float(np.max(np.abs(s - base) / np.maximum(base, 1e-30)))
            for s in sigma_sets[1:]
        )
        checks.append(
            (
                "linearity (gamma = 0)",
                rel <= 1e-6,
                f"max sigma variation across theta samples {rel:.3e}",
            )
        )
    return checks


def cmd_verify(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_USAGE
    try:
        checks = _verify_checks(cfg)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_USAGE
    except COMPUTE_ERRORS as exc:
        _err(f"verification aborted: {exc}")
        return EXIT_COMPUTE

    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{status}  {name:<{width}}  {detail}")
    if not all_ok:
        failed = [name for name, ok, _ in checks if not ok]
        _err("failed checks: " + ", ".join(failed))
        return EXIT_COMPUTE
    return EXIT_OK


def cmd_report(bundle_dir: str) -> int:
    try:
        manifest, report = read_bundle(Path(bundle_dir))
    except BundleError as exc:
        _err(str(exc))
        return EXIT_USAGE
    print(render_report(manifest, report), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdsa",
        description="Hyper-differential sensitivity analysis of optimization solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the sampled analysis and write a bundle")
    p_run.add_argument("config", help="path to a JSON run configuration")
    p_run.add_argument(
        "--force", action="store_true", help="replace files in a non-empty output dir"
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="no effect (samples run in one serial loop); will be removed",
    )

    p_verify = sub.add_parser("verify", help="run the verification suite on a config")
    p_verify.add_argument("config", help="path to a JSON run configuration")

    p_report = sub.add_parser("report", help="render tables from a result bundle")
    p_report.add_argument("bundle_dir", help="directory holding a result bundle")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching the contract
        return int(exc.code or 0)
    if args.command == "run":
        return cmd_run(args.config, force=args.force, workers=args.workers)
    if args.command == "verify":
        return cmd_verify(args.config)
    return cmd_report(args.bundle_dir)


if __name__ == "__main__":
    sys.exit(main())
