"""Command-line entry points: run, verify, report.

Exit-code contract: 0 success, 1 compute or verification failure, 2 usage or
configuration error. Any other exception is a programming error and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from .analysis import AllSamplesFailedError, global_analysis, perturbation_check
from .bundle import BundleError, read_bundle, render_report, write_bundle
from .config import ConfigError, RunConfig, load_config
from .operators import CHORD_NOISE, SensitivityOperator
from .optimizer import COMPUTE_ERRORS, OptimalPoint, OptimizerError, solve_optimization
from .problems.base import ProblemDefinition, check_derivatives
from .randeig import alternative_formulation, dense_oracle, randomized_geneig
from .sampling import VERIFY_STREAM, rng_for

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2

# Verification gates: |r - 1| for the perturbation sweep's ratio r
# extrapolated to delta = 0 from its two smallest deltas, and the relative
# mismatch of <D phi, w> and <phi, D^T w>.
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
    optimal = solve_optimization(problem, cfg.build_plan(problem).sample(0), cfg=cfg.optimizer)
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
    checks.append(_spectrum_row(
        "oracle cross-validation", triples.sigma, oracle.sigma, 0.0,
        "no singular triples", "max relative sigma error {rel:.3e} over {k} triples",
    ))
    alt, _ = alternative_formulation(sens, problem.spaces, cfg.randeig, sample_index=0)
    alpha = oracle.sigma**2
    # by Weyl's bound a Gram eigenvalue carries an absolute error of about
    # eps alpha_1, which pairs below sigma_k / sigma_1 ~ 1e-5 cannot meet at
    # 1e-6 relative
    floor = problem.dims.n_theta * np.finfo(float).eps * float(alpha[0])
    checks.append(_spectrum_row(
        "alternative formulation", alt.sigma**2, alpha, floor, "no eigenpairs",
        "max relative eigenvalue error {rel:.3e} over {k} pairs "
        "(gate 1e-6 alpha_k + n_theta eps alpha_1 = {floor:.3e})",
    ))

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

    checks.append(_perturbation_sweep(problem, optimal, sens, oracle.theta[:, 0]))
    return checks


def _spectrum_row(
    name: str, got: np.ndarray, ref: np.ndarray, floor: float, empty: str, detail: str
) -> tuple[str, bool, str]:
    """Row ``name``: each of the first k = min(len(got), len(ref)) of a
    solver's values ``got`` within 1e-6 ref + floor of the oracle's ``ref``;
    ``detail`` formats ``rel``, ``k`` and ``floor``. Nothing to compare fails
    as ``empty``, unless ``got`` is empty and every ``ref`` is 0: D = 0."""
    k = min(len(got), len(ref))
    if k == 0:
        if not len(got) and not np.any(ref):
            return name, True, "no triple on either side: D = 0"
        return name, False, empty
    ref = ref[:k]
    err = np.abs(got[:k] - ref)
    rel = float(np.max(err / np.maximum(ref, 1e-30)))
    ok = bool(np.all(err <= 1e-6 * ref + floor))
    return name, ok, detail.format(rel=rel, k=k, floor=floor)


def _perturbation_sweep(
    problem: ProblemDefinition,
    optimal: OptimalPoint,
    sens: SensitivityOperator,
    phi: np.ndarray,
) -> tuple[str, bool, str]:
    """The perturbation-sweep row: the optimum's moves along ``phi`` at each
    of PERTURBATION_DELTAS, re-solved as one block of chord steps with the
    KKT operator of ``sens``, against the prediction delta ||D phi||_Z.
    Verify passes the leading right singular vector theta_1, the direction
    that moves the optimum most (||D theta_1|| = sigma_1). Where D phi = 0
    the row passes only if no moved optimum leaves the chord's rounding
    floor CHORD_NOISE ||z0||_Z."""
    try:
        moved, d_phi = perturbation_check(problem, optimal, phi, PERTURBATION_DELTAS, sens)
    except OptimizerError as exc:
        return "perturbation sweep", False, f"re-solve failed: {exc}"
    if d_phi == 0.0:
        floor = CHORD_NOISE * problem.spaces.m_z.norm(optimal.z0)
        worst = float(moved.max())
        return "perturbation sweep", worst <= floor, (
            f"D phi = 0; largest moved distance {worst:.3e} (rounding floor {floor:.3e})"
        )
    ratios = (moved / (np.array(PERTURBATION_DELTAS) * d_phi)).tolist()
    errs = [abs(r - 1.0) for r in ratios]
    # the ratio must approach 1 as delta shrinks, and its first-order limit
    # from the last two deltas must be there; a wrong D gives a ratio that
    # converges, but not to 1
    (d2, d3), (r2, r3) = PERTURBATION_DELTAS[-2:], ratios[-2:]
    limit = r3 + (r3 - r2) * d3 / (d2 - d3)
    ok = (
        all(e2 <= e1 + 1e-12 or e2 <= PERTURBATION_FLOOR for e1, e2 in zip(errs, errs[1:]))
        and abs(limit - 1.0) <= PERTURBATION_TOL
    )
    detail = "ratios " + ", ".join(f"{r:.6f}" for r in ratios)
    return "perturbation sweep", ok, f"{detail}; limit {limit:.6f}"


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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
