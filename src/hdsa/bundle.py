"""Result-bundle persistence: manifest, structured report, and flat CSV tables.

All tabular files carry explicit index headers (sample j, triple k, parameter
or coordinate i) and use a fixed float format, so reruns with the same config
produce byte-identical files regardless of worker count.
"""

from __future__ import annotations

import csv
import json
import platform
from pathlib import Path

import numpy as np
import scipy

from .analysis import HdsaReport


class BundleError(Exception):
    """Missing or corrupt result bundle."""


CSV_FILES = (
    "singular_values.csv",
    "local_indices.csv",
    "set_indices.csv",
    "singular_vectors_theta.csv",
    "singular_vectors_z.csv",
    "optimal_z.csv",
)


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; deterministic for a given value."""
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_bundle(
    out_dir: Path,
    report: HdsaReport,
    config_echo: dict,
    seed: int,
    wall_clock: float,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_csv(
        out_dir / "singular_values.csv",
        ["j", "k", "sigma"],
        (
            [s.sample_index, k, _fmt(t.sigma)]
            for s in report.samples
            for k, t in enumerate(s.triples)
        ),
    )
    _write_csv(
        out_dir / "local_indices.csv",
        ["j", "i", "S_hat"],
        (
            [s.sample_index, i, _fmt(v)]
            for s in report.samples
            for i, v in enumerate(s.local)
        ),
    )
    _write_csv(
        out_dir / "set_indices.csv",
        ["j", "set", "value"],
        (
            [s.sample_index, name, _fmt(v)]
            for s in report.samples
            for name, v in s.sets.items()
        ),
    )
    _write_csv(
        out_dir / "singular_vectors_theta.csv",
        ["j", "k", "i", "value"],
        (
            [s.sample_index, k, i, _fmt(v)]
            for s in report.samples
            for k, t in enumerate(s.triples)
            for i, v in enumerate(t.theta_vec)
        ),
    )
    _write_csv(
        out_dir / "singular_vectors_z.csv",
        ["j", "k", "i", "value"],
        (
            [s.sample_index, k, i, _fmt(v)]
            for s in report.samples
            for k, t in enumerate(s.triples)
            for i, v in enumerate(t.z_vec)
        ),
    )
    _write_csv(
        out_dir / "optimal_z.csv",
        ["j", "i", "value"],
        (
            [s.sample_index, i, _fmt(v)]
            for s in report.samples
            for i, v in enumerate(s.optimal.z0)
        ),
    )

    doc = {
        "n_samples_requested": report.n_requested,
        "n_samples_completed": len(report.samples),
        "n_failures": len(report.failures),
        "failures": [
            {"j": f.sample_index, "message": f.message} for f in report.failures
        ],
        "local_indices_mean": [float(v) for v in report.local_mean()],
        "local_indices_std": [float(v) for v in report.local_std()],
        "set_indices_mean": report.set_mean(),
        "set_indices_std": report.set_std(),
        "samples": [
            {
                "j": s.sample_index,
                "theta": [float(v) for v in s.theta],
                "sigmas": [float(v) for v in s.sigmas],
                "spectral_decay": s.spectral_decay,
                "optimizer_iterations": s.optimal.iterations,
                "grad_norm": s.optimal.grad_norm,
                "sosc_min_eig": s.optimal.sosc_min_eig,
                "objective": s.optimal.objective,
                "kkt_solves": s.diagnostics.kkt_solves,
                "kkt_rhs": s.diagnostics.kkt_rhs,
                "kkt_backward_error": s.diagnostics.kkt_backward_error,
                "triple_residuals": [
                    float(v) for v in s.diagnostics.triple_residuals
                ],
                "rank_deficient": s.diagnostics.rank_deficient,
                "svd": s.svd,
            }
            for s in report.samples
        ],
    }
    (out_dir / "report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )

    manifest = {
        "config": config_echo,
        "seed": seed,
        "wall_clock_seconds": wall_clock,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "files": list(CSV_FILES) + ["report.json"],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def read_bundle(bundle_dir: Path) -> tuple[dict, dict]:
    """Load and validate (manifest, report) from a bundle directory."""
    bundle_dir = Path(bundle_dir)
    manifest_path = bundle_dir / "manifest.json"
    report_path = bundle_dir / "report.json"
    if not manifest_path.is_file():
        raise BundleError(f"missing manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise BundleError(f"corrupt manifest: {exc}") from exc
    for name in manifest.get("files", []):
        if not (bundle_dir / name).is_file():
            raise BundleError(f"bundle file listed in manifest is missing: {name}")
    try:
        report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleError(f"corrupt report: {exc}") from exc
    return manifest, report


def render_report(manifest: dict, report: dict) -> str:
    """Plain-text tables: set indices, top parameter indices, spectral decay
    with each sample's SVD path, worst triple residual and KKT check."""
    lines: list[str] = []
    n_done = report["n_samples_completed"]
    lines.append(
        f"samples: {n_done} completed, {report['n_failures']} failed "
        f"(of {report['n_samples_requested']} requested), "
        f"seed {manifest.get('seed')}"
    )
    lines.append("")

    set_mean = report.get("set_indices_mean", {})
    if set_mean:
        set_std = report.get("set_indices_std", {})
        lines.append("set sensitivity indices (mean +/- std over samples)")
        lines.append(f"{'set':<20}{'index':>16}{'std':>16}")
        for name in sorted(set_mean, key=lambda n: -set_mean[n]):
            lines.append(
                f"{name:<20}{set_mean[name]:>16.6e}{set_std.get(name, 0.0):>16.6e}"
            )
        lines.append("")

    mean = report["local_indices_mean"]
    std = report["local_indices_std"]
    order = sorted(range(len(mean)), key=lambda i: -mean[i])[:10]
    lines.append("top parameter indices (mean +/- std over samples)")
    lines.append(f"{'i':<8}{'S_hat':>16}{'std':>16}")
    for i in order:
        lines.append(f"{i:<8}{mean[i]:>16.6e}{std[i]:>16.6e}")
    lines.append("")

    lines.append(
        "spectral decay sigma_K / sigma_1, SVD path, worst triple residual and "
        "KKT backward error per sample"
    )
    lines.append(
        f"{'j':<8}{'sigma_1':>16}{'sigma_K':>16}{'ratio':>16}{'svd':>12}"
        f"{'worst_resid':>16}{'kkt_bwd_err':>16}"
    )
    for s in report["samples"]:
        sig = s["sigmas"]
        if sig:
            lines.append(
                f"{s['j']:<8}{sig[0]:>16.6e}{sig[-1]:>16.6e}"
                f"{s['spectral_decay']:>16.6e}{s['svd']:>12}"
                f"{max(s['triple_residuals']):>16.6e}"
                f"{s.get('kkt_backward_error', float('nan')):>16.6e}"
            )
    return "\n".join(lines) + "\n"
