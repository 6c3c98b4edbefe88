"""Result-bundle persistence: manifest, structured report, and flat CSV tables.

All tabular files carry explicit index headers (sample j, triple k, parameter
or coordinate i) and use a fixed float format, so reruns with the same config
produce byte-identical files.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np
import scipy

from .analysis import HdsaReport


class BundleError(Exception):
    """Missing or corrupt result bundle."""


# file -> (header, the sample's table): an array indexed i or k, a K x n
# array indexed (k, i), or a dict of values keyed by set name
_TABLES = {
    "singular_values.csv": ("j,k,sigma", lambda s: s.triples.sigma),
    "local_indices.csv": ("j,i,S_hat", lambda s: s.local),
    "set_indices.csv": ("j,set,value", lambda s: s.sets),
    "singular_vectors_theta.csv": ("j,k,i,value", lambda s: s.triples.theta.T),
    "singular_vectors_z.csv": ("j,k,i,value", lambda s: s.triples.z.T),
    "optimal_z.csv": ("j,i,value", lambda s: s.optimal.z0),
}
CSV_FILES = tuple(_TABLES)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# what render_report reads of report.json, at its top level and per sample:
# key -> (test of its value, what the test asks for); OPTIONAL_KEYS may be absent
_INT = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers")
_SETS = (
    lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
    "an object of numbers",
)
REPORT_KEYS = {
    **dict.fromkeys(("n_samples_requested", "n_samples_completed", "n_failures"), _INT),
    **dict.fromkeys(("local_indices_mean", "local_indices_std"), _NUMBERS),
    **dict.fromkeys(("set_indices_mean", "set_indices_std"), _SETS),
    "samples": (
        lambda v: isinstance(v, list) and all(isinstance(s, dict) for s in v),
        "a list of objects",
    ),
}
SAMPLE_KEYS = {
    "j": _INT,
    **dict.fromkeys(("sigmas", "triple_residuals"), _NUMBERS),
    **dict.fromkeys(("spectral_decay", "kkt_backward_error"), (_is_number, "a number")),
    "svd": (lambda v: isinstance(v, str), "a string"),
}
OPTIONAL_KEYS = {"set_indices_mean", "set_indices_std", "kkt_backward_error"}


def _template(shape: tuple[int, ...]) -> str:
    """The rows "{j},i,%.17g" of a 1-D table or "{j},k,i,%.17g" of a K x n
    table, in index order, with the sample index still to fill in."""
    if len(shape) == 1:
        return "".join(f"{{j}},{i},%.17g\n" for i in range(shape[0]))
    k, n = shape
    return "".join(f"{{j}},{a},{i},%.17g\n" for a in range(k) for i in range(n))


def _write_table(path: Path, header: str, table, report: HdsaReport) -> None:
    """One line per value; 17 significant digits round-trip any double
    (0.1 reads 0.10000000000000001).

    An array table is formatted by one ``%`` over its values, into the row
    template of its shape, made once per table; ``%.17g`` writes what an
    f-string's ``.17g`` writes. Each sample's text is written as it is made.
    """
    templates: dict[tuple[int, ...], str] = {}
    with path.open("w", newline="") as fh:
        fh.write(header + "\n")
        for s in report.samples:
            j, t = s.sample_index, table(s)
            if isinstance(t, dict):
                fh.write("".join(f"{j},{name},{v:.17g}\n" for name, v in t.items()))
                continue
            a = np.asarray(t, dtype=float)
            if a.shape not in templates:
                templates[a.shape] = _template(a.shape)
            fh.write(templates[a.shape].replace("{j}", str(j)) % tuple(a.ravel().tolist()))


def _nan_to_null(v: float) -> float | None:
    """``v``, or None, written as null, for NaN: RFC 8259 JSON has no NaN."""
    return None if np.isnan(v) else v


def write_bundle(
    out_dir: Path,
    report: HdsaReport,
    config_echo: dict,
    seed: int,
    wall_clock: float,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, table) in _TABLES.items():
        _write_table(out_dir / name, header, table, report)

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
                "sigmas": s.triples.sigma.tolist(),
                "spectral_decay": s.spectral_decay,
                "optimizer_iterations": s.optimal.iterations,
                "grad_norm": s.optimal.grad_norm,
                "sosc_min_eig_est": _nan_to_null(s.optimal.sosc_min_eig_est),
                "objective": s.optimal.objective,
                "kkt_solves": s.diagnostics.kkt_solves,
                "kkt_rhs": s.diagnostics.kkt_rhs,
                "kkt_backward_error": s.diagnostics.kkt_backward_error,
                "triple_residuals": s.diagnostics.triple_residuals.tolist(),
                "rank_deficient": s.diagnostics.rank_deficient,
                "svd": s.svd,
            }
            for s in report.samples
        ],
    }
    (out_dir / "report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
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
        json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
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
    if not isinstance(manifest, dict):
        raise BundleError("corrupt manifest: not a JSON object")
    files = manifest.get("files", [])
    if not isinstance(files, list) or not all(isinstance(n, str) for n in files):
        raise BundleError("corrupt manifest: files must be a list of file names")
    for name in files:
        if not (bundle_dir / name).is_file():
            raise BundleError(f"bundle file listed in manifest is missing: {name}")
    try:
        report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleError(f"corrupt report: {exc}") from exc
    if not isinstance(report, dict):
        raise BundleError("corrupt report: not a JSON object")
    _check(report, REPORT_KEYS, "report")
    if len(report["local_indices_mean"]) != len(report["local_indices_std"]):
        raise BundleError("corrupt report: local_indices_mean and _std differ in length")
    for s in report["samples"]:
        _check(s, SAMPLE_KEYS, "report sample")
        if s["sigmas"] and not s["triple_residuals"]:
            raise BundleError(f"corrupt report sample {s['j']}: no triple_residuals")
    return manifest, report


def _check(doc: dict, keys: dict, what: str) -> None:
    missing = [k for k in keys if k not in doc and k not in OPTIONAL_KEYS]
    if missing:
        raise BundleError(f"corrupt {what}: missing {', '.join(missing)}")
    for k, (test, kind) in keys.items():
        if k in doc and not test(doc[k]):
            raise BundleError(f"corrupt {what}: {k} must be {kind}")


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
