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
from .config import read_json


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


# what read_bundle asks of a value: (its test, what the test asks for)
_INT = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_NUMBER = (_is_number, "a number")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers")
_SETS = (
    lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
    "an object of numbers",
)
_OBJECTS = (
    lambda v: isinstance(v, list) and all(isinstance(s, dict) for s in v),
    "a list of objects",
)
_STRING = (lambda v: isinstance(v, str), "a string")


def _nan_to_null(v: float) -> float | None:
    """``v``, or None, written as null, for NaN: RFC 8259 JSON has no NaN."""
    return None if np.isnan(v) else v


# report.json, one row per key, per sample and at the top level: key -> (its
# value, from one SampleResult or from the HdsaReport; the check read_bundle
# applies, None where nothing reads the key; whether the key may be absent)
SAMPLE_FIELDS = {
    "j": (lambda s: s.sample_index, _INT, False),
    "theta": (lambda s: [float(v) for v in s.theta], None, False),
    "sigmas": (lambda s: s.triples.sigma.tolist(), _NUMBERS, False),
    "spectral_decay": (lambda s: s.spectral_decay, _NUMBER, False),
    "optimizer_iterations": (lambda s: s.optimal.iterations, None, False),
    "grad_norm": (lambda s: s.optimal.grad_norm, None, False),
    "sosc_min_eig_est": (lambda s: _nan_to_null(s.optimal.sosc_min_eig_est), None, False),
    "objective": (lambda s: s.optimal.objective, None, False),
    "kkt_solves": (lambda s: s.kkt_solves, None, False),
    "kkt_rhs": (lambda s: s.kkt_rhs, None, False),
    "kkt_backward_error": (lambda s: s.kkt_backward_error, _NUMBER, True),
    "triple_residuals": (lambda s: s.diagnostics.triple_residuals.tolist(), _NUMBERS, False),
    "rank_deficient": (lambda s: s.diagnostics.rank_deficient, None, False),
    "svd": (lambda s: s.svd, _STRING, False),
}
REPORT_FIELDS = {
    "n_samples_requested": (lambda r: r.n_requested, _INT, False),
    "n_samples_completed": (lambda r: len(r.samples), _INT, False),
    "n_failures": (lambda r: len(r.failures), _INT, False),
    "failures": (
        lambda r: [{"j": f.sample_index, "message": f.message} for f in r.failures],
        _OBJECTS,
        False,
    ),
    "local_indices_mean": (lambda r: [float(v) for v in r.local_mean()], _NUMBERS, False),
    "local_indices_std": (lambda r: [float(v) for v in r.local_std()], _NUMBERS, False),
    "set_indices_mean": (lambda r: r.set_mean(), _SETS, False),
    "set_indices_std": (lambda r: r.set_std(), _SETS, False),
    "samples": (lambda r: [_document(s, SAMPLE_FIELDS) for s in r.samples], _OBJECTS, False),
}


def _document(source, fields: dict) -> dict:
    return {key: value(source) for key, (value, _, _) in fields.items()}


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


def _write_json(path: Path, doc: dict) -> None:
    """Strict RFC 8259 JSON, keys sorted, so reruns write the same bytes."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


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

    _write_json(out_dir / "report.json", _document(report, REPORT_FIELDS))

    _write_json(out_dir / "manifest.json", {
        "config": config_echo,
        "seed": seed,
        "wall_clock_seconds": wall_clock,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "files": list(CSV_FILES) + ["report.json"],
    })


def read_bundle(bundle_dir: Path) -> tuple[dict, dict]:
    """Load and validate (manifest, report) from a bundle directory."""
    bundle_dir = Path(bundle_dir)
    manifest = read_json(bundle_dir / "manifest.json", BundleError, "manifest")
    if not isinstance(manifest, dict):
        raise BundleError("corrupt manifest: not a JSON object")
    files = manifest.get("files", [])
    if not isinstance(files, list) or not all(isinstance(n, str) for n in files):
        raise BundleError("corrupt manifest: files must be a list of file names")
    for name in files:
        if not (bundle_dir / name).is_file():
            raise BundleError(f"bundle file listed in manifest is missing: {name}")
    report = read_json(bundle_dir / "report.json", BundleError, "report")
    if not isinstance(report, dict):
        raise BundleError("corrupt report: not a JSON object")
    _check(report, REPORT_FIELDS, "report")
    if report["n_samples_completed"] != len(report["samples"]):
        raise BundleError("corrupt report: n_samples_completed is not the number of samples")
    if report["n_failures"] != len(report["failures"]):
        raise BundleError("corrupt report: n_failures is not the number of failures")
    if report["n_samples_completed"] + report["n_failures"] != report["n_samples_requested"]:
        raise BundleError("corrupt report: completed and failed samples are not those requested")
    if len(report["local_indices_mean"]) != len(report["local_indices_std"]):
        raise BundleError("corrupt report: local_indices_mean and _std differ in length")
    if report["set_indices_mean"].keys() != report["set_indices_std"].keys():
        raise BundleError("corrupt report: set_indices_mean and _std name different sets")
    for s in report["samples"]:
        _check(s, SAMPLE_FIELDS, "report sample")
        if s["sigmas"] and not s["triple_residuals"]:
            raise BundleError(f"corrupt report sample {s['j']}: no triple_residuals")
    return manifest, report


def _check(doc: dict, fields: dict, what: str) -> None:
    checked = [(key, check, optional) for key, (_, check, optional) in fields.items() if check]
    missing = [key for key, _, optional in checked if not optional and key not in doc]
    if missing:
        raise BundleError(f"corrupt {what}: missing {', '.join(missing)}")
    for key, (test, kind), _ in checked:
        if key in doc and not test(doc[key]):
            raise BundleError(f"corrupt {what}: {key} must be {kind}")


# render_report's per-sample table, one column each: (header, its alignment
# and width, the column's text for one report sample). A sample without a
# triple (D = 0) reads sigma 0 and no residual
_SAMPLE_COLUMNS = (
    ("j", "<8", lambda s: str(s["j"])),
    ("sigma_1", ">16", lambda s: f"{(s['sigmas'] or [0.0])[0]:.6e}"),
    ("sigma_K", ">16", lambda s: f"{(s['sigmas'] or [0.0])[-1]:.6e}"),
    ("ratio", ">16", lambda s: f"{s['spectral_decay']:.6e}"),
    ("svd", ">12", lambda s: s["svd"]),
    ("worst_resid", ">16",
     lambda s: f"{max(s['triple_residuals']):.6e}" if s["triple_residuals"] else "-"),
    ("kkt_bwd_err", ">16", lambda s: f"{s.get('kkt_backward_error', float('nan')):.6e}"),
)


def render_report(manifest: dict, report: dict) -> str:
    """Plain-text tables: set indices, top parameter indices, spectral decay
    with each sample's SVD path, worst triple residual and KKT check."""
    lines = [
        f"samples: {report['n_samples_completed']} completed, {report['n_failures']} failed "
        f"(of {report['n_samples_requested']} requested), seed {manifest.get('seed')}",
        "",
    ]

    set_mean, set_std = report["set_indices_mean"], report["set_indices_std"]
    lines.append("set sensitivity indices (mean +/- std over samples)")
    lines.append(f"{'set':<20}{'index':>16}{'std':>16}")
    for name in sorted(set_mean, key=lambda n: -set_mean[n]):
        lines.append(f"{name:<20}{set_mean[name]:>16.6e}{set_std[name]:>16.6e}")
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
    lines.append("".join(format(head, width) for head, width, _ in _SAMPLE_COLUMNS))
    for s in report["samples"]:
        lines.append("".join(format(text(s), width) for _, width, text in _SAMPLE_COLUMNS))
    return "\n".join(lines) + "\n"
