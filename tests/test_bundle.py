"""The bundle's CSV tables hold exactly the doubles of the in-memory report."""

import csv
import re
from pathlib import Path

import pytest

from hdsa.analysis import global_analysis
from hdsa.bundle import CSV_FILES, read_bundle, write_bundle
from hdsa.config import parse_config


def readme_headers() -> dict[str, list[str]]:
    """file -> header, from the README's result-bundle table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+\.csv)` \| `([\w,]+)`", readme, re.M)
    return {name: header.split(",") for name, header in rows}


def expected_tables(report) -> dict[str, list[tuple]]:
    """file -> (index columns..., value) rows, in the order they must appear."""
    tables = {name: [] for name in CSV_FILES}
    for s in report.samples:
        j = s.sample_index
        t = s.triples
        for k, sigma in enumerate(t.sigma):
            tables["singular_values.csv"].append((j, k, sigma))
            for i, v in enumerate(t.theta[:, k]):
                tables["singular_vectors_theta.csv"].append((j, k, i, v))
            for i, v in enumerate(t.z[:, k]):
                tables["singular_vectors_z.csv"].append((j, k, i, v))
        for i, v in enumerate(s.local):
            tables["local_indices.csv"].append((j, i, v))
        for name, v in s.sets.items():
            tables["set_indices.csv"].append((j, name, v))
        for i, v in enumerate(s.optimal.z0):
            tables["optimal_z.csv"].append((j, i, v))
    return tables


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    cfg = parse_config({
        "problem": {
            "name": "diffusion_control_1d",
            "params": {"n_state": 16, "n_param": 4},
        },
        "hdsa": {"n_samples": 3, "k_pairs": 2, "oversampling": 2, "seed": 3},
        "output_dir": str(out),
    })
    problem = cfg.build_problem()
    report = global_analysis(
        problem, cfg.build_plan(problem), cfg.randeig, opt_cfg=cfg.optimizer
    )
    write_bundle(out, report, cfg.raw, cfg.randeig.seed, 0.0)
    return out, report


def test_headers_match_the_readme(bundle):
    out, _ = bundle
    headers = readme_headers()
    assert set(headers) == set(CSV_FILES)
    for name in CSV_FILES:
        with (out / name).open(newline="") as fh:
            assert next(csv.reader(fh)) == headers[name], name


def test_rows_hold_the_report_doubles_in_index_order(bundle):
    out, report = bundle
    for name, expected in expected_tables(report).items():
        assert expected, name
        with (out / name).open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [tuple(r[:-1]) for r in rows] == [
            tuple(str(x) for x in e[:-1]) for e in expected
        ], name
        # 17 significant digits round-trip: the value read back is the double
        assert [float(r[-1]) for r in rows] == [float(e[-1]) for e in expected], name


def test_lines_end_in_newline_only(bundle):
    out, _ = bundle
    for name in CSV_FILES:
        data = (out / name).read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, name


def test_manifest_lists_every_file(bundle):
    out, _ = bundle
    manifest, _ = read_bundle(out)
    assert manifest["files"] == list(CSV_FILES + ("report.json",))
