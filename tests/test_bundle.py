"""The bundle's CSV tables hold exactly the doubles of the in-memory report."""

import csv
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hdsa.analysis import global_analysis
from hdsa.bundle import CSV_FILES, _write_table, read_bundle, write_bundle
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


def _reference_text(header: str, tables: list[tuple[int, object]]) -> str:
    """The table as one f-string ``.17g`` per value, in index order."""
    lines = [header]
    for j, table in tables:
        if isinstance(table, dict):
            rows = table.items()
        else:
            a = np.asarray(table, dtype=float)
            if a.ndim == 1:
                rows = enumerate(a.tolist())
            else:
                rows = (
                    (f"{k},{i}", v) for k, row in enumerate(a.tolist()) for i, v in enumerate(row)
                )
        lines += [f"{j},{idx},{v:.17g}" for idx, v in rows]
    return "\n".join(lines) + "\n"


EDGE_VALUES = [-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0, 2.0**53 + 2, np.inf, -np.inf]


@pytest.mark.parametrize(
    "tables",
    [
        [],
        [(0, np.array(EDGE_VALUES)), (7, np.array(EDGE_VALUES[::-1]))],
        [(0, np.arange(6.0).reshape(2, 3).T), (1, -np.arange(6.0).reshape(3, 2) / 7.0)],
        # a K x n table whose K differs by sample, and an empty one
        [(0, np.array(EDGE_VALUES).reshape(2, 5)), (1, np.ones((1, 5))), (2, np.zeros((0, 5)))],
        [(3, np.zeros(0)), (4, np.array([-0.0]))],
        [(0, {"kappa": 0.25, "rest": -0.0}), (2, {"kappa": 5e-324, "rest": 1e308})],
    ],
    ids=["no samples", "1-D", "K x n", "K by sample", "empty", "dict"],
)
def test_writer_matches_per_value_formatting(tmp_path, tables):
    report = SimpleNamespace(
        samples=[SimpleNamespace(sample_index=j, table=t) for j, t in tables]
    )
    path = tmp_path / "table.csv"
    _write_table(path, "j,k,i,value", lambda s: s.table, report)
    assert path.read_bytes() == _reference_text("j,k,i,value", tables).encode()
