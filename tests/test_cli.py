import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdsa.operators as operators
from hdsa.bundle import CSV_FILES, REPORT_FIELDS, SAMPLE_FIELDS, BundleError, read_bundle
from hdsa.cli import (
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_USAGE,
    _perturbation_sweep,
    _verify_checks,
    build_parser,
    main,
)
from hdsa.config import ConfigError, load_config, parse_config
from hdsa.operators import KKT_TOL, KktOperator, SensitivityOperator
from hdsa.optimizer import OptimizerError, solve_optimization
from hdsa.problems import build_diffusion_control_1d
from hdsa.problems.logistic import LogisticToyProblem
from hdsa.randeig import Triples, dense_oracle
from hdsa.sampling import Distribution, SamplingPlan


def logistic_config(out_dir, n_samples=2, seed=42, **extra):
    cfg = {
        "problem": {"name": "logistic_toy", "params": {}},
        "optimizer": {},
        "hdsa": {
            "n_samples": n_samples,
            "k_pairs": 1,
            "oversampling": 2,
            "seed": seed,
        },
        "sampling": {"distribution": {"kind": "uniform", "a": 0.4, "b": 0.6}},
        "output_dir": str(out_dir),
    }
    cfg.update(extra)
    return cfg


# diffusion where no parameter moves the optimum: D = 0
ZERO_PROBLEM = {"name": "diffusion_control_1d",
                "params": {"n_state": 32, "n_param": 4, "amplitude": 0.0}}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        cfg = logistic_config(tmp_path / "out")
        cfg["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            parse_config(cfg)

    def test_retired_oracle_key_is_usage_error(self, tmp_path):
        for retired in ({"oracle": True}, {"optimizer": {"cg_tol": 1e-12}}):
            cfg = logistic_config(tmp_path / "out")
            cfg.update(retired)
            path = write_config(tmp_path, cfg)
            assert main(["verify", str(path)]) == EXIT_USAGE

    def test_unknown_problem_param_rejected(self, tmp_path):
        cfg = logistic_config(tmp_path / "out")
        cfg["problem"]["params"] = {"n_state": 10}
        with pytest.raises(ConfigError, match="n_state"):
            parse_config(cfg)

    def test_missing_output_dir_rejected(self, tmp_path):
        cfg = logistic_config(tmp_path / "out")
        del cfg["output_dir"]
        with pytest.raises(ConfigError, match="output_dir"):
            parse_config(cfg)

    def test_wrong_type_rejected(self, tmp_path):
        cfg = logistic_config(tmp_path / "out")
        cfg["hdsa"]["n_samples"] = "five"
        with pytest.raises(ConfigError, match="n_samples"):
            parse_config(cfg)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "problem": \n}')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_relative_output_dir_resolved_against_config(self, tmp_path):
        cfg = logistic_config("results")
        path = write_config(tmp_path, cfg)
        parsed = load_config(path)
        assert parsed.output_dir == tmp_path / "results"

    def test_hdsa_seed_environment_is_not_read(self, tmp_path, monkeypatch):
        # the bundle is a function of the config alone, so re-running the
        # manifest's config echo reproduces it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        quick_start = json.loads(re.findall(r"```json\n(.*?)```", readme, re.S)[0])
        outs = []
        monkeypatch.delenv("HDSA_SEED", raising=False)
        for env in (None, "7"):
            if env is not None:
                monkeypatch.setenv("HDSA_SEED", env)
            out = tmp_path / f"out-{env}"
            path = write_config(tmp_path, {**quick_start, "output_dir": str(out)})
            assert main(["run", str(path), "--workers", "1"]) == EXIT_OK
            manifest, _ = read_bundle(out)
            assert manifest["seed"] == manifest["config"]["hdsa"]["seed"]
            outs.append(out)
        for name in (*CSV_FILES, "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestRunCommand:
    def test_run_writes_complete_bundle(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, logistic_config(out))
        assert main(["run", str(path)]) == EXIT_OK
        manifest, report = read_bundle(out)
        assert manifest["seed"] == 42
        assert report["n_samples_completed"] == 2
        for name in CSV_FILES:
            assert (out / name).is_file()

    def test_run_where_every_sample_fails(self, tmp_path, capsys, monkeypatch):
        """Every sample failing is a compute failure: exit 1, one error
        line, and no bundle."""
        def diverge(*args, **kwargs):
            raise OptimizerError("diverged")

        monkeypatch.setattr("hdsa.analysis.solve_optimization", diverge)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, logistic_config(out)))]) == EXIT_COMPUTE
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: analysis failed: every sample failed; first failure: diverged"
        assert not out.exists()

    def test_report_has_solver_work_and_residuals(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, logistic_config(out))
        assert main(["run", str(path)]) == EXIT_OK
        _, report = read_bundle(out)
        for s in report["samples"]:
            # D is assembled from a column per parameter, and its first
            # columns, the operator's check, are the one KKT solve
            assert s["svd"] == "exact"
            assert s["kkt_solves"] == 1
            assert s["kkt_rhs"] == 2
            assert 0.0 <= s["kkt_backward_error"] <= KKT_TOL
            assert len(s["triple_residuals"]) == len(s["sigmas"])

    def test_non_empty_output_needs_force(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, logistic_config(out))
        assert main(["run", str(path)]) == EXIT_OK
        assert main(["run", str(path)]) == EXIT_USAGE
        assert main(["run", str(path), "--force"]) == EXIT_OK

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = logistic_config(tmp_path / "out")
        cfg["hdsa"]["set_index_mode"] = "bogus"
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == EXIT_USAGE

    def test_worker_count_gives_identical_bytes(self, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        p1 = write_config(tmp_path, logistic_config(out1, n_samples=4), "c1.json")
        p2 = write_config(tmp_path, logistic_config(out2, n_samples=4), "c2.json")
        assert main(["run", str(p1), "--workers", "1"]) == EXIT_OK
        assert main(["run", str(p2), "--workers", "3"]) == EXIT_OK
        for name in CSV_FILES + ("report.json",):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_worker_count(self, tmp_path):
        path = write_config(tmp_path, logistic_config(tmp_path / "out"))
        assert main(["run", str(path), "--workers", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_output_dir_is_a_file(self, tmp_path, capsys, monkeypatch, force):
        out = tmp_path / "out"
        out.write_text("not a directory")
        path = write_config(tmp_path, logistic_config(out))
        monkeypatch.setattr("hdsa.cli.global_analysis", _no_compute)
        assert main(["run", str(path), *force]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
        assert out.read_text() == "not a directory"

    def test_output_dir_beneath_a_file(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "file").write_text("")
        path = write_config(tmp_path, logistic_config(tmp_path / "file" / "out"))
        monkeypatch.setattr("hdsa.cli.global_analysis", _no_compute)
        assert main(["run", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


def test_run_where_no_direction_moves_the_optimum_reports_zero_indices(tmp_path):
    """At amplitude 0 no parameter moves the optimum, so D = 0: neither the
    exact path (4 parameters) nor the randomized path (100) keeps a triple,
    and every index is 0. `hdsa run` exits 0 with nothing on stderr; the
    empty blocks once crashed the LAPACK kernels, and the process with them."""
    # a fresh interpreter that imports hdsa from this tree, with numerical
    # warnings as errors
    path = [str(Path(operators.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    for n_state, n_param, svd in ((32, 4, "exact"), (200, 100, "randomized")):
        cfg = {
            "problem": {
                "name": "diffusion_control_1d",
                "params": {"n_state": n_state, "n_param": n_param, "amplitude": 0.0},
            },
            "hdsa": {"n_samples": 2},
            "output_dir": str(tmp_path / svd),
        }
        done = subprocess.run(
            [sys.executable, "-m", "hdsa.cli", "run",
             str(write_config(tmp_path, cfg, f"{svd}.json"))],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == EXIT_OK and done.stderr == "", done.stderr
        report = json.loads((tmp_path / svd / "report.json").read_text())
        assert report["n_failures"] == 0
        assert report["local_indices_mean"] == [0.0] * n_param
        assert report["set_indices_mean"] == {"kappa": 0.0}
        assert [(s["svd"], s["sigmas"]) for s in report["samples"]] == [(svd, [])] * 2


def test_report_without_sosc_is_strict_json(tmp_path, capsys):
    # a disabled second-order check writes null, not NaN, which RFC 8259
    # parsers reject; hdsa report still renders the bundle
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    out = tmp_path / "out"
    cfg = logistic_config(out, optimizer={"check_sosc": False})
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_OK
    report, _ = (
        json.loads((out / name).read_text(), parse_constant=refuse)
        for name in ("report.json", "manifest.json")
    )
    assert [s["sosc_min_eig_est"] for s in report["samples"]] == [None, None]
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_OK
    assert "spectral decay" in capsys.readouterr().out


def _no_compute(*args, **kwargs):
    raise AssertionError("the analysis ran before the output path was checked")


# a value of another JSON type than the one written
OTHER_TYPE = {int: 1.5, float: "1.5", str: 0, list: ["x"], dict: {"x": "y"}}


@pytest.fixture(scope="module")
def logistic_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("logistic") / "out"
    path = write_config(out.parent, logistic_config(out))
    assert main(["run", str(path)]) == EXIT_OK
    return out


class TestReportCommand:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, logistic_config(out))
        assert main(["run", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "set sensitivity indices" in text
        assert "spectral decay" in text
        # the decay table ends with each sample's SVD path, worst triple
        # residual and the backward error of its KKT check
        _, report = read_bundle(out)
        lines = text.splitlines()
        head = next(i for i, line in enumerate(lines) if "worst_resid" in line)
        assert lines[head].split()[-3:] == ["svd", "worst_resid", "kkt_bwd_err"]
        rows = lines[head + 1 : head + 1 + len(report["samples"])]
        assert len(rows) == len(report["samples"])
        for row, s in zip(rows, report["samples"]):
            assert int(row.split()[0]) == s["j"]
            assert row.split()[-3] == s["svd"] == "exact"
            assert row.split()[-2] == f"{max(s['triple_residuals']):.6e}"
            assert row.split()[-1] == f"{s['kkt_backward_error']:.6e}"
            assert 0.0 <= s["kkt_backward_error"] <= KKT_TOL

    def test_a_row_for_each_sample_where_d_is_zero(self, tmp_path, capsys):
        """At D = 0 a sample has no triple: its row reads sigma 0 and ratio
        0, no worst residual, and its SVD path and KKT backward error."""
        out = tmp_path / "out"
        cfg = {"problem": ZERO_PROBLEM, "hdsa": {"n_samples": 2}, "output_dir": str(out)}
        assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        head = next(i for i, line in enumerate(lines) if "worst_resid" in line)
        _, report = read_bundle(out)
        assert len(lines) == head + 1 + len(report["samples"]) == head + 3
        for row, s in zip(lines[head + 1 :], report["samples"]):
            assert row.split() == [
                str(s["j"]), *["0.000000e+00"] * 3, "exact", "-",
                f"{s['kkt_backward_error']:.6e}",
            ]

    def test_missing_bundle_is_usage_error(self, tmp_path):
        assert main(["report", str(tmp_path / "nowhere")]) == EXIT_USAGE

    def test_corrupt_manifest_detected(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, logistic_config(out))
        assert main(["run", str(path)]) == EXIT_OK
        (out / "manifest.json").write_text("{ not json")
        with pytest.raises(BundleError):
            read_bundle(out)
        assert main(["report", str(out)]) == EXIT_USAGE

    def test_missing_listed_file_detected(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, logistic_config(out))
        assert main(["run", str(path)]) == EXIT_OK
        (out / "singular_values.csv").unlink()
        assert main(["report", str(out)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("manifest.json", lambda doc: []),
            ("manifest.json", lambda doc: {**doc, "files": 3}),
            ("report.json", lambda doc: {}),
            ("report.json", lambda doc: {
                k: v for k, v in doc.items() if k != "n_failures"
            }),
            ("report.json", lambda doc: {**doc, "samples": {}}),
            ("report.json", lambda doc: {**doc, "samples": [{"j": 0}]}),
            ("report.json", lambda doc: {**doc, "local_indices_mean": 3}),
            ("report.json", lambda doc: {**doc, "samples": [
                {**s, "triple_residuals": []} for s in doc["samples"]
            ]}),
            ("report.json", lambda doc: {**doc, "set_indices_mean": {"kappa": "big"}}),
            ("report.json", lambda doc: {**doc, "local_indices_std": []}),
            ("report.json", lambda doc: {**doc, "set_indices_std": {}}),
            ("report.json", lambda doc: {**doc, "n_samples_completed": 7}),
            ("report.json", lambda doc: {**doc, "n_failures": 5}),
            ("report.json", lambda doc: {**doc, "failures": "garbage"}),
            ("report.json", lambda doc: {**doc, "n_samples_requested": 7}),
            # bytes are written as they are; json.dumps writes NaN and Infinity
            ("manifest.json", lambda doc: b"\xff" + json.dumps(doc).encode()),
            ("report.json", lambda doc: json.dumps(doc).encode("utf-16")),
            ("report.json", lambda doc: {**doc, "local_indices_mean": [math.nan] * len(doc["local_indices_mean"])}),
            ("report.json", lambda doc: {**doc, "local_indices_std": [math.inf] * len(doc["local_indices_std"])}),
        ],
        ids=["manifest list", "files not a list", "empty report", "no n_failures",
             "samples not a list", "sample without sigmas", "mean not a list",
             "sigmas without residuals", "set index not a number",
             "mean and std differ in length", "set std lacks a set",
             "completed count is not the sample count",
             "failed count is not the failure count", "failures not a list",
             "completed and failed are not those requested",
             "manifest not UTF-8", "report not UTF-8", "report holds NaN",
             "report holds Infinity"],
    )
    def test_malformed_document_is_usage_error(self, tmp_path, capsys, name, edit):
        out = tmp_path / "out"
        path = write_config(tmp_path, logistic_config(out))
        assert main(["run", str(path)]) == EXIT_OK
        edited = edit(json.loads((out / name).read_text()))
        if isinstance(edited, bytes):
            (out / name).write_bytes(edited)
        else:
            (out / name).write_text(json.dumps(edited))
        with pytest.raises(BundleError):
            read_bundle(out)
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err

    @pytest.mark.parametrize("fields, key, edit", [
        pytest.param(fields, key, edit, id=f"{key} {edit}")
        for fields in (REPORT_FIELDS, SAMPLE_FIELDS)
        for key, (_, check, optional) in fields.items()
        if check
        for edit in ("wrong type",) + (() if optional else ("absent",))
    ])
    def test_every_checked_key_is_enforced(
        self, logistic_bundle, tmp_path, capsys, fields, key, edit
    ):
        """Each report.json key that read_bundle checks, dropped where it may
        not be absent and given a value of another JSON type, at the top
        level or in the first sample."""
        out = tmp_path / "out"
        shutil.copytree(logistic_bundle, out)
        report = json.loads((out / "report.json").read_text())
        doc = report if fields is REPORT_FIELDS else report["samples"][0]
        if edit == "absent":
            del doc[key]
        else:
            doc[key] = OTHER_TYPE[type(doc[key])]
        (out / "report.json").write_text(json.dumps(report))
        with pytest.raises(BundleError, match=key):
            read_bundle(out)
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


class TestVerifyCommand:
    def test_verify_passes_on_sound_problem(self, tmp_path, capsys):
        path = write_config(tmp_path, logistic_config(tmp_path / "out"))
        assert main(["verify", str(path)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text

    def test_verify_catches_wrong_derivative(self, tmp_path, capsys):
        cfg = logistic_config(tmp_path / "out")
        cfg["problem"]["params"] = {"corrupt_derivative": True}
        path = write_config(tmp_path, cfg)
        assert main(["verify", str(path)]) == EXIT_COMPUTE
        assert "FAIL" in capsys.readouterr().out

    def test_verify_aborts_where_d_is_too_large_to_assemble(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(operators, "DENSE_THRESHOLD", 1)
        path = write_config(tmp_path, logistic_config(tmp_path / "out"))
        assert main(["verify", str(path)]) == EXIT_COMPUTE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            "error: verification aborted: problem too large to assemble D densely"
        )

    def test_verify_catches_wrong_sensitivity_operator(
        self, tmp_path, capsys, monkeypatch
    ):
        # a ratio that converges, but not to 1, fails the sweep however
        # close to 1 it settles
        apply = SensitivityOperator.apply
        path = write_config(tmp_path, logistic_config(tmp_path / "out"))
        for scale in (1.5, 1.0 + 1e-2):
            monkeypatch.setattr(
                SensitivityOperator,
                "apply",
                lambda self, phi, scale=scale: scale * apply(self, phi),
            )
            assert main(["verify", str(path)]) == EXIT_COMPUTE
            rows = capsys.readouterr().out.splitlines()
            failed = {row.split("  ")[1] for row in rows if row.startswith("FAIL")}
            assert {"perturbation sweep", "adjoint consistency"} <= failed, scale

    @pytest.mark.parametrize(
        "scale, detail", [(1 + 1e-2, "ratios "), (0.4, "re-solve failed: chord")]
    )
    def test_wrong_factor_fails_the_sweep(self, scale, detail):
        """A factor of scale * H, swapped in after the operator's check: at
        1 + 1e-2 the chord steps still land on the true optimum and the
        ratios miss 1 by the error of D; at 0.4 the steps do not contract,
        and the row says the re-solve failed."""
        problem = build_diffusion_control_1d(n_state=64, n_param=16, gamma=0.01)
        plan = SamplingPlan(Distribution("uniform", -1.0, 1.0), 16)
        opt = solve_optimization(problem, plan.sample(0))
        sens = SensitivityOperator(
            problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
        )
        phi = dense_oracle(sens, problem.spaces).theta[:, 0]
        assert _perturbation_sweep(problem, opt, sens, phi)[1]
        c, lower = opt.hessian_factor
        sens.kkt._factor = (np.sqrt(scale) * c, lower)
        name, ok, text = _perturbation_sweep(problem, opt, sens, phi)
        assert name == "perturbation sweep" and not ok
        assert text.startswith(detail)

    def test_sweep_gates_on_the_extrapolated_ratio(self, tmp_path):
        """The optimum curves in theta along theta_1: the ratio at 1e-4 still
        misses 1 by more than 1e-3, and its first-order limit from the last
        two deltas is within it."""
        problem = {
            "name": "diffusion_control_1d",
            "params": {"n_state": 64, "n_param": 16, "gamma": 0.01,
                       "amplitude": [10 ** (-k / 2) for k in range(16)]},
        }
        ok, detail = self.rows(tmp_path, problem, {"k_pairs": 16, "seed": 1})[
            "perturbation sweep"
        ]
        ratios, limit = detail.removeprefix("ratios ").split("; limit ")
        assert ok and abs(float(ratios.split(", ")[-1]) - 1.0) > 1e-3, detail
        assert abs(float(limit) - 1.0) <= 1e-3, detail

    @pytest.mark.parametrize(
        "problem, seed, steps",
        [
            ({"name": "advdiff_inversion_1d"}, 1, [6, 4, 4]),
            ({"name": "diffusion_control_1d",
              "params": {"n_state": 600, "n_param": 16, "gamma": 0.01,
                         "amplitude": [0.2] * 4 + [0.005] * 12}}, 1, [6, 4, 4]),
            ({"name": "diffusion_control_1d",
              "params": {"n_state": 64, "n_param": 16, "gamma": 0.01}}, 0, [5, 4, 3]),
        ],
        ids=["advdiff-transient", "diffusion-dense", "diffusion-many"],
    )
    def test_sweep_passes(self, tmp_path, monkeypatch, problem, seed, steps):
        """On the benchmark's verify configs the sweep forms D phi in one
        pass of one column and re-solves its three moved optima in one block
        of max(steps) passes, where one optimum at a time took sum(steps)."""
        cfg = parse_config({"problem": problem, "hdsa": {"seed": seed},
                            "output_dir": str(tmp_path / "out")})
        problem = cfg.build_problem()
        opt = solve_optimization(problem, cfg.build_plan(problem).sample(0))
        sens = SensitivityOperator(
            problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
        )
        phi = dense_oracle(sens, problem.spaces).theta[:, 0]
        widths = []
        solve_z = sens.kkt.solve_z

        def counted(rhs):
            widths.append(rhs.size // sens.kkt.dim)
            return solve_z(rhs)

        monkeypatch.setattr(sens.kkt, "solve_z", counted)
        assert _perturbation_sweep(problem, opt, sens, phi)[1]
        assert widths[0] == 1 and len(widths[1:]) == max(steps)
        assert sum(widths) == 1 + sum(steps)

    def test_non_contracting_resolve_is_a_failed_row(self, tmp_path, capsys, monkeypatch):
        """Through the command: steps that do not contract fail the sweep's
        row, with exit 1 and no traceback."""
        stationary_point = KktOperator.stationary_point

        def non_contracting(self, theta):
            c, lower = self._factor
            self._factor = (np.sqrt(0.4) * c, lower)
            return stationary_point(self, theta)

        monkeypatch.setattr(KktOperator, "stationary_point", non_contracting)
        path = write_config(tmp_path, logistic_config(tmp_path / "out"))
        assert main(["verify", str(path)]) == EXIT_COMPUTE
        rows = capsys.readouterr().out.splitlines()
        failed = [row for row in rows if row.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].split("  ")[1] == "perturbation sweep"
        assert "re-solve failed: chord re-solve did not converge" in failed[0]

    @staticmethod
    def rows(tmp_path, problem, hdsa=None):
        cfg = parse_config({
            "problem": problem, "hdsa": hdsa or {}, "output_dir": str(tmp_path / "out")
        })
        return {name: (ok, detail) for name, ok, detail in _verify_checks(cfg)}

    @pytest.mark.parametrize(
        "problem",
        [
            {"name": "diffusion_control_1d",
             "params": {"n_state": 64, "n_param": 16, "amplitude": [0.0] + [0.2] * 15}},
            {"name": "advdiff_inversion_1d", "params": {"diff_amplitude": 0.0}},
        ],
        ids=["diffusion", "advdiff"],
    )
    def test_sweep_moves_along_a_direction_that_moves_the_optimum(
        self, tmp_path, problem
    ):
        """theta_0 moves no optimum here: along e_0, D phi = 0 and the row
        could only check that nothing moves. The sweep follows theta_1."""
        ok, detail = self.rows(tmp_path, problem)["perturbation sweep"]
        assert ok and detail.startswith("ratios "), detail

    def test_alternative_row_gates_against_the_gram_floor(self, tmp_path):
        """16 pairs down to sigma_16 / sigma_1 = 10^-7.5: the smallest Gram
        eigenvalues miss 1e-6 relative by rounding alone, inside the floor."""
        problem = {
            "name": "diffusion_control_1d",
            "params": {"n_state": 64, "n_param": 16, "gamma": 0.01,
                       "amplitude": [10 ** (-k / 2) for k in range(16)]},
        }
        rows = self.rows(tmp_path, problem, {"k_pairs": 16, "seed": 0})
        ok, detail = rows["alternative formulation"]
        assert ok and "(gate 1e-6 alpha_k + n_theta eps alpha_1 = " in detail, detail
        assert float(detail.split("error ")[1].split()[0]) > 1e-6

    def test_alternative_row_rejects_a_scaled_operator(self, tmp_path, monkeypatch):
        """D off by 1e-5 moves every eigenvalue by 1e-5 relative, far above
        the floor on the leading pairs."""
        apply = SensitivityOperator.apply
        monkeypatch.setattr(
            SensitivityOperator, "apply", lambda self, phi: (1 + 1e-5) * apply(self, phi)
        )
        problem = {"name": "diffusion_control_1d",
                   "params": {"n_state": 64, "n_param": 16, "gamma": 0.01}}
        for k_pairs in (4, 12):  # r < n_theta, and the complete sketch
            rows = self.rows(tmp_path, problem, {"k_pairs": k_pairs})
            assert not rows["alternative formulation"][0], k_pairs

    def test_gamma_zero_linearity_row_passes(self, tmp_path):
        # with gamma = 0 the optimum is affine in theta and the reduced
        # Hessian nearly singular: every row passes, and the perturbation
        # ratios sit at 1 for every delta. Criterion 4 of the acceptance
        # suite pins the invariance of sigma across theta samples
        cfg = parse_config({
            "problem": {
                "name": "diffusion_control_1d",
                "params": {"n_state": 64, "n_param": 16, "gamma": 0.0},
            },
            "hdsa": {"seed": 0},
            "output_dir": str(tmp_path / "out"),
        })
        rows = {name: (ok, detail) for name, ok, detail in _verify_checks(cfg)}
        failed = {name: detail for name, (ok, detail) in rows.items() if not ok}
        assert not failed, failed

    @pytest.mark.parametrize("config", ["readme", "logistic", "zero"])
    def test_rows_and_their_order(self, tmp_path, capsys, config):
        """The README quick start, the logistic toy and diffusion where D = 0
        print the suite's five rows, in this order, and pass each."""
        if config == "readme":
            readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
            cfg = json.loads(re.findall(r"```json\n(.*?)```", readme, re.S)[0])
            cfg["output_dir"] = str(tmp_path / "out")
        elif config == "logistic":
            cfg = logistic_config(tmp_path / "out")
        else:
            cfg = {"problem": ZERO_PROBLEM, "output_dir": str(tmp_path / "out")}
        assert main(["verify", str(write_config(tmp_path, cfg))]) == EXIT_OK
        rows = [re.match(r"(PASS|FAIL)  (.+?)  ", row).groups()
                for row in capsys.readouterr().out.splitlines()]
        assert rows == [
            ("PASS", "derivative check"),
            ("PASS", "oracle cross-validation"),
            ("PASS", "alternative formulation"),
            ("PASS", "adjoint consistency"),
            ("PASS", "perturbation sweep"),
        ]

    def test_zero_operator_agrees_with_its_oracle(self, tmp_path):
        """At amplitude 0, D = 0: the randomized SVD and the squared
        formulation return nothing, and every oracle sigma is 0, so both
        spectrum rows agree with no value to compare. The chord re-solve
        stops at z0, within the rounding floor, as D phi = 0 predicts."""
        rows = self.rows(tmp_path, ZERO_PROBLEM)
        for name in ("oracle cross-validation", "alternative formulation"):
            assert rows[name] == (True, "no triple on either side: D = 0")
        ok, detail = rows["perturbation sweep"]
        assert ok and detail.startswith("D phi = 0; largest moved distance "), detail
        moved, floor = re.findall(r"\d\.\d{3}e[-+]\d+", detail)
        assert float(moved) <= float(floor) < 1e-12, detail

    def test_nonzero_d_phi_where_nothing_moves_fails_the_sweep(
        self, tmp_path, capsys, monkeypatch
    ):
        """At D = 0 an operator that maps theta to a nonzero z predicts a
        move that the re-solve does not make: the ratios read 0."""
        apply = SensitivityOperator.apply
        monkeypatch.setattr(
            SensitivityOperator, "apply", lambda self, phi: apply(self, phi) + 1e-3
        )
        path = write_config(tmp_path, {"problem": ZERO_PROBLEM,
                                       "output_dir": str(tmp_path / "out")})
        assert main(["verify", str(path)]) == EXIT_COMPUTE
        (sweep,) = [row for row in capsys.readouterr().out.splitlines()
                    if "perturbation sweep" in row]
        assert sweep.startswith("FAIL") and "ratios 0.000000" in sweep, sweep

    def test_zero_d_phi_where_the_optimum_moves_fails_the_sweep(self):
        """An operator that maps theta_1 to 0 where the optimum moves fails
        the sweep, naming D phi = 0 and how far the optimum moved."""
        problem = LogisticToyProblem()
        opt = solve_optimization(problem, np.array([0.5, 0.5]))
        sens = SensitivityOperator(
            problem, opt.as_eval_point(), opt.state_sensitivity, opt.hessian_factor
        )
        phi = dense_oracle(sens, problem.spaces).theta[:, 0]
        sens.apply = lambda v: np.zeros(sens.n_z)
        name, ok, detail = _perturbation_sweep(problem, opt, sens, phi)
        assert name == "perturbation sweep" and not ok
        assert detail.startswith("D phi = 0; largest moved distance "), detail

    def test_empty_spectrum_fails_where_d_is_not_zero(self, tmp_path, monkeypatch):
        """A solver that returns nothing fails its row where the oracle's
        sigma are not all 0."""
        def nothing(d, *args, **kwargs):
            return Triples(np.zeros(0), np.zeros((d.n_theta, 0)), np.zeros((d.n_z, 0))), None

        monkeypatch.setattr("hdsa.cli.randomized_geneig", nothing)
        monkeypatch.setattr("hdsa.cli.alternative_formulation", nothing)
        rows = self.rows(tmp_path, {"name": "logistic_toy"})
        assert rows["oracle cross-validation"] == (False, "no singular triples")
        assert rows["alternative formulation"] == (False, "no eigenpairs")

    def test_usage_errors(self, tmp_path):
        assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_usage_error_after_a_good_call(self, tmp_path):
        """The parser is built once per process; a good call leaves nothing
        in it that lets a later usage error through."""
        path = write_config(tmp_path, logistic_config(tmp_path / "out"))
        assert main(["verify", str(path)]) == EXIT_OK
        assert main(["verify"]) == EXIT_USAGE
        assert main(["verify", str(path), "--force"]) == EXIT_USAGE
        assert build_parser() is build_parser()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_programming_error_propagates(tmp_path, monkeypatch, command):
    # a TypeError in a problem method is a bug, not a failed computation
    def broken(self, p, v):
        raise TypeError("broken l_uu")

    monkeypatch.setattr(LogisticToyProblem, "l_uu", broken)
    path = write_config(tmp_path, logistic_config(tmp_path / "out"))
    with pytest.raises(TypeError, match="broken l_uu"):
        main([command, str(path)])
