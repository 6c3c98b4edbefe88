"""Config errors: each names its key, out-of-range settings stop `hdsa run`
before any compute, and the README's configs parse."""

import json
import re
from pathlib import Path

import pytest
from test_config import CASES, GRID, RANGE, VALUES, _config

import hdsa.analysis as analysis
import hdsa.problems.diffusion as diffusion
from hdsa.cli import EXIT_USAGE, main
from hdsa.config import ConfigError, parse_config
from hdsa.optimizer import OptimizerConfig
from hdsa.problems.logistic import LogisticToyProblem

ERROR_CASES = [c for c in CASES if isinstance(c[2], tuple)]


@pytest.mark.parametrize(
    "patch, key", [(c[1], c[2][1]) for c in ERROR_CASES], ids=[c[0] for c in ERROR_CASES]
)
def test_error_names_the_key(patch, key):
    with pytest.raises(ConfigError) as info:
        parse_config(_config(patch))
    assert re.search(rf"\b{re.escape(key)}\b", str(info.value)), str(info.value)


# the values each RANGE entry of GRID stands for
RANGE_CASES = [
    (section, key, value)
    for section, keys in GRID.items()
    for key, outcomes in keys.items()
    for value, expected in zip(VALUES, outcomes)
    if expected is RANGE
]
# the removed optimizer settings at the values their range checks refused:
# they still stop `hdsa run` before any compute, now as unknown keys
RETIRED_RANGE_CASES = [
    ("optimizer", "forward_max_iter", -1),
    ("optimizer", "forward_max_iter", 0),
    ("optimizer", "forward_tol", -1),
    ("optimizer", "forward_tol", 0),
    ("optimizer", "armijo_c1", -1),
    ("optimizer", "armijo_c1", 0),
    ("optimizer", "armijo_c1", 1),
    ("optimizer", "armijo_c1", 2.5),
    ("optimizer", "min_step", -1),
    ("optimizer", "min_step", 0),
]


def _run(tmp_path, patch):
    cfg = _config({
        "hdsa": {"k_pairs": 1, "oversampling": 2},
        "sampling": {"distribution": {"a": 0.4, "b": 0.6}},
        **patch,
    })
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main(["run", str(path)])


def test_range_cases_are_the_fixed_settings():
    assert [(s, k) for s, k, _ in RANGE_CASES] == [("hdsa", "seed")]


@pytest.mark.parametrize(
    "section, key, value",
    RANGE_CASES + RETIRED_RANGE_CASES,
    ids=[f"{s}.{k}={v!r}" for s, k, v in RANGE_CASES + RETIRED_RANGE_CASES],
)
def test_out_of_range_setting_is_usage_error(tmp_path, capsys, section, key, value):
    assert _run(tmp_path, {section: {key: value}}) == EXIT_USAGE
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# one config per removed setting, each at the value the run used before
REMOVED_KEYS = [
    ({"sampling": {"init_mode": "zero"}}, "init_mode"),
    ({"optimizer": {"forward_max_iter": 50}}, "forward_max_iter"),
    ({"optimizer": {"forward_tol": 1e-12}}, "forward_tol"),
    ({"optimizer": {"armijo_c1": 1e-4}}, "armijo_c1"),
    ({"optimizer": {"min_step": 1e-14}}, "min_step"),
    ({"perturbation_deltas": [1e-2, 1e-3, 1e-4]}, "perturbation_deltas"),
]


@pytest.mark.parametrize("patch, key", REMOVED_KEYS, ids=[k for _, k in REMOVED_KEYS])
def test_removed_setting_is_usage_error(tmp_path, capsys, patch, key):
    assert _run(tmp_path, patch) == EXIT_USAGE
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    assert main(["verify", str(tmp_path / "config.json")]) == EXIT_USAGE


def test_library_still_takes_forced_failure_settings():
    # the parser alone rejects these; tests force optimizer failures with them
    cfg = OptimizerConfig(max_iter=0, stationarity_tol=0.0)
    assert (cfg.max_iter, cfg.stationarity_tol) == (0, 0.0)


def _problem(name, **params):
    return {"problem": {"name": name, "params": params}}


DIFFUSION, ADVDIFF = "diffusion_control_1d", "advdiff_inversion_1d"

# params the parser passes on and the problem constructor rejects: keys whose
# default fixes no single type, and out-of-range values
CONSTRUCTOR_CASES = [
    (_problem(DIFFUSION, amplitude="x"), "amplitude"),
    (_problem(DIFFUSION, amplitude=None), "amplitude"),
    (_problem(DIFFUSION, amplitude=True), "amplitude"),
    (_problem(DIFFUSION, amplitude={"a": 1}), "amplitude"),
    (_problem(DIFFUSION, amplitude=[[0.1], [0.1, 0.2]]), "amplitude"),
    (_problem(DIFFUSION, n_param=4, amplitude=[0.1, 0.2]), "amplitude"),
    (_problem(DIFFUSION, target="x"), "target"),
    (_problem(DIFFUSION, target=[1.0]), "target"),
    (_problem(DIFFUSION, target={"preset": "nope"}), "target"),
    (_problem(DIFFUSION, target={"preset": "sine", "amplitude": "x"}), "target"),
    (_problem(DIFFUSION, gamma=-1), "gamma"),
    (_problem(DIFFUSION, n_param=1), "n_param"),
    (_problem(ADVDIFF, window="x"), "window"),
    (_problem(ADVDIFF, window=1), "window"),
    (_problem(ADVDIFF, window=None), "window"),
    (_problem(ADVDIFF, window=[0.1]), "window"),
    (_problem(ADVDIFF, window=["a", "b"]), "window"),
    (_problem(ADVDIFF, window=[0.4, 0.2]), "window"),
    (_problem(ADVDIFF, sensors="x"), "sensors"),
    (_problem(ADVDIFF, sensors={}), "sensors"),
    (_problem(ADVDIFF, sensors=[[0.5]]), "sensors"),
    (_problem(ADVDIFF, true_source="x"), "true_source"),
    (_problem(ADVDIFF, n_steps=0), "n_steps"),
    (_problem(ADVDIFF, obs_every=0), "obs_every"),
    (_problem(ADVDIFF, data_seed=-1), "data_seed"),
    (_problem(DIFFUSION, target={"preset": "sine", "amplitud": 2}), "amplitud"),
    (_problem(ADVDIFF, sensors=[]), "sensors"),
    (_problem(ADVDIFF, data_refine=0), "data_refine"),
    (_problem(ADVDIFF, data_refine=-2), "data_refine"),
    (_problem(ADVDIFF, noise_level=-0.1), "noise_level"),
    (_problem(ADVDIFF, alpha=-1e-3), "alpha"),
    (_problem(DIFFUSION, kappa0=0), "kappa0"),
    (_problem(DIFFUSION, kappa0=-1.0), "kappa0"),
    (_problem(DIFFUSION, n_state=1), "n_state"),
    (_problem(DIFFUSION, target={"preset": "sine", "frequency": 1e308}), "target"),
    (_problem(DIFFUSION, target={"preset": "gaussian-bump", "width": 0.0}), "width"),
]


@pytest.mark.parametrize(
    "patch, key", CONSTRUCTOR_CASES, ids=[f"{key}={i}" for i, (_, key) in enumerate(CONSTRUCTOR_CASES)]
)
def test_constructor_error_is_usage_error(tmp_path, capsys, patch, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(patch)))
    assert main(["run", str(path)]) == EXIT_USAGE
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert main(["verify", str(path)]) == EXIT_USAGE


# a number json.loads would read as NaN or +-inf, and an integer too large
# for a float, each under a key whose range check it would pass or break
NON_FINITE_CASES = [
    ('"problem": {"name": "diffusion_control_1d", "params": {"gamma": NaN}}', "NaN"),
    ('"problem": {"name": "advdiff_inversion_1d", "params": {"alpha": NaN}}', "NaN"),
    ('"sampling": {"distribution": {"a": NaN}}', "NaN"),
    ('"optimizer": {"stationarity_tol": Infinity}', "Infinity"),
    ('"optimizer": {"stationarity_tol": -Infinity}', "-Infinity"),
    ('"optimizer": {"stationarity_tol": 1e400}', "1e400"),
    ('"problem": {"name": "diffusion_control_1d", "params": {"gamma": 1' + "0" * 400 + "}}",
     "gamma"),
]


@pytest.mark.parametrize(
    "entry, named", NON_FINITE_CASES, ids=[f"{i}-{n}" for i, (_, n) in enumerate(NON_FINITE_CASES)]
)
@pytest.mark.parametrize("command", ["run", "verify"])
def test_non_finite_number_is_usage_error(tmp_path, capsys, entry, named, command):
    if not entry.startswith('"problem"'):
        entry = '"problem": {"name": "logistic_toy"}, ' + entry
    path = tmp_path / "config.json"
    path.write_text("{" + entry + ', "output_dir": "out"}')
    assert main([command, str(path)]) == EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# config files that cannot be read as a document, or that name an output
# directory no file name can hold, with a word of the error each one gives
MALFORMED_FILES = [
    (b'{"problem": {"name": "logistic_toy"}, "output_dir": "caf\xe9"}', "UTF-8"),
    (b"[" * 100_000 + b"]" * 100_000, "nests"),
    (b'{"problem": {"name": "logistic_toy"}, "output_dir": "a\\u0000b"}', "output_dir"),
    (b'{"problem": {"name": "logistic_toy"}, "hdsa": {"seed": ' + b"1" * 5000 + b"}}", "digits"),
]


@pytest.mark.parametrize(
    "text, named",
    MALFORMED_FILES,
    ids=["not UTF-8", "nested 100k deep", "NUL in output_dir", "5,000-digit seed"],
)
@pytest.mark.parametrize("command", ["run", "verify"])
def test_malformed_config_file_is_usage_error(tmp_path, capsys, text, named, command):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main([command, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and named in err, err
    assert "Traceback" not in err


def test_partition_coupled_by_m_theta_stops_the_run(tmp_path, capsys, monkeypatch):
    """A diffusion problem split into sets at index 3, where its tridiagonal
    M_Theta couples coordinates 2 and 3, is refused when it is built: no
    sample is solved and no bundle is written."""
    real = diffusion.SetPartition
    monkeypatch.setattr(
        diffusion, "SetPartition", lambda sets: real((("a", 0, 3), ("b", 3, sets[0][2])))
    )
    solved = []
    monkeypatch.setattr(analysis, "solve_optimization", lambda *a, **k: solved.append(a))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(_problem(DIFFUSION))))
    assert main(["run", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "problem construction failed" in err and "M_Theta-orthogonal" in err
    assert not solved and not (tmp_path / "out").exists()


def test_constructor_bug_propagates(monkeypatch):
    """Only ProblemError is a usage error; anything else is a bug."""

    def broken(self, corrupt_derivative=False):
        raise RuntimeError("bug")

    monkeypatch.setattr(LogisticToyProblem, "__init__", broken)
    with pytest.raises(RuntimeError, match="bug"):
        parse_config(_config({})).build_problem()


README = Path(__file__).resolve().parents[1] / "README.md"
README_CONFIGS = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)


@pytest.mark.parametrize("block", README_CONFIGS)
def test_readme_config_parses(block):
    parse_config(json.loads(block))


def test_readme_has_configs():
    assert README_CONFIGS
