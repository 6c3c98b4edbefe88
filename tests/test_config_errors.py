"""Config errors: each names its key, out-of-range settings stop `hdsa run`
before any compute, and the README's configs parse."""

import json
import re
from pathlib import Path

import pytest
from test_config import CASES, GRID, RANGE, VALUES, _config

from hdsa.cli import EXIT_OK, EXIT_USAGE, main
from hdsa.config import ConfigError, parse_config
from hdsa.optimizer import OptimizerConfig
from hdsa.problems.logistic import LogisticToyProblem

ERROR_CASES = [c for c in CASES if isinstance(c[2], tuple)]


@pytest.mark.parametrize(
    "patch, key", [(c[1], c[2][1]) for c in ERROR_CASES], ids=[c[0] for c in ERROR_CASES]
)
def test_error_names_the_key(patch, key, monkeypatch):
    monkeypatch.delenv("HDSA_SEED", raising=False)
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
    assert sorted((s, k) for s, k, _ in RANGE_CASES) == sorted(
        [("optimizer", "forward_tol")] * 2
        + [("optimizer", "forward_max_iter")] * 2
        + [("optimizer", "armijo_c1")] * 4
        + [("optimizer", "min_step")] * 2
        + [("hdsa", "seed")]
    )


@pytest.mark.parametrize(
    "section, key, value",
    RANGE_CASES,
    ids=[f"{s}.{k}={v!r}" for s, k, v in RANGE_CASES],
)
def test_out_of_range_setting_is_usage_error(tmp_path, monkeypatch, capsys, section, key, value):
    monkeypatch.delenv("HDSA_SEED", raising=False)
    assert _run(tmp_path, {section: {key: value}}) == EXIT_USAGE
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_negative_seed_from_environment_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HDSA_SEED", "-1")
    assert _run(tmp_path, {}) == EXIT_USAGE
    assert "seed" in capsys.readouterr().err
    monkeypatch.setenv("HDSA_SEED", "3")
    assert _run(tmp_path, {}) == EXIT_OK


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
]


@pytest.mark.parametrize(
    "patch, key", CONSTRUCTOR_CASES, ids=[f"{key}={i}" for i, (_, key) in enumerate(CONSTRUCTOR_CASES)]
)
def test_constructor_error_is_usage_error(tmp_path, monkeypatch, capsys, patch, key):
    monkeypatch.delenv("HDSA_SEED", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(patch)))
    assert main(["run", str(path)]) == EXIT_USAGE
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert main(["verify", str(path)]) == EXIT_USAGE


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
def test_readme_config_parses(block, monkeypatch):
    monkeypatch.delenv("HDSA_SEED", raising=False)
    parse_config(json.loads(block))


def test_readme_has_configs():
    assert README_CONFIGS
