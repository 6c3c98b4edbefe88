"""JSON run-configuration parsing, validation, and object construction.

The schema is strict: unknown keys are rejected and ranges are checked before
any compute starts. The environment variable HDSA_SEED, when set, overrides
the configured master seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .optimizer import OptimizerConfig
from .problems.advdiff import build_advdiff_inversion_1d
from .problems.base import ProblemDefinition
from .problems.diffusion import build_diffusion_control_1d
from .problems.logistic import build_logistic_toy
from .randeig import RandEigConfig
from .sampling import Distribution, SamplingPlan


class ConfigError(Exception):
    """Invalid run configuration (maps to usage exit code)."""


PROBLEM_BUILDERS = {
    "logistic_toy": build_logistic_toy,
    "diffusion_control_1d": build_diffusion_control_1d,
    "advdiff_inversion_1d": build_advdiff_inversion_1d,
}

_PROBLEM_PARAM_KEYS = {
    "logistic_toy": {"corrupt_derivative"},
    "diffusion_control_1d": {
        "n_state", "n_param", "gamma", "kappa0", "amplitude", "target",
    },
    "advdiff_inversion_1d": {
        "n_space", "n_steps", "t_final", "eps0", "vel0", "diff_amplitude",
        "vel_amplitude", "window", "n_window", "window_amplitude", "alpha",
        "sensors", "obs_every", "noise_level", "data_seed", "data_refine",
        "true_source",
    },
}


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _get(section: dict, key: str, kind, default, where: str):
    if key not in section:
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be {kind.__name__}, got bool")
    if not isinstance(value, kind):
        raise ConfigError(
            f"{where}.{key} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


@dataclass
class RunConfig:
    """Validated configuration for one analysis run."""

    problem_name: str
    problem_params: dict
    optimizer: OptimizerConfig
    randeig: RandEigConfig
    distribution: Distribution
    init_mode: str
    output_dir: Path
    perturbation_deltas: list[float] = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    def build_problem(self) -> ProblemDefinition:
        try:
            return PROBLEM_BUILDERS[self.problem_name](**self.problem_params)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"problem construction failed: {exc}") from exc

    def build_plan(self, problem: ProblemDefinition) -> SamplingPlan:
        d = problem.dims
        return SamplingPlan(
            theta_dists=[self.distribution] * d.n_theta,
            init_mode=self.init_mode,
            master_seed=self.randeig.seed,
            n_u=d.n_u,
            n_z=d.n_z,
        )


_TOP_KEYS = {
    "problem", "optimizer", "hdsa", "sampling", "output_dir",
    "perturbation_deltas",
}


def parse_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "config")

    # problem ---------------------------------------------------------------
    prob = raw.get("problem")
    if not isinstance(prob, dict):
        raise ConfigError("config.problem must be an object with a 'name'")
    _require_keys(prob, {"name", "params"}, "problem")
    name = prob.get("name")
    if name not in PROBLEM_BUILDERS:
        raise ConfigError(
            f"unknown problem {name!r}; choose from {sorted(PROBLEM_BUILDERS)}"
        )
    params = prob.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("problem.params must be an object")
    _require_keys(params, _PROBLEM_PARAM_KEYS[name], f"problem.params ({name})")

    # optimizer ---------------------------------------------------------------
    opt_raw = raw.get("optimizer", {})
    if not isinstance(opt_raw, dict):
        raise ConfigError("config.optimizer must be an object")
    opt_allowed = {
        "stationarity_tol", "max_iter", "forward_tol", "forward_max_iter",
        "armijo_c1", "min_step", "check_sosc",
    }
    _require_keys(opt_raw, opt_allowed, "optimizer")
    opt = OptimizerConfig(
        stationarity_tol=_get(opt_raw, "stationarity_tol", float, 1e-9, "optimizer"),
        max_iter=_get(opt_raw, "max_iter", int, 100, "optimizer"),
        forward_tol=_get(opt_raw, "forward_tol", float, 1e-12, "optimizer"),
        forward_max_iter=_get(opt_raw, "forward_max_iter", int, 50, "optimizer"),
        armijo_c1=_get(opt_raw, "armijo_c1", float, 1e-4, "optimizer"),
        min_step=_get(opt_raw, "min_step", float, 1e-14, "optimizer"),
        check_sosc=_get(opt_raw, "check_sosc", bool, True, "optimizer"),
    )
    if opt.stationarity_tol <= 0 or opt.max_iter < 1:
        raise ConfigError("optimizer tolerances/iterations out of range")

    # hdsa --------------------------------------------------------------------
    hd = raw.get("hdsa", {})
    if not isinstance(hd, dict):
        raise ConfigError("config.hdsa must be an object")
    hd_allowed = {
        "n_samples", "k_pairs", "oversampling", "seed",
        "power_iterations", "set_index_mode",
    }
    _require_keys(hd, hd_allowed, "hdsa")
    seed = _get(hd, "seed", int, 0, "hdsa")
    env_seed = os.environ.get("HDSA_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"HDSA_SEED must be an integer, got {env_seed!r}") from exc
    n_samples = _get(hd, "n_samples", int, 1, "hdsa")
    k_pairs = _get(hd, "k_pairs", int, 4, "hdsa")
    oversampling = _get(hd, "oversampling", int, 8, "hdsa")
    power_iterations = _get(hd, "power_iterations", int, 2, "hdsa")
    set_index_mode = _get(hd, "set_index_mode", str, "truncated", "hdsa")
    if n_samples < 1 or k_pairs < 1 or oversampling < 0 or power_iterations < 0:
        raise ConfigError("hdsa counts out of range (need N>=1, K>=1, L>=0)")
    if set_index_mode not in ("truncated", "direct"):
        raise ConfigError("hdsa.set_index_mode must be 'truncated' or 'direct'")
    randeig = RandEigConfig(
        k_pairs=k_pairs,
        oversampling=oversampling,
        seed=seed,
        n_samples=n_samples,
        power_iterations=power_iterations,
        set_index_mode=set_index_mode,
    )

    # sampling ---------------------------------------------------------------
    sm = raw.get("sampling", {})
    if not isinstance(sm, dict):
        raise ConfigError("config.sampling must be an object")
    _require_keys(sm, {"distribution", "init_mode"}, "sampling")
    dist_raw = sm.get("distribution", {"kind": "uniform", "a": -1.0, "b": 1.0})
    if not isinstance(dist_raw, dict):
        raise ConfigError("sampling.distribution must be an object")
    _require_keys(dist_raw, {"kind", "a", "b"}, "sampling.distribution")
    try:
        dist = Distribution(
            kind=_get(dist_raw, "kind", str, "uniform", "sampling.distribution"),
            a=_get(dist_raw, "a", float, -1.0, "sampling.distribution"),
            b=_get(dist_raw, "b", float, 1.0, "sampling.distribution"),
        )
    except Exception as exc:
        raise ConfigError(f"invalid sampling distribution: {exc}") from exc
    init_mode = _get(sm, "init_mode", str, "zero", "sampling")
    if init_mode not in ("zero", "seeded-random"):
        raise ConfigError("sampling.init_mode must be 'zero' or 'seeded-random'")

    # output / modes -----------------------------------------------------------
    out_raw = raw.get("output_dir")
    if not isinstance(out_raw, str) or not out_raw:
        raise ConfigError("config.output_dir must be a non-empty string")
    out_dir = Path(out_raw)
    if base_dir is not None and not out_dir.is_absolute():
        out_dir = base_dir / out_dir

    deltas_raw = raw.get("perturbation_deltas", [])
    if not isinstance(deltas_raw, list) or not all(
        isinstance(d, (int, float)) and not isinstance(d, bool) for d in deltas_raw
    ):
        raise ConfigError("config.perturbation_deltas must be a list of numbers")
    deltas = [float(d) for d in deltas_raw]
    if any(d < 0 for d in deltas):
        raise ConfigError("perturbation deltas must be nonnegative")

    return RunConfig(
        problem_name=name,
        problem_params=dict(params),
        optimizer=opt,
        randeig=randeig,
        distribution=dist,
        init_mode=init_mode,
        output_dir=out_dir,
        perturbation_deltas=deltas,
        raw=raw,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} line {exc.lineno}: {exc.msg}") from exc
    return parse_config(raw, base_dir=path.resolve().parent)
