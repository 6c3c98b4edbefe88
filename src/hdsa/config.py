"""JSON run-configuration parsing, validation, and object construction.

The schema is strict: unknown keys are rejected and ranges are checked before
any compute starts. The `optimizer`, `hdsa` and `sampling.distribution`
sections take their keys, value types and defaults from the fields of
`OptimizerConfig`, `RandEigConfig` and `Distribution`, and their range checks
from those classes; `problem.params` takes its keys and scalar types from the
problem class's constructor, which checks the rest.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .linalg import LinalgError
from .optimizer import OptimizerConfig
from .problems.advdiff import AdvDiffInversionProblem
from .problems.base import ProblemDefinition, ProblemError
from .problems.diffusion import DiffusionControlProblem
from .problems.logistic import LogisticToyProblem
from .randeig import RandEigConfig
from .sampling import Distribution, SamplingError, SamplingPlan


class ConfigError(Exception):
    """Invalid run configuration (maps to usage exit code)."""


PROBLEMS = {
    cls.name: cls
    for cls in (LogisticToyProblem, DiffusionControlProblem, AdvDiffInversionProblem)
}

# what the dataclasses' own range checks raise
_RANGE_ERRORS = (LinalgError, SamplingError)


def _require_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _section(raw: dict, key: str, where: str = "config") -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}.{key} must be an object")
    return value


def _typed(value, kind: type, where: str):
    """``value`` as ``kind``: ints widen to float, bools are not numbers."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{where} is an integer too large for a float") from None
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{where} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _build(cls, section: dict, where: str):
    """``cls`` from ``section``: the keys are the dataclass fields, each value
    must have the type of the field's default, and omitted keys take it."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    _require_keys(section, kinds, where)
    kwargs = {k: _typed(v, kinds[k], f"{where}.{k}") for k, v in section.items()}
    try:
        return cls(**kwargs)
    except _RANGE_ERRORS as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class RunConfig:
    """Validated configuration for one analysis run."""

    problem_name: str
    problem_params: dict
    optimizer: OptimizerConfig
    randeig: RandEigConfig
    distribution: Distribution
    output_dir: Path
    raw: dict = field(default_factory=dict)

    def build_problem(self) -> ProblemDefinition:
        try:
            return PROBLEMS[self.problem_name](**self.problem_params)
        except ProblemError as exc:
            raise ConfigError(f"problem construction failed: {exc}") from exc

    def build_plan(self, problem: ProblemDefinition) -> SamplingPlan:
        return SamplingPlan(self.distribution, problem.dims.n_theta, self.randeig.seed)


_TOP_KEYS = {"problem", "optimizer", "hdsa", "sampling", "output_dir"}


def parse_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "config")

    prob = _section(raw, "problem")
    _require_keys(prob, {"name", "params"}, "problem")
    name = prob.get("name")
    if name not in PROBLEMS:
        raise ConfigError(f"problem.name must be one of {sorted(PROBLEMS)}, got {name!r}")
    params = _section(prob, "params", "problem")
    # a param whose annotation names just the type of its default (int, float,
    # bool) takes that type; the constructor checks the others
    sig = inspect.signature(PROBLEMS[name]).parameters.values()
    kinds = {
        p.name: type(p.default) if p.annotation == type(p.default).__name__ else None
        for p in sig
    }
    _require_keys(params, kinds, f"problem.params ({name})")
    params = {k: v if kinds[k] is None else _typed(v, kinds[k], f"problem.params.{k}")
              for k, v in params.items()}

    opt = _build(OptimizerConfig, _section(raw, "optimizer"), "optimizer")
    # the library takes these to force a failure on purpose; a run never wants one
    if not opt.stationarity_tol > 0:
        raise ConfigError("optimizer.stationarity_tol must be positive")
    if opt.max_iter < 1:
        raise ConfigError("optimizer.max_iter must be at least 1")

    randeig = _build(RandEigConfig, _section(raw, "hdsa"), "hdsa")

    sm = _section(raw, "sampling")
    _require_keys(sm, {"distribution"}, "sampling")
    dist = _build(
        Distribution, _section(sm, "distribution", "sampling"), "sampling.distribution"
    )

    out_raw = raw.get("output_dir")
    # a NUL cannot occur in a file name
    if not isinstance(out_raw, str) or not out_raw or "\0" in out_raw:
        raise ConfigError("config.output_dir must be a non-empty string without NUL")
    out_dir = Path(out_raw)
    if base_dir is not None and not out_dir.is_absolute():
        out_dir = base_dir / out_dir

    return RunConfig(
        problem_name=name,
        problem_params=params,
        optimizer=opt,
        randeig=randeig,
        distribution=dist,
        output_dir=out_dir,
        raw=raw,
    )


def read_json(path: Path, error: type[Exception], what: str):
    """The strict RFC 8259 document in ``path``, UTF-8 and with finite numbers
    only; ``error`` where the file cannot be read or decoded, nests deeper
    than the parser can follow, holds an integer longer than Python converts,
    or is not such a document."""

    # plain json.loads reads NaN and +-Infinity, and 1e400 as inf; NaN would
    # then pass every range check, as every comparison with it is false
    def refuse(token: str):
        raise error(f"{what} {path}: non-finite number {token} is not allowed")

    def finite(token: str) -> float:
        value = float(token)
        return value if math.isfinite(value) else refuse(token)

    try:
        return json.loads(
            path.read_text(encoding="utf-8"), parse_constant=refuse, parse_float=finite
        )
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{what} {path} nests too deeply to parse") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # sys.get_int_max_str_digits() caps an integer literal
        raise error(f"{what} {path}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    raw = read_json(path, ConfigError, "config")
    return parse_config(raw, base_dir=path.resolve().parent)
