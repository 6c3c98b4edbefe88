"""Pinned run-config contract.

Each case patches a minimal config and states the outcome of `parse_config`:
the parsed objects, or `ConfigError`. The table pins the accepted keys, the
value types (ints widen to float, bools are not numbers), the defaults, the
range checks, whichever module owns them, and the refusal of removed keys.
"""

import pytest

from hdsa.config import ConfigError, parse_config

E = ConfigError
# out-of-range optimizer settings and seeds the parser once let through;
# test_config_errors.py pins their rejection
RANGE = object()
DELETE = object()

VALUES = (0, -1, 1, 2.5, True, "x", None, [1])

DEFAULTS = {
    "problem": ("logistic_toy", {}),
    "optimizer": {
        "stationarity_tol": 1e-9,
        "max_iter": 100,
        "forward_tol": 1e-12,
        "check_sosc": True,
    },
    "hdsa": {
        "n_samples": 1,
        "k_pairs": 4,
        "oversampling": 8,
        "seed": 0,
        "power_iterations": 2,
        "set_index_mode": "truncated",
    },
    "distribution": {"kind": "uniform", "a": -1.0, "b": 1.0},
}

# outcome of each of VALUES for every optimizer and hdsa key
GRID = {
    "optimizer": {
        "stationarity_tol": (E, E, 1.0, 2.5, E, E, E, E),
        "max_iter": (E, E, 1, E, E, E, E, E),
        "forward_tol": (RANGE, RANGE, 1.0, 2.5, E, E, E, E),
        "check_sosc": (E, E, E, E, True, E, E, E),
    },
    "hdsa": {
        "n_samples": (E, E, 1, E, E, E, E, E),
        "k_pairs": (E, E, 1, E, E, E, E, E),
        "oversampling": (0, E, 1, E, E, E, E, E),
        "seed": (0, RANGE, 1, E, E, E, E, E),
        "power_iterations": (0, E, 1, E, E, E, E, E),
        "set_index_mode": (E, E, E, E, E, E, E, E),
    },
}

# optimizer keys that are now constants of the optimizer: every value of
# VALUES is an unknown key
REMOVED = ("forward_max_iter", "armijo_c1", "min_step")


def dist(**kw):
    return {"sampling": {"distribution": kw}}


def diffusion(**params):
    return {"problem": {"name": "diffusion_control_1d", "params": params}}


# (id, patch, expected outcome or (ConfigError, key the message must name))
OTHER = [
    ("defaults", {}, {}),
    ("hdsa.set_index_mode=direct", {"hdsa": {"set_index_mode": "direct"}},
     {"hdsa": {"set_index_mode": "direct"}}),
    ("hdsa.set_index_mode=truncated", {"hdsa": {"set_index_mode": "truncated"}}, {}),
    ("optimizer.check_sosc=False", {"optimizer": {"check_sosc": False}},
     {"optimizer": {"check_sosc": False}}),
    ("optimizer.armijo_c1=0.5", {"optimizer": {"armijo_c1": 0.5}}, (E, "armijo_c1")),
    # distribution
    ("dist=empty", dist(), {}),
    ("dist.kind=normal", dist(kind="normal"), {"distribution": {"kind": "normal"}}),
    ("dist.kind=x", dist(kind="x"), (E, "kind")),
    ("dist.kind=1", dist(kind=1), (E, "kind")),
    ("dist.kind=None", dist(kind=None), (E, "kind")),
    ("dist.a=0.5", dist(a=0.5), {"distribution": {"a": 0.5}}),
    ("dist.a=0", dist(a=0), {"distribution": {"a": 0.0}}),
    ("dist.a=2", dist(a=2), (E, "a")),
    ("dist.a=x", dist(a="x"), (E, "a")),
    ("dist.a=True", dist(a=True), (E, "a")),
    ("dist.b=-2", dist(b=-2), (E, "b")),
    ("dist.b=0.5", dist(b=0.5), {"distribution": {"b": 0.5}}),
    ("dist.b=[1]", dist(b=[1]), (E, "b")),
    ("dist.uniform-point", dist(kind="uniform", a=0.3, b=0.3),
     {"distribution": {"a": 0.3, "b": 0.3}}),
    ("dist.uniform-0-2", dist(kind="uniform", a=0, b=2),
     {"distribution": {"a": 0.0, "b": 2.0}}),
    ("dist.normal-sigma-0", dist(kind="normal", a=3, b=0),
     {"distribution": {"kind": "normal", "a": 3.0, "b": 0.0}}),
    ("dist.normal-sigma-neg", dist(kind="normal", b=-1), (E, "b")),
    ("dist.unknown-key", dist(mu=0.0), (E, "mu")),
    # sampling.init_mode is removed: every iterate starts at zero
    ("init_mode=zero", {"sampling": {"init_mode": "zero"}}, (E, "init_mode")),
    ("init_mode=seeded-random", {"sampling": {"init_mode": "seeded-random"}},
     (E, "init_mode")),
    ("init_mode=x", {"sampling": {"init_mode": "x"}}, (E, "init_mode")),
    ("init_mode=1", {"sampling": {"init_mode": 1}}, (E, "init_mode")),
    ("init_mode=None", {"sampling": {"init_mode": None}}, (E, "init_mode")),
    ("init_mode=True", {"sampling": {"init_mode": True}}, (E, "init_mode")),
    ("sampling.unknown-key", {"sampling": {"seed": 1}}, (E, "seed")),
    # perturbation_deltas is removed: verify sweeps fixed deltas
    ("deltas=[]", {"perturbation_deltas": []}, (E, "perturbation_deltas")),
    ("deltas=[1,0.5]", {"perturbation_deltas": [1, 0.5]}, (E, "perturbation_deltas")),
    ("deltas=[0]", {"perturbation_deltas": [0]}, (E, "perturbation_deltas")),
    ("deltas=[-1]", {"perturbation_deltas": [-1]}, (E, "perturbation_deltas")),
    ("deltas=[True]", {"perturbation_deltas": [True]}, (E, "perturbation_deltas")),
    ("deltas=[x]", {"perturbation_deltas": ["x"]}, (E, "perturbation_deltas")),
    ("deltas=1", {"perturbation_deltas": 1}, (E, "perturbation_deltas")),
    ("deltas=x", {"perturbation_deltas": "x"}, (E, "perturbation_deltas")),
    ("deltas=None", {"perturbation_deltas": None}, (E, "perturbation_deltas")),
    # sections that are not objects
    ("optimizer=[]", {"optimizer": []}, (E, "optimizer")),
    ("optimizer=None", {"optimizer": None}, (E, "optimizer")),
    ("hdsa=1", {"hdsa": 1}, (E, "hdsa")),
    ("hdsa=x", {"hdsa": "x"}, (E, "hdsa")),
    ("sampling=[]", {"sampling": []}, (E, "sampling")),
    ("distribution=[]", {"sampling": {"distribution": []}}, (E, "distribution")),
    ("distribution=uniform", {"sampling": {"distribution": "uniform"}},
     (E, "distribution")),
    ("problem=None", {"problem": None}, (E, "problem")),
    ("problem=[]", {"problem": []}, (E, "problem")),
    ("params=[]", {"problem": {"params": []}}, (E, "params")),
    ("params=None", {"problem": {"params": None}}, (E, "params")),
    # unknown keys
    ("top.unknown-key", {"surprise": 1}, (E, "surprise")),
    ("optimizer.unknown-key", {"optimizer": {"cg_tol": 1e-12}}, (E, "cg_tol")),
    ("hdsa.unknown-key", {"hdsa": {"n_probes": 4}}, (E, "n_probes")),
    ("problem.unknown-key", {"problem": {"kind": "x"}}, (E, "kind")),
    ("logistic.n_state", {"problem": {"params": {"n_state": 10}}}, (E, "n_state")),
    ("diffusion.n_space",
     {"problem": {"name": "diffusion_control_1d", "params": {"n_space": 8}}},
     (E, "n_space")),
    ("advdiff.gamma",
     {"problem": {"name": "advdiff_inversion_1d", "params": {"gamma": 0.1}}},
     (E, "gamma")),
    # problems and their parameters
    ("logistic.corrupt_derivative",
     {"problem": {"params": {"corrupt_derivative": True}}},
     {"problem": ("logistic_toy", {"corrupt_derivative": True})}),
    ("diffusion.params",
     {"problem": {"name": "diffusion_control_1d",
                  "params": {"n_state": 8, "n_param": 4, "gamma": 0,
                             "kappa0": 1, "amplitude": [0.1] * 4, "target": {}}}},
     {"problem": ("diffusion_control_1d",
                  {"n_state": 8, "n_param": 4, "gamma": 0, "kappa0": 1,
                   "amplitude": [0.1] * 4, "target": {}})}),
    ("advdiff.window",
     {"problem": {"name": "advdiff_inversion_1d",
                  "params": {"window": [0.1, 0.3], "n_window": 4}}},
     {"problem": ("advdiff_inversion_1d", {"window": [0.1, 0.3], "n_window": 4})}),
    # scalar params take the type of the constructor's default
    ("diffusion.n_state=True", diffusion(n_state=True), (E, "n_state")),
    ("diffusion.n_state=2.5", diffusion(n_state=2.5), (E, "n_state")),
    ("diffusion.n_param=None", diffusion(n_param=None), (E, "n_param")),
    ("diffusion.gamma=0.1-string", diffusion(gamma="0.1"), (E, "gamma")),
    ("diffusion.kappa0=[1]", diffusion(kappa0=[1]), (E, "kappa0")),
    ("diffusion.gamma=1", diffusion(gamma=1),
     {"problem": ("diffusion_control_1d", {"gamma": 1.0})}),
    ("advdiff.n_window=1.0",
     {"problem": {"name": "advdiff_inversion_1d", "params": {"n_window": 1.0}}},
     (E, "n_window")),
    ("advdiff.t_final=x",
     {"problem": {"name": "advdiff_inversion_1d", "params": {"t_final": "x"}}},
     (E, "t_final")),
    ("logistic.corrupt_derivative=1",
     {"problem": {"params": {"corrupt_derivative": 1}}}, (E, "corrupt_derivative")),
    ("problem.name=nope", {"problem": {"name": "nope"}}, (E, "problem")),
    ("problem.name=None", {"problem": {"name": None}}, (E, "problem")),
    ("problem.name-missing", {"problem": {"name": DELETE}}, (E, "problem")),
    ("problem-missing", {"problem": DELETE}, (E, "problem")),
    # output_dir
    ("output_dir-missing", {"output_dir": DELETE}, (E, "output_dir")),
    ("output_dir=empty", {"output_dir": ""}, (E, "output_dir")),
    ("output_dir=1", {"output_dir": 1}, (E, "output_dir")),
]


def _grid_cases():
    for section, keys in GRID.items():
        for key, outcomes in keys.items():
            for value, expected in zip(VALUES, outcomes):
                if expected is RANGE:
                    continue
                if expected is E:
                    expected = (E, key)
                else:
                    expected = {section: {key: expected}}
                yield (f"{section}.{key}={value!r}", {section: {key: value}}, expected)
    for key in REMOVED:
        for value in VALUES:
            yield (f"optimizer.{key}={value!r}", {"optimizer": {key: value}}, (E, key))


CASES = list(_grid_cases()) + OTHER


def _merge(base, patch):
    out = dict(base)
    for key, value in patch.items():
        if value is DELETE:
            out.pop(key, None)
        elif isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _config(patch):
    return _merge({"problem": {"name": "logistic_toy"}, "output_dir": "out"}, patch)


def _typed(d):
    return {k: (type(v).__name__, v) for k, v in d.items()}


def _outcome(cfg):
    return {
        "problem": (cfg.problem_name, cfg.problem_params),
        "optimizer": _typed(vars(cfg.optimizer)),
        "hdsa": _typed(vars(cfg.randeig)),
        "distribution": _typed(vars(cfg.distribution)),
    }


def _expected(overrides):
    want = {**DEFAULTS, **{k: v for k, v in overrides.items() if k == "problem"}}
    for section in ("optimizer", "hdsa", "distribution"):
        want[section] = _typed({**DEFAULTS[section], **overrides.get(section, {})})
    return want


def test_table_covers_every_key_and_value():
    assert len(CASES) >= 135
    assert len({case_id for case_id, _, _ in CASES}) == len(CASES)


@pytest.mark.parametrize(
    "patch, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_config_contract(patch, expected):
    if isinstance(expected, tuple):
        with pytest.raises(ConfigError):
            parse_config(_config(patch))
    else:
        assert _outcome(parse_config(_config(patch))) == _expected(expected)


def test_scalar_params_keep_their_type():
    params = parse_config(_config(diffusion(n_state=8, gamma=1))).problem_params
    assert _typed(params) == {"n_state": ("int", 8), "gamma": ("float", 1.0)}


def test_document_must_be_an_object():
    with pytest.raises(ConfigError, match="object"):
        parse_config([])
