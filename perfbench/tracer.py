"""Spans around the calls into each `hdsa` layer, recorded from outside.

The `hdsa` modules import functions by name, so each function is replaced
where its caller looks it up (``hdsa.analysis.solve_optimization``, not only
``hdsa.optimizer.solve_optimization``); methods are replaced on their classes.
Every wrapped call records one span: id, parent span, name, sample index,
start, end and an amount (right-hand sides solved, Newton iterations,
refinement sweeps, dropped probes; 1 where nothing else is counted).

Spans are kept in memory while the tracer is installed. The layer of a span
is the first part of its name, which is the `hdsa` module it wraps.
"""

from __future__ import annotations

import csv
import gzip
import itertools
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path


def _rhs_columns(args, result):
    rhs = args[2]
    return 1 if rhs.ndim == 1 else rhs.shape[1]


def _iterations(args, result):
    return result.iterations


def _refine_sweeps(args, result):
    return result[1].iterations


def _dropped(args, result):
    return result[1].n_dropped


_BLOCK_ACTIONS = (
    "c_u", "c_u_adj", "c_z", "c_z_adj", "c_theta", "c_theta_adj",
    "l_uu", "l_uz", "l_zu", "l_zz",
    "l_utheta", "l_ztheta", "l_utheta_adj", "l_ztheta_adj",
)
_EVALUATIONS = ("objective", "residual", "obj_grad_u", "obj_grad_z", "obj_grad_theta")

# Layers whose methods call each other (the diffusion adjoint solve is the
# state solve, c_u_adj is c_u): a call made inside a span of the same layer
# belongs to that span and records none of its own.
_FLAT_LAYERS = {"problems"}


def targets():
    """(owner, attribute, span name, amount) for every wrapped call."""
    import hdsa.analysis as analysis
    import hdsa.cli as cli
    import hdsa.config as config
    import hdsa.indices as indices
    import hdsa.linalg as linalg
    import hdsa.operators as operators
    import hdsa.optimizer as optimizer
    import hdsa.randeig as randeig
    import hdsa.sampling as sampling
    from hdsa.problems import (
        AdvDiffInversionProblem,
        DiffusionControlProblem,
        LogisticToyProblem,
    )

    out = [
        (cli, "load_config", "config.load", None),
        (config.RunConfig, "build_problem", "config.build_problem", None),
        (config.RunConfig, "build_plan", "config.build_plan", None),
        (sampling.SamplingPlan, "sample", "sampling.plan_sample", None),
        (randeig, "probe_vector", "sampling.probe", None),
    ]
    for cls in (AdvDiffInversionProblem, DiffusionControlProblem, LogisticToyProblem):
        out.append((cls, "state_jacobian_solve", "problems.state_solve", _rhs_columns))
        out.append(
            (cls, "state_jacobian_adjoint_solve", "problems.adjoint_solve", _rhs_columns)
        )
        out += [(cls, m, "problems.block_apply", None) for m in _BLOCK_ACTIONS]
        out += [(cls, m, "problems.evaluate", None) for m in _EVALUATIONS]
    out += [
        (analysis, "solve_optimization", "optimizer.solve", _iterations),
        (cli, "solve_optimization", "optimizer.solve", _iterations),
        (optimizer, "solve_forward", "optimizer.forward", None),
        (optimizer, "reduced_hessian_matvec", "optimizer.hessvec", None),
        (optimizer, "reduced_hessian_dense", "optimizer.reduced_hessian", None),
        (operators, "reduced_hessian_dense", "optimizer.reduced_hessian", None),
        (optimizer, "check_sosc", "optimizer.sosc", None),
        (operators.KktOperator, "solve", "operators.kkt_solve", _refine_sweeps),
        (operators.KktOperator, "dense", "operators.kkt_assemble", None),
        (operators.KktOperator, "apply", "operators.kkt_apply", None),
        (analysis, "randomized_geneig", "randeig.geneig", _dropped),
        (cli, "randomized_geneig", "randeig.geneig", _dropped),
        (indices, "randomized_geneig", "randeig.geneig", _dropped),
        (randeig, "apply_pencil_a", "randeig.pencil_apply", None),
        (randeig, "b_orthonormalize", "linalg.b_orth", None),
        (randeig, "dense_sym_eig", "linalg.dense_sym_eig", None),
        (optimizer, "dense_sym_eig", "linalg.dense_sym_eig", None),
        (indices, "dense_sym_eig", "linalg.dense_sym_eig", None),
        (linalg.SpdOperator, "solve", "linalg.spd_solve", None),
        (analysis, "local_indices", "indices.local", None),
        (analysis, "set_indices", "indices.set", None),
        (cli, "global_analysis", "analysis.sweep", None),
        (analysis, "analyze_sample", "analysis.sample", None),
        (cli, "write_bundle", "bundle.write", None),
        (cli, "read_bundle", "bundle.read_render", None),
        (cli, "render_report", "bundle.read_render", None),
        (cli, "check_derivatives", "verify.derivative_check", None),
        (cli, "dense_oracle", "verify.oracle", None),
        (cli, "alternative_formulation", "verify.alt_formulation", None),
        (cli, "perturbation_check", "verify.perturbation", None),
    ]
    return out


class Tracer:
    """Installs span-recording wrappers; use as a context manager.

    ``only`` restricts the wrapped calls to the given span names.
    """

    def __init__(self, only: set[str] | None = None):
        self.only = only
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []
        # the open analysis.sweep span, parent of samples run on pool threads
        self._sweep = -1

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.sample = -1
        return loc

    def _wrap(self, fn, name: str, amount):
        layer = name.split(".", 1)[0]
        flat = layer in _FLAT_LAYERS
        is_sample = name == "analysis.sample"
        is_sweep = name == "analysis.sweep"
        spans, ids, state = self.spans, self._ids, self._state
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            loc = state()
            stack = loc.stack
            if flat and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else self._sweep
            if is_sweep:
                self._sweep = sid
            outer_sample = loc.sample
            # analyze_sample(problem, plan, cfg, j, ...) tags its subtree with j
            sample = args[3] if is_sample else outer_sample
            loc.sample = sample
            stack.append((sid, layer))
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                loc.sample = outer_sample
                if is_sweep:
                    self._sweep = -1
                n = 1 if amount is None or result is None else amount(args, result)
                spans.append((sid, parent, name, sample, t0, t1, n))
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name, amount in targets():
            if self.only is not None and name not in self.only:
                continue
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, amount))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # Aggregation -------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, call count and summed amount."""
        dur, calls, amount = defaultdict(float), defaultdict(int), defaultdict(int)
        for _sid, _parent, name, _sample, t0, t1, n in self.spans:
            dur[name] += t1 - t0
            calls[name] += 1
            amount[name] += n
        return dur, calls, amount

    def self_times(self) -> dict:
        """Per layer: span time minus the part of it that child spans cover.

        Samples on pool threads overlap, so the covered part is the union of
        the children's intervals, not the sum of their durations.
        """
        children = defaultdict(list)
        for _sid, parent, _name, _sample, t0, t1, _n in self.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        out = defaultdict(float)
        for sid, _parent, name, _sample, t0, t1, _n in self.spans:
            covered, end = 0.0, float("-inf")
            for c0, c1 in sorted(children.get(sid, ())):
                if c1 > end:
                    covered += c1 - max(c0, end)
                    end = c1
            out[name.split(".", 1)[0]] += (t1 - t0) - covered
        return out


def write_spans(path: Path, rounds: list[dict[str, Tracer]]) -> None:
    """Write the spans of every traced round as gzip-compressed CSV rows.

    Each round maps an operation ("run", "verify") to its tracer. Times are
    seconds from the operation's first span.
    """
    with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["round", "op", "id", "parent", "name", "sample",
                    "start_s", "end_s", "amount"])
        for r, tracers in enumerate(rounds):
            for op, tracer in tracers.items():
                base = min((s[4] for s in tracer.spans), default=0.0)
                for sid, parent, name, sample, t0, t1, n in sorted(tracer.spans):
                    w.writerow([r, op, sid, parent, name, sample,
                                f"{t0 - base:.7f}", f"{t1 - base:.7f}", n])


# Per-layer metrics: name -> (unit, better).
LAYERS = ("config", "sampling", "problems", "optimizer", "operators", "randeig",
          "linalg", "indices", "analysis", "bundle", "verify")

PER_LAYER = {
    "config.load_s": ("s", "lower"),
    "config.build_problem_s": ("s", "lower"),
    "sampling.probe_calls": ("count", "lower"),
    "sampling.probe_s": ("s", "lower"),
    "problems.state_solve_rhs": ("count", "lower"),
    "problems.adjoint_solve_rhs": ("count", "lower"),
    "problems.state_solve_s": ("s", "lower"),
    "problems.adjoint_solve_s": ("s", "lower"),
    "problems.block_apply_calls": ("count", "lower"),
    "problems.block_apply_s": ("s", "lower"),
    "optimizer.solve_s": ("s", "lower"),
    "optimizer.newton_iters": ("count", "lower"),
    "optimizer.hessvec_calls": ("count", "lower"),
    "optimizer.reduced_hessian_calls": ("count", "lower"),
    "optimizer.reduced_hessian_s": ("s", "lower"),
    "optimizer.sosc_s": ("s", "lower"),
    "operators.kkt_solve_calls": ("count", "lower"),
    "operators.kkt_solve_s": ("s", "lower"),
    "operators.kkt_refine_sweeps": ("count", "lower"),
    "operators.kkt_assemble_s": ("s", "lower"),
    "operators.kkt_apply_calls": ("count", "lower"),
    "randeig.geneig_s": ("s", "lower"),
    "randeig.pencil_apply_calls": ("count", "lower"),
    "randeig.pencil_apply_s": ("s", "lower"),
    "randeig.dropped_probes": ("count", "lower"),
    "linalg.b_orth_s": ("s", "lower"),
    "linalg.dense_sym_eig_s": ("s", "lower"),
    "linalg.spd_solve_calls": ("count", "lower"),
    "indices.local_s": ("s", "lower"),
    "indices.set_s": ("s", "lower"),
    "analysis.sample_s_p50": ("s", "lower"),
    "analysis.sample_s_max": ("s", "lower"),
    "analysis.worker_busy_ratio": ("ratio", "higher"),
    "bundle.write_s": ("s", "lower"),
    "bundle.bytes": ("B", "lower"),
    "bundle.read_render_s": ("s", "lower"),
    "verify.derivative_check_s": ("s", "lower"),
    "verify.oracle_s": ("s", "lower"),
    "verify.alt_formulation_s": ("s", "lower"),
    "verify.perturbation_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}

# metric -> (span name, what to take: "s" duration, "calls", "amount")
_FROM_SPANS = {
    "config.load_s": ("config.load", "s"),
    "config.build_problem_s": ("config.build_problem", "s"),
    "sampling.probe_calls": ("sampling.probe", "calls"),
    "sampling.probe_s": ("sampling.probe", "s"),
    "problems.state_solve_rhs": ("problems.state_solve", "amount"),
    "problems.adjoint_solve_rhs": ("problems.adjoint_solve", "amount"),
    "problems.state_solve_s": ("problems.state_solve", "s"),
    "problems.adjoint_solve_s": ("problems.adjoint_solve", "s"),
    "problems.block_apply_calls": ("problems.block_apply", "calls"),
    "problems.block_apply_s": ("problems.block_apply", "s"),
    "optimizer.solve_s": ("optimizer.solve", "s"),
    "optimizer.newton_iters": ("optimizer.solve", "amount"),
    "optimizer.hessvec_calls": ("optimizer.hessvec", "calls"),
    "optimizer.reduced_hessian_calls": ("optimizer.reduced_hessian", "calls"),
    "optimizer.reduced_hessian_s": ("optimizer.reduced_hessian", "s"),
    "optimizer.sosc_s": ("optimizer.sosc", "s"),
    "operators.kkt_solve_calls": ("operators.kkt_solve", "calls"),
    "operators.kkt_solve_s": ("operators.kkt_solve", "s"),
    "operators.kkt_refine_sweeps": ("operators.kkt_solve", "amount"),
    "operators.kkt_assemble_s": ("operators.kkt_assemble", "s"),
    "operators.kkt_apply_calls": ("operators.kkt_apply", "calls"),
    "randeig.geneig_s": ("randeig.geneig", "s"),
    "randeig.pencil_apply_calls": ("randeig.pencil_apply", "calls"),
    "randeig.pencil_apply_s": ("randeig.pencil_apply", "s"),
    "randeig.dropped_probes": ("randeig.geneig", "amount"),
    "linalg.b_orth_s": ("linalg.b_orth", "s"),
    "linalg.dense_sym_eig_s": ("linalg.dense_sym_eig", "s"),
    "linalg.spd_solve_calls": ("linalg.spd_solve", "calls"),
    "indices.local_s": ("indices.local", "s"),
    "indices.set_s": ("indices.set", "s"),
    "bundle.write_s": ("bundle.write", "s"),
    "bundle.read_render_s": ("bundle.read_render", "s"),
    "verify.derivative_check_s": ("verify.derivative_check", "s"),
    "verify.oracle_s": ("verify.oracle", "s"),
    "verify.alt_formulation_s": ("verify.alt_formulation", "s"),
    "verify.perturbation_s": ("verify.perturbation", "s"),
}


def layer_metrics(run: Tracer, verify: Tracer, workers: int) -> dict:
    """Every per-layer metric except bundle.bytes and trace.overhead_s.

    The verify.* metrics come from the traced `hdsa verify`, all others from
    the traced `hdsa run`.
    """
    out = {}
    for source, is_verify in ((run, False), (verify, True)):
        dur, calls, amount = source.totals()
        pick = {"s": dur, "calls": calls, "amount": amount}
        out.update({m: pick[kind][span] for m, (span, kind) in _FROM_SPANS.items()
                    if m.startswith("verify.") == is_verify})
        selfs = source.self_times()
        out.update({f"{layer}.self_s": selfs[layer] for layer in LAYERS
                    if (layer == "verify") == is_verify})
    samples, sweep = [], 0.0
    for _sid, _parent, name, _sample, t0, t1, _n in run.spans:
        if name == "analysis.sample":
            samples.append(t1 - t0)
        elif name == "analysis.sweep":
            sweep += t1 - t0
    out["analysis.sample_s_p50"] = statistics.median(samples) if samples else 0.0
    out["analysis.sample_s_max"] = max(samples, default=0.0)
    out["analysis.worker_busy_ratio"] = sum(samples) / (workers * sweep) if sweep else 0.0
    return out
