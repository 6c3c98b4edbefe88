"""Benchmark of `hdsa run` and `hdsa verify` through `hdsa.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every run writes the workload's configuration
(with the seed) under perfbench/.work/, checks the outputs of the program
against references computed apart from it, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  setup_s               median over fresh processes (one after each verify,
                        at least five) of importing hdsa, loading the config
                        and building the problem and sampling plan
  peak_rss_mb           peak resident memory of a fresh process doing one run
  pde_solves_per_sample state plus adjoint right-hand sides per completed
                        sample of that fresh run
  run_s, verify_s       medians of warm in-process `hdsa run` / `hdsa verify`,
                        repeated in rounds until --seconds have passed
--trace 1 repeats rounds of an untraced run, a traced run and a traced verify
and reports the per-layer metrics, medians over rounds: verify.* from the
traced verify, the others from the traced run, and the tracing overhead
(traced minus untraced run_s). Spans go to perfbench/.work/spans-NAME.csv.gz.

Each `hdsa run` and `hdsa verify` is one operation. An operation fails on a
nonzero exit code, a failed sample or a failed check; correct is false when
one fails for a reason other than the workload's known fault.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import PER_LAYER, Tracer, layer_metrics, write_spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROCESSES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "run_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pde_solves_per_sample": ("count", "lower"),
}


@dataclass
class Op:
    kind: str  # "run" | "verify"
    seconds: float
    reasons: list[str] = field(default_factory=list)


def blas_threads() -> str:
    """OpenBLAS thread counts in effect for numpy's and scipy's OpenBLAS."""
    import ctypes

    import numpy
    import scipy

    found = []
    for mod, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libs = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            try:
                getter = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            found.append(f"{mod.__name__} {getter()}")
    return ", ".join(found) or "unknown"


def child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Bench:
    """The operations of one benchmark run on one workload."""

    def __init__(self, workload, seed: int, workdir: Path):
        from hdsa.config import load_config

        self.workload = workload
        self.config = workdir / "config.json"
        self.config.write_text(
            json.dumps(workload.config(seed, "bundle"), indent=2) + "\n"
        )
        self.bundle = workdir / "bundle"
        self.cfg = load_config(self.config)
        self.ops: list[Op] = []
        self.reference: dict | None = None
        self.reference_reasons: list[str] = []

    # operations ----------------------------------------------------------------

    def _cli(self, *argv: str) -> tuple[int, float, str]:
        from hdsa.cli import main

        out = io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = main(list(argv))
        return rc, time.perf_counter() - t0, out.getvalue()

    def run(self, workers: int | None = None) -> Op:
        shutil.rmtree(self.bundle, ignore_errors=True)
        rc, seconds, _ = self._cli(
            "run", str(self.config), "--force",
            "--workers", str(workers or self.workload.workers),
        )
        return self.judge_run(rc, seconds)

    def judge_run(self, rc: int, seconds: float) -> Op:
        op = Op("run", seconds, [] if rc == 0 else [f"run exit {rc}"])
        if (self.bundle / "report.json").is_file():
            snap = checks.snapshot(self.bundle)
            if self.reference is None:
                self.reference = snap
                self.reference_reasons = self.check_reference()
            elif snap != self.reference:
                op.reasons.append("check-d bundle-identical")
            op.reasons += self.reference_reasons
        self.ops.append(op)
        return op

    def verify(self) -> Op:
        rc, seconds, out = self._cli("verify", str(self.config))
        reasons = [f"verify {line[6:].split('  ')[0].strip()}"
                   for line in out.splitlines() if line.startswith("FAIL  ")]
        if rc != 0 and not reasons:
            reasons = [f"verify exit {rc}"]
        op = Op("verify", seconds, reasons)
        self.ops.append(op)
        return op

    def check_reference(self) -> list[str]:
        rows = checks.check_bundle(self.cfg, self.cfg.build_problem(), self.bundle)
        for reason, ok, detail in rows:
            print(f"{'PASS' if ok else 'FAIL'}  {reason:<26} {detail}")
        return [reason for reason, ok, _ in rows if not ok]

    def check_worker_determinism(self) -> None:
        """(d) the bundle of --workers 1 equals the reference bundle."""
        if self.workload.workers > 1:
            op = self.run(workers=1)
            ok = "check-d bundle-identical" not in op.reasons
            label = f"check-d workers-1-vs-{self.workload.workers}"
            print(f"{'PASS' if ok else 'FAIL'}  {label:<26} bundles byte-identical")

    # accounting ------------------------------------------------------------------

    def summary(self, metrics: dict) -> dict:
        known = self.workload.known_fault
        for i, op in enumerate(self.ops):
            state = "ok" if not op.reasons else "FAILED: " + "; ".join(op.reasons)
            print(f"op {i:3d} {op.kind:<6} {op.seconds:8.3f} s  {state}")
        failed = [op for op in self.ops if op.reasons]
        unexpected = [op for op in failed
                      if not set(op.reasons) <= known.get(op.kind, frozenset())]
        for name, m in metrics.items():
            print(f"metric {name:<34} {m['value']:>14.6g} {m['unit']}")
        return {
            "correct": not unexpected,
            "attempted": len(self.ops),
            "failed": len(failed),
            "metrics": metrics,
        }


def _metric(name: str, value: float, table: dict) -> tuple[str, dict]:
    return name, {"value": value, "unit": table[name][0]}


def measure(bench: Bench, seconds: float) -> dict:
    """--trace 0: the end-to-end metrics."""
    cfg = str(bench.config)
    fresh = child("run", cfg, str(bench.workload.workers))
    bench.judge_run(fresh["exit_code"], fresh["seconds"])
    completed = json.loads((bench.bundle / "report.json").read_text())[
        "n_samples_completed"]
    bench.check_worker_determinism()

    # The machine's speed fluctuates over a second or two and drifts over
    # tens of seconds, so set-up is sampled across the whole run, and a
    # set-up process separates consecutive verifies of a round.
    runs, verifies, setups = [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(bench.run().seconds)
        for _ in range(bench.workload.verifies_per_round):
            verifies.append(bench.verify().seconds)
            setups.append(child("setup", cfg)["setup_s"])
    while len(setups) < SETUP_PROCESSES:
        setups.append(child("setup", cfg)["setup_s"])
    return dict([
        _metric("run_s", statistics.median(runs), END_TO_END),
        _metric("verify_s", statistics.median(verifies), END_TO_END),
        _metric("setup_s", statistics.median(setups), END_TO_END),
        _metric("peak_rss_mb", fresh["peak_rss_mb"], END_TO_END),
        _metric("pde_solves_per_sample", fresh["pde_solves"] / max(completed, 1),
                END_TO_END),
    ])


def measure_layers(bench: Bench, seconds: float, spans_path: Path) -> dict:
    """--trace 1: the per-layer metrics of traced rounds."""
    rounds, tracers, plain, traced = [], [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain.append(bench.run().seconds)
        with Tracer() as run_tracer:
            traced.append(bench.run().seconds)
        size = checks.bundle_bytes(bench.bundle)
        with Tracer() as verify_tracer:
            bench.verify()
        row = layer_metrics(run_tracer, verify_tracer, bench.workload.workers)
        row["bundle.bytes"] = size
        rounds.append(row)
        tracers.append({"run": run_tracer, "verify": verify_tracer})
    write_spans(spans_path, tracers)
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"tracing overhead {overhead:+.3f} s on a median untraced run of "
          f"{statistics.median(plain):.3f} s; spans in {spans_path.relative_to(ROOT)}")
    values = {name: statistics.median(r[name] for r in rounds)
              for name in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = overhead
    return dict(_metric(name, values[name], PER_LAYER) for name in PER_LAYER)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hdsa" / "cli.py").is_file():
        print(f"error: no hdsa sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be nonnegative", file=sys.stderr)
        return 2
    # HDSA_SEED silently overrides the configured seed; children inherit this.
    os.environ.pop("HDSA_SEED", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        bench = Bench(workload, args.seed, workdir)
        print(f"workload {workload.name} seed {args.seed} workers {workload.workers} "
              f"cpus {os.cpu_count()} openblas threads: {blas_threads()} "
              f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})")
        if args.trace:
            metrics = measure_layers(bench, args.seconds,
                                     WORK / f"spans-{workload.name}.csv.gz")
        else:
            metrics = measure(bench, args.seconds)
        result = bench.summary(metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
