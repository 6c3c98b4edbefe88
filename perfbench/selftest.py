"""Self-test of the benchmark at tiny sizes; runs in seconds.

    python3 perfbench/selftest.py

Checks that the benchmark prints exactly the workload and metric names of
BENCHMARK.json, that check (a) rejects a sensitivity operator scaled by 1.5,
that a failing `hdsa verify` counts as a failed operation, that traced runs
write the same bundle bytes as untraced ones, and that the traced KKT solves
per sample equal the kkt_solves of report.json. Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import checks
import run
from tracer import Tracer
from workloads import WORKLOADS, Workload

# 2K + L probes span the whole 20-dimensional pencil, so the triples are exact
TINY = Workload(
    name="tiny",
    problem="diffusion_control_1d",
    params={"n_state": 16, "n_param": 4, "gamma": 0.01},
    hdsa={"n_samples": 3, "k_pairs": 2, "oversampling": 16},
    workers=2,
)
CORRUPT = Workload(
    name="corrupt",
    problem="logistic_toy",
    params={"corrupt_derivative": True},
    hdsa={"n_samples": 1, "k_pairs": 1, "oversampling": 1},
    workers=1,
)


def names_match() -> tuple[bool, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = set(WORKLOADS) == {w["name"] for w in spec["workloads"]}
    WORKLOADS[TINY.name] = TINY
    try:
        for trace, names in wanted.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.main(["--workload", TINY.name, "--seed", "3",
                               "--seconds", "0", "--trace", str(trace)])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            ok &= rc == 0 and result["correct"] and printed == names
    finally:
        del WORKLOADS[TINY.name]
        (run.WORK / f"spans-{TINY.name}.csv.gz").unlink(missing_ok=True)
    return ok, "workload names and metric names and units equal BENCHMARK.json"


def scaled_operator_rejected(work: Path) -> tuple[bool, str]:
    from hdsa.operators import SensitivityOperator

    bench = run.Bench(TINY, 0, work)
    bench.run()
    honest = checks.check_fd_solution_map(
        bench.cfg.build_problem(), bench.cfg.optimizer, checks.Bundle(bench.bundle))
    original = SensitivityOperator.apply
    SensitivityOperator.apply = lambda self, phi: 1.5 * original(self, phi)
    try:
        bench.run()
    finally:
        SensitivityOperator.apply = original
    scaled = checks.check_fd_solution_map(
        bench.cfg.build_problem(), bench.cfg.optimizer, checks.Bundle(bench.bundle))
    ok = honest[0][1] and not scaled[0][1]
    return ok, f"check (a) honest: {honest[0][2]}; scaled by 1.5: {scaled[0][2]}"


def corrupt_verify_fails(work: Path) -> tuple[bool, str]:
    bench = run.Bench(CORRUPT, 0, work)
    op = bench.verify()
    with contextlib.redirect_stdout(io.StringIO()):
        result = bench.summary({})
    ok = result["failed"] == 1 and not result["correct"]
    return ok, f"logistic_toy corrupt_derivative verify failed with {op.reasons}"


def traced_bundle_identical(work: Path) -> tuple[bool, str]:
    bench = run.Bench(TINY, 1, work)
    bench.run()
    with Tracer() as tracer:
        op = bench.run()
    report = json.loads((bench.bundle / "report.json").read_text())
    per_sample = Counter(span[3] for span in tracer.spans
                         if span[2] == "operators.kkt_solve")
    solves = {s["j"]: s["kkt_solves"] for s in report["samples"]}
    identical = "check-d bundle-identical" not in op.reasons
    ok = identical and per_sample == solves
    return ok, (f"traced bundle identical to untraced: {identical}; traced KKT "
                f"solves per sample {dict(per_sample)} vs report.json {solves}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    failures = 0
    try:
        for test in (names_match, scaled_operator_rejected, corrupt_verify_fails,
                     traced_bundle_identical):
            args = () if test is names_match else (Path(tempfile.mkdtemp(dir=work)),)
            with contextlib.redirect_stdout(io.StringIO()):
                ok, detail = test(*args)
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {test.__name__}: {detail}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
