"""One fresh `hdsa` process, started by run.py; prints one JSON line.

    python3 perfbench/child.py setup CONFIG
        Time what every `hdsa run` pays before its first sample: import hdsa,
        load the config, build the problem and the sampling plan.

    python3 perfbench/child.py run CONFIG WORKERS
        Do one `hdsa run` and report its exit code, peak resident memory and
        the state and adjoint right-hand sides it solved. Only the two solve
        methods are wrapped, so the count costs next to nothing.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(config: str) -> dict:
    from hdsa.config import load_config

    cfg = load_config(config)
    cfg.build_plan(cfg.build_problem())
    return {"setup_s": time.perf_counter() - _T0}


def run(config: str, workers: str) -> dict:
    from hdsa.cli import main
    from tracer import Tracer

    out = io.StringIO()
    with Tracer(only={"problems.state_solve", "problems.adjoint_solve"}) as tracer:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            t0 = time.perf_counter()
            rc = main(["run", config, "--force", "--workers", workers])
            seconds = time.perf_counter() - t0
    _dur, _calls, amount = tracer.totals()
    return {
        "exit_code": rc,
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pde_solves": amount["problems.state_solve"] + amount["problems.adjoint_solve"],
    }


if __name__ == "__main__":
    mode = sys.argv[1]
    result = setup(sys.argv[2]) if mode == "setup" else run(sys.argv[2], sys.argv[3])
    print(json.dumps(result))
