"""Stage-traced benchmark of the mspg solver.

Run from the repository root:

    python3 perfbench/run.py --workload desk_online --seed 1 --seconds 10 --trace 0

Workloads are defined in ``workloads.py``.  Each repetition is a fresh
child process (``child.py``) that imports the package from ``src/`` of this
checkout, so interpreter start and imports stay outside every timing.  The
runner is a closed loop with one client: it starts the next repetition when
the previous one has ended, as long as one more repetition of the same length
still ends within ``--seconds`` (there is always at least one).  BLAS/OpenMP
threads are pinned in the child's environment to the workload's count, at
most ``nproc``.

With ``--trace 0`` one setup child runs before the repetitions and one
after them, so set-up is sampled at both ends of the run, and the last line
of standard output is one JSON object with the end-to-end metrics:

    wall_s       run_experiment/sweep_experiment through the rendered report,
                 median over repetitions
    setup_s      Workspace constructor alone, median of the two setup
                 children's constructions (SETUP_REPS each)
    peak_rss_mb  peak RSS of the child process, median over repetitions

With ``--trace 1`` the untraced repetitions are followed by one traced one,
and the JSON holds the per-layer metrics of ``tracer.py`` plus the tracing
overhead and the correctness figures ``fail_frac``, ``row_drift_rel`` and
``ms_gap_pct``.  Every repetition's rows are checked (``checks.py``) against
``reference/<workload>.csv``, the rows of the seed code; repetitions of one
run and the traced repetition must render byte-identical reports.  Details,
the environment and per-repetition SHA-256 hashes go to
``.perfbench-results/`` in the checkout.

Exit status is 0 when a result was printed (``correct`` tells whether the
checks passed) and nonzero when no repetition could complete, e.g. when the
checkout has no ``src/mspg``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench-results"

# The whole run must end within 180 s: no untraced repetition is started that
# would likely end past RUN_BUDGET_S, and each child is killed at CHILD_DEADLINE_S.
RUN_BUDGET_S = 150.0
CHILD_DEADLINE_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# stands in for a deviation or gap that cannot be measured (row count
# mismatch, empty field), which JSON cannot write as inf or nan
UNMEASURABLE = 1e300


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(workload: str, mode: str, env: dict, timeout: float) -> dict:
    """One child in ``mode``; returns its JSON result plus rc and problems."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--mode", mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "rc": None, "elapsed_s": time.monotonic() - start,
                "problems": [f"timed out after {timeout:.0f} s"]}
    result = {}
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {}
    result.update(mode=mode, rc=proc.returncode, elapsed_s=time.monotonic() - start,
                  problems=[])
    if proc.returncode != 0 or ("setup_s" if mode == "setup" else "csv") not in result:
        err = result.get("error")
        detail = f"{err['type']}: {err['message']}" if err else proc.stderr.strip()[-2000:]
        result["problems"].append(f"exit code {proc.returncode}: {detail}")
    return result


def run_setup(workload: str, env: dict, timeout: float) -> dict:
    child = run_child(workload, "setup", env, timeout)
    print(f"setup: {len(child.get('setup_s', []))} constructions, "
          f"problems {child['problems']}", flush=True)
    return child


def check_children(children: list[dict], workload, reference: str) -> None:
    """Add report-check, drift and byte-identity problems to each child."""
    first = None
    for child in children:
        if "csv" not in child:
            continue
        problems, child["row_drift_rel"], child["ms_gap_pct"] = checks.evaluate(
            child["csv"], workload, reference
        )
        child["problems"].extend(problems)
        if first is None:
            first = child["csv"]
        elif child["csv"] != first:
            kind = "traced" if child["mode"] == "trace" else "repeated"
            child["problems"].append(f"{kind} report bytes differ from the first repetition")


def _finite(value: float) -> float:
    return value if math.isfinite(value) else UNMEASURABLE


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Stage-traced mspg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every workload input is deterministic")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time budget of the untraced repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "mspg" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'mspg'}; run from a full checkout",
              file=sys.stderr)
        return 2
    reference = (HERE / "reference" / f"{workload.name}.csv").read_text()

    threads = min(workload.threads, nproc())
    env = child_env(threads)
    start = time.monotonic()
    children = []
    reserve = 0.0  # time kept for the closing setup child
    if not args.trace:
        children.append(run_setup(workload.name, env, CHILD_DEADLINE_S))
        reserve = children[0]["elapsed_s"]
    while True:
        elapsed = time.monotonic() - start
        child = run_child(workload.name, "run", env, CHILD_DEADLINE_S - elapsed)
        children.append(child)
        print(f"repetition: {child.get('wall_s', float('nan')):.3f} s, "
              f"problems {child['problems']}", flush=True)
        elapsed = time.monotonic() - start
        if elapsed + child["elapsed_s"] + reserve > min(args.seconds, RUN_BUDGET_S):
            break
    elapsed = time.monotonic() - start
    if not args.trace:
        children.append(run_setup(workload.name, env, CHILD_DEADLINE_S - elapsed))
    else:
        children.append(run_child(workload.name, "trace", env, CHILD_DEADLINE_S - elapsed))
        print(f"traced: {children[-1].get('wall_s', float('nan')):.3f} s, "
              f"problems {children[-1]['problems']}", flush=True)

    check_children(children, workload, reference)
    failed = sum(1 for c in children if c["problems"])
    done = [c for c in children if "wall_s" in c and c["mode"] == "run"]
    traced = [c for c in children if "wall_s" in c and c["mode"] == "trace"]
    setups = [c for c in children if "setup_s" in c]
    if not done or (args.trace and not traced) or not (args.trace or setups):
        for child in children:
            print(f"failed repetition: {child['problems']}", file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1

    measured = [c for c in children if "row_drift_rel" in c]
    figures = {
        "fail_frac": _metric(failed / len(children), "1"),
        "row_drift_rel": _metric(_finite(max(c["row_drift_rel"] for c in measured)), "1"),
        "ms_gap_pct": _metric(_finite(measured[0]["ms_gap_pct"]), "pct_pts"),
    }
    wall_median = statistics.median(c["wall_s"] for c in done)
    if args.trace:
        units = metric_units()
        metrics = {name: _metric(value, units[name])
                   for name, value in traced[0]["layers"].items()}
        metrics["trace_overhead_s"] = _metric(traced[0]["wall_s"] - wall_median, "s")
        metrics.update(figures)
    else:
        metrics = {
            "wall_s": _metric(wall_median, "s"),
            "setup_s": _metric(statistics.median(s for c in setups for s in c["setup_s"]), "s"),
            "peak_rss_mb": _metric(statistics.median(c["peak_rss_mb"] for c in done), "MB"),
        }

    environment = {
        **done[0]["env"],
        "blas_threads": threads,
        "thread_vars": list(THREAD_VARS),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if traced:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps({"absent": traced[0]["absent"], "spans": traced[0]["spans"]})
        )
    record = {
        "workload": workload.name,
        "cli": workload.cli,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "reference_sha256": hashlib.sha256(reference.encode()).hexdigest(),
        "absent": traced[0]["absent"] if traced else [],
        "repetitions": [
            {key: c.get(key) for key in (
                "mode", "rc", "elapsed_s", "wall_s", "setup_s", "peak_rss_mb",
                "sha256", "row_drift_rel", "ms_gap_pct", "problems")}
            for c in children
        ],
        "checks": figures,
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment: " + json.dumps(environment))
    print("checks: " + json.dumps(figures))
    if traced and traced[0]["absent"]:
        print("absent bindings (metrics read 0): " + ", ".join(traced[0]["absent"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
