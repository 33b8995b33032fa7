"""One benchmark repetition in a fresh interpreter.

``--mode run`` times the workload through the entry point the ``mspg``
command line calls (``run_experiment`` or ``sweep_experiment``) plus
``render_csv``; ``--mode trace`` does the same with the span tracer
installed.  ``--mode setup`` times ``SETUP_REPS`` constructions of
``Workspace(config)`` in this fresh process, so set-up is not timed after the
memory peak of a cell loop.  The last line of standard output is one JSON
object.  ``run.py`` starts it; from the repository root
``PYTHONPATH=src python3 perfbench/child.py --workload smoke`` runs it by hand.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODES = ("run", "trace", "setup")
# Workspace constructions of one setup child; run.py starts two per run
SETUP_REPS = 12


def _environment() -> dict:
    import numpy
    import scipy

    env = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def _time_setup(harness, config) -> list[float]:
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        harness.Workspace(config)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", choices=MODES, default="run")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import mspg

    src = (ROOT / "src").resolve()
    if src not in Path(mspg.__file__).resolve().parents:
        print(f"mspg imported from {mspg.__file__}, not from {src}", file=sys.stderr)
        return 5  # distinct from the package's own exit codes 1-4
    from mspg import harness
    from mspg.errors import MspgError

    result = {"workload": workload.name, "mode": args.mode, "env": _environment()}
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        config = harness.ExperimentConfig(**workload.config)
        if args.mode == "setup":
            result["setup_s"] = _time_setup(harness, config)
            print(json.dumps(result))
            return 0
        t0 = time.perf_counter()
        text = harness.render_csv(workload.execute(harness, config))
        result["wall_s"] = time.perf_counter() - t0
    except MspgError as exc:
        result["error"] = {"type": type(exc).__name__, "message": str(exc)}
        print(json.dumps(result))
        return exc.exit_code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
        result["spans"] = tracer.export()
    result["csv"] = text
    result["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
