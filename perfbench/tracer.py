"""Span tracing around the solver's cross-module calls, installed from outside.

Each binding is a name through which one module calls into another layer,
such as ``harness.assemble`` or ``coupling.extend_orthonormal``.  The tracer
replaces it with a wrapper that records a span: name, parent span, start,
end and the RSS high-water mark at both ends.  Spans stay in memory until
``summary``/``export`` at the end of the run.  A binding that the package no
longer has is listed as absent and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time

import numpy as np

# (module, attribute in that module, span name).  The module is the caller's
# namespace, so only calls that cross into the named layer are timed.
BINDINGS = (
    ("harness", "Workspace.__init__", "harness.workspace_init"),
    ("harness", "Workspace.run_cell", "harness.run_cell"),
    ("harness", "build_coarse_topology", "grid.build_coarse_topology"),
    ("harness", "field_for_example", "fields.field_for_example"),
    ("harness", "assemble", "assembly.assemble"),
    ("harness", "solve_fine_reference", "assembly.solve_fine_reference"),
    ("trial_space", "partition_of_unity", "trial_space.partition_of_unity"),
    ("trial_space", "trial_snapshots", "trial_space.trial_snapshots"),
    ("trial_space", "trial_eigenbasis", "trial_space.trial_eigenbasis"),
    ("trial_space", "assemble_trial_matrix", "trial_space.assemble_trial_matrix"),
    ("trial_space", "local_dirichlet_solve", "numerics.local_dirichlet_solve"),
    ("test_space", "local_dirichlet_solve", "numerics.local_dirichlet_solve"),
    ("test_space", "build_W1", "test_space.build_W1"),
    ("test_space", "build_W2", "test_space.build_W2"),
    ("test_space", "build_W3_snapshots", "test_space.build_W3_snapshots"),
    ("test_space", "eigenproblem_1", "test_space.eigenproblem_1"),
    ("test_space", "eigenproblem_2", "test_space.eigenproblem_2"),
    ("test_space", "assemble_test_matrix", "test_space.assemble_test_matrix"),
    ("test_space", "orthonormalize_columns", "numerics.orthonormalize_columns"),
    ("coupling", "solve_coupled", "coupling.solve_coupled"),
    ("coupling", "infsup_estimate", "coupling.infsup_estimate"),
    ("coupling", "error_report", "coupling.error_report"),
    ("coupling", "online_enrich", "coupling.online_enrich"),
    ("coupling", "extend_orthonormal", "numerics.extend_orthonormal"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BINDINGS))
SPAN_METRICS = (("_s", "s"), ("_self_s", "s"), ("_calls", "count"), ("_rss_rise_mb", "MB"))
COUNTERS = {
    "test_space.theta_mb": "MB",
    "test_space.raw_nnz_frac": "1",
    "test_space.raw_columns": "count",
    "test_space.kept_columns": "count",
    "trial_space.xi_mb": "MB",
    "coupling.online_columns_added": "count",
}


def metric_units() -> dict:
    """Unit of every metric ``Tracer.summary`` reports."""
    units = {name + suffix: unit for name in SPAN_NAMES for suffix, unit in SPAN_METRICS}
    units.update(COUNTERS)
    return units


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stored_mb(matrix) -> float:
    """Bytes a dense array or a scipy sparse matrix holds, in MiB."""
    if hasattr(matrix, "indptr"):
        nbytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    else:
        nbytes = np.asarray(matrix).nbytes
    return nbytes / 2**20


def _count_test_matrix(counters, args, result):
    w1, w2, w3_results = args[:3]
    theta = result[0]
    raw_columns = w1.count + w2.count + sum(r.L for r in w3_results)
    nnz = (
        w1.columns.nnz
        + w2.columns.nnz
        + sum(int(np.count_nonzero(r.selected)) for r in w3_results)
    )
    counters["test_space.kept_columns"] += theta.shape[1]
    counters["test_space.theta_mb"] = max(counters["test_space.theta_mb"], _stored_mb(theta))
    # density and size of the largest raw test matrix of the run
    if raw_columns >= counters["test_space.raw_columns_max"]:
        counters["test_space.raw_columns_max"] = raw_columns
        counters["test_space.raw_nnz_frac"] = nnz / (w1.columns.shape[0] * raw_columns)
    counters["test_space.raw_columns"] += raw_columns


def _count_trial_matrix(counters, args, result):
    counters["trial_space.xi_mb"] = max(counters["trial_space.xi_mb"], _stored_mb(result.Xi))


def _count_online(counters, args, result):
    counters["coupling.online_columns_added"] += sum(r.added_columns for r in result[1])


HOOKS = {
    "test_space.assemble_test_matrix": _count_test_matrix,
    "trial_space.assemble_trial_matrix": _count_trial_matrix,
    "coupling.online_enrich": _count_online,
}


class Tracer:
    """Records spans at the bindings in ``BINDINGS`` while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, rss_start, rss_end]
        self.counters = {name: 0 if unit == "count" else 0.0 for name, unit in COUNTERS.items()}
        self.counters["test_space.raw_columns_max"] = 0
        self.absent: list[str] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    def install(self) -> "Tracer":
        for module_name, path, span_name in BINDINGS:
            try:
                owner = importlib.import_module(f"mspg.{module_name}")
            except ModuleNotFoundError:
                owner = None
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(span_name, fn))
            self._restore.append((owner, attr, fn))
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else None, 0.0, 0.0, _maxrss_mb(), 0.0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[5] = _maxrss_mb()
                self._open.pop()
            if hook is not None:
                try:
                    hook(self.counters, args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    # the layer changed its interface; report rather than crash
                    if f"counter:{name}" not in self.absent:
                        self.absent.append(f"counter:{name}")
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer metrics: inclusive/self seconds, calls, RSS rise, counters."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {
            name + suffix: 0 if unit == "count" else 0.0
            for name in SPAN_NAMES
            for suffix, unit in SPAN_METRICS
        }
        for i, (name, _, start, end, rss0, rss1) in enumerate(self.spans):
            out[name + "_s"] += end - start
            out[name + "_self_s"] += end - start - child_time[i]
            out[name + "_calls"] += 1
            out[name + "_rss_rise_mb"] += rss1 - rss0
        out.update((name, self.counters[name]) for name in COUNTERS)
        return out

    def export(self) -> list[dict]:
        """Every span, with times in seconds from tracer creation."""
        return [
            {
                "name": name,
                "parent": parent,
                "start": start - self._t0,
                "end": end - self._t0,
                "rss_start_mb": rss0,
                "rss_end_mb": rss1,
            }
            for name, parent, start, end, rss0, rss1 in self.spans
        ]
