"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured quantities.

Criterion 5 replays the full-resolution experiment and takes minutes; it
only runs when MSPG_FULL_RES=1 is set, as do the seven cells of the full
experiment matrix (about 20 minutes, in capped child processes).
"""

import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mspg.assembly import assemble, solve_fine_reference
from mspg.coupling import (
    error_report,
    infsup_estimate,
    online_enrich,
    residual_full,
    solve_coupled,
)
from mspg.grid import build_fine_mesh
from mspg.harness import ExperimentConfig, Workspace
from mspg.cli import main
from mspg.validation import edge_spectrum_range, full_space_gap, mms_rate


def _build(example, alpha):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="cell Peclet")
        t0 = time.monotonic()
        ws = Workspace(ExperimentConfig(example=example, alpha=alpha, nc=8, n=64, L=7))
        ws.build_seconds = time.monotonic() - t0
        return ws


@pytest.fixture(scope="module")
def ws_ex1():
    return _build(1, 2.0)


@pytest.fixture(scope="module")
def ws_ex4():
    return _build(4, 200.0)


def report(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_full_snapshot_exactness(ws_ex1):
    t0 = time.monotonic()
    worst_gap = 0.0
    worst_constraint = 0.0
    for m in (1, 3):
        gap, _, state = full_space_gap(ws_ex1, m, problem=1)
        worst_gap = max(worst_gap, gap)
        constraint = np.linalg.norm(
            state.Xi.T @ (ws_ex1.op.A.T @ state.w_fine)
        ) / np.linalg.norm(ws_ex1.op.f)
        worst_constraint = max(worst_constraint, constraint)
    elapsed = time.monotonic() - t0 + ws_ex1.build_seconds
    ok = worst_gap <= 1e-6 and worst_constraint <= 1e-8 and elapsed <= 60.0
    report(
        ok,
        "criterion 1 (full-snapshot exactness)",
        f"max rel gap {worst_gap:.2e}, constraint {worst_constraint:.2e}, {elapsed:.1f}s",
    )


def test_high_contrast_full_test_space_exactness(basis_q):
    """Example 5 (Darcy flow, contrast 500): the raw test matrix has a scaled
    Gram condition number near 1e15, yet the full test space must keep every
    column, stay orthonormal in the w-norm (Q = A^T Theta) and reproduce the
    projection."""
    ws = _build(5, None)
    r = ws.topology.r
    worst_gap = worst_orth = 0.0
    columns = set()
    for problem in (1, 2):
        V = ws.test_matrix(3, r - 1, problem)
        state = solve_coupled(ws.op, V, ws.trial(3), *ws.image_structure(3))
        Q = basis_q()
        columns.add((V.shape[1], Q.shape[1]))
        worst_orth = max(worst_orth, float(np.abs(Q.T @ Q - np.eye(Q.shape[1])).max()))
        rep = error_report(state, ws.u_ref, ws.projection_error(3))
        worst_gap = max(worst_gap, rep.err_ms_pct - rep.err_proj_pct)
    ok = worst_gap <= 1e-10 and worst_orth <= 1e-12 and columns == {(1601, 1601)}
    report(
        ok,
        "high-contrast exactness (example 5, m=3, L=7)",
        f"gap {worst_gap:.2e} pct, |Q^T Q - I| {worst_orth:.2e}, "
        f"(raw, kept) columns {sorted(columns)}",
    )


def test_criterion_2_fine_system_degeneracy():
    t0 = time.monotonic()
    from mspg.fields import example_1

    mesh = build_fine_mesh(64)
    op = assemble(mesh, example_1(2.0))
    u_ref = solve_fine_reference(op)
    eye = np.eye(mesh.num_dofs)
    state = solve_coupled(op, eye, eye)
    scale = np.linalg.norm(u_ref)
    du = np.linalg.norm(state.u_fine - u_ref) / scale
    dw = np.linalg.norm(state.w_fine) / scale
    elapsed = time.monotonic() - t0
    ok = du <= 1e-8 and dw <= 1e-8 and elapsed <= 30.0
    report(
        ok,
        "criterion 2 (identity-space degeneracy)",
        f"|u-u_h| {du:.2e}, |w| {dw:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_spectral_bound(ws_ex1, ws_ex4):
    workspaces = [ws_ex1, _build(3, 1e-3), ws_ex4]
    lo, hi = np.inf, -np.inf
    monotone = True
    for ws in workspaces:
        ws_lo, ws_hi = edge_spectrum_range(ws)
        lo, hi = min(lo, ws_lo), max(hi, ws_hi)
        for spectrum in ws.edge_spectra(2):
            lams = [spectrum.excluded(L) for L in range(1, spectrum.eigenvalues.size + 1)]
            monotone &= all(lams[i + 1] >= lams[i] - 1e-12 for i in range(len(lams) - 1))
    ok = lo >= -1e-10 and hi <= 1.0 + 1e-10 and monotone
    report(
        ok,
        "criterion 3 (edge spectrum in [0,1])",
        f"min {lo:.2e}, max-1 {hi - 1.0:+.2e}, excluded-eigenvalue monotone {monotone}",
    )


def test_criterion_4_convergence_to_projection(ws_ex1):
    r = ws_ex1.topology.r
    ok = True
    details = []
    for problem in (1, 2):
        errs = []
        proj = None
        for L in (1, 3, 5, r - 1):
            rows = ws_ex1.run_cell(1, L, problem)
            errs.append(rows[0].err_ms_pct)
            proj = rows[0].err_proj_pct
        monotone = all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))
        terminal = abs(errs[-1] - proj) <= 1e-6 * proj
        ok &= monotone and terminal
        details.append(
            f"eig{problem}: {['%.4f' % e for e in errs]} proj {proj:.4f} "
            f"monotone {monotone} terminal {terminal}"
        )
    report(ok, "criterion 4 (convergence to projection)", "; ".join(details))


@pytest.mark.fullres
@pytest.mark.skipif(
    os.environ.get("MSPG_FULL_RES") != "1",
    reason="full-resolution gate; set MSPG_FULL_RES=1",
)
def test_criterion_5_full_resolution_trend():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="cell Peclet")
        ws = Workspace(ExperimentConfig(example=1, alpha=2.0, nc=10, n=200, L=7))
    rows = ws.run_cell(1, 7, 1)
    err, proj = rows[0].err_ms_pct, rows[0].err_proj_pct
    reference = {1: 0.3445, 3: 0.7273, 5: 0.9542, 7: 0.9908}
    lams = {}
    for L in (1, 3, 5, 7):
        lams[L] = min(spectrum.excluded(L) for spectrum in ws.edge_spectra(2))
    err_ok = abs(err - 2.85) <= 1.0
    gap_ok = abs(err - proj) <= 0.3
    lam_ok = all(abs(lams[L] - reference[L]) <= 0.15 for L in reference)
    ok = err_ok and gap_ok and lam_ok
    report(
        ok,
        "criterion 5 (full-resolution trend)",
        f"err {err:.4f}% (target 2.85±1.0: {err_ok}), gap {abs(err - proj):.4f} "
        f"(≤0.3: {gap_ok}), excluded eigenvalues {lams} vs {reference} (±0.15: {lam_ok})",
    )


# the seven cells of the full-resolution experiment matrix: (example, alpha),
# each on the grid ``harness.full_resolution`` maps it to
FULL_MATRIX = ((1, 2.0), (2, 2.0), (3, 1e-3), (3, 1.0 / 2000.0), (4, 200.0), (5, 1.0 / 250.0),
               (5, 1.0 / 500.0))
FULL_MATRIX_AS_BYTES = 6 * 2**30

# one offline cell (m=1, L=7, eigenproblem 2), run by a child process that
# prints its rows, wall time and peak RSS as JSON
_FULL_MATRIX_CELL = """
import json, resource, sys, time, warnings
warnings.filterwarnings("ignore", message="cell Peclet")
from mspg.harness import ExperimentConfig, full_resolution, run_experiment
example, alpha = int(sys.argv[1]), float(sys.argv[2])
nc, n = full_resolution(example, alpha)
t0 = time.perf_counter()
rows = run_experiment(
    ExperimentConfig(example=example, alpha=alpha, nc=nc, n=n, m=1, L=7, eigenproblem=2)
)
print(json.dumps({
    "n": n,
    "rows": [vars(row) for row in rows],
    "wall_s": time.perf_counter() - t0,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (FULL_MATRIX_AS_BYTES, FULL_MATRIX_AS_BYTES))


@pytest.mark.fullres
@pytest.mark.skipif(
    os.environ.get("MSPG_FULL_RES") != "1",
    reason="full-resolution gate; set MSPG_FULL_RES=1",
)
@pytest.mark.parametrize("example, alpha", FULL_MATRIX, ids=lambda v: f"{v:g}")
def test_full_matrix_cell(example, alpha):
    """One cell of the full experiment matrix, in a child whose address space
    is capped at 6 GB, so an overshoot is a MemoryError in the child and not
    an out-of-memory kill of the machine."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _FULL_MATRIX_CELL, str(example), repr(alpha)],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space,
    )
    label = f"full matrix (example {example}, alpha {alpha:g})"
    if proc.returncode != 0:
        report(False, label, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    row = out["rows"][0]
    finite = all(
        math.isfinite(value) for r in out["rows"] for value in r.values()
        if isinstance(value, (int, float))
    )
    ordered = all(r["err_ms_pct"] >= r["err_proj_pct"] for r in out["rows"])
    report(
        finite and ordered,
        label,
        f"n={out['n']}, err {row['err_ms_pct']:.4f}% vs proj {row['err_proj_pct']:.4f}%, "
        f"{out['wall_s']:.1f} s, peak RSS {out['peak_rss_mb']:.0f} MB",
    )


def test_criterion_6_online_enrichment(ws_ex1, ws_ex4):
    t0 = time.monotonic()
    ok = True
    details = []
    for ws, problem in ((ws_ex1, 1), (ws_ex4, 2)):
        V = ws.test_matrix(1, 1, problem)
        state = solve_coupled(ws.op, V, ws.trial(1))
        residuals = [float(np.linalg.norm(residual_full(state)))]
        for _ in range(2):
            *_, state = online_enrich(state, ws.topology, 1)
            residuals.append(float(np.linalg.norm(residual_full(state))))
        rep = error_report(state, ws.u_ref, ws.projection_error(1))
        close = rep.err_ms_pct <= 1.05 * rep.err_proj_pct
        monotone = all(
            residuals[i + 1] <= residuals[i] * (1 + 1e-9) for i in range(len(residuals) - 1)
        )
        ok &= close and monotone
        details.append(
            f"ex{ws.config.example}: err {rep.err_ms_pct:.4f}% vs proj "
            f"{rep.err_proj_pct:.4f}% (ratio {rep.err_ms_pct / rep.err_proj_pct:.4f}), "
            f"residuals {['%.3e' % v for v in residuals]}"
        )
    elapsed = time.monotonic() - t0 + ws_ex1.build_seconds + ws_ex4.build_seconds
    ok &= elapsed <= 120.0
    report(ok, "criterion 6 (online enrichment)", "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_7_manufactured_solution_order():
    rate = mms_rate(64)  # grids 32 and 64
    ok = abs(rate - 2.0) <= 0.1
    report(ok, "criterion 7 (manufactured-solution order)", f"rate {rate:.3f}")


def test_criterion_8_infsup_monotone(ws_ex1):
    r = ws_ex1.topology.r
    Xi = ws_ex1.trial(1)
    vals = []
    for L in (1, 3, 5, r - 1):
        V = ws_ex1.test_matrix(1, L, 1)
        vals.append(infsup_estimate(solve_coupled(ws_ex1.op, V, Xi)))
    monotone = all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))
    ok = monotone and vals[-1] >= 0.99
    report(
        ok,
        "criterion 8 (inf-sup monotonicity)",
        f"estimates {['%.4f' % v for v in vals]}",
    )


def test_criterion_9_sweep_determinism(tmp_path):
    args = [
        "sweep",
        "--example", "1",
        "--coarse", "4",
        "--fine", "16",
        "--trial", "1,2",
        "--test", "1,3",
        "--eig", "1,2",
    ]
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    same = out1.read_bytes() == out2.read_bytes()
    report(same, "criterion 9 (sweep determinism)", f"byte-identical {same}")
