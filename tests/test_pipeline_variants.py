"""Whole-pipeline coverage across examples, option knobs and edge cases."""

import warnings

import numpy as np
import pytest

from mspg.harness import ExperimentConfig, Workspace, run_experiment
from mspg.validation import edge_spectrum_range, full_space_gap


def build(**kw):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="cell Peclet")
        return Workspace(ExperimentConfig(**kw))


@pytest.mark.parametrize("example", [1, 2, 3, 4, 5])
def test_full_selection_exactness_every_example(example):
    # the multiscale error must hit the projection error once every edge
    # mode is kept, whatever the velocity field
    ws = build(example=example, nc=4, n=16, L=3)
    gap, _, _ = full_space_gap(ws)
    assert gap <= 1e-6
    # and the energy-ratio spectra stay inside [0, 1] for this field
    lo, hi = edge_spectrum_range(ws)
    assert lo >= -1e-10 and hi <= 1.0 + 1e-10


def test_full_space_gap_solves_on_the_compressed_image(monkeypatch):
    # the validate check runs the solve a report row runs: with the block
    # interiors and the first harmonic column of the workspace
    from mspg import coupling

    ws = build(example=1, nc=4, n=16, L=3)
    calls = []
    solve = coupling.solve_coupled

    def recording(op, V, Xi, *structure):
        calls.append(structure)
        return solve(op, V, Xi, *structure)

    monkeypatch.setattr(coupling, "solve_coupled", recording)
    full_space_gap(ws)
    interiors, harmonic_from = ws.image_structure(1)
    ((got_interiors, got_harmonic_from),) = calls
    assert got_harmonic_from == harmonic_from
    assert all(np.array_equal(a, b) for a, b in zip(got_interiors, interiors, strict=True))


def test_minimal_coarse_grid_runs():
    # nc=2: the center neighborhood covers the whole domain, so it carries
    # no snapshots; the corner/edge nodes still produce a trial space
    rows = run_experiment(ExperimentConfig(example=1, nc=2, n=8, m=1, L=1))
    assert np.isfinite(rows[0].err_ms_pct)
    assert rows[0].err_ms_pct >= rows[0].err_proj_pct - 1e-8


def test_the_solve_and_the_projection_share_the_trial_rank_decision():
    # at nc=2, n=4 the kernel keeps 6 of the 8 assembled trial columns (two
    # have singular values near 1e-12 after column scaling); the trial
    # matrix holds the kept ones only, so the full test space reaches the
    # projection error instead of the least-squares error onto all 8
    ws = build(example=1, nc=2, n=4, L=1)
    gap, rep, state = full_space_gap(ws)
    assert gap <= 1e-10
    assert rep.err_ms_pct >= rep.err_proj_pct
    assert state.Xi.shape[1] == ws.trial(1).shape[1] == 6


@pytest.mark.parametrize(
    "kw",
    [
        dict(),
        dict(infsup=True),
        dict(trial_restriction="patch", infsup=True),
        dict(trial_restriction="patch"),
    ],
)
def test_option_knobs_run_cleanly(kw):
    ws = build(example=1, nc=4, n=16, L=2, **kw)
    rows = ws.run_cell(1, 2, 2, online_iters=1)
    assert len(rows) == 2
    for row in rows:
        assert np.isfinite(row.err_ms_pct)
        assert row.err_ms_pct >= row.err_proj_pct - 1e-8
    assert rows[1].err_ms_pct <= rows[0].err_ms_pct + 1e-9


def test_patch_exactness_preserved():
    # switching the trial eigenproblem restriction reshapes the selection
    # but not the full-selection identity
    ws = build(example=1, nc=4, n=16, L=3, trial_restriction="patch")
    gap, _, _ = full_space_gap(ws, problem=1)
    assert gap <= 1e-6
