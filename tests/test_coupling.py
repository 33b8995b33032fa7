import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mspg import coupling
from mspg.assembly import assemble, constant_field
from mspg.coupling import (
    _extend_test_space,
    append_test_columns,
    error_report,
    infsup_estimate,
    online_enrich,
    projection_error,
    residual_full,
    solve_coupled,
)
from mspg.errors import SolverFailureError
from mspg.grid import build_fine_mesh, coloring
from mspg.harness import ExperimentConfig, Workspace
from mspg.numerics import generalized_sym_eig


@pytest.fixture(scope="module")
def tiny():
    """Example-1 workspace at the smallest scale that keeps all parts alive."""
    import warnings

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="cell Peclet")
        return Workspace(ExperimentConfig(example=1, alpha=2.0, nc=4, n=16, L=3))


def test_identity_spaces_recover_fine_solution(tiny):
    nd = tiny.mesh.num_dofs
    state = solve_coupled(tiny.op, np.eye(nd), np.eye(nd))
    assert np.linalg.norm(state.u_fine - tiny.u_ref) <= 1e-8 * np.linalg.norm(tiny.u_ref)
    assert np.linalg.norm(state.w_fine) <= 1e-8 * np.linalg.norm(tiny.u_ref)


def test_zero_load_zero_solution(tiny):
    mesh = build_fine_mesh(8)
    op = assemble(mesh, constant_field(kappa=1.0, b=(1.0, 0.0), f=0.0))
    nd = mesh.num_dofs
    state = solve_coupled(op, np.eye(nd), np.eye(nd))
    assert np.allclose(state.u_fine, 0.0)
    assert np.allclose(state.w_fine, 0.0)


def test_full_test_space_gives_projection(tiny):
    # every edge mode kept: the constraint block enforces Euclidean
    # orthogonality of the trial residual
    r = tiny.topology.r
    theta, _ = tiny.theta(1, r - 1, 1)
    Xi = tiny.trial(1).Xi
    state = solve_coupled(tiny.op, theta, Xi)
    Q = np.linalg.qr(Xi)[0]
    proj = Q @ (Q.T @ tiny.u_ref)
    assert np.linalg.norm(state.u_fine - proj) <= 1e-8 * np.linalg.norm(tiny.u_ref)


def test_error_report_projection_consistency(tiny):
    r = tiny.topology.r
    theta, report = tiny.theta(1, r - 1, 1)
    state = solve_coupled(tiny.op, theta, tiny.trial(1).Xi)
    rep = error_report(
        state, tiny.u_ref, tiny.projection_error(1),
        min_lambda_excluded=report.min_lambda_excluded,
    )
    assert rep.err_ms_pct == pytest.approx(rep.err_proj_pct, abs=1e-6)
    assert rep.min_lambda_excluded == np.inf


def test_error_report_full_trial_space(tiny):
    nd = tiny.mesh.num_dofs
    state = solve_coupled(tiny.op, np.eye(nd), np.eye(nd))
    rep = error_report(state, tiny.u_ref, projection_error(np.eye(nd), tiny.u_ref))
    assert rep.err_ms_pct <= 1e-8
    assert rep.err_proj_pct <= 1e-10


def test_error_report_optimality(tiny):
    theta, _ = tiny.theta(1, 1, 1)
    state = solve_coupled(tiny.op, theta, tiny.trial(1).Xi)
    rep = error_report(state, tiny.u_ref, tiny.projection_error(1))
    assert rep.err_ms_pct >= rep.err_proj_pct - 1e-8


def test_reduced_blocks_symmetric(tiny):
    theta, _ = tiny.theta(1, 2, 2)
    state = solve_coupled(tiny.op, theta, tiny.trial(1).Xi)
    assert abs(state.G_ww - state.G_ww.T).max() <= 1e-10 * abs(state.G_ww).max()


def test_singular_reduced_system_reported(tiny):
    Xi = tiny.trial(1).Xi
    bad = np.hstack([Xi, Xi[:, :1]])  # duplicated trial column
    theta, _ = tiny.theta(1, 3, 1)
    with pytest.raises(SolverFailureError):
        solve_coupled(tiny.op, theta, bad)


def test_infsup_full_test_space_is_one():
    mesh = build_fine_mesh(8)
    op = assemble(mesh, constant_field(kappa=1.0, b=(0.5, 0.2)))
    nd = mesh.num_dofs
    Xi = np.linalg.qr(np.random.default_rng(0).standard_normal((nd, 5)))[0]
    est = infsup_estimate(solve_coupled(op, np.eye(nd), Xi))
    assert est == pytest.approx(1.0, abs=1e-8)


def test_infsup_orthogonal_test_space_is_zero():
    mesh = build_fine_mesh(4)
    op = assemble(mesh, constant_field(kappa=1.0))
    nd = mesh.num_dofs
    Xi = np.eye(nd)[:, :1]
    z = spla.splu(op.A.T.tocsc()).solve(Xi[:, 0])
    g = op.A @ (op.A.T @ z)
    basis = np.linalg.qr(np.eye(nd) - np.outer(g, g) / (g @ g))[0][:, : nd - 1]
    est = infsup_estimate(solve_coupled(op, basis[:, :3], Xi))
    assert est <= 1e-8


def test_infsup_monotone_in_L(tiny):
    Xi = tiny.trial(1).Xi
    vals = []
    for L in (1, 2, 3):
        theta, _ = tiny.theta(1, L, 1)
        vals.append(infsup_estimate(solve_coupled(tiny.op, theta, Xi)))
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12
    assert vals[2] == pytest.approx(1.0, abs=1e-6)  # full edge selection


def _lifted_infsup(op, Theta, Xi):
    """The estimate by its definition: lift each trial column through the
    transposed operator and project it onto the test span."""
    Z = spla.splu(op.A.T.tocsc()).solve(Xi)
    W = op.A.T @ Z
    Y = op.A.T @ Theta
    C = W.T @ Y
    G2 = C @ sla.solve(Y.T @ Y, C.T, assume_a="pos")
    vals = generalized_sym_eig(G2, W.T @ W).values
    return float(np.sqrt(max(vals[0], 0.0)))


@pytest.mark.parametrize("L, problem", [(1, 1), (2, 2), (3, 1)])
def test_infsup_matches_the_lift(tiny, L, problem):
    theta, _ = tiny.theta(1, L, problem)
    Xi = tiny.trial(1).Xi
    est = infsup_estimate(solve_coupled(tiny.op, theta, Xi))
    assert est == pytest.approx(_lifted_infsup(tiny.op, theta, Xi), rel=1e-10)


def test_infsup_matches_the_lift_high_contrast():
    # example 5 (contrast 500) with every edge mode kept: cond(G_ww) ~ 1e9
    ws = Workspace(ExperimentConfig(example=5, nc=8, n=64, m=3, L=7, eigenproblem=2))
    Xi = ws.trial(3).Xi
    for L in (3, 7):
        theta, _ = ws.theta(3, L, 2)
        est = infsup_estimate(solve_coupled(ws.op, theta, Xi))
        assert est == pytest.approx(_lifted_infsup(ws.op, theta, Xi), rel=1e-10)


def test_residual_vanishes_for_exact_test_space(tiny):
    # a test matrix spanning the whole fine space makes the first block
    # equation exact, so the strong residual vanishes
    state = solve_coupled(tiny.op, np.eye(tiny.mesh.num_dofs), tiny.trial(1).Xi)
    res = residual_full(state)
    assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(tiny.op.f)


def test_residual_zero_load():
    mesh = build_fine_mesh(8)
    op = assemble(mesh, constant_field(kappa=1.0, f=0.0))
    nd = mesh.num_dofs
    state = solve_coupled(op, np.eye(nd), np.eye(nd))
    assert np.allclose(residual_full(state), 0.0, atol=1e-12)


def test_online_enrichment_converges(tiny):
    theta, _ = tiny.theta(1, 1, 1)
    state = solve_coupled(tiny.op, theta, tiny.trial(1).Xi)
    history = [np.linalg.norm(residual_full(state))]
    proj = tiny.projection_error(1)
    errs = [error_report(state, tiny.u_ref, proj).err_ms_pct]
    for _ in range(2):
        state, reps = online_enrich(state, tiny.topology, iterations=1)
        history.append(reps[-1].residual_norm)
        errs.append(error_report(state, tiny.u_ref, proj).err_ms_pct)
    assert errs[-1] <= 1.05 * proj
    assert all(history[i + 1] <= history[i] * (1 + 1e-9) for i in range(2))


def test_online_no_columns_when_exact(tiny):
    state = solve_coupled(tiny.op, np.eye(tiny.mesh.num_dofs), tiny.trial(1).Xi)
    enriched, reps = online_enrich(state, tiny.topology, iterations=1)
    assert reps[0].added_columns == 0
    assert enriched.Theta.shape[1] == state.Theta.shape[1]


def test_online_contraction_rate(ws_small):
    # soft regression: the excess over the projection error shrinks after
    # one sweep by at least the factor set by the smallest excluded
    # eigenvalue of the energy-ratio reduction (plus slack)
    theta, report = ws_small.theta(1, 1, 2)
    lam = report.min_lambda_excluded
    state = solve_coupled(ws_small.op, theta, ws_small.trial(1).Xi)
    proj = ws_small.projection_error(1)
    before = error_report(state, ws_small.u_ref, proj)
    state, _ = online_enrich(state, ws_small.topology, iterations=1)
    after = error_report(state, ws_small.u_ref, proj)
    excess_before = before.err_ms_pct - before.err_proj_pct
    excess_after = after.err_ms_pct - after.err_proj_pct
    assert excess_after <= ((1.0 - lam) + 0.1) * excess_before + 1e-12


def test_online_test_space_stays_orthonormal(tiny):
    theta, _ = tiny.theta(1, 1, 1)
    state = solve_coupled(tiny.op, theta, tiny.trial(1).Xi)
    enriched, reps = online_enrich(state, tiny.topology, iterations=2)
    added = sum(rep.added_columns for rep in reps)
    T = enriched.Theta
    assert added > 0 and T.shape[1] == theta.shape[1] + added
    assert abs(T.T @ T - np.eye(T.shape[1])).max() <= 1e-12


def test_online_extension_skips_columns_in_the_test_span(tiny):
    theta, _ = tiny.theta(1, 1, 1)
    rng = np.random.default_rng(3)
    inside = theta[:, :3] @ rng.standard_normal(3)
    outside = rng.standard_normal(theta.shape[0])
    ext = _extend_test_space(theta, sp.csc_matrix(np.column_stack([inside, outside])))
    assert ext.shape[1] == 1
    basis = np.hstack([theta, ext])
    assert abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-12
    # the kept column spans the part of the independent one outside Theta
    resid = outside - theta @ (theta.T @ outside)
    assert np.linalg.norm(resid - ext @ (ext.T @ resid)) <= 1e-12 * np.linalg.norm(resid)


def _online_block(ws, state):
    """The first parity class's accepted online columns, as the loop forms them."""
    nodes = coloring(ws.topology)[0]
    new = coupling._online_columns(state, ws.topology, nodes, residual_full(state), 0.0)
    return _extend_test_space(state.Theta, new)


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def ws_contrast():
    return Workspace(ExperimentConfig(example=5, nc=8, n=64, m=3, L=3, eigenproblem=2))


@pytest.mark.parametrize("name", ["tiny", "ws_contrast"])
def test_bordered_update_matches_a_full_solve(request, name):
    ws = request.getfixturevalue(name)
    m = ws.config.m
    theta, _ = ws.theta(m, ws.config.L, ws.config.eigenproblem)
    state = solve_coupled(ws.op, theta, ws.trial(m).Xi)
    new = _online_block(ws, state)
    assert new.shape[1] > 0
    bordered = append_test_columns(state, new)
    full = solve_coupled(ws.op, np.hstack([theta, new]), ws.trial(m).Xi)
    assert np.array_equal(bordered.Theta, full.Theta)
    for field in ("w_fine", "u_fine", "G_ww", "G_wu", "rhs_w"):
        assert _relative(getattr(bordered, field), getattr(full, field)) <= 1e-10, field
    # the bordered factor is a Cholesky factor of the bordered test block
    R = bordered.R
    assert np.array_equal(R, np.triu(R))
    assert _relative(R.T @ R, full.G_ww) <= 1e-12


def test_online_enrich_makes_no_full_solve(tiny, monkeypatch):
    theta, _ = tiny.theta(1, 1, 1)
    state = solve_coupled(tiny.op, theta, tiny.trial(1).Xi)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_coupled(*args, **kwargs)

    monkeypatch.setattr(coupling, "solve_coupled", counting)
    enriched, reps = online_enrich(state, tiny.topology, iterations=2)
    assert sum(rep.added_columns for rep in reps) > 0
    assert calls == []


def test_appending_a_zero_column_is_a_singular_system(tiny):
    theta, _ = tiny.theta(1, 1, 1)
    state = solve_coupled(tiny.op, theta, tiny.trial(1).Xi)
    with pytest.raises(SolverFailureError, match="singular reduced system"):
        append_test_columns(state, np.zeros((theta.shape[0], 1)))
