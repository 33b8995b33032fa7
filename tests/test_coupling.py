import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mspg import coupling, numerics, test_space
from mspg.assembly import assemble, constant_field
from mspg.coupling import (
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
from mspg.numerics import generalized_sym_eig, orthonormal_row_blocks, orthonormalize_columns


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
    V, _ = tiny.test_matrix(1, r - 1, 1)
    Xi = tiny.trial(1).Xi
    state = solve_coupled(tiny.op, V, Xi)
    Q = np.linalg.qr(Xi.toarray())[0]
    proj = Q @ (Q.T @ tiny.u_ref)
    assert np.linalg.norm(state.u_fine - proj) <= 1e-8 * np.linalg.norm(tiny.u_ref)


def test_error_report_projection_consistency(tiny):
    r = tiny.topology.r
    V, report = tiny.test_matrix(1, r - 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
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
    V, _ = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
    rep = error_report(state, tiny.u_ref, tiny.projection_error(1))
    assert rep.err_ms_pct >= rep.err_proj_pct - 1e-8


def test_reduced_blocks_symmetric(tiny):
    V, _ = tiny.test_matrix(1, 2, 2)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
    # the test block by its definition, from the test functions V T
    Y = tiny.op.A.T @ (state.basis.V @ state.basis.T)
    G_ww = Y.T @ Y
    assert abs(G_ww - G_ww.T).max() <= 1e-10 * abs(G_ww).max()
    assert abs(G_ww - np.eye(state.basis.count)).max() <= 1e-10


def test_singular_reduced_system_reported(tiny):
    Xi = tiny.trial(1).Xi
    bad = sp.hstack([Xi, Xi[:, :1]])  # duplicated trial column
    V, _ = tiny.test_matrix(1, 3, 1)
    with pytest.raises(SolverFailureError):
        solve_coupled(tiny.op, V, bad)


def test_rank_deficient_trial_matrix_is_a_solver_failure(tiny):
    # a trial column that combines two others makes G_wu rank-deficient;
    # the QR of G_wu reports it with the block sizes and the rank
    Xi = tiny.trial(1).Xi
    bad = sp.hstack([Xi, Xi[:, [0]] - 2.0 * Xi[:, [1]]], format="csc")
    V, _ = tiny.test_matrix(1, 3, 1)
    with pytest.raises(SolverFailureError) as err:
        solve_coupled(tiny.op, V, bad)
    M = bad.shape[1]
    assert err.value.exit_code == 3
    assert f"M={M}, rank G_wu {M - 1})" in str(err.value)


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
        V, _ = tiny.test_matrix(1, L, 1)
        vals.append(infsup_estimate(solve_coupled(tiny.op, V, Xi)))
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12
    assert vals[2] == pytest.approx(1.0, abs=1e-6)  # full edge selection


def _lifted_infsup(op, V, Xi):
    """The estimate by its definition: lift each trial column through the
    transposed operator and project it onto the test span A^T Theta, taken
    through a Householder QR of A^T Theta for a Euclidean orthonormal Theta
    (no Gram of A^T Theta, whose condition would square)."""
    _, _, steps = orthonormalize_columns(V)
    Theta = np.vstack([block for _, block in orthonormal_row_blocks(V, steps)])
    Z = spla.splu(op.A.T.tocsc()).solve(Xi.toarray())
    W = op.A.T @ Z
    C = W.T @ np.linalg.qr(op.A.T @ Theta)[0]
    G2 = C @ C.T
    vals = generalized_sym_eig(G2, W.T @ W).values
    return float(np.sqrt(max(vals[0], 0.0)))


@pytest.mark.parametrize("L, problem", [(1, 1), (2, 2), (3, 1)])
def test_infsup_matches_the_lift(tiny, L, problem):
    V, _ = tiny.test_matrix(1, L, problem)
    Xi = tiny.trial(1).Xi
    est = infsup_estimate(solve_coupled(tiny.op, V, Xi))
    assert est == pytest.approx(_lifted_infsup(tiny.op, V, Xi), rel=1e-10)


def test_infsup_matches_the_lift_high_contrast(ws_contrast):
    # example 5 (contrast 500) with every edge mode kept: the Euclidean test
    # basis has cond(A^T Theta)^2 ~ 1e9
    ws = ws_contrast
    Xi = ws.trial(3).Xi
    for L in (3, 7):
        V, _ = ws.test_matrix(3, L, 2)
        est = infsup_estimate(solve_coupled(ws.op, V, Xi))
        assert est == pytest.approx(_lifted_infsup(ws.op, V, Xi), rel=1e-10)


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
    V, _ = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
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
    assert enriched.basis.count == state.basis.count


def test_online_contraction_rate(ws_small):
    # soft regression: the excess over the projection error shrinks after
    # one sweep by at least the factor set by the smallest excluded
    # eigenvalue of the energy-ratio reduction (plus slack)
    V, report = ws_small.test_matrix(1, 1, 2)
    lam = report.min_lambda_excluded
    state = solve_coupled(ws_small.op, V, ws_small.trial(1).Xi)
    proj = ws_small.projection_error(1)
    before = error_report(state, ws_small.u_ref, proj)
    state, _ = online_enrich(state, ws_small.topology, iterations=1)
    after = error_report(state, ws_small.u_ref, proj)
    excess_before = before.err_ms_pct - before.err_proj_pct
    excess_after = after.err_ms_pct - after.err_proj_pct
    assert excess_after <= ((1.0 - lam) + 0.1) * excess_before + 1e-12


def test_online_test_space_stays_orthonormal(tiny, basis_q):
    V, _ = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
    enriched, reps = online_enrich(state, tiny.topology, iterations=2)
    added = sum(rep.added_columns for rep in reps)
    basis = enriched.basis
    Q = basis_q()  # the offline block, then every online block Q_n
    assert added > 0 and Q.shape[1] == state.basis.count + added
    assert abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-12
    assert _relative(tiny.op.A.T @ (basis.V @ basis.T), Q) <= 1e-10


def test_online_extension_skips_columns_in_the_test_span(tiny, basis_q):
    V, _ = tiny.test_matrix(1, 1, 1)
    basis = test_space.test_basis(tiny.op, V)
    rng = np.random.default_rng(3)
    inside = V @ (basis.T[:, :3] @ rng.standard_normal(3))
    outside = rng.standard_normal(V.shape[0])
    ext = test_space.extend_test_basis(basis, tiny.op, np.column_stack([inside, outside]))
    assert ext.count == basis.count + 1 and ext.V.shape[1] == V.shape[1] + 1
    Q = basis_q()
    assert abs(Q.T @ Q - np.eye(ext.count)).max() <= 1e-12
    assert _relative(tiny.op.A.T @ (ext.V @ ext.T), Q) <= 1e-10
    # the kept column spans the part of A^T outside that lies outside A^T Theta
    y = tiny.op.A.T @ outside
    Q_0 = Q[:, : basis.count]
    resid = y - Q_0 @ (Q_0.T @ y)
    Q_n = Q[:, basis.count :]
    assert np.linalg.norm(resid - Q_n @ (Q_n.T @ resid)) <= 1e-12 * np.linalg.norm(resid)


def _online_block(ws, state):
    """The first parity class's raw online columns, as the loop forms them."""
    nodes = coloring(ws.topology)[0]
    return coupling._online_columns(state, ws.topology, nodes, residual_full(state), 0.0)


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("name", ["tiny", "ws_contrast"])
def test_bordered_update_matches_a_full_solve(request, name, basis_q):
    ws = request.getfixturevalue(name)
    m = ws.config.m
    V, _ = ws.test_matrix(m, ws.config.L, ws.config.eigenproblem)
    state = solve_coupled(ws.op, V, ws.trial(m).Xi)
    new = _online_block(ws, state)
    assert new.shape[1] > 0
    bordered = append_test_columns(state, new)
    bordered_q = basis_q()  # the offline block, then the online block Q_n
    full = solve_coupled(ws.op, sp.hstack([V, new]), ws.trial(m).Xi)
    assert bordered.basis.count == full.basis.count > state.basis.count
    for field in ("w_fine", "u_fine", "G_wu", "rhs_w"):
        assert _relative(getattr(bordered, field), getattr(full, field)) <= 1e-10, field
    # the grown basis is the one the full solve orthonormalizes, to the
    # kernel's own reproducibility of a Q factor: on example 5 the scaled
    # A^T V has condition ~3e8, and a sparse and a dense copy of it give Q
    # factors 5e-11 apart
    bound = 1e-12 if name == "tiny" else 1e-10
    assert _relative(bordered_q, basis_q()) <= bound


@pytest.mark.parametrize("name, bound", [("tiny", 1e-12), ("ws_contrast", 1e-10)])
def test_kernel_over_several_row_blocks_matches_one_block(request, monkeypatch, name, bound):
    # the kernel's Grams are sums over row blocks of A^T V C^{-1} (then
    # R_1^{-1}); a budget of about a seventh of the rows changes only their
    # summation order
    ws = request.getfixturevalue(name)
    m = ws.config.m
    AtV = (ws.op.A.T @ ws.test_matrix(m, ws.config.L, ws.config.eigenproblem)[0]).tocsc()
    monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 8 * AtV.shape[1] * AtV.shape[0])
    T, kept, steps = orthonormalize_columns(AtV)
    assert len(list(orthonormal_row_blocks(AtV, steps))) == 1
    monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 8 * AtV.shape[1] * (AtV.shape[0] // 7))
    T_b, kept_b, steps_b = orthonormalize_columns(AtV)
    blocks = list(orthonormal_row_blocks(AtV, steps_b))
    assert len(blocks) >= 7
    assert np.array_equal(kept_b, kept)
    assert np.abs(T_b - T).max() <= 1e-13 * np.abs(T).max()
    Q = np.vstack([block for _, block in blocks])
    assert np.abs(Q.T @ Q - np.eye(kept.size)).max() <= bound


def test_no_array_with_a_row_per_fine_dof_is_held(tiny):
    # the test basis is the sparse V and A^T V with the small T: after an
    # offline solve, a leading block and two online sweeps, no state or
    # basis field is a dense array with one row per fine dof
    N, Xi = tiny.mesh.num_dofs, tiny.trial(1).Xi
    group = solve_coupled(tiny.op, tiny.test_matrix(1, 3, 1)[0], Xi)
    cell = coupling.leading_block(group, tiny.test_matrix(1, 1, 1)[0].shape[1])
    enriched, reports = online_enrich(cell, tiny.topology, iterations=2)
    assert sum(rep.added_columns for rep in reports) > 0
    for state in (group, cell, enriched):
        for holder in (state, state.basis):
            for field in dataclasses.fields(holder):
                value = getattr(holder, field.name)
                assert not (
                    isinstance(value, np.ndarray) and value.ndim == 2 and value.shape[0] == N
                ), field.name


def test_online_enrich_makes_no_full_solve(tiny, monkeypatch):
    V, _ = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
    solves, blocks, widths = [], [], []
    online_columns, kernel = coupling._online_columns, test_space.orthonormalize_columns

    def counting(*args, **kwargs):
        solves.append(args)
        return solve_coupled(*args, **kwargs)

    def recording(*args):
        new = online_columns(*args)
        blocks.append(new.shape[1])
        return new

    def counting_kernel(X, *args, **kwargs):
        widths.append(X.shape[1])
        return kernel(X, *args, **kwargs)

    monkeypatch.setattr(coupling, "solve_coupled", counting)
    monkeypatch.setattr(coupling, "_online_columns", recording)
    monkeypatch.setattr(test_space, "orthonormalize_columns", counting_kernel)
    enriched, reps = online_enrich(state, tiny.topology, iterations=2)
    assert sum(rep.added_columns for rep in reps) > 0
    assert solves == []
    # one orthonormalization per parity class, of at most its online block
    assert len(widths) == len(blocks) == 2 * len(coloring(tiny.topology))
    assert all(w <= b for w, b in zip(widths, blocks))


@pytest.mark.parametrize("kind", ["zero", "in_span"])
def test_appending_columns_in_the_test_span_changes_nothing(tiny, kind):
    V, _ = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
    coefficients = np.random.default_rng(4).standard_normal(state.basis.count)
    column = V @ (state.basis.T @ coefficients) if kind == "in_span" else np.zeros(V.shape[0])
    assert append_test_columns(state, column[:, None]) is state


def test_solution_depends_on_the_test_span_only(tiny):
    V, _ = tiny.test_matrix(1, 2, 2)
    Xi = tiny.trial(1).Xi
    M = np.random.default_rng(5).standard_normal((V.shape[1], V.shape[1]))
    a, b = solve_coupled(tiny.op, V, Xi), solve_coupled(tiny.op, V @ M, Xi)
    for field in ("u_fine", "w_fine"):
        assert _relative(getattr(b, field), getattr(a, field)) <= 1e-10, field
    proj = tiny.projection_error(1)
    rep_a, rep_b = error_report(a, tiny.u_ref, proj), error_report(b, tiny.u_ref, proj)
    for field in ("err_ms_pct", "w_norm"):
        assert getattr(rep_b, field) == pytest.approx(getattr(rep_a, field), rel=1e-10)


@pytest.mark.parametrize("name, m, L, problem", [("tiny", 1, 3, 1), ("ws_contrast", 3, 7, 2)])
def test_w_fine_is_the_adjoint_lift_of_the_test_coefficients(
    request, basis_q, name, m, L, problem
):
    # A^T Theta = Q, so the fine test function is w_fine = A^{-T} Q w
    ws = request.getfixturevalue(name)
    V, _ = ws.test_matrix(m, L, problem)
    state = solve_coupled(ws.op, V, ws.trial(m).Xi)
    lift = spla.splu(ws.op.A.T.tocsc()).solve(basis_q() @ state.w)
    assert _relative(state.w_fine, lift) <= 1e-10


@pytest.mark.parametrize("name", ["tiny", "ws_contrast"])
def test_leading_block_matches_the_solve_on_its_own_test_matrix(request, name):
    # V(L) is the leading block of V(L_max), so the rows G_wu[:n] and
    # rhs_w[:n] of the larger solve give the solve on V(L)
    ws = request.getfixturevalue(name)
    m, problem, L_max = ws.config.m, ws.config.eigenproblem, ws.topology.r - 1
    Xi, proj = ws.trial(m).Xi, ws.projection_error(m)
    group = solve_coupled(ws.op, ws.test_matrix(m, L_max, problem)[0], Xi)
    for L in range(1, L_max):
        V, _ = ws.test_matrix(m, L, problem)
        cell = coupling.leading_block(group, V.shape[1])
        own = solve_coupled(ws.op, V, Xi)
        assert cell is not None and cell.basis.count == own.basis.count
        assert np.shares_memory(cell.basis.T, group.basis.T)
        rep_cell, rep_own = error_report(cell, ws.u_ref, proj), error_report(own, ws.u_ref, proj)
        for field in ("err_ms_pct", "w_norm"):
            assert getattr(rep_cell, field) == pytest.approx(getattr(rep_own, field), rel=1e-10)
        assert _relative(cell.u_fine, own.u_fine) <= 1e-10


def test_a_dropped_leading_column_takes_its_own_solve(tiny, monkeypatch):
    # a copy of a W2 column sits in the leading columns of every V(L); the
    # kernel drops one of the two, so no leading block spans a smaller V(L)
    w2 = tiny.w2()
    doubled = test_space.VertexTraceSet(
        columns=sp.hstack([w2.columns, w2.columns[:, [0]]], format="csc"),
        node_ids=np.append(w2.node_ids, w2.node_ids[0]),
    )
    monkeypatch.setattr(tiny, "w2", lambda: doubled)
    widths, kernel = [], test_space.orthonormalize_columns

    def counting_kernel(X, *args, **kwargs):
        widths.append(X.shape[1])
        return kernel(X, *args, **kwargs)

    monkeypatch.setattr(test_space, "orthonormalize_columns", counting_kernel)
    rows = tiny.run_cell(1, [1, 2], 1)
    sizes = [tiny.test_matrix(1, L, 1)[0].shape[1] for L in (3, 1, 2)]
    assert widths[:3] == sizes  # the group's V(3), then each V(L) on its own
    Xi, proj = tiny.trial(1).Xi, tiny.projection_error(1)
    for row, L in zip(rows, (1, 2)):
        own = error_report(solve_coupled(tiny.op, tiny.test_matrix(1, L, 1)[0], Xi), tiny.u_ref, proj)
        assert (row.L_test, row.err_ms_pct) == (L, pytest.approx(own.err_ms_pct, rel=1e-12))
        assert row.w_norm == pytest.approx(own.w_norm, rel=1e-12)


def test_online_sweep_on_a_leading_block_leaves_the_group_unchanged(tiny):
    Xi = tiny.trial(1).Xi
    group = solve_coupled(tiny.op, tiny.test_matrix(1, 3, 1)[0], Xi)
    held = lambda: (group.basis.AtV.toarray(), group.basis.T, group.G_wu, group.rhs_w)
    before = [a.copy() for a in held()]
    cell = coupling.leading_block(group, tiny.test_matrix(1, 1, 1)[0].shape[1])
    assert np.shares_memory(cell.basis.T, group.basis.T)
    enriched, reports = online_enrich(cell, tiny.topology, iterations=2)
    assert sum(rep.added_columns for rep in reports) > 0
    after = held()
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
