import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mspg import coupling, numerics, test_space
from mspg.assembly import assemble, constant_field
from mspg.harness import run_experiment, sweep_experiment
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
from mspg.numerics import (
    apply_coefficients,
    coefficient_product,
    form_coefficients,
    generalized_sym_eig,
    orthonormal_row_blocks,
    orthonormalize_columns,
)


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
    V = tiny.test_matrix(1, r - 1, 1)
    Xi = tiny.trial(1).Xi
    state = solve_coupled(tiny.op, V, Xi)
    Q = np.linalg.qr(Xi.toarray())[0]
    proj = Q @ (Q.T @ tiny.u_ref)
    assert np.linalg.norm(state.u_fine - proj) <= 1e-8 * np.linalg.norm(tiny.u_ref)


def test_error_report_projection_consistency(tiny):
    r = tiny.topology.r
    V = tiny.test_matrix(1, r - 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
    rep = error_report(
        state, tiny.u_ref, tiny.projection_error(1),
        min_lambda_excluded=min(s.excluded(r - 1) for s in tiny.edge_spectra(1, r - 1)),
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
    V = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
    rep = error_report(state, tiny.u_ref, tiny.projection_error(1))
    assert rep.err_ms_pct >= rep.err_proj_pct - 1e-8


def test_reduced_blocks_symmetric(tiny):
    V = tiny.test_matrix(1, 2, 2)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
    # the test block by its definition, from the test functions V T
    Y = tiny.op.A.T @ (state.basis.V @ form_coefficients(state.basis.steps))
    G_ww = Y.T @ Y
    assert abs(G_ww - G_ww.T).max() <= 1e-10 * abs(G_ww).max()
    assert abs(G_ww - np.eye(state.basis.count)).max() <= 1e-10


def test_singular_reduced_system_reported(tiny):
    Xi = tiny.trial(1).Xi
    bad = sp.hstack([Xi, Xi[:, :1]])  # duplicated trial column
    V = tiny.test_matrix(1, 3, 1)
    with pytest.raises(SolverFailureError):
        solve_coupled(tiny.op, V, bad)


def test_rank_deficient_trial_matrix_is_a_solver_failure(tiny):
    # a trial column that combines two others makes G_wu rank-deficient;
    # the QR of G_wu reports it with the block sizes and the rank
    Xi = tiny.trial(1).Xi
    bad = sp.hstack([Xi, Xi[:, [0]] - 2.0 * Xi[:, [1]]], format="csc")
    V = tiny.test_matrix(1, 3, 1)
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
        V = tiny.test_matrix(1, L, 1)
        vals.append(infsup_estimate(solve_coupled(tiny.op, V, Xi)))
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12
    assert vals[2] == pytest.approx(1.0, abs=1e-6)  # full edge selection


def _lifted_infsup(op, V, Xi):
    """The estimate by its definition: lift each trial column through the
    transposed operator and project it onto the test span A^T Theta, taken
    through a Householder QR of A^T Theta for a Euclidean orthonormal Theta
    (no Gram of A^T Theta, whose condition would square)."""
    _, steps = orthonormalize_columns(V)
    Theta = np.vstack([block for _, block in orthonormal_row_blocks(V, steps)])
    Z = spla.splu(op.A.T.tocsc()).solve(Xi.toarray())
    W = op.A.T @ Z
    C = W.T @ np.linalg.qr(op.A.T @ Theta)[0]
    G2 = C @ C.T
    vals = generalized_sym_eig(G2, W.T @ W).values
    return float(np.sqrt(max(vals[0], 0.0)))


@pytest.mark.parametrize("L, problem", [(1, 1), (2, 2), (3, 1)])
def test_infsup_matches_the_lift(tiny, L, problem):
    V = tiny.test_matrix(1, L, problem)
    Xi = tiny.trial(1).Xi
    est = infsup_estimate(solve_coupled(tiny.op, V, Xi))
    assert est == pytest.approx(_lifted_infsup(tiny.op, V, Xi), rel=1e-10)


def test_infsup_matches_the_lift_high_contrast(ws_contrast):
    # example 5 (contrast 500) with every edge mode kept: the Euclidean test
    # basis has cond(A^T Theta)^2 ~ 1e9
    ws = ws_contrast
    Xi = ws.trial(3).Xi
    for L in (3, 7):
        V = ws.test_matrix(3, L, 2)
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
    V = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
    history = [np.linalg.norm(residual_full(state))]
    proj = tiny.projection_error(1)
    errs = [error_report(state, tiny.u_ref, proj).err_ms_pct]
    for _ in range(2):
        *_, state = online_enrich(state, tiny.topology, 1)
        history.append(np.linalg.norm(residual_full(state)))
        errs.append(error_report(state, tiny.u_ref, proj).err_ms_pct)
    assert errs[-1] <= 1.05 * proj
    assert all(history[i + 1] <= history[i] * (1 + 1e-9) for i in range(2))


def test_online_no_columns_when_exact(tiny):
    state = solve_coupled(tiny.op, np.eye(tiny.mesh.num_dofs), tiny.trial(1).Xi)
    *_, enriched = online_enrich(state, tiny.topology, 1)
    assert enriched.basis.count == state.basis.count


def test_online_contraction_rate(ws_small):
    # soft regression: the excess over the projection error shrinks after
    # one sweep by at least the factor set by the smallest excluded
    # eigenvalue of the energy-ratio reduction (plus slack)
    V = ws_small.test_matrix(1, 1, 2)
    lam = min(s.excluded(1) for s in ws_small.edge_spectra(2))
    state = solve_coupled(ws_small.op, V, ws_small.trial(1).Xi)
    proj = ws_small.projection_error(1)
    before = error_report(state, ws_small.u_ref, proj)
    *_, state = online_enrich(state, ws_small.topology, 1)
    after = error_report(state, ws_small.u_ref, proj)
    excess_before = before.err_ms_pct - before.err_proj_pct
    excess_after = after.err_ms_pct - after.err_proj_pct
    assert excess_after <= ((1.0 - lam) + 0.1) * excess_before + 1e-12


def test_online_test_space_stays_orthonormal(tiny, basis_q):
    V = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi, *tiny.image_structure(1))
    *_, enriched = online_enrich(state, tiny.topology, 2)
    basis = enriched.basis
    added = basis.count - state.basis.count
    Q = basis_q()  # the offline block, then every online block Q_n
    assert added > 0 and Q.shape[1] == state.basis.count + added
    assert abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-12
    assert _relative(tiny.op.A.T @ (basis.V @ form_coefficients(basis.steps)), Q) <= 1e-10


def test_online_extension_skips_columns_in_the_test_span(tiny, basis_q):
    V = tiny.test_matrix(1, 1, 1)
    basis = test_space.test_basis(tiny.op, V, *tiny.image_structure(1))
    rng = np.random.default_rng(3)
    inside = V @ (form_coefficients(basis.steps)[:, :3] @ rng.standard_normal(3))
    outside = rng.standard_normal(V.shape[0])
    new = np.column_stack([inside, outside])
    ext = test_space.extend_test_basis(basis, tiny.op, new, _storage(basis, 2))
    assert ext.count == basis.count + 1 and ext.V.shape[1] == V.shape[1] + 1
    Q = basis_q()
    assert abs(Q.T @ Q - np.eye(ext.count)).max() <= 1e-12
    assert _relative(tiny.op.A.T @ (ext.V @ form_coefficients(ext.steps)), Q) <= 1e-10
    # the kept column spans the part of A^T outside that lies outside A^T Theta
    y = tiny.op.A.T @ outside
    Q_0 = Q[:, : basis.count]
    resid = y - Q_0 @ (Q_0.T @ y)
    Q_n = Q[:, basis.count :]
    assert np.linalg.norm(resid - Q_n @ (Q_n.T @ resid)) <= 1e-12 * np.linalg.norm(resid)


def _online_block(ws, state):
    """The first parity class's raw online columns, as a one-sweep loop forms
    them: each node's A_I A_I^T sliced from A A^T, factored one-shot."""
    gram = (ws.op.A @ ws.op.A.T).tocsr()
    factor = lambda node, I: numerics.CheckedFactor(gram[I][:, I], held=False, spd=True)
    nodes = coloring(ws.topology)[0]
    return coupling._online_columns(state, ws.topology, nodes, residual_full(state), 0.0, factor)


def _storage(basis, room):
    """Fortran storage holding the T of ``basis`` with ``room`` spare rows
    and columns, zero elsewhere, as the online loop makes it."""
    rows = basis.V.shape[1]
    out = np.zeros((rows + room, basis.count + room), order="F")
    form_coefficients(basis.steps, out=out)
    return out


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("name", ["tiny", "ws_contrast"])
def test_bordered_update_matches_a_full_solve(request, name, basis_q):
    ws = request.getfixturevalue(name)
    m = ws.config.m
    V = ws.test_matrix(m, ws.config.L, ws.config.eigenproblem)
    interiors, harmonic_from = ws.image_structure(m)
    state = solve_coupled(ws.op, V, ws.trial(m).Xi, interiors, harmonic_from)
    new = _online_block(ws, state)
    assert new.shape[1] > 0
    bordered = append_test_columns(state, new, _storage(state.basis, new.shape[1]))
    bordered_q = basis_q()  # the offline block, then the online block Q_n
    # the online columns are not adjoint-harmonic: no column is marked
    full = solve_coupled(ws.op, sp.hstack([V, new]), ws.trial(m).Xi, interiors)
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
def test_an_unstructured_test_matrix_gets_the_plain_kernel(request, name, bound):
    ws = request.getfixturevalue(name)
    m = ws.config.m
    interiors, harmonic_from = ws.image_structure(m)
    # the identity stores more columns than rows in every block: nothing to compress
    identity = sp.identity(ws.mesh.num_dofs, format="csc")
    kept, steps = orthonormalize_columns((ws.op.A.T @ identity).tocsc())
    basis = test_space.test_basis(ws.op, identity, interiors)
    assert np.array_equal(basis.kept, kept)
    assert all(np.array_equal(a, b) for a, b in zip(basis.steps, steps, strict=True))
    # online columns beside the test matrix, with no column marked harmonic
    V = ws.test_matrix(m, ws.config.L, ws.config.eigenproblem)
    state = solve_coupled(ws.op, V, ws.trial(m).Xi, interiors, harmonic_from)
    VX = sp.hstack([V, _online_block(ws, state)], format="csc")
    kept, steps = orthonormalize_columns((ws.op.A.T @ VX).tocsc())
    basis = test_space.test_basis(ws.op, VX, interiors)
    assert np.array_equal(basis.kept, kept)
    T = form_coefficients(steps)
    assert np.abs(form_coefficients(basis.steps) - T).max() <= bound * np.abs(T).max()


@pytest.mark.parametrize("name, bound", [("tiny", 1e-12), ("ws_contrast", 1e-10)])
def test_kernel_over_several_row_blocks_matches_one_block(request, monkeypatch, name, bound):
    # the kernel's Grams are sums over row blocks of its input, the block-
    # compressed A^T V, times C^{-1} (then R_1^{-1}); a budget of about a
    # seventh of the rows changes only their summation order
    ws = request.getfixturevalue(name)
    m = ws.config.m
    interiors, harmonic_from = ws.image_structure(m)
    V = ws.test_matrix(m, ws.config.L, ws.config.eigenproblem)
    image = test_space.compressed_image(
        test_space.adjoint_image(ws.op, V, interiors, harmonic_from), interiors
    )
    X = image.rows
    monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 8 * X.shape[1] * X.shape[0])
    kept, steps = orthonormalize_columns(X)
    assert len(list(orthonormal_row_blocks(X, steps))) == 1
    monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 8 * X.shape[1] * (X.shape[0] // 7))
    kept_b, steps_b = orthonormalize_columns(X)
    blocks = list(orthonormal_row_blocks(X, steps_b))
    assert len(blocks) >= 7
    assert np.array_equal(kept_b, kept)
    T, T_b = form_coefficients(steps), form_coefficients(steps_b)
    assert np.abs(T_b - T).max() <= 1e-13 * np.abs(T).max()
    Q = image.lift(np.vstack([block for _, block in blocks]))  # in fine-dof rows
    assert np.abs(Q.T @ Q - np.eye(kept.size)).max() <= bound


def test_the_held_second_pass_matches_the_streamed_one(ws_contrast, monkeypatch):
    # the compressed image of example 5 takes two CholeskyQR passes, and its
    # V C fits in one row block, so the second pass solves the V C of the
    # first in place; streamed over row blocks, the same pass differs in the
    # summation order of its Gram only
    ws = ws_contrast
    V = ws.test_matrix(ws.config.m, ws.config.L, ws.config.eigenproblem)
    interiors, harmonic_from = ws.image_structure(ws.config.m)
    X = test_space.compressed_image(
        test_space.adjoint_image(ws.op, V, interiors, harmonic_from), interiors
    ).rows
    assert 8 * X.shape[0] * X.shape[1] <= numerics.ROW_BLOCK_BYTES
    kept, steps = orthonormalize_columns(X)
    assert len(steps) == 3
    monkeypatch.setattr(numerics, "ROW_BLOCK_BYTES", 8 * X.shape[1] * (X.shape[0] // 2))
    blocks = [block for _, block in orthonormal_row_blocks(X, steps[:2])]
    assert len(blocks) >= 2
    R_2 = numerics._cholesky_upper(numerics._gram_pass(blocks, kept.size))
    assert np.abs(R_2 - steps[2]).max() <= 1e-13 * np.abs(steps[2]).max()
    kept_s, steps_s = orthonormalize_columns(X)  # every pass streamed
    assert np.array_equal(kept_s, kept) and len(steps_s) == 3
    T, T_s = form_coefficients(steps), form_coefficients(steps_s)
    assert np.abs(T_s - T).max() <= 1e-13 * np.abs(T).max()


@pytest.mark.parametrize("name", ["tiny", "ws_contrast"])
def test_the_kernel_order_products_match_the_formed_t(request, name):
    # T = C R_1^{-1} [R_2^{-1}] applied factor by factor, for the full basis
    # and for a leading block, whose steps are views of the leading factors
    ws = request.getfixturevalue(name)
    m, problem = ws.config.m, ws.config.eigenproblem
    group = solve_coupled(
        ws.op, ws.test_matrix(m, ws.topology.r - 1, problem), ws.trial(m).Xi,
        *ws.image_structure(m),
    )
    n = ws.test_matrix(m, 1, problem).shape[1]
    cell = coupling.leading_block(group, n)
    assert cell is not None and cell.basis.count == n < group.basis.count
    rng = np.random.default_rng(6)
    for state in (group, cell):
        steps = state.basis.steps
        T = form_coefficients(steps)
        for w in (state.w, rng.standard_normal((state.basis.count, 3))):
            assert _relative(apply_coefficients(steps, w), T @ w) <= 1e-13
        Z = rng.standard_normal((T.shape[0], 3))
        assert _relative(coefficient_product(steps, Z), T.T @ Z) <= 1e-13
    T = form_coefficients(group.basis.steps)
    assert _relative(form_coefficients(cell.basis.steps), T[:n, :n]) <= 1e-13
    assert not T[n:, :n].any()  # T is upper triangular


@pytest.mark.parametrize("m", [1, 3])
def test_projection_error_matches_the_row_block_formula(ws_contrast, m):
    # Q = Xi T regenerated row block by row block, as the projection was
    # formed before it went through the kernel-order products
    Xi, u = ws_contrast.trial(m).Xi, ws_contrast.u_ref
    _, steps = orthonormalize_columns(Xi)
    coefficients = sum(Q.T @ u[rows] for rows, Q in orthonormal_row_blocks(Xi, steps))
    projection = np.concatenate([Q @ coefficients for _, Q in orthonormal_row_blocks(Xi, steps)])
    expected = 100.0 * np.linalg.norm(u - projection) / np.linalg.norm(u)
    assert projection_error(Xi, u) == pytest.approx(expected, rel=1e-13)


def _forming_spy(monkeypatch):
    """(rows, columns) of every T formed from a kernel's factors from here
    on; an explicit one-factor T is not formed."""
    shapes, form = [], numerics.form_coefficients

    def spying(steps, out=None):
        if len(steps) > 1:
            shapes.append((steps[0].shape[0], steps[-1].shape[1]))
        return form(steps, out)

    for module in (numerics, test_space, coupling):
        if hasattr(module, "form_coefficients"):
            monkeypatch.setattr(module, "form_coefficients", spying)
    return shapes


def test_no_t_is_formed_offline(tiny, ws_contrast, monkeypatch):
    shapes = _forming_spy(monkeypatch)
    assert len(run_experiment(dataclasses.replace(tiny.config, online_iters=0))) == 1
    assert shapes == []
    rows = sweep_experiment(ws_contrast.config, [3], [1, 3], [1, 2], online_iters=0)
    assert len(rows) == 4 and shapes == []


def test_the_online_loop_forms_t_once_per_cell(tiny, monkeypatch):
    # the loop forms the cell's offline T as it starts, and every extension
    # grows the explicit T; the other forms are the online blocks' own T_n
    shapes = _forming_spy(monkeypatch)
    sizes = [tiny.test_matrix(1, L, 1).shape[1] for L in (1, 3)]
    rows = tiny.run_cell(1, [1, 3], 1, online_iters=1)
    assert [row.online_iter for row in rows] == [0, 1, 0, 1]
    offline = [shape for shape in shapes if shape[0] in sizes]
    assert offline == [(n, n) for n in sizes]
    assert len(shapes) > len(offline)
    assert all(max(shape) < sizes[0] for shape in shapes if shape not in offline)


def test_no_array_with_a_row_per_fine_dof_is_held(tiny):
    # the test basis is the sparse V and A^T V with the small T: after an
    # offline solve, a leading block and two online sweeps, no state or
    # basis field is a dense array with one row per fine dof
    N, Xi = tiny.mesh.num_dofs, tiny.trial(1).Xi
    group = solve_coupled(tiny.op, tiny.test_matrix(1, 3, 1), Xi)
    cell = coupling.leading_block(group, tiny.test_matrix(1, 1, 1).shape[1])
    *_, enriched = online_enrich(cell, tiny.topology, 2)
    assert enriched.basis.count > cell.basis.count
    for state in (group, cell, enriched):
        for holder in (state, state.basis):
            for field in dataclasses.fields(holder):
                value = getattr(holder, field.name)
                assert not (
                    isinstance(value, np.ndarray) and value.ndim == 2 and value.shape[0] == N
                ), field.name


def test_online_enrich_makes_no_full_solve(tiny, monkeypatch):
    V = tiny.test_matrix(1, 1, 1)
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
    *_, enriched = online_enrich(state, tiny.topology, 2)
    assert enriched.basis.count > state.basis.count
    assert solves == []
    # one orthonormalization per parity class, of at most its online block
    assert len(widths) == len(blocks) == 2 * len(coloring(tiny.topology))
    assert all(w <= b for w, b in zip(widths, blocks))


@pytest.mark.parametrize("kind", ["zero", "in_span"])
def test_appending_columns_in_the_test_span_changes_nothing(tiny, kind):
    V = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1).Xi)
    coefficients = np.random.default_rng(4).standard_normal(state.basis.count)
    T = form_coefficients(state.basis.steps)
    column = V @ (T @ coefficients) if kind == "in_span" else np.zeros(V.shape[0])
    assert append_test_columns(state, column[:, None], _storage(state.basis, 1)) is state


def test_solution_depends_on_the_test_span_only(tiny):
    V = tiny.test_matrix(1, 2, 2)
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
    V = ws.test_matrix(m, L, problem)
    state = solve_coupled(ws.op, V, ws.trial(m).Xi, *ws.image_structure(m))
    lift = spla.splu(ws.op.A.T.tocsc()).solve(basis_q() @ state.w)
    assert _relative(state.w_fine, lift) <= 1e-10


@pytest.mark.parametrize("name", ["tiny", "ws_contrast"])
def test_leading_block_matches_the_solve_on_its_own_test_matrix(request, name):
    # V(L) is the leading block of V(L_max), so the rows G_wu[:n] and
    # rhs_w[:n] of the larger solve give the solve on V(L)
    ws = request.getfixturevalue(name)
    m, problem, L_max = ws.config.m, ws.config.eigenproblem, ws.topology.r - 1
    Xi, proj = ws.trial(m).Xi, ws.projection_error(m)
    group = solve_coupled(ws.op, ws.test_matrix(m, L_max, problem), Xi)
    for L in range(1, L_max):
        V = ws.test_matrix(m, L, problem)
        cell = coupling.leading_block(group, V.shape[1])
        own = solve_coupled(ws.op, V, Xi)
        assert cell is not None and cell.basis.count == own.basis.count
        assert all(map(np.shares_memory, cell.basis.steps, group.basis.steps))
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
    sizes = [tiny.test_matrix(1, L, 1).shape[1] for L in (3, 1, 2)]
    assert widths[:3] == sizes  # the group's V(3), then each V(L) on its own
    Xi, proj = tiny.trial(1).Xi, tiny.projection_error(1)
    for row, L in zip(rows, (1, 2)):
        own = error_report(solve_coupled(tiny.op, tiny.test_matrix(1, L, 1), Xi), tiny.u_ref, proj)
        assert (row.L_test, row.err_ms_pct) == (L, pytest.approx(own.err_ms_pct, rel=1e-12))
        assert row.w_norm == pytest.approx(own.w_norm, rel=1e-12)


def test_online_sweep_on_a_leading_block_leaves_the_group_unchanged(tiny):
    Xi = tiny.trial(1).Xi
    group = solve_coupled(tiny.op, tiny.test_matrix(1, 3, 1), Xi)
    held = lambda: (group.basis.AtV.toarray(), *group.basis.steps, group.G_wu, group.rhs_w)
    before = [a.copy() for a in held()]
    cell = coupling.leading_block(group, tiny.test_matrix(1, 1, 1).shape[1])
    assert all(map(np.shares_memory, cell.basis.steps, group.basis.steps))
    *_, enriched = online_enrich(cell, tiny.topology, 2)
    assert enriched.basis.count > cell.basis.count
    after = held()
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


def _factor_spy(monkeypatch):
    """(label, held, weak reference) of every online factor made from here
    on; the workspace's block factors are made elsewhere."""
    made = []

    class Spying(numerics.CheckedFactor):
        def __init__(self, K, label="", held=True, spd=False):
            super().__init__(K, label, held, spd)
            made.append((label, held, weakref.ref(self)))

    monkeypatch.setattr(coupling, "CheckedFactor", Spying)
    return made


def _all_released(made):
    gc.collect()
    return all(ref() is None for _, _, ref in made)


def test_a_cell_factors_each_online_node_once(tiny, monkeypatch):
    made = _factor_spy(monkeypatch)
    alive = []  # online factors alive as each local solve asks for its factor
    columns = coupling._online_columns

    def counting(*args):
        *rest, factor = args

        def counted(node, I):
            alive.append(sum(ref() is not None for _, _, ref in made))
            return factor(node, I)

        return columns(*rest, counted)

    monkeypatch.setattr(coupling, "_online_columns", counting)
    rows = tiny.run_cell(1, 1, 1, online_iters=2)
    assert [row.online_iter for row in rows] == [0, 1, 2]
    labels = [label for label, _, _ in made]
    assert labels and len(set(labels)) == len(labels)
    # held for the second sweep, which drops each one after its solve
    assert all(held for _, held, _ in made)
    nodes = len(labels)
    assert alive == list(range(nodes)) + list(range(nodes, 0, -1))
    assert _all_released(made)


def test_a_one_sweep_cell_holds_no_factor(tiny, monkeypatch):
    made = _factor_spy(monkeypatch)
    tiny.run_cell(1, 1, 1, online_iters=1)
    assert made and not any(held for _, held, _ in made)
    assert _all_released(made)


def test_the_offline_factors_are_released_before_the_first_online_factor(tiny, monkeypatch):
    # run_cell rebinds its state to the loop's first yield, which holds the
    # formed T alone, so the kernel's factors of the cell's offline solve
    # (views of the group's, or the group's own for the largest L) are dead
    # before the loop factors a node
    offline, released = [], []
    leading = coupling.leading_block

    def spying(group, n):
        cell = leading(group, n)
        offline.append([weakref.ref(step) for step in cell.basis.steps])
        return cell

    class Spying(numerics.CheckedFactor):
        def __init__(self, *args, **kwargs):
            gc.collect()
            released.append(all(ref() is None for ref in offline[-1]))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(coupling, "leading_block", spying)
    monkeypatch.setattr(coupling, "CheckedFactor", Spying)
    rows = tiny.run_cell(1, [1, 3], 1, online_iters=2)
    assert [row.online_iter for row in rows] == [0, 1, 2] * 2
    assert len(offline) == 2 and released and all(released)


@pytest.mark.parametrize("sweeps, skip_last", [(1, False), (2, False), (2, True)])
def test_no_gram_and_no_last_sweep_factor_is_alive_at_a_yield(
    tiny, monkeypatch, sweeps, skip_last
):
    # checked where run_cell reports each state the loop yields: a factor
    # made one-shot (every one of the last sweep) and the sweep's A A^T die
    # within the sweep, and after the last sweep no factor is left, not
    # even the held one of a node whose residual the last sweep skips
    made = _factor_spy(monkeypatch)
    if skip_last:
        columns, calls, classes = coupling._online_columns, [], len(coloring(tiny.topology))

        def skipping(state, topology, nodes, r, floor, factor):
            calls.append(nodes)
            last = len(calls) > (sweeps - 1) * classes
            return columns(state, topology, nodes, r, np.inf if last else floor, factor)

        monkeypatch.setattr(coupling, "_online_columns", skipping)
    A, N = tiny.op.A, tiny.mesh.num_dofs
    gram_nnz = (A @ A.T).nnz
    alive = []  # (one-shot factors, all factors, A A^T) alive at each row
    report = coupling.error_report

    def reporting(*args, **kwargs):
        gc.collect()
        squares = [o for o in gc.get_objects() if sp.issparse(o) and o.shape == (N, N)]
        live = [held for _, held, ref in made if ref() is not None]
        alive.append((live.count(False), len(live), sum(o.nnz == gram_nnz for o in squares)))
        return report(*args, **kwargs)

    monkeypatch.setattr(coupling, "error_report", reporting)
    tiny.run_cell(1, 1, 1, online_iters=sweeps)
    assert len(alive) == sweeps + 1 and len(made) > 0
    assert all(one_shot == 0 and grams == 0 for one_shot, _, grams in alive)
    assert alive[-1] == (0, 0, 0)


def test_a_zero_byte_budget_refactors_every_sweep(tiny, monkeypatch):
    cached = tiny.run_cell(1, 1, 1, online_iters=2)
    made = _factor_spy(monkeypatch)
    monkeypatch.setattr(coupling, "HELD_FACTOR_BYTES", 0)
    rows = tiny.run_cell(1, 1, 1, online_iters=2)
    labels = [label for label, _, _ in made]
    assert len(labels) == 2 * len(set(labels)) > 0
    assert not any(held for _, held, _ in made)
    # the factors come from the one-shot routine instead of the held one:
    # the same solves up to rounding
    for row, ref in zip(rows, cached, strict=True):
        for field in dataclasses.fields(row):
            a, b = getattr(row, field.name), getattr(ref, field.name)
            assert a == (pytest.approx(b, rel=1e-12) if isinstance(a, float) else b), field.name


def _grown_by_blocks(basis, op, new):
    """T of ``basis`` extended by ``new`` as one np.block of the formed T and
    the block column [-T S T_n; T_n] (``test_space.extend_test_basis``)."""
    Y = (op.A.T @ sp.csc_matrix(new)).toarray()
    norms = np.linalg.norm(Y, axis=0)
    S = np.zeros((basis.count, Y.shape[1]))
    for _ in range(2):
        C = coefficient_product(basis.steps, basis.AtV.T @ Y)
        Y -= basis.AtV @ apply_coefficients(basis.steps, C)
        S += C
    keep = np.linalg.norm(Y, axis=0) > numerics.DROPTOL * norms
    T, T_n = form_coefficients(basis.steps), form_coefficients(orthonormalize_columns(Y[:, keep])[1])
    zero = np.zeros((T_n.shape[0], basis.count))
    return np.block([[T, -T @ (S[:, keep] @ T_n)], [zero, T_n]])


def test_t_grown_in_place_matches_the_block_construction(tiny, monkeypatch):
    grown, extend = [], test_space.extend_test_basis

    def checking(basis, op, new, out):
        ext = extend(basis, op, new, out)
        (T,) = ext.steps
        grown.append(_relative(T, _grown_by_blocks(basis, op, new)))
        return ext

    monkeypatch.setattr(coupling, "extend_test_basis", checking)
    state = solve_coupled(tiny.op, tiny.test_matrix(1, 1, 1), tiny.trial(1).Xi)
    list(online_enrich(state, tiny.topology, 1))
    assert len(grown) == len(coloring(tiny.topology))
    assert max(grown) <= 1e-15


def test_every_state_a_loop_yields_keeps_its_arrays(tiny):
    # the loop grows T in place, beside the T of every state it yielded:
    # none of them changes once a later sweep writes its block columns
    state = solve_coupled(tiny.op, tiny.test_matrix(1, 1, 1), tiny.trial(1).Xi)
    (only,) = online_enrich(state, tiny.topology, 0)
    assert only is state
    held = lambda s: (s.basis.steps[0], s.G_wu, s.rhs_w)
    yielded = [(s, [a.copy() for a in held(s)]) for s in online_enrich(state, tiny.topology, 2)]
    states = [s for s, _ in yielded]
    assert len(states) == 3 and states[0].basis.count < states[-1].basis.count
    assert all(np.shares_memory(s.basis.steps[0], states[-1].basis.steps[0]) for s in states)
    for s, before in yielded:
        assert all(np.array_equal(a, b) for a, b in zip(held(s), before, strict=True))
