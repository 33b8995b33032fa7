import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import form_coefficients

from mspg import coupling, numerics, test_space, trial_space
from mspg.assembly import assemble, constant_field
from mspg.harness import ExperimentConfig, Workspace, run_experiment, sweep_experiment
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
    generalized_sym_eig,
    orthonormal_rows,
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
    Xi = tiny.trial(1)
    state = solve_coupled(tiny.op, V, Xi)
    Q = np.linalg.qr(Xi.toarray())[0]
    proj = Q @ (Q.T @ tiny.u_ref)
    assert np.linalg.norm(state.u_fine - proj) <= 1e-8 * np.linalg.norm(tiny.u_ref)


def test_error_report_projection_consistency(tiny):
    r = tiny.topology.r
    V = tiny.test_matrix(1, r - 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1))
    rep = error_report(state, tiny.u_ref, tiny.projection_error(1))
    assert rep.err_ms_pct == pytest.approx(rep.err_proj_pct, abs=1e-6)
    assert min(s.excluded(r - 1) for s in tiny.edge_spectra(1, r - 1)) == np.inf


def test_error_report_full_trial_space(tiny):
    nd = tiny.mesh.num_dofs
    state = solve_coupled(tiny.op, np.eye(nd), np.eye(nd))
    _, proj = projection_error(np.eye(nd), tiny.u_ref)
    rep = error_report(state, tiny.u_ref, proj)
    assert rep.err_ms_pct <= 1e-8
    assert rep.err_proj_pct <= 1e-10


def test_error_report_optimality(tiny):
    V = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1))
    rep = error_report(state, tiny.u_ref, tiny.projection_error(1))
    assert rep.err_ms_pct >= rep.err_proj_pct - 1e-8


def test_reduced_blocks_symmetric(tiny):
    V = tiny.test_matrix(1, 2, 2)
    state = solve_coupled(tiny.op, V, tiny.trial(1))
    # the test block by its definition, from the test functions V T
    Y = tiny.op.A.T @ (state.basis.V @ form_coefficients(state.basis.steps))
    G_ww = Y.T @ Y
    assert abs(G_ww - G_ww.T).max() <= 1e-10 * abs(G_ww).max()
    assert abs(G_ww - np.eye(state.basis.count)).max() <= 1e-10


def test_singular_reduced_system_reported(tiny):
    Xi = tiny.trial(1)
    bad = sp.hstack([Xi, Xi[:, :1]])  # duplicated trial column
    V = tiny.test_matrix(1, 3, 1)
    with pytest.raises(SolverFailureError):
        solve_coupled(tiny.op, V, bad)


def test_rank_deficient_trial_matrix_is_a_solver_failure(tiny):
    # a trial column that combines two others makes G_wu rank-deficient;
    # the QR of G_wu reports it with the block sizes and the rank
    Xi = tiny.trial(1)
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
    Xi = tiny.trial(1)
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
    Theta = orthonormal_rows(V, steps)
    Z = spla.splu(op.A.T.tocsc()).solve(Xi.toarray())
    W = op.A.T @ Z
    C = W.T @ np.linalg.qr(op.A.T @ Theta)[0]
    G2 = C @ C.T
    vals, _ = generalized_sym_eig(G2, W.T @ W)
    return float(np.sqrt(max(vals[0], 0.0)))


@pytest.mark.parametrize("L, problem", [(1, 1), (2, 2), (3, 1)])
def test_infsup_matches_the_lift(tiny, L, problem):
    V = tiny.test_matrix(1, L, problem)
    Xi = tiny.trial(1)
    est = infsup_estimate(solve_coupled(tiny.op, V, Xi))
    assert est == pytest.approx(_lifted_infsup(tiny.op, V, Xi), rel=1e-10)


def test_infsup_matches_the_lift_high_contrast(ws_contrast):
    # example 5 (contrast 500) with every edge mode kept: the Euclidean test
    # basis has cond(A^T Theta)^2 ~ 1e9
    ws = ws_contrast
    Xi = ws.trial(3)
    for L in (3, 7):
        V = ws.test_matrix(3, L, 2)
        est = infsup_estimate(solve_coupled(ws.op, V, Xi))
        assert est == pytest.approx(_lifted_infsup(ws.op, V, Xi), rel=1e-10)


def test_residual_vanishes_for_exact_test_space(tiny):
    # a test matrix spanning the whole fine space makes the first block
    # equation exact, so the strong residual vanishes
    state = solve_coupled(tiny.op, np.eye(tiny.mesh.num_dofs), tiny.trial(1))
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
    state = solve_coupled(tiny.op, V, tiny.trial(1))
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
    state = solve_coupled(tiny.op, np.eye(tiny.mesh.num_dofs), tiny.trial(1))
    *_, enriched = online_enrich(state, tiny.topology, 1)
    assert enriched.basis.count == state.basis.count


def test_online_contraction_rate(ws_small):
    # soft regression: the excess over the projection error shrinks after
    # one sweep by at least the factor set by the smallest excluded
    # eigenvalue of the energy-ratio reduction (plus slack)
    V = ws_small.test_matrix(1, 1, 2)
    lam = min(s.excluded(1) for s in ws_small.edge_spectra(2))
    state = solve_coupled(ws_small.op, V, ws_small.trial(1))
    proj = ws_small.projection_error(1)
    before = error_report(state, ws_small.u_ref, proj)
    *_, state = online_enrich(state, ws_small.topology, 1)
    after = error_report(state, ws_small.u_ref, proj)
    excess_before = before.err_ms_pct - before.err_proj_pct
    excess_after = after.err_ms_pct - after.err_proj_pct
    assert excess_after <= ((1.0 - lam) + 0.1) * excess_before + 1e-12


def test_online_test_space_stays_orthonormal(tiny, basis_q):
    V = tiny.test_matrix(1, 1, 1)
    state = solve_coupled(tiny.op, V, tiny.trial(1), *tiny.image_structure(1))
    *_, enriched = online_enrich(state, tiny.topology, 2)
    basis = enriched.basis
    added = basis.count - state.basis.count
    Q = basis_q()  # the offline block, then every online block Q_n
    assert added > 0 and Q.shape[1] == state.basis.count + added
    assert abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-12
    assert _relative(tiny.op.A.T @ (basis.V @ _formed(basis)), Q) <= 1e-10


def test_online_extension_skips_columns_in_the_test_span(tiny, basis_q):
    V = tiny.test_matrix(1, 1, 1)
    basis = test_space.test_basis(tiny.op, V, *tiny.image_structure(1))
    rng = np.random.default_rng(3)
    inside = V @ (form_coefficients(basis.steps)[:, :3] @ rng.standard_normal(3))
    outside = rng.standard_normal(V.shape[0])
    new = np.column_stack([inside, outside])
    ext = test_space.extend_test_basis(basis, tiny.op, new)
    assert ext.count == basis.count + 1 and ext.V.shape[1] == V.shape[1] + 1
    Q = basis_q()
    assert abs(Q.T @ Q - np.eye(ext.count)).max() <= 1e-12
    assert _relative(tiny.op.A.T @ (ext.V @ _formed(ext)), Q) <= 1e-10
    # the kept column spans the part of A^T outside that lies outside A^T Theta
    y = tiny.op.A.T @ outside
    Q_0 = Q[:, : basis.count]
    resid = y - Q_0 @ (Q_0.T @ y)
    Q_n = Q[:, basis.count :]
    assert np.linalg.norm(resid - Q_n @ (Q_n.T @ resid)) <= 1e-12 * np.linalg.norm(resid)


def _online_block(ws, state):
    """The first parity class's raw online columns, as a sweep forms them:
    each node's A_I A_I^T sliced from A A^T, factored one-shot."""
    gram = (ws.op.A @ ws.op.A.T).tocsr()
    nodes = coloring(ws.topology)[0]
    return coupling._online_columns(state, ws.topology, nodes, residual_full(state), 0.0, gram)


def _formed(basis):
    """The T of ``basis``, grown or not, formed as T times the identity."""
    return basis.apply_coefficients(np.eye(basis.count))


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("name", ["tiny", "ws_contrast"])
def test_bordered_update_matches_a_full_solve(request, name, basis_q):
    ws = request.getfixturevalue(name)
    m = ws.config.m
    V = ws.test_matrix(m, ws.config.L, ws.config.eigenproblem)
    interiors, harmonic_from = ws.image_structure(m)
    state = solve_coupled(ws.op, V, ws.trial(m), interiors, harmonic_from)
    new = _online_block(ws, state)
    assert new.shape[1] > 0
    bordered = append_test_columns(state, new)
    bordered_q = basis_q()  # the offline block, then the online block Q_n
    # the online columns are not adjoint-harmonic: no column is marked
    full = solve_coupled(ws.op, sp.hstack([V, new]), ws.trial(m), interiors)
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
    state = solve_coupled(ws.op, V, ws.trial(m), interiors, harmonic_from)
    VX = sp.hstack([V, _online_block(ws, state)], format="csc")
    kept, steps = orthonormalize_columns((ws.op.A.T @ VX).tocsc())
    basis = test_space.test_basis(ws.op, VX, interiors)
    assert np.array_equal(basis.kept, kept)
    T = form_coefficients(steps)
    assert np.abs(form_coefficients(basis.steps) - T).max() <= bound * np.abs(T).max()


@pytest.mark.parametrize("name", ["tiny", "ws_contrast"])
def test_the_kernel_order_products_match_the_formed_t(request, name):
    # T = C R_1^{-1} [R_2^{-1}] applied factor by factor, for the full basis
    # and for a leading block, whose steps are views of the leading factors
    ws = request.getfixturevalue(name)
    m, problem = ws.config.m, ws.config.eigenproblem
    group = solve_coupled(
        ws.op, ws.test_matrix(m, ws.topology.r - 1, problem), ws.trial(m),
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
    # Q = Xi T regenerated whole, as the projection was formed before it
    # went through the kernel-order products
    Xi, u = ws_contrast.trial(m), ws_contrast.u_ref
    _, steps = orthonormalize_columns(Xi)
    Q = orthonormal_rows(Xi, steps)
    projection = Q @ (Q.T @ u)
    expected = 100.0 * np.linalg.norm(u - projection) / np.linalg.norm(u)
    kept, error = projection_error(Xi, u)
    assert np.array_equal(kept, np.arange(Xi.shape[1]))
    assert error == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize(
    "name, m, compressed",
    [("tiny", 1, True), ("tiny", 3, False), ("ws_contrast", 1, True), ("ws_contrast", 3, True)],
)
def test_the_compressed_trial_span_matches_the_plain_one(request, name, m, compressed):
    # the kernel on Xi's block-compressed rows, as Workspace.trial runs it,
    # keeps the columns of the plain Xi and reads the same error; on tiny
    # at m=3 each 9-dof block interior stores 12 columns: nothing compresses
    ws = request.getfixturevalue(name)
    Xi = trial_space.assemble_trial_matrix(ws.topology, ws.trial_modes(m), ws.chi, m)
    interiors = [block.interior for block in ws.topology.blocks]
    rows = test_space.compressed_image(Xi, interiors).shape[0]
    assert (rows < Xi.shape[0]) == compressed
    kept, error = projection_error(Xi, ws.u_ref, interiors)
    kept_plain, error_plain = projection_error(Xi, ws.u_ref)
    assert np.array_equal(kept, kept_plain)
    assert error == pytest.approx(error_plain, rel=1e-13)


def _forming_spy(monkeypatch):
    """(steps, formed): the steps of every ``orthonormalize_columns`` call
    from here on, and the shape of every T formed from them.  T = C R_1^{-1}
    [R_2^{-1}] is formed either by solving its C, or an equal copy, against
    R_1 (``numerics._solve_right_upper``), or by applying the factors to the
    identity of C's column count (``apply_coefficients``, wherever it is
    bound).  Equality, not the shape alone, tells those calls from the
    package's others, such as the 1 x 1 solves of a single-column online
    class."""
    recorded, formed = [], []
    kernel, solve = numerics.orthonormalize_columns, numerics._solve_right_upper

    def orthonormalizing(*args, **kwargs):
        kept, steps = kernel(*args, **kwargs)
        recorded.append(steps)
        return kept, steps

    def solving(X, R):
        if any(X.shape == C.shape and np.array_equal(X, C) for C, *_ in recorded):
            formed.append(X.shape)
        return solve(X, R)

    def applying(apply):
        def spied(steps, w):
            k = np.shape(w)[0]
            widths = {C.shape[1] for C, *_ in recorded}
            if np.shape(w) == (k, k) and k in widths and np.array_equal(w, np.eye(k)):
                formed.append(w.shape)
            return apply(steps, w)

        return spied

    for module in (numerics, test_space, coupling):
        monkeypatch.setattr(module, "orthonormalize_columns", orthonormalizing)
        monkeypatch.setattr(module, "apply_coefficients", applying(module.apply_coefficients))
    monkeypatch.setattr(numerics, "_solve_right_upper", solving)
    return recorded, formed


def test_no_t_is_formed_offline(tiny, ws_contrast, monkeypatch):
    # nor online: a grown basis holds one block of factors per class
    recorded, formed = _forming_spy(monkeypatch)
    rows = run_experiment(dataclasses.replace(tiny.config, online_iters=2))
    assert [row.online_iter for row in rows] == [0, 1, 2] and formed == []
    rows = sweep_experiment(ws_contrast.config, [3], [1, 3], [1, 2], online_iters=0)
    assert len(rows) == 4 and formed == []
    # the spy sees the kernel's coefficients, and catches a T formed either
    # way: C solved against R_1, or the factors applied to the identity
    steps = next(steps for steps in reversed(recorded) if len(steps) > 1)
    form_coefficients(steps)
    assert formed == [steps[0].shape]
    basis = test_space.test_basis(tiny.op, tiny.test_matrix(1, 1, 1), *tiny.image_structure(1))
    _formed(basis)
    assert formed[1:] == [(basis.count, basis.count)]


def test_no_array_with_a_row_per_fine_dof_is_held(tiny):
    # the test basis is the sparse V and A^T V with the small T: after an
    # offline solve, a leading block and two online sweeps, no state or
    # basis field is a dense array with one row per fine dof
    N, Xi = tiny.mesh.num_dofs, tiny.trial(1)
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
    state = solve_coupled(tiny.op, V, tiny.trial(1))
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
    state = solve_coupled(tiny.op, V, tiny.trial(1))
    coefficients = np.random.default_rng(4).standard_normal(state.basis.count)
    T = form_coefficients(state.basis.steps)
    column = V @ (T @ coefficients) if kind == "in_span" else np.zeros(V.shape[0])
    assert append_test_columns(state, column[:, None]) is state


def test_solution_depends_on_the_test_span_only(tiny):
    V = tiny.test_matrix(1, 2, 2)
    Xi = tiny.trial(1)
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
    state = solve_coupled(ws.op, V, ws.trial(m), *ws.image_structure(m))
    lift = spla.splu(ws.op.A.T.tocsc()).solve(basis_q() @ state.w)
    assert _relative(state.w_fine, lift) <= 1e-10


@pytest.mark.parametrize("name", ["tiny", "ws_contrast"])
def test_leading_block_matches_the_solve_on_its_own_test_matrix(request, name):
    # V(L) is the leading block of V(L_max), so the rows G_wu[:n] and
    # rhs_w[:n] of the larger solve give the solve on V(L)
    ws = request.getfixturevalue(name)
    m, problem, L_max = ws.config.m, ws.config.eigenproblem, ws.topology.r - 1
    Xi, proj = ws.trial(m), ws.projection_error(m)
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
    doubled = sp.hstack([w2, w2[:, [0]]], format="csc")
    monkeypatch.setattr(tiny, "w2", lambda: doubled)
    widths, kernel = [], test_space.orthonormalize_columns

    def counting_kernel(X, *args, **kwargs):
        widths.append(X.shape[1])
        return kernel(X, *args, **kwargs)

    monkeypatch.setattr(test_space, "orthonormalize_columns", counting_kernel)
    rows = tiny.run_cell(1, [1, 2], 1)
    sizes = [tiny.test_matrix(1, L, 1).shape[1] for L in (3, 1, 2)]
    assert widths[:3] == sizes  # the group's V(3), then each V(L) on its own
    Xi, proj = tiny.trial(1), tiny.projection_error(1)
    for row, L in zip(rows, (1, 2)):
        own = error_report(solve_coupled(tiny.op, tiny.test_matrix(1, L, 1), Xi), tiny.u_ref, proj)
        assert (row.L_test, row.err_ms_pct) == (L, pytest.approx(own.err_ms_pct, rel=1e-12))
        assert row.w_norm == pytest.approx(own.w_norm, rel=1e-12)


def test_online_sweep_on_a_leading_block_leaves_the_group_unchanged(tiny):
    Xi = tiny.trial(1)
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
    """(label, held, weak reference, online factors alive as it is asked
    for) of every online factor made from here on; the workspace's block
    factors are made elsewhere."""
    made = []

    class Spying(numerics.CheckedFactor):
        def __init__(self, K, label="", held=True, spd=False):
            alive = sum(ref() is not None for _, _, ref, _ in made)
            super().__init__(K, label, held, spd)
            made.append((label, held, weakref.ref(self), alive))

    monkeypatch.setattr(coupling, "CheckedFactor", Spying)
    return made


def _all_released(made):
    gc.collect()
    return all(ref() is None for _, _, ref, _ in made)


def _alive_at_rows(tiny, monkeypatch, made):
    """(one-shot factors, all factors, A A^T) alive at each row ``run_cell``
    reports from here on, which is each state the loop yields."""
    A, N = tiny.op.A, tiny.mesh.num_dofs
    gram_nnz = (A @ A.T).nnz
    alive, report = [], coupling.error_report

    def reporting(*args, **kwargs):
        gc.collect()
        squares = [o for o in gc.get_objects() if sp.issparse(o) and o.shape == (N, N)]
        live = [held for _, held, ref, _ in made if ref() is not None]
        alive.append((live.count(False), len(live), sum(o.nnz == gram_nnz for o in squares)))
        return report(*args, **kwargs)

    monkeypatch.setattr(coupling, "error_report", reporting)
    return alive


def test_a_cell_factors_each_online_node_once(tiny, monkeypatch):
    # in every sweep, one sweep or two, a node's factor is made one-shot
    # where the node is solved and is gone when the next node asks for its own
    for sweeps in (1, 2):
        made = _factor_spy(monkeypatch)
        rows = tiny.run_cell(1, 1, 1, online_iters=sweeps)
        assert [row.online_iter for row in rows] == list(range(sweeps + 1))
        labels = [label for label, _, _, _ in made]
        nodes = len(set(labels))
        assert nodes > 0 and labels == labels[:nodes] * sweeps
        assert not any(held for _, held, _, _ in made)
        assert all(alive == 0 for _, _, _, alive in made)
        assert _all_released(made)


def test_a_one_sweep_cell_holds_no_factor(tiny, monkeypatch):
    made = _factor_spy(monkeypatch)
    tiny.run_cell(1, 1, 1, online_iters=1)
    assert made and not any(held for _, held, _, _ in made)
    assert _all_released(made)


@pytest.mark.parametrize("sweeps", [1, 2, 3])
def test_the_loop_holds_no_factor_and_no_gram_at_a_yield(tiny, monkeypatch, sweeps):
    # each sweep factors, one-shot, exactly the nodes whose residual passes
    # the floor, and no factor it made and no A A^T outlives it
    made, counts, columns = _factor_spy(monkeypatch), [], coupling._online_columns

    def counting(state, topology, nodes, r, floor, gram):
        start = len(made)
        new = columns(state, topology, nodes, r, floor, gram)
        interiors = [topology.neighborhoods[int(node)].interior for node in nodes]
        passing = sum(np.linalg.norm(r[I]) > floor for I in interiors)
        counts.append((passing, len(made) - start))
        return new

    monkeypatch.setattr(coupling, "_online_columns", counting)
    alive = _alive_at_rows(tiny, monkeypatch, made)
    tiny.run_cell(1, 1, 1, online_iters=sweeps)
    assert alive == [(0, 0, 0)] * (sweeps + 1)
    assert len(counts) == sweeps * len(coloring(tiny.topology))
    assert all(passing == factored for passing, factored in counts)
    assert made and not any(held for _, held, _, _ in made)


@pytest.mark.parametrize("sweeps, skip_last", [(1, False), (2, False), (2, True)])
def test_no_gram_and_no_last_sweep_factor_is_alive_at_a_yield(
    tiny, monkeypatch, sweeps, skip_last
):
    # checked where run_cell reports each state the loop yields: every
    # factor dies with its solve and the sweep's A A^T within the sweep, also
    # when the last sweep skips every node's residual
    made = _factor_spy(monkeypatch)
    if skip_last:
        columns, calls, classes = coupling._online_columns, [], len(coloring(tiny.topology))

        def skipping(state, topology, nodes, r, floor, gram):
            calls.append(nodes)
            last = len(calls) > (sweeps - 1) * classes
            return columns(state, topology, nodes, r, np.inf if last else floor, gram)

        monkeypatch.setattr(coupling, "_online_columns", skipping)
    alive = _alive_at_rows(tiny, monkeypatch, made)
    tiny.run_cell(1, 1, 1, online_iters=sweeps)
    assert made and alive == [(0, 0, 0)] * (sweeps + 1)


def _grown_by_blocks(basis, op, new):
    """T of ``basis`` extended by ``new`` as one np.block of the formed T and
    the block column [-T S T_n; T_n] (``test_space.extend_test_basis``)."""
    Y = (op.A.T @ sp.csc_matrix(new)).toarray()
    norms = np.linalg.norm(Y, axis=0)
    S = np.zeros((basis.count, Y.shape[1]))
    for _ in range(2):
        C = basis.coefficient_product(basis.AtV.T @ Y)
        Y -= basis.AtV @ basis.apply_coefficients(C)
        S += C
    keep = np.linalg.norm(Y, axis=0) > numerics.DROPTOL * norms
    T, T_n = _formed(basis), form_coefficients(orthonormalize_columns(Y[:, keep])[1])
    zero = np.zeros((T_n.shape[0], basis.count))
    return np.block([[T, -T @ (S[:, keep] @ T_n)], [zero, T_n]])


def test_t_grown_in_place_matches_the_block_construction(tiny, monkeypatch):
    # every class of both sweeps, the second extending grown bases
    grown, extend = [], test_space.extend_test_basis

    def checking(basis, op, new):
        ext = extend(basis, op, new)
        grown.append(_relative(_formed(ext), _grown_by_blocks(basis, op, new)))
        return ext

    monkeypatch.setattr(coupling, "extend_test_basis", checking)
    state = solve_coupled(tiny.op, tiny.test_matrix(1, 1, 1), tiny.trial(1))
    list(online_enrich(state, tiny.topology, 2))
    assert len(grown) == 2 * len(coloring(tiny.topology))
    assert max(grown) <= 1e-15


def test_every_state_a_loop_yields_keeps_its_arrays(tiny):
    # each class adds a block of factors beside the arrays of every state
    # the loop yielded: none of them changes once a later sweep grows T
    state = solve_coupled(tiny.op, tiny.test_matrix(1, 1, 1), tiny.trial(1))
    (only,) = online_enrich(state, tiny.topology, 0)
    assert only is state

    def held(s):
        blocks = [a for S, steps_n in s.basis.grown for a in (S, *steps_n)]
        return (*s.basis.steps, *blocks, s.G_wu, s.rhs_w)

    yielded = [(s, [a.copy() for a in held(s)]) for s in online_enrich(state, tiny.topology, 2)]
    states = [s for s, _ in yielded]
    assert len(states) == 3 and states[0].basis.count < states[-1].basis.count
    for s, before in yielded:
        assert all(np.array_equal(a, b) for a, b in zip(held(s), before, strict=True))


def test_the_first_yield_is_the_state_itself(tiny):
    # nothing is sized by the sweeps asked for, however many they are
    state = solve_coupled(tiny.op, tiny.test_matrix(1, 1, 1), tiny.trial(1))
    assert next(online_enrich(state, tiny.topology, 10**6)) is state


def test_a_stalled_loop_forms_no_residual(tiny, monkeypatch):
    # once a whole sweep adds no column, so would every later one: the loop
    # yields that state for each remaining sweep without a residual
    calls, residual, made = [], coupling.residual_full, _factor_spy(monkeypatch)

    def counting(state):
        calls.append(state)
        return residual(state)

    monkeypatch.setattr(coupling, "residual_full", counting)
    state = solve_coupled(tiny.op, tiny.test_matrix(1, 1, 1), tiny.trial(1))
    states, released = [], []
    for s in online_enrich(state, tiny.topology, 50):
        if states and s is states[-1] and not released:
            released.append(_all_released(made))
        states.append(s)
    assert len(states) == 51 and released == [True]
    stalled = next(k for k in range(1, 51) if states[k] is states[k - 1])
    assert all(s is states[stalled] for s in states[stalled:])
    assert len(calls) <= 4 * (stalled + 1)


@pytest.fixture(scope="module")
def ws_ex4():
    """Example-4 workspace on the desk grid."""
    return Workspace(ExperimentConfig(example=4, nc=8, n=64, m=1, L=3, eigenproblem=2))


@pytest.mark.parametrize("name", ["ws_contrast", "ws_ex4"])
def test_online_rows_match_a_fresh_solve_on_the_grown_test_matrix(request, name):
    ws = request.getfixturevalue(name)
    m, Xi, proj = ws.config.m, ws.trial(ws.config.m), ws.projection_error(ws.config.m)
    V = ws.test_matrix(m, ws.config.L, ws.config.eigenproblem)
    state = solve_coupled(ws.op, V, Xi, *ws.image_structure(m))
    states = list(online_enrich(state, ws.topology, 3))
    assert len(states) == 4 and states[-1].basis.count > state.basis.count
    # the fresh solve has a rounding floor of its own: on example 5 the first
    # sweep's infsup_estimate sits 1.2e-12 relative from it on 2 BLAS threads
    # (3.6e-13 on one), so the gate admits 1e-12 relative or 1e-12 absolute,
    # whichever is larger
    gate = dict(rel=1e-12, abs=1e-12)
    for s in states:
        fresh = solve_coupled(ws.op, s.basis.V, Xi)
        rep, ref = error_report(s, ws.u_ref, proj), error_report(fresh, ws.u_ref, proj)
        for field in ("err_ms_pct", "w_norm"):
            assert getattr(rep, field) == pytest.approx(getattr(ref, field), **gate), field
        assert infsup_estimate(s) == pytest.approx(infsup_estimate(fresh), **gate)
