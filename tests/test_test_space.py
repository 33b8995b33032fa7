import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mspg import test_space
from mspg.assembly import assemble, constant_field
from mspg.grid import build_coarse_topology, build_fine_mesh
from mspg.numerics import local_dirichlet_solve
from mspg.test_space import (
    _edge_energy,
    assemble_test_matrix,
    build_W1,
    build_W2,
    build_W3_snapshots,
    eigenproblem_1,
    eigenproblem_2,
    select_prefix,
)
from mspg.trial_space import partition_of_unity


def test_bubble_count_interior_block(ws_small):
    m = 2
    w1 = build_W1(ws_small.topology, ws_small.op, ws_small.trial(m).Xi)
    interior_blocks = [
        b.index for b in ws_small.topology.blocks if 0 < b.ij[0] < 3 and 0 < b.ij[1] < 3
    ]
    for kb in interior_blocks:
        # four vertex neighborhoods overlap an interior block
        assert (w1.block_ids == kb).sum() == 4 * m


@pytest.mark.parametrize("m", [1, 3])
def test_bubbles_from_the_sparse_trial_matrix_match_the_dense_loop(ws_small, m):
    # the per-block loop over a dense trial matrix, as an oracle
    topo, op = ws_small.topology, ws_small.op
    Xi = ws_small.trial(m).Xi
    dense = Xi.toarray()
    blocks, block_ids, source_columns = [], [], []
    for block in topo.blocks:
        I = block.interior
        overlapping = np.flatnonzero(np.any(dense[I, :] != 0.0, axis=0))
        if overlapping.size:
            X = local_dirichlet_solve(op.A[I][:, I].T.tocsc(), dense[I][:, overlapping])
            for j, col in enumerate(overlapping):
                full = np.zeros(op.A.shape[0])
                full[I] = X[:, j]
                blocks.append(full)
                block_ids.append(block.index)
                source_columns.append(col)
    w1 = build_W1(topo, op, Xi)
    assert np.array_equal(w1.block_ids, block_ids)
    assert np.array_equal(w1.source_columns, source_columns)
    assert np.array_equal(w1.columns.toarray(), np.column_stack(blocks))


def test_bubble_zero_sources_skipped(ws_small):
    w1 = build_W1(ws_small.topology, ws_small.op, ws_small.trial(1).Xi)
    Xi = ws_small.trial(1).Xi.toarray()
    for k in range(w1.count):
        block = ws_small.topology.blocks[int(w1.block_ids[k])]
        assert np.any(Xi[block.interior, w1.source_columns[k]] != 0.0)


def test_bubble_adjoint_residual(ws_small):
    op = ws_small.op
    w1 = build_W1(ws_small.topology, op, ws_small.trial(1).Xi)
    Xi = ws_small.trial(1).Xi.toarray()
    cols = w1.columns.toarray()
    At = op.A.T
    for k in range(0, w1.count, 7):
        block = ws_small.topology.blocks[int(w1.block_ids[k])]
        resid = (At @ cols[:, k])[block.interior] - Xi[block.interior, w1.source_columns[k]]
        assert np.linalg.norm(resid) <= 1e-9 * max(
            np.linalg.norm(Xi[block.interior, w1.source_columns[k]]), 1e-30
        )


def test_bubble_support(ws_small):
    w1 = build_W1(ws_small.topology, ws_small.op, ws_small.trial(1).Xi)
    cols = w1.columns.toarray()
    for k in range(0, w1.count, 5):
        block = ws_small.topology.blocks[int(w1.block_ids[k])]
        outside = np.setdiff1d(np.arange(cols.shape[0]), block.interior)
        assert np.all(cols[outside, k] == 0.0)


def test_vertex_trace_count_and_values(ws_small):
    topo = ws_small.topology
    w2 = build_W2(topo, ws_small.op)
    assert w2.count == (topo.nc - 1) ** 2
    mesh = topo.mesh
    cols = w2.columns.toarray()
    for j, node in enumerate(w2.node_ids):
        outside = np.setdiff1d(
            np.arange(mesh.num_dofs), topo.neighborhoods[int(node)].closure
        )
        assert np.all(cols[outside, j] == 0.0)
        xa, ya = topo.coarse_node_coords(int(node))
        own = mesh.dof_of_node[int(round(ya * mesh.n)) * (mesh.n + 1) + int(round(xa * mesh.n))]
        assert cols[own, j] == pytest.approx(1.0, abs=1e-12)
        for other in topo.interior_coarse_nodes:
            if other == node:
                continue
            xo, yo = topo.coarse_node_coords(int(other))
            d = mesh.dof_of_node[int(round(yo * mesh.n)) * (mesh.n + 1) + int(round(xo * mesh.n))]
            assert abs(cols[d, j]) <= 1e-12


def test_vertex_traces_equal_partition_for_pure_diffusion():
    # self-adjoint operator: the adjoint-harmonic hat continuation equals
    # the partition-of-unity column
    mesh = build_fine_mesh(16)
    topo = build_coarse_topology(mesh, 4)
    op = assemble(mesh, constant_field(kappa=1.0))
    w2 = build_W2(topo, op)
    chi = partition_of_unity(topo, op.A_nodes)
    chi_dofs = chi.toarray()[mesh.node_of_dof, :]
    cols = w2.columns.toarray()
    for j, node in enumerate(w2.node_ids):
        assert np.allclose(cols[:, j], chi_dofs[:, int(node)], atol=1e-9)


def test_edge_snapshot_count_and_delta(ws_small):
    topo = ws_small.topology
    snap = build_W3_snapshots(ws_small.topology, ws_small.op, 0)
    r = topo.r
    assert snap.count == r - 1
    edge = snap.edge
    assert np.array_equal(snap.columns[edge.edge_local, :], np.eye(r - 1))
    # deltas sum to the indicator on the edge interior
    total = snap.columns @ np.ones(r - 1)
    assert np.allclose(total[edge.edge_local], 1.0)


def test_edge_snapshot_support_and_residual(ws_small):
    op = ws_small.op
    snap = build_W3_snapshots(ws_small.topology, ws_small.op, 3)
    edge = snap.edge
    full = np.zeros((op.A.shape[0], snap.count))
    full[edge.region, :] = snap.columns
    outside = np.setdiff1d(np.arange(op.A.shape[0]), edge.region)
    assert np.all(full[outside, :] == 0.0)
    interiors = np.concatenate(
        [ws_small.topology.blocks[kb].interior for kb in edge.blocks]
    )
    resid = (op.A.T @ full)[interiors, :]
    assert np.abs(resid).max() <= 1e-9 * np.abs(snap.columns).max()


def test_eigenproblem_1_nonnegative_and_full_selection(ws_small):
    snap = build_W3_snapshots(ws_small.topology, ws_small.op, 1)
    res = eigenproblem_1(snap, ws_small.op)
    assert res.eigenvalues.min() >= -1e-9 * max(res.eigenvalues.max(), 1.0)
    assert res.selected.shape[1] == snap.count
    assert res.lambda_excluded == np.inf


def test_eigenproblem_1_grows_under_refinement():
    # same coarse grid, same physical edge, finer fine mesh: the top of the
    # spectrum moves up
    tops = []
    for n in (32, 64):
        mesh = build_fine_mesh(n)
        topo = build_coarse_topology(mesh, 4)
        op = assemble(mesh, constant_field(kappa=1.0, b=(1.0, 0.5)))
        snap = build_W3_snapshots(topo, op, 5)
        res = eigenproblem_1(snap, op)
        tops.append(res.eigenvalues.max())
    assert tops[1] > tops[0]


def test_eigenproblem_2_unit_interval(ws_small):
    for k in range(len(ws_small.topology.edges)):
        vals = ws_small.edge_spectrum(k, 2).eigenvalues
        assert vals.min() >= -1e-10
        assert vals.max() <= 1.0 + 1e-10


def _prefix(full, L):
    return select_prefix(full.edge, full.problem, full.eigenvalues, full.selected, L)


def test_eigenproblem_2_lambda_monotone_in_L(ws_small):
    snap = build_W3_snapshots(ws_small.topology, ws_small.op, 2)
    full = eigenproblem_2(snap, ws_small.op)
    lams = [_prefix(full, L).lambda_excluded for L in range(1, snap.count + 1)]
    assert all(lams[i + 1] >= lams[i] for i in range(len(lams) - 2))
    assert lams[-1] == np.inf


def test_selection_nesting(ws_small):
    full = eigenproblem_2(build_W3_snapshots(ws_small.topology, ws_small.op, 4), ws_small.op)
    res1, res3 = _prefix(full, 1), _prefix(full, 3)
    assert np.allclose(res3.selected[:, :1], res1.selected)


def test_eigenproblem_L_out_of_range(ws_small):
    snap = build_W3_snapshots(ws_small.topology, ws_small.op, 0)
    full = eigenproblem_1(snap, ws_small.op)
    assert full.L == snap.count and full.lambda_excluded == np.inf
    with pytest.raises(ValueError):
        _prefix(full, snap.count + 1)


@pytest.mark.parametrize("energy", ["region", "global"])
def test_eigenproblem_2_extension_matches_the_minimum_energy_formula(
    ws_small, monkeypatch, energy
):
    # the extension eigenproblem 2 forms through the checked kernel is the
    # minimum-energy formula: the edge rows carry the identity and the free
    # rows solve B_ff x = -B_fe, factored by splu
    extensions = []
    kernel = test_space.harmonic_extension

    def recording(*args, **kwargs):
        extensions.append(kernel(*args, **kwargs))
        return extensions[-1]

    monkeypatch.setattr(test_space, "harmonic_extension", recording)
    for edge in ws_small.topology.edges:
        snap = build_W3_snapshots(ws_small.topology, ws_small.op, edge.index)
        eigenproblem_2(snap, ws_small.op, energy=energy)
        B = _edge_energy(ws_small.op, edge, mode=energy)
        ns = edge.edge_local.size
        free = np.setdiff1d(np.arange(B.shape[0]), edge.edge_local)
        oracle = np.zeros((B.shape[0], ns))
        oracle[edge.edge_local] = np.eye(ns)
        B_ff = B[free][:, free]
        oracle[free] = spla.splu(B_ff.tocsc()).solve(-(B[free][:, edge.edge_local] @ np.eye(ns)))
        assert np.array_equal(np.vstack([extensions[-1], np.eye(ns)]), oracle)


def test_assembled_test_matrix_orthonormal(ws_small, basis_q):
    V, report = ws_small.test_matrix(1, 2, 2)
    assert V.format == "csc" and V.shape[1] == report.n_w1 + report.n_w2 + report.n_w3
    # the test basis is orthonormal in the natural norm ||A^T w||
    basis = test_space.test_basis(ws_small.op, V)
    Q = basis_q()
    gram = Q.T @ Q
    assert abs(gram - np.eye(basis.count)).max() <= 1e-10
    assert basis.count <= V.shape[1]
    assert report.min_lambda_excluded == pytest.approx(
        min(r.lambda_excluded for r in report.edge_results)
    )


def test_full_selection_spans_whole_snapshot_space(ws_small):
    # with every edge mode kept, the assembled matrix must span exactly the
    # concatenated snapshot collection (rank by SVD)
    r = ws_small.topology.r
    w1 = ws_small.w1(1)
    w2 = ws_small.w2()
    sel = ws_small.w3_selection(r - 1, 1)
    V, report = assemble_test_matrix(w1, w2, sel)
    raw = np.zeros((ws_small.mesh.num_dofs, report.n_w1 + report.n_w2 + report.n_w3))
    raw[:, : report.n_w1] = w1.columns.toarray()
    raw[:, report.n_w1 : report.n_w1 + report.n_w2] = w2.columns.toarray()
    col = report.n_w1 + report.n_w2
    for res in sel:
        raw[res.edge.region, col : col + res.L] = res.selected
        col += res.L
    rank = np.linalg.matrix_rank(raw, tol=1e-8 * np.linalg.norm(raw))
    assert test_space.test_basis(ws_small.op, V).count == rank


@pytest.mark.parametrize("problem", [1, 2])
def test_test_matrix_of_fewer_modes_is_a_leading_block(ws_small, problem):
    # W3 is mode-major, so V(L) is the leading block of V(L_max), stored alike
    L_max = ws_small.topology.r - 1
    V_max, _ = ws_small.test_matrix(1, L_max, problem)
    for L in range(1, L_max):
        V, report = ws_small.test_matrix(1, L, problem)
        n = report.n_w1 + report.n_w2 + report.n_w3
        lead = V_max[:, :n]
        assert V.shape == lead.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(V, part), getattr(lead, part)), (L, part)


def test_w3_columns_are_mode_major(ws_small):
    w1, w2, sel = ws_small.w1(1), ws_small.w2(), ws_small.w3_selection(3, 2)
    V, _ = assemble_test_matrix(w1, w2, sel)
    start, E = w1.count + w2.count, len(sel)
    for j in range(3):
        for e, res in enumerate(sel):
            col = V[:, start + j * E + e].toarray().ravel()
            assert np.array_equal(col[res.edge.region], res.selected[:, j])
            assert not np.delete(col, res.edge.region).any()
