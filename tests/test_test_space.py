import numpy as np
import pytest

from mspg.assembly import assemble, constant_field
from mspg.grid import build_coarse_topology, build_fine_mesh
from mspg.test_space import (
    assemble_test_matrix,
    build_W1,
    build_W2,
    build_W3_snapshots,
    eigenproblem_1,
    eigenproblem_2,
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


def test_bubble_zero_sources_skipped(ws_small):
    w1 = build_W1(ws_small.topology, ws_small.op, ws_small.trial(1).Xi)
    Xi = ws_small.trial(1).Xi
    for k in range(w1.count):
        block = ws_small.topology.blocks[int(w1.block_ids[k])]
        assert np.any(Xi[block.interior, w1.source_columns[k]] != 0.0)


def test_bubble_adjoint_residual(ws_small):
    op = ws_small.op
    Xi = ws_small.trial(1).Xi
    w1 = build_W1(ws_small.topology, op, Xi)
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
    snap = ws_small.w3(0)
    r = topo.r
    assert snap.count == r - 1
    edge = snap.edge
    assert np.array_equal(snap.columns[edge.edge_local, :], np.eye(r - 1))
    # deltas sum to the indicator on the edge interior
    total = snap.columns @ np.ones(r - 1)
    assert np.allclose(total[edge.edge_local], 1.0)


def test_edge_snapshot_support_and_residual(ws_small):
    op = ws_small.op
    snap = ws_small.w3(3)
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
    snap = ws_small.w3(1)
    res = eigenproblem_1(snap, ws_small.op, snap.count)
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
        res = eigenproblem_1(snap, op, 1)
        tops.append(res.eigenvalues.max())
    assert tops[1] > tops[0]


def test_eigenproblem_2_unit_interval(ws_small):
    for k in range(len(ws_small.topology.edges)):
        vals = ws_small.edge_spectrum(k, 2).eigenvalues
        assert vals.min() >= -1e-10
        assert vals.max() <= 1.0 + 1e-10


def test_eigenproblem_2_lambda_monotone_in_L(ws_small):
    snap = ws_small.w3(2)
    lams = [
        eigenproblem_2(snap, ws_small.op, L).lambda_excluded
        for L in range(1, snap.count + 1)
    ]
    assert all(lams[i + 1] >= lams[i] for i in range(len(lams) - 2))
    assert lams[-1] == np.inf


def test_selection_nesting(ws_small):
    snap = ws_small.w3(4)
    res1 = eigenproblem_2(snap, ws_small.op, 1)
    res3 = eigenproblem_2(snap, ws_small.op, 3)
    assert np.allclose(res3.selected[:, :1], res1.selected)


def test_eigenproblem_L_out_of_range(ws_small):
    snap = ws_small.w3(0)
    with pytest.raises(ValueError):
        eigenproblem_1(snap, ws_small.op, snap.count + 1)


def test_assembled_test_matrix_orthonormal(ws_small):
    theta, report = ws_small.theta(1, 2, 2)
    gram = theta.T @ theta
    assert abs(gram - np.eye(theta.shape[1])).max() <= 1e-10
    assert theta.shape[1] <= report.n_w1 + report.n_w2 + report.n_w3
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
    theta, report = assemble_test_matrix(w1, w2, sel)
    raw = np.zeros((ws_small.mesh.num_dofs, report.n_w1 + report.n_w2 + report.n_w3))
    raw[:, : report.n_w1] = w1.columns.toarray()
    raw[:, report.n_w1 : report.n_w1 + report.n_w2] = w2.columns.toarray()
    col = report.n_w1 + report.n_w2
    for res in sel:
        raw[res.edge.region, col : col + res.L] = res.selected
        col += res.L
    rank = np.linalg.matrix_rank(raw, tol=1e-8 * np.linalg.norm(raw))
    assert theta.shape[1] == rank
