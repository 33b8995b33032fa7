import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import form_coefficients

from mspg import harness, test_space
from mspg.assembly import assemble, constant_field
from mspg.grid import build_coarse_topology, build_fine_mesh
from mspg.harness import ExperimentConfig, Workspace, sweep_experiment
from mspg.numerics import orthonormalize_columns
from mspg.test_space import (
    assemble_test_matrix,
    build_W1,
    build_W2,
    build_W3_snapshots,
    eigenproblem_1,
    eigenproblem_2,
)
from mspg.trial_space import block_factors, partition_of_unity


def bubble_order(topo, Xi):
    """(block, source trial column) of every bubble of ``build_W1``: block
    by block, and within a block the trial columns with an entry inside it
    in ascending order."""
    order = [
        (block.index, col)
        for block in topo.blocks
        for col in np.flatnonzero(Xi[block.interior, :].getnnz(axis=0))
    ]
    return np.array(order, dtype=np.int64).reshape(-1, 2).T


def test_bubble_count_interior_block(ws_small):
    m = 2
    Xi = ws_small.trial(m)
    w1 = build_W1(ws_small.topology, ws_small.op, Xi, ws_small.block_factors)
    block_ids, _ = bubble_order(ws_small.topology, Xi)
    assert w1.shape[1] == block_ids.size
    interior_blocks = [
        b.index for b in ws_small.topology.blocks if 0 < b.ij[0] < 3 and 0 < b.ij[1] < 3
    ]
    for kb in interior_blocks:
        # four vertex neighborhoods overlap an interior block
        assert (block_ids == kb).sum() == 4 * m


@pytest.mark.parametrize("m", [1, 3])
def test_bubbles_from_the_sparse_trial_matrix_match_the_dense_loop(ws_small, m):
    # the per-block loop over a dense trial matrix, as an oracle
    topo, op = ws_small.topology, ws_small.op
    Xi = ws_small.trial(m)
    dense = Xi.toarray()
    blocks, block_ids, source_columns = [], [], []
    for block in topo.blocks:
        I = block.interior
        overlapping = np.flatnonzero(np.any(dense[I, :] != 0.0, axis=0))
        if overlapping.size:
            X = ws_small.block_factors[block.index].solve(dense[I][:, overlapping], trans="T")
            for j, col in enumerate(overlapping):
                full = np.zeros(op.A.shape[0])
                full[I] = X[:, j]
                blocks.append(full)
                block_ids.append(block.index)
                source_columns.append(col)
    w1 = build_W1(topo, op, Xi, ws_small.block_factors)
    assert np.array_equal(bubble_order(topo, Xi), [block_ids, source_columns])
    assert np.array_equal(w1.toarray(), np.column_stack(blocks))


def test_bubble_zero_sources_skipped(ws_small):
    topo, Xi = ws_small.topology, ws_small.trial(1)
    w1 = build_W1(topo, ws_small.op, Xi, ws_small.block_factors)
    block_ids, source_columns = bubble_order(topo, Xi)
    dense = Xi.toarray()
    assert w1.shape[1] == block_ids.size
    for kb, col in zip(block_ids, source_columns):
        assert np.any(dense[topo.blocks[kb].interior, col] != 0.0)


def test_bubble_adjoint_residual(ws_small):
    op = ws_small.op
    w1 = build_W1(ws_small.topology, op, ws_small.trial(1), ws_small.block_factors)
    block_ids, source_columns = bubble_order(ws_small.topology, ws_small.trial(1))
    Xi = ws_small.trial(1).toarray()
    cols = w1.toarray()
    At = op.A.T
    for k in range(0, w1.shape[1], 7):
        block = ws_small.topology.blocks[block_ids[k]]
        resid = (At @ cols[:, k])[block.interior] - Xi[block.interior, source_columns[k]]
        assert np.linalg.norm(resid) <= 1e-9 * max(
            np.linalg.norm(Xi[block.interior, source_columns[k]]), 1e-30
        )


def test_bubble_support(ws_small):
    w1 = build_W1(ws_small.topology, ws_small.op, ws_small.trial(1), ws_small.block_factors)
    block_ids, _ = bubble_order(ws_small.topology, ws_small.trial(1))
    cols = w1.toarray()
    for k in range(0, w1.shape[1], 5):
        block = ws_small.topology.blocks[block_ids[k]]
        outside = np.setdiff1d(np.arange(cols.shape[0]), block.interior)
        assert np.all(cols[outside, k] == 0.0)


def test_vertex_trace_count_and_values(ws_small):
    topo = ws_small.topology
    w2 = build_W2(topo, ws_small.op, ws_small.block_factors)
    assert w2.shape[1] == (topo.nc - 1) ** 2
    mesh = topo.mesh
    cols = w2.toarray()
    for j, node in enumerate(topo.interior_coarse_nodes):
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
    factors = block_factors(topo, op)
    w2 = build_W2(topo, op, factors)
    chi = partition_of_unity(topo, op.A_nodes, factors)
    chi_dofs = chi.toarray()[mesh.node_of_dof, :]
    cols = w2.toarray()
    for j, node in enumerate(topo.interior_coarse_nodes):
        assert np.allclose(cols[:, j], chi_dofs[:, int(node)], atol=1e-9)


def test_edge_snapshot_count_and_delta(ws_small):
    topo = ws_small.topology
    snap = build_W3_snapshots(ws_small.topology, ws_small.op, 0, ws_small.block_factors)
    r = topo.r
    assert snap.shape[1] == r - 1
    edge = topo.edges[0]
    # the edge dofs are the last r-1 entries of the region
    assert np.array_equal(snap[-(r - 1) :, :], np.eye(r - 1))
    # deltas sum to the indicator on the edge interior
    total = snap @ np.ones(r - 1)
    assert np.allclose(total[-(r - 1) :], 1.0)


def test_edge_snapshot_support_and_residual(ws_small):
    op = ws_small.op
    snap = build_W3_snapshots(ws_small.topology, ws_small.op, 3, ws_small.block_factors)
    edge = ws_small.topology.edges[3]
    full = np.zeros((op.A.shape[0], snap.shape[1]))
    full[edge.region, :] = snap
    outside = np.setdiff1d(np.arange(op.A.shape[0]), edge.region)
    assert np.all(full[outside, :] == 0.0)
    interiors = np.concatenate(
        [ws_small.topology.blocks[kb].interior for kb in edge.blocks]
    )
    resid = (op.A.T @ full)[interiors, :]
    assert np.abs(resid).max() <= 1e-9 * np.abs(snap).max()


def _spectrum(ws, k, problem):
    """Edge k's spectrum with every mode kept, built outside the workspace."""
    edge = ws.topology.edges[k]
    psi = build_W3_snapshots(ws.topology, ws.op, k, ws.block_factors)
    if problem == 1:
        return eigenproblem_1(edge, psi, ws.op)
    return eigenproblem_2(edge, psi, ws.op, ws.block_factors)


def test_eigenproblem_1_nonnegative_and_full_selection(ws_small):
    res = _spectrum(ws_small, 1, 1)
    ns = ws_small.topology.r - 1
    assert res.eigenvalues.min() >= -1e-9 * max(res.eigenvalues.max(), 1.0)
    assert res.combos.shape == (res.edge.region.size, ns)
    assert res.excluded(ns) == np.inf


def test_eigenproblem_1_grows_under_refinement():
    # same coarse grid, same physical edge, finer fine mesh: the top of the
    # spectrum moves up
    tops = []
    for n in (32, 64):
        mesh = build_fine_mesh(n)
        topo = build_coarse_topology(mesh, 4)
        op = assemble(mesh, constant_field(kappa=1.0, b=(1.0, 0.5)))
        snap = build_W3_snapshots(topo, op, 5, block_factors(topo, op))
        res = eigenproblem_1(topo.edges[5], snap, op)
        tops.append(res.eigenvalues.max())
    assert tops[1] > tops[0]


def test_eigenproblem_2_unit_interval(ws_small):
    for spectrum in ws_small.edge_spectra(2):
        vals = spectrum.eigenvalues
        assert vals.min() >= -1e-10
        assert vals.max() <= 1.0 + 1e-10


def test_eigenproblem_2_lambda_monotone_in_L(ws_small):
    full = _spectrum(ws_small, 2, 2)
    lams = [full.excluded(L) for L in range(1, ws_small.topology.r)]
    assert all(lams[i + 1] >= lams[i] for i in range(len(lams) - 2))
    assert lams[-1] == np.inf


def test_selection_nesting():
    # the workspace keeps a prefix of every edge's modes; a larger L rebuilds
    # it, and the smaller prefix is the leading block of the larger one
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="cell Peclet")
        ws = Workspace(ExperimentConfig(example=1, alpha=2.0, nc=4, n=16, L=1))
    one = ws.edge_spectra(2, 1)
    three = ws.edge_spectra(2, 3)
    assert ws.edge_spectra(2, 2) is three
    for a, b in zip(one, three):
        assert a.combos.shape[1] == 1 and b.combos.shape[1] == 3
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(b.combos[:, :1], a.combos)
    full = _spectrum(ws, 4, 2)
    assert np.array_equal(full.combos[:, :3], three[4].combos)


def test_eigenproblem_L_out_of_range(ws_small):
    full = _spectrum(ws_small, 0, 1)
    ns = ws_small.topology.r - 1
    assert full.excluded(ns) == np.inf
    for L in (0, ns + 1):
        with pytest.raises(ValueError):
            full.excluded(L)
    # a test matrix asks for no more modes than the spectra hold
    spectra = ws_small.edge_spectra(1, 2)
    held = spectra[0].combos.shape[1]
    with pytest.raises(ValueError):
        assemble_test_matrix(ws_small.w1(1), ws_small.w2(), spectra, held + 1)


def _min_energy_oracle(op, edge, psi):
    """(ext^T B ext, psi^T B psi) with B = A_loc A_loc^T formed: the edge rows
    of ext carry the identity and its free rows solve B_ff x = -B_fe,
    factored by splu."""
    A_loc = op.A[edge.region][:, edge.region]
    B = (A_loc @ A_loc.T).tocsr()
    ns = edge.interior.size
    free, local = np.arange(B.shape[0] - ns), np.arange(B.shape[0] - ns, B.shape[0])
    ext = np.zeros((B.shape[0], ns))
    ext[local] = np.eye(ns)
    ext[free] = spla.splu(B[free][:, free].tocsc()).solve(-B[free][:, local].toarray())
    return ext.T @ (B @ ext), psi.T @ (B @ psi)


@pytest.mark.parametrize("workspace, rel", [("ws_small", 1e-12), ("ws_contrast", 1e-8)])
def test_eigenproblem_2_region_grams_match_the_minimum_energy_formula(
    request, monkeypatch, workspace, rel
):
    # eigenproblem 2 never forms B; the two Grams it
    # hands to the eigensolver are those of the formed-B formula
    ws = request.getfixturevalue(workspace)
    grams = []
    kernel = test_space.generalized_sym_eig

    def recording(S_min, S):
        grams.append((S_min, S))
        return kernel(S_min, S)

    monkeypatch.setattr(test_space, "generalized_sym_eig", recording)
    for edge in ws.topology.edges:
        snap = build_W3_snapshots(ws.topology, ws.op, edge.index, ws.block_factors)
        eigenproblem_2(edge, snap, ws.op, ws.block_factors)
        for got, oracle in zip(grams[-1], _min_energy_oracle(ws.op, edge, snap)):
            assert np.linalg.norm(got - oracle) <= rel * np.linalg.norm(oracle), edge.index


def test_assembled_test_matrix_orthonormal(ws_small, basis_q):
    V = ws_small.test_matrix(1, 2, 2)
    E = len(ws_small.topology.edges)
    assert V.format == "csc" and V.shape[1] == ws_small.w1(1).shape[1] + ws_small.w2().shape[1] + 2 * E
    # the test basis is orthonormal in the natural norm ||A^T w||
    basis = test_space.test_basis(ws_small.op, V, *ws_small.image_structure(1))
    Q = basis_q()
    gram = Q.T @ Q
    assert abs(gram - np.eye(basis.count)).max() <= 1e-10
    assert basis.count <= V.shape[1]


def test_full_selection_spans_whole_snapshot_space(ws_small):
    # with every edge mode kept, the assembled matrix must span exactly the
    # concatenated snapshot collection (rank by SVD)
    r = ws_small.topology.r
    w1 = ws_small.w1(1)
    w2 = ws_small.w2()
    V = ws_small.test_matrix(1, r - 1, 1)
    columns = [w1.toarray(), w2.toarray()]
    for k, edge in enumerate(ws_small.topology.edges):
        snap = np.zeros((ws_small.mesh.num_dofs, r - 1))
        snap[edge.region] = build_W3_snapshots(
            ws_small.topology, ws_small.op, k, ws_small.block_factors
        )
        columns.append(snap)
    raw = np.hstack(columns)
    rank = np.linalg.matrix_rank(raw, tol=1e-8 * np.linalg.norm(raw))
    basis = test_space.test_basis(ws_small.op, V, *ws_small.image_structure(1))
    assert V.shape[1] == raw.shape[1]
    assert basis.count == rank


@pytest.mark.parametrize("problem", [1, 2])
def test_test_matrix_of_fewer_modes_is_a_leading_block(ws_small, problem):
    # W3 is mode-major, so V(L) is the leading block of V(L_max), stored alike
    L_max = ws_small.topology.r - 1
    V_max = ws_small.test_matrix(1, L_max, problem)
    E = len(ws_small.topology.edges)
    for L in range(1, L_max):
        V = ws_small.test_matrix(1, L, problem)
        n = ws_small.w1(1).shape[1] + ws_small.w2().shape[1] + L * E
        lead = V_max[:, :n]
        assert V.shape == lead.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(V, part), getattr(lead, part)), (L, part)


def test_w3_columns_are_mode_major(ws_small):
    w1, w2, spectra = ws_small.w1(1), ws_small.w2(), ws_small.edge_spectra(2, 3)
    V = assemble_test_matrix(w1, w2, spectra, 3)
    start, E = w1.shape[1] + w2.shape[1], len(spectra)
    assert V.shape[1] == start + 3 * E
    for j in range(3):
        for e, spectrum in enumerate(spectra):
            col = V[:, start + j * E + e].toarray().ravel()
            assert np.array_equal(col[spectrum.edge.region], spectrum.combos[:, j])
            assert not np.delete(col, spectrum.edge.region).any()


def test_sweep_builds_each_edge_snapshot_set_once_per_eigenproblem(monkeypatch):
    calls, workspaces = [], []
    build = test_space.build_W3_snapshots

    def counting(topology, op, k, factors):
        calls.append(k)
        return build(topology, op, k, factors)

    class Recorded(Workspace):
        def __init__(self, config):
            super().__init__(config)
            workspaces.append(self)

    monkeypatch.setattr(test_space, "build_W3_snapshots", counting)
    monkeypatch.setattr(harness, "Workspace", Recorded)
    config = ExperimentConfig(example=1, alpha=2.0, nc=4, n=16)
    rows = sweep_experiment(config, [1], [1, 3], [1, 2])
    assert len(rows) == 4
    (ws,) = workspaces
    E = len(ws.topology.edges)
    assert E == 24
    assert sorted(calls) == sorted(list(range(E)) * 2)
    # a later cell at a smaller L reads the kept modes
    for problem in (1, 2):
        ws.run_cell(1, 1, problem)
    assert len(calls) == 2 * E


def _structured_image(ws):
    """A workspace's test matrix with its structured A^T V and kernel input."""
    m = ws.config.m
    V = ws.test_matrix(m, ws.config.L, ws.config.eigenproblem)
    interiors, harmonic_from = ws.image_structure(m)
    AtV = test_space.adjoint_image(ws.op, V, interiors, harmonic_from)
    return V, interiors, harmonic_from, AtV, test_space.compressed_image(AtV, interiors)


@pytest.mark.parametrize("name", ["tiny", "ws_contrast"])
def test_harmonic_columns_have_no_image_in_a_block_interior(request, name):
    ws = request.getfixturevalue(name)
    V, interiors, harmonic_from, AtV, _ = _structured_image(ws)
    basis = test_space.test_basis(ws.op, V, interiors, harmonic_from)
    assert basis.AtV.nnz == AtV.nnz
    inside = np.zeros(V.shape[0], dtype=bool)
    inside[np.concatenate(interiors)] = True
    # W2 and W3 store nothing on a block interior row; the bubbles do
    assert basis.AtV[inside][:, harmonic_from:].nnz == 0
    assert basis.AtV[inside][:, :harmonic_from].nnz > 0
    # the entries left out are rounding residues of the plain product
    plain = (ws.op.A.T @ V).tocsc()
    residue = spla.norm(basis.AtV - plain, axis=0)
    assert np.all(residue <= 1e-12 * spla.norm(plain, axis=0))


@pytest.mark.parametrize("name, bound", [("tiny", 1e-12), ("ws_contrast", 1e-10)])
def test_the_kernel_on_the_compressed_image_matches_the_plain_one(request, name, bound):
    ws = request.getfixturevalue(name)
    V, interiors, _, AtV, rows = _structured_image(ws)
    by_rows = AtV.tocsr()
    skeleton = V.shape[0] - sum(interior.size for interior in interiors)
    stored = [np.unique(by_rows[interior].indices).size for interior in interiors]
    # every block is compressed, to a row per column it stores: it holds
    # its bubbles only
    assert all(interior.size > c for interior, c in zip(interiors, stored, strict=True))
    assert rows.shape[0] == skeleton + sum(stored) < V.shape[0]
    assert abs(rows.T @ rows - AtV.T @ AtV).max() <= 1e-13 * abs(AtV.T @ AtV).max()
    kept, steps = orthonormalize_columns(rows)
    kept_plain, steps_plain = orthonormalize_columns((ws.op.A.T @ V).tocsc())
    T, T_plain = form_coefficients(steps), form_coefficients(steps_plain)
    assert np.array_equal(kept, kept_plain)
    assert np.abs(T - T_plain).max() <= bound * np.abs(T_plain).max()

