import gc
import weakref

import numpy as np
import pytest
from conftest import direct_snapshots

from mspg import harness, trial_space
from mspg.assembly import assemble, constant_field
from mspg.errors import LocalSolverError
from mspg.grid import build_coarse_topology, build_fine_mesh, hat_values
from mspg.harness import ExperimentConfig, Workspace, sweep_experiment
from mspg.trial_space import (
    BlockExtensions,
    block_factors,
    partition_of_unity,
    trial_eigenbasis,
    trial_snapshots,
)


@pytest.fixture(scope="module")
def laplace32():
    mesh = build_fine_mesh(32)
    topo = build_coarse_topology(mesh, 4)
    return topo, assemble(mesh, constant_field(kappa=1.0))


def interior_node(topo):
    # coarse node (2, 2): its neighborhood stays away from the domain boundary
    return 2 * (topo.nc + 1) + 2


def interior_snapshots(topo, op):
    """The interior node's neighborhood and its snapshots."""
    node = interior_node(topo)
    extensions = BlockExtensions(topo, op, block_factors(topo, op))
    return topo.neighborhoods[node], trial_snapshots(topo, op, node, extensions)


def test_snapshot_count_interior(laplace32):
    topo, op = laplace32
    _, phi = interior_snapshots(topo, op)
    # boundary lattice nodes of a 2r x 2r cell square, corners included
    assert phi.shape[1] == 8 * topo.r


def test_snapshot_delta_property(laplace32):
    topo, op = laplace32
    nb, phi = interior_snapshots(topo, op)
    assert phi.shape[0] == nb.closure.size
    assert np.array_equal(phi[nb.interior.size :, :], np.eye(nb.boundary.size))


def test_snapshot_interior_residual(laplace32):
    topo, op = laplace32
    nb, phi = interior_snapshots(topo, op)
    full = np.zeros((op.A.shape[0], phi.shape[1]))
    full[nb.closure, :] = phi
    resid = (op.A @ full)[nb.interior, :]
    scale = np.linalg.norm(phi, axis=0)
    assert (np.linalg.norm(resid, axis=0) / scale).max() <= 1e-9


def test_snapshot_constant_reproduction(laplace32):
    topo, op = laplace32
    _, phi = interior_snapshots(topo, op)
    combo = phi @ np.ones(phi.shape[1])
    assert np.allclose(combo, 1.0, atol=1e-9)


def test_eigenbasis_full_selection_preserves_span(laplace32):
    topo, op = laplace32
    nb, phi = interior_snapshots(topo, op)
    modes = trial_eigenbasis(nb, phi, op, phi.shape[1], "submatrix")
    assert modes.shape == phi.shape
    # change of basis only: projecting the snapshots onto the reduced
    # vectors loses nothing
    Q = np.linalg.qr(modes)[0]
    resid = phi - Q @ (Q.T @ phi)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(phi)


def test_eigenvalues_nonnegative(laplace32):
    # the modes solve S c = lambda M c on the snapshot coefficients c (the
    # boundary rows of a mode, where every snapshot is a delta), with S =
    # A_snap^T A_snap positive semidefinite: every lambda is >= 0
    topo, op = laplace32
    nb, phi = interior_snapshots(topo, op)
    modes = trial_eigenbasis(nb, phi, op, phi.shape[1], "submatrix")
    A_snap = phi.T @ (op.A[nb.closure][:, nb.closure] @ phi)
    M_snap = phi.T @ (op.M[nb.closure][:, nb.closure] @ phi)
    c = modes[nb.interior.size :]
    Sc = A_snap.T @ (A_snap @ c)
    values = np.sum(c * Sc, axis=0) / np.sum(c * (M_snap @ c), axis=0)
    assert np.linalg.norm(Sc - (M_snap @ c) * values) <= 1e-8 * np.linalg.norm(Sc)
    assert values.min() >= -1e-9 * max(abs(values).max(), 1.0)


@pytest.mark.parametrize("restriction,min_cos", [("submatrix", 0.9), ("patch", 0.999999)])
def test_lowest_mode_near_constant_pure_diffusion(laplace32, restriction, min_cos):
    topo, op = laplace32
    nb, phi = interior_snapshots(topo, op)
    modes = trial_eigenbasis(nb, phi, op, 1, restriction=restriction)
    const = phi @ np.ones(phi.shape[1])
    v = modes[:, 0]
    cos = abs(v @ const) / (np.linalg.norm(v) * np.linalg.norm(const))
    assert cos >= min_cos


def test_eigenbasis_m_out_of_range(laplace32):
    topo, op = laplace32
    nb, phi = interior_snapshots(topo, op)
    with pytest.raises(ValueError):
        trial_eigenbasis(nb, phi, op, phi.shape[1] + 1, "submatrix")


def test_partition_of_unity_sums_to_one(ws_small):
    sums = np.asarray(ws_small.chi.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() <= 1e-9


def test_partition_of_unity_no_overshoot(ws_small):
    assert ws_small.chi.toarray().min() >= -0.2


def test_partition_of_unity_matches_hat_on_skeleton(ws_small):
    topo = ws_small.topology
    mesh = topo.mesh
    chi = ws_small.chi
    for l in (interior_node(topo), 0):
        col = chi[:, l].toarray().ravel()
        for block in topo.blocks:
            bx, by = mesh.node_coords(block.boundary_nodes)
            hat = hat_values(topo, l, bx, by)
            assert np.allclose(col[block.boundary_nodes], hat, atol=1e-12)


def bilinear_hats(topo):
    """Dense nodes x coarse-nodes matrix of the bilinear coarse hats."""
    x, y = topo.mesh.node_coords(np.arange(topo.mesh.num_nodes))
    return np.stack(
        [hat_values(topo, l, x, y) for l in range(topo.num_coarse_nodes)], axis=1
    )


def test_partition_of_unity_pure_diffusion_is_hat(laplace32):
    # constant kappa, no convection: the bilinear hats solve the local
    # problems exactly, so the multiscale partition equals them everywhere
    topo, op = laplace32
    chi = partition_of_unity(topo, op.A_nodes, block_factors(topo, op))
    assert np.abs(chi.toarray() - bilinear_hats(topo)).max() <= 1e-9


def test_partition_of_unity_multiscale_differs_inside(ws_small):
    hats = bilinear_hats(ws_small.topology)
    assert np.abs(ws_small.chi.toarray() - hats).max() > 1e-3


def column_nodes(topo, m):
    """Coarse node of every trial column: node-major, min(m, snapshot
    count) columns per node, where a node has one snapshot per boundary dof
    of its neighborhood."""
    counts = [min(m, nb.boundary.size) for nb in topo.neighborhoods]
    return np.repeat(np.arange(topo.num_coarse_nodes), counts)


def test_trial_matrix_columns_supported_in_neighborhood(ws_small):
    topo = ws_small.topology
    Xi = ws_small.trial(1).toarray()
    for col, node in enumerate(column_nodes(topo, 1)):
        nb = topo.neighborhoods[int(node)]
        outside = np.setdiff1d(
            np.arange(ws_small.mesh.num_dofs), nb.closure, assume_unique=False
        )
        assert np.all(Xi[outside, col] == 0.0)


def test_trial_matrix_column_count(ws_small):
    m = 2
    assert ws_small.trial(m).shape[1] == column_nodes(ws_small.topology, m).size


def dense_trial_matrix(ws, m):
    """The per-column dense assembly of the trial matrix, as an oracle."""
    topo, op = ws.topology, ws.op
    chi = ws.chi.toarray()
    extensions = BlockExtensions(topo, op, ws.block_factors)
    columns = []
    for nb in topo.neighborhoods:
        phi = trial_snapshots(topo, op, nb.node, extensions)
        if phi.shape[1] == 0:
            continue
        modes = trial_eigenbasis(nb, phi, op, min(m, phi.shape[1]), "submatrix")
        weights = chi[topo.mesh.node_of_dof[nb.closure], nb.node]
        for j in range(modes.shape[1]):
            col = np.zeros(topo.mesh.num_dofs)
            col[nb.closure] = weights * modes[:, j]
            columns.append(col)
    return np.column_stack(columns)


def test_trial_matrix_is_csc_without_stored_zeros():
    ws = Workspace(ExperimentConfig(example=1, alpha=2.0, nc=4, n=16, m=3))
    for m in (3, 1):
        Xi = ws.trial(m)
        assert Xi.format == "csc"
        assert np.all(Xi.data != 0.0)
        oracle = dense_trial_matrix(ws, m)
        if m == 3:
            # built at its own width: the same arithmetic as the oracle
            assert np.array_equal(Xi.toarray(), oracle)
        else:
            # sliced from the m=3 combinations, one product of another width
            assert np.abs(Xi.toarray() - oracle).max() <= 1e-14 * np.abs(oracle).max()


def test_sweep_builds_each_trial_snapshot_set_once(monkeypatch):
    calls, snapshots, workspaces = [], [], []
    build = trial_space.trial_snapshots

    def counting(topology, op, node, *factors):
        calls.append(node)
        snapshots.append(build(topology, op, node, *factors))
        return snapshots[-1]

    class Recorded(Workspace):
        def __init__(self, config):
            super().__init__(config)
            workspaces.append(self)

    monkeypatch.setattr(trial_space, "trial_snapshots", counting)
    monkeypatch.setattr(harness, "Workspace", Recorded)
    config = ExperimentConfig(example=1, alpha=2.0, nc=4, n=16)
    rows = sweep_experiment(config, [1, 3], [1], [1])
    assert [row.m_trial for row in rows] == [1, 3]
    (ws,) = workspaces
    assert sorted(calls) == list(range(ws.topology.num_coarse_nodes))
    for value in vars(ws).values():
        items = value.values() if isinstance(value, dict) else (
            value if isinstance(value, list) else [value]
        )
        held = [item for item in items if isinstance(item, np.ndarray)]
        assert not any(np.shares_memory(item, phi) for item in held for phi in snapshots)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_trial_matrix_full_rank(ws_small, m):
    Xi = ws_small.trial(m)
    s = np.linalg.svd((Xi.T @ Xi).toarray(), compute_uv=False)
    assert s.min() > 1e-12 * s.max()


def test_reduction_nesting(ws_small):
    Xi1 = ws_small.trial(1).toarray()
    Xi3 = ws_small.trial(3).toarray()
    Q = np.linalg.qr(Xi3)[0]
    resid = Xi1 - Q @ (Q.T @ Xi1)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(Xi1)


def test_projection_error_monotone_in_m(ws_small):
    errs = [ws_small.projection_error(m) for m in (1, 2, 3)]
    assert errs[0] >= errs[1] >= errs[2]


def test_corner_snapshots_solve_through_the_block_factor(ws_small):
    # a one-block neighborhood's interior is its block's, in the same order,
    # and its boundary the block's frame: its snapshots are the block's
    # forward extension, one solve through the held factor
    topo, op = ws_small.topology, ws_small.op
    extensions = BlockExtensions(topo, op, ws_small.block_factors)
    corners = [nb for nb in topo.neighborhoods if len(nb.blocks) == 1]
    assert len(corners) == 4
    for nb in corners:
        (b,) = nb.blocks
        assert np.array_equal(nb.interior, topo.blocks[b].interior)
        assert np.array_equal(nb.boundary, topo.blocks[b].boundary)
        held = trial_snapshots(topo, op, nb.node, extensions)
        assert np.array_equal(held[: nb.interior.size], extensions[b])
        own = direct_snapshots(op, nb)
        assert np.abs(held - own).max() <= 1e-13 * np.abs(own).max()


# ws_contrast (example 5, contrast 500) reads 1.8e-13 on neighborhood 50,
# where the cross Schur complement has condition 4.7e4 against 1.6e3 for the
# interior operator; the direct solve itself lies 9.2e-14 from a refined one
@pytest.mark.parametrize("name, bound", [("ws_small", 1e-13), ("ws_contrast", 1e-12)])
def test_snapshots_match_a_direct_neighborhood_solve(request, name, bound):
    ws = request.getfixturevalue(name)
    topo, op = ws.topology, ws.op
    extensions = BlockExtensions(topo, op, ws.block_factors)
    for nb in topo.neighborhoods:
        got, want = trial_snapshots(topo, op, nb.node, extensions), direct_snapshots(op, nb)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= bound * np.abs(want).max(), nb.node


def test_a_corrupted_extension_raises_naming_its_neighborhood(ws_small):
    topo, op = ws_small.topology, ws_small.op
    nb = topo.neighborhoods[interior_node(topo)]
    extensions = BlockExtensions(topo, op, ws_small.block_factors)
    extensions[nb.blocks[0]][0] *= 1.0 + 1e-6  # one interior row off by 1e-6
    with pytest.raises(LocalSolverError, match=f"neighborhood {nb.node}\\b") as caught:
        trial_snapshots(topo, op, nb.node, extensions)
    assert 1e-10 < caught.value.residual < 1e-4


def test_block_extensions_span_two_block_rows_and_die_with_their_stage(monkeypatch):
    # an extension of the 6,241-dof blocks at n=800 takes 15.8 MB: a stage
    # holds one block row and two blocks of them per direction at most, and
    # none outlives the stage that built it
    built = []  # (weak ref to its BlockExtensions, direction, block, weak ref)
    get = BlockExtensions.__getitem__

    def spying(self, b):
        H = get(self, b)
        if not any(ref() is H for *_, ref in built):
            built.append((weakref.ref(self), self.trans, b, weakref.ref(H)))
            for trans in ("N", "T"):
                alive = [
                    block
                    for owner, direction, block, ref in built
                    if owner() is self and direction == trans and ref() is not None
                ]
                assert len(alive) <= self.topology.nc + 2, alive
                assert len({self.topology.blocks[block].ij[1] for block in alive}) <= 2
            # the extensions of a finished stage are gone
            assert all(ref() is None for owner, *_, ref in built if owner() is None)
        return H

    workspaces = []

    class Recorded(Workspace):
        def __init__(self, config):
            super().__init__(config)
            workspaces.append(self)

    monkeypatch.setattr(BlockExtensions, "__getitem__", spying)
    monkeypatch.setattr(harness, "Workspace", Recorded)
    config = ExperimentConfig(example=1, alpha=2.0, nc=4, n=16)
    rows = sweep_experiment(config, [1, 3], [1], [1, 2])
    assert len(rows) == 4
    (ws,) = workspaces
    blocks = len(ws.topology.blocks)
    # the trial stage forward, eigenproblem 1 adjoint, eigenproblem 2 both
    assert len(built) == 4 * blocks
    # a view of an extension keeps it alive, so no dead one shares memory
    # with what the Workspace holds (as test_sweep_builds_each_trial_snapshot_set_once
    # checks of the snapshots)
    gc.collect()
    assert all(ref() is None for *_, ref in built)
