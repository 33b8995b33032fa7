import numpy as np
import pytest

from mspg.assembly import assemble, constant_field
from mspg.grid import build_coarse_topology, build_fine_mesh, hat_values
from mspg.trial_space import (
    assemble_trial_matrix,
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


def test_snapshot_count_interior(laplace32):
    topo, op = laplace32
    snap = trial_snapshots(topo, op, interior_node(topo))
    # boundary lattice nodes of a 2r x 2r cell square, corners included
    assert snap.count == 8 * topo.r


def test_snapshot_delta_property(laplace32):
    topo, op = laplace32
    snap = trial_snapshots(topo, op, interior_node(topo))
    nb = snap.boundary_dofs.size
    boundary_rows = snap.columns[snap.interior_dofs.size :, :]
    assert np.array_equal(boundary_rows, np.eye(nb))


def test_snapshot_interior_residual(laplace32):
    topo, op = laplace32
    snap = trial_snapshots(topo, op, interior_node(topo))
    full = np.zeros((op.A.shape[0], snap.count))
    full[snap.closure_dofs, :] = snap.columns
    resid = (op.A @ full)[snap.interior_dofs, :]
    scale = np.linalg.norm(snap.columns, axis=0)
    assert (np.linalg.norm(resid, axis=0) / scale).max() <= 1e-9


def test_snapshot_constant_reproduction(laplace32):
    topo, op = laplace32
    snap = trial_snapshots(topo, op, interior_node(topo))
    combo = snap.columns @ np.ones(snap.count)
    assert np.allclose(combo, 1.0, atol=1e-9)


def test_eigenbasis_full_selection_preserves_span(laplace32):
    topo, op = laplace32
    snap = trial_snapshots(topo, op, interior_node(topo))
    basis = trial_eigenbasis(snap, op, snap.count)
    # change of basis only: projecting the snapshots onto the reduced
    # vectors loses nothing
    Q = np.linalg.qr(basis.vectors)[0]
    resid = snap.columns - Q @ (Q.T @ snap.columns)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(snap.columns)


def test_eigenvalues_nonnegative(laplace32):
    topo, op = laplace32
    snap = trial_snapshots(topo, op, interior_node(topo))
    basis = trial_eigenbasis(snap, op, 1)
    assert basis.eigenvalues.min() >= -1e-9 * max(abs(basis.eigenvalues).max(), 1.0)


@pytest.mark.parametrize("restriction,min_cos", [("submatrix", 0.9), ("patch", 0.999999)])
def test_lowest_mode_near_constant_pure_diffusion(laplace32, restriction, min_cos):
    topo, op = laplace32
    snap = trial_snapshots(topo, op, interior_node(topo))
    basis = trial_eigenbasis(snap, op, 1, restriction=restriction)
    const = snap.columns @ np.ones(snap.count)
    v = basis.vectors[:, 0]
    cos = abs(v @ const) / (np.linalg.norm(v) * np.linalg.norm(const))
    assert cos >= min_cos


def test_eigenbasis_m_out_of_range(laplace32):
    topo, op = laplace32
    snap = trial_snapshots(topo, op, interior_node(topo))
    with pytest.raises(ValueError):
        trial_eigenbasis(snap, op, snap.count + 1)


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
    chi = partition_of_unity(topo, op.A_nodes)
    assert np.abs(chi.toarray() - bilinear_hats(topo)).max() <= 1e-9


def test_partition_of_unity_multiscale_differs_inside(ws_small):
    hats = bilinear_hats(ws_small.topology)
    assert np.abs(ws_small.chi.toarray() - hats).max() > 1e-3


def test_trial_matrix_columns_supported_in_neighborhood(ws_small):
    basis = ws_small.trial(1)
    topo = ws_small.topology
    for col in range(basis.count):
        nb = topo.neighborhoods[int(basis.column_nodes[col])]
        outside = np.setdiff1d(
            np.arange(ws_small.mesh.num_dofs), nb.closure, assume_unique=False
        )
        assert np.all(basis.Xi[outside, col] == 0.0)


def test_trial_matrix_column_count(ws_small):
    m = 2
    basis = ws_small.trial(m)
    expected = sum(
        min(m, ws_small.snapshots(l).count)
        for l in range(ws_small.topology.num_coarse_nodes)
    )
    assert basis.count == expected


@pytest.mark.parametrize("m", [1, 3, 5])
def test_trial_matrix_full_rank(ws_small, m):
    Xi = ws_small.trial(m).Xi
    s = np.linalg.svd(Xi.T @ Xi, compute_uv=False)
    assert s.min() > 1e-12 * s.max()


def test_reduction_nesting(ws_small):
    Xi1 = ws_small.trial(1).Xi
    Xi3 = ws_small.trial(3).Xi
    Q = np.linalg.qr(Xi3)[0]
    resid = Xi1 - Q @ (Q.T @ Xi1)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(Xi1)


def test_projection_error_monotone_in_m(ws_small):
    errs = [ws_small.projection_error(m) for m in (1, 2, 3)]
    assert errs[0] >= errs[1] >= errs[2]
