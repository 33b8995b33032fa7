"""Offline trial space: vertex-neighborhood snapshots, spectral reduction,
partition of unity, and the assembled trial matrix.

For every coarse node the snapshot space collects the discrete harmonic
extensions of nodal deltas on the neighborhood boundary (skipping nodes on
the domain boundary, which carry no dofs).  A generalized eigenproblem in
the squared-operator metric picks the m smoothest combinations, which are
then localized by a partition of unity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import SparseOperator
from .errors import SingularMetricError
from .grid import CoarseTopology, hat_values
from .numerics import column_sparse, generalized_sym_eig, local_dirichlet_solve


@dataclass(frozen=True)
class TrialSnapshotSet:
    """Harmonic snapshots of one neighborhood.

    ``columns`` is aligned to ``closure_dofs`` = interior ++ boundary; each
    column carries a single 1 on its own boundary node.  ``cell_box`` keeps
    the fine-cell rectangle for patch-local re-assembly.
    """

    node: int
    interior_dofs: np.ndarray
    boundary_dofs: np.ndarray
    closure_dofs: np.ndarray
    columns: np.ndarray
    cell_box: tuple[int, int, int, int]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


def trial_snapshots(topology: CoarseTopology, op: SparseOperator, l: int) -> TrialSnapshotSet:
    """Solve the boundary-delta problems of neighborhood ``l`` in one sweep."""
    nb = topology.neighborhoods[l]
    interior, boundary = nb.interior, nb.boundary
    A_ii = op.A[interior][:, interior]
    A_ib = op.A[interior][:, boundary]
    X = local_dirichlet_solve(A_ii, -A_ib.toarray(), label=f"neighborhood {l}")
    columns = np.vstack([X, np.eye(boundary.size)])
    return TrialSnapshotSet(
        node=l,
        interior_dofs=interior,
        boundary_dofs=boundary,
        closure_dofs=nb.closure,
        columns=columns,
        cell_box=nb.cell_box,
    )


@dataclass(frozen=True)
class TrialEigenbasis:
    """Reduced vectors of one neighborhood (columns on the closure dofs)."""

    node: int
    closure_dofs: np.ndarray
    vectors: np.ndarray
    eigenvalues: np.ndarray


def trial_eigenbasis(
    snapshots: TrialSnapshotSet,
    op: SparseOperator,
    m: int,
    restriction: str = "submatrix",
) -> TrialEigenbasis:
    """Keep the m smallest eigenmodes of the snapshot-reduced problem.

    ``restriction`` picks the neighborhood operator: ``submatrix`` extracts
    the global matrix entrywise (keeps truncated couplings to the outside
    in the boundary rows); ``patch`` re-assembles over the neighborhood
    cells only, which puts constants exactly in the kernel so the first
    mode is the near-constant one and m=1 reduces to the plain
    partition-of-unity space away from the domain boundary.
    """
    if m < 1 or m > snapshots.count:
        raise ValueError(
            f"m={m} outside 1..{snapshots.count} for neighborhood {snapshots.node}"
        )
    c = snapshots.closure_dofs
    phi = snapshots.columns
    if restriction == "patch":
        from .assembly import assemble_nodes

        nodes = op.mesh.node_of_dof[c]
        A_full, M_full, _ = assemble_nodes(op.mesh, op.field, cell_box=snapshots.cell_box)
        A_sub = A_full[nodes][:, nodes]
        M_sub = M_full[nodes][:, nodes]
    elif restriction == "submatrix":
        A_sub = op.A[c][:, c]
        M_sub = op.M[c][:, c]
    else:
        raise ValueError(f"unknown restriction mode {restriction!r}")
    A_snap = phi.T @ (A_sub @ phi)
    M_snap = phi.T @ (M_sub @ phi)
    try:
        pairs = generalized_sym_eig(A_snap.T @ A_snap, M_snap)
    except SingularMetricError as exc:
        raise SingularMetricError(
            f"snapshot mass singular on neighborhood {snapshots.node}: {exc}"
        ) from exc
    return TrialEigenbasis(
        node=snapshots.node,
        closure_dofs=c,
        vectors=phi @ pairs.vectors[:, :m],
        eigenvalues=pairs.values,
    )


def partition_of_unity(
    topology: CoarseTopology, op: SparseOperator, mode: str = "ms"
) -> sp.csc_matrix:
    """One column per coarse node, summing to 1 at every lattice node.

    ``ms`` extends the coarse hat traces harmonically (w.r.t. the assembled
    operator) into each block; ``hat`` just interpolates the bilinear hats.
    Columns live on all lattice nodes: hats of boundary coarse nodes are
    nonzero on the domain boundary, where the trial functions they multiply
    vanish anyway.
    """
    mesh = topology.mesh
    nc = topology.nc
    num_nodes = mesh.num_nodes
    cols = {l: ([], []) for l in range(topology.num_coarse_nodes)}

    if mode == "hat":
        all_nodes = np.arange(num_nodes)
        x, y = mesh.node_coords(all_nodes)
        for l in range(topology.num_coarse_nodes):
            vals = hat_values(topology, l, x, y)
            nz = np.flatnonzero(vals)
            cols[l][0].append(nz)
            cols[l][1].append(vals[nz])
    elif mode == "ms":
        A = op.A_nodes
        for block in topology.blocks:
            I, J = block.ij
            corners = [
                b * (nc + 1) + a for b in (J, J + 1) for a in (I, I + 1)
            ]
            bx, by = mesh.node_coords(block.boundary_nodes)
            traces = np.stack(
                [hat_values(topology, l, bx, by) for l in corners], axis=1
            )
            A_ii = A[block.interior_nodes][:, block.interior_nodes]
            A_ib = A[block.interior_nodes][:, block.boundary_nodes]
            X = local_dirichlet_solve(
                A_ii, -(A_ib @ traces), label=f"block {block.index}"
            )
            for k, l in enumerate(corners):
                cols[l][0].append(block.boundary_nodes)
                cols[l][1].append(traces[:, k])
                cols[l][0].append(block.interior_nodes)
                cols[l][1].append(X[:, k])
    else:
        raise ValueError(f"unknown partition-of-unity mode {mode!r}")

    blocks = []
    scratch = np.zeros(num_nodes)
    for l in range(topology.num_coarse_nodes):
        idx_parts, val_parts = cols[l]
        touched = (
            np.unique(np.concatenate(idx_parts)) if idx_parts else np.array([], int)
        )
        for idx, val in zip(idx_parts, val_parts):
            scratch[idx] = val  # duplicates agree: shared nodes carry hat traces
        blocks.append((touched, scratch[touched, None]))
        scratch[touched] = 0.0
    return column_sparse(num_nodes, blocks)


@dataclass(frozen=True)
class TrialBasis:
    """Assembled trial matrix with per-neighborhood spectral bookkeeping."""

    Xi: np.ndarray
    chi: sp.csc_matrix
    column_nodes: np.ndarray
    eigenvalues: dict

    @property
    def count(self) -> int:
        return self.Xi.shape[1]


def assemble_trial_matrix(
    topology: CoarseTopology, bases: list[TrialEigenbasis], chi: sp.csc_matrix
) -> TrialBasis:
    """Nodal product of partition-of-unity and reduced vectors, node-major."""
    mesh = topology.mesh
    num_dofs = mesh.num_dofs
    total = sum(b.vectors.shape[1] for b in bases)
    Xi = np.zeros((num_dofs, total))
    column_nodes = np.zeros(total, dtype=np.int64)
    eigenvalues = {}
    col = 0
    for basis in sorted(bases, key=lambda b: b.node):
        chi_nodes = chi[:, basis.node].toarray().ravel()
        weights = chi_nodes[mesh.node_of_dof[basis.closure_dofs]]
        for j in range(basis.vectors.shape[1]):
            Xi[basis.closure_dofs, col] = weights * basis.vectors[:, j]
            column_nodes[col] = basis.node
            col += 1
        eigenvalues[basis.node] = basis.eigenvalues
    return TrialBasis(Xi=Xi, chi=chi, column_nodes=column_nodes, eigenvalues=eigenvalues)
