"""Offline trial space: vertex-neighborhood snapshots, spectral reduction,
partition of unity, and the assembled trial matrix.

For every coarse node the snapshot space collects the discrete harmonic
extensions of nodal deltas on the neighborhood boundary (skipping nodes on
the domain boundary, which carry no dofs).  A generalized eigenproblem in
the squared-operator metric picks the m smoothest combinations, which are
then localized by a partition of unity, extended into each coarse block
through the one factorization of its interior operator (``block_factors``),
which also serves the snapshots of the one-block (corner) neighborhoods.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .assembly import SparseOperator, assemble_nodes
from .errors import SingularMetricError
from .grid import CoarseTopology, Neighborhood, hat_values
from .numerics import CheckedFactor, column_sparse, generalized_sym_eig, harmonic_extension


def trial_snapshots(
    topology: CoarseTopology, op: SparseOperator, l: int, factors=()
) -> np.ndarray:
    """Harmonic snapshots of neighborhood ``l``, solved in one sweep: one
    column per boundary dof, aligned to ``nb.closure`` (interior ++
    boundary), each carrying a single 1 on its own boundary dof.

    The interior of a one-block (corner) neighborhood is its block's
    interior in the same dof order (both list the block's box of nodes), so
    with the ``block_factors`` given it is solved through the block's factor.
    """
    nb = topology.neighborhoods[l]
    factor = factors[nb.blocks[0]] if factors and len(nb.blocks) == 1 else None
    X = harmonic_extension(
        op.A, nb.interior, nb.boundary, label=f"neighborhood {l}", factor=factor
    )
    return np.vstack([X, np.eye(nb.boundary.size)])


def trial_eigenbasis(
    nb: Neighborhood,
    phi: np.ndarray,
    op: SparseOperator,
    m: int,
    restriction: str,
) -> np.ndarray:
    """The m smallest eigenmodes of the reduced problem on the snapshots
    ``phi`` of neighborhood ``nb`` (``trial_snapshots``), as combinations of
    the snapshots aligned to ``nb.closure``.

    ``restriction`` picks the neighborhood operator: ``submatrix`` extracts
    the global matrix entrywise (keeps truncated couplings to the outside
    in the boundary rows); ``patch`` re-assembles over the neighborhood
    cells only, which puts constants exactly in the kernel so the first
    mode is the near-constant one and m=1 reduces to the plain
    partition-of-unity space away from the domain boundary.
    """
    if m < 1 or m > phi.shape[1]:
        raise ValueError(f"m={m} outside 1..{phi.shape[1]} for neighborhood {nb.node}")
    c = nb.closure
    if restriction == "patch":
        nodes = op.mesh.node_of_dof[c]
        A_full, M_full, _ = assemble_nodes(op.mesh, op.field, cell_box=nb.cell_box)
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
        _, vectors = generalized_sym_eig(A_snap.T @ A_snap, M_snap)
    except SingularMetricError as exc:
        raise SingularMetricError(
            f"snapshot mass singular on neighborhood {nb.node}: {exc}"
        ) from exc
    return phi @ vectors[:, :m]


def block_factors(topology: CoarseTopology, op: SparseOperator) -> tuple[CheckedFactor, ...]:
    """One checked LU of every coarse block's interior operator A_II, in
    block order; every block-local solve goes through it.

    The block interiors do not couple to each other, and a block's matrix
    is the same in node and dof numbering (``Block.interior`` lists the
    dofs of ``interior_nodes`` in their order), so the factor serves the
    solves on ``op.A_nodes`` as well as those on ``op.A``; solves with A_II^T
    (``trans="T"``) serve the adjoint ones.
    """
    return tuple(
        CheckedFactor(op.A[block.interior][:, block.interior], label=f"block {block.index}")
        for block in topology.blocks
    )


def partition_of_unity(
    topology: CoarseTopology, A_nodes: sp.spmatrix, factors, trans: str = "N"
) -> sp.csc_matrix:
    """One column per coarse node, summing to 1 at every lattice node.

    The coarse hat traces on the block boundaries are extended into each
    block harmonically w.r.t. the node operator ``A_nodes``, or w.r.t. its
    transpose with ``trans="T"`` (the adjoint-harmonic hats of the test
    space), through the block's ``factors`` entry (``block_factors``).
    Columns live on all lattice nodes: hats of boundary coarse nodes are
    nonzero on the domain boundary, where the trial functions they multiply
    vanish anyway.
    """
    mesh = topology.mesh
    nc = topology.nc
    num_nodes = mesh.num_nodes
    cols = {l: ([], []) for l in range(topology.num_coarse_nodes)}
    for block in topology.blocks:
        I, J = block.ij
        corners = [b * (nc + 1) + a for b in (J, J + 1) for a in (I, I + 1)]
        inner, frame = block.interior_nodes, block.boundary_nodes
        bx, by = mesh.node_coords(frame)
        traces = np.stack([hat_values(topology, l, bx, by) for l in corners], axis=1)
        K_ib = A_nodes[inner][:, frame] if trans == "N" else A_nodes[frame][:, inner].T
        X = factors[block.index].solve(-(K_ib @ traces), trans=trans)
        for k, l in enumerate(corners):
            cols[l][0].append(frame)
            cols[l][1].append(traces[:, k])
            cols[l][0].append(inner)
            cols[l][1].append(X[:, k])

    blocks = []
    scratch = np.zeros(num_nodes)
    for l in range(topology.num_coarse_nodes):
        idx_parts, val_parts = cols[l]
        touched = np.unique(np.concatenate(idx_parts))  # every node has a block
        for idx, val in zip(idx_parts, val_parts):
            scratch[idx] = val  # duplicates agree: shared nodes carry hat traces
        blocks.append((touched, scratch[touched, None]))
        scratch[touched] = 0.0
    return column_sparse(num_nodes, blocks)


def assemble_trial_matrix(
    topology: CoarseTopology, modes: dict[int, np.ndarray], chi: sp.csc_matrix, m: int
) -> sp.csc_matrix:
    """The CSC trial matrix Xi: the nodal product of the partition of unity
    and the first m of each node's ``modes`` (``trial_eigenbasis``, aligned
    to the node's ``nb.closure``), node-major.

    The partition of unity vanishes on each neighborhood boundary, so the
    products hold exact zeros there; they are not stored.
    """
    node_of_dof = topology.mesh.node_of_dof
    blocks = []
    for node in sorted(modes):
        closure = topology.neighborhoods[node].closure
        weights = chi[:, node].toarray().ravel()[node_of_dof[closure]]
        blocks.append((closure, weights[:, None] * modes[node][:, :m]))
    Xi = column_sparse(topology.mesh.num_dofs, blocks)
    Xi.eliminate_zeros()
    return Xi
