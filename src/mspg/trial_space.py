"""Offline trial space: vertex-neighborhood snapshots, spectral reduction,
partition of unity, and the assembled trial matrix.

For every coarse node the snapshot space collects the discrete harmonic
extensions of nodal deltas on the neighborhood boundary (skipping nodes on
the domain boundary, which carry no dofs).  A generalized eigenproblem in
the squared-operator metric picks the m smoothest combinations, which are
then localized by a partition of unity.

No neighborhood is factored.  Each coarse block's interior operator is
factored once (``block_factors``), and each block's harmonic extension of
its frame dofs (``BlockExtensions``) is one multi-column solve through that
factor.  A neighborhood's snapshots are assembled from the extensions of
its blocks and a small dense Schur complement on the cross between them
(``trial_snapshots``); the partition of unity is extended into each block
through the same factor.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .assembly import SparseOperator, assemble_nodes
from .errors import LocalSolverError, SingularMetricError
from .grid import CoarseTopology, Neighborhood, hat_values
from .numerics import CheckedFactor, check_residual, column_sparse, generalized_sym_eig


class BlockExtensions:
    """Harmonic extensions of the frame dofs into the coarse blocks, one
    array per block, built on first use and held until ``drop_below``
    drops it.

    Block b's array is H_b = -A_II^{-1} A_{I,F} (``trans="N"``) or the
    adjoint H_b* = -A_II^{-T} A_{F,I}^T (``trans="T"``) for its interior I
    and its frame dofs F = ``block.boundary``: a row per interior dof and a
    column per frame dof, the extension of that dof's delta.  It is one
    multi-column solve through the block's factor (``block_factors``).  At
    n=800 (nc=10) one block's array is 6,241 x 316 doubles, 15.8 MB, so a
    stage reads its regions in ascending order of their lowest block and
    drops each block behind it (``drop_below``): one block row and two
    blocks are held at most.
    """

    def __init__(self, topology: CoarseTopology, op: SparseOperator, factors, trans: str = "N"):
        self.topology = topology
        self.op = op
        self.factors = factors
        self.trans = trans
        self._held: dict[int, np.ndarray] = {}

    def __getitem__(self, b: int) -> np.ndarray:
        if b not in self._held:
            block, A = self.topology.blocks[b], self.op.A
            if self.trans == "N":
                A_if = A[block.interior][:, block.boundary]
            else:
                A_if = A[block.boundary][:, block.interior].T
            self._held[b] = self.factors[b].solve(-A_if.toarray(), trans=self.trans)
        return self._held[b]

    def columns(self, b: int, dofs: np.ndarray) -> np.ndarray:
        """The columns of block b's extension on its frame dofs ``dofs``
        (ascending, as every index set of ``grid`` is)."""
        return self[b][:, np.searchsorted(self.topology.blocks[b].boundary, dofs)]

    def drop_below(self, b: int) -> None:
        """Drop the extensions of the blocks numbered below b.  A stage that
        reads its regions in ascending order of their lowest block reads
        none of those again."""
        for held in [held for held in self._held if held < b]:
            del self._held[held]


def trial_snapshots(
    topology: CoarseTopology, op: SparseOperator, l: int, extensions: BlockExtensions
) -> np.ndarray:
    """Harmonic snapshots of neighborhood ``l``: one column per boundary
    dof, aligned to ``nb.closure`` (interior ++ boundary), each carrying a
    single 1 on its own boundary dof; assembled from the forward
    ``extensions`` of the neighborhood's blocks.

    The interior holds the block interiors and the cross s, the interior
    dofs on no block interior (the coarse edges through the node).  A
    block's frame lies on s and on the neighborhood boundary B, so its
    values are x_b = H_b[:, B] + H_b[:, s] x_s, and the cross values solve
    the small dense Schur complement system S x_s = -A_sB - sum_b A_sb
    H_b[:, B], S = A_ss + sum_b A_sb H_b[:, s].  A one-block (corner)
    neighborhood has no cross: its snapshots are its block's extension.  As
    a ``CheckedFactor`` solve is, the result is checked: a singular S, or an
    assembled residual ||A_II X + A_IB|| above 1e-10 of ||A_IB||, is a
    ``LocalSolverError`` naming the neighborhood.
    """
    nb = topology.neighborhoods[l]
    label = f"neighborhood {l}"
    interior, frame = nb.interior, nb.boundary
    nI = interior.size
    A_I = op.A[interior][:, nb.closure]  # [A_II A_IB]
    # the part of each closure position, block i of nb.blocks (i), the cross
    # or B, and its index within the part
    on_cross, on_frame = len(nb.blocks), len(nb.blocks) + 1
    part = np.full(nb.closure.size, on_cross)
    part[nI:] = on_frame
    index = np.concatenate([np.zeros(nI, dtype=np.int64), np.arange(frame.size)])
    for i, b in enumerate(nb.blocks):
        rows = np.searchsorted(interior, topology.blocks[b].interior)
        part[rows], index[rows] = i, np.arange(rows.size)
    cross = np.flatnonzero(part == on_cross)
    index[cross] = np.arange(cross.size)
    # the cross rows entry by entry: S starts as A_ss, rhs as -A_sB
    entries = A_I[cross].tocoo()
    col_part, col_index = part[entries.col], index[entries.col]
    S, rhs = np.zeros((cross.size, cross.size)), np.zeros((cross.size, frame.size))
    on = col_part == on_cross
    S[entries.row[on], col_index[on]] = entries.data[on]
    on = col_part == on_frame
    rhs[entries.row[on], col_index[on]] = -entries.data[on]
    pieces = []  # (rows, extension, its frame columns on s and B, their indices) of each block
    for i, b in enumerate(nb.blocks):
        H, dofs = extensions[b], topology.blocks[b].boundary
        pos = np.minimum(np.searchsorted(interior, dofs), nI - 1)
        in_s = interior[pos] == dofs  # a frame dof inside the neighborhood is on the cross
        on_s, on_b = index[pos[in_s]], np.searchsorted(frame, dofs[~in_s])
        if cross.size:
            # A_sb H_b, from the rows of H_b that the cross couples to
            on = col_part == i
            touched, column = np.unique(col_index[on], return_inverse=True)
            A_sb = np.zeros((cross.size, touched.size))
            A_sb[entries.row[on], column] = entries.data[on]
            Y = A_sb @ H[touched]
            S[:, on_s] += Y[:, in_s]
            rhs[:, on_b] -= Y[:, ~in_s]
        pieces.append((np.flatnonzero(part == i), H, in_s, on_s, on_b))
    try:
        x_s = np.linalg.solve(S, rhs) if cross.size else rhs
    except np.linalg.LinAlgError as exc:
        raise LocalSolverError(f"local solve failed ({label}): {exc}") from exc
    phi = np.zeros((nb.closure.size, frame.size))
    phi[cross] = x_s
    for rows, H, in_s, on_s, on_b in pieces:
        X_b = H[:, in_s] @ x_s[on_s]
        X_b[:, on_b] += H[:, ~in_s]
        phi[rows] = X_b
    phi[nI + np.arange(frame.size), np.arange(frame.size)] = 1.0
    check_residual(A_I @ phi, np.linalg.norm(A_I.data[A_I.indices >= nI]), label=label)
    return phi


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
        A_full, M_full, *_ = assemble_nodes(op.mesh, op.field, cell_box=nb.cell_box)
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
        _, vectors = generalized_sym_eig(A_snap.T @ A_snap, M_snap, count=m)
    except SingularMetricError as exc:
        raise SingularMetricError(
            f"snapshot mass singular on neighborhood {nb.node}: {exc}"
        ) from exc
    return phi @ vectors


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
