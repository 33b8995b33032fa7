"""Offline test space: bubbles, vertex traces, edge snapshots and the two
spectral reductions of the edge component.

All test snapshots are built from the discrete adjoint (the transpose of
the assembled stiffness matrix).  The edge component dominates the snapshot
count, so it is compressed per edge by one of two eigenproblems posed in
the squared-adjoint energy on the two blocks sharing the edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import SparseOperator
from .errors import SingularMetricError
from .grid import CoarseEdge, CoarseTopology
from .numerics import (
    column_sparse,
    harmonic_extension,
    local_dirichlet_solve,
    min_energy_extension,
    orthonormalize_columns,
)
from .trial_space import partition_of_unity


@dataclass(frozen=True)
class BubbleSet:
    """Block bubbles: one adjoint solve per (block, overlapping trial column).

    ``columns`` is sparse over the global dofs; column k vanishes outside
    the interior of block ``block_ids[k]`` and satisfies the local adjoint
    equation with the trial column ``source_columns[k]`` as source.
    """

    columns: sp.csc_matrix
    block_ids: np.ndarray
    source_columns: np.ndarray

    @property
    def count(self) -> int:
        return self.columns.shape[1]


def build_W1(topology: CoarseTopology, op: SparseOperator, Xi: np.ndarray) -> BubbleSet:
    """Adjoint bubbles for every trial column overlapping a block.

    The local adjoint is driven by the raw coefficient values of the trial
    column, the pairing of the global constraint equation.
    """
    blocks, block_ids, source_columns = [], [], []
    for block in topology.blocks:
        I = block.interior
        Xi_I = Xi[I, :]
        overlapping = np.flatnonzero(np.any(Xi_I != 0.0, axis=0))
        if overlapping.size == 0:
            continue
        At_ii = op.A[I][:, I].T.tocsc()
        X = local_dirichlet_solve(
            At_ii, Xi_I[:, overlapping], label=f"block {block.index} bubbles"
        )
        blocks.append((I, X))
        block_ids.extend([block.index] * overlapping.size)
        source_columns.extend(overlapping)
    columns = column_sparse(op.A.shape[0], blocks)
    return BubbleSet(
        columns=columns,
        block_ids=np.array(block_ids, dtype=np.int64),
        source_columns=np.array(source_columns, dtype=np.int64),
    )


@dataclass(frozen=True)
class VertexTraceSet:
    """Adjoint-harmonic continuations of the coarse hats, one per interior
    coarse node, glued across the blocks of the vertex neighborhood."""

    columns: sp.csc_matrix
    node_ids: np.ndarray

    @property
    def count(self) -> int:
        return self.columns.shape[1]


def build_W2(topology: CoarseTopology, op: SparseOperator) -> VertexTraceSet:
    """The adjoint multiscale partition of unity on the dofs, restricted to
    the interior coarse nodes, whose hats vanish on the domain boundary."""
    chi = partition_of_unity(topology, op.A_nodes.T)
    nodes = topology.interior_coarse_nodes
    columns = chi[:, nodes][topology.mesh.node_of_dof]
    columns.eliminate_zeros()
    return VertexTraceSet(columns=columns, node_ids=nodes)


@dataclass(frozen=True)
class TestSnapshotW3:
    """Edge snapshots, one per interior fine node of the edge.

    ``columns`` is aligned to ``edge.region`` (interior(K1) ++ interior(K2)
    ++ edge dofs); column j carries a unit value at edge node j and is
    adjoint-harmonic inside both blocks.
    """

    edge: CoarseEdge
    columns: np.ndarray

    @property
    def count(self) -> int:
        return self.columns.shape[1]


def build_W3_snapshots(
    topology: CoarseTopology, op: SparseOperator, k: int
) -> TestSnapshotW3:
    edge = topology.edges[k]
    ns = edge.interior.size
    At = op.A.T
    psi = np.vstack(
        [
            harmonic_extension(
                At, topology.blocks[kb].interior, edge.interior, label=f"edge {k} block {kb}"
            )
            for kb in edge.blocks
        ]
        + [np.eye(ns)]
    )
    return TestSnapshotW3(edge=edge, columns=psi)


@dataclass(frozen=True)
class EdgeSpectralResult:
    """Spectral reduction of one edge's snapshot space.

    ``selected`` holds the first L eigen-combinations of the snapshots,
    aligned to ``edge.region``.  ``lambda_excluded`` is the smallest
    eigenvalue whose eigenvector was not selected (+inf when everything
    was selected); it never decreases as L grows.
    """

    edge: CoarseEdge
    problem: int
    eigenvalues: np.ndarray
    selected: np.ndarray
    L: int
    lambda_excluded: float


def _edge_energy(op: SparseOperator, edge: CoarseEdge, mode: str = "region") -> sp.csr_matrix:
    """Squared-adjoint energy on the edge region.

    ``region`` squares the entrywise restriction of the stiffness matrix to
    the region dofs (the residual rows outside the region are ignored);
    ``global`` takes the principal submatrix of the full squared operator,
    the localization the online enrichment solves use.
    """
    if mode == "region":
        A_loc = op.A[edge.region][:, edge.region]
        return (A_loc @ A_loc.T).tocsr()
    if mode == "global":
        A_rows = op.A[edge.region, :]
        return (A_rows @ A_rows.T).tocsr()
    raise ValueError(f"unknown edge energy mode {mode!r}")


def select_prefix(edge, problem, values, snapshot_combos, L):
    """The first L modes of an edge's ascending spectrum."""
    ns = values.size
    if L < 1 or L > ns:
        raise ValueError(f"L={L} outside 1..{ns} on edge {edge.index}")
    lam = float(values[L]) if L < ns else np.inf
    return EdgeSpectralResult(
        edge=edge,
        problem=problem,
        eigenvalues=values,
        selected=snapshot_combos[:, :L],
        L=L,
        lambda_excluded=lam,
    )


def eigenproblem_1(
    snapshots: TestSnapshotW3, op: SparseOperator, L: int, energy: str = "region"
) -> EdgeSpectralResult:
    """Edge reduction against the one-dimensional trace mass matrix.

    The eigenvalues scale with the squared-adjoint energy per unit of edge
    mass and grow without bound under fine-mesh refinement.
    """
    from .numerics import generalized_sym_eig

    edge = snapshots.edge
    psi = snapshots.columns
    B = _edge_energy(op, edge, mode=energy)
    S = psi.T @ (B @ psi)
    ns = psi.shape[1]
    h = op.mesh.h
    M_edge = (h / 6.0) * (
        4.0 * np.eye(ns) + np.eye(ns, k=1) + np.eye(ns, k=-1)
    )
    try:
        pairs = generalized_sym_eig(S, M_edge)
    except SingularMetricError as exc:
        raise SingularMetricError(f"edge {edge.index}: {exc}") from exc
    return select_prefix(edge, 1, pairs.values, psi @ pairs.vectors, L)


def eigenproblem_2(
    snapshots: TestSnapshotW3, op: SparseOperator, L: int, energy: str = "region"
) -> EdgeSpectralResult:
    """Edge reduction against the snapshot energy itself.

    The left-hand side uses the minimum-energy extensions of the snapshot
    traces over the edge region, so every eigenvalue lies in [0, 1]; values
    close to 1 signal that the remaining snapshots add almost nothing.
    """
    from .numerics import generalized_sym_eig

    edge = snapshots.edge
    psi = snapshots.columns
    ns = psi.shape[1]
    B = _edge_energy(op, edge, mode=energy)
    ext = min_energy_extension(
        B, edge.edge_local, np.eye(ns), label=f"edge {edge.index}"
    )
    S_min = ext.T @ (B @ ext)
    S = psi.T @ (B @ psi)
    try:
        pairs = generalized_sym_eig(S_min, S)
    except SingularMetricError as exc:
        raise SingularMetricError(f"edge {edge.index}: {exc}") from exc
    return select_prefix(edge, 2, pairs.values, psi @ pairs.vectors, L)


@dataclass(frozen=True)
class SpectralReport:
    """Composition of the assembled test matrix."""

    eigenproblem: int
    n_w1: int
    n_w2: int
    n_w3: int
    n_columns: int
    edge_results: tuple[EdgeSpectralResult, ...]
    min_lambda_excluded: float


def assemble_test_matrix(
    w1: BubbleSet,
    w2: VertexTraceSet,
    w3_results: list[EdgeSpectralResult],
    droptol: float = 1e-10,
):
    """Concatenate all components sparsely and orthonormalize.

    Returns the orthonormal test matrix together with a report of retained
    counts and the per-edge excluded eigenvalues.
    """
    num_dofs = w1.columns.shape[0]
    n_w3 = sum(r.L for r in w3_results)
    raw = sp.hstack(
        [
            w1.columns,
            w2.columns,
            column_sparse(num_dofs, [(r.edge.region, r.selected) for r in w3_results]),
        ],
        format="csc",
    )
    theta = orthonormalize_columns(raw, droptol=droptol)
    problems = {r.problem for r in w3_results}
    report = SpectralReport(
        eigenproblem=problems.pop() if len(problems) == 1 else 0,
        n_w1=w1.count,
        n_w2=w2.count,
        n_w3=n_w3,
        n_columns=theta.shape[1],
        edge_results=tuple(w3_results),
        min_lambda_excluded=min(
            (r.lambda_excluded for r in w3_results), default=np.inf
        ),
    )
    return theta, report
