"""Offline test space: bubbles, vertex traces, edge snapshots and the two
spectral reductions of the edge component.

All test snapshots are built from the discrete adjoint (the transpose of
the assembled stiffness matrix).  The edge component dominates the snapshot
count, so it is compressed per edge by one of two eigenproblems posed in
the squared-adjoint energy on the two blocks sharing the edge.  The test
basis (``TestBasis``) is the raw sparse columns V with A^T V and the small
coefficients T that make Q = A^T V T orthonormal; Q is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import SparseOperator
from .errors import SingularMetricError
from .grid import CoarseEdge, CoarseTopology
from .numerics import (
    DROPTOL,
    column_sparse,
    generalized_sym_eig,
    harmonic_extension,
    local_dirichlet_solve,
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


def build_W1(topology: CoarseTopology, op: SparseOperator, Xi: sp.csc_matrix) -> BubbleSet:
    """Adjoint bubbles for every trial column overlapping a block.

    The local adjoint is driven by the raw coefficient values of the trial
    column, the pairing of the global constraint equation.  ``Xi`` stores
    no zeros, so a column overlaps a block where it stores an entry.
    """
    blocks, block_ids, source_columns = [], [], []
    for block in topology.blocks:
        I = block.interior
        Xi_I = Xi[I, :]
        overlapping = np.flatnonzero(Xi_I.getnnz(axis=0))
        if overlapping.size == 0:
            continue
        At_ii = op.A[I][:, I].T.tocsc()
        X = local_dirichlet_solve(
            At_ii, Xi_I[:, overlapping].toarray(), label=f"block {block.index} bubbles"
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
    snapshots: TestSnapshotW3, op: SparseOperator, energy: str = "region"
) -> EdgeSpectralResult:
    """Edge reduction against the one-dimensional trace mass matrix, with
    every mode selected.

    The eigenvalues scale with the squared-adjoint energy per unit of edge
    mass and grow without bound under fine-mesh refinement.
    """
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
    return select_prefix(edge, 1, pairs.values, psi @ pairs.vectors, ns)


def eigenproblem_2(
    snapshots: TestSnapshotW3, op: SparseOperator, energy: str = "region"
) -> EdgeSpectralResult:
    """Edge reduction against the snapshot energy itself, with every mode
    selected.

    The left-hand side uses the minimum-energy extensions of the snapshot
    traces over the edge region, so every eigenvalue lies in [0, 1]; values
    close to 1 signal that the remaining snapshots add almost nothing.  The
    energy B is SPD, so the minimum-energy extension of an edge delta is
    its B-harmonic extension; the edge dofs are the last rows of ``region``.
    """
    edge = snapshots.edge
    psi = snapshots.columns
    ns = psi.shape[1]
    B = _edge_energy(op, edge, mode=energy)
    free = np.arange(edge.region.size - ns)
    ext = np.vstack(
        [harmonic_extension(B, free, edge.edge_local, label=f"edge {edge.index}"), np.eye(ns)]
    )
    S_min = ext.T @ (B @ ext)
    S = psi.T @ (B @ psi)
    try:
        pairs = generalized_sym_eig(S_min, S)
    except SingularMetricError as exc:
        raise SingularMetricError(f"edge {edge.index}: {exc}") from exc
    return select_prefix(edge, 2, pairs.values, psi @ pairs.vectors, ns)


@dataclass(frozen=True)
class SpectralReport:
    """Composition of the assembled test matrix."""

    n_w1: int
    n_w2: int
    n_w3: int
    edge_results: tuple[EdgeSpectralResult, ...]
    min_lambda_excluded: float


def spectral_report(
    w1: BubbleSet, w2: VertexTraceSet, w3_results: list[EdgeSpectralResult]
) -> SpectralReport:
    """Retained counts and the smallest excluded edge eigenvalue."""
    return SpectralReport(
        n_w1=w1.count,
        n_w2=w2.count,
        n_w3=sum(r.L for r in w3_results),
        edge_results=tuple(w3_results),
        min_lambda_excluded=min(
            (r.lambda_excluded for r in w3_results), default=np.inf
        ),
    )


def assemble_test_matrix(
    w1: BubbleSet,
    w2: VertexTraceSet,
    w3_results: list[EdgeSpectralResult],
):
    """Concatenate all components sparsely.

    Returns the raw CSC test matrix V = [W1 W2 W3] together with its
    ``spectral_report``.  W3 is mode-major: every edge's first mode, then
    every edge's second mode, and so on.  The edge selections are nested
    prefixes, so the test matrix of L modes per edge is exactly the leading
    n_w1 + n_w2 + n_w3 columns of the one of any larger L.
    """
    w3 = column_sparse(
        w1.columns.shape[0],
        [
            (r.edge.region, r.selected[:, j : j + 1])
            for j in range(max((r.L for r in w3_results), default=0))
            for r in w3_results
            if j < r.L
        ],
    )
    raw = sp.hstack([w1.columns, w2.columns, w3], format="csc")
    return raw, spectral_report(w1, w2, w3_results)


@dataclass(frozen=True)
class TestBasis:
    """Test functions Theta = V T, orthonormal in the natural norm ||A^T w||
    of the auxiliary variable: Q = A^T V T has orthonormal columns, so the
    test block of the saddle system is the identity.  ``V`` (raw columns)
    and ``AtV`` = A^T V are CSC, ``T`` has a row per column of V, and Q is
    never held: products with it go through ``AtV`` and ``T``.  ``kept``
    holds the ascending indices of the columns of V kept, one per column of T.
    """

    V: sp.csc_matrix
    AtV: sp.csc_matrix
    T: np.ndarray
    kept: np.ndarray

    @property
    def count(self) -> int:
        return self.T.shape[1]


def test_basis(op: SparseOperator, V) -> TestBasis:
    """Basis of the span of the sparse or dense ``V``; a column that adds
    nothing in the w-norm is dropped by ``orthonormalize_columns``."""
    V = sp.csc_matrix(V, dtype=float)
    AtV = (op.A.T @ V).tocsc()
    T, kept, _ = orthonormalize_columns(AtV)
    return TestBasis(V=V, AtV=AtV, T=T, kept=kept)


def extend_test_basis(basis: TestBasis, op: SparseOperator, new) -> TestBasis:
    """The basis grown by the part of span(``new``) outside its span.

    Y = A^T new is projected against Q twice, through Q^T Y = T^T ((A^T V)^T
    Y) and (A^T V)(T S), accumulating the coefficients S; a column whose
    residual is at most DROPTOL of ||A^T x|| adds nothing and is dropped,
    and the rest are orthonormalized among themselves, Q_n = Y T_n.  Then
    Q_n = A^T (X - V T S) T_n for the kept columns X, so V and A^T V grow
    by X and A^T X, and T by the block column [-T S T_n; T_n].  A ``new``
    that adds nothing returns ``basis`` itself.
    """
    new = sp.csc_matrix(new, dtype=float)
    AtX = (op.A.T @ new).tocsc()
    Y = AtX.toarray()
    norms = np.linalg.norm(Y, axis=0)
    S = np.zeros((basis.count, Y.shape[1]))
    for _ in range(2):
        C = basis.T.T @ (basis.AtV.T @ Y)
        Y -= basis.AtV @ (basis.T @ C)
        S += C
    keep = np.linalg.norm(Y, axis=0) > DROPTOL * norms
    T_n, kept_n, _ = orthonormalize_columns(Y[:, keep])
    if not T_n.shape[1]:
        return basis
    T = np.block(
        [[basis.T, -basis.T @ (S[:, keep] @ T_n)], [np.zeros((T_n.shape[0], basis.count)), T_n]]
    )
    V = sp.hstack([basis.V, new[:, keep]], format="csc")
    AtV = sp.hstack([basis.AtV, AtX[:, keep]], format="csc")
    return TestBasis(V, AtV, T, np.concatenate([basis.kept, basis.V.shape[1] + kept_n]))
