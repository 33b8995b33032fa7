"""Offline test space: bubbles, vertex traces, edge snapshots and the two
spectral reductions of the edge component.

All test snapshots are built from the discrete adjoint (the transpose of
the assembled stiffness matrix).  Every solve inside a coarse block goes
through the one factorization of the block's interior operator A_II
(``trial_space.block_factors``): W1, W2 and the W3 snapshots solve with
A_II^T, the minimum-energy extensions of eigenproblem 2 with A_II.

The edge component dominates the snapshot count, so it is compressed per
edge by one of two eigenproblems posed in the squared-adjoint energy
B = E E^T on the two blocks K1, K2 sharing the edge, with E = A_loc, the
stiffness matrix restricted to the edge region (``edge_energy="region"``):

* eigenproblem 1: S v = lambda M_e v, with S = Y^T Y for Y = E^T psi (the
  snapshots psi) and M_e the trace mass matrix of the edge;
* eigenproblem 2: S_min v = lambda S v, with S_min = (A_e N)(N^T N)^{-1}
  (A_e N)^T the Gram of the minimum-energy extensions of the edge deltas:
  N = [N_f; I] spans the null space of the free rows A_f of A_loc, N_f =
  -diag(A_K1, A_K2)^{-1} A_loc[f, e], and A_e holds the edge rows.

B itself is never formed, so no condition number is squared, except for
the minimum-energy extension under ``edge_energy="global"``.  The test
basis (``TestBasis``) is the raw sparse columns V with A^T V and the
factors of the small coefficients T that make Q = A^T V T orthonormal;
offline neither T nor Q is formed.  The online loop
(``coupling.online_enrich``) grows a basis by ``extend_test_basis``, which
writes each new block column of T into the loop's storage.

Every snapshot but the bubbles is adjoint-harmonic inside each coarse
block, so A^T V of W2 and W3 lives on the coarse skeleton (the rows outside
every block interior), and a block interior holds only its own bubbles.
The orthonormalization therefore sums its Grams over a compressed image of
A^T V (``compressed_image``): the skeleton rows as they are, and per block
the small R factor of a QR of its interior rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import SparseOperator
from .errors import SingularMetricError
from .grid import CoarseEdge, CoarseTopology
from .numerics import (
    DROPTOL,
    CheckedFactor,
    apply_coefficients,
    coefficient_product,
    column_sparse,
    form_coefficients,
    generalized_sym_eig,
    harmonic_extension,
    orthonormalize_columns,
    serial_blas,
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


def build_W1(
    topology: CoarseTopology, op: SparseOperator, Xi: sp.csc_matrix, factors
) -> BubbleSet:
    """Adjoint bubbles for every trial column overlapping a block.

    The local adjoint is driven by the raw coefficient values of the trial
    column, the pairing of the global constraint equation, and solved with
    the block's factor (``trial_space.block_factors``) transposed.  ``Xi``
    stores no zeros, so a column overlaps a block where it stores an entry.
    """
    blocks, block_ids, source_columns = [], [], []
    for block in topology.blocks:
        I = block.interior
        Xi_I = Xi[I, :]
        overlapping = np.flatnonzero(Xi_I.getnnz(axis=0))
        if overlapping.size == 0:
            continue
        X = factors[block.index].solve(Xi_I[:, overlapping].toarray(), trans="T")
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


def build_W2(topology: CoarseTopology, op: SparseOperator, factors) -> VertexTraceSet:
    """The adjoint multiscale partition of unity on the dofs, restricted to
    the interior coarse nodes, whose hats vanish on the domain boundary;
    ``factors`` are the block factors of ``trial_space.block_factors``."""
    chi = partition_of_unity(topology, op.A_nodes, factors, trans="T")
    nodes = topology.interior_coarse_nodes
    columns = chi[:, nodes][topology.mesh.node_of_dof]
    columns.eliminate_zeros()
    return VertexTraceSet(columns=columns, node_ids=nodes)


def build_W3_snapshots(
    topology: CoarseTopology, op: SparseOperator, k: int, factors
) -> np.ndarray:
    """Edge k's snapshots, one per interior fine node of the edge, aligned to
    ``edge.region`` (interior(K1) ++ interior(K2) ++ edge dofs): column j
    carries a unit value at edge node j and is, in each adjacent block, the
    adjoint-harmonic extension of that delta, solved with the block's factor
    (``trial_space.block_factors``) transposed."""
    edge = topology.edges[k]
    A_edge = op.A[edge.interior]  # the rows of the edge dofs
    return np.vstack(
        [
            factors[kb].solve(-A_edge[:, topology.blocks[kb].interior].T.toarray(), trans="T")
            for kb in edge.blocks
        ]
        + [np.eye(edge.interior.size)]
    )


@dataclass(frozen=True)
class EdgeSpectrum:
    """Spectral reduction of one edge's snapshot space.

    ``eigenvalues`` holds the whole ascending spectrum; ``combos`` the
    leading eigen-combinations of the snapshots, one column per mode in
    that order, aligned to ``edge.region`` (every mode, or a prefix of
    them, as ``harness.Workspace.edge_spectra`` keeps).
    """

    edge: CoarseEdge
    eigenvalues: np.ndarray
    combos: np.ndarray

    def excluded(self, L: int) -> float:
        """The smallest eigenvalue whose mode is not among the first L:
        +inf when L keeps every mode, never decreasing as L grows."""
        ns = self.eigenvalues.size
        if L < 1 or L > ns:
            raise ValueError(f"L={L} outside 1..{ns} on edge {self.edge.index}")
        return float(self.eigenvalues[L]) if L < ns else np.inf


def _edge_operator(op: SparseOperator, edge: CoarseEdge, mode: str = "region") -> sp.csr_matrix:
    """The rows E of the stiffness matrix on the edge region whose
    squared-adjoint energy is B = E E^T, so psi^T B psi = ||E^T psi||^2.

    ``region`` restricts the columns to the region dofs too (the residual
    rows outside the region are ignored); ``global`` keeps every column, so
    B is the principal submatrix of the full squared operator, the
    localization the online enrichment solves use.
    """
    if mode == "region":
        return op.A[edge.region][:, edge.region]
    if mode == "global":
        return op.A[edge.region, :]
    raise ValueError(f"unknown edge energy mode {mode!r}")


def _edge_energy(op: SparseOperator, edge: CoarseEdge, mode: str = "region") -> sp.csr_matrix:
    """The squared-adjoint energy B = E E^T of ``_edge_operator``; formed
    for the minimum-energy extension of eigenproblem 2 under ``global``."""
    E = _edge_operator(op, edge, mode)
    return (E @ E.T).tocsr()


def _snapshot_energy(E: sp.csr_matrix, psi: np.ndarray) -> np.ndarray:
    """psi^T B psi for B = E E^T, as Y^T Y with Y = E^T psi."""
    Y = E.T @ psi
    return Y.T @ Y


def eigenproblem_1(
    edge: CoarseEdge, psi: np.ndarray, op: SparseOperator, energy: str = "region"
) -> EdgeSpectrum:
    """Reduction of the edge's snapshots ``psi`` (``build_W3_snapshots``)
    against the one-dimensional trace mass matrix, with every mode kept.

    The eigenvalues scale with the squared-adjoint energy per unit of edge
    mass and grow without bound under fine-mesh refinement.
    """
    S = _snapshot_energy(_edge_operator(op, edge, energy), psi)
    ns = psi.shape[1]
    h = op.mesh.h
    M_edge = (h / 6.0) * (
        4.0 * np.eye(ns) + np.eye(ns, k=1) + np.eye(ns, k=-1)
    )
    try:
        pairs = generalized_sym_eig(S, M_edge)
    except SingularMetricError as exc:
        raise SingularMetricError(f"edge {edge.index}: {exc}") from exc
    return EdgeSpectrum(edge, pairs.values, psi @ pairs.vectors)


def _min_energy_gram(A_loc: sp.csr_matrix, edge: CoarseEdge, factors) -> np.ndarray:
    """ext^T B ext for the minimum-energy extensions ext of the edge deltas
    in B = A_loc A_loc^T, without forming B.

    Minimizing ||A_loc^T v|| over v with edge values c leaves the part of
    A_e^T c orthogonal to the range of A_f^T (A_f, A_e the rows of the free
    and edge dofs), so the Gram is (A_e N)(N^T N)^{-1}(A_e N)^T for a basis
    N of null(A_f) (the null-space method; Golub and Van Loan, Matrix
    Computations, 6.2).  The block interiors do not couple, so A_f has the
    interior block diag(A_K1, A_K2), and N = [N_f; I] with N_f =
    -diag(A_K1, A_K2)^{-1} A_loc[f, e] takes one forward solve with each
    block's factor.  N^T N = I + N_f^T N_f is well conditioned, and no
    product squares the condition of A_loc as B does.
    """
    nf = edge.region.size - edge.interior.size
    A_fe = A_loc[:nf, nf:]
    N_f, at = [], 0
    for kb in edge.blocks:
        size = factors[kb].K.shape[0]
        N_f.append(factors[kb].solve(-A_fe[at : at + size].toarray()))
        at += size
    N_f = np.vstack(N_f)
    AeN = A_loc[nf:, :nf] @ N_f + A_loc[nf:, nf:].toarray()
    NtN = N_f.T @ N_f + np.eye(N_f.shape[1])
    return AeN @ np.linalg.solve(NtN, AeN.T)


def eigenproblem_2(
    edge: CoarseEdge, psi: np.ndarray, op: SparseOperator, factors, energy: str = "region"
) -> EdgeSpectrum:
    """Reduction of the edge's snapshots ``psi`` (``build_W3_snapshots``)
    against the snapshot energy itself, with every mode kept.

    The left-hand side uses the minimum-energy extensions of the snapshot
    traces over the edge region, so every eigenvalue lies in [0, 1]; values
    close to 1 signal that the remaining snapshots add almost nothing.
    Both sides are Grams in the squared-adjoint energy B = E E^T
    (``_edge_operator``): S = Y^T Y with Y = E^T psi, and under ``region``
    the left side from the block ``factors`` (``_min_energy_gram``).  Under
    ``global`` B is SPD and formed, and the minimum-energy extension of an
    edge delta is its B-harmonic extension; the edge dofs are the last rows
    of ``region``.
    """
    ns = psi.shape[1]
    E = _edge_operator(op, edge, energy)
    if energy == "region":
        S_min = _min_energy_gram(E, edge, factors)
    else:
        B = _edge_energy(op, edge, mode=energy)
        free = np.arange(edge.region.size - ns)
        B_ff = CheckedFactor(B[free][:, free], f"edge {edge.index}", held=False, spd=True)
        ext = np.vstack([harmonic_extension(B, free, edge.edge_local, factor=B_ff), np.eye(ns)])
        S_min = ext.T @ (B @ ext)
    S = _snapshot_energy(E, psi)
    try:
        pairs = generalized_sym_eig(S_min, S)
    except SingularMetricError as exc:
        raise SingularMetricError(f"edge {edge.index}: {exc}") from exc
    return EdgeSpectrum(edge, pairs.values, psi @ pairs.vectors)


def assemble_test_matrix(
    w1: BubbleSet, w2: VertexTraceSet, spectra: list[EdgeSpectrum], L: int
) -> sp.csc_matrix:
    """The raw CSC test matrix V = [W1 W2 W3] with the first L modes of
    every edge's ``spectra``.

    W3 is mode-major: every edge's first mode, then every edge's second
    mode, and so on.  So the test matrix of L modes per edge is exactly the
    leading w1.count + w2.count + L * len(spectra) columns of the one of any
    larger L.
    """
    if any(s.combos.shape[1] < L for s in spectra):
        raise ValueError(f"L={L} exceeds the edge modes held")
    w3 = column_sparse(
        w1.columns.shape[0],
        [(s.edge.region, s.combos[:, j : j + 1]) for j in range(L) for s in spectra],
    )
    return sp.hstack([w1.columns, w2.columns, w3], format="csc")


@dataclass(frozen=True)
class TestBasis:
    """Test functions Theta = V T, orthonormal in the natural norm ||A^T w||
    of the auxiliary variable: Q = A^T V T has orthonormal columns, so the
    test block of the saddle system is the identity.  ``V`` (raw columns)
    and ``AtV`` = A^T V are CSC, and T = C R_1^{-1} [R_2^{-1}] is held as the
    factors ``steps`` = (C, R_1[, R_2]) of ``numerics.orthonormalize_columns``
    (a one-factor ``steps`` = (T,) is an explicit T, as the online loop grows
    it), with a row per column of V.  Neither T nor Q is formed: products
    with them go through ``AtV`` and the steps, in the kernel's order
    (``numerics.apply_coefficients``, ``numerics.coefficient_product``).
    ``kept`` holds the ascending indices of the columns of V kept, one per
    column of T.
    """

    V: sp.csc_matrix
    AtV: sp.csc_matrix
    steps: tuple
    kept: np.ndarray

    @property
    def count(self) -> int:
        return self.kept.size


def adjoint_image(op: SparseOperator, V: sp.csc_matrix, interiors=(), harmonic_from=None):
    """A^T V as CSC.  The columns of V from ``harmonic_from`` on are
    A^T-harmonic in each of the disjoint row sets ``interiors`` (the coarse
    block interiors; W2 and W3 of ``assemble_test_matrix``), so their image
    is zero there and is evaluated on the other rows, the coarse skeleton,
    only.  ``harmonic_from=None`` marks no column."""
    if harmonic_from is None or not interiors:
        return (op.A.T @ V).tocsc()
    skeleton = np.ones(V.shape[0], dtype=bool)
    skeleton[np.concatenate(interiors)] = False
    skeleton = np.flatnonzero(skeleton)
    tail = (op.A[:, skeleton].T @ V[:, harmonic_from:]).tocsc()  # a row per skeleton dof
    tail = sp.csc_matrix(
        (tail.data, skeleton[tail.indices], tail.indptr), shape=(V.shape[0], tail.shape[1])
    )
    return sp.hstack([(op.A.T @ V[:, :harmonic_from]).tocsc(), tail], format="csc")


@dataclass(frozen=True)
class CompressedImage:
    """Rows with the Gram of a sparse image Y, for the orthonormalization.

    ``rows`` holds the rows ``plain`` of Y as they are, then, per entry
    ``(interior, F)`` of ``blocks``, the c x c factor R of the QR
    Y[interior][:, stored] = F R on the c columns stored in those rows, so
    ``rows``^T ``rows`` = Y^T Y up to rounding.  ``lift`` maps ``rows`` Z
    back to the fine rows Y Z.
    """

    rows: sp.spmatrix
    plain: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    def lift(self, Z: np.ndarray) -> np.ndarray:
        num_rows = self.plain.size + sum(interior.size for interior, _ in self.blocks)
        out = np.empty((num_rows, Z.shape[1]))
        at = self.plain.size
        out[self.plain] = Z[:at]
        for interior, F in self.blocks:
            out[interior] = F @ Z[at : at + F.shape[1]]
            at += F.shape[1]
        return out


def compressed_image(Y: sp.csc_matrix, interiors=()) -> CompressedImage:
    """Y with each row set of ``interiors`` that has more rows than columns
    stored replaced by the R factor of its QR; the small QRs run on one BLAS
    thread (``serial_blas``).  Without such a set ``rows`` is Y itself."""
    Y_rows = Y.tocsr()
    plain = np.ones(Y.shape[0], dtype=bool)
    blocks, factors = [], []
    with serial_blas():
        for interior in interiors:
            local = Y_rows[interior]
            stored = np.unique(local.indices)
            if interior.size <= stored.size:
                continue
            F, R = sla.qr(local[:, stored].toarray(), mode="economic", check_finite=False)
            plain[interior] = False
            blocks.append((interior, F))
            factors.append((stored, R.T))  # the rows of R, as columns on ``stored``
    if not blocks:
        return CompressedImage(Y, np.arange(Y.shape[0]), ())
    plain = np.flatnonzero(plain)
    rows = sp.vstack([Y_rows[plain], column_sparse(Y.shape[1], factors).T], format="csr")
    return CompressedImage(rows, plain, tuple(blocks))


def test_basis(op: SparseOperator, V, interiors=(), harmonic_from=None) -> TestBasis:
    """Basis of the span of the sparse or dense ``V``; a column that adds
    nothing in the w-norm is dropped by ``orthonormalize_columns``.

    The kernel sums its Grams over the rows of ``compressed_image``: A^T V
    (``adjoint_image``) on the coarse skeleton as it is, and on each block
    of ``interiors`` only the R factor of the block's rows.  There a block
    holds the image of its own bubbles alone (at most 4m columns) once the
    columns from ``harmonic_from`` on are marked harmonic.  The basis holds
    the kernel's ``steps``; T is not formed.
    """
    V = sp.csc_matrix(V, dtype=float)
    AtV = adjoint_image(op, V, interiors, harmonic_from)
    kept, steps = orthonormalize_columns(compressed_image(AtV, interiors).rows)
    return TestBasis(V=V, AtV=AtV, steps=steps, kept=kept)


def extend_test_basis(basis: TestBasis, op: SparseOperator, new, out: np.ndarray) -> TestBasis:
    """The basis grown by the part of span(``new``) outside its span.

    Y = A^T new is projected against Q twice, through Q^T Y = T^T ((A^T V)^T
    Y) and (A^T V)(T S) in the kernel's order, accumulating the coefficients
    S; a column whose residual is at most DROPTOL of ||A^T x|| adds nothing
    and is dropped, and the rest are orthonormalized among themselves, Q_n =
    Y T_n.  Then Q_n = A^T (X - V T S) T_n for the kept columns X, so V and
    A^T V grow by X and A^T X, and T by the block column [-T S T_n; T_n].
    ``out`` is the Fortran-ordered storage of the online loop
    (``coupling.online_enrich``): its leading block is ``basis``'s T, it is
    zero below T, and it has room for the block column, which is written in
    place beside T.  The grown basis holds the new leading block as its
    explicit T alone, ``steps`` = (T,).  A ``new`` that adds nothing returns
    ``basis`` itself and leaves ``out`` as it is.
    """
    new = sp.csc_matrix(new, dtype=float)
    AtX = (op.A.T @ new).tocsc()
    Y = AtX.toarray()
    norms = np.linalg.norm(Y, axis=0)
    S = np.zeros((basis.count, Y.shape[1]))
    for _ in range(2):
        C = coefficient_product(basis.steps, basis.AtV.T @ Y)
        Y -= basis.AtV @ apply_coefficients(basis.steps, C)
        S += C
    keep = np.linalg.norm(Y, axis=0) > DROPTOL * norms
    kept_n, steps_n = orthonormalize_columns(Y[:, keep])
    if not kept_n.size:
        return basis
    T_n = form_coefficients(steps_n)
    rows, count = basis.V.shape[1], basis.count
    rows_new, count_new = rows + T_n.shape[0], count + T_n.shape[1]
    out[:rows, count:count_new] = -out[:rows, :count] @ (S[:, keep] @ T_n)
    out[rows:rows_new, count:count_new] = T_n
    V = sp.hstack([basis.V, new[:, keep]], format="csc")
    AtV = sp.hstack([basis.AtV, AtX[:, keep]], format="csc")
    kept = np.concatenate([basis.kept, rows + kept_n])
    return TestBasis(V, AtV, (out[:rows_new, :count_new],), kept)
