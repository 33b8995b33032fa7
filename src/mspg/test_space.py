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
stiffness matrix restricted to the edge region:

* eigenproblem 1: S v = lambda M_e v, with S = Y^T Y for Y = E^T psi (the
  snapshots psi) and M_e the trace mass matrix of the edge;
* eigenproblem 2: S_min v = lambda S v, with S_min = (A_e N)(N^T N)^{-1}
  (A_e N)^T the Gram of the minimum-energy extensions of the edge deltas:
  N = [N_f; I] spans the null space of the free rows A_f of A_loc, N_f =
  -diag(A_K1, A_K2)^{-1} A_loc[f, e], and A_e holds the edge rows.

B itself is never formed, so no condition number is squared.  The test
basis (``TestBasis``) is the raw sparse columns V with A^T V and the
factors of the small coefficients T that make Q = A^T V T orthonormal;
neither T nor Q is formed.  The online loop (``coupling.online_enrich``)
grows a basis by ``extend_test_basis``, which adds one block of factors
per class of online columns.

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
    apply_coefficients,
    coefficient_product,
    column_sparse,
    generalized_sym_eig,
    orthonormalize_columns,
    serial_blas,
)
from .trial_space import partition_of_unity


def build_W1(
    topology: CoarseTopology, op: SparseOperator, Xi: sp.csc_matrix, factors
) -> sp.csc_matrix:
    """Adjoint bubbles for every trial column overlapping a block, as CSC
    columns: block by block, and within a block by ascending trial column.

    A bubble vanishes outside its block's interior and solves the local
    adjoint equation driven by the raw coefficient values of its trial
    column, the pairing of the global constraint equation, through the
    block's factor (``trial_space.block_factors``) transposed.  ``Xi``
    stores no zeros, so a column overlaps a block where it stores an entry.
    """
    blocks = []
    for block in topology.blocks:
        I = block.interior
        Xi_I = Xi[I, :]
        overlapping = np.flatnonzero(Xi_I.getnnz(axis=0))
        if overlapping.size:
            X = factors[block.index].solve(Xi_I[:, overlapping].toarray(), trans="T")
            blocks.append((I, X))
    return column_sparse(op.A.shape[0], blocks)


def build_W2(topology: CoarseTopology, op: SparseOperator, factors) -> sp.csc_matrix:
    """The adjoint multiscale partition of unity on the dofs, restricted to
    the interior coarse nodes, whose hats vanish on the domain boundary:
    adjoint-harmonic continuations of the coarse hats, glued across the
    blocks of each vertex neighborhood.  Column j belongs to
    ``topology.interior_coarse_nodes[j]``; ``factors`` are the block factors
    of ``trial_space.block_factors``."""
    chi = partition_of_unity(topology, op.A_nodes, factors, trans="T")
    columns = chi[:, topology.interior_coarse_nodes][topology.mesh.node_of_dof]
    columns.eliminate_zeros()
    return columns


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


def _edge_operator(op: SparseOperator, edge: CoarseEdge) -> sp.csr_matrix:
    """The stiffness matrix A_loc on the edge region, rows and columns: the
    E of the squared-adjoint energy B = E E^T, so psi^T B psi = ||E^T psi||^2
    (the residual rows outside the region are ignored)."""
    return op.A[edge.region][:, edge.region]


def _snapshot_energy(E: sp.csr_matrix, psi: np.ndarray) -> np.ndarray:
    """psi^T B psi for B = E E^T, as Y^T Y with Y = E^T psi."""
    Y = E.T @ psi
    return Y.T @ Y


def eigenproblem_1(edge: CoarseEdge, psi: np.ndarray, op: SparseOperator) -> EdgeSpectrum:
    """Reduction of the edge's snapshots ``psi`` (``build_W3_snapshots``)
    against the one-dimensional trace mass matrix, with every mode kept.

    The eigenvalues scale with the squared-adjoint energy per unit of edge
    mass and grow without bound under fine-mesh refinement.
    """
    S = _snapshot_energy(_edge_operator(op, edge), psi)
    ns = psi.shape[1]
    h = op.mesh.h
    M_edge = (h / 6.0) * (
        4.0 * np.eye(ns) + np.eye(ns, k=1) + np.eye(ns, k=-1)
    )
    try:
        values, vectors = generalized_sym_eig(S, M_edge)
    except SingularMetricError as exc:
        raise SingularMetricError(f"edge {edge.index}: {exc}") from exc
    return EdgeSpectrum(edge, values, psi @ vectors)


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


def eigenproblem_2(edge: CoarseEdge, psi: np.ndarray, op: SparseOperator, factors) -> EdgeSpectrum:
    """Reduction of the edge's snapshots ``psi`` (``build_W3_snapshots``)
    against the snapshot energy itself, with every mode kept.

    The left-hand side uses the minimum-energy extensions of the snapshot
    traces over the edge region, so every eigenvalue lies in [0, 1]; values
    close to 1 signal that the remaining snapshots add almost nothing.
    Both sides are Grams in the squared-adjoint energy B = E E^T
    (``_edge_operator``): S = Y^T Y with Y = E^T psi, and the left side from
    the block ``factors`` (``_min_energy_gram``).
    """
    E = _edge_operator(op, edge)
    S_min = _min_energy_gram(E, edge, factors)
    S = _snapshot_energy(E, psi)
    try:
        values, vectors = generalized_sym_eig(S_min, S)
    except SingularMetricError as exc:
        raise SingularMetricError(f"edge {edge.index}: {exc}") from exc
    return EdgeSpectrum(edge, values, psi @ vectors)


def assemble_test_matrix(
    w1: sp.csc_matrix, w2: sp.csc_matrix, spectra: list[EdgeSpectrum], L: int
) -> sp.csc_matrix:
    """The raw CSC test matrix V = [W1 W2 W3] of the bubbles ``w1``
    (``build_W1``), the vertex traces ``w2`` (``build_W2``) and the first L
    modes of every edge's ``spectra``.

    W3 is mode-major: every edge's first mode, then every edge's second
    mode, and so on.  So the test matrix of L modes per edge is exactly the
    leading w1.shape[1] + w2.shape[1] + L * len(spectra) columns of the one
    of any larger L.
    """
    if any(s.combos.shape[1] < L for s in spectra):
        raise ValueError(f"L={L} exceeds the edge modes held")
    w3 = column_sparse(
        w1.shape[0],
        [(s.edge.region, s.combos[:, j : j + 1]) for j in range(L) for s in spectra],
    )
    return sp.hstack([w1, w2, w3], format="csc")


@dataclass(frozen=True)
class TestBasis:
    """Test functions Theta = V T, orthonormal in the natural norm ||A^T w||
    of the auxiliary variable: Q = A^T V T has orthonormal columns, so the
    test block of the saddle system is the identity.  ``V`` (raw columns)
    and ``AtV`` = A^T V are CSC.  T is held as factors: the offline T =
    C R_1^{-1} [R_2^{-1}] of the first columns of V as the factors ``steps``
    = (C, R_1[, R_2]) of ``numerics.orthonormalize_columns``, and each class
    of columns X that ``extend_test_basis`` appended as one block ``(S,
    steps_n)`` of ``grown``, which turns the T before it into T' = [[T,
    -T S T_n], [0, T_n]] for the T_n of ``steps_n``.  Neither T nor Q is
    formed: products with T walk the blocks (``apply_coefficients``,
    ``coefficient_product``).  ``kept`` holds the ascending indices of the
    columns of V kept, one per column of T.
    """

    V: sp.csc_matrix
    AtV: sp.csc_matrix
    steps: tuple
    kept: np.ndarray
    grown: tuple = ()

    @property
    def count(self) -> int:
        return self.kept.size

    def apply_coefficients(self, w) -> np.ndarray:
        """T w for a vector or matrix w, from the newest block back:
        T' [w_1; w_2] = [T (w_1 - S T_n w_2); T_n w_2], each factor set in
        the kernel's order (``numerics.apply_coefficients``)."""
        tail = []
        for S, steps_n in reversed(self.grown):
            tail.append(apply_coefficients(steps_n, w[S.shape[0] :]))
            w = w[: S.shape[0]] - S @ tail[-1]
        return np.concatenate([apply_coefficients(self.steps, w), *reversed(tail)])

    def coefficient_product(self, Z) -> np.ndarray:
        """T^T Z for a Z with a row per column of V (sparse only before the
        basis grew), from the offline block on: T'^T [Z_1; Z_2] = [T^T Z_1;
        T_n^T (Z_2 - S^T T^T Z_1)], each factor set in the kernel's order
        (``numerics.coefficient_product``)."""
        at = self.steps[0].shape[0]
        product = coefficient_product(self.steps, Z[:at])
        for S, steps_n in self.grown:
            block = coefficient_product(steps_n, Z[at : at + S.shape[1]] - S.T @ product)
            product = np.concatenate([product, block])
            at += S.shape[1]
        return product


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


def compressed_image(Y: sp.csc_matrix, interiors=()) -> sp.spmatrix:
    """Rows with the Gram of a sparse image Y, for the orthonormalization.

    The rows outside every row set of ``interiors`` are Y's as they are;
    then each set with more rows than columns stored gives the c x c factor
    R of the QR Y[interior][:, stored] = F R on its c stored columns, so
    the result Z has Z^T Z = Y^T Y up to rounding.  The small QRs form R
    only, on one BLAS thread (``serial_blas``).  Without such a set Z is Y
    itself."""
    Y_rows = Y.tocsr()
    plain = np.ones(Y.shape[0], dtype=bool)
    factors = []
    with serial_blas():
        for interior in interiors:
            local = Y_rows[interior]
            stored = np.unique(local.indices)
            if interior.size <= stored.size:
                continue
            (R,) = sla.qr(local[:, stored].toarray(), mode="r", check_finite=False)
            plain[interior] = False
            factors.append((stored, R[: stored.size].T))  # the rows of R, as columns on ``stored``
    if not factors:
        return Y
    return sp.vstack(
        [Y_rows[np.flatnonzero(plain)], column_sparse(Y.shape[1], factors).T], format="csr"
    )


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
    kept, steps = orthonormalize_columns(compressed_image(AtV, interiors))
    return TestBasis(V=V, AtV=AtV, steps=steps, kept=kept)


def extend_test_basis(basis: TestBasis, op: SparseOperator, new) -> TestBasis:
    """The basis grown by the part of span(``new``) outside its span.

    Y = A^T new is projected against Q twice, through Q^T Y = T^T ((A^T V)^T
    Y) and (A^T V)(T S) (``TestBasis.coefficient_product`` and
    ``TestBasis.apply_coefficients``), accumulating the coefficients S; a
    column whose residual is at most DROPTOL of ||A^T x|| adds nothing and
    is dropped, and the rest are orthonormalized among themselves, Q_n =
    Y T_n.  Then Q_n = A^T (X - V T S) T_n for the kept columns X, so V and
    A^T V grow by X and A^T X, and T by the block column [-T S T_n; T_n],
    held as the block (S, steps_n) of ``TestBasis.grown``, the factors of
    T_n.  A ``new`` that adds nothing returns ``basis`` itself.
    """
    new = sp.csc_matrix(new, dtype=float)
    AtX = (op.A.T @ new).tocsc()
    Y = AtX.toarray()
    norms = np.linalg.norm(Y, axis=0)
    S = np.zeros((basis.count, Y.shape[1]))
    for _ in range(2):
        C = basis.coefficient_product(basis.AtV.T @ Y)
        Y -= basis.AtV @ basis.apply_coefficients(C)
        S += C
    keep = np.linalg.norm(Y, axis=0) > DROPTOL * norms
    kept_n, steps_n = orthonormalize_columns(Y[:, keep])
    if not kept_n.size:
        return basis
    return TestBasis(
        sp.hstack([basis.V, new[:, keep]], format="csc"),
        sp.hstack([basis.AtV, AtX[:, keep]], format="csc"),
        basis.steps,
        np.concatenate([basis.kept, basis.V.shape[1] + kept_n]),
        basis.grown + ((S[:, keep], steps_n),),
    )
