"""Reduced saddle system, error reporting, inf-sup estimate and the online
residual-driven test enrichment loop.

The reduced blocks contract the fine operator with the test basis and the
trial matrix Xi.  The test basis is orthonormal in the natural norm of the
auxiliary variable (``test_space.TestBasis``), so the test block is the
identity and the squared fine operator is never materialized.  The basis is
the sparse A^T V with small coefficients T, so every block is a sparse
product and no dense array has a row per fine dof and a column per function.
T comes from the block-compressed image of A^T V
(``test_space.compressed_image``), whose rows number the coarse skeleton's
plus a few per block; ``Workspace.image_structure`` supplies the blocks.
T is held as the kernel's factors C, R_1[, R_2], plus one block of factors
per online class, and applied in the kernel's order: G_wu and rhs_w
through ``test_space.TestBasis.coefficient_product``, the fine test
function w_fine = V (T w) through ``test_space.TestBasis.apply_coefficients``.
T is never formed.  The online loop is ``online_enrich``, a generator that
holds no factor between its sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import SparseOperator
from .errors import SolverFailureError
from .grid import CoarseTopology, coloring
from .numerics import (
    CheckedFactor,
    apply_coefficients,
    coefficient_product,
    column_sparse,
    full_rank_lstsq,
    orthonormalize_columns,
    serial_blas,
    smallest_singular_value,
)
from .test_space import TestBasis, compressed_image, extend_test_basis, test_basis

# a local residual below RESIDUAL_FLOOR times the load norm gets no online
# column at all
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class SaddleState:
    """Solved reduced system with its fine-grid expansions; the test block
    is the identity in ``basis``, the online loop grows ``basis``, ``G_wu``
    and ``rhs_w``, and ``Xi`` is CSC."""

    op: SparseOperator
    basis: TestBasis
    Xi: sp.csc_matrix
    G_wu: np.ndarray
    rhs_w: np.ndarray
    w: np.ndarray
    u: np.ndarray
    w_fine: np.ndarray
    u_fine: np.ndarray


def _solved_state(op, basis, Xi, G_wu, rhs_w) -> SaddleState:
    """Solve [[I, G_wu], [G_wu^T, 0]] [w; u] = [rhs_w; 0].

    u is the least-squares solution of G_wu u = rhs_w from a Householder QR
    of G_wu (``numerics.full_rank_lstsq``; a rank-deficient G_wu fails), and
    w = rhs_w - G_wu u.
    """
    try:
        u = full_rank_lstsq(G_wu, rhs_w)
    except sla.LinAlgError as exc:
        N, M = G_wu.shape
        raise SolverFailureError(
            f"singular reduced system (blocks N={N}, M={M}, "
            f"rank G_wu {np.linalg.matrix_rank(G_wu)}): {exc}"
        ) from exc
    w = rhs_w - G_wu @ u
    return SaddleState(
        op=op,
        basis=basis,
        Xi=Xi,
        G_wu=G_wu,
        rhs_w=rhs_w,
        w=w,
        u=u,
        w_fine=basis.V @ basis.apply_coefficients(w),
        u_fine=Xi @ u,
    )


def solve_coupled(op: SparseOperator, V, Xi, interiors=(), harmonic_from=None) -> SaddleState:
    """Assemble and solve the reduced saddle system.

    ``V`` is any matrix whose columns span the test space and ``Xi`` the
    trial matrix; either may be sparse or dense, and ``Xi`` is held as CSC.
    ``interiors`` (the coarse block interiors) and ``harmonic_from`` (the
    first column of V that is A^T-harmonic in each of them) describe where
    A^T V vanishes, for ``test_space.test_basis``.
    """
    Xi = sp.csc_matrix(Xi, dtype=float)
    basis = test_basis(op, V, interiors, harmonic_from)
    rhs_w = basis.coefficient_product(basis.V.T @ op.f)
    G_wu = basis.coefficient_product(basis.AtV.T @ Xi)
    return _solved_state(op, basis, Xi, G_wu, rhs_w)


def leading_block(state: SaddleState, n: int) -> SaddleState | None:
    """The solve on the span of the first n raw test columns of ``state``.

    The orthonormalization keeps its columns in order with T upper
    triangular, so when none of the first n columns was dropped Q[:, :n] =
    A^T V[:, :n] T[:n, :n] is their basis.  T[:n, :n] = C[:n, :n] R_1[:n,
    :n]^{-1} [R_2[:n, :n]^{-1}], as every factor is upper triangular, so the
    leading block's steps are views of the state's leading factors, and its
    G_wu and rhs_w views of the state's leading rows: nothing is copied, and
    only the small system is solved again.  A dropped one may have depended
    on later columns only, so then the result is None and the span needs its
    own ``solve_coupled``.  All columns give ``state`` itself.
    """
    basis = state.basis
    if n == basis.V.shape[1]:
        return state
    if np.searchsorted(basis.kept, n) != n:
        return None
    C, *factors = basis.steps
    steps = (C[:n, :n], *(R[:n, :n] for R in factors))
    lead = TestBasis(basis.V[:, :n], basis.AtV[:, :n], steps, basis.kept[:n])
    return _solved_state(state.op, lead, state.Xi, state.G_wu[:n], state.rhs_w[:n])


def append_test_columns(state: SaddleState, new) -> SaddleState:
    """Re-solve after appending the raw test columns ``new``.

    The basis grows by the part of span(new) outside the test span, one
    block (S, steps_n) of T_n's factors (``test_space.extend_test_basis``),
    and G_wu and rhs_w by the rows T_n^T (Z_X - S^T T^T Z_V) of the grown
    T' = [[T, -T S T_n], [0, T_n]]: T^T Z_V are the rows the state holds,
    and Z_X is (A^T X)^T Xi or X^T f for the appended columns X.  Columns
    in the test span add nothing and return ``state`` itself.
    """
    op = state.op
    basis = extend_test_basis(state.basis, op, new)
    if basis is state.basis:
        return state
    S, steps_n = basis.grown[-1]
    X, AtX = basis.V[:, -S.shape[1] :], basis.AtV[:, -S.shape[1] :]
    G_wu = coefficient_product(steps_n, (AtX.T @ state.Xi).toarray() - S.T @ state.G_wu)
    rhs_w = coefficient_product(steps_n, X.T @ op.f - S.T @ state.rhs_w)
    G_wu, rhs_w = np.vstack([state.G_wu, G_wu]), np.concatenate([state.rhs_w, rhs_w])
    return _solved_state(op, basis, state.Xi, G_wu, rhs_w)


@dataclass(frozen=True)
class ErrorReport:
    """Percent errors of one solve against the fine reference."""

    err_ms_pct: float
    err_proj_pct: float
    w_norm: float
    min_lambda_excluded: float | None = None
    infsup_est: float | None = None
    online_iter: int = 0


def _percent_of(u_ref: np.ndarray, diff: np.ndarray) -> float:
    ref = float(np.linalg.norm(u_ref))
    return 100.0 * float(np.linalg.norm(diff)) / (ref if ref > 0.0 else 1.0)


def projection_error(Xi, u_ref: np.ndarray, interiors=()) -> tuple[np.ndarray, float]:
    """(kept, percent): the ascending indices of the columns of ``Xi``
    (sparse or dense) that ``orthonormalize_columns`` keeps, the trial
    span's one rank decision, and the span's best-approximation error in
    percent, in the Euclidean norm of the fine coefficient vectors: the
    projection Xi T (T^T Xi^T u) with T applied in the kernel's order, for
    the Q = Xi T of the kernel.  The kernel reads the rows of
    ``test_space.compressed_image`` of Xi over the row sets ``interiors``
    (the coarse block interiors), whose Gram is Xi^T Xi; with none it reads
    Xi itself."""
    kept, steps = orthonormalize_columns(compressed_image(sp.csc_matrix(Xi), interiors))
    coefficients = coefficient_product(steps, Xi.T @ u_ref)
    return kept, _percent_of(u_ref, u_ref - Xi @ apply_coefficients(steps, coefficients))


def error_report(
    state: SaddleState,
    u_ref: np.ndarray,
    err_proj_pct: float,
    min_lambda_excluded: float | None = None,
    infsup_est: float | None = None,
    online_iter: int = 0,
) -> ErrorReport:
    """Multiscale error of a solve in percent, next to the trial span's
    ``projection_error`` (which depends on the trial space alone)."""
    return ErrorReport(
        err_ms_pct=_percent_of(u_ref, u_ref - state.u_fine),
        err_proj_pct=err_proj_pct,
        w_norm=float(np.linalg.norm(state.w_fine)),
        min_lambda_excluded=min_lambda_excluded,
        infsup_est=infsup_est,
        online_iter=online_iter,
    )


def infsup_estimate(state: SaddleState) -> float:
    """Smallest squared-energy projection ratio of the lifted trial columns.

    A trial column xi lifted as z = A^{-T} xi has ||A^T z||^2 = ||xi||^2,
    and the squared-operator inner product of z with a test function theta
    is (A^T theta)^T xi, an entry of G_wu.  The test block is the identity,
    so the estimate is sqrt(lambda_min(G_wu^T G_wu, Xi^T Xi)), read from
    the solved blocks by ``smallest_singular_value``; it equals 1 when the
    lifted columns lie in the test span.
    """
    return smallest_singular_value(state.G_wu, (state.Xi.T @ state.Xi).toarray())


def residual_full(state: SaddleState) -> np.ndarray:
    """Strong residual of the first block equation on the fine grid."""
    op = state.op
    return op.A @ (op.A.T @ state.w_fine + state.u_fine) - op.f


def _online_columns(state: SaddleState, topology: CoarseTopology, nodes, r, floor, gram):
    """Local squared-operator solves against the residual, one CSC column
    per node, on one BLAS thread (``serial_blas``).  Each node's A_I A_I^T,
    sliced from ``gram`` = A A^T for its interior I, is factored one-shot in
    symmetric mode and dropped with its solve."""
    op = state.op
    blocks = []
    with serial_blas():
        for node in nodes:
            I = topology.neighborhoods[int(node)].interior
            r_I = r[I]
            if np.linalg.norm(r_I) <= floor:
                continue
            label = f"node {int(node)} online"
            x = CheckedFactor(gram[I][:, I], label, held=False, spd=True).solve(r_I)
            blocks.append((I, x[:, None]))
    return column_sparse(op.A.shape[0], blocks)


def online_enrich(state: SaddleState, topology: CoarseTopology, sweeps: int):
    """Grow the test space from local residuals and re-solve: a generator
    that yields ``state`` itself, then the state after each of ``sweeps``
    sweeps.

    One sweep visits the four parity classes of coarse nodes; within a
    class the neighborhood interiors are disjoint, so the local solves are
    independent.  The coupled system is re-solved after every class, by
    ``append_test_columns``, so later classes see the updated residual.
    A sweep that adds no column leaves the state as it was, and every later
    sweep would too: the loop then yields that state for each remaining
    sweep, with no residual and no factor.

    A sweep that is not stalled forms A A^T once, and ``_online_columns``
    factors each node's A_I A_I^T from it where the node is solved.  A A^T
    is dropped before the sweep's yield, so no factor and no A A^T is alive
    at a yield: the loop holds nothing between sweeps but the state.
    """
    yield state
    classes, op = coloring(topology), state.op
    floor = RESIDUAL_FLOOR * max(np.linalg.norm(op.f), 1.0)
    stalled = False
    for _ in range(sweeps):
        if not stalled:
            before, gram = state, (op.A @ op.A.T).tocsr()
            for nodes in classes:
                new = _online_columns(state, topology, nodes, residual_full(state), floor, gram)
                state = append_test_columns(state, new)
            del gram
            stalled = state is before
        yield state
