"""Reduced saddle system, error reporting, inf-sup estimate and the online
residual-driven test enrichment loop.

The reduced blocks contract the fine operator with the test basis and the
trial matrix Xi.  The test basis is orthonormal in the natural norm of the
auxiliary variable (``test_space.TestBasis``), so the test block is the
identity and the squared fine operator is never materialized.  The basis is
the sparse A^T V with small coefficients T, so every block is a sparse
product and no dense array has a row per fine dof and a column per function.
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
    column_sparse,
    full_rank_lstsq,
    local_dirichlet_solve,
    orthonormal_row_blocks,
    orthonormalize_columns,
    serial_blas,
    smallest_singular_value,
)
from .test_space import TestBasis, extend_test_basis, test_basis

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
        w_fine=basis.V @ (basis.T @ w),
        u_fine=Xi @ u,
    )


def solve_coupled(op: SparseOperator, V, Xi) -> SaddleState:
    """Assemble and solve the reduced saddle system.

    ``V`` is any matrix whose columns span the test space and ``Xi`` the
    trial matrix; either may be sparse or dense, and ``Xi`` is held as CSC.
    """
    Xi = sp.csc_matrix(Xi, dtype=float)
    basis = test_basis(op, V)
    rhs_w = basis.T.T @ (basis.V.T @ op.f)
    return _solved_state(op, basis, Xi, basis.T.T @ (basis.AtV.T @ Xi), rhs_w)


def leading_block(state: SaddleState, n: int) -> SaddleState | None:
    """The solve on the span of the first n raw test columns of ``state``.

    The orthonormalization keeps its columns in order with T upper
    triangular, so when none of the first n columns was dropped Q[:, :n] =
    A^T V[:, :n] T[:n, :n] is their basis; the blocks G_wu and rhs_w are
    then the leading n rows of the state's, views like T[:n, :n], and only
    the small system is solved again.  A dropped one may have depended on
    later columns only, so then the result is None and the span needs its
    own ``solve_coupled``.  All columns give ``state`` itself.
    """
    basis = state.basis
    if n == basis.V.shape[1]:
        return state
    if np.searchsorted(basis.kept, n) != n:
        return None
    lead = TestBasis(basis.V[:, :n], basis.AtV[:, :n], basis.T[:n, :n], basis.kept[:n])
    return _solved_state(state.op, lead, state.Xi, state.G_wu[:n], state.rhs_w[:n])


def append_test_columns(state: SaddleState, new) -> SaddleState:
    """Re-solve after appending the raw test columns ``new``.

    The basis grows by the part of span(new) outside the test span
    (``test_space.extend_test_basis``), and G_wu and rhs_w by its rows, so
    for k new columns the update costs O(N K k).  Columns in the test span
    add nothing and return ``state`` itself.
    """
    op, old = state.op, state.basis.count
    basis = extend_test_basis(state.basis, op, new)
    if basis is state.basis:
        return state
    G_wu = np.vstack([state.G_wu, basis.T[:, old:].T @ (basis.AtV.T @ state.Xi)])
    rhs_w = np.concatenate([state.rhs_w, basis.T[:, old:].T @ (basis.V.T @ op.f)])
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


def projection_error(Xi, u_ref: np.ndarray) -> float:
    """Best-approximation error of the trial span in percent, in the
    Euclidean norm of the fine coefficient vectors (``Xi`` sparse or dense)."""
    _, _, steps = orthonormalize_columns(Xi)
    coefficients = sum(Q.T @ u_ref[rows] for rows, Q in orthonormal_row_blocks(Xi, steps))
    projection = np.concatenate([Q @ coefficients for _, Q in orthonormal_row_blocks(Xi, steps)])
    return _percent_of(u_ref, u_ref - projection)


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


@dataclass(frozen=True)
class OnlineSweepReport:
    iteration: int
    added_columns: int
    residual_norm: float


def _online_columns(state: SaddleState, topology: CoarseTopology, nodes, r, floor):
    """Local squared-operator solves against the residual, one CSC column
    per node, on one BLAS thread (``serial_blas``)."""
    op = state.op
    blocks = []
    with serial_blas():
        for node in nodes:
            I = topology.neighborhoods[int(node)].interior
            r_I = r[I]
            if np.linalg.norm(r_I) <= floor:
                continue
            A_I = op.A[I, :]
            x = local_dirichlet_solve((A_I @ A_I.T).tocsc(), r_I, label=f"node {node} online")
            blocks.append((I, x[:, None]))
    return column_sparse(op.A.shape[0], blocks)


def online_enrich(state: SaddleState, topology: CoarseTopology, iterations: int = 1):
    """Grow the test space from local residuals and re-solve.

    One iteration sweeps the four parity classes of coarse nodes; within a
    class the neighborhood interiors are disjoint, so the local solves are
    independent.  The coupled system is re-solved after every class, by
    ``append_test_columns``, so later classes see the updated residual.
    """
    op = state.op
    classes = coloring(topology)
    floor = RESIDUAL_FLOOR * max(np.linalg.norm(op.f), 1.0)
    reports = []
    for it in range(1, iterations + 1):
        added = 0
        for nodes in classes:
            new = _online_columns(state, topology, nodes, residual_full(state), floor)
            before = state.basis.count
            state = append_test_columns(state, new)
            added += state.basis.count - before
        residual_norm = float(np.linalg.norm(residual_full(state)))
        reports.append(OnlineSweepReport(it, added, residual_norm))
    return state, reports
