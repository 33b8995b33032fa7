"""Reduced saddle system, error reporting, inf-sup estimate and the online
residual-driven test enrichment loop.

The reduced blocks contract the fine operator with the test matrix Theta
and trial matrix Xi.  The squared fine operator is never materialized:
every product with it is evaluated as two sparse products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SparseOperator
from .errors import SolverFailureError
from .grid import CoarseTopology, coloring
from .numerics import (
    column_sparse,
    generalized_sym_eig,
    local_dirichlet_solve,
    orthonormalize_columns,
)

# an online column is dropped when its residual against the current test
# space is at most ONLINE_DROPTOL of its norm; a local residual below
# RESIDUAL_FLOOR times the load norm gets no column at all
ONLINE_DROPTOL = 1e-10
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class SaddleState:
    """Solved reduced system with its fine-grid expansions.

    ``R`` is the upper Cholesky factor of the test block, G_ww = R^T R; the
    online loop borders it when it appends test columns.  ``Xi`` is CSC.
    """

    op: SparseOperator
    Theta: np.ndarray
    Xi: sp.csc_matrix
    G_wu: np.ndarray
    rhs_w: np.ndarray
    R: np.ndarray
    w: np.ndarray
    u: np.ndarray
    w_fine: np.ndarray
    u_fine: np.ndarray


def _singular(R, G_wu, exc) -> SolverFailureError:
    """The typed failure of a singular system.  ``R`` is the factor of the
    test block, or the block itself where it did not factor; both have its
    rank."""
    N, M = G_wu.shape
    ranks = (np.linalg.matrix_rank(R), np.linalg.matrix_rank(G_wu))
    return SolverFailureError(
        f"singular reduced system (blocks N={N}, M={M}, "
        f"rank R {ranks[0]}, rank G_wu {ranks[1]}): {exc}"
    )


def _solved_state(op, Theta, Xi, G_wu, rhs_w, R) -> SaddleState:
    """Solve [[G_ww, G_wu], [G_wu^T, 0]] [w; u] = [rhs_w; 0] from G_ww = R^T R.

    With Z = R^{-T} G_wu and g = R^{-T} rhs_w, the trial unknowns solve the
    M x M system Z^T Z u = Z^T g with partial pivoting (a singular one means
    rank-deficient blocks), and w = R^{-1} (g - Z u).
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            Z = sla.solve_triangular(R, G_wu, trans="T")
            g = sla.solve_triangular(R, rhs_w, trans="T")
            u = sla.solve(Z.T @ Z, Z.T @ g, overwrite_a=True, overwrite_b=True)
            w = sla.solve_triangular(R, g - Z @ u)
    except (sla.LinAlgError, sla.LinAlgWarning) as exc:
        raise _singular(R, G_wu, exc) from exc
    return SaddleState(
        op=op,
        Theta=Theta,
        Xi=Xi,
        G_wu=G_wu,
        rhs_w=rhs_w,
        R=R,
        w=w,
        u=u,
        w_fine=Theta @ w,
        u_fine=Xi @ u,
    )


def solve_coupled(op: SparseOperator, Theta: np.ndarray, Xi) -> SaddleState:
    """Assemble and solve the dense reduced saddle system.

    ``Xi`` may be sparse or dense; it is held as CSC.
    """
    Theta = np.asarray(Theta, dtype=float)
    Xi = sp.csc_matrix(Xi, dtype=float)
    Y = op.A.T @ Theta
    G_ww = Y.T @ Y
    G_wu = (Xi.T @ Y).T
    del Y
    try:
        R = sla.cholesky(G_ww, lower=False)
    except sla.LinAlgError as exc:
        raise _singular(G_ww, G_wu, exc) from exc
    return _solved_state(op, Theta, Xi, G_wu, Theta.T @ op.f, R)


def append_test_columns(state: SaddleState, Theta_new: np.ndarray) -> SaddleState:
    """Re-solve after appending test columns, by bordering the factor.

    With Y = A^T Theta and Y_n = A^T Theta_n, the test block grows by
    B = Y^T Y_n = Theta^T (A Y_n), so Y is never formed, and D = Y_n^T Y_n;
    its factor grows to [[R, C], [0, chol(D - C^T C)]] with C = R^{-T} B.
    For k new columns that costs O(N K k + K^2 k) instead of the O(N K^2)
    of ``solve_coupled``.  A bordered block that is not SPD (a new column
    in the test span) is a singular system.
    """
    op, R = state.op, state.R
    Y_new = op.A.T @ Theta_new
    B = state.Theta.T @ (op.A @ Y_new)
    D = Y_new.T @ Y_new
    G_wu = np.vstack([state.G_wu, (state.Xi.T @ Y_new).T])
    C = sla.solve_triangular(R, B, trans="T")
    try:
        R_new = sla.cholesky(D - C.T @ C, lower=False)
    except sla.LinAlgError as exc:
        raise _singular(R, G_wu, exc) from exc
    R = np.block([[R, C], [np.zeros((R_new.shape[0], R.shape[1])), R_new]])
    rhs_w = np.concatenate([state.rhs_w, Theta_new.T @ op.f])
    Theta = np.hstack([state.Theta, Theta_new])
    return _solved_state(op, Theta, state.Xi, G_wu, rhs_w, R)


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
    Q = orthonormalize_columns(Xi)
    return _percent_of(u_ref, u_ref - Q @ (Q.T @ u_ref))


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
    and the squared-operator inner product of z with a test column theta
    is (A^T theta)^T xi, an entry of G_wu.  So the estimate is
    sqrt(lambda_min(G_wu^T G_ww^{-1} G_wu, Xi^T Xi)), read from the solved
    blocks and the stored factor of G_ww; it equals 1 when the lifted
    columns lie in the test span.
    """
    G2 = state.G_wu.T @ sla.cho_solve((state.R, False), state.G_wu)
    vals = generalized_sym_eig(G2, (state.Xi.T @ state.Xi).toarray()).values
    return float(np.sqrt(max(vals[0], 0.0)))


def residual_full(state: SaddleState) -> np.ndarray:
    """Strong residual of the first block equation on the fine grid."""
    op = state.op
    return op.A @ (op.A.T @ state.w_fine) + op.A @ state.u_fine - op.f


@dataclass(frozen=True)
class OnlineSweepReport:
    iteration: int
    added_columns: int
    residual_norm: float


def _online_columns(state: SaddleState, topology: CoarseTopology, nodes, r, floor):
    """Local squared-operator solves against the residual, one CSC column
    per node."""
    op = state.op
    blocks = []
    for node in nodes:
        I = topology.neighborhoods[int(node)].interior
        r_I = r[I]
        if np.linalg.norm(r_I) <= floor:
            continue
        A_I = op.A[I, :]
        x = local_dirichlet_solve((A_I @ A_I.T).tocsc(), r_I, label=f"node {node} online")
        blocks.append((I, x[:, None]))
    return column_sparse(op.A.shape[0], blocks)


def _extend_test_space(Theta: np.ndarray, new) -> np.ndarray:
    """Orthonormal columns that extend the orthonormal Theta by ``new``.

    The new block is projected against Theta twice; a column whose residual
    is at most ONLINE_DROPTOL of its norm adds nothing and is dropped, and
    the rest are orthonormalized among themselves by the offline kernel.
    """
    norms = spla.norm(new, axis=0)
    W = new.toarray()
    for _ in range(2):
        W -= Theta @ (Theta.T @ W)
    keep = np.linalg.norm(W, axis=0) > ONLINE_DROPTOL * norms
    return orthonormalize_columns(W[:, keep], droptol=ONLINE_DROPTOL)


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
            r = residual_full(state)
            new = _online_columns(state, topology, nodes, r, floor)
            accepted = _extend_test_space(state.Theta, new)
            if accepted.shape[1]:
                added += accepted.shape[1]
                state = append_test_columns(state, accepted)
        reports.append(
            OnlineSweepReport(
                iteration=it,
                added_columns=added,
                residual_norm=float(np.linalg.norm(residual_full(state))),
            )
        )
    return state, reports
