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
import scipy.sparse.linalg as spla

from .assembly import SparseOperator
from .errors import SolverFailureError
from .grid import CoarseTopology, coloring
from .numerics import column_sparse, generalized_sym_eig, orthonormalize_columns

# an online column is dropped when its residual against the current test
# space is at most ONLINE_DROPTOL of its norm; a local residual below
# RESIDUAL_FLOOR times the load norm gets no column at all
ONLINE_DROPTOL = 1e-10
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class SaddleState:
    """Solved reduced system with its fine-grid expansions."""

    op: SparseOperator
    Theta: np.ndarray
    Xi: np.ndarray
    G_ww: np.ndarray
    G_wu: np.ndarray
    rhs_w: np.ndarray
    w: np.ndarray
    u: np.ndarray
    w_fine: np.ndarray
    u_fine: np.ndarray


def _solve_saddle(G_ww, G_wu, rhs_w):
    """Dense solve of [[G_ww, G_wu], [G_wu^T, 0]] [w; u] = [rhs_w; 0].

    The test block is SPD by construction, so the system is reduced by a
    Cholesky block elimination and the Schur complement is solved with
    partial pivoting; a singular complement means rank-deficient blocks.
    """
    N, M = G_wu.shape
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        factor = sla.cho_factor(G_ww, lower=True)
        X = sla.cho_solve(factor, G_wu)  # G_ww^{-1} G_wu
        schur = G_wu.T @ X
        u = sla.solve(schur, X.T @ rhs_w, overwrite_a=True, overwrite_b=True)
        w = sla.cho_solve(factor, rhs_w - G_wu @ u)
    return w, u


def solve_coupled(op: SparseOperator, Theta: np.ndarray, Xi: np.ndarray) -> SaddleState:
    """Assemble and solve the dense reduced saddle system."""
    Theta = np.asarray(Theta, dtype=float)
    Xi = np.asarray(Xi, dtype=float)
    N, M = Theta.shape[1], Xi.shape[1]
    Y = op.A.T @ Theta
    G_ww = Y.T @ Y
    G_wu = Y.T @ Xi
    del Y
    rhs_w = Theta.T @ op.f

    try:
        w, u = _solve_saddle(G_ww, G_wu, rhs_w)
    except (sla.LinAlgError, sla.LinAlgWarning) as exc:
        ranks = (np.linalg.matrix_rank(G_ww), np.linalg.matrix_rank(G_wu))
        raise SolverFailureError(
            f"singular reduced system (blocks N={N}, M={M}, "
            f"rank G_ww {ranks[0]}, rank G_wu {ranks[1]}): {exc}"
        ) from exc
    return SaddleState(
        op=op,
        Theta=Theta,
        Xi=Xi,
        G_ww=G_ww,
        G_wu=G_wu,
        rhs_w=rhs_w,
        w=w,
        u=u,
        w_fine=Theta @ w,
        u_fine=Xi @ u,
    )


@dataclass(frozen=True)
class ErrorReport:
    """Percent errors of one solve against the fine reference."""

    err_ms_pct: float
    err_proj_pct: float
    w_norm: float
    min_lambda_excluded: float | None = None
    infsup_est: float | None = None
    online_iter: int = 0


def error_report(
    state: SaddleState,
    u_ref: np.ndarray,
    min_lambda_excluded: float | None = None,
    infsup_est: float | None = None,
    online_iter: int = 0,
) -> ErrorReport:
    """Multiscale and best-approximation errors of the trial span, in the
    Euclidean norm of the fine coefficient vectors."""
    Q, _ = np.linalg.qr(state.Xi)
    proj = Q @ (Q.T @ u_ref)
    ref = float(np.linalg.norm(u_ref))
    scale = ref if ref > 0.0 else 1.0
    return ErrorReport(
        err_ms_pct=100.0 * float(np.linalg.norm(u_ref - state.u_fine)) / scale,
        err_proj_pct=100.0 * float(np.linalg.norm(u_ref - proj)) / scale,
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
    blocks; it equals 1 when the lifted columns lie in the test span.
    """
    G2 = state.G_wu.T @ sla.solve(state.G_ww, state.G_wu, assume_a="pos")
    vals = generalized_sym_eig(G2, state.Xi.T @ state.Xi).values
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
        B = (A_I @ A_I.T).tocsc()
        blocks.append((I, spla.splu(B).solve(r_I)[:, None]))
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
    independent.  The coupled system is re-solved after every class so later
    classes see the updated residual.
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
                state = solve_coupled(op, np.hstack([state.Theta, accepted]), state.Xi)
        reports.append(
            OnlineSweepReport(
                iteration=it,
                added_columns=added,
                residual_norm=float(np.linalg.norm(residual_full(state))),
            )
        )
    return state, reports
