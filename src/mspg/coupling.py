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
T is held as the kernel's factors C, R_1[, R_2] and applied in the kernel's
order: G_wu and rhs_w through ``numerics.coefficient_product``, the fine
test function w_fine = V (T w) through ``numerics.apply_coefficients``.
Only the online loop forms T, once, to grow it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import SparseOperator
from .errors import SolverFailureError
from .grid import CoarseTopology, coloring
from .numerics import (
    HELD_FACTOR_BYTES,
    CheckedFactor,
    apply_coefficients,
    coefficient_product,
    column_sparse,
    full_rank_lstsq,
    orthonormalize_columns,
    serial_blas,
    smallest_singular_value,
)
from .test_space import TestBasis, extend_test_basis, growable_basis, test_basis

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
        w_fine=basis.V @ apply_coefficients(basis.steps, w),
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
    rhs_w = coefficient_product(basis.steps, basis.V.T @ op.f)
    G_wu = coefficient_product(basis.steps, basis.AtV.T @ Xi)
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

    The basis grows by the part of span(new) outside the test span
    (``test_space.extend_test_basis``), and G_wu and rhs_w by its rows, so
    for k new columns the update costs O(N K k).  Columns in the test span
    add nothing and return ``state`` itself.  The grown basis holds its T
    explicitly.
    """
    op, old = state.op, state.basis.count
    basis = extend_test_basis(state.basis, op, new)
    if basis is state.basis:
        return state
    (T,) = basis.steps
    G_wu = np.vstack([state.G_wu, T[:, old:].T @ (basis.AtV.T @ state.Xi)])
    rhs_w = np.concatenate([state.rhs_w, T[:, old:].T @ (basis.V.T @ op.f)])
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
    Euclidean norm of the fine coefficient vectors (``Xi`` sparse or dense):
    the projection Xi T (T^T Xi^T u) with T applied in the kernel's order,
    for the Q = Xi T of ``orthonormalize_columns``."""
    _, steps = orthonormalize_columns(Xi)
    coefficients = coefficient_product(steps, Xi.T @ u_ref)
    return _percent_of(u_ref, u_ref - Xi @ apply_coefficients(steps, coefficients))


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


class OnlineFactors:
    """The factors of the neighbourhood systems A_I A_I^T of one online loop
    of ``sweeps`` sweeps, made once per node.

    A_I A_I^T is symmetric positive definite, so it is factored in
    symmetric mode (``CheckedFactor`` with ``spd``).  While a later sweep of
    the loop will solve with a node's system again, its factor is made by
    the held routine and kept, as long as the kept factors' bytes stay
    within HELD_FACTOR_BYTES; the last sweep makes the rest one-shot and
    drops each factor after its solve, so nothing is held once the loop
    ends.  The systems are sliced from one A A^T, formed when a sweep first
    needs a factor and dropped when it ends.
    """

    def __init__(self, op: SparseOperator, sweeps: int):
        self.op = op
        self.sweeps_left = sweeps
        self.held: dict[int, CheckedFactor] = {}
        self.held_bytes = 0
        self._gram = None

    def solve(self, node: int, I: np.ndarray, r_I: np.ndarray) -> np.ndarray:
        """x with A_I A_I^T x = r_I for the interior I of ``node``."""
        last = self.sweeps_left <= 1
        factor = self.held.pop(node, None) if last else self.held.get(node)
        if factor is None:
            if self._gram is None:
                self._gram = (self.op.A @ self.op.A.T).tocsr()
            hold = not last and self.held_bytes < HELD_FACTOR_BYTES
            K = self._gram[I][:, I]
            factor = CheckedFactor(K, f"node {node} online", held=hold, spd=True)
            if hold and self.held_bytes + factor.nbytes <= HELD_FACTOR_BYTES:
                self.held[node] = factor
                self.held_bytes += factor.nbytes
        elif last:
            self.held_bytes -= factor.nbytes
        return factor.solve(r_I)

    def end_sweep(self) -> None:
        """Drop A A^T, and after the loop's last sweep every factor."""
        self.sweeps_left -= 1
        self._gram = None
        if self.sweeps_left <= 0:
            self.held.clear()
            self.held_bytes = 0


def _online_columns(state: SaddleState, topology: CoarseTopology, nodes, r, floor, factors):
    """Local squared-operator solves against the residual, one CSC column
    per node, through the loop's ``OnlineFactors``, on one BLAS thread
    (``serial_blas``)."""
    op = state.op
    blocks = []
    with serial_blas():
        for node in nodes:
            I = topology.neighborhoods[int(node)].interior
            r_I = r[I]
            if np.linalg.norm(r_I) <= floor:
                continue
            blocks.append((I, factors.solve(int(node), I, r_I)[:, None]))
    return column_sparse(op.A.shape[0], blocks)


def start_online(state: SaddleState, topology: CoarseTopology, sweeps: int):
    """``(state, factors)`` for an online loop of ``sweeps`` sweeps from
    ``state``: the same solve with its T formed in storage with room for
    every column the loop can add, at most one per node and sweep
    (``test_space.growable_basis``), so the loop grows T in place and the
    kernel's factors of ``state`` are released with it, and the loop's
    ``OnlineFactors``."""
    room = sweeps * sum(len(nodes) for nodes in coloring(topology))
    state = replace(state, basis=growable_basis(state.basis, room))
    return state, OnlineFactors(state.op, sweeps)


def online_enrich(
    state: SaddleState,
    topology: CoarseTopology,
    iterations: int = 1,
    factors: OnlineFactors | None = None,
):
    """Grow the test space from local residuals and re-solve.

    One iteration sweeps the four parity classes of coarse nodes; within a
    class the neighborhood interiors are disjoint, so the local solves are
    independent.  The coupled system is re-solved after every class, by
    ``append_test_columns``, so later classes see the updated residual.
    Without ``factors`` the call is a loop of its own (``start_online``).
    A caller that sweeps one call at a time starts the loop once, for all
    its sweeps, and passes the loop's ``factors`` to every call, so each
    node is factored once and T grows in place throughout.
    """
    if factors is None:
        state, factors = start_online(state, topology, iterations)
    op = state.op
    classes = coloring(topology)
    floor = RESIDUAL_FLOOR * max(np.linalg.norm(op.f), 1.0)
    reports = []
    for it in range(1, iterations + 1):
        added = 0
        for nodes in classes:
            new = _online_columns(state, topology, nodes, residual_full(state), floor, factors)
            before = state.basis.count
            state = append_test_columns(state, new)
            added += state.basis.count - before
        factors.end_sweep()
        residual_norm = float(np.linalg.norm(residual_full(state)))
        reports.append(OnlineSweepReport(it, added, residual_norm))
    return state, reports
