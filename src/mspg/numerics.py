"""Shared numerical kernels: local solves, eigenproblems, orthonormalization.

All kernels are stateless and operate on plain numpy / scipy.sparse inputs,
so they can be called concurrently from independent per-region builders.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .errors import LocalSolverError, SingularMetricError, SolverFailureError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EigenPairs:
    """Ascending eigenvalues with matching (metric-orthonormal) columns."""

    values: np.ndarray
    vectors: np.ndarray


def generalized_sym_eig(S: np.ndarray, T: np.ndarray) -> EigenPairs:
    """Solve S v = lambda T v for symmetric S and SPD T.

    Small symmetry drift (from forming Gram matrices in floating point) is
    removed by averaging before factorization.
    """
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    S = 0.5 * (S + S.T)
    T = 0.5 * (T + T.T)
    try:
        values, vectors = sla.eigh(S, T)
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularMetricError(f"metric not SPD: {exc}") from exc
    return EigenPairs(values=values, vectors=vectors)


def local_dirichlet_solve(A_local, rhs, tol: float = 1e-10, label: str = ""):
    """Solve a local square system with a checked relative residual.

    Accepts a sparse or dense matrix and one or several right-hand sides.
    """
    rhs = np.asarray(rhs, dtype=float)
    where = f" ({label})" if label else ""
    try:
        if sp.issparse(A_local):
            x = spla.splu(A_local.tocsc()).solve(rhs)
        else:
            x = sla.solve(np.asarray(A_local, dtype=float), rhs)
    except (RuntimeError, sla.LinAlgError) as exc:
        raise LocalSolverError(f"local solve failed{where}: {exc}") from exc
    resid = A_local @ x - rhs
    scale = np.linalg.norm(rhs)
    err = np.linalg.norm(resid) / (scale if scale > 0.0 else 1.0)
    if not np.isfinite(err) or err > tol:
        raise LocalSolverError(
            f"local solve residual {err:.3e} exceeds tol {tol:.3e}{where}"
        )
    return x


def column_sparse(num_rows: int, blocks) -> sp.csc_matrix:
    """CSC matrix assembled from ``(rows, values)`` blocks, in order.

    ``values`` holds one row per entry of ``rows`` and one column per output
    column, so a block contributes ``values.shape[1]`` columns supported on
    ``rows`` (which must not repeat).
    """
    blocks = [(np.asarray(rows), np.asarray(vals, dtype=float)) for rows, vals in blocks]
    widths = [vals.shape[1] for _, vals in blocks]
    lengths = np.repeat([rows.size for rows, _ in blocks], widths).astype(np.int64)
    return sp.csc_matrix(
        (
            np.concatenate([vals.ravel(order="F") for _, vals in blocks] + [np.zeros(0)]),
            np.concatenate(
                [np.tile(rows, vals.shape[1]) for rows, vals in blocks]
                + [np.zeros(0, dtype=np.int64)]
            ),
            np.concatenate([[0], np.cumsum(lengths)]),
        ),
        shape=(num_rows, sum(widths)),
    )


def extend_orthonormal(Q: np.ndarray | None, V: np.ndarray, droptol: float = 1e-10):
    """Orthonormalize the columns of V against Q and each other.

    Returns the accepted new columns only.  A column is dropped when its
    residual after projection is at most droptol times its original norm,
    so the combined span is preserved up to droptol.
    """
    V = np.array(V, dtype=float, copy=True)
    if V.ndim != 2 or V.shape[1] == 0:
        return np.zeros((V.shape[0] if V.ndim == 2 else 0, 0))
    norms0 = np.linalg.norm(V, axis=0)

    nq = 0 if Q is None else Q.shape[1]
    accepted = np.zeros((V.shape[0], V.shape[1]))
    na = 0
    block = 128
    for lo in range(0, V.shape[1], block):
        W = V[:, lo : lo + block]
        # two projection passes keep orthogonality near machine precision
        for _ in range(2):
            if nq:
                W -= Q[:, :nq] @ (Q[:, :nq].T @ W)
            if na:
                W -= accepted[:, :na] @ (accepted[:, :na].T @ W)
        for j in range(W.shape[1]):
            w = W[:, j]
            if na:
                w = w - accepted[:, :na] @ (accepted[:, :na].T @ w)
            nrm = np.linalg.norm(w)
            if nrm <= droptol * max(norms0[lo + j], np.finfo(float).tiny):
                continue
            accepted[:, na] = w / nrm
            na += 1
    return accepted[:, :na].copy()


def _solve_right_upper(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Overwrite the C-ordered X with X R^{-1} for upper triangular R."""
    # X^T is Fortran-ordered, so LAPACK solves R^T (X R^{-1})^T = X^T in place
    return blas.dtrsm(1.0, R, X.T, side=0, lower=0, trans_a=1, overwrite_b=1).T


def _gram_upper(X: np.ndarray) -> np.ndarray:
    """Upper triangle of X^T X for a C-ordered X, without a transposed copy."""
    return blas.dsyrk(1.0, X.T)


def _cholesky_upper(gram: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor from the upper triangle, overwriting ``gram``."""
    try:
        return sla.cholesky(gram, lower=False, overwrite_a=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise SolverFailureError(f"Gram matrix not positive definite: {exc}") from exc


def orthonormalize_columns(V, droptol: float = 1e-10) -> np.ndarray:
    """Euclidean orthonormal basis of the column span of a sparse or dense V.

    Shifted CholeskyQR3 (Fukaya, Kannan, Nakatsukasa, Yamamoto and
    Yanagisawa, SIAM J. Sci. Comput. 2020), driven by the sparse Gram V^T V:

    1. scale the columns to unit norm and drop zero columns;
    2. Cholesky-factor the Gram plus the shift that makes the factorization
       succeed for any condition number up to 1/u, and form
       Theta_1 = V C^{-1} with one sparse-dense product;
    3. drop dependent columns with a pivoted Cholesky of Theta_1^T Theta_1;
    4. finish with two CholeskyQR passes over the kept columns.

    A column is dropped when its residual against the other columns is at
    most ``droptol`` times its norm, or lies below the rounding floor of
    Theta_1^T Theta_1.  Kept columns keep their input order, so without
    drops the result is the Q factor of V with a positive R diagonal, the
    same matrix Gram-Schmidt produces.  The result is a C-ordered ndarray.
    """
    V = sp.csc_matrix(V, dtype=float)
    num_rows, K = V.shape
    G = (V.T @ V).toarray()
    sq_norms = G.diagonal().copy()
    nonzero = np.flatnonzero(sq_norms > 0.0)
    if nonzero.size == 0:
        return np.zeros((num_rows, 0))
    if nonzero.size < K:
        V = V[:, nonzero]
        G = G[np.ix_(nonzero, nonzero)]
        K = nonzero.size
    scale = 1.0 / np.sqrt(sq_norms[nonzero])
    G *= scale[:, None]
    G *= scale[None, :]

    u = np.finfo(float).eps / 2.0  # unit roundoff
    # ||G||_1 bounds ||V||_2^2 of the scaled V; the shift follows the 2020 paper
    shift = 11.0 * (num_rows * K + K * (K + 1)) * u * np.abs(G).sum(axis=0).max()
    G[np.diag_indices(K)] += shift
    C = _cholesky_upper(G)
    del G
    C_inv, _ = lapack.dtrtri(C, lower=0, overwrite_c=1)
    C_inv *= scale[:, None]
    theta = np.ascontiguousarray(V @ C_inv)
    del C, C_inv

    # a column with relative residual r against the others keeps a residual
    # of about r^2 / (r^2 + shift) in the Gram of Theta_1
    gram = _gram_upper(theta)
    tol = max(droptol**2 / (droptol**2 + shift), K * u)
    _, piv, rank, _ = lapack.dpstrf(gram, tol=tol, lower=0)
    kept = np.sort(piv[:rank] - 1)
    if rank < K:
        theta = theta[:, kept]
        gram = gram[np.ix_(kept, kept)]
    # two CholeskyQR passes; the first reuses the Gram the pivoting saw
    theta = _solve_right_upper(theta, _cholesky_upper(gram))
    del gram
    theta = _solve_right_upper(theta, _cholesky_upper(_gram_upper(theta)))
    return theta


def _factor_psd(B_uu, label: str):
    """Factor a PSD block, retrying once with a tiny ridge if singular."""
    sparse = sp.issparse(B_uu)
    dim = B_uu.shape[0]
    trace = B_uu.diagonal().sum() if sparse else np.trace(B_uu)
    for attempt in range(2):
        try:
            if sparse:
                lu = spla.splu(B_uu.tocsc())
                return lu.solve
            c, low = sla.cho_factor(np.asarray(B_uu, dtype=float))
            return lambda rhs: sla.cho_solve((c, low), rhs)
        except (RuntimeError, sla.LinAlgError):
            if attempt == 1:
                break
            ridge = 1e-12 * trace / max(dim, 1)
            log.warning("singular energy block%s: adding ridge %.3e", label, ridge)
            B_uu = B_uu + ridge * (sp.eye(dim, format="csc") if sparse else np.eye(dim))
    raise LocalSolverError(f"energy block not factorizable{label}")


def min_energy_extension(B_local, constrained_dofs, trace_values, label: str = ""):
    """Minimum-B-energy extension of prescribed values on a region.

    Given a symmetric PSD matrix over the region dofs, returns the vector
    (or one column per trace column) that matches ``trace_values`` on
    ``constrained_dofs``, vanishes implicitly outside the region, and
    minimizes v^T B v.  The unconstrained block is solved against minus the
    coupling block times the trace.
    """
    constrained = np.asarray(constrained_dofs, dtype=np.int64)
    traces = np.asarray(trace_values, dtype=float)
    dim = B_local.shape[0]
    free = np.setdiff1d(np.arange(dim), constrained, assume_unique=False)
    single = traces.ndim == 1
    T = traces[:, None] if single else traces
    if T.shape[0] != constrained.size:
        raise ValueError("trace rows must match constrained dof count")

    out = np.zeros((dim, T.shape[1]))
    out[constrained] = T
    if free.size:
        if sp.issparse(B_local):
            B_uu = B_local[free][:, free]
            B_uc = B_local[free][:, constrained]
            rhs = -(B_uc @ T)
        else:
            B_uu = B_local[np.ix_(free, free)]
            rhs = -(B_local[np.ix_(free, constrained)] @ T)
        where = f" ({label})" if label else ""
        out[free] = _factor_psd(B_uu, where)(rhs)
    return out[:, 0] if single else out
