"""Shared numerical kernels: local solves, eigenproblems, orthonormalization.

The kernels keep no state of their own and operate on plain numpy /
scipy.sparse inputs.  What they do share is the BLAS thread pool of the
process: ``serial_blas`` narrows it to one thread around the per-region
stages, whose small dense kernels run slower on more threads, and the
global kernels run at the count the process started with.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .errors import LocalSolverError, SingularMetricError, SolverFailureError


@functools.cache
def _openblas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS mapped into the
    process (numpy and scipy each bundle one); each takes a thread count and
    returns the previous one.  Found once per process: a sweep enters
    ``serial_blas`` thousands of times."""
    try:
        with open("/proc/self/maps") as maps:
            paths = dict.fromkeys(line.split()[-1] for line in maps if "openblas" in line)
    except OSError:  # no procfs: nothing to narrow
        return ()
    setters = []
    for path in paths:
        try:
            set_threads = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
        setters.append(set_threads)
    return tuple(setters)


@contextmanager
def _blas_threads(count: int):
    """Set every OpenBLAS found to ``count`` threads, and restore each one's
    previous count on exit, also when the body raises."""
    setters = _openblas_thread_setters()
    previous = [set_threads(count) for set_threads in setters]
    try:
        yield
    finally:
        for set_threads, prev in zip(setters, previous):
            set_threads(prev)


def serial_blas():
    """Scope that runs BLAS and LAPACK on one thread.

    For the per-region stages: their dense kernels are small (a 32 x 32
    generalized ``eigh`` took 0.21 ms on one thread and 3.9 ms on two, on
    a 2-vCPU Xeon), while the global N x K kernels outside the scope keep
    the thread count the process started with (``OPENBLAS_NUM_THREADS``).
    The setting is process-wide while the scope is open, so BLAS calls
    from other Python threads run on one thread too.  Without an OpenBLAS
    it does nothing.
    """
    return _blas_threads(1)


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
    """Solve a square system directly, with a checked relative residual.

    Accepts a sparse or dense matrix and one or several right-hand sides.
    When the first relative residual misses ``tol``, one step of iterative
    refinement with the same factorization is taken before the check, so a
    solve that meets the bound at once is left untouched.  A failure is a
    ``LocalSolverError`` carrying the achieved residual.
    """
    rhs = np.asarray(rhs, dtype=float)
    where = f" ({label})" if label else ""
    scale = np.linalg.norm(rhs)
    scale = scale if scale > 0.0 else 1.0
    try:
        if sp.issparse(A_local):
            solve = spla.splu(A_local.tocsc()).solve
        else:
            dense = np.asarray(A_local, dtype=float)
            solve = lambda b: sla.solve(dense, b)
        x = solve(rhs)
        resid = A_local @ x - rhs
        if np.linalg.norm(resid) / scale > tol:
            x = x - solve(resid)
            resid = A_local @ x - rhs
    except (RuntimeError, sla.LinAlgError) as exc:
        raise LocalSolverError(f"local solve failed{where}: {exc}") from exc
    err = np.linalg.norm(resid) / scale
    if not np.isfinite(err) or err > tol:
        raise LocalSolverError(
            f"local solve residual {err:.3e} exceeds tol {tol:.3e}{where}", residual=err
        )
    return x


def harmonic_extension(K, interior, boundary, traces=None, label: str = ""):
    """Interior values of the K-harmonic extension of boundary traces.

    Solves K_II x = -K_IB g through ``local_dirichlet_solve``; with
    ``traces=None`` g is the identity, one column per boundary delta.  Every
    local snapshot is formed here: pass the transpose of an operator for
    its adjoint extension, or an SPD energy for the minimum-energy
    extension.  A CSC ``K`` (such as the transpose of a CSR operator) is
    sliced by columns first, so no call scans all of ``K``.
    """
    if K.format == "csc":
        K_ii, K_ib = K[:, interior][interior], K[:, boundary][interior]
    else:
        K_I = K[interior]
        K_ii, K_ib = K_I[:, interior], K_I[:, boundary]
    rhs = -(K_ib.toarray() if traces is None else K_ib @ traces)
    return local_dirichlet_solve(K_ii, rhs, label=label)


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


# a column is dropped when its residual against the others is at most
# DROPTOL of its norm
DROPTOL = 1e-10


def _solve_right_upper(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Overwrite the C- or Fortran-ordered X with X R^{-1} for upper
    triangular R."""
    if X.flags.f_contiguous:
        return blas.dtrsm(1.0, R, X, side=1, lower=0, overwrite_b=1)
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


def _product_by_first_row(V: sp.csc_matrix, X: np.ndarray) -> np.ndarray:
    """V X as a C-ordered array, for a CSC V without empty columns.

    The product runs over the columns of V in order of their first stored
    row, so consecutive columns update nearby rows of the result whatever
    order the caller gave them.
    """
    order = np.argsort(np.minimum.reduceat(V.indices, V.indptr[:-1]), kind="stable")
    return np.ascontiguousarray(V[:, order] @ X[order])


def orthonormalize_columns(V, droptol: float = DROPTOL):
    """Euclidean orthonormal basis Q = V T of the column span of a sparse or
    dense V, with its coefficients T.

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
    Theta_1^T Theta_1.  Kept columns keep their input order and only the
    drop step pivots, so T is upper triangular in them: without drops Q is
    the Q factor of V with a positive R diagonal, the same matrix
    Gram-Schmidt produces, and Q[:, :n] = V[:, :n] T[:n, :n] spans the first
    n columns of V whenever none of them was dropped.

    Returns (Q, T, kept): Q is a C-ordered ndarray; T has one row per
    column of V (zero for a zero column) and is the scaled C^{-1}, restricted
    to the kept columns, times the inverses of the two CholeskyQR factors;
    ``kept`` holds the ascending indices of the columns of V that Q keeps,
    one per column of Q.
    """
    V = sp.csc_matrix(V, dtype=float)
    num_rows, num_cols = V.shape
    G = (V.T @ V).toarray()
    sq_norms = G.diagonal().copy()
    nonzero = np.flatnonzero(sq_norms > 0.0)
    if nonzero.size == 0:
        return np.zeros((num_rows, 0)), np.zeros((num_cols, 0)), nonzero
    K = nonzero.size
    if K < num_cols:
        V = V[:, nonzero]
        G = G[np.ix_(nonzero, nonzero)]
    scale = 1.0 / np.sqrt(sq_norms[nonzero])
    G *= scale[:, None]
    G *= scale[None, :]

    u = np.finfo(float).eps / 2.0  # unit roundoff
    # ||G||_1 bounds ||V||_2^2 of the scaled V; the shift follows the 2020 paper
    shift = 11.0 * (num_rows * K + K * (K + 1)) * u * np.abs(G).sum(axis=0).max()
    G[np.diag_indices(K)] += shift
    C = _cholesky_upper(G)
    del G
    T, _ = lapack.dtrtri(C, lower=0, overwrite_c=1)  # Fortran-ordered
    T *= scale[:, None]
    theta = _product_by_first_row(V, T)
    del C

    # a column with relative residual r against the others keeps a residual
    # of about r^2 / (r^2 + shift) in the Gram of Theta_1
    gram = _gram_upper(theta)
    tol = max(droptol**2 / (droptol**2 + shift), K * u)
    _, piv, rank, _ = lapack.dpstrf(gram, tol=tol, lower=0)
    kept = np.sort(piv[:rank] - 1)
    if rank < K:
        theta = np.take(theta, kept, axis=1)  # C-ordered, unlike theta[:, kept]
        T = T[:, kept]  # Fortran-ordered
        gram = gram[np.ix_(kept, kept)]
    # two CholeskyQR passes; the first reuses the Gram the pivoting saw
    R = _cholesky_upper(gram)
    del gram
    theta, T = _solve_right_upper(theta, R), _solve_right_upper(T, R)
    R = _cholesky_upper(_gram_upper(theta))
    theta, T = _solve_right_upper(theta, R), _solve_right_upper(T, R)
    if K < num_cols:
        T_full = np.zeros((num_cols, T.shape[1]), order="F")
        T_full[nonzero] = T
        T = T_full
    return theta, T, nonzero[kept]
