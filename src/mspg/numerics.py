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
    a 2-vCPU Xeon), while the global kernels outside the scope keep the
    process's count (``OPENBLAS_NUM_THREADS``).  The setting is process-
    wide while the scope is open, so BLAS calls from other Python threads
    run on one thread too.  Without an OpenBLAS it does nothing."""
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
# bytes of one row block of an orthonormal Q, the most of Q ever held
ROW_BLOCK_BYTES = 32 * 2**20
# eta = ||Q_0^T Q_0 - I||_F <= 1/11 gives kappa(Q_0)^2 <= (1+eta)/(1-eta) <= 6/5,
# where one CholeskyQR pass meets the CholeskyQR2 bound (``orthonormalize_columns``)
ONE_PASS_MAX_DEVIATION = 1.0 / 11.0


def full_rank_lstsq(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||G x - b|| from a Householder QR of G (the normal equations
    would square its condition).  The R factor of [G b] holds R and Q^T b;
    the QR runs on one BLAS thread, 7 ms against 21 ms on two for a
    1601 x 148 G (2-vCPU Xeon).  ``LinAlgError`` when G has fewer rows than
    columns or the 1-norm reciprocal condition of R (``dtrcon``) is at most
    max(G.shape) eps, the rank tolerance of ``numpy.linalg.matrix_rank``."""
    rows, cols = G.shape
    if rows < cols:
        raise sla.LinAlgError(f"{rows} equations for {cols} unknowns")
    lwork = int(lapack.dgeqrf_lwork(rows, cols + 1)[0])  # the default one runs unblocked
    with serial_blas():
        R = lapack.dgeqrf(np.column_stack([G, b]), lwork=lwork)[0][:cols]  # upper triangle
    rcond, _ = lapack.dtrcon(R[:, :cols])
    if not rcond > max(rows, cols) * np.finfo(float).eps:
        raise sla.LinAlgError(f"R factor has reciprocal condition number {rcond:.1e}")
    return sla.solve_triangular(R[:, :cols], R[:, cols])


def _solve_right_upper(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Overwrite the C- or Fortran-ordered X with X R^{-1} for upper
    triangular R."""
    if X.flags.f_contiguous:
        return blas.dtrsm(1.0, R, X, side=1, lower=0, overwrite_b=1)
    # X^T is Fortran-ordered, so LAPACK solves R^T (X R^{-1})^T = X^T in place
    return blas.dtrsm(1.0, R, X.T, side=0, lower=0, trans_a=1, overwrite_b=1).T


def orthonormal_row_blocks(V, steps):
    """Row blocks ``(rows, V[rows] C R_1^{-1} ...)`` of the Q that
    ``orthonormalize_columns`` made of V with ``steps`` = (C, R_1[, R_2]), in
    the kernel's order of operations; a prefix of ``steps`` gives its
    intermediate factors.  ``rows`` is a slice; C and each block C-ordered."""
    V, (C, *factors) = (V.tocsr() if sp.issparse(V) else V), steps
    step = max(1, ROW_BLOCK_BYTES // (8 * max(C.shape[1], 1)))
    for start in range(0, V.shape[0], step):
        rows = slice(start, start + step)
        block = V[rows] @ C
        for R in factors:
            block = _solve_right_upper(block, R)
        yield rows, block


def _gram_upper(V, steps) -> np.ndarray:
    """Upper triangle of X^T X, by ``dsyrk`` over the row blocks of X."""
    gram = np.zeros((steps[0].shape[1],) * 2, order="F")
    for _, block in orthonormal_row_blocks(V, steps):
        gram = blas.dsyrk(1.0, block.T, beta=1.0, c=gram, overwrite_c=1)
    return gram


def _cholesky_upper(gram: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor from the upper triangle, overwriting ``gram``."""
    try:
        return sla.cholesky(gram, lower=False, overwrite_a=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise SolverFailureError(f"Gram matrix not positive definite: {exc}") from exc


def orthonormalize_columns(V, droptol: float = DROPTOL):
    """Coefficients T of a Euclidean orthonormal basis Q = V T of the column
    span of a sparse or dense V.

    Shifted CholeskyQR3 (Fukaya, Kannan, Nakatsukasa, Yamamoto and
    Yanagisawa, SIAM J. Sci. Comput. 2020) on the Gram V^T V: scale the
    columns to unit norm and drop zero ones; C is the scaled inverse
    Cholesky factor of the Gram plus the shift that makes it succeed for any
    condition number up to 1/u; a pivoted Cholesky of Q_0^T Q_0, Q_0 = V C,
    drops columns whose residual against the others is at most ``droptol``
    of their norm or below its rounding floor; CholeskyQR passes finish, R_1
    and, when eta = ||Q_0^T Q_0 - I||_F exceeds ONE_PASS_MAX_DEVIATION, R_2.
    ||Q^T Q - I||_2 is at most 5 kappa(Q_0)^2 (m n u + n (n + 1) u) after one
    pass and 6 (m n u + n (n + 1) u) after two for an m x n Q_0 (Yamamoto,
    Nakatsukasa, Yanagisawa and Fukaya, ETNA 2015).  Later Grams sum ``dsyrk``
    over ``orthonormal_row_blocks``, which callers also use to regenerate Q.

    Only the drop step pivots, so T is upper triangular in the kept
    columns: without drops Q is the Q factor of V with a positive R
    diagonal, and Q[:, :n] = V[:, :n] T[:n, :n] spans the first n columns
    of V whenever none of them was dropped.  Returns (T, kept, steps): T
    has a row per column of V (zero for a zero column), ``kept`` the
    ascending indices of the kept columns, one per column of T, and
    ``steps`` = (C, R_1) or (C, R_1, R_2), so T = C R_1^{-1} [R_2^{-1}].
    """
    V = sp.csc_matrix(V, dtype=float) if sp.issparse(V) else np.asarray(V, dtype=float)
    num_rows, num_cols = V.shape
    G = (V.T @ V).toarray() if sp.issparse(V) else V.T @ V  # C-ordered: V^T is CSR
    sq_norms = G.diagonal().copy()
    nonzero = np.flatnonzero(sq_norms > 0.0)
    K = nonzero.size
    if K == 0:
        return np.zeros((num_cols, 0)), nonzero, (np.zeros((num_cols, 0)),)
    G = G[np.ix_(nonzero, nonzero)]
    scale = 1.0 / np.sqrt(sq_norms[nonzero])
    G *= scale[:, None]
    G *= scale[None, :]

    u = np.finfo(float).eps / 2.0  # unit roundoff
    # ||G||_1 bounds ||V||_2^2 of the scaled V; the shift follows the 2020 paper
    shift = 11.0 * (num_rows * K + K * (K + 1)) * u * np.abs(G).sum(axis=0).max()
    G[np.diag_indices(K)] += shift
    C = np.zeros((num_cols, K))  # a zero row for each zero column
    C[nonzero] = lapack.dtrtri(_cholesky_upper(G), lower=0, overwrite_c=1)[0] * scale[:, None]
    del G

    # a column with relative residual r against the others keeps a residual
    # of about r^2 / (r^2 + shift) in the Gram of V C
    gram = _gram_upper(V, (C,))
    tol = max(droptol**2 / (droptol**2 + shift), K * u)
    _, piv, rank, _ = lapack.dpstrf(gram, tol=tol, lower=0)
    kept = np.sort(piv[:rank] - 1)
    # R_1 and eta reuse the upper triangle of the Gram the pivoting saw; eta is
    # summed by rows: no cancellation, and no threaded dot that slows dpotrf
    gram = gram[np.ix_(kept, kept)]
    upper = sum(row[i + 1 :] @ row[i + 1 :] for i, row in enumerate(gram))
    eta_sq = 2.0 * upper + np.sum((gram.diagonal() - 1.0) ** 2)
    steps = (np.ascontiguousarray(C[:, kept]), _cholesky_upper(gram))
    del C, gram
    if eta_sq > ONE_PASS_MAX_DEVIATION**2:
        steps += (_cholesky_upper(_gram_upper(V, steps)),)
    T = functools.reduce(_solve_right_upper, steps[1:], np.array(steps[0], order="F"))
    return T, nonzero[kept], steps


def smallest_singular_value(G: np.ndarray, M: np.ndarray) -> float:
    """sqrt(lambda_min(G^T G, M)) for SPD M = R^T R, as the smallest singular
    value of G R^{-1} (G^T G would square the condition of G); G is tall."""
    R = _cholesky_upper(np.array(M, dtype=float))
    return float(sla.svdvals(_solve_right_upper(np.array(G, dtype=float), R))[-1])
