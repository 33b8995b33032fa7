"""Shared numerical kernels: local solves, eigenproblems, orthonormalization.

Every direct sparse solve goes through ``CheckedFactor``, the one place
the package factors a matrix with SuperLU, whose solves check their
residual (``check_residual``, which also checks the trial snapshots that
``trial_space.trial_snapshots`` assembles from block solves); a factor made
once serves many solves with its matrix or its transpose.  It is also made
for one solve and dropped (``held=False``): the fine reference solve, the
Darcy pressure of example 5 and the online loop's per-node ``spd`` factors
(``coupling._online_columns``).  The other kernels keep no state of their
own and operate on plain numpy / scipy.sparse inputs.  What they do share
is the BLAS thread pool of the process: ``serial_blas`` narrows it to one
thread around the per-region stages, whose small dense kernels run slower
on more threads, and the global kernels run at the count the process
started with.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

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


def generalized_sym_eig(
    S: np.ndarray, T: np.ndarray, count: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve S v = lambda T v for symmetric S and SPD T: (values, vectors),
    the ascending eigenvalues and matching T-orthonormal columns, all of
    them or the ``count`` smallest.

    Small symmetry drift (from forming Gram matrices in floating point) is
    removed by averaging before factorization.  A ``count`` asks LAPACK for
    those pairs only (its ``gvx`` driver): 0.51-0.62 ms against 1.73 ms for
    every pair of a 96 x 96 pencil, on one thread of a 2-vCPU Xeon.
    """
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    S = 0.5 * (S + S.T)
    T = 0.5 * (T + T.T)
    subset = None if count is None else [0, count - 1]
    try:
        values, vectors = sla.eigh(S, T, subset_by_index=subset)
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularMetricError(f"metric not SPD: {exc}") from exc
    return values, vectors


class CheckedFactor:
    """Sparse LU of a square matrix K whose solves are checked.

    The package's direct factorization: SuperLU with partial pivoting (or,
    for an ``spd`` K, diagonal pivots) of a sparse or dense K, made once
    and reused by every solve with K (``trans="N"``) or K^T
    (``trans="T"``).  When the first relative residual of a solve misses
    ``tol``, one step of iterative refinement with the same factors is
    taken before the check, so a solve that meets the bound at once is
    left untouched.  A singular K or a missed residual is a
    ``LocalSolverError`` naming ``label``, with the achieved residual when
    there is one.

    SuperLU's LU routine (``splu``) reserves storage for L and U of about
    700 bytes per stored entry of K and keeps it with the factor: 256 KB
    for a 49-dof coarse block whose L and U hold 730 entries, 38 MB for a
    6,241-dof one.  A ``held`` factor is therefore made by SuperLU's
    incomplete-LU routine (``spilu``) with nothing dropped (drop tolerance
    0, the basic drop rule, partial pivoting), which grows its storage from
    nnz(K) as L and U fill in: an exact LU in 14 KB for that 49-dof block.
    It is ordered by minimum degree on K^T + K, which suits the structurally
    symmetric block operators (29% less fill than COLAMD on a 1,521-dof
    block).  That routine factors 20-40% slower than ``splu`` on large
    matrices, so a factor used for one solve comes from ``splu`` with
    COLAMD.

    An ``spd`` K (symmetric positive definite, such as a neighbourhood's
    A_I A_I^T) is factored by either routine in SuperLU's symmetric mode:
    minimum degree on K^T + K, diagonal pivots only.  On a 1,521-dof
    neighbourhood that took 4.8-5.1 ms against 11.6-12.2 ms for COLAMD with
    partial pivoting, with about as many entries in L and U.
    """

    def __init__(self, K, label: str = "", held: bool = True, spd: bool = False):
        self.K = sp.csc_matrix(K, dtype=float)
        self.label = label
        if spd:
            pivoting = dict(
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        elif held:
            pivoting = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1.0)
        else:
            pivoting = {}
        try:
            if held:
                self._lu = spla.spilu(
                    self.K, drop_tol=0.0, fill_factor=1.0, drop_rule="basic", **pivoting
                )
            else:
                self._lu = spla.splu(self.K, **pivoting)
        except RuntimeError as exc:
            raise LocalSolverError(f"local solve failed{self._where}: {exc}") from exc

    @property
    def _where(self) -> str:
        return f" ({self.label})" if self.label else ""

    def solve(self, rhs, trans: str = "N", tol: float = 1e-10) -> np.ndarray:
        """x with K x = rhs (``trans="N"``) or K^T x = rhs (``trans="T"``),
        for one or several right-hand sides."""
        rhs = np.asarray(rhs, dtype=float)
        K = self.K if trans == "N" else self.K.T
        scale = np.linalg.norm(rhs)
        x = self._lu.solve(rhs, trans=trans)
        resid = K @ x - rhs
        if np.linalg.norm(resid) > tol * scale:
            x = x - self._lu.solve(resid, trans=trans)
            resid = K @ x - rhs
        check_residual(resid, scale, tol, self.label)
        return x


def check_residual(resid, scale: float, tol: float = 1e-10, label: str = "") -> None:
    """The check of every local solve: a ``LocalSolverError`` naming
    ``label``, with the achieved residual, unless ||resid|| / ``scale`` (the
    norm of the right-hand side, or 1 for a zero one) is finite and at most
    ``tol``."""
    err = np.linalg.norm(resid) / (scale if scale > 0.0 else 1.0)
    if not np.isfinite(err) or err > tol:
        where = f" ({label})" if label else ""
        raise LocalSolverError(
            f"local solve residual {err:.3e} exceeds tol {tol:.3e}{where}", residual=err
        )


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


def orthonormal_rows(V, steps) -> np.ndarray:
    """V C R_1^{-1} [R_2^{-1}], C-ordered: the Q that ``orthonormalize_columns``
    made of V with ``steps`` = (C, R_1[, R_2]), in the kernel's order of
    operations; a prefix of ``steps`` gives its intermediate factors."""
    C, *factors = steps
    Q = (V.tocsr() if sp.issparse(V) else V) @ C
    for R in factors:
        Q = _solve_right_upper(Q, R)
    return Q


def apply_coefficients(steps, w) -> np.ndarray:
    """T w for the T = C R_1^{-1} [R_2^{-1}] of ``steps`` and a vector or
    matrix w, in the kernel's order: R_2^{-1} first, then R_1^{-1}, then C
    (``coefficient_product`` says why the formed T would lose digits)."""
    C, *factors = steps
    for R in reversed(factors):
        w = sla.solve_triangular(R, w, check_finite=False)
    return C @ w


def coefficient_product(steps, Z) -> np.ndarray:
    """T^T Z for the T = C R_1^{-1} [R_2^{-1}] that ``orthonormalize_columns``
    returned with ``steps`` = (C, R_1[, R_2]), for a sparse or dense Z with
    a row per column of V: the rows of Z^T pass through the steps as the
    rows of V do (``orthonormal_rows``).  The formed T has entries of the
    order of the condition of V, and its product cancels digits that this
    order keeps: on a 3969 x 1601 test image of condition 3e8, the smallest
    singular value of Q^T Xi, exactly 1, came out 1 - 4e-12 this way and
    1 - 4e-11 to 1 - 2e-10 through T."""
    product = orthonormal_rows(Z.T if Z.ndim == 2 else Z[None, :], steps).T
    return product if Z.ndim == 2 else product[:, 0]


def _gram(X: np.ndarray) -> np.ndarray:
    """Upper triangle of X^T X for a C-ordered X, by one ``dsyrk``: one Gram
    pass of the kernel."""
    return blas.dsyrk(1.0, X.T)


def _deviation_sq(gram: np.ndarray) -> float:
    """eta^2 = ||G - I||_F^2 from the upper triangle of a Gram G, summed by
    columns: no cancellation, and no threaded dot that slows dpotrf."""
    upper = sum(col[:j] @ col[:j] for j, col in enumerate(gram.T))
    return 2.0 * upper + np.sum((gram.diagonal() - 1.0) ** 2)


def _cholesky_upper(gram: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor from the upper triangle, overwriting ``gram``."""
    try:
        return sla.cholesky(gram, lower=False, overwrite_a=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise SolverFailureError(f"Gram matrix not positive definite: {exc}") from exc


def orthonormalize_columns(V, droptol: float = DROPTOL):
    """Factors of the coefficients T of a Euclidean orthonormal basis
    Q = V T of the column span of a sparse or dense V.

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
    Nakatsukasa, Yanagisawa and Fukaya, ETNA 2015).  Q_0 = V C is formed
    once and held whole, so V should be short: the package passes the
    block-compressed images of ``test_space.compressed_image``.  Each later
    Gram is one ``dsyrk``; after a drop Q_0 is sliced to the kept columns,
    as V C[:, kept] = (V C)[:, kept], and the second pass solves it in
    place.  ``orthonormal_rows`` regenerates Q in the same order.

    Only the drop step pivots, so T is upper triangular in the kept
    columns: without drops Q is the Q factor of V with a positive R
    diagonal, and Q[:, :n] = V[:, :n] T[:n, :n] spans the first n columns
    of V whenever none of them was dropped; the leading n x n blocks of C,
    R_1 and R_2 are then the factors of T[:n, :n].  Returns (kept, steps):
    ``kept`` holds the ascending indices of the kept columns, and ``steps``
    = (C, R_1) or (C, R_1, R_2), so T = C R_1^{-1} [R_2^{-1}], with a row per
    column of V (zero for a zero column) and a column per kept one.  T is
    not formed: products with it go through ``apply_coefficients`` and
    ``coefficient_product``.
    """
    V = sp.csc_matrix(V, dtype=float) if sp.issparse(V) else np.asarray(V, dtype=float)
    num_rows, num_cols = V.shape
    G = (V.T @ V).toarray() if sp.issparse(V) else V.T @ V  # C-ordered: V^T is CSR
    sq_norms = G.diagonal().copy()
    nonzero = np.flatnonzero(sq_norms > 0.0)
    K = nonzero.size
    if K == 0:
        return nonzero, (np.zeros((num_cols, 0)),)
    if K < num_cols:
        G = G[np.ix_(nonzero, nonzero)]
    scale = 1.0 / np.sqrt(sq_norms[nonzero])
    G *= scale[:, None]
    G *= scale[None, :]

    u = np.finfo(float).eps / 2.0  # unit roundoff
    # ||G||_1 bounds ||V||_2^2 of the scaled V; the shift follows the 2020 paper
    shift = 11.0 * (num_rows * K + K * (K + 1)) * u * np.abs(G).sum(axis=0).max()
    G[np.diag_indices(K)] += shift
    C = lapack.dtrtri(_cholesky_upper(G), lower=0, overwrite_c=1)[0]
    del G
    C = np.multiply(C, scale[:, None], order="C")
    if K < num_cols:
        padded = np.zeros((num_cols, K))  # a zero row for each zero column
        padded[nonzero] = C
        C = padded

    Q_0 = orthonormal_rows(V, (C,))
    gram = _gram(Q_0)
    # R_1 and eta reuse the upper triangle of the Gram the pivoting sees, and
    # Q_0 is dropped before the pivoting unless eta asks for a second pass
    two_passes = _deviation_sq(gram) > ONE_PASS_MAX_DEVIATION**2
    Q_0 = Q_0 if two_passes else None
    # a column with relative residual r against the others keeps a residual
    # of about r^2 / (r^2 + shift) in the Gram of V C
    tol = max(droptol**2 / (droptol**2 + shift), K * u)
    _, piv, rank, _ = lapack.dpstrf(gram, tol=tol, lower=0)
    kept = np.arange(K)
    if rank < K:
        kept = np.sort(piv[:rank] - 1)
        gram, C = gram[np.ix_(kept, kept)], np.ascontiguousarray(C[:, kept])
        # a principal block of the Gram deviates from I no more than the whole
        two_passes = two_passes and _deviation_sq(gram) > ONE_PASS_MAX_DEVIATION**2
        Q_0 = Q_0[:, kept] if two_passes else None
    steps = (C, _cholesky_upper(gram))
    del C, gram
    if two_passes:
        steps += (_cholesky_upper(_gram(_solve_right_upper(Q_0, steps[1]))),)
    return nonzero[kept], steps


def smallest_singular_value(G: np.ndarray, M: np.ndarray) -> float:
    """sqrt(lambda_min(G^T G, M)) for SPD M = R^T R, as the smallest singular
    value of G R^{-1} (G^T G would square the condition of G); G is tall."""
    R = _cholesky_upper(np.array(M, dtype=float))
    return float(sla.svdvals(_solve_right_upper(np.array(G, dtype=float), R))[-1])
