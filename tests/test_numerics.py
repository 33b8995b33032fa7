import numpy as np
import pytest
import scipy.sparse as sp

from mspg.errors import LocalSolverError, SingularMetricError
from mspg.numerics import (
    column_sparse,
    generalized_sym_eig,
    local_dirichlet_solve,
    min_energy_extension,
    orthonormalize_columns,
)


def charpoly_roots(A):
    """Faddeev-LeVerrier characteristic polynomial, then numpy root finding.

    Independent of the LAPACK eigensolver path.
    """
    n = A.shape[0]
    coeffs = [1.0]
    Mk = np.eye(n)
    for k in range(1, n + 1):
        AM = A @ Mk
        ck = -np.trace(AM) / k
        coeffs.append(ck)
        Mk = AM + ck * np.eye(n)
    return np.sort(np.roots(coeffs).real)


def random_spd(rng, n, scale=1.0):
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ np.diag(rng.uniform(0.5, 2.0, n) * scale) @ Q.T


def test_eig_identity_pair():
    pairs = generalized_sym_eig(np.eye(4), np.eye(4))
    assert np.allclose(pairs.values, 1.0)


def test_eig_diagonal_case():
    pairs = generalized_sym_eig(np.diag([3.0, 1.0, 2.0]), np.eye(3))
    assert np.allclose(pairs.values, [1.0, 2.0, 3.0])


def test_eig_random_pair_against_charpoly_oracle():
    rng = np.random.default_rng(42)
    S = random_spd(rng, 8)
    T = random_spd(rng, 8)
    pairs = generalized_sym_eig(S, T)
    # residual per pair
    for k in range(8):
        r = S @ pairs.vectors[:, k] - pairs.values[k] * (T @ pairs.vectors[:, k])
        assert np.linalg.norm(r) <= 1e-9
    # T-orthonormal columns
    assert np.allclose(pairs.vectors.T @ T @ pairs.vectors, np.eye(8), atol=1e-10)
    # independent oracle: roots of det(T^-1 S - lambda I)
    oracle = charpoly_roots(np.linalg.solve(T, S))
    assert np.allclose(np.sort(pairs.values), oracle, rtol=1e-6, atol=1e-8)


def test_eig_rayleigh_quotient_consistency():
    rng = np.random.default_rng(3)
    S = random_spd(rng, 6)
    T = random_spd(rng, 6)
    pairs = generalized_sym_eig(S, T)
    for k in range(6):
        v = pairs.vectors[:, k]
        rq = (v @ S @ v) / (v @ T @ v)
        assert rq == pytest.approx(pairs.values[k], abs=1e-9)


def test_eig_metric_not_spd():
    with pytest.raises(SingularMetricError):
        generalized_sym_eig(np.eye(3), np.diag([1.0, -1.0, 1.0]))


def test_local_solve_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    assert np.allclose(local_dirichlet_solve(np.eye(3), rhs), rhs)


def test_local_solve_tridiagonal_closed_form():
    # inverse of tridiag(-1, 2, -1), first column: (k+1-i)/(k+1)
    k = 4
    T = np.diag(2.0 * np.ones(k)) + np.diag(-np.ones(k - 1), 1) + np.diag(-np.ones(k - 1), -1)
    x = local_dirichlet_solve(T, np.eye(k)[:, 0])
    assert np.allclose(x, [4 / 5, 3 / 5, 2 / 5, 1 / 5], atol=1e-12)


def test_local_solve_zero_rhs():
    A = sp.eye(5, format="csr") * 3.0
    assert np.array_equal(local_dirichlet_solve(A, np.zeros(5)), np.zeros(5))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_local_solve_singular():
    with pytest.raises(LocalSolverError):
        local_dirichlet_solve(np.zeros((3, 3)), np.ones(3))


def test_orthonormalize_drops_duplicates():
    v = np.random.default_rng(0).standard_normal(10)
    out = orthonormalize_columns(np.stack([v, v], axis=1))
    assert out.shape == (10, 1)


def test_orthonormalize_keeps_orthonormal_input():
    rng = np.random.default_rng(1)
    Q = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    out = orthonormalize_columns(Q)
    assert np.allclose(out, Q, atol=1e-12)


def test_orthonormalize_rank_detection():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((20, 3))
    V = base @ rng.standard_normal((3, 5))
    out = orthonormalize_columns(V)
    assert out.shape[1] == np.linalg.matrix_rank(V)  # SVD oracle: 3
    assert np.allclose(out.T @ out, np.eye(3), atol=1e-10)
    # span preserved: projecting the input onto the output loses nothing
    resid = V - out @ (out.T @ V)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(V)


def test_orthonormalize_orthogonality_tolerance():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((60, 25))
    out = orthonormalize_columns(V)
    assert abs(out.T @ out - np.eye(out.shape[1])).max() < 1e-10


def test_orthonormalize_sparse_matches_dense():
    rng = np.random.default_rng(6)
    S = sp.random(200, 30, density=0.08, format="csc", random_state=rng)
    S = sp.hstack([S, S[:, [3]] - 2.0 * S[:, [7]]], format="csc")  # one dependent
    from_sparse = orthonormalize_columns(S)
    from_dense = orthonormalize_columns(S.toarray())
    assert from_sparse.shape == from_dense.shape == (200, np.linalg.matrix_rank(S.toarray()))
    # same span: equal orthogonal projectors
    assert np.allclose(from_sparse @ from_sparse.T, from_dense @ from_dense.T, atol=1e-12)


def _with_residual_column(rel_residual, seed):
    """Random 150x8 block plus a unit column whose residual against it is known."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((150, 8))
    Q = np.linalg.qr(B)[0]
    inside = B @ rng.standard_normal(8)
    inside /= np.linalg.norm(inside)
    outside = rng.standard_normal(150)
    outside -= Q @ (Q.T @ outside)
    outside /= np.linalg.norm(outside)
    col = inside + rel_residual * outside
    return np.column_stack([B, col / np.linalg.norm(col)]), outside


def test_orthonormalize_keeps_small_residual_column():
    V, outside = _with_residual_column(1e-7, seed=7)
    out = orthonormalize_columns(V, droptol=1e-10)
    assert out.shape[1] == 9
    # the kept column carries the residual direction, not rounding noise
    assert np.linalg.norm(out.T @ outside) > 1.0 - 1e-6
    # a coarser droptol drops the same column
    assert orthonormalize_columns(V, droptol=1e-6).shape[1] == 8


def test_orthonormalize_drops_rounding_level_residual_column():
    V, _ = _with_residual_column(1e-13, seed=8)
    out = orthonormalize_columns(V, droptol=1e-10)
    assert out.shape[1] == 8
    resid = V - out @ (out.T @ V)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(V)


def test_orthonormalize_drops_zero_columns():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 12))
    out = orthonormalize_columns(np.column_stack([a, np.zeros(12), b]))
    assert out.shape == (12, 2)
    assert orthonormalize_columns(sp.csc_matrix((12, 3))).shape == (12, 0)


def test_orthonormalize_ill_conditioned_input_stays_orthonormal():
    rng = np.random.default_rng(10)
    U = np.linalg.qr(rng.standard_normal((300, 40)))[0]
    W = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    V = U @ np.diag(np.logspace(0.0, -8.0, 40)) @ W.T
    scaled = V / np.linalg.norm(V, axis=0)
    assert np.linalg.cond(scaled) >= 1e7
    out = orthonormalize_columns(V)
    assert out.shape == (300, 40)
    assert np.abs(out.T @ out - np.eye(40)).max() <= 1e-12
    assert np.linalg.norm(U - out @ (out.T @ U)) <= 1e-6


def test_column_sparse_places_blocks_in_order():
    X = np.arange(6.0).reshape(3, 2)
    M = column_sparse(5, [(np.array([4, 0, 2]), X), (np.array([1]), [[7.0]])])
    expected = np.zeros((5, 3))
    expected[[4, 0, 2], :2] = X
    expected[1, 2] = 7.0
    assert M.format == "csc"
    assert np.array_equal(M.toarray(), expected)
    assert column_sparse(5, []).shape == (5, 0)


def test_min_energy_zero_trace():
    B = sp.eye(6, format="csr")
    out = min_energy_extension(B, [0, 1], np.zeros(2))
    assert np.array_equal(out, np.zeros(6))


def test_min_energy_identity_matrix():
    out = min_energy_extension(np.eye(5), [1, 3], np.array([2.0, -1.0]))
    expected = np.zeros(5)
    expected[[1, 3]] = [2.0, -1.0]
    assert np.allclose(out, expected)


def test_min_energy_optimality_monte_carlo():
    rng = np.random.default_rng(11)
    n = 12
    R = rng.standard_normal((n, n))
    B = R @ R.T
    constrained = np.array([0, 4, 9])
    trace = rng.standard_normal(3)
    v = min_energy_extension(B, constrained, trace)
    energy = v @ B @ v
    free = np.setdiff1d(np.arange(n), constrained)
    for _ in range(200):
        cand = v.copy()
        cand[free] += rng.standard_normal(free.size)
        assert cand @ B @ cand >= energy - 1e-10


def test_min_energy_linearity():
    rng = np.random.default_rng(13)
    R = rng.standard_normal((10, 10))
    B = R @ R.T
    constrained = np.array([2, 5])
    t1 = rng.standard_normal(2)
    t2 = rng.standard_normal(2)
    v1 = min_energy_extension(B, constrained, t1)
    v2 = min_energy_extension(B, constrained, t2)
    v12 = min_energy_extension(B, constrained, 2.0 * t1 - 3.0 * t2)
    assert np.allclose(v12, 2.0 * v1 - 3.0 * v2, atol=1e-10)


def test_min_energy_multi_trace_columns():
    rng = np.random.default_rng(17)
    R = rng.standard_normal((8, 8))
    B = R @ R.T
    T = np.eye(2)
    out = min_energy_extension(B, [0, 1], T)
    assert out.shape == (8, 2)
    assert np.allclose(out[[0, 1], :], T)
