import inspect
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mspg import numerics, test_space
from mspg.assembly import assemble, constant_field
from mspg.errors import LocalSolverError, SingularMetricError
from mspg.grid import build_coarse_topology, build_fine_mesh, hat_values
from mspg.numerics import (
    CheckedFactor,
    column_sparse,
    form_coefficients,
    generalized_sym_eig,
    harmonic_extension,
    local_dirichlet_solve,
    orthonormal_row_blocks,
    orthonormalize_columns,
    smallest_singular_value,
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


# both routines, with partial pivoting and in symmetric mode
ROUTINES = pytest.mark.parametrize(
    "held, spd",
    [(True, False), (False, False), (True, True), (False, True)],
    ids=["True", "False", "True-spd", "False-spd"],
)


def _factor_test_matrix(spd):
    K = sp.random(40, 40, density=0.1, random_state=4, format="csr") + sp.eye(40) * 4.0
    return (K @ K.T).tocsr() if spd else K


@ROUTINES
@pytest.mark.parametrize("trans", ["N", "T"])
def test_checked_factor_serves_the_matrix_and_its_transpose(trans, held, spd):
    rng = np.random.default_rng(4)
    K = _factor_test_matrix(spd)
    factor = CheckedFactor(K, label="block 7", held=held, spd=spd)
    if spd:  # symmetric mode pivots on the diagonal: rows follow the columns
        assert np.array_equal(factor._lu.perm_r, factor._lu.perm_c)
    dense = K if trans == "N" else K.T
    for rhs in (rng.standard_normal(40), rng.standard_normal((40, 3))):
        expected = spla.spsolve(dense.tocsc(), rhs)
        assert np.allclose(factor.solve(rhs, trans=trans), expected, atol=1e-12)
    with pytest.raises(LocalSolverError, match=r"\(block 7\)") as err:
        factor.solve(rng.standard_normal(40), trans=trans, tol=1e-30)
    assert err.value.residual > 1e-30


@ROUTINES
def test_checked_factor_of_a_singular_matrix_names_its_label(held, spd):
    # symmetric and positive semidefinite: the symmetric mode's pivot is 0
    K = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(LocalSolverError, match=r"\(block 3\): .*singular"):
        CheckedFactor(K, label="block 3", held=held, spd=spd)


def _laplace_block():
    mesh = build_fine_mesh(16)
    block = build_coarse_topology(mesh, 2).blocks[3]
    op = assemble(mesh, constant_field(kappa=1.0))
    return mesh, block, op.A_nodes


def test_harmonic_extension_reproduces_linear_trace():
    # the Q1 Laplacian stencil annihilates linear functions
    mesh, block, K = _laplace_block()
    bx, _ = mesh.node_coords(block.boundary_nodes)
    ix, _ = mesh.node_coords(block.interior_nodes)
    x = harmonic_extension(K, block.interior_nodes, block.boundary_nodes, bx)
    assert np.allclose(x, ix, atol=1e-13)


def test_harmonic_extension_default_traces_are_deltas():
    mesh, block, K = _laplace_block()
    I, B = block.interior_nodes, block.boundary_nodes
    deltas = harmonic_extension(K, I, B)
    assert deltas.shape == (I.size, B.size)
    assert np.array_equal(deltas, harmonic_extension(K, I, B, np.eye(B.size)))


def test_harmonic_extension_csc_equals_csr():
    # the adjoint extension slices a CSC transpose by columns first
    op = assemble(build_fine_mesh(16), constant_field(kappa=0.1, b=(1.0, -0.5)))
    block = build_coarse_topology(op.mesh, 2).blocks[0]
    At = op.A.T
    assert At.format == "csc"
    args = (block.interior, block.boundary)
    assert np.array_equal(harmonic_extension(At, *args), harmonic_extension(At.tocsr(), *args))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_harmonic_extension_singular_interior_block():
    K = sp.csr_matrix(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(LocalSolverError, match="coarse block"):
        harmonic_extension(K, np.array([0, 1]), np.array([2]), label="coarse block")


def test_vertex_traces_are_adjoint_harmonic_hats(ws_small):
    # on the convective operator every W2 column solves the adjoint equation
    # inside each block and carries the coarse hat on the block boundaries
    topo, A = ws_small.topology, ws_small.op.A
    w2 = ws_small.w2()
    for j, node in enumerate(w2.node_ids):
        col = w2.columns[:, j].toarray().ravel()
        residual = A.T @ col
        for block in topo.blocks:
            assert np.abs(residual[block.interior]).max() <= 1e-12 * np.abs(col).max()
            tx, ty = topo.mesh.dof_coords(block.boundary)
            hat = hat_values(topo, int(node), tx, ty)
            assert np.allclose(col[block.boundary], hat, rtol=0.0, atol=1e-15)


def test_local_solves_go_through_the_checked_kernel():
    # a hand-rolled factorization would skip the residual check, the
    # refinement step and the typed error of CheckedFactor, whose two SuperLU
    # routines (LU for a one-shot factor, exact incomplete LU for a held one)
    # are the package's only factorization calls
    src = Path(__file__).resolve().parents[1] / "src" / "mspg"
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    for call in ("splu(", "spilu("):
        assert sum(text.count(call) for text in texts.values()) == 1, call
        assert call in inspect.getsource(CheckedFactor), call
    assert not any("cho_factor" in text for text in texts.values())
    # dense factorizations live in the orthonormalization kernel only
    for name, text in texts.items():
        if name != "numerics.py":
            for factor in ("cholesky", "cho_solve", "solve_triangular"):
                assert factor not in text, (name, factor)


def test_orthonormalize_drops_duplicates(kernel_q):
    v = np.random.default_rng(0).standard_normal(10)
    out = kernel_q(np.stack([v, v], axis=1))
    assert out.shape == (10, 1)


def test_orthonormalize_keeps_orthonormal_input(kernel_q):
    rng = np.random.default_rng(1)
    Q = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    out = kernel_q(Q)
    assert np.allclose(out, Q, atol=1e-12)


def test_orthonormalize_rank_detection(kernel_q):
    rng = np.random.default_rng(2)
    base = rng.standard_normal((20, 3))
    V = base @ rng.standard_normal((3, 5))
    out = kernel_q(V)
    assert out.shape[1] == np.linalg.matrix_rank(V)  # SVD oracle: 3
    assert np.allclose(out.T @ out, np.eye(3), atol=1e-10)
    # span preserved: projecting the input onto the output loses nothing
    resid = V - out @ (out.T @ V)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(V)


def test_orthonormalize_orthogonality_tolerance(kernel_q):
    rng = np.random.default_rng(5)
    V = rng.standard_normal((60, 25))
    out = kernel_q(V)
    assert abs(out.T @ out - np.eye(out.shape[1])).max() < 1e-10


def test_orthonormalize_sparse_matches_dense(kernel_q):
    rng = np.random.default_rng(6)
    S = sp.random(200, 30, density=0.08, format="csc", random_state=rng)
    S = sp.hstack([S, S[:, [3]] - 2.0 * S[:, [7]]], format="csc")  # one dependent
    from_sparse = kernel_q(S)
    from_dense = kernel_q(S.toarray())
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


def test_orthonormalize_keeps_small_residual_column(kernel_q):
    V, outside = _with_residual_column(1e-7, seed=7)
    out = kernel_q(V, droptol=1e-10)
    assert out.shape[1] == 9
    # the kept column carries the residual direction, not rounding noise
    assert np.linalg.norm(out.T @ outside) > 1.0 - 1e-6
    # a coarser droptol drops the same column
    assert orthonormalize_columns(V, droptol=1e-6)[0].size == 8


def test_orthonormalize_drops_rounding_level_residual_column(kernel_q):
    V, _ = _with_residual_column(1e-13, seed=8)
    out = kernel_q(V, droptol=1e-10)
    assert out.shape[1] == 8
    resid = V - out @ (out.T @ V)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(V)


def test_orthonormalize_drops_zero_columns(kernel_q):
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 12))
    out = kernel_q(np.column_stack([a, np.zeros(12), b]))
    assert out.shape == (12, 2)
    zero = sp.csc_matrix((12, 3))
    kept, steps = orthonormalize_columns(zero)
    T = form_coefficients(steps)
    assert kernel_q(zero).shape == (12, 0) and T.shape == (3, 0) and kept.size == 0


def test_orthonormalize_ill_conditioned_input_stays_orthonormal(kernel_q):
    rng = np.random.default_rng(10)
    U = np.linalg.qr(rng.standard_normal((300, 40)))[0]
    W = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    V = U @ np.diag(np.logspace(0.0, -8.0, 40)) @ W.T
    scaled = V / np.linalg.norm(V, axis=0)
    assert np.linalg.cond(scaled) >= 1e7
    out = kernel_q(V)
    assert out.shape == (300, 40)
    assert np.abs(out.T @ out - np.eye(40)).max() <= 1e-12
    assert np.linalg.norm(U - out @ (out.T @ U)) <= 1e-6
    assert len(orthonormalize_columns(V)[1]) == 3  # C, R_1, R_2


def test_orthonormalize_returns_the_coefficients_of_its_columns(kernel_q):
    rng = np.random.default_rng(11)
    S = sp.random(120, 20, density=0.1, format="csc", random_state=rng)
    zero, dependent = sp.csc_matrix((120, 1)), S[:, [2]] - 3.0 * S[:, [9]]
    V = sp.hstack([S[:, :5], zero, S[:, 5:], dependent], format="csc")
    kept, steps = orthonormalize_columns(V)
    T = form_coefficients(steps)
    Q = kernel_q(V)
    assert Q.shape == (120, 20) and T.shape == (22, 20)
    assert not T[5].any()  # the zero column contributes nothing
    # one kept index per column of Q; the zero column and one of the three
    # dependent ones are not kept
    assert kept.size == 20 and np.all(np.diff(kept) > 0) and 5 not in kept
    assert np.abs(V @ T - Q).max() <= 1e-13
    assert np.abs(Q.T @ Q - np.eye(20)).max() <= 1e-12


def _well_conditioned_or_test_matrix(request, name):
    """Orthonormal columns plus 1e-3 noise, or the kernel input that
    ``test_space.test_basis`` forms from a workspace's test matrix, each
    with the map of a product with it to fine-dof rows."""
    if name == "noisy":
        rng = np.random.default_rng(12)
        Q = np.linalg.qr(rng.standard_normal((400, 30)))[0]
        return Q + 1e-3 * rng.standard_normal(Q.shape), lambda Z: Z
    ws = request.getfixturevalue(name)
    V = ws.test_matrix(ws.config.m, ws.config.L, ws.config.eigenproblem)
    interiors, harmonic_from = ws.image_structure(ws.config.m)
    AtV = test_space.adjoint_image(ws.op, V, interiors, harmonic_from)
    image = test_space.compressed_image(AtV, interiors)
    return image.rows, image.lift


@pytest.mark.parametrize(
    "name, passes, bound", [("noisy", 1, 1e-13), ("tiny", 1, 1e-13), ("ws_contrast", 2, 1e-10)]
)
def test_orthonormalize_runs_the_second_pass_only_when_needed(request, name, passes, bound):
    X, lift = _well_conditioned_or_test_matrix(request, name)
    _, steps = orthonormalize_columns(X)
    assert len(steps) == 1 + passes
    Q = lift(np.vstack([block for _, block in orthonormal_row_blocks(X, steps)]))
    assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= bound


@pytest.mark.parametrize("name", ["noisy", "tiny"])
def test_a_forced_second_pass_moves_t_by_rounding_only(request, name, monkeypatch):
    X, _ = _well_conditioned_or_test_matrix(request, name)
    kept, steps = orthonormalize_columns(X)
    monkeypatch.setattr(numerics, "ONE_PASS_MAX_DEVIATION", 0.0)
    kept3, steps3 = orthonormalize_columns(X)
    assert (len(steps), len(steps3)) == (2, 3)
    assert np.array_equal(kept, kept3)
    T, T3 = form_coefficients(steps), form_coefficients(steps3)
    assert np.linalg.norm(T3 - T) <= 1e-13 * np.linalg.norm(T)


@pytest.mark.parametrize("name, grams", [("tiny", 1), ("ws_contrast", 2)])
def test_a_well_conditioned_test_basis_skips_a_gram_pass(request, name, grams, monkeypatch):
    # V^T V is a sparse product; every later Gram pass, of a held V C or of
    # streamed row blocks, goes through _gram_pass
    calls, gram_pass = [], numerics._gram_pass
    monkeypatch.setattr(numerics, "_gram_pass", lambda *a: calls.append(1) or gram_pass(*a))
    ws = request.getfixturevalue(name)
    V = ws.test_matrix(ws.config.m, ws.config.L, ws.config.eigenproblem)
    test_space.test_basis(ws.op, V, *ws.image_structure(ws.config.m))
    assert len(calls) == grams


def test_orthonormalize_takes_a_dense_block_as_it_is(monkeypatch):
    rng = np.random.default_rng(13)
    Y = rng.standard_normal((500, 12))
    kept_sparse, steps_sparse = orthonormalize_columns(sp.csc_matrix(Y))
    T_sparse = form_coefficients(steps_sparse)
    # a dense input is sliced by rows, never stored as a sparse matrix
    for name in ("csc_matrix", "csr_matrix"):
        monkeypatch.setattr(numerics.sp, name, None)
    kept, steps = orthonormalize_columns(Y)
    T = form_coefficients(steps)
    Q = np.vstack([block for _, block in orthonormal_row_blocks(Y, steps)])
    assert np.array_equal(kept, kept_sparse)
    assert np.linalg.norm(T - T_sparse) <= 1e-13 * np.linalg.norm(T_sparse)
    assert np.abs(Q - Y @ T).max() <= 1e-13
    assert np.abs(Q.T @ Q - np.eye(12)).max() <= 1e-13


def test_smallest_singular_value_does_not_square_the_condition():
    rng = np.random.default_rng(14)
    U = np.linalg.qr(rng.standard_normal((60, 6)))[0]
    W = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    sigma = np.logspace(0.0, -9.0, 6)
    R = np.triu(rng.standard_normal((6, 6)), 1) + np.diag(rng.uniform(1.0, 2.0, 6))
    G = U @ np.diag(sigma) @ W.T @ R  # G R^{-1} has singular values sigma
    assert np.linalg.cond(G) >= 1e9
    assert abs(smallest_singular_value(G, R.T @ R) - 1e-9) <= 1e-4 * 1e-9


def test_column_sparse_places_blocks_in_order():
    X = np.arange(6.0).reshape(3, 2)
    M = column_sparse(5, [(np.array([4, 0, 2]), X), (np.array([1]), [[7.0]])])
    expected = np.zeros((5, 3))
    expected[[4, 0, 2], :2] = X
    expected[1, 2] = 7.0
    assert M.format == "csc"
    assert np.array_equal(M.toarray(), expected)
    assert column_sparse(5, []).shape == (5, 0)


# the minimum-B-energy extension of traces on the constrained dofs of an
# SPD B is the B-harmonic extension into the free dofs


def spd(n, seed):
    R = np.random.default_rng(seed).standard_normal((n, n))
    return sp.csr_matrix(R @ R.T)


def min_energy(B, constrained, traces):
    """Full vector(s): the traces on ``constrained``, the harmonic extension
    on the other dofs."""
    constrained = np.asarray(constrained)
    free = np.setdiff1d(np.arange(B.shape[0]), constrained)
    traces = np.asarray(traces, dtype=float).reshape(constrained.size, -1)
    out = np.zeros((B.shape[0], traces.shape[1]))
    out[constrained] = traces
    out[free] = harmonic_extension(B, free, constrained, traces)
    return out


def test_min_energy_zero_trace():
    out = min_energy(spd(6, 5), [0, 1], np.zeros(2))
    assert np.array_equal(out, np.zeros((6, 1)))


def test_min_energy_identity_matrix():
    out = min_energy(sp.eye(5, format="csr"), [1, 3], [2.0, -1.0])
    expected = np.zeros((5, 1))
    expected[[1, 3], 0] = [2.0, -1.0]
    assert np.allclose(out, expected)


def test_min_energy_optimality_monte_carlo():
    rng = np.random.default_rng(11)
    n = 12
    B = spd(n, 11)
    constrained = np.array([0, 4, 9])
    v = min_energy(B, constrained, rng.standard_normal(3))[:, 0]
    energy = v @ (B @ v)
    free = np.setdiff1d(np.arange(n), constrained)
    for _ in range(200):
        cand = v.copy()
        cand[free] += rng.standard_normal(free.size)
        assert cand @ (B @ cand) >= energy - 1e-10


def test_min_energy_linearity():
    rng = np.random.default_rng(13)
    B = spd(10, 13)
    constrained = np.array([2, 5])
    t1 = rng.standard_normal(2)
    t2 = rng.standard_normal(2)
    v1 = min_energy(B, constrained, t1)
    v2 = min_energy(B, constrained, t2)
    v12 = min_energy(B, constrained, 2.0 * t1 - 3.0 * t2)
    assert np.allclose(v12, 2.0 * v1 - 3.0 * v2, atol=1e-10)


def test_min_energy_multi_trace_columns():
    B = spd(8, 17)
    free = np.arange(2, 8)
    out = harmonic_extension(B, free, [0, 1])  # one column per boundary delta
    assert out.shape == (6, 2)
    assert np.allclose(out, min_energy(B, [0, 1], np.eye(2))[free], rtol=0.0, atol=1e-12)


def test_local_solve_refines_once_when_the_residual_misses():
    # a badly scaled sparse system whose first LU residual one refinement
    # step with the same factors cuts by more than half
    rng = np.random.default_rng(0)
    A = sp.random(200, 200, density=0.05, random_state=0, format="csc")
    A = (A + sp.diags(10.0 ** rng.uniform(-6, 6, 200))).tocsc()
    b = rng.standard_normal(200)
    x0 = spla.splu(A).solve(b)
    first = np.linalg.norm(A @ x0 - b) / np.linalg.norm(b)
    x = local_dirichlet_solve(A, b, tol=0.5 * first)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 0.5 * first
    # a solve that meets the bound at once is not refined
    assert np.array_equal(local_dirichlet_solve(A, b, tol=first), x0)
    with pytest.raises(LocalSolverError) as err:
        local_dirichlet_solve(A, b, tol=1e-30)
    assert err.value.residual > 1e-30


def _badly_scaled(spd):
    """A sparse system whose first LU residual, with either routine and
    either pivoting, one refinement step cuts by more than half."""
    rng = np.random.default_rng(0)
    A = sp.random(200, 200, density=0.05, random_state=0, format="csc")
    A = (A + sp.diags(10.0 ** rng.uniform(-6, 6, 200))).tocsc()
    if spd:
        B = sp.random(200, 200, density=0.05, random_state=1, format="csc")
        D = sp.diags(10.0 ** np.random.default_rng(1).uniform(-5, 5, 200))
        A = (D @ (B @ B.T + sp.eye(200)) @ D).tocsc()
    return A, rng.standard_normal(200)


@ROUTINES
def test_checked_factor_refines_once_when_the_residual_misses(held, spd):
    A, b = _badly_scaled(spd)
    factor = CheckedFactor(A, held=held, spd=spd)
    x0 = factor.solve(b, tol=np.inf)  # no bound: the first solve as it is
    first = np.linalg.norm(A @ x0 - b) / np.linalg.norm(b)
    x = factor.solve(b, tol=0.5 * first)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 0.5 * first
    # a solve that meets the bound at once is not refined
    assert np.array_equal(factor.solve(b, tol=first), x0)
    with pytest.raises(LocalSolverError) as err:
        factor.solve(b, tol=1e-30)
    assert err.value.residual > 1e-30
