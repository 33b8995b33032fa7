"""Q1 assembly of the convection-diffusion operator on the fine mesh.

The bilinear form is a(u, v) = int kappa grad(u).grad(v) + (b.grad(u)) v,
discretized with bilinear quadrilaterals and a 2x2 Gauss rule per cell,
exact for the pure-diffusion Q1 entries with constant kappa.  Matrices are
assembled over all lattice nodes first; the Dirichlet rows/columns are then
removed (not penalized) so that the transpose of the stiffness matrix is
exactly the discrete adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import InvalidCoefficientError
from .grid import FineMesh
from .numerics import local_dirichlet_solve

# reference square [-1,1]^2, counterclockwise corners
_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])
_G = 1.0 / np.sqrt(3.0)
_QP = [(-_G, -_G), (_G, -_G), (_G, _G), (-_G, _G)]


def _shape(xi: float, eta: float):
    """Q1 shape values and reference gradients at one quadrature point."""
    N = 0.25 * (1.0 + _XI * xi) * (1.0 + _ETA * eta)
    dN = np.stack(
        [0.25 * _XI * (1.0 + _ETA * eta), 0.25 * _ETA * (1.0 + _XI * xi)], axis=1
    )
    return N, dN  # (4,), (4,2)


@dataclass(frozen=True)
class CoefficientField:
    """Scalar diffusion, velocity and source as vectorized callables.

    ``kappa(x, y)`` and ``f(x, y)`` broadcast over arrays; ``b(x, y)``
    returns an array of shape (2,) + x.shape.
    """

    kappa: Callable
    b: Callable
    f: Callable


def constant_field(kappa=1.0, b=(0.0, 0.0), f=1.0) -> CoefficientField:
    bx, by = float(b[0]), float(b[1])
    return CoefficientField(
        kappa=lambda x, y: np.full_like(np.asarray(x, dtype=float), float(kappa)),
        b=lambda x, y: np.stack(
            [np.full_like(np.asarray(x, dtype=float), bx),
             np.full_like(np.asarray(x, dtype=float), by)]
        ),
        f=lambda x, y: np.full_like(np.asarray(x, dtype=float), float(f)),
    )


@dataclass(frozen=True)
class SparseOperator:
    """Assembled fine-scale operator.

    ``A``, ``M``, ``f`` live on the interior dofs.  ``A_nodes`` and
    ``M_nodes`` keep the unrestricted versions over all lattice nodes; they
    are needed wherever boundary values enter (partition of unity with
    nonzero boundary traces, Dirichlet lifting, mass bookkeeping).  The
    coefficient field is kept so patch-local re-assembly stays possible.
    """

    mesh: FineMesh
    A: sp.csr_matrix
    M: sp.csr_matrix
    f: np.ndarray
    A_nodes: sp.csr_matrix
    M_nodes: sp.csr_matrix
    field: CoefficientField


def assemble_nodes(mesh: FineMesh, field: CoefficientField, cell_box=None):
    """Assemble (A, M, f) over all lattice nodes, no boundary conditions.

    ``cell_box`` = (i0, i1, j0, j1) integrates only the fine cells with
    i0 <= i < i1 and j0 <= j < j1 (matrices keep the global node shape);
    used for patch-local operators free of outside-element couplings.
    """
    n = mesh.n
    h = mesh.h
    if cell_box is None:
        ci, cj = np.arange(n), np.arange(n)
    else:
        i0, i1, j0, j1 = cell_box
        ci, cj = np.arange(i0, i1), np.arange(j0, j1)
    cells_x, cells_y = np.meshgrid(ci, cj, indexing="xy")
    cx = cells_x.ravel()
    cy = cells_y.ravel()
    n00 = cy * (n + 1) + cx
    conn = np.stack([n00, n00 + 1, n00 + n + 2, n00 + n + 1], axis=1)  # (ne,4)

    ne = cx.size
    Ke = np.zeros((ne, 4, 4))
    Me = np.zeros((ne, 4, 4))
    fe = np.zeros((ne, 4))
    detJ = h * h / 4.0

    for xi, eta in _QP:
        N, dN = _shape(xi, eta)
        G = dN * (2.0 / h)  # physical gradients, same for every cell
        xq = (cx + 0.5 * (xi + 1.0)) * h
        yq = (cy + 0.5 * (eta + 1.0)) * h
        kq = np.asarray(field.kappa(xq, yq), dtype=float)
        if np.any(kq <= 0.0):
            bad = int(np.argmax(kq <= 0.0))
            raise InvalidCoefficientError(
                f"kappa <= 0 at quadrature point ({xq.flat[bad]:.6f}, {yq.flat[bad]:.6f})"
            )
        bq = np.asarray(field.b(xq, yq), dtype=float)  # (2, ne)
        fq = np.asarray(field.f(xq, yq), dtype=float)

        GG = G @ G.T  # (4,4)
        Ke += detJ * kq[:, None, None] * GG[None, :, :]
        bdotG = G @ bq  # (4, ne): b . grad(N_col)
        Ke += detJ * N[None, :, None] * bdotG.T[:, None, :]
        Me += detJ * np.outer(N, N)[None, :, :]
        fe += detJ * fq[:, None] * N[None, :]

    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    nn = mesh.num_nodes
    A = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    M = sp.coo_matrix((Me.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    f = np.zeros(nn)
    np.add.at(f, conn.ravel(), fe.ravel())
    return A, M, f


def assemble(mesh: FineMesh, field: CoefficientField) -> SparseOperator:
    """Assemble the operator and eliminate the Dirichlet boundary."""
    A_nodes, M_nodes, f_nodes = assemble_nodes(mesh, field)
    dofs = mesh.node_of_dof
    A = A_nodes[dofs][:, dofs].tocsr()
    M = M_nodes[dofs][:, dofs].tocsr()
    return SparseOperator(
        mesh=mesh,
        A=A,
        M=M,
        f=f_nodes[dofs],
        A_nodes=A_nodes,
        M_nodes=M_nodes,
        field=field,
    )


def solve_fine_reference(op: SparseOperator, tol: float = 1e-10) -> np.ndarray:
    """Direct solve of A u = f through the checked kernel; a missed residual
    raises ``LocalSolverError``, a ``SolverFailureError`` with ``residual``."""
    return local_dirichlet_solve(op.A, op.f, tol=tol, label="fine reference")
