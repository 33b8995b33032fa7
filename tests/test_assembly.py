import numpy as np
import pytest

from mspg.assembly import (
    CoefficientField,
    assemble,
    constant_field,
    solve_fine_reference,
)
from mspg.errors import InvalidCoefficientError, SolverFailureError
from mspg.fields import example_1
from mspg.grid import build_fine_mesh


def test_q1_laplacian_stencil():
    # hand-assembled Q1 element stiffness for the Laplacian on squares:
    # diagonal 4*(2/3), edge neighbors 2*(-1/6), diagonal neighbors -1/3
    mesh = build_fine_mesh(4)
    op = assemble(mesh, constant_field(kappa=1.0))
    center = mesh.dof_of_node[2 * 5 + 2]
    row = op.A[center].toarray().ravel()
    assert row[center] == pytest.approx(8.0 / 3.0, abs=1e-14)
    neighbors = [d for d in range(9) if d != center]
    assert np.allclose(row[neighbors], -1.0 / 3.0, atol=1e-14)


def test_pure_diffusion_symmetric():
    op = assemble(build_fine_mesh(8), constant_field(kappa=2.5))
    assert abs(op.A - op.A.T).max() < 1e-12


def test_constant_convection_row_sums_vanish():
    # sum_j (b.grad phi_j, phi_i) = (b.grad 1, phi_i) = 0 once every stencil
    # neighbor of dof i is itself a dof
    mesh = build_fine_mesh(8)
    conv = (
        assemble(mesh, constant_field(kappa=1.0, b=(1.0, 0.0))).A
        - assemble(mesh, constant_field(kappa=1.0)).A
    )
    sums = np.asarray(conv.sum(axis=1)).ravel()
    deep = [
        mesh.dof_of_node[j * 9 + i] for i in range(2, 7) for j in range(2, 7)
    ]
    assert np.abs(sums[deep]).max() < 1e-13


def test_adjoint_consistency():
    # for constant (divergence-free) velocity the convection part is exactly
    # skew-symmetric, so A + A^T is twice the diffusion matrix
    mesh = build_fine_mesh(12)
    diff = assemble(mesh, constant_field(kappa=1.0)).A
    full = assemble(mesh, constant_field(kappa=1.0, b=(0.7, -0.4))).A
    assert abs(full + full.T - 2.0 * diff).max() < 1e-10


def test_mass_total_is_domain_area():
    op = assemble(build_fine_mesh(10), constant_field())
    assert op.M_nodes.sum() == pytest.approx(1.0, abs=1e-12)


def test_mass_spd():
    op = assemble(build_fine_mesh(8), constant_field())
    M = op.M.toarray()
    assert np.allclose(M, M.T)
    assert np.linalg.eigvalsh(M).min() > 0.0


def test_manufactured_solution_second_order():
    errs = []
    for n in (32, 64):
        mesh = build_fine_mesh(n)
        fld = CoefficientField(
            kappa=lambda x, y: np.ones(np.shape(x)),
            b=lambda x, y: np.zeros((2,) + np.shape(x)),
            f=lambda x, y: 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y),
        )
        op = assemble(mesh, fld)
        u = solve_fine_reference(op)
        x, y = mesh.dof_coords(np.arange(mesh.num_dofs))
        e = u - np.sin(np.pi * x) * np.sin(np.pi * y)
        errs.append(float(np.sqrt(e @ (op.M @ e))))
    rate = np.log2(errs[0] / errs[1])
    assert 1.9 < rate < 2.1


def test_zero_load_zero_solution():
    op = assemble(build_fine_mesh(8), constant_field(f=0.0))
    assert np.array_equal(solve_fine_reference(op), np.zeros(op.A.shape[0]))


def test_reference_residual_contract():
    op = assemble(build_fine_mesh(64), example_1(2.0))
    u = solve_fine_reference(op, tol=1e-10)
    res = np.linalg.norm(op.A @ u - op.f) / np.linalg.norm(op.f)
    assert res <= 1e-10


def test_invalid_coefficient():
    mesh = build_fine_mesh(4)
    fld = CoefficientField(
        kappa=lambda x, y: x - 0.5,
        b=lambda x, y: np.zeros((2,) + np.shape(x)),
        f=lambda x, y: np.ones(np.shape(x)),
    )
    with pytest.raises(InvalidCoefficientError):
        assemble(mesh, fld)


def test_solver_failure_reports_residual():
    op = assemble(build_fine_mesh(16), constant_field())
    with pytest.raises(SolverFailureError) as err:
        solve_fine_reference(op, tol=1e-18)
    assert err.value.residual is not None
    assert err.value.residual > 1e-18


@pytest.mark.filterwarnings("ignore:cell Peclet")
def test_fine_reference_refines_a_near_miss():
    # example 5 at alpha = 1/2000, n = 128: one LU pass leaves a relative
    # residual of about 1.07e-10, just over the bound; one refinement step
    # brings it under
    from mspg.harness import ExperimentConfig, Workspace

    ws = Workspace(ExperimentConfig(example=5, alpha=1.0 / 2000.0, nc=8, n=128))
    op = ws.op
    residual = np.linalg.norm(op.A @ ws.u_ref - op.f) / np.linalg.norm(op.f)
    assert residual <= 1e-10
