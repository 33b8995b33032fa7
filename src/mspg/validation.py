"""Built-in invariant suite behind the ``validate`` CLI subcommand.

Each check returns (name, ok, detail).  The suite runs at a small scale so
it finishes in seconds; it exercises the grid bookkeeping, the assembly
identities, the spectral bounds and the exactness of the full snapshot
test space.
"""

from __future__ import annotations

import numpy as np

from . import coupling
from .assembly import CoefficientField, assemble, constant_field, solve_fine_reference
from .grid import build_coarse_topology, build_fine_mesh, coloring
from .harness import ExperimentConfig, Workspace


def _check_grid(n: int, nc: int):
    mesh = build_fine_mesh(n)
    topo = build_coarse_topology(mesh, nc)
    ok = True
    detail = []
    if len(topo.blocks) != nc * nc:
        ok, detail = False, [f"{len(topo.blocks)} blocks"]
    closures = np.concatenate([b.closure for b in topo.blocks])
    if not np.array_equal(np.unique(closures), np.arange(mesh.num_dofs)):
        ok = False
        detail.append("block closures do not cover the dofs")
    interiors = np.concatenate([b.interior for b in topo.blocks])
    if np.unique(interiors).size != interiors.size:
        ok = False
        detail.append("block interiors overlap")
    if len(topo.edges) != 2 * nc * (nc - 1):
        ok = False
        detail.append(f"{len(topo.edges)} edges")
    for cls in coloring(topo):
        for i, a in enumerate(cls):
            for b in cls[i + 1 :]:
                na, nb = topo.neighborhoods[int(a)], topo.neighborhoods[int(b)]
                if np.intersect1d(na.interior, nb.interior).size:
                    ok = False
                    detail.append(f"nodes {a},{b} share interior dofs")
    return "grid index sets", ok, "; ".join(detail)


def _check_assembly(n: int):
    mesh = build_fine_mesh(n)
    op = assemble(mesh, constant_field(kappa=1.0, b=(0.0, 0.0), f=1.0))
    sym = abs(op.A - op.A.T).max()
    total = op.M_nodes.sum()
    op_c = assemble(mesh, constant_field(kappa=1.0, b=(0.7, -0.3), f=1.0))
    drift = abs(op_c.A + op_c.A.T - 2.0 * op.A).max()
    ok = sym < 1e-12 and abs(total - 1.0) < 1e-12 and drift < 1e-10
    return (
        "assembly identities",
        ok,
        f"symmetry {sym:.1e}, mass total {total:.12f}, adjoint drift {drift:.1e}",
    )


def mms_rate(n: int) -> float:
    """Observed order of the fine solver's mass-norm error on the
    manufactured solution sin(pi x) sin(pi y), from grids n/2 and n."""

    def u_exact(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    errs = []
    for size in (n // 2, n):
        mesh = build_fine_mesh(size)
        fld = CoefficientField(
            kappa=lambda x, y: np.ones(np.shape(x)),
            b=lambda x, y: np.zeros((2,) + np.shape(x)),
            f=lambda x, y: 2.0 * np.pi**2 * u_exact(x, y),
        )
        op = assemble(mesh, fld)
        u = solve_fine_reference(op)
        x, y = mesh.dof_coords(np.arange(mesh.num_dofs))
        e = u - u_exact(x, y)
        errs.append(float(np.sqrt(e @ (op.M @ e))))
    return float(np.log2(errs[0] / errs[1]))


def edge_spectrum_range(ws: Workspace, problem: int = 2) -> tuple[float, float]:
    """Smallest and largest edge eigenvalue over all edges of ``ws``."""
    values = [s.eigenvalues for s in ws.edge_spectra(problem)]
    return min(float(v.min()) for v in values), max(float(v.max()) for v in values)


def full_space_gap(ws: Workspace, m: int = 1, problem: int = 2):
    """Solve with every edge mode kept (L = r - 1).

    Returns the relative gap |err_ms - err_proj| / err_proj, which vanishes
    when the full test space reproduces the projection, together with the
    error report and the solved state.
    """
    V = ws.test_matrix(m, ws.topology.r - 1, problem)
    state = coupling.solve_coupled(ws.op, V, ws.trial(m), *ws.image_structure(m))
    rep = coupling.error_report(state, ws.u_ref, ws.projection_error(m))
    gap = abs(rep.err_ms_pct - rep.err_proj_pct) / max(rep.err_proj_pct, 1e-12)
    return gap, rep, state


def _check_mms(n: int):
    # grids n and 2n: grid n/2 of a tiny n has a single interior node
    rate = mms_rate(2 * n)
    ok = 1.8 < rate < 2.2
    return "manufactured-solution order", ok, f"rate {rate:.3f}"


def _check_partition_of_unity(ws: Workspace):
    sums = np.asarray(ws.chi.sum(axis=1)).ravel()
    err = np.abs(sums - 1.0).max()
    low = ws.chi.min()  # the implicit zeros count, with no dense copy
    ok = err < 1e-9 and low > -0.2
    return "partition of unity", ok, f"sum error {err:.1e}, min value {low:.3f}"


def _check_spectral_bound(ws: Workspace):
    worst_low, worst_high = edge_spectrum_range(ws)
    ok = worst_low >= -1e-10 and worst_high <= 1.0 + 1e-10
    return (
        "edge spectrum within [0, 1]",
        ok,
        f"min {worst_low:.2e}, max {worst_high - 1.0:+.2e} vs 1",
    )


def _check_exactness(ws: Workspace):
    gap, rep, _ = full_space_gap(ws)
    ok = gap < 1e-6
    return (
        "full test space reaches the projection error",
        ok,
        f"ms {rep.err_ms_pct:.4f}% vs proj {rep.err_proj_pct:.4f}% (gap {gap:.1e})",
    )


def validate_suite(n: int, nc: int) -> list[tuple[str, bool, str]]:
    """The checks on an n x n fine grid over an nc x nc coarse one; the
    ``validate`` subcommand's ``--fine``/``--coarse`` hold the defaults."""
    results = [
        _check_grid(n, nc),
        _check_assembly(min(n, 16)),
        _check_mms(n),
    ]
    ws = Workspace(ExperimentConfig(example=1, nc=nc, n=n, L=1))
    results.extend(
        [
            _check_partition_of_unity(ws),
            _check_spectral_bound(ws),
            _check_exactness(ws),
        ]
    )
    return results
