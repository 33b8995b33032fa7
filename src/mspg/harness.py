"""Experiment driver: configuration, cached offline pipeline, report rows.

A ``Workspace`` builds everything that does not depend on the per-cell
parameters (operator, reference solve, partition of unity, snapshot sets,
edge spectra) exactly once, so sweeps over trial/test counts reuse the
expensive local solves.  Rows are emitted in a fixed schema so repeated
runs of the same configuration are byte-identical.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import coupling, test_space, trial_space
from .assembly import CoefficientField, SparseOperator, assemble, solve_fine_reference
from .errors import ConfigError, UnknownExampleError
from .fields import ALPHA_DEFAULTS, DELTA_DEFAULT, field_for_example
from .grid import FineMesh, build_coarse_topology, build_fine_mesh

PECLET_WARN = 2.0


@dataclass
class ExperimentConfig:
    """One experiment cell (plus output options).

    ``m`` is the trial count per coarse node, ``L`` the test count per
    coarse edge; both are capped by the local snapshot counts.
    """

    example: int = 1
    alpha: float | None = None
    nc: int = 8
    n: int = 64
    m: int = 1
    L: int = 1
    eigenproblem: int = 1
    online_iters: int = 0
    pou: str = "ms"
    projection: str = "l2"
    bubble_source: str = "l2"
    trial_restriction: str = "submatrix"
    edge_energy: str = "region"
    delta: float = DELTA_DEFAULT
    raster_path: str | None = None
    darcy_sign: float = 1.0
    infsup: bool = False

    def __post_init__(self):
        if self.example not in (1, 2, 3, 4, 5):
            raise UnknownExampleError(f"example id {self.example} outside 1..5")
        if self.alpha is None:
            self.alpha = ALPHA_DEFAULTS[self.example]
        if self.nc < 2:
            raise ConfigError(f"coarse subdivisions nc={self.nc} must be >= 2")
        if self.n % self.nc != 0:
            raise ConfigError(f"fine n={self.n} not divisible by coarse nc={self.nc}")
        r = self.n // self.nc
        if r < 2:
            raise ConfigError(f"need at least 2 fine cells per coarse cell, got r={r}")
        if self.m < 1:
            raise ConfigError(f"trial count m={self.m} must be >= 1")
        if not 1 <= self.L <= r - 1:
            raise ConfigError(f"test count L={self.L} outside 1..{r - 1}")
        if self.eigenproblem not in (1, 2):
            raise ConfigError(f"eigenproblem must be 1 or 2, got {self.eigenproblem}")
        if self.online_iters < 0:
            raise ConfigError("online_iters must be >= 0")
        if self.pou not in ("ms", "hat"):
            raise ConfigError(f"partition-of-unity mode {self.pou!r} not in (ms, hat)")
        if self.projection not in ("l2", "mass"):
            raise ConfigError(f"projection mode {self.projection!r} not in (l2, mass)")
        if self.bubble_source not in ("l2", "mass"):
            raise ConfigError(f"bubble source {self.bubble_source!r} not in (l2, mass)")
        if self.trial_restriction not in ("submatrix", "patch"):
            raise ConfigError(
                f"trial restriction {self.trial_restriction!r} not in (submatrix, patch)"
            )
        if self.edge_energy not in ("region", "global"):
            raise ConfigError(
                f"edge energy {self.edge_energy!r} not in (region, global)"
            )

    @property
    def r(self) -> int:
        return self.n // self.nc

    @property
    def H(self) -> float:
        return 1.0 / self.nc

    @property
    def h(self) -> float:
        return 1.0 / self.n


# per-example grids of the full-resolution experiment matrix; the fine mesh
# tracks the diffusion/advection strength where the setups differ
def full_resolution(example: int, alpha: float) -> tuple[int, int]:
    """(nc, n) of the full-resolution setup for one example."""
    if example in (1, 2, 4):
        return 10, 200
    if example == 3:
        return 10, (800 if alpha <= 1.0 / 2000.0 else 400)
    if example == 5:
        return 10, (400 if alpha <= 1.0 / 500.0 else 200)
    raise UnknownExampleError(f"example id {example} outside 1..5")


def cell_peclet(mesh: FineMesh, fld: CoefficientField) -> float:
    """Largest cell Peclet number, sampled at the element quadrature points."""
    n = mesh.n
    g = 1.0 / np.sqrt(3.0)
    centers = (np.arange(n) + 0.5) * mesh.h
    pe = 0.0
    for dx in (-g, g):
        for dy in (-g, g):
            X, Y = np.meshgrid(
                centers + 0.5 * dx * mesh.h, centers + 0.5 * dy * mesh.h, indexing="xy"
            )
            bmag = np.sqrt(np.sum(np.asarray(fld.b(X, Y)) ** 2, axis=0))
            kq = np.asarray(fld.kappa(X, Y))
            pe = max(pe, float(np.max(bmag / kq)) * mesh.h / 2.0)
    return pe


class Workspace:
    """Cached offline pipeline for one (example, alpha, grids) setup."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.mesh = build_fine_mesh(config.n)
        self.topology = build_coarse_topology(self.mesh, config.nc)
        self.field = field_for_example(config, self.mesh)
        pe = cell_peclet(self.mesh, self.field)
        if pe > PECLET_WARN:
            warnings.warn(
                f"cell Peclet {pe:.2f} exceeds {PECLET_WARN}; the fine grid may be "
                "too coarse for a stable fine discretization",
                stacklevel=2,
            )
        self.op: SparseOperator = assemble(self.mesh, self.field)
        self.u_ref = solve_fine_reference(self.op)
        self.chi = trial_space.partition_of_unity(self.topology, self.op, mode=config.pou)
        self._snapshots: dict[int, trial_space.TrialSnapshotSet] = {}
        self._trial: dict[int, trial_space.TrialBasis] = {}
        self._w1: dict[int, test_space.BubbleSet] = {}
        self._w2: test_space.VertexTraceSet | None = None
        self._w3: dict[int, test_space.TestSnapshotW3] = {}
        self._spectrum: dict[tuple[int, int], test_space.EdgeSpectralResult] = {}

    # ---- trial side -------------------------------------------------

    def snapshots(self, node: int) -> trial_space.TrialSnapshotSet:
        if node not in self._snapshots:
            self._snapshots[node] = trial_space.trial_snapshots(
                self.topology, self.op, node
            )
        return self._snapshots[node]

    def trial(self, m: int) -> trial_space.TrialBasis:
        if m not in self._trial:
            bases = []
            for node in range(self.topology.num_coarse_nodes):
                snap = self.snapshots(node)
                if snap.count == 0:
                    continue
                bases.append(
                    trial_space.trial_eigenbasis(
                        snap,
                        self.op,
                        min(m, snap.count),
                        restriction=self.config.trial_restriction,
                    )
                )
            self._trial[m] = trial_space.assemble_trial_matrix(
                self.topology, bases, self.chi
            )
        return self._trial[m]

    # ---- test side --------------------------------------------------

    def w1(self, m: int) -> test_space.BubbleSet:
        if m not in self._w1:
            self._w1[m] = test_space.build_W1(
                self.topology, self.op, self.trial(m).Xi,
                source=self.config.bubble_source,
            )
        return self._w1[m]

    def w2(self) -> test_space.VertexTraceSet:
        if self._w2 is None:
            self._w2 = test_space.build_W2(self.topology, self.op)
        return self._w2

    def w3(self, k: int) -> test_space.TestSnapshotW3:
        if k not in self._w3:
            self._w3[k] = test_space.build_W3_snapshots(self.topology, self.op, k)
        return self._w3[k]

    def edge_spectrum(self, k: int, problem: int) -> test_space.EdgeSpectralResult:
        """Full spectral result (all modes selected) of one edge."""
        key = (k, problem)
        if key not in self._spectrum:
            snap = self.w3(k)
            solver = (
                test_space.eigenproblem_1 if problem == 1 else test_space.eigenproblem_2
            )
            self._spectrum[key] = solver(
                snap, self.op, snap.count, energy=self.config.edge_energy
            )
        return self._spectrum[key]

    def w3_selection(self, L: int, problem: int) -> list[test_space.EdgeSpectralResult]:
        """Per-edge prefix selections of the cached full spectra."""
        out = []
        for k in range(len(self.topology.edges)):
            full = self.edge_spectrum(k, problem)
            ns = full.eigenvalues.size
            Lk = min(L, ns)
            out.append(
                test_space.EdgeSpectralResult(
                    edge=full.edge,
                    problem=problem,
                    eigenvalues=full.eigenvalues,
                    selected=full.selected[:, :Lk],
                    L=Lk,
                    lambda_excluded=(
                        float(full.eigenvalues[Lk]) if Lk < ns else np.inf
                    ),
                )
            )
        return out

    def theta(self, m: int, L: int, problem: int):
        Theta, report = test_space.assemble_test_matrix(
            self.w1(m), self.w2(), self.w3_selection(L, problem)
        )
        return Theta, report

    # ---- solve ------------------------------------------------------

    def run_cell(
        self, m: int, L: int, problem: int, online_iters: int = 0
    ) -> list[ReportRow]:
        cfg = self.config
        Theta, report = self.theta(m, L, problem)
        state = coupling.solve_coupled(self.op, Theta, self.trial(m).Xi)
        infsup = (
            coupling.infsup_estimate(self.op, state.Theta, state.Xi)
            if cfg.infsup
            else None
        )
        rows = [
            self._row(
                m,
                L,
                problem,
                coupling.error_report(
                    state,
                    self.u_ref,
                    projection=cfg.projection,
                    min_lambda_excluded=report.min_lambda_excluded,
                    infsup_est=infsup,
                    online_iter=0,
                ),
            )
        ]
        for it in range(1, online_iters + 1):
            state, _ = coupling.online_enrich(state, self.topology, iterations=1)
            infsup = (
                coupling.infsup_estimate(self.op, state.Theta, state.Xi)
                if cfg.infsup
                else None
            )
            rows.append(
                self._row(
                    m,
                    L,
                    problem,
                    coupling.error_report(
                        state,
                        self.u_ref,
                        projection=cfg.projection,
                        min_lambda_excluded=report.min_lambda_excluded,
                        infsup_est=infsup,
                        online_iter=it,
                    ),
                )
            )
        return rows

    def _row(self, m, L, problem, err: coupling.ErrorReport) -> ReportRow:
        cfg = self.config
        return ReportRow(
            example=cfg.example,
            alpha=float(cfg.alpha),
            H=cfg.H,
            h=cfg.h,
            m_trial=m,
            L_test=L,
            eigenproblem=problem,
            online_iter=err.online_iter,
            err_ms_pct=err.err_ms_pct,
            err_proj_pct=err.err_proj_pct,
            w_norm=err.w_norm,
            min_lambda_excluded=err.min_lambda_excluded,
            infsup_est=err.infsup_est,
        )


@dataclass(frozen=True)
class ReportRow:
    example: int
    alpha: float
    H: float
    h: float
    m_trial: int
    L_test: int
    eigenproblem: int
    online_iter: int
    err_ms_pct: float
    err_proj_pct: float
    w_norm: float
    min_lambda_excluded: float | None
    infsup_est: float | None


REPORT_FIELDS = (
    "example",
    "alpha",
    "H",
    "h",
    "m_trial",
    "L_test",
    "eigenproblem",
    "online_iter",
    "err_ms_pct",
    "err_proj_pct",
    "w_norm",
    "min_lambda_excluded",
    "infsup_est",
)


def run_experiment(config: ExperimentConfig) -> list[ReportRow]:
    """One cell (plus its online iterations) from a fresh workspace."""
    ws = Workspace(config)
    return ws.run_cell(config.m, config.L, config.eigenproblem, config.online_iters)


def sweep_experiment(
    config: ExperimentConfig,
    ms: list[int],
    Ls: list[int],
    eigenproblems: list[int],
    online_iters: int | None = None,
) -> list[ReportRow]:
    """Cartesian sweep sharing one workspace; rows in fixed (m, L, eig) order."""
    online = config.online_iters if online_iters is None else online_iters
    base = replace(config, m=max(ms), L=max(Ls))  # validates the largest cell
    ws = Workspace(base)
    rows = []
    for m in sorted(ms):
        for L in sorted(Ls):
            for problem in sorted(eigenproblems):
                rows.extend(ws.run_cell(m, L, problem, online))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows: list[ReportRow]) -> str:
    lines = [",".join(REPORT_FIELDS)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in REPORT_FIELDS))
    return "\n".join(lines) + "\n"


def render_json(rows: list[ReportRow]) -> str:
    payload = [
        {name: getattr(row, name) for name in REPORT_FIELDS} for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def emit_report(rows: list[ReportRow], format: str = "csv", path=None) -> str:
    """Render rows to CSV or JSON; write to ``path`` unless it is None/'-'."""
    if not rows:
        raise ConfigError("no report rows to emit")
    if format == "csv":
        text = render_csv(rows)
    elif format == "json":
        text = render_json(rows)
    else:
        raise ConfigError(f"unknown report format {format!r}")
    if path not in (None, "-"):
        with open(path, "w") as fh:
            fh.write(text)
    return text


def dump_edge_spectra(spectra, path) -> None:
    """Per-edge eigenvalue table: edge id, index, eigenvalue, selected flag.

    ``spectra`` is a ``SpectralReport`` or the per-edge results themselves,
    as ``Workspace.w3_selection`` returns them.
    """
    if isinstance(spectra, test_space.SpectralReport):
        spectra = spectra.edge_results
    with open(path, "w") as fh:
        fh.write("edge,index,eigenvalue,selected\n")
        for res in spectra:
            for i, lam in enumerate(res.eigenvalues):
                fh.write(
                    f"{res.edge.index},{i},{_fmt(float(lam))},{int(i < res.L)}\n"
                )


def dump_basis(basis: trial_space.TrialBasis, path) -> None:
    """Columnar dump of the trial matrix for visualization (npy or CSV)."""
    path = str(path)
    if path.endswith(".npy"):
        np.save(path, basis.Xi)
    else:
        np.savetxt(path, basis.Xi, delimiter=",")
