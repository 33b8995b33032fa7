"""Experiment driver: configuration, cached offline pipeline, report rows.

A ``Workspace`` builds everything that does not depend on the per-cell
parameters (operator, reference solve, block factors, partition of unity,
trial eigen-combinations, edge spectra) exactly once, so sweeps over
trial/test counts reuse the expensive local solves; one LU of each coarse
block's interior operator serves all of its block-local solves.  Rows are
emitted in a fixed schema so repeated runs of the same configuration are
byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import coupling, test_space, trial_space
from .assembly import CoefficientField, SparseOperator, assemble, solve_fine_reference
from .errors import ConfigError, UnknownExampleError
from .fields import ALPHA_DEFAULTS, DELTA_DEFAULT, DIFFUSION_ALPHA, field_for_example
from .grid import FineMesh, build_coarse_topology, build_fine_mesh
from .numerics import serial_blas

PECLET_WARN = 2.0

# allowed values of the string-valued options; the command line takes its
# ``choices`` from here too
CHOICES = {
    "trial_restriction": ("submatrix", "patch"),
    "edge_energy": ("region", "global"),
}

# (field, the one example that reads it, its unset value)
EXAMPLE_ONLY = (("delta", 2, None), ("raster_path", 5, None), ("darcy_sign", 5, 1.0))


@dataclass
class ExperimentConfig:
    """One experiment cell (plus output options).

    ``m`` is the trial count per coarse node, ``L`` the test count per
    coarse edge; both are capped by the local snapshot counts.  An unset
    ``alpha`` (and ``delta`` for example 2) takes the example's default;
    ``delta``, ``raster_path`` and ``darcy_sign`` apply to one example only.
    """

    example: int = 1
    alpha: float | None = None
    nc: int = 8
    n: int = 64
    m: int = 1
    L: int = 1
    eigenproblem: int = 1
    online_iters: int = 0
    trial_restriction: str = "submatrix"
    edge_energy: str = "region"
    delta: float | None = None
    raster_path: str | None = None
    darcy_sign: float = 1.0
    infsup: bool = False

    def __post_init__(self):
        if self.example not in (1, 2, 3, 4, 5):
            raise UnknownExampleError(f"example id {self.example} outside 1..5")
        if self.alpha is None:
            self.alpha = ALPHA_DEFAULTS[self.example]
        if self.delta is None and self.example == 2:
            self.delta = DELTA_DEFAULT
        for name in ("alpha", "delta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.example in DIFFUSION_ALPHA and self.alpha <= 0.0:
            raise ConfigError(
                f"alpha is the diffusion of example {self.example} and must be > 0, "
                f"got {self.alpha}"
            )
        for name, only, unset in EXAMPLE_ONLY:
            if self.example != only and getattr(self, name) != unset:
                raise ConfigError(
                    f"{name.replace('_', ' ')} applies to example {only} only, "
                    f"not example {self.example}"
                )
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
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(
                    f"{name.replace('_', ' ')} {value!r} not in ({', '.join(allowed)})"
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
        # per-region stages, on one BLAS thread like the lazy ones below
        with serial_blas():
            self.block_factors = trial_space.block_factors(self.topology, self.op)
            self.chi = trial_space.partition_of_unity(
                self.topology, self.op.A_nodes, self.block_factors
            )
        self._eigenbases: list[trial_space.TrialEigenbasis] = []
        self._eigen_m = 0
        self._trial: dict[int, trial_space.TrialBasis] = {}
        self._projection_error: dict[int, float] = {}
        self._w1: dict[int, test_space.BubbleSet] = {}
        self._w2: test_space.VertexTraceSet | None = None
        self._spectra: dict[int, list[test_space.EdgeSpectrum]] = {}

    # ---- trial side -------------------------------------------------

    def trial(self, m: int) -> trial_space.TrialBasis:
        """Trial matrix with m functions per coarse node.

        Only each neighborhood's eigen-combinations are kept, up to the
        larger of ``config.m`` and the largest m asked for (a sweep sets
        ``config.m`` to its largest count); the snapshot sets are dropped
        once they are reduced.  The neighborhood loop runs on one BLAS
        thread (``numerics.serial_blas``).
        """
        if m not in self._trial:
            if m > self._eigen_m:
                m_max, bases = max(m, self.config.m), []
                with serial_blas():
                    for node in range(self.topology.num_coarse_nodes):
                        snap = trial_space.trial_snapshots(
                            self.topology, self.op, node, self.block_factors
                        )
                        if snap.count:
                            bases.append(
                                trial_space.trial_eigenbasis(
                                    snap,
                                    self.op,
                                    min(m_max, snap.count),
                                    restriction=self.config.trial_restriction,
                                )
                            )
                self._eigenbases, self._eigen_m = bases, m_max
            self._trial[m] = trial_space.assemble_trial_matrix(
                self.topology, self._eigenbases, self.chi, m
            )
        return self._trial[m]

    def projection_error(self, m: int) -> float:
        """Percent error of the fine reference's projection onto the trial span."""
        if m not in self._projection_error:
            self._projection_error[m] = coupling.projection_error(
                self.trial(m).Xi, self.u_ref
            )
        return self._projection_error[m]

    # ---- test side --------------------------------------------------

    def w1(self, m: int) -> test_space.BubbleSet:
        if m not in self._w1:
            with serial_blas():
                self._w1[m] = test_space.build_W1(
                    self.topology, self.op, self.trial(m).Xi, self.block_factors
                )
        return self._w1[m]

    def w2(self) -> test_space.VertexTraceSet:
        if self._w2 is None:
            with serial_blas():
                self._w2 = test_space.build_W2(self.topology, self.op, self.block_factors)
        return self._w2

    def edge_spectra(self, problem: int, L: int = 1) -> list[test_space.EdgeSpectrum]:
        """Every edge's spectrum under one eigenproblem, in edge order.

        Each spectrum holds every eigenvalue but only the first max(L,
        ``config.L``) eigen-combinations (a sweep sets ``config.L`` to its
        largest count); a larger L rebuilds them.  Each edge's snapshot set
        is built for the eigenproblem and dropped once it is reduced.  The
        edge loop runs on one BLAS thread (``numerics.serial_blas``).
        """
        keep = max(L, self.config.L)
        spectra = self._spectra.get(problem)
        if spectra is None or spectra[0].combos.shape[1] < keep:
            energy, spectra = self.config.edge_energy, []
            with serial_blas():
                for k, edge in enumerate(self.topology.edges):
                    psi = test_space.build_W3_snapshots(
                        self.topology, self.op, k, self.block_factors
                    )
                    if problem == 1:
                        full = test_space.eigenproblem_1(edge, psi, self.op, energy=energy)
                    else:
                        full = test_space.eigenproblem_2(
                            edge, psi, self.op, self.block_factors, energy=energy
                        )
                    combos = np.ascontiguousarray(full.combos[:, :keep])
                    spectra.append(replace(full, combos=combos))
            self._spectra[problem] = spectra
        return spectra

    def test_matrix(self, m: int, L: int, problem: int):
        """The raw CSC test matrix [W1 W2 W3] of a cell."""
        return test_space.assemble_test_matrix(
            self.w1(m), self.w2(), self.edge_spectra(problem, L), L
        )

    def image_structure(self, m: int):
        """``(interiors, harmonic_from)`` of the test matrices with m trial
        functions per node, for ``coupling.solve_coupled``: the block
        interiors, and the first column after the bubbles; W2 and W3 are
        adjoint-harmonic in every block, so their image A^T V lives on the
        coarse skeleton."""
        return [block.interior for block in self.topology.blocks], self.w1(m).count

    # ---- solve ------------------------------------------------------

    def run_cell(
        self, m: int, L: int | list[int], problem: int, online_iters: int = 0
    ) -> list[ReportRow]:
        """Report rows of the cells (m, L, problem) for one test count L or a
        list of them: per L, in ascending order, one row for the offline
        solve, then one per online sweep.

        The test matrices are nested (``test_space.assemble_test_matrix``),
        so the test basis is built once, for the largest L and ``config.L``,
        and every L reads its solve off the leading block
        (``coupling.leading_block``).  Only an L whose leading columns lost
        one to the orthonormalization solves on its own test matrix.  The
        group's solve is released before the last L's online sweeps, and
        each L's rows come from one online loop (``coupling.online_enrich``),
        whose first yield releases the cell's offline solve: every
        neighbourhood is factored once per cell, and T grows in place.
        """
        Ls = sorted(np.atleast_1d(L).tolist())
        Xi = self.trial(m).Xi
        V = self.test_matrix(m, max(Ls[-1], self.config.L), problem)
        structure = self.image_structure(m)
        group = coupling.solve_coupled(self.op, V, Xi, *structure)
        rows = []
        for i, L in enumerate(Ls):
            spectra = self.edge_spectra(problem, L)
            n = self.w1(m).count + self.w2().count + L * len(spectra)
            min_lambda = min(s.excluded(L) for s in spectra)
            state = coupling.leading_block(group, n)
            if state is None:
                state = coupling.solve_coupled(self.op, V[:, :n], Xi, *structure)
            if i == len(Ls) - 1:
                group = None  # no later L reads it: release its solve
            for it, state in enumerate(coupling.online_enrich(state, self.topology, online_iters)):
                infsup = coupling.infsup_estimate(state) if self.config.infsup else None
                err = coupling.error_report(
                    state,
                    self.u_ref,
                    self.projection_error(m),
                    min_lambda_excluded=min_lambda,
                    infsup_est=infsup,
                    online_iter=it,
                )
                rows.append(self._row(m, L, problem, err))
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
            **vars(err),  # the error report's fields, by name
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


# the report's columns, in order
REPORT_FIELDS = tuple(field.name for field in fields(ReportRow))


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
    for m, L, problem in itertools.product(ms, Ls, eigenproblems):
        replace(config, m=m, L=L, eigenproblem=problem)  # rejects a bad cell
    ws = Workspace(replace(config, m=max(ms), L=max(Ls)))
    per_cell = online + 1
    rows = []
    for m in sorted(ms):
        # one test basis per (m, eigenproblem), shared by every L
        groups = [ws.run_cell(m, Ls, problem, online) for problem in sorted(eigenproblems)]
        for i in range(len(Ls)):
            for group in groups:
                rows.extend(group[i * per_cell : (i + 1) * per_cell])
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


def dump_edge_spectra(spectra, L: int, path) -> None:
    """Per-edge eigenvalue table: edge id, index, eigenvalue, and whether the
    first L modes select it.  ``spectra`` are ``Workspace.edge_spectra``'s.
    """
    with open(path, "w") as fh:
        fh.write("edge,index,eigenvalue,selected\n")
        for s in spectra:
            for i, lam in enumerate(s.eigenvalues):
                fh.write(f"{s.edge.index},{i},{_fmt(float(lam))},{int(i < L)}\n")


def dump_basis(basis: trial_space.TrialBasis, path) -> None:
    """Dense columnar dump of the trial matrix for visualization (npy or CSV)."""
    path = str(path)
    Xi = basis.Xi.toarray(order="C")
    if path.endswith(".npy"):
        np.save(path, Xi)
    else:
        np.savetxt(path, Xi, delimiter=",")
