"""Workload definitions shared by ``run.py`` and its child process.

Every input is an analytic coefficient field or the deterministic synthetic
Darcy raster, so a workload takes no random seed: the ``--seed`` argument of
``run.py`` is recorded but changes no input.

A workload is the ``ExperimentConfig`` the ``mspg`` command line builds plus,
for a sweep, its trial/test/eigenproblem lists.  ``execute`` calls the same
entry point the command line calls (``run_experiment`` or
``sweep_experiment``); ``cells`` lists the cells the report checks expect, in
report order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    cli: str  # the equivalent ``mspg`` command line, for the record
    config: dict  # ExperimentConfig keyword arguments, as the command line sets them
    sweep: tuple | None  # (ms, Ls, eigenproblems) of a sweep; None for a single run
    # BLAS/OpenMP threads of the child, capped at nproc.  desk_online's small
    # matrices ran slower and noisier on 2 threads than on 1 (4.7-6.1 s against
    # 3.6-4.0 s); the larger workloads gain from 2 (23 s against 40-43 s).
    threads: int

    @property
    def infsup(self) -> bool:
        return bool(self.config.get("infsup", False))

    @property
    def cells(self) -> tuple:
        """(m, L, eigenproblem, online_iters) of each cell, in report order."""
        online = self.config.get("online_iters", 0)
        if self.sweep is None:
            return ((self.config["m"], self.config["L"], self.config["eigenproblem"], online),)
        ms, Ls, eigs = self.sweep
        return tuple(
            (m, L, eig, online)
            for m, L, eig in itertools.product(sorted(ms), sorted(Ls), sorted(eigs))
        )

    @property
    def expected_rows(self) -> int:
        return sum(online + 1 for _, _, _, online in self.cells)

    def execute(self, harness, config) -> list:
        """Report rows of the workload, through the command line's entry point."""
        if self.sweep is None:
            return harness.run_experiment(config)
        ms, Ls, eigs = self.sweep
        return harness.sweep_experiment(
            config, list(ms), list(Ls), list(eigs), online_iters=config.online_iters
        )


def _run(name, cli, threads, **config):
    return Workload(name, cli, config, None, threads)


def _sweep(name, cli, threads, ms, Ls, eigs, **config):
    # the command line configures a sweep with its largest cell
    config = dict(config, m=max(ms), L=max(Ls), eigenproblem=max(eigs))
    return Workload(name, cli, config, (ms, Ls, eigs), threads)


WORKLOADS = {
    w.name: w
    for w in (
        _run(
            "desk_online",
            "run --example 1 --alpha 2 --coarse 8 --fine 64 --trial 1 --test 3 "
            "--eig 2 --online 2 --infsup",
            threads=1,
            example=1, alpha=2.0, nc=8, n=64, m=1, L=3, eigenproblem=2,
            online_iters=2, infsup=True,
        ),
        _sweep(
            "contrast_sweep",
            "sweep --example 5 --coarse 8 --fine 64 --trial 1,3 --test 1,3,5,7 --eig 1,2",
            threads=2, ms=(1, 3), Ls=(1, 3, 5, 7), eigs=(1, 2),
            example=5, nc=8, n=64,
        ),
        _run(
            "large_offline",
            "run --example 1 --alpha 2 --coarse 10 --fine 120 --trial 1 --test 7 "
            "--eig 2 --online 0",
            threads=2,
            example=1, alpha=2.0, nc=10, n=120, m=1, L=7, eigenproblem=2,
            online_iters=0,
        ),
        # tiny grid that reaches every traced boundary; used by the benchmark's tests
        _sweep(
            "smoke",
            "sweep --example 1 --alpha 2 --coarse 4 --fine 16 --trial 1 --test 1,3 "
            "--eig 1,2 --online 1 --infsup",
            threads=1, ms=(1,), Ls=(1, 3), eigs=(1, 2),
            example=1, alpha=2.0, nc=4, n=16, online_iters=1, infsup=True,
        ),
    )
}
