"""The BLAS thread scope: per-region stages on one thread, global kernels on
the process's count."""

import sys
from dataclasses import fields
from pathlib import Path

import pytest

from mspg import assembly, coupling, numerics, test_space, trial_space
from mspg.harness import ExperimentConfig, Workspace, run_experiment
from mspg.numerics import _blas_threads, serial_blas

SETTERS = numerics._openblas_thread_setters()

needs_openblas = pytest.mark.skipif(not SETTERS, reason="no OpenBLAS in this process")


def thread_counts() -> list[int]:
    """Current thread count of every OpenBLAS found, read through the setter
    (which returns the previous count) and put back at once."""
    counts = []
    for set_threads in SETTERS:
        count = set_threads(1)
        set_threads(count)
        counts.append(count)
    return counts


def openblas_paths() -> set[str]:
    with open("/proc/self/maps") as maps:
        return {line.split()[-1] for line in maps if "openblas" in line}


@needs_openblas
def test_serial_blas_runs_every_openblas_on_one_thread():
    # numpy and scipy each bundle an OpenBLAS; the lookup finds each mapped one
    assert len(SETTERS) == len(openblas_paths())
    with _blas_threads(2):
        assert thread_counts() == [2] * len(SETTERS)
        with serial_blas():
            assert thread_counts() == [1] * len(SETTERS)
        assert thread_counts() == [2] * len(SETTERS)


@needs_openblas
def test_serial_blas_restores_the_previous_count_after_an_exception():
    with _blas_threads(3):
        with pytest.raises(RuntimeError, match="inside"):
            with serial_blas():
                raise RuntimeError("raised inside the scope")
        assert thread_counts() == [3] * len(SETTERS)


@needs_openblas
def test_nested_serial_blas_scopes_restore_each_level():
    with _blas_threads(3):
        with serial_blas():
            with serial_blas():
                assert thread_counts() == [1] * len(SETTERS)
            assert thread_counts() == [1] * len(SETTERS)
        assert thread_counts() == [3] * len(SETTERS)
        with _blas_threads(2):
            assert thread_counts() == [2] * len(SETTERS)
        assert thread_counts() == [3] * len(SETTERS)


@needs_openblas
def test_serial_blas_does_nothing_without_a_library(monkeypatch):
    with _blas_threads(2):
        monkeypatch.setattr(numerics, "_openblas_thread_setters", lambda: ())
        with serial_blas():
            assert thread_counts() == [2] * len(SETTERS)
        assert thread_counts() == [2] * len(SETTERS)


# the per-region stages, by (file, function): the constructor's block
# factors and partition of unity, and the lazily built ones
STAGES = {
    ("harness.py", "__init__"),
    ("harness.py", "trial"),
    ("harness.py", "w1"),
    ("harness.py", "w2"),
    ("harness.py", "edge_spectra"),
    ("coupling.py", "_online_columns"),
}
# global kernels called from a stage: the constructor's fine reference solve
GLOBAL = {("assembly.py", "solve_fine_reference")}


def calling_stage():
    frame = sys._getframe(2)
    while frame is not None:
        key = (Path(frame.f_code.co_filename).name, frame.f_code.co_name)
        if key in GLOBAL:
            return None
        if key in STAGES:
            return key[1]
        frame = frame.f_back
    return None


@needs_openblas
def test_local_stages_run_on_one_thread_and_global_kernels_on_the_process_count(monkeypatch):
    calls = []  # (kernel, calling stage or None, calling function, thread counts)

    def spy(name, kernel):
        def spied(*args, **kwargs):
            calls.append((name, calling_stage(), sys._getframe(1).f_code.co_name, thread_counts()))
            return kernel(*args, **kwargs)

        return spied

    bindings = {
        "local_dirichlet_solve": (numerics, assembly),
        "generalized_sym_eig": (trial_space, test_space),
        "orthonormalize_columns": (test_space, coupling),
        "smallest_singular_value": (coupling,),
    }
    for name, modules in bindings.items():
        for module in modules:
            monkeypatch.setattr(module, name, spy(name, getattr(numerics, name)))
    monkeypatch.setattr(test_space.sla, "qr", spy("qr", test_space.sla.qr))
    factor = numerics.CheckedFactor
    monkeypatch.setattr(factor, "__init__", spy("factor", factor.__init__))
    monkeypatch.setattr(factor, "solve", spy("solve", factor.solve))

    cfg = ExperimentConfig(
        example=1, alpha=2.0, nc=8, n=64, m=1, L=3, eigenproblem=2, online_iters=1, infsup=True
    )
    with _blas_threads(2):
        ws = Workspace(cfg)
        ws.run_cell(cfg.m, cfg.L, cfg.eigenproblem, cfg.online_iters)
        assert thread_counts() == [2] * len(SETTERS)

    local = [call for call in calls if call[1] is not None]
    assert {stage for _, stage, _, _ in local} == {name for _, name in STAGES}
    for name, stage, _, counts in local:
        assert counts == [1] * len(SETTERS), (name, stage)
    # the global kernels keep the process's count
    orth = [call for call in calls if call[0] == "orthonormalize_columns"]
    assert "test_basis" in {caller for _, _, caller, _ in orth}
    for _, stage, caller, counts in orth:
        assert stage is None and counts == [2] * len(SETTERS), caller
    # the per-block QRs of the kernel's input are small per-region kernels
    qr = [call for call in calls if call[0] == "qr"]
    assert len(qr) >= len(ws.topology.blocks)
    for _, _, caller, counts in qr:
        assert caller == "compressed_image" and counts == [1] * len(SETTERS)
    infsup = [call for call in calls if call[2] == "infsup_estimate"]
    assert infsup and all(counts == [2] * len(SETTERS) for *_, counts in infsup)
    # the constructor factors every block interior once, on one thread
    factors = [call for call in calls if call[:2] == ("factor", "__init__")]
    assert len(factors) == len(ws.topology.blocks)
    reference = [call for call in calls if call[2] == "solve_fine_reference"]
    assert reference and all(counts == [2] * len(SETTERS) for *_, counts in reference)


def test_blas_threads_are_set_in_numerics_only():
    src = Path(__file__).resolve().parents[1] / "src" / "mspg"
    for path in sorted(src.glob("*.py")):
        if path.name != "numerics.py":
            text = path.read_text()
            assert "ctypes" not in text and "/proc/self/maps" not in text, path.name


@needs_openblas
def test_rows_agree_with_and_without_the_scope(monkeypatch):
    cfg = ExperimentConfig(
        example=1, alpha=2.0, nc=8, n=64, m=1, L=3, eigenproblem=2, online_iters=1, infsup=True
    )
    with _blas_threads(2):
        scoped = run_experiment(cfg)
        monkeypatch.setattr(numerics, "_openblas_thread_setters", lambda: ())
        unscoped = run_experiment(cfg)
    assert len(scoped) == len(unscoped) == 2
    for mine, theirs in zip(scoped, unscoped):
        for field in fields(mine):
            a, b = getattr(mine, field.name), getattr(theirs, field.name)
            if isinstance(a, float):
                assert a == pytest.approx(b, rel=1e-12, abs=0.0), field.name
            else:
                assert a == b, field.name
