"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from tracer import SPAN_NAMES, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = WORKLOADS["smoke"]
SMOKE_REF = (HERE / "reference" / "smoke.csv").read_text()


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_named_metric(trace, kind):
    proc = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        # the smoke cells reach every traced boundary
        assert all(values[f"{name}_calls"] >= 1 for name in SPAN_NAMES)
        # self times partition the two root spans exactly
        roots = values["harness.workspace_init_s"] + values["harness.run_cell_s"]
        assert sum(values[f"{name}_self_s"] for name in SPAN_NAMES) == pytest.approx(roots)
        assert values["row_drift_rel"] == 0.0 and values["fail_frac"] == 0.0


def test_benchmark_workloads_have_references():
    for entry in BENCHMARK["workloads"]:
        workload = WORKLOADS[entry["name"]]
        reference = (HERE / "reference" / f"{workload.name}.csv").read_text()
        problems, drift, _ = checks.evaluate(reference, workload, reference)
        assert problems == [] and drift == 0.0


def test_without_the_package_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _edit(text, row, field, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[checks.FIELDS.index(field)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _value(text, row, field):
    return float(text.splitlines()[row].split(",")[checks.FIELDS.index(field)])


def test_perturbed_reference_row_is_reported():
    perturbed = _edit(SMOKE_REF, 2, "w_norm", repr(_value(SMOKE_REF, 2, "w_norm") * (1 + 1e-5)))
    problems, drift, _ = checks.evaluate(SMOKE_REF, SMOKE, perturbed)
    assert drift == pytest.approx(1e-5, rel=1e-3)
    assert any("row_drift_rel" in p for p in problems)


def test_rounding_level_drift_passes():
    perturbed = _edit(SMOKE_REF, 2, "w_norm", repr(_value(SMOKE_REF, 2, "w_norm") * (1 + 1e-12)))
    problems, drift, _ = checks.evaluate(SMOKE_REF, SMOKE, perturbed)
    assert problems == [] and 0.0 < drift < checks.DRIFT_TOL


def _without_row(text, row):
    lines = text.splitlines()
    return "\n".join(lines[:row] + lines[row + 1:]) + "\n"


@pytest.mark.parametrize(
    "broken, expect",
    [
        (_without_row(SMOKE_REF, 3), "rows, expected"),
        (_edit(SMOKE_REF, 1, "w_norm", "nan"), "not finite"),
        (_edit(SMOKE_REF, 1, "min_lambda_excluded", "inf"), "not finite"),
        (_edit(SMOKE_REF, 1, "infsup_est", ""), "is empty"),
        (_edit(SMOKE_REF, 1, "err_ms_pct", "5.0"), "err_ms_pct"),
        (_edit(SMOKE_REF, 2, "online_iter", "0"), "sequence"),
        # L=3 is the full test space at r=4: the gap must vanish
        (_edit(SMOKE_REF, 5, "err_ms_pct", repr(_value(SMOKE_REF, 5, "err_proj_pct") + 1e-6)),
         "full test space"),
    ],
)
def test_report_checks_catch_broken_rows(broken, expect):
    problems = checks.check_rows(checks.parse_csv(broken), SMOKE)
    assert any(expect in p for p in problems), problems


@pytest.mark.parametrize("field, value", [("w_norm", ""), ("h", "0.0"), ("H", "inf")])
def test_malformed_report_is_a_failure(field, value):
    problems, drift, _ = checks.evaluate(_edit(SMOKE_REF, 1, field, value), SMOKE, SMOKE_REF)
    assert problems and problems[0].startswith("unparseable report")


def test_absent_binding_is_reported_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    test_space = pytest.importorskip("mspg.test_space")
    monkeypatch.delattr(test_space, "orthonormalize_columns")
    tracer = Tracer().install()
    try:
        assert "test_space.orthonormalize_columns" in tracer.absent
        assert tracer.summary()["numerics.orthonormalize_columns_calls"] == 0
    finally:
        tracer.uninstall()


def test_repeats_must_render_identical_bytes():
    import run

    rounding = _edit(SMOKE_REF, 2, "w_norm", repr(_value(SMOKE_REF, 2, "w_norm") * (1 + 1e-12)))
    children = [
        {"csv": SMOKE_REF, "mode": "run", "problems": []},
        {"csv": rounding, "mode": "trace", "problems": []},
    ]
    run.check_children(children, SMOKE, SMOKE_REF)
    assert children[0]["problems"] == []
    assert children[1]["problems"] == ["traced report bytes differ from the first repetition"]
