"""Correctness checks on rendered report rows, independent of the solver.

``run.py`` parses each run's CSV itself, so the checks hold even when the
package under test changes its internals.
"""

from __future__ import annotations

import math

FIELDS = (
    "example", "alpha", "H", "h", "m_trial", "L_test", "eigenproblem", "online_iter",
    "err_ms_pct", "err_proj_pct", "w_norm", "min_lambda_excluded", "infsup_est",
)
INT_FIELDS = {"example", "m_trial", "L_test", "eigenproblem", "online_iter"}
OPTIONAL_FIELDS = {"min_lambda_excluded", "infsup_est"}

# Largest accepted relative deviation from the reference rows.  The two edge
# eigenproblems give the same full-test-space w_norm on contrast_sweep only to
# 2e-9 relative (cond(G_ww) ~ 1e9 there), so rounding-level changes stay well
# inside this while a loss of digits from squaring that condition does not.
DRIFT_TOL = 1e-6
# err_ms >= err_proj holds exactly in exact arithmetic; allow rounding slack
ROUNDING_REL = 1e-9
# full test space (L = r - 1) reproduces the l2 projection: |gap| in pct pts
EXACT_GAP_PCT = 1e-10


def parse_csv(text: str) -> list[dict]:
    """Rows of a rendered report; empty optional cells become None.

    Raises ValueError on a malformed report: wrong header or field count, an
    empty required field, or grid sizes that are not finite and positive.
    """
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != FIELDS:
        raise ValueError("report header does not match the report schema")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(FIELDS):
            raise ValueError(f"line {lineno}: {len(cells)} fields, expected {len(FIELDS)}")
        row = {
            name: None if cell == "" else (int(cell) if name in INT_FIELDS else float(cell))
            for name, cell in zip(FIELDS, cells)
        }
        missing = [name for name in FIELDS if row[name] is None and name not in OPTIONAL_FIELDS]
        if missing:
            raise ValueError(f"line {lineno}: empty {', '.join(missing)}")
        if not all(0.0 < row[name] < math.inf for name in ("H", "h")):
            raise ValueError(f"line {lineno}: grid sizes H={row['H']!r}, h={row['h']!r}")
        rows.append(row)
    return rows


def check_rows(rows: list[dict], workload) -> list[str]:
    """Problems with one run's rows; an empty list means every check passed."""
    problems = []
    expected = [
        (m, L, eig, it)
        for m, L, eig, online in workload.cells
        for it in range(online + 1)
    ]
    got = [(r["m_trial"], r["L_test"], r["eigenproblem"], r["online_iter"]) for r in rows]
    if len(rows) != workload.expected_rows:
        problems.append(f"{len(rows)} rows, expected {workload.expected_rows}")
    elif got != expected:
        problems.append(f"cell/online_iter sequence {got} differs from {expected}")
    for i, row in enumerate(rows, start=1):
        full_test_space = row["L_test"] == round(row["H"] / row["h"]) - 1
        for name in FIELDS:
            value = row[name]
            if value is None:
                if not (name == "infsup_est" and not workload.infsup):
                    problems.append(f"row {i}: {name} is empty")
                continue
            # no excluded edge mode is left when every mode is kept
            if name == "min_lambda_excluded" and value == math.inf and full_test_space:
                continue
            if not math.isfinite(value):
                problems.append(f"row {i}: {name} = {value!r} is not finite")
        if not workload.infsup and row["infsup_est"] is not None:
            problems.append(f"row {i}: infsup_est present without --infsup")
        ms, proj = row["err_ms_pct"], row["err_proj_pct"]
        if ms < proj - ROUNDING_REL * abs(proj):
            problems.append(f"row {i}: err_ms_pct {ms!r} < err_proj_pct {proj!r}")
        if full_test_space and abs(ms - proj) > EXACT_GAP_PCT:
            problems.append(
                f"row {i}: full test space but err_ms_pct - err_proj_pct = {ms - proj!r}"
            )
    return problems


def _deviation(value, ref) -> float:
    if value == ref:  # also None == None and inf == inf
        return 0.0
    if value is None or ref is None or math.isnan(value) or math.isnan(ref):
        return math.inf
    if ref == 0:
        return abs(value)
    return abs(value - ref) / abs(ref)


def row_drift(rows: list[dict], reference: list[dict]) -> float:
    """Largest relative deviation of any report field from the reference rows."""
    if len(rows) != len(reference):
        return math.inf
    return max(
        (_deviation(row[name], ref[name]) for row, ref in zip(rows, reference) for name in FIELDS),
        default=0.0,
    )


def ms_gap_pct(rows: list[dict]) -> float:
    """err_ms_pct - err_proj_pct of the final row."""
    return rows[-1]["err_ms_pct"] - rows[-1]["err_proj_pct"]


def evaluate(csv_text: str, workload, reference_text: str):
    """(problems, row_drift_rel, ms_gap_pct) of one run's rendered CSV."""
    try:
        rows = parse_csv(csv_text)
        reference = parse_csv(reference_text)
    except ValueError as exc:
        return [f"unparseable report: {exc}"], math.inf, math.nan
    if not rows:
        return ["report has no rows"], math.inf, math.nan
    problems = check_rows(rows, workload)
    drift = row_drift(rows, reference)
    if not drift <= DRIFT_TOL:
        problems.append(f"row_drift_rel {drift:.3g} exceeds {DRIFT_TOL:g}")
    return problems, drift, ms_gap_pct(rows)
