"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

Run from the root of a formlap checkout.  The verdict tests are pure;
the smoke tests run every workload at its smallest size, untraced and
traced, and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import E2E_METRICS, WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def _failed(checks):
    return {name for name, ok, _ in checks if not ok}


def _verify_report(statuses):
    results = [{"theorem": "factorization", "params": {}, "status": s, "witness": None}
               for s in statuses]
    failed = sum(s != "pass" for s in statuses)
    return {"meta": {}, "report": {"results": results,
                                   "summary": {"checks": len(results), "failed": failed}}}


def _torus_report(discrepancies, modes=2):
    cells = [{"n": 3, "k": 1, "ell": i + 1, "modes": [{"xi": [0, 0, 1]}] * modes,
              "max_discrepancy": d, "status": "pass" if d == 0 else "fail"}
             for i, d in enumerate(discrepancies)]
    return {"meta": {}, "report": {"results": cells, "summary": {
        "cells": len(cells), "max_discrepancy": max(discrepancies)}}}


def test_default_grid_has_1330_checks():
    assert workloads.expected_verify_checks(3, 12, 6) == 1330
    assert workloads.expected_torus_cells([3, 4, 5], 3) == 15


def test_verify_checker_passes_a_clean_report():
    assert _failed(workloads.check_verify(0, _verify_report(["pass"] * 4), 4)) == set()


def test_verify_checker_flags_one_failed_check():
    report = _verify_report(["pass", "fail", "pass", "pass"])
    assert _failed(workloads.check_verify(1, report, 4)) == {
        "exit_code_0", "failed_zero", "every_result_pass"}


def test_verify_checker_flags_a_zero_check_report():
    failed = _failed(workloads.check_verify(0, _verify_report([]), 0))
    assert {"checks_nonzero", "every_result_pass"} <= failed


def test_verify_checker_flags_a_missing_report():
    assert "checks_match_grid" in _failed(workloads.check_verify(2, None, 1330))


def test_torus_checker_passes_a_clean_report():
    assert _failed(workloads.check_torus(0, _torus_report([0, 0]), 2, 2)) == set()


def test_torus_checker_flags_a_nonzero_discrepancy():
    failed = _failed(workloads.check_torus(1, _torus_report([0, 3]), 2, 2))
    assert {"every_cell_pass", "max_discrepancy_zero"} <= failed


def test_torus_checker_flags_missing_modes():
    assert "modes_compared" in _failed(workloads.check_torus(0, _torus_report([0, 0], modes=1), 2, 2))


def test_torus_shell_error():
    spec = [(0.0, "harmonic"), (0.9, "exact"), (1.05, "coexact")]
    assert workloads.torus_shell_error(spec, 1.0, 2) == pytest.approx(0.1)
    assert workloads.torus_shell_error(spec, 1.0, 3) == float("inf")


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == E2E_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == LAYER_METRICS


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_a_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = E2E_METRICS if trace == 0 else [(n, u) for n, u, _ in LAYER_METRICS]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_a_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "verify-grid", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
