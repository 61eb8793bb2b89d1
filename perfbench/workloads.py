"""Benchmark workloads: what each one runs through formlap, and its verdict.

Every workload calls formlap from outside the package, through
``formlap.cli.main`` or the public functions a user would call.  The
verdict checkers are pure functions of what formlap returned, so the
self-tests can feed them doctored reports.

Each workload module list is imported during set-up, before the first
call, so that set-up time is interpreter start plus imports and the
timed part is the computation alone.
"""

from __future__ import annotations

import json
from pathlib import Path

# -- expected outcomes, derived here and not read back from formlap ----------


def expected_verify_checks(n_min: int, n_max: int, ell_max: int) -> int:
    """Checks `formlap verify` makes on a grid with all five theorems.

    Per (n, k, ell): factorization, ell - 1 order reductions, the
    companion relations, a relative-inverse check when ell >= 2, and the
    kernel decomposition.
    """
    total = 0
    for n in range(n_min, n_max + 1):
        for _k in range(1, n // 2 + 1):
            for ell in range(1, ell_max + 1):
                total += 1 + (ell - 1) + 1 + (1 if ell >= 2 else 0) + 1
    return total


def expected_torus_cells(ns: list[int], ell_max: int) -> int:
    return sum((n // 2) * ell_max for n in ns)


# -- sizes -------------------------------------------------------------------
#
# "full" is what the benchmark measures; "smoke" is the smallest size
# of each workload, used by the harness self-test.  The DEC part has
# one size: a 6^3 torus grid is the smallest whose lowest Galerkin shell
# lies within 10 % of |xi|^2 = 1 (m = 5 misses by 12.5 %).

DEC_SIZE = {"torus_betti_size": 3, "torus_spectrum_size": 6}
SIZES = {
    "verify-grid": {
        "full": {"n_min": 3, "n_max": 12, "ell_max": 6},
        "smoke": {"n_min": 3, "n_max": 4, "ell_max": 2},
    },
    "oracles": {
        "full": {"torus": {"n": [3, 4, 5], "ell_max": 3, "modes": 20}, "dec": DEC_SIZE},
        "smoke": {"torus": {"n": [3], "ell_max": 1, "modes": 2}, "dec": DEC_SIZE},
    },
}

SPHERE_RTOL = 0.10          # the dec oracle's --rtol default
TORUS_RTOL = 0.10
TORUS3_BETTI = [1, 3, 3, 1]
SPHERE3_BETTI = [1, 0, 0, 1]
CELL600_REFINED_COUNTS = [2640, 17040, 28800, 14400]


def setup_imports(workload: str) -> None:
    """Import what the workload uses, so set-up pays for it before the timer."""
    import formlap.cli  # noqa: F401

    if workload == "verify-grid":
        import formlap.verify  # noqa: F401
    elif workload == "oracles":
        import formlap.dec  # noqa: F401
        import formlap.spectral  # noqa: F401
        import formlap.torus  # noqa: F401
        import formlap.whitney  # noqa: F401
    else:
        raise ValueError(f"unknown workload {workload!r}")


# -- verdict checkers ----------------------------------------------------------
#
# Each returns a list of (check name, passed, detail) and never skips a
# check because an earlier one failed.


def check_verify(rc: int, report: dict | None, expected_checks: int) -> list[tuple[str, bool, str]]:
    payload = (report or {}).get("report", {})
    summary = payload.get("summary", {})
    checks = summary.get("checks", 0)
    failed = summary.get("failed")
    results = payload.get("results", [])
    return [
        ("exit_code_0", rc == 0, f"rc={rc}"),
        ("checks_nonzero", isinstance(checks, int) and checks > 0, f"checks={checks}"),
        ("checks_match_grid", checks == expected_checks,
         f"checks={checks} expected={expected_checks}"),
        ("results_match_summary", len(results) == checks, f"results={len(results)}"),
        ("failed_zero", failed == 0, f"failed={failed}"),
        ("every_result_pass", bool(results) and all(r.get("status") == "pass" for r in results),
         f"non-pass={sum(r.get('status') != 'pass' for r in results)}"),
    ]


def check_torus(rc: int, report: dict | None, expected_cells: int,
                modes: int) -> list[tuple[str, bool, str]]:
    payload = (report or {}).get("report", {})
    cells = payload.get("results", [])
    summary = payload.get("summary", {})
    compared = sum(len(c.get("modes", [])) for c in cells)
    worst = max((c.get("max_discrepancy", 0) for c in cells), default=None)
    return [
        ("exit_code_0", rc == 0, f"rc={rc}"),
        ("cells_match_grid", len(cells) == expected_cells and summary.get("cells") == expected_cells,
         f"cells={len(cells)} expected={expected_cells}"),
        ("modes_compared", compared == expected_cells * modes and compared > 0,
         f"compared={compared} expected={expected_cells * modes}"),
        ("every_cell_pass", bool(cells) and all(c.get("status") == "pass" for c in cells),
         f"non-pass={sum(c.get('status') != 'pass' for c in cells)}"),
        ("max_discrepancy_zero", worst == 0 and summary.get("max_discrepancy") == 0,
         f"max_discrepancy={summary.get('max_discrepancy')}"),
    ]


def torus_shell_error(spec: list[tuple[float, str]], shell_value: float,
                      shell_size: int) -> float:
    """Largest relative error of the lowest shell_size nonzero eigenvalues."""
    nonzero = sorted(lam for lam, kind in spec if kind != "harmonic")[:shell_size]
    if len(nonzero) < shell_size:
        return float("inf")
    return max(abs(lam - shell_value) / shell_value for lam in nonzero)


def check_dec(outcome: dict) -> list[tuple[str, bool, str]]:
    torus_rep = (outcome.get("torus_report") or {}).get("report", {})
    sphere_rep = (outcome.get("sphere_report") or {}).get("report", {})
    sphere_err = sphere_rep.get("sphere_comparison", {}).get("max_rel_error", float("inf"))
    return [
        ("torus_oracle_exit_0", outcome.get("torus_rc") == 0, f"rc={outcome.get('torus_rc')}"),
        ("torus_betti", torus_rep.get("betti") == TORUS3_BETTI, f"betti={torus_rep.get('betti')}"),
        ("sphere_oracle_exit_0", outcome.get("sphere_rc") == 0, f"rc={outcome.get('sphere_rc')}"),
        ("sphere_betti", sphere_rep.get("betti") == SPHERE3_BETTI,
         f"betti={sphere_rep.get('betti')}"),
        ("sphere_rel_err_within_rtol", sphere_err <= SPHERE_RTOL, f"sphere_rel_err={sphere_err}"),
        ("promoted_model_written", outcome.get("promoted_source") == "dec-import",
         f"source={outcome.get('promoted_source')}"),
        ("galerkin_harmonic_3", outcome.get("galerkin_harmonic") == 3,
         f"harmonic={outcome.get('galerkin_harmonic')}"),
        ("galerkin_shell_within_rtol", outcome.get("torus_rel_err", float("inf")) <= TORUS_RTOL,
         f"torus_rel_err={outcome.get('torus_rel_err')}"),
        ("refined_counts", outcome.get("refined_counts") == CELL600_REFINED_COUNTS,
         f"counts={outcome.get('refined_counts')}"),
        ("refined_euler_0", outcome.get("refined_euler") == 0,
         f"euler={outcome.get('refined_euler')}"),
    ]


# -- runners -------------------------------------------------------------------
#
# A workload runner takes (seed, size config, work directory) and
# returns (verdict checks, report files written, accuracy values).


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def run_verify_grid(seed: int, cfg: dict, workdir: Path):
    from formlap.cli import main

    # the grid is fixed: this workload ignores the seed
    out = workdir / "verify.json"
    rc = main(["verify", "--n-min", str(cfg["n_min"]), "--n-max", str(cfg["n_max"]),
               "--ell-max", str(cfg["ell_max"]), "--output", str(out)])
    expected = expected_verify_checks(cfg["n_min"], cfg["n_max"], cfg["ell_max"])
    return check_verify(rc, _load(out), expected), [out], {}


def run_torus(seed: int, cfg: dict, workdir: Path):
    from formlap.cli import main

    out = workdir / "torus.json"
    rc = main(["oracle", "torus", "--n", *map(str, cfg["n"]), "--ell-max", str(cfg["ell_max"]),
               "--modes", str(cfg["modes"]), "--seed", str(seed), "--output", str(out)])
    cells = expected_torus_cells(cfg["n"], cfg["ell_max"])
    return check_torus(rc, _load(out), cells, cfg["modes"]), [out]


def run_dec(cfg: dict, workdir: Path):
    from formlap import dec
    from formlap.cli import main
    from formlap.spectral import SpectralModel, torus_preset

    # scripts/run_dec_validation.py: exact Betti numbers of a torus grid,
    # then the 600-cell spectrum against the trusted sphere data, promoted
    torus_out = workdir / "dec_torus.json"
    sphere_out = workdir / "dec_cell600.json"
    promoted = workdir / "sphere_dec_import.json"
    outcome: dict = {}
    outcome["torus_rc"] = main(["oracle", "dec", "--mesh", "torus3-grid",
                                "--size", str(cfg["torus_betti_size"]),
                                "--output", str(torus_out)])
    outcome["sphere_rc"] = main(["oracle", "dec", "--mesh", "cell600", "--k", "1",
                                 "--eigs", "40", "--promote", str(promoted),
                                 "--output", str(sphere_out)])
    outcome["torus_report"] = _load(torus_out)
    outcome["sphere_report"] = _load(sphere_out)
    try:
        outcome["promoted_source"] = SpectralModel.load(promoted).source
    except (OSError, ValueError, KeyError):
        outcome["promoted_source"] = None

    # k = 1 spectrum on a torus grid: not well-centered, so the Galerkin
    # (Whitney) path, compared with the lowest flat-torus shell |xi|^2 = 1
    ref = torus_preset(3, 1, 1)
    shell = [p for p in ref.points if p.kind != "harmonic"]
    shell_value = float(min(p.eigenvalue for p in shell))
    shell_size = sum(p.multiplicity for p in shell if p.eigenvalue == shell_value)
    grid = dec.build_mesh("torus3-grid", cfg["torus_spectrum_size"])
    spec = dec.spectrum(grid, 1, shell_size)
    outcome["galerkin_harmonic"] = sum(1 for _, kind in spec if kind == "harmonic")
    outcome["torus_rel_err"] = torus_shell_error(spec, shell_value, shell_size)

    # the mesh half of criterion 10's refined leg: one barycentric
    # subdivision of the 600-cell, projected onto the unit sphere
    refined = dec.subdivide_barycentric(dec.build_mesh("cell600"), project_radius=1.0)
    outcome["refined_counts"] = list(refined.counts())
    outcome["refined_euler"] = refined.euler_characteristic()

    sphere_err = ((outcome["sphere_report"] or {}).get("report", {})
                  .get("sphere_comparison", {}).get("max_rel_error"))
    accuracy = {"sphere_rel_err": sphere_err, "torus_rel_err": outcome["torus_rel_err"]}
    return check_dec(outcome), [torus_out, sphere_out, promoted], accuracy


def run_oracles(seed: int, cfg: dict, workdir: Path):
    """Both numerical verdicts in one iteration: the torus oracle, then DEC."""
    torus_checks, torus_outputs = run_torus(seed, cfg["torus"], workdir)
    dec_checks, dec_outputs, accuracy = run_dec(cfg["dec"], workdir)
    checks = ([(f"torus.{name}", ok, info) for name, ok, info in torus_checks]
              + [(f"dec.{name}", ok, info) for name, ok, info in dec_checks])
    return checks, torus_outputs + dec_outputs, accuracy


RUNNERS = {
    "verify-grid": run_verify_grid,
    "oracles": run_oracles,
}
