"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every symbolic criterion is an exact-arithmetic statement with zero
tolerance; the simplicial oracle carries the one stated numerical
tolerance (10 percent on the lowest sphere shells, improving under one
subdivision).  Grid: dimensions 3..12, all valid form degrees, orders
1..6.

Two printed-source defects are certified rather than asserted away; the
details live in the repository notes and in the helper tests at the
bottom: the degree-lowering companion scalar (off by k/(k-1)) and the
relative-inverse pairs at weight zero (provably nonexistent for the
pure-F factor).  The corresponding criteria are checked in the
corrected form and the defect is pinned by its own assertion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from formlap.factory import (box_iterate, build_L_definition, build_tmodbox, closed_factors,
                             closed_operator, closed_tmodbox, default_grid, operator_weight)
from formlap.verify import (verify_LG, verify_MMstar, verify_bezout_pairs, verify_factorization,
                            verify_kernel_decomposition)

GRID = list(default_grid(range(3, 13), 6))


def report(capfd, name, ok, detail=""):
    with capfd.disabled():
        print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_01_factorization(capfd):
    t0 = time.time()
    failures = []
    for n, k, ell in GRID:
        r = verify_factorization(n, k, ell)
        if not r.passed:
            failures.append((n, k, ell, r.witness))
    elapsed = time.time() - t0
    report(capfd, "1 factorization (full grid, exact proportionality)",
           not failures and elapsed < 60,
           f"{len(GRID)} triples, {len(failures)} failures, {elapsed:.1f}s (< 60s)")


def test_criterion_02_order_one_equality(capfd):
    bad = [(n, k) for n in range(3, 13) for k in range(1, n // 2 + 1)
           if build_L_definition(n, k, 1).monomials() != closed_operator(n, k, 1).monomials()]
    report(capfd, "2 order-one closed form with constant exactly 1",
           not bad, f"{sum(n // 2 for n in range(3, 13))} pairs, {len(bad)} failures")


def test_criterion_03_recursion(capfd):
    failures = []
    count = 0
    forced = 0
    for n, k, ell in GRID:
        for p in range(1, ell):
            count += 1
            if operator_weight(n, k, ell) == 1 and p == 2:
                forced += 1
            r = verify_MMstar(n, k, ell, p)
            if not r.passed:
                failures.append((n, k, ell, p, r.witness))
    report(capfd, "3 order recursion (all valid p, exact scalars)",
           not failures and forced > 0,
           f"{count} instances incl. {forced} forced p=2 at weight one, {len(failures)} failures")


def test_criterion_04_second_order_reductions(capfd):
    bad = []
    for n, k, ell in GRID:
        w = operator_weight(n, k, ell)
        if build_tmodbox(n, k, w, 1).monomials() != closed_tmodbox(n, k, w, 1).monomials():
            bad.append(("p1", n, k, ell))
        lhs = build_tmodbox(n, k, w - 1, 1) * build_tmodbox(n, k, w, 1)
        scalar = Fraction(-1, k) * (w - 1) * (n + w - 2 * k - 1)
        if lhs.monomials() != build_tmodbox(n, k, w, 2).scale(scalar).monomials():
            bad.append(("square", n, k, ell))
    # on weight-1 forms, -(2/k) times the two leading factors at ell = n/2 - k + 1,
    # [(n/2-k-1/2) E + (n/2-k+1/2) F] [E - F + (4/n)(n/2-k) J]
    for n in range(4, 13, 2):
        for k in range(1, n // 2):
            first, second = closed_factors(n, k, n // 2 - k + 1)[:2]
            if build_tmodbox(n, k, 1, 2) != (first * second).scale(Fraction(-2, k)):
                bad.append(("p2w1", n, k))
    report(capfd, "4 second-order reduction closed forms and square relation",
           not bad, f"{len(bad)} failures")


def test_criterion_05_companion_relations(capfd):
    failures = [(n, k, ell) for n, k, ell in GRID if not verify_LG(n, k, ell).passed]
    report(capfd, "5 companion relations (first as printed; second with the "
           "k/(k-1)-corrected scalar, defect certified separately)",
           not failures, f"{len(GRID)} triples, {len(failures)} failures")


def test_criterion_06_slot_vanishing_symbolic(capfd):
    bad = []
    for n, k, ell in GRID:
        t = box_iterate(n, k, operator_weight(n, k, ell), ell)
        if not t.slot_y.is_zero:
            bad.append((n, k, ell))
    report(capfd, "6a top/second slot vanishing at the operator weight (symbolic)",
           not bad, f"{len(GRID)} pipelines, {len(bad)} failures")


def test_criterion_06_slot_vanishing_numeric(capfd):
    from formlap.torus import _row_blocks, pipeline_matrix, random_modes

    bad = 0
    checked = 0
    for n in (3, 4, 5):
        for k in range(1, n // 2 + 1):
            for ell in (1, 2):
                blocks = _row_blocks(n, k)
                for full in pipeline_matrix(n, k, ell, random_modes(n, 4, seed=11)):
                    checked += 1
                    for name in ("y", "w"):
                        if np.any(full[blocks[name]] != 0):
                            bad += 1
    report(capfd, "6b top/second slot vanishing in the flat matrix oracle",
           bad == 0, f"{checked} mode pipelines, {bad} failures")


def test_criterion_07_relative_inverses(capfd):
    failures = []
    obstructed = []
    pairs = 0
    for n, k, ell in GRID:
        if ell < 2:
            continue
        r = verify_bezout_pairs(n, k, ell)
        pairs += r.witness.get("pairs_solved", 0) if r.witness else 0
        if not r.passed:
            failures.append((n, k, ell, r.witness))
        elif "obstructed_at_w0" in r.witness:
            obstructed.append((n, k, ell))
    # the obstructed pairs occur exactly at weight zero (printed-source defect,
    # certified: the pure-F factor generates a proper ideal against any E part)
    all_w0 = all(operator_weight(n, k, ell) == 0 for n, k, ell in obstructed)
    report(capfd, "7 relative-inverse pairs re-multiplying to 1 "
           "(weight-zero obstruction certified)",
           not failures and all_w0,
           f"{pairs} pairs solved, {len(obstructed)} weight-zero decompositions obstructed, "
           f"{len(failures)} failures")


def test_criterion_08_kernel_decomposition(capfd):
    from formlap.dec import build_mesh, compare_sphere_spectrum, dec_import_model, spectrum
    from formlap.spectral import sphere_preset, synthetic_model

    failures = []
    for n, k, ell in GRID:
        model = synthetic_model(n, k, ell, Fraction(1))
        r = verify_kernel_decomposition(n, k, ell, model)
        if not r.passed:
            failures.append((n, k, ell, r.witness))
    # eigenvalue-list distinctness across the factor index, whole grid
    distinct_ok = True
    for n, k, ell in GRID:
        w = operator_weight(n, k, ell)
        bars = {Fraction(2, n) * (w - i) * (w - i + n - 2 * k + 1) for i in range(1, ell + 1)}
        tils = {Fraction(2, n) * (w - i + 1) * (w - i + n - 2 * k) for i in range(1, ell + 1)}
        distinct_ok &= len(bars) == ell and len(tils) == ell
    # the imported sphere model
    mesh = build_mesh("cell600")
    reference, spec = sphere_preset(3, 1, 4), spectrum(mesh, 1, 40)
    sphere = dec_import_model(reference)
    sphere_ok = compare_sphere_spectrum(mesh, 1, spec, reference)[1] is None and all(
        verify_kernel_decomposition(3, 1, ell, sphere).passed for ell in (1, 2, 3))
    report(capfd, "8 kernel decomposition on synthetic and imported sphere models",
           not failures and distinct_ok and sphere_ok,
           f"{len(GRID)} synthetic models, {len(failures)} failures; "
           f"eigenvalue distinctness {'ok' if distinct_ok else 'VIOLATED'}; "
           f"sphere import {'ok' if sphere_ok else 'FAILED'}")


def test_criterion_09_torus_oracle(capfd):
    from formlap.torus import compare_pipelines, random_modes

    t0 = time.time()
    worst = 0
    cells = {}  # modes per cell -> cells
    for n in range(3, 13):
        modes = 50 if n <= 8 else 10
        for k in range(1, n // 2 + 1):
            for ell in range(1, 7):
                rep = compare_pipelines(n, k, ell, random_modes(n, modes, seed=1))
                worst = max(worst, rep["max_discrepancy"])
                cells[modes] = cells.get(modes, 0) + 1
    elapsed = time.time() - t0
    report(capfd, "9 flat-torus oracle, exact agreement at J = 0",
           worst == 0 and elapsed < 30,
           " + ".join(f"{count} cells x {modes} modes" for modes, count in cells.items())
           + f", max discrepancy {worst}, {elapsed:.1f}s (< 30s)")


def test_criterion_10_dec_oracle(capfd):
    from formlap.dec import build_mesh, compare_sphere_spectrum, spectrum, subdivide_barycentric
    from formlap.spectral import sphere_preset

    t0 = time.time()
    torus = build_mesh("torus3-grid", 3)
    sphere = build_mesh("cell600")
    refined_mesh = subdivide_barycentric(sphere, project_radius=1.0)
    betti_ok = (torus.betti == (1, 3, 3, 1) and sphere.betti == (1, 0, 0, 1)
                and refined_mesh.betti == (1, 0, 0, 1))

    reference = sphere_preset(3, 1, 2)
    coarse, _ = compare_sphere_spectrum(sphere, 1, spectrum(sphere, 1, 40), reference)
    refined, _ = compare_sphere_spectrum(refined_mesh, 1, spectrum(refined_mesh, 1, 12), reference)
    elapsed = time.time() - t0
    ok = (betti_ok and coarse["max_rel_error"] <= 0.10
          and refined["max_rel_error"] < coarse["max_rel_error"]
          and elapsed < 300)
    report(capfd, "10 simplicial oracle: exact Betti, sphere shells within 10%, "
           "improving under one subdivision",
           ok,
           f"betti {'ok' if betti_ok else 'WRONG'}; coarse max rel err "
           f"{coarse['max_rel_error']:.3f} (<= 0.10), refined {refined['max_rel_error']:.3f}; "
           f"{elapsed:.0f}s (< 300s)")


def test_criterion_11_self_adjointness_surrogate(capfd):
    bad = []
    for n, k, ell in GRID:
        mono = build_L_definition(n, k, ell).monomials()
        if not all(m == "1" or m[0] in "EF" for m in mono):
            bad.append((n, k, ell))
    report(capfd, "11 expanded operators contain only E^p, F^q and constant monomials",
           not bad, f"{len(GRID)} operators, {len(bad)} failures")
