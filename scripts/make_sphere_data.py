#!/usr/bin/env python3
"""Regenerate the unit-3-sphere spectral data file.

Usage: make_sphere_data.py OUTPUT

Writes OUTPUT from the closed-form spectrum of the Hodge Laplacian
pieces on the unit round 3-sphere:

    coexact k-eigenforms:  lambda_j = (j+k)(j+2-k),   j >= 1
    exact   k-eigenforms:  the coexact (k-1) spectrum moved up by d

with multiplicities (j+1)^2 on the function-derived families and
2 j (j+2) on the coexact 1-form / exact 2-form families (the standard
representation-theoretic counts; see any treatment of form spectra on
round spheres).  Harmonic dimensions are the Betti numbers 1,0,0,1.

The shipped copy is src/formlap/data/sphere_s3.json, and this script
reproduces it byte for byte.  The file ships marked trusted only
because the simplicial oracle validates its lowest shells on the
600-cell; rerun `formlap oracle dec --mesh cell600 --k 1` after editing
anything here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SHELLS = 8


def shells(eigenvalue, multiplicity):
    return [
        {"shell": j, "eigenvalue": str(eigenvalue(j)), "multiplicity": multiplicity(j)}
        for j in range(1, SHELLS + 1)
    ]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("output", type=Path, help="path of the JSON file to write")
    out = ap.parse_args(argv).output
    func_eval = lambda j: j * (j + 2)          # function-derived shells
    func_mult = lambda j: (j + 1) ** 2
    co1_eval = lambda j: (j + 1) ** 2          # coexact 1-form shells
    co1_mult = lambda j: 2 * j * (j + 2)

    families = [
        {"k": 0, "harmonic": 1, "exact": [], "coexact": shells(func_eval, func_mult)},
        {"k": 1, "harmonic": 0, "exact": shells(func_eval, func_mult),
         "coexact": shells(co1_eval, co1_mult)},
        {"k": 2, "harmonic": 0, "exact": shells(co1_eval, co1_mult),
         "coexact": shells(func_eval, func_mult)},
        {"k": 3, "harmonic": 1, "exact": shells(func_eval, func_mult), "coexact": []},
    ]
    data = {
        "schema": 1,
        "space": "unit round 3-sphere",
        "n": 3,
        "j_value": "3/2",
        "provenance": (
            "closed-form Hodge-Laplacian spectra of the unit round 3-sphere "
            "(coexact k-form eigenvalues (j+k)(j+2-k) with the standard "
            "representation-theoretic multiplicities); generated by "
            "scripts/make_sphere_data.py"
        ),
        "validation": (
            "lowest shells cross-checked against the simplicial oracle on the "
            "600-cell (circumcentric stars, unit-sphere edge scaling) within "
            "10 percent; see tests/test_acceptance.py and the dec oracle CLI"
        ),
        "trusted": True,
        "families": families,
    }
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
