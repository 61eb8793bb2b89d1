#!/usr/bin/env python3
"""Simplicial oracle validation run.

Checks the exact Betti numbers of the 3x3x3 torus grid and of the
600-cell, compares the 600-cell spectrum against the trusted sphere
data file, and writes a promoted dec-import spectral model next to the
report.
"""

import sys
from pathlib import Path

from formlap.cli import main

if __name__ == "__main__":
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    rc = 0
    rc |= main(["oracle", "dec", "--mesh", "torus3-grid", "--size", "3",
                "--output", str(outdir / "dec_torus.json")])
    rc |= main(["oracle", "dec", "--mesh", "cell600", "--k", "1", "--eigs", "40",
                "--promote", str(outdir / "sphere_dec_import.json"),
                "--output", str(outdir / "dec_cell600.json")])
    sys.exit(rc)
