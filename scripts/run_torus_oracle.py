#!/usr/bin/env python3
"""Flat-torus oracle sweep: exact mode-matrix comparison at J = 0.

Runs dimensions 3..8 with orders up to 6 and 50 pseudorandom modes per
cell (seed 1): the 90 cells of the acceptance suite's criterion 9.
Usage: run_torus_oracle.py [report.json]; exits 1 on any mismatch.
"""

import sys
from pathlib import Path

from formlap.cli import main

if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("torus_oracle_report.json")
    sys.exit(main(["oracle", "torus", "--n", "3", "4", "5", "6", "7", "8", "--ell-max", "6",
                   "--modes", "50", "--seed", "1", "--output", str(out)]))
