"""Import boundaries that keep the oracles independent of the definition engine.

The oracles (torus, dec, whitney, spectral) compute their side of each
comparison themselves: they may ask ``factory`` for the operator under
test, but never import the slotwise formulas of ``tractor``.  And
``tractor`` builds on the ring R alone.  So agreement between the
engine and an oracle is evidence rather than a shared computation.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "formlap"


def package_imports(module):
    """The formlap modules that one module imports anywhere in its source, read by AST."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("formlap."))
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name.split(".")[0] != "formlap":
                    continue
                name = name[len("formlap."):]
            # "from . import x" and "from formlap import x" name modules themselves
            out.update({name.split(".")[0]} if name else {a.name for a in node.names})
    return out


def test_the_import_reader_sees_imports():
    assert package_imports("whitney") == {"dec"}
    assert package_imports("factory") == {"forms", "tractor"}
    assert package_imports("torus") == {"forms", "factory"}  # factory at function level


@pytest.mark.parametrize("oracle", ["torus", "dec", "whitney", "spectral"])
def test_oracles_never_import_tractor(oracle):
    assert "tractor" not in package_imports(oracle)


def test_tractor_imports_only_forms():
    assert package_imports("tractor") == {"forms"}


def test_importing_the_oracles_loads_neither_engine_module():
    # the AST reader above cannot see names reached through the package,
    # so a fresh interpreter shows what importing the oracles really loads
    code = ("import sys, formlap.torus, formlap.dec, formlap.whitney, formlap.spectral; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('formlap'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    loaded = set(proc.stdout.split())
    assert {"formlap.torus", "formlap.dec", "formlap.whitney", "formlap.spectral"} <= loaded
    assert not loaded & {"formlap.tractor", "formlap.factory"}
