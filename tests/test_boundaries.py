"""Import boundaries that keep the oracles independent of the definition engine,
and the boundary between bad input and faults.

The oracles (torus, dec, whitney, spectral) compute their side of each
comparison themselves: they may ask ``factory`` for the operator under
test, but never import the slotwise formulas of ``tractor``.  And
``tractor`` builds on the ring R alone.  So agreement between the
engine and an oracle is evidence rather than a shared computation.

Every error the package raises is one of its own classes, and only
``cli.main`` catches ``UsageError``, so no fault can pass as bad input.

Operators are values: ``OperatorPoly`` is a slotted class whose
immutability is kept by its source, not enforced at run time, so the
source is read for writes to its fields.
"""

import ast
import importlib
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
    assert package_imports("whitney") == {"dec", "forms"}
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


def test_the_oracle_commands_never_load_verify(tmp_path):
    # the torus oracle takes its grid from factory, and the parser names no
    # theorem, so only `formlap verify` pays for importing verify
    code = ("import sys; from formlap.cli import main; "
            f"rc = main(['oracle', 'torus', '--n', '3', '--ell-max', '1', '--modes', '2', "
            f"'--output', {str(tmp_path / 'torus.json')!r}]); "
            "print(rc, ' '.join(sorted(m for m in sys.modules if m.startswith('formlap'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    rc, *loaded = proc.stdout.split()
    assert rc == "0" and "formlap.torus" in loaded
    assert "formlap.verify" not in loaded


def test_raises_name_package_errors_and_only_main_catches_usage_errors():
    from formlap.forms import UsageError

    errors = set()  # the exception classes the package defines
    for path in SRC.glob("[!_]*.py"):
        module = importlib.import_module(f"formlap.{path.stem}")
        errors |= {name for name, obj in vars(module).items() if isinstance(obj, type)
                   and issubclass(obj, Exception) and obj.__module__ == module.__name__}
    # the census: a new exception class shows up here as a diff
    assert errors == {"UsageError", "InternalConsistencyError", "CoefficientError", "BezoutError"}
    # a handler of any of these would also catch a UsageError
    usage_catchers = {cls.__name__ for cls in UsageError.__mro__}
    main_catches = False
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        outside = {a.asname or a.name for node in tree.body  # names imported from other packages
                   if isinstance(node, ast.ImportFrom) and node.level == 0
                   and node.module.split(".")[0] != "formlap" for a in node.names}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Raise):
                exc = node.exc
                assert isinstance(exc, ast.Call) and getattr(exc.func, "id", None) in errors, where
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(t, "id", getattr(t, "attr", None)) for t in caught}
            if node.type is not None and not names & usage_catchers:
                continue
            function = parents[node]
            while not isinstance(function, ast.FunctionDef):
                function = parents[function]
            if path.stem == "cli" and function.name == "main":
                main_catches |= "UsageError" in names
                continue
            # elsewhere such a handler may only guard calls into other packages (parsing)
            calls = {getattr(c.func, "id", None) for s in parents[node].body
                     for c in ast.walk(s) if isinstance(c, ast.Call)}
            assert "UsageError" not in names and calls <= outside, where
    assert main_catches


def _spectrum_above_the_top_degree():
    from formlap.dec import build_mesh, spectrum

    mesh = build_mesh("boundary-4-simplex")
    spectrum(mesh, mesh.dim + 1, 1)


def _galerkin_at_degree_two():
    from formlap.dec import build_mesh
    from formlap.whitney import galerkin_laplacian

    galerkin_laplacian(build_mesh("boundary-4-simplex"), 2)


def _tmodbox_at_p_zero():
    from fractions import Fraction

    from formlap.factory import build_tmodbox

    build_tmodbox(6, 2, Fraction(1), 0)


def _negative_multiplicity():
    from fractions import Fraction

    from formlap.spectral import SpectralPoint

    SpectralPoint("exact", Fraction(1), -1)


def _unknown_model_schema():
    from formlap.spectral import SpectralModel

    SpectralModel.from_json({"schema": 2, "n": 4, "k": 1, "j_value": "1", "points": []})


@pytest.mark.parametrize("rule, message", [
    (_spectrum_above_the_top_degree, "degree 4 outside 0..3"),
    (_galerkin_at_degree_two, "degrees 0 and 1 only"),
    (_tmodbox_at_p_zero, "p = 0 < 1"),
    (_negative_multiplicity, "negative multiplicity"),
    (_unknown_model_schema, "schema 2"),
], ids=["spectrum-degree", "galerkin-degree", "tmodbox-p", "multiplicity", "model-schema"])
def test_input_rules_behind_the_commands_raise_usage_errors(rule, message):
    # rules that no command fires: the CLI checks --k itself, and no
    # command reaches the others with bad input
    from formlap.forms import UsageError

    with pytest.raises(UsageError, match=message):
        rule()


def test_cli_names_no_theorem():
    # what a theorem is, its grid and its input rules, lives in verify.THEOREMS
    from formlap.verify import THEOREMS

    constants = [node for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
                 if isinstance(node, ast.Constant) and node.value in THEOREMS]
    assert [f"cli.py:{node.lineno} {node.value!r}" for node in constants] == []


# every subcommand's options, help aside: a new option, one that could
# loosen a verdict included, shows up as a diff of this table
OPTIONS = {
    "expand": {"--n", "--k", "--ell", "--format", "--output"},
    "verify": {"--n-min", "--n-max", "--ell-max", "--theorems", "--output"},
    "oracle torus": {"--n", "--ell-max", "--modes", "--seed", "--output"},
    "oracle dec": {"--mesh", "--size", "--k", "--eigs", "--subdivide", "--promote", "--output"},
}


def test_option_census():
    import argparse

    from formlap.cli import build_parser

    def commands(parser, prefix=""):
        """(command path, option strings) of each leaf parser under parser."""
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield prefix.strip(), {o for a in parser._actions for o in a.option_strings
                                   if not isinstance(a, argparse._HelpAction)}
        for action in subs:
            for name, child in action.choices.items():
                yield from commands(child, f"{prefix} {name}")

    assert dict(commands(build_parser())) == OPTIONS


def _attribute_writes(tree):
    """(node, attribute name) of each attribute store or delete, and each setattr/delattr by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node, node.attr
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in {"setattr", "delattr", "__setattr__", "__delattr__"}
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            yield node, node.args[1].value


def test_operator_fields_are_written_only_by_the_constructor():
    from formlap.forms import OperatorPoly

    op = OperatorPoly(6, 2, 1, 0, (1,))
    assert not hasattr(op, "__dict__")
    with pytest.raises(TypeError):
        hash(op)
    fields = set(OperatorPoly.__slots__)
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    (init,) = [f for c in trees["forms.py"].body
               if isinstance(c, ast.ClassDef) and c.name == "OperatorPoly"
               for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
    inside = set(ast.walk(init))
    assert {name for node, name in _attribute_writes(init)} == fields  # the reader sees them
    writes = [f"{name}:{node.lineno} {attr}" for name, tree in trees.items()
              for node, attr in _attribute_writes(tree) if attr in fields and node not in inside]
    assert writes == []
