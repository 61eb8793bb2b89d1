"""Every function in ``src/`` is reached by a CLI run, or listed here with its reason.

A fixed list of ``formlap`` command lines runs in one fresh interpreter
under ``sys.setprofile``: the package's ``lru_cache``s would be warm in
this one, and a function whose result is cached is not called again.
A function is identified by its file and the first line of its code
(a decorated function's code starts at its first decorator) and
reported as module.qualified_name; lambdas, comprehensions and class
bodies are not counted.

The allow-list can only shrink: the test fails on a function that no
run reaches and the list does not hold, and on a listed function that a
run reaches.  A function reached only to write a file that nothing in
the package reads counts as unreached, so no run passes ``--promote``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "formlap"

# (command line, exit code); each run that writes a report writes it to
# an output file, named by the placeholder OUT
RUNS = [
    (["expand", "--n", "6", "--k", "2", "--ell", "3"], 0),
    (["expand", "--n", "6", "--k", "3", "--ell", "2", "--format", "latex"], 0),  # middle degree
    (["expand", "--n", "6", "--k", "2", "--ell", "3", "--format", "json", "--output", "OUT"], 0),
    (["verify", "--n-max", "6", "--ell-max", "3", "--output", "OUT"], 0),
    (["oracle", "torus", "--n", "3", "--ell-max", "2", "--modes", "3", "--output", "OUT"], 0),
    (["oracle", "dec", "--mesh", "torus3-grid", "--size", "3", "--output", "OUT"], 0),
    (["oracle", "dec", "--mesh", "cell600", "--k", "1", "--output", "OUT"], 0),
    # the only run that builds the 5-cell; its spectrum fails the sphere comparison
    (["oracle", "dec", "--mesh", "boundary-4-simplex", "--k", "2", "--output", "OUT"], 1),
    # the only run that subdivides, and so the only one on the sparse eigensolver
    (["oracle", "dec", "--mesh", "cell600", "--subdivide", "--k", "1", "--eigs", "12",
      "--output", "OUT"], 0),
]

# every run in order, each profiled; writes {"codes": [...], "reached": [[file, line], ...]}
CHILD = """
import json, sys
from formlap.cli import main

src, runs, result = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

codes = []
for argv in runs:
    sys.setprofile(profile)
    try:
        codes.append(main(argv))
    finally:
        sys.setprofile(None)
reached = sorted({(c.co_filename, c.co_firstlineno) for c in seen if c.co_filename.startswith(src)})
with open(result, "w") as out:
    json.dump({"codes": codes, "reached": reached}, out)
"""

TRACER = "the benchmark tracer patches or spans it, or counts its calls (ROADMAP item 1)"
REFERENCE = ("the benchmark tracer imports CMat and patches its matrix product, and the tests "
             "use it as their exact reference (ROADMAP item 1)")
WORKLOAD = "a benchmark workload calls it (ROADMAP item 1)"
GALERKIN = ("a benchmark workload calls it: the Galerkin route, which no CLI mesh takes, since "
            "every sphere mesh is well-centered (ROADMAP items 1 and 12)")
PROMOTION = ("reached only by --promote, to write a model file that nothing in the package "
             "reads (ROADMAP item 16)")
THEOREM = "the closed-form reference of a criterion that no theorem checks yet (ROADMAP item 2)"
FAILURE = "runs only on a failing check, which no passing run makes"
DEBUG = "debug text, which no command prints"

ALLOWED = {
    **{f"coeffring.RatJ.{name}": TRACER
       for name in ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                    "__rtruediv__", "inv")},
    "forms.to_operator_poly": TRACER,
    "spectral.kernel_dim": TRACER,
    "dec.integer_rank": TRACER,
    "dec.is_well_centered": TRACER,
    "torus.box_matrix": TRACER,
    **{f"torus.{name}": REFERENCE
       for name in ("_obj", "CMat.real", "CMat.zero", "CMat.eye", "CMat.__add__", "CMat.__sub__",
                    "CMat.__matmul__", "CMat.scale", "CMat.scale_imag", "CMat.is_real",
                    "CMat.is_zero", "CMat.__eq__")},
    "cli.report_payload_bytes": WORKLOAD,
    "dec.SimplicialMesh.euler_characteristic": WORKLOAD,
    "spectral.SpectralModel.from_json": WORKLOAD,
    "spectral.SpectralModel.load": WORKLOAD,
    "spectral.torus_preset": GALERKIN,
    **{f"whitney.{name}": GALERKIN
       for name in ("_assemble", "_gram_det", "whitney_masses", "galerkin_laplacian")},
    "dec.dec_import_model": PROMOTION,
    "spectral.SpectralModel.save": PROMOTION,
    "spectral.SpectralModel.as_json": PROMOTION,
    **{f"factory.{name}": THEOREM for name in ("closed_companion", "closed_tmodbox")},
    "verify._diff_witness": FAILURE,
    "verify._delta_witness": FAILURE,
    "tractor.TractorFormExpr.render": FAILURE,
    "coeffring.RatJ.__eq__": FAILURE,
    "coeffring.RatJ.__repr__": DEBUG,
    "forms.OperatorPoly.__repr__": DEBUG,
}


def src_functions():
    """module.qualified_name of every function in src/, keyed by (file, first line of its code)."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                out[str(path), first] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return out


def reached_functions(runs, tmp_path):
    """The exit code of each run and the src/ functions the runs reach, in a fresh interpreter."""
    argvs = [[str(tmp_path / f"run{i}.json") if a == "OUT" else a for a in argv]
             for i, (argv, _) in enumerate(runs)]
    result = tmp_path / "reached.json"
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), json.dumps(argvs), str(result)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    return doc["codes"], {tuple(key) for key in doc["reached"]}


def test_the_allow_list_covers_exactly_the_unreached_functions(tmp_path):
    functions = src_functions()
    codes, reached = reached_functions(RUNS, tmp_path)
    assert codes == [code for _, code in RUNS]
    unreached = {name for key, name in functions.items() if key not in reached}
    unlisted = sorted(unreached - set(ALLOWED))
    assert not unlisted, f"no CLI run reaches {unlisted}: call them or delete them"
    listed = sorted(set(ALLOWED) - unreached)
    assert not listed, f"a CLI run reaches {listed}: take them off the allow-list"
    assert all(ALLOWED.values())
