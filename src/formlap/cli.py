"""Command-line front end: expansion, verification sweeps, and the oracles.

Report files are split into a metadata envelope (timestamps, versions;
under ``stages``, for ``verify`` each theorem's wall seconds and check
count, for ``oracle dec`` the wall seconds of the mesh (build plus
subdivision), the Betti numbers and the spectrum, and the mesh
f-vector) and a deterministic report payload: identical configurations
produce byte-identical payloads, so reports can be diffed across runs.
A report file is compact JSON with sorted keys, one line written by
the C encoder; ``report_payload_bytes`` reads its payload back in the
canonical indented form, so payload digests do not depend on the layout.
The float fields of ``oracle dec``'s sphere comparison are written to
10 significant digits: their last bits follow the BLAS thread count.

No option loosens a verdict: ``verify`` checks at J = 1, which weight
homogeneity makes stand for every J != 0, and ``oracle dec`` passes and
promotes by one rule with one fixed tolerance, which
``dec.compare_sphere_spectrum`` applies.

Exit codes: 0 all checks passed; 1 a check or comparison failed; 2 bad
input, one ``usage error:`` line, or an I/O error.  A broken invariant
raises ``InternalConsistencyError`` and never exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPORT_SCHEMA = 1


def _emit_report(payload: dict, output: Path | None, stages: dict | None = None) -> None:
    meta: dict = {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                  "tool": "formlap"}
    if stages is not None:
        meta["stages"] = stages
    doc = {"meta": meta, "report": payload}
    text = json.dumps(doc, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)


def _since(start: float) -> float:
    """Wall seconds since a perf_counter reading, rounded as every stage time is."""
    return round(time.perf_counter() - start, 6)


def report_payload_bytes(path: Path) -> bytes:
    """The deterministic payload of a written report (for diffing), indented canonically."""
    doc = json.loads(path.read_text())
    return (json.dumps(doc["report"], indent=2, sort_keys=True) + "\n").encode()


# -- expand ---------------------------------------------------------------------


def cmd_expand(args: argparse.Namespace) -> int:
    from .factory import build_L_definition, closed_factors
    from .forms import InternalConsistencyError, UsageError
    from .verify import verify_factorization

    if args.output is not None and args.format != "json":
        raise UsageError(f"--output needs --format json: {args.format} output goes to stdout")
    expanded = build_L_definition(args.n, args.k, args.ell)
    factors = closed_factors(args.n, args.k, args.ell)
    check = verify_factorization(args.n, args.k, args.ell)
    if not check.passed:
        raise InternalConsistencyError(
            f"factored and definition operators disagree: {check.witness}")
    c = check.witness["constant"]
    if args.format == "text":
        print(f"definition expansion: {expanded.render()}")
        print("factors: [" + ", ".join(f.render() for f in factors) + "]")
        print(f"factored = ({c}) * definition")
    elif args.format == "latex":
        print(expanded.render(latex=True))
        print(" \\cdot ".join("\\left(" + f.render(latex=True) + "\\right)" for f in factors))
    else:
        payload = {
            "schema": REPORT_SCHEMA,
            "params": {"n": args.n, "k": args.k, "ell": args.ell},
            "definition": {m: str(v) for m, v in expanded.monomials().items()},
            "factors": [{m: str(v) for m, v in f.monomials().items()} for f in factors],
            "proportionality": str(c),
        }
        _emit_report(payload, args.output)
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    from .forms import UsageError
    from .verify import THEOREMS, run_sweep

    theorems = list(THEOREMS) if args.theorems is None else args.theorems
    reports = run_sweep(theorems, range(args.n_min, args.n_max + 1), args.ell_max)
    if not reports:
        raise UsageError("the selected theorems and grid give no checks")
    failures = [r for r in reports if not r.passed]
    payload = {
        "schema": REPORT_SCHEMA,
        "config": {
            "n_range": [args.n_min, args.n_max],
            "ell_max": args.ell_max,
            "theorems": sorted(set(theorems)),
            "j_value": "1",  # the sweep's J, which stands for every J != 0 (weight grading)
        },
        "results": [r.as_json() for r in reports],
        "summary": {"checks": len(reports), "failed": len(failures)},
    }
    stages: dict[str, dict] = {}
    for r in reports:
        stage = stages.setdefault(r.theorem, {"checks": 0, "seconds": 0.0})
        stage["checks"] += 1
        stage["seconds"] += r.seconds
    for stage in stages.values():
        stage["seconds"] = round(stage["seconds"], 6)
    _emit_report(payload, args.output, stages)
    for r in failures[:10]:
        print(f"FAIL {r.theorem} {r.params}: {r.witness}", file=sys.stderr)
    return 0 if not failures else 1


# -- oracles ---------------------------------------------------------------------


def cmd_oracle_torus(args: argparse.Namespace) -> int:
    from .factory import default_grid
    from .forms import UsageError
    from .torus import compare_pipelines, random_modes

    if min(args.n) < 3:
        raise UsageError(f"--n {min(args.n)} < 3")
    if max(args.n) > 12:  # dense C(n+2, k) x C(n, k) blocks per mode, past the symbolic grid
        raise UsageError(f"--n {max(args.n)} > 12: the oracle's dense matrices would not fit")
    if args.ell_max < 1:
        raise UsageError(f"--ell-max {args.ell_max} < 1: no cells")
    if args.modes < 1:
        raise UsageError(f"--modes {args.modes} < 1: nothing to compare")
    dims = sorted(set(args.n))
    cells = [compare_pipelines(n, k, ell, random_modes(n, args.modes, args.seed))
             for n, k, ell in default_grid(dims, args.ell_max)]
    payload = {
        "schema": REPORT_SCHEMA,
        "config": {"n": dims, "ell_max": args.ell_max,
                   "modes": args.modes, "seed": args.seed},
        "results": cells,
        "summary": {"cells": len(cells),
                    "max_discrepancy": max(c["max_discrepancy"] for c in cells)},
    }
    _emit_report(payload, args.output)
    bad = [c for c in cells if c["status"] != "pass"]
    if bad:
        print(f"torus oracle mismatch in {len(bad)} cells, e.g. {bad[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_oracle_dec(args: argparse.Namespace) -> int:
    from .dec import (build_mesh, compare_sphere_spectrum, dec_import_model, spectrum,
                      subdivide_barycentric)
    from .forms import UsageError
    from .spectral import sphere_preset

    sphere = args.mesh != "torus3-grid"
    if not sphere:  # the torus grid reports Betti numbers only
        for flag, value in (("--k", args.k), ("--eigs", args.eigs), ("--promote", args.promote)):
            if value is not None:
                raise UsageError(f"{flag} needs a sphere mesh: torus3-grid computes no spectrum")
    if sphere and args.size is not None:
        raise UsageError(f"--size is the torus3-grid size: {args.mesh} has one fixed size")
    start = time.perf_counter()
    mesh = build_mesh(args.mesh, args.size)
    if args.subdivide:
        mesh = subdivide_barycentric(mesh, project_radius=1.0)
    stages: dict[str, dict] = {"mesh": {"seconds": _since(start), "f_vector": list(mesh.counts())}}
    config = {"mesh": args.mesh, "size": args.size, "subdivide": bool(args.subdivide)}
    if sphere:
        k = config["k"] = 1 if args.k is None else args.k
        if not 0 <= k <= mesh.dim:
            raise UsageError(f"--k {k} outside 0..{mesh.dim}")
        nk = len(mesh.simplices[k])
        eigs = config["eigs"] = min(40, nk) if args.eigs is None else args.eigs
        if not 1 <= eigs <= nk:
            raise UsageError(f"--eigs {eigs} outside 1..{nk}, the {k}-cochain dimension")
    start = time.perf_counter()
    betti = mesh.betti
    stages["betti"] = {"seconds": _since(start)}
    payload: dict = {"schema": REPORT_SCHEMA, "config": config, "betti": list(betti)}
    failure = None  # why the sphere comparison failed
    if sphere:
        start = time.perf_counter()
        spec = spectrum(mesh, k, eigs)
        stages["spectrum"] = {"seconds": _since(start)}
        reference = sphere_preset(mesh.dim, k, j_max=4)
        payload["sphere_comparison"], failure = compare_sphere_spectrum(mesh, k, spec, reference)
        if failure is None and args.promote is not None:
            dec_import_model(reference).save(args.promote)
            payload["promoted_to"] = str(args.promote)
    _emit_report(payload, args.output, stages)
    if failure is not None:
        print(f"sphere spectrum mismatch: {failure}", file=sys.stderr)
        return 1
    return 0


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="formlap", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expanded and factored operator for one (n, k, ell)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="verification sweep over a parameter grid")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--ell-max", type=int, default=6)
    p.add_argument("--theorems", nargs="+", default=None,
                   help="names from verify.THEOREMS (default: all of them)")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=cmd_verify)

    po = sub.add_parser("oracle", help="numerical oracles")
    osub = po.add_subparsers(dest="oracle_kind", required=True)

    p = osub.add_parser("torus", help="flat-torus mode-matrix comparison")
    p.add_argument("--n", type=int, nargs="+", default=[3, 4, 5])
    p.add_argument("--ell-max", type=int, default=3)
    p.add_argument("--modes", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=cmd_oracle_torus)

    p = osub.add_parser("dec", help="simplicial mesh oracle")
    p.add_argument("--mesh", choices=("cell600", "boundary-4-simplex", "torus3-grid"),
                   required=True)
    p.add_argument("--size", type=int, default=None, help="grid size for torus3-grid")
    p.add_argument("--k", type=int, default=None, help="form degree, sphere meshes (default 1)")
    p.add_argument("--eigs", type=int, default=None,
                   help="nonzero eigenvalues, sphere meshes (default min(40, k-cochain dimension))")
    p.add_argument("--subdivide", action="store_true")
    p.add_argument("--promote", type=Path, default=None,
                   help="write a dec-import spectral model file after matching")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=cmd_oracle_dec)
    return ap


def main(argv: list[str] | None = None) -> int:
    from .forms import UsageError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:  # each input rule raises it where it lives
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every report and model write ends here on a bad path
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
