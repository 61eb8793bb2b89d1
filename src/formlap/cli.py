"""Command-line front end: expansion, verification sweeps, and the oracles.

Report files are split into a metadata envelope (timestamps, versions;
under ``stages``, for ``verify`` each theorem's wall seconds and check
count, for ``oracle dec`` the wall seconds of the mesh (build plus
subdivision), the Betti numbers and the spectrum, and the mesh
f-vector) and a deterministic report payload: identical configurations
produce byte-identical payloads, so reports can be diffed across runs.

Exit codes: 0 all checks passed, 1 a verification or oracle comparison
failed, 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

REPORT_SCHEMA = 1


def _emit_report(payload: dict, output: Path | None, stages: dict | None = None) -> None:
    meta: dict = {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                  "tool": "formlap"}
    if stages is not None:
        meta["stages"] = stages
    doc = {"meta": meta, "report": payload}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)


def _since(start: float) -> float:
    """Wall seconds since a perf_counter reading, rounded as every stage time is."""
    return round(time.perf_counter() - start, 6)


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def report_payload_bytes(path: Path) -> bytes:
    """The deterministic payload of a written report (for diffing)."""
    doc = json.loads(path.read_text())
    return (json.dumps(doc["report"], indent=2, sort_keys=True) + "\n").encode()


# -- expand ---------------------------------------------------------------------


def cmd_expand(args: argparse.Namespace) -> int:
    from .factory import build_L_definition, closed_factors
    from .forms import FormAlgebraError, InternalConsistencyError, proportionality

    if args.output is not None and args.format != "json":
        return _usage_error(f"--output needs --format json: {args.format} output goes to stdout")
    try:
        expanded = build_L_definition(args.n, args.k, args.ell)
        factored = closed_factors(args.n, args.k, args.ell)
    except FormAlgebraError as exc:
        return _usage_error(str(exc))
    c = proportionality(factored.product(), expanded)
    if c is None:
        raise InternalConsistencyError("factored and definition operators are not proportional")
    if args.format == "text":
        print(f"definition expansion: {expanded.render()}")
        print("factors: [" + ", ".join(f.render() for f in factored.factors) + "]")
        print(f"factored = ({c}) * definition")
    elif args.format == "latex":
        print(expanded.render(latex=True))
        print(" \\cdot ".join("\\left(" + f.render(latex=True) + "\\right)"
                              for f in factored.factors))
    else:
        payload = {
            "schema": REPORT_SCHEMA,
            "params": {"n": args.n, "k": args.k, "ell": args.ell},
            "definition": {m: str(v) for m, v in expanded.monomials().items()},
            "factors": [{m: str(v) for m, v in f.monomials().items()}
                        for f in factored.factors],
            "proportionality": str(c),
        }
        _emit_report(payload, args.output)
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_sweep

    try:
        j_value = Fraction(args.j_value)
    except (ValueError, ZeroDivisionError):
        return _usage_error(f"--j-value {args.j_value!r} is not a rational number")
    if args.n_min < 3:
        return _usage_error(f"--n-min {args.n_min} < 3")
    if args.n_max < args.n_min:
        return _usage_error(f"--n-max {args.n_max} < --n-min {args.n_min}: empty sweep")
    if args.ell_max < 1:
        return _usage_error(f"--ell-max {args.ell_max} < 1: empty sweep")
    if j_value == 0 and "kernel" in args.theorems:
        return _usage_error("--j-value 0: the kernel decomposition needs J != 0 "
                            "(a manifold that is not Ricci flat)")
    reports = run_sweep(args.theorems, range(args.n_min, args.n_max + 1), args.ell_max, j_value)
    if not reports:
        return _usage_error("the selected theorems and grid give no checks")
    failures = [r for r in reports if not r.passed]
    payload = {
        "schema": REPORT_SCHEMA,
        "config": {
            "n_range": [args.n_min, args.n_max],
            "ell_max": args.ell_max,
            "theorems": sorted(args.theorems),
            "j_value": str(j_value),
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
    from .torus import compare_pipelines, random_modes

    if min(args.n) < 3:
        return _usage_error(f"--n {min(args.n)} < 3")
    if max(args.n) > 12:  # dense matrices of C(n+2, k)^2 entries, past the symbolic grid
        return _usage_error(f"--n {max(args.n)} > 12: the oracle's dense matrices would not fit")
    if args.ell_max < 1:
        return _usage_error(f"--ell-max {args.ell_max} < 1: no cells")
    if args.modes < 1:
        return _usage_error(f"--modes {args.modes} < 1: nothing to compare")
    cells = []
    status_ok = True
    for n in args.n:
        for k in range(1, n // 2 + 1):
            for ell in range(1, args.ell_max + 1):
                modes = random_modes(n, args.modes, args.seed)
                rep = compare_pipelines(n, k, ell, modes)
                cells.append(rep)
                status_ok &= rep["status"] == "pass"
    payload = {
        "schema": REPORT_SCHEMA,
        "config": {"n": list(args.n), "ell_max": args.ell_max,
                   "modes": args.modes, "seed": args.seed},
        "results": cells,
        "summary": {"cells": len(cells),
                    "max_discrepancy": max(c["max_discrepancy"] for c in cells)},
    }
    _emit_report(payload, args.output)
    if not status_ok:
        bad = [c for c in cells if c["status"] != "pass"]
        print(f"torus oracle mismatch in {len(bad)} cells, e.g. {bad[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_oracle_dec(args: argparse.Namespace) -> int:
    from .dec import (MeshError, betti_numbers, build_mesh, compare_sphere_spectrum,
                      dec_import_model, spectrum, subdivide_barycentric)
    from .spectral import sphere_preset

    if args.promote is not None and args.mesh == "torus3-grid":
        return _usage_error("--promote needs a sphere mesh: torus3-grid has no sphere reference")
    if args.size is not None and args.mesh != "torus3-grid":
        return _usage_error(f"--size is the torus3-grid size: {args.mesh} has one fixed size")
    if not 0 < args.rtol < 1:  # also rejects nan and inf
        return _usage_error(f"--rtol {args.rtol} is not a number in (0, 1)")
    start = time.perf_counter()
    try:
        if args.mesh == "torus3-grid" and (args.size is None or args.size < 3):
            raise MeshError("torus3-grid needs --size m with m >= 3")
        mesh = build_mesh(args.mesh, args.size)
        if args.subdivide:
            mesh = subdivide_barycentric(mesh, project_radius=1.0 if args.mesh != "torus3-grid" else None)
    except MeshError as exc:
        return _usage_error(str(exc))
    stages: dict[str, dict] = {"mesh": {"seconds": _since(start), "f_vector": list(mesh.counts())}}
    if not 0 <= args.k <= mesh.dim:
        return _usage_error(f"--k {args.k} outside 0..{mesh.dim}")
    nk = len(mesh.simplices[args.k])
    if not 1 <= args.eigs <= nk:
        return _usage_error(f"--eigs {args.eigs} outside 1..{nk}, the {args.k}-cochain dimension")
    start = time.perf_counter()
    betti = betti_numbers(mesh)
    stages["betti"] = {"seconds": _since(start)}
    payload: dict = {
        "schema": REPORT_SCHEMA,
        "config": {"mesh": args.mesh, "size": args.size, "k": args.k,
                   "eigs": args.eigs, "subdivide": bool(args.subdivide)},
        "betti": list(betti),
    }
    failure = None  # the one stderr line of a failed run
    if args.mesh in ("cell600", "boundary-4-simplex"):
        start = time.perf_counter()
        spec = spectrum(mesh, args.k, args.eigs)
        stages["spectrum"] = {"seconds": _since(start)}
        reference = sphere_preset(3, args.k, j_max=4)
        cmp = compare_sphere_spectrum(mesh, args.k, spec, reference)
        payload["sphere_comparison"] = cmp
        if cmp["max_rel_error"] > args.rtol:
            failure = (f"sphere spectrum mismatch: max relative error "
                       f"{cmp['max_rel_error']:.4g} > --rtol {args.rtol}")
        if args.promote is not None:
            try:
                model = dec_import_model(mesh, args.k, spec, reference, rtol=args.rtol)
            except MeshError as exc:
                failure = f"promotion failed: {exc}"
            else:
                model.save(args.promote)
                payload["promoted_to"] = str(args.promote)
    _emit_report(payload, args.output, stages)
    if failure is not None:
        print(failure, file=sys.stderr)
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
    p.add_argument("--theorems", nargs="+", default=["factorization", "MMstar", "LG", "bezout", "kernel"],
                   choices=["factorization", "MMstar", "LG", "bezout", "kernel"])
    p.add_argument("--j-value", default="1")
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
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eigs", type=int, default=40)
    p.add_argument("--rtol", type=float, default=0.10)
    p.add_argument("--subdivide", action="store_true")
    p.add_argument("--promote", type=Path, default=None,
                   help="write a dec-import spectral model file after matching")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=cmd_oracle_dec)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # every report and model write ends here on a bad path
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
