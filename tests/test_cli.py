import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from formlap.cli import _emit_report, main, report_payload_bytes

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args):
    return main(args)


def test_expand_text(capsys):
    assert run_cli(["expand", "--n", "8", "--k", "2", "--ell", "1"]) == 0
    out = capsys.readouterr().out
    assert "E + 3F + (3/2*J)" in out
    assert "(-2) * definition" in out


def test_expand_middle_degree(capsys):
    assert run_cli(["expand", "--n", "4", "--k", "2", "--ell", "1"]) == 0
    out = capsys.readouterr().out
    assert "-E + F" in out and "E - F" in out


def test_expand_latex(capsys):
    assert run_cli(["expand", "--n", "6", "--k", "1", "--ell", "1", "--format", "latex"]) == 0
    assert "d\\delta" in capsys.readouterr().out


def test_expand_usage_error(capsys, tmp_path):
    target = tmp_path / "out.txt"
    for args, needle in ((["--n", "3", "--k", "2", "--ell", "1"], "k = 2"),
                         (["--n", "2", "--k", "1", "--ell", "1"], "n = 2"),
                         (["--n", "3", "--k", "1", "--ell", "0"], "ell = 0"),
                         (["--n", "3", "--k", "1", "--ell", "1", "--format", "text",
                           "--output", str(target)], "--output"),
                         (["--n", "3", "--k", "1", "--ell", "1", "--format", "latex",
                           "--output", str(target)], "--output")):
        assert run_cli(["expand", *args]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:") and needle in lines[0]
        assert captured.out == ""
    assert not target.exists()


def test_expand_ring_fault_is_not_a_usage_error(monkeypatch):
    # a product of the wrong order breaks an identity of R: a fault, not bad input.
    # The factor product is then J^2 times the definition, no rational constant
    from formlap.forms import InternalConsistencyError, OperatorPoly

    real_mul = OperatorPoly.__mul__
    monkeypatch.setattr(OperatorPoly, "__mul__",
                        lambda a, b: OperatorPoly.combine(((1, 1, real_mul(a, b)),)))
    with pytest.raises(InternalConsistencyError, match="operators disagree"):
        run_cli(["expand", "--n", "8", "--k", "2", "--ell", "3"])


def test_expand_unwritable_output(capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "x.json"
    assert run_cli(["expand", "--n", "6", "--k", "1", "--ell", "2", "--format", "json",
                    "--output", str(target)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error:")


def test_verify_small_sweep(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--n-min", "4", "--n-max", "5", "--ell-max", "2",
                    "--theorems", "factorization", "LG", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["schema"] == 1
    assert doc["report"]["summary"]["failed"] == 0
    assert {r["theorem"] for r in doc["report"]["results"]} == {"factorization", "LG"}
    assert "generated_at" in doc["meta"]


def test_verify_deterministic_payload(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--n-min", "4", "--n-max", "4", "--ell-max", "2",
            "--theorems", "kernel", "bezout"]
    assert run_cli(args + ["--output", str(a)]) == 0
    assert run_cli(args + ["--output", str(b)]) == 0
    assert report_payload_bytes(a) == report_payload_bytes(b)


def test_report_file_is_compact_and_reads_back_to_the_emitted_document(tmp_path):
    out, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    payload = {"schema": 1, "results": [{"witness": {"monomial": "δ∘E^2", "lhs": "-3/2*J"},
                                         "error": 0.1 + 0.2, "status": "pass"}]}
    stages = {"kernel": {"checks": 2, "seconds": 0.012345}}
    _emit_report(payload, out, stages)
    text = out.read_text()
    doc = json.loads(text)
    assert doc["report"] == payload and doc["meta"]["stages"] == stages
    # one line, sorted keys, no indentation
    assert text == json.dumps(doc, sort_keys=True) + "\n" and text.count("\n") == 1
    # the payload bytes are the canonical indented form, whatever the file's layout
    indented.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert report_payload_bytes(out) == report_payload_bytes(indented)
    assert report_payload_bytes(out) == (json.dumps(payload, indent=2, sort_keys=True)
                                         + "\n").encode()


# sha256 of the deterministic payload of the default-grid `formlap verify`
# (1330 checks); any drift in rendering or in a verdict changes it
DEFAULT_VERIFY_PAYLOAD_SHA256 = "a3d48c4363049b0906babddd77e494455eb4f5c883e33963de4d71b3ab6a218f"


def test_verify_default_grid_golden_payload(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--output", str(out)]) == 0
    digest = hashlib.sha256(report_payload_bytes(out)).hexdigest()
    assert digest == DEFAULT_VERIFY_PAYLOAD_SHA256
    # the envelope, outside the payload, times each theorem and counts its checks
    stages = json.loads(out.read_text())["meta"]["stages"]
    assert {name: stage["checks"] for name, stage in stages.items()} == {
        "factorization": 210, "MMstar": 525, "LG": 210, "bezout": 175,
        "kernel-decomposition": 210}
    assert all(stage["seconds"] > 0 for stage in stages.values())


# sha256 of the deterministic payload of `formlap verify --n-min 13 --n-max 16
# --ell-max 8` (1652 checks): past the default grid's n <= 12 and ell <= 6,
# where the weights, scalars and eigenvalues have larger numerators
WIDE_VERIFY_PAYLOAD_SHA256 = "96f9fbf4dc3b9d4114103ae5b1e621a695dc41476fc8730d095349b523c36f8c"


def test_verify_past_the_default_grid_golden_payload(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--n-min", "13", "--n-max", "16", "--ell-max", "8",
                    "--output", str(out)]) == 0
    assert hashlib.sha256(report_payload_bytes(out)).hexdigest() == WIDE_VERIFY_PAYLOAD_SHA256
    stages = json.loads(out.read_text())["meta"]["stages"]
    assert sum(stage["checks"] for stage in stages.values()) == 1652


def test_verify_unknown_theorem_is_a_usage_error(capsys):
    # the sweep checks the names against verify.THEOREMS; the parser lists none
    assert run_cli(["verify", "--n-max", "3", "--ell-max", "1", "--theorems", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: unknown theorem 'nope'")
    assert captured.out == ""


# sha256 of `formlap expand --format json` payloads: the degenerate weight
# w = 1 (8, 2, 3), the middle degree k = n/2 (6, 3, 2), odd n (7, 2, 4) and
# w = 0 (10, 2, 3); they pin the rendered coefficients and J powers
EXPAND_PAYLOAD_SHA256 = {
    (8, 2, 3): "2c0966c118dc1c8ffa091e5b47e49596f1678ded5c38ed74530eef5c4b4d38d9",
    (6, 3, 2): "e05098ba0324042ee72878966f4768f5682724d72780b5c56f0c47235b486c7e",
    (7, 2, 4): "48736f695e67187494dbd7a099b766d933873ad82f24a4ee5542bdc32c4381d5",
    (10, 2, 3): "832aecb273f5cf214173a353fd6327924629fd07aaf21eb59e4a8bcafb2dc538",
}


@pytest.mark.parametrize("nkl", sorted(EXPAND_PAYLOAD_SHA256), ids=str)
def test_expand_golden_payload(tmp_path, nkl):
    out = tmp_path / "expand.json"
    n, k, ell = nkl
    assert run_cli(["expand", "--n", str(n), "--k", str(k), "--ell", str(ell),
                    "--format", "json", "--output", str(out)]) == 0
    assert hashlib.sha256(report_payload_bytes(out)).hexdigest() == EXPAND_PAYLOAD_SHA256[nkl]


# sha256 of the default `formlap oracle torus` payload (seed 1)
DEFAULT_TORUS_PAYLOAD_SHA256 = "fd2c3361e31729b9dd31b7bb504a2a2de9430aa2f1dd17b41bb256a0cb3f2403"


def test_oracle_torus_default_golden_payload(tmp_path):
    out = tmp_path / "torus.json"
    assert run_cli(["oracle", "torus", "--output", str(out)]) == 0
    assert hashlib.sha256(report_payload_bytes(out)).hexdigest() == DEFAULT_TORUS_PAYLOAD_SHA256


def test_oracle_torus_runs_each_dimension_once_in_order(tmp_path):
    payloads = []
    for dims in (["4", "3", "4"], ["3", "4"]):
        out = tmp_path / f"torus-{'-'.join(dims)}.json"
        assert run_cli(["oracle", "torus", "--n", *dims, "--ell-max", "2", "--modes", "3",
                        "--output", str(out)]) == 0
        payloads.append(report_payload_bytes(out))
    assert payloads[0] == payloads[1]
    doc = json.loads(payloads[0])
    assert doc["config"]["n"] == [3, 4] and doc["summary"]["cells"] == 2 * 1 + 2 * 2


@pytest.mark.parametrize("args, needle", [
    (["--n-min", "2"], "n = 2"),
    (["--ell-max", "0"], "no checks"),
    (["--n-min", "7", "--n-max", "5"], "no checks"),
], ids=["n-min-below-3", "ell-max-zero", "n-range-empty"])
def test_verify_usage_error(capsys, args, needle):
    assert run_cli(["verify", *args]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:") and needle in lines[0]
    assert captured.out == ""


def test_verify_no_checks_is_usage_error(capsys):
    # bezout needs ell >= 2: this grid selects nothing, which is not a pass
    assert run_cli(["verify", "--n-max", "4", "--ell-max", "1", "--theorems", "bezout"]) == 2
    assert "no checks" in capsys.readouterr().err


def test_verify_duplicate_theorem_names_count_once(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--n-max", "3", "--ell-max", "1", "--theorems", "LG", "LG",
                    "--output", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["config"]["theorems"] == ["LG"]
    assert report["summary"]["checks"] == 1


def test_verify_a_new_theorem_is_one_table_entry(monkeypatch, tmp_path):
    # one entry in verify.THEOREMS, and no edit to the sweep or the parser,
    # makes a selectable theorem; each cell runs its checks in table order
    from formlap import verify

    def trivial(n, k, ell):
        return [lambda: verify.VerificationReport("trivial", {"n": n, "k": k, "ell": ell}, "pass")]

    monkeypatch.setitem(verify.THEOREMS, "trivial", trivial)
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--n-max", "4", "--ell-max", "2",
                    "--theorems", "trivial", "factorization", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    results = doc["report"]["results"]
    cells = [{"n": n, "k": k, "ell": ell} for n in (3, 4) for k in range(1, n // 2 + 1)
             for ell in (1, 2)]
    assert [r["theorem"] for r in results] == ["factorization", "trivial"] * len(cells)
    assert [r["params"] for r in results[1::2]] == cells
    assert doc["report"]["config"]["theorems"] == ["factorization", "trivial"]
    assert doc["meta"]["stages"]["trivial"]["checks"] == len(cells)


def test_verify_unwritable_output(tmp_path):
    target = tmp_path / "no-such-dir" / "report.json"
    code = run_cli(["verify", "--n-min", "4", "--n-max", "4", "--ell-max", "1",
                    "--theorems", "factorization", "--output", str(target)])
    assert code == 2


@pytest.mark.parametrize("mutant", ["closed-factor", "root", "tmodbox"])
def test_verify_exits_1_on_failing_checks_with_their_witnesses(monkeypatch, capsys, tmp_path,
                                                               request, mutant):
    # a closed factor with its constant moved by one breaks the factorization,
    # and so do doubled exact roots, read where closed_factors reads them: the
    # root lists carry the verdict.  A doubled second-order reduction breaks
    # MMstar.  Each on the whole default grid
    import functools
    import operator

    from formlap import factory, verify
    from formlap.coeffring import ZERO
    from formlap.forms import OperatorPoly

    real_factors, real_tmodbox = verify.closed_factors, verify.build_tmodbox

    def bumped_factors(n, k, ell):
        first, *rest = real_factors(n, k, ell)
        return (OperatorPoly.from_numerators(n, k, first.order, first.c_num + first.den,
                                             first.e_nums, first.f_nums, first.den), *rest)

    def clear_factor_caches():
        for cached in (factory.closed_factors, factory._root_factor):
            cached.cache_clear()

    if mutant == "closed-factor":
        monkeypatch.setattr(verify, "closed_factors", bumped_factors)
        theorem = "factorization"
    elif mutant == "root":
        real_root = factory.exact_root
        monkeypatch.setattr(factory, "exact_root", lambda n, k, m: 2 * real_root(n, k, m))
        clear_factor_caches()  # built from the real roots
        request.addfinalizer(clear_factor_caches)  # and now from the doubled ones
        theorem = "factorization"
    else:
        monkeypatch.setattr(verify, "build_tmodbox", lambda *args: real_tmodbox(*args).scale(2))
        theorem = "MMstar"
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--theorems", theorem, "--output", str(out)]) == 1
    report = json.loads(out.read_text())["report"]
    failed = [r for r in report["results"] if r["status"] == "fail"]
    assert report["summary"]["failed"] == len(failed) > 10
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 10 and all(line.startswith(f"FAIL {theorem} {{") for line in lines)
    # each witness names a monomial where the two sides differ, with both coefficients
    for r in failed:
        n, k, ell = (r["params"][key] for key in ("n", "k", "ell"))
        if theorem == "factorization":
            lhs = functools.reduce(operator.mul, verify.closed_factors(n, k, ell))
            rhs = verify.build_L_definition(n, k, ell)
        else:  # the unmutated reduction route, which equals the scaled L, and twice it
            p = r["params"]["p"]
            lhs = verify.build_L_definition(n, k, ell - p) * real_tmodbox(
                n, k, verify.operator_weight(n, k, ell), p)
            rhs = lhs.scale(2)
        sides = [op.monomials().get(r["witness"]["monomial"], ZERO) for op in (lhs, rhs)]
        assert sides[0] != sides[1], r
        assert r["witness"] == {"monomial": r["witness"]["monomial"],
                                "lhs": str(sides[0]), "rhs": str(sides[1])}


def test_oracle_torus_small(tmp_path):
    out = tmp_path / "torus.json"
    code = run_cli(["oracle", "torus", "--n", "3", "--ell-max", "1",
                    "--modes", "3", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["summary"]["max_discrepancy"] == 0


def test_oracle_dec_usage_error(capsys):
    assert run_cli(["oracle", "dec", "--mesh", "torus3-grid", "--size", "2"]) == 2
    assert "m >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("args, needle", [
    (["torus", "--n", "2"], "--n"),
    (["torus", "--ell-max", "0"], "--ell-max"),
    (["torus", "--modes", "0"], "--modes"),
    (["dec", "--mesh", "boundary-4-simplex", "--k", "5"], "--k"),
    (["dec", "--mesh", "boundary-4-simplex", "--eigs", "500"], "--eigs"),
    (["dec", "--mesh", "torus3-grid", "--size", "3", "--subdivide"], "subdivision"),
    (["dec", "--mesh", "torus3-grid", "--size", "3", "--promote", "model.json"], "--promote"),
    (["dec", "--mesh", "torus3-grid", "--size", "3", "--k", "1"], "--k"),
    (["dec", "--mesh", "torus3-grid", "--size", "3", "--eigs", "40"], "--eigs"),
    (["dec", "--mesh", "cell600", "--size", "7", "--k", "1", "--eigs", "4"], "--size"),
    (["dec", "--mesh", "torus3-grid"], "grid size"),
], ids=["torus-n-below-3", "torus-ell-max-zero", "torus-modes-zero", "dec-k-above-dim",
        "dec-eigs-above-cochains", "dec-subdivide-torus", "dec-promote-torus", "dec-k-torus",
        "dec-eigs-torus", "dec-size-sphere", "dec-torus-without-size"])
def test_oracle_usage_error(capsys, args, needle):
    assert run_cli(["oracle", *args]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:") and needle in lines[0]
    assert captured.out == ""


def test_oracle_torus_rejects_n_above_the_grid_before_computing(capsys, monkeypatch):
    # the dense mode matrices have C(n+2, k)^2 entries: n = 14 would need gigabytes
    import formlap.torus

    def refuse(*args):
        raise AssertionError("a cell was computed")

    monkeypatch.setattr(formlap.torus, "compare_pipelines", refuse)
    assert run_cli(["oracle", "torus", "--n", "3", "14"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:") and "--n 14" in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["verify", "--j-value", "abc"],
    ["verify", "--j-value", "0"],
    ["oracle", "dec", "--mesh", "torus3-grid", "--size", "3", "--rtol", "0.5"],
    ["oracle", "dec", "--mesh", "boundary-4-simplex", "--rtol", "nan"],
    ["oracle", "dec", "--mesh", "boundary-4-simplex", "--rtol", "inf"],
    ["oracle", "dec", "--mesh", "boundary-4-simplex", "--rtol", "0"],
    ["oracle", "dec", "--mesh", "boundary-4-simplex", "--rtol", "-1"],
    ["oracle", "dec", "--mesh", "boundary-4-simplex", "--rtol", "1.5"],
], ids=["j-value-not-rational", "j-value-zero-with-kernel", "dec-rtol-torus", "dec-rtol-nan",
        "dec-rtol-inf", "dec-rtol-zero", "dec-rtol-negative", "dec-rtol-above-one"])
def test_removed_options_are_unknown_to_the_parser(capsys, args):
    # no option loosens a verdict: argparse, not a UsageError, rejects
    # --j-value and --rtol, before any command runs
    with pytest.raises(SystemExit) as info:
        run_cli(args)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert f"error: unrecognized arguments: {' '.join(args[-2:])}" in captured.err
    assert captured.out == ""


def test_oracle_dec_five_cell(tmp_path):
    # the 5-vertex sphere is coarse: its spectrum is 24.8 % off the
    # unit-sphere reference, which fails the one fixed 10 % rule
    out = tmp_path / "dec.json"
    assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--k", "0",
                    "--output", str(out)]) == 1
    report = json.loads(out.read_text())["report"]
    assert report["betti"] == [1, 0, 0, 1]
    assert report["config"]["eigs"] == 5
    assert 0.24 < report["sphere_comparison"]["max_rel_error"] < 0.25


@pytest.mark.parametrize("args, eigs, code", [
    (["--mesh", "boundary-4-simplex"], 10, 1),
    (["--mesh", "boundary-4-simplex", "--k", "2"], 10, 1),
    (["--mesh", "boundary-4-simplex", "--k", "3"], 5, 1),
    (["--mesh", "boundary-4-simplex", "--subdivide", "--k", "0"], 30, 0),
], ids=["bare", "k2", "k3", "subdivided-k0"])
def test_oracle_dec_default_eigs_fit_the_mesh(tmp_path, args, eigs, code):
    # without --eigs the count is min(40, N_k): never a usage error on a
    # mesh with fewer than 40 k-simplices (the 600-cell keeps 40)
    out = tmp_path / "dec.json"
    assert run_cli(["oracle", "dec", *args, "--output", str(out)]) == code
    assert json.loads(out.read_text())["report"]["config"]["eigs"] == eigs


def test_oracle_dec_spectrum_mismatch_prints_one_line(capsys, tmp_path):
    # the 5-cell's 0-form spectrum is off by more than the fixed 10%
    out = tmp_path / "dec.json"
    assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--k", "0", "--eigs", "4",
                    "--output", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sphere spectrum mismatch:")
    error = json.loads(out.read_text())["report"]["sphere_comparison"]["max_rel_error"]
    assert f"{error:.1%}" == "24.8%"
    assert lines[0].endswith("against the lowest coexact shell 3 (x4): 24.8% off, beyond 10%")


@pytest.mark.parametrize("eigs, needle", [
    ("1", "computed exact shell 2.9026 (x1)"),
    ("4", "no computed coexact eigenvalue: the lowest coexact shell is 4 (x6)"),
    ("5", "computed coexact shell 4.2787 (x1)"),
])
def test_oracle_dec_fails_a_partial_or_missing_shell(capsys, tmp_path, eigs, needle):
    # the 600-cell's 1-form shells lie within 10%, but too few eigenvalues
    # compare part of a shell (1 of 4 exact, 1 of 6 coexact) or none of one,
    # and the line names that cause, not the distance (3.2 % and 7.0 % off)
    assert run_cli(["oracle", "dec", "--mesh", "cell600", "--k", "1", "--eigs", eigs,
                    "--output", str(tmp_path / "dec.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sphere spectrum mismatch:")
    assert needle in lines[0] and "% off" not in lines[0]
    cause = {"1": "against the lowest exact shell 3 (x4): cluster size 1, not 4",
             "4": "the lowest coexact shell is 4 (x6)",
             "5": "against the lowest coexact shell 4 (x6): cluster size 1, not 6"}[eigs]
    assert lines[0].endswith(cause)


def test_oracle_dec_exit_code_and_promotion_read_one_rule(monkeypatch, capsys, tmp_path):
    # dec.compare_sphere_spectrum's verdict decides both: a stub failure
    # fails the run and withholds the model that the real verdict would promote
    import formlap.dec as dec

    model, real = tmp_path / "m.json", dec.compare_sphere_spectrum
    monkeypatch.setattr(dec, "compare_sphere_spectrum",
                        lambda *args: (real(*args)[0], "stub verdict"))
    assert run_cli(["oracle", "dec", "--mesh", "cell600", "--k", "1", "--promote", str(model),
                    "--output", str(tmp_path / "dec.json")]) == 1
    assert capsys.readouterr().err == "sphere spectrum mismatch: stub verdict\n"
    assert not model.exists()


@pytest.mark.parametrize("args", [
    ["--mesh", "boundary-4-simplex", "--subdivide", "--k", "0", "--eigs", "4"],
    ["--mesh", "torus3-grid", "--size", "3"],
], ids=["sphere", "torus"])
def test_oracle_dec_one_betti_computation_per_run(monkeypatch, tmp_path, args):
    # the report's Betti numbers and the spectrum's kernel dimensions share
    # one Betti computation: one reduction per boundary matrix of the mesh
    import formlap.dec as dec

    real, calls = dec._reduce, []

    def counting(matrix, cleared):
        calls.append(matrix.shape)
        return real(matrix, cleared)

    monkeypatch.setattr(dec, "_reduce", counting)
    assert run_cli(["oracle", "dec", *args, "--output", str(tmp_path / "dec.json")]) == 0
    assert len(calls) == 3


def test_oracle_dec_promotion_compares_once(monkeypatch, tmp_path):
    # the promoted model is read from the comparison the report holds
    import formlap.dec as dec

    real, calls = dec.compare_sphere_spectrum, []

    def counting(*args):
        calls.append(args[0].name)
        return real(*args)

    monkeypatch.setattr(dec, "compare_sphere_spectrum", counting)
    assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--subdivide", "--k", "0",
                    "--eigs", "4", "--promote", str(tmp_path / "m.json"),
                    "--output", str(tmp_path / "dec.json")]) == 0
    assert calls == ["boundary-4-simplex+bary"]


@pytest.mark.parametrize("patch", ["vertex-set", "f-vector", "repeated-tet"])
def test_oracle_dec_construction_defect_is_not_a_usage_error(monkeypatch, tmp_path, patch):
    # a wrong 600-cell is a fault of the mesh code, not of the command line
    import formlap.dec as dec
    from formlap.forms import InternalConsistencyError

    if patch == "vertex-set":
        monkeypatch.setattr(dec, "PHI", 1.0)  # collapses the even-permutation orbit
    elif patch == "f-vector":
        real = dec._cell600_vertices
        monkeypatch.setattr(dec, "_cell600_vertices", lambda: real()[:-1])  # (119, 4)
    else:
        build = dec._build_from_tets

        def with_first_tet_twice(name, ids, points, embedded):
            again = [*range(len(ids)), 0]
            return build(name, ids[again], points[again], embedded)

        monkeypatch.setattr(dec, "_build_from_tets", with_first_tet_twice)
    match = "listed twice" if patch == "repeated-tet" else "600-cell"
    with pytest.raises(InternalConsistencyError, match=match):
        run_cli(["oracle", "dec", "--mesh", "cell600", "--output", str(tmp_path / "dec.json")])


# sha256 of the `formlap oracle dec` payloads of the 3x3x3 torus grid and
# of the 600-cell with a promoted model (written to the relative path
# model.json), and of that model file
ORACLE_DEC_SHA256 = {
    "torus": "553ad1a4cb0cc204445ebbe1cc7e3555c2c20c2940da03c3f52e0cab4cb2293c",
    "cell600": "19809b7ccb4b1cf7cf734edbf1c0244670e158e9e46624fde5bf511d361347cd",
    "model": "73d8016332db978dca0ae773af85864f174f0ae41efa90bc65276e02211fde2a",
}


def test_oracle_dec_stages_and_golden_payloads(monkeypatch, tmp_path):
    # stage times and the mesh f-vector go to meta.stages, outside the
    # payload, which stays byte-identical
    monkeypatch.chdir(tmp_path)
    runs = {"torus": (["--mesh", "torus3-grid", "--size", "3"], [27, 189, 324, 162]),
            "cell600": (["--mesh", "cell600", "--k", "1", "--eigs", "40",
                         "--promote", "model.json"], [120, 720, 1200, 600])}
    for name, (args, f_vector) in runs.items():
        assert run_cli(["oracle", "dec", *args, "--output", f"{name}.json"]) == 0
        digest = hashlib.sha256(report_payload_bytes(Path(f"{name}.json"))).hexdigest()
        assert digest == ORACLE_DEC_SHA256[name]
        stages = json.loads(Path(f"{name}.json").read_text())["meta"]["stages"]
        expected = {"mesh", "betti"} | ({"spectrum"} if name == "cell600" else set())
        assert set(stages) == expected
        assert all(stage["seconds"] > 0 for stage in stages.values())
        assert stages["mesh"]["f_vector"] == f_vector
    assert hashlib.sha256(Path("model.json").read_bytes()).hexdigest() == ORACLE_DEC_SHA256["model"]


def test_oracle_dec_payload_independent_of_blas_threads(tmp_path):
    # the last bits of the dense eigensolve follow the BLAS thread count;
    # the payload, written to 10 significant digits, must not
    payloads = []
    for threads in ("1", "2"):
        out = tmp_path / f"dec{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(SRC)}
        subprocess.run([sys.executable, "-m", "formlap.cli", "oracle", "dec", "--mesh", "cell600",
                        "--k", "1", "--eigs", "40", "--output", str(out)], env=env, check=True)
        payloads.append(report_payload_bytes(out))
    assert payloads[0] == payloads[1]


def test_oracle_dec_subdivided_sphere(capsys, tmp_path):
    # one barycentric subdivision of the 5-cell, pushed onto the unit sphere:
    # its Betti numbers are computed on the refined mesh, not carried over.
    # Its functions pass at 9.0 %; its 1-forms fail, for the coexact shell
    # (6 of 6, 16 % off) is compared once 16 eigenvalues reach it
    errors = {}
    for k, code in ((0, 0), (1, 1)):
        out = tmp_path / f"dec{k}.json"
        assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--subdivide",
                        "--k", str(k), "--eigs", "16", "--output", str(out)]) == code
        report = json.loads(out.read_text())["report"]
        assert report["config"]["subdivide"] is True
        assert report["betti"] == [1, 0, 0, 1]
        errors[k] = {e["kind"]: (round(e["rel_error"], 3), e["cluster_size"])
                     for e in report["sphere_comparison"]["entries"]}
    assert errors == {0: {"coexact": (0.09, 4)}, 1: {"exact": (0.09, 4), "coexact": (0.159, 6)}}
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].endswith(
        "against the lowest coexact shell 4 (x6): 15.9% off, beyond 10%")


def test_oracle_dec_unwritable_promote(capsys, tmp_path):
    # the subdivided 5-cell's functions pass, so the model write is reached
    out, model = tmp_path / "dec.json", tmp_path / "no-such-dir" / "m.json"
    assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--subdivide", "--k", "0",
                    "--eigs", "4", "--promote", str(model), "--output", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error:")


def _assert_failed_promotion(capsys, tmp_path, k, cause):
    out, model = tmp_path / "dec.json", tmp_path / "m.json"
    assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--k", str(k), "--eigs", "4",
                    "--promote", str(model), "--output", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"sphere spectrum mismatch: {cause}"]
    report = json.loads(out.read_text())["report"]
    assert report["betti"] == [1, 0, 0, 1] and "promoted_to" not in report
    assert report["sphere_comparison"]["max_rel_error"] > 0.1
    assert not model.exists()


def test_oracle_dec_failed_promotion(capsys, tmp_path):
    # no computed 1-form shell of the 5-cell lies within 10% of a reference value
    _assert_failed_promotion(capsys, tmp_path, 1, "computed exact shell 2.2556 (x4) against the "
                             "lowest exact shell 3 (x4): 24.8% off, beyond 10%")


def test_oracle_dec_failed_promotion_higher_shell(capsys, tmp_path):
    # the lowest computed 3-form cluster of the 5-cell is compared with the
    # lowest shell (3) and fails; it lies within 10% of the third (15), which
    # must not make it promotable
    _assert_failed_promotion(capsys, tmp_path, 3, "computed exact shell 13.5336 (x4) against the "
                             "lowest exact shell 3 (x4): 351.1% off, beyond 10%")


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "formlap.cli", "expand",
                           "--n", "6", "--k", "1", "--ell", "2", "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["params"] == {"n": 6, "k": 1, "ell": 2}
