import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from formlap.cli import main, report_payload_bytes

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
    # a product of the wrong order breaks an identity of R: a fault, not bad input
    from formlap import factory
    from formlap.forms import InternalConsistencyError, OperatorPoly

    real = OperatorPoly.__mul__
    monkeypatch.setattr(OperatorPoly, "__mul__", lambda a, b: real(a, b).times_J(1))
    caches = (factory.box_chains, factory.run_pipeline)
    for cached in caches:
        cached.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError, match="adding operators of orders"):
            run_cli(["expand", "--n", "8", "--k", "2", "--ell", "3"])
    finally:
        for cached in caches:  # they now hold states built with the wrong product
            cached.cache_clear()


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


# sha256 of the kernel-decomposition payload at J = -2/3 (210 checks): a
# negative, non-integer J reaches every J power of the eigenspace scalars
KERNEL_J_PAYLOAD_SHA256 = "af38e2310b85c9a5a46c7214c000d2648c6283dd435f7d639afedf8670f6f320"


def test_verify_kernel_at_negative_j_golden_payload(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--theorems", "kernel", "--j-value=-2/3",
                    "--output", str(out)]) == 0
    assert hashlib.sha256(report_payload_bytes(out)).hexdigest() == KERNEL_J_PAYLOAD_SHA256


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


@pytest.mark.parametrize("args, needle", [
    (["--n-min", "2"], "n = 2"),
    (["--j-value", "abc"], "--j-value"),
    (["--ell-max", "0"], "no checks"),
    (["--n-min", "7", "--n-max", "5"], "no checks"),
    (["--j-value", "0"], "Ricci flat"),
], ids=["n-min-below-3", "j-value-not-rational", "ell-max-zero", "n-range-empty",
        "j-value-zero-with-kernel"])
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


def test_verify_j_value_zero_without_kernel_runs(tmp_path):
    # J = 0 lies outside the kernel decomposition only; factorization still holds
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--n-max", "4", "--ell-max", "2", "--theorems", "factorization",
                    "--j-value", "0", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["summary"]["failed"] == 0


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

    def trivial(n, k, ell, j):
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
    (["dec", "--mesh", "torus3-grid", "--size", "3", "--rtol", "0.5"], "--rtol"),
    (["dec", "--mesh", "cell600", "--size", "7", "--k", "1", "--eigs", "4"], "--size"),
    (["dec", "--mesh", "torus3-grid"], "grid size"),
    (["dec", "--mesh", "boundary-4-simplex", "--rtol", "nan"], "--rtol"),
    (["dec", "--mesh", "boundary-4-simplex", "--rtol", "inf"], "--rtol"),
    (["dec", "--mesh", "boundary-4-simplex", "--rtol", "0"], "--rtol"),
    (["dec", "--mesh", "boundary-4-simplex", "--rtol", "-1"], "--rtol"),
    (["dec", "--mesh", "boundary-4-simplex", "--rtol", "1.5"], "--rtol"),
], ids=["torus-n-below-3", "torus-ell-max-zero", "torus-modes-zero", "dec-k-above-dim",
        "dec-eigs-above-cochains", "dec-subdivide-torus", "dec-promote-torus", "dec-k-torus",
        "dec-eigs-torus", "dec-rtol-torus", "dec-size-sphere",
        "dec-torus-without-size", "dec-rtol-nan",
        "dec-rtol-inf", "dec-rtol-zero", "dec-rtol-negative", "dec-rtol-above-one"])
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


def test_oracle_dec_five_cell(tmp_path):
    # the 5-vertex sphere is coarse: its spectrum is within 0.9 of the
    # unit-sphere reference, but not within 0.1
    out = tmp_path / "dec.json"
    for rtol, expected in (("0.9", 0), ("0.1", 1)):
        code = run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--k", "0",
                        "--eigs", "4", "--rtol", rtol, "--output", str(out)])
        report = json.loads(out.read_text())["report"]
        assert report["betti"] == [1, 0, 0, 1]
        assert 0.1 < report["sphere_comparison"]["max_rel_error"] <= 0.9
        assert code == expected, rtol


def test_oracle_dec_spectrum_mismatch_prints_one_line(capsys, tmp_path):
    # the 5-cell's 0-form spectrum is off by more than the default 10%
    out = tmp_path / "dec.json"
    assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--k", "0", "--eigs", "4",
                    "--output", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sphere spectrum mismatch:")
    assert "> --rtol 0.1" in lines[0]
    error = json.loads(out.read_text())["report"]["sphere_comparison"]["max_rel_error"]
    assert f"{error:.4g}" in lines[0]


@pytest.mark.parametrize("args", [
    ["--mesh", "boundary-4-simplex", "--k", "1", "--eigs", "4", "--rtol", "0.9"],
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
    assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--k", "0", "--eigs", "4",
                    "--rtol", "0.9", "--promote", str(tmp_path / "m.json"),
                    "--output", str(tmp_path / "dec.json")]) == 0
    assert calls == ["boundary-4-simplex"]


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
    "model": "ead1c7d4064be3dc31e42f24e7a3ae8dd46448e3ce00a02580c9fc9dbf68794f",
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


def test_oracle_dec_subdivided_sphere(tmp_path):
    # one barycentric subdivision of the 5-cell, pushed onto the unit sphere:
    # its Betti numbers are computed on the refined mesh, not carried over
    out = tmp_path / "dec.json"
    assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--subdivide", "--k", "1",
                    "--eigs", "4", "--output", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["config"]["subdivide"] is True
    assert report["betti"] == [1, 0, 0, 1]
    assert report["sphere_comparison"]["max_rel_error"] <= 0.10


def test_oracle_dec_unwritable_promote(capsys, tmp_path):
    # the coarse 5-cell matches within rtol 0.9, so the model write is reached
    out, model = tmp_path / "dec.json", tmp_path / "no-such-dir" / "m.json"
    assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--k", "0", "--eigs", "4",
                    "--rtol", "0.9", "--promote", str(model), "--output", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error:")


def _assert_failed_promotion(capsys, tmp_path, k):
    out, model = tmp_path / "dec.json", tmp_path / "m.json"
    assert run_cli(["oracle", "dec", "--mesh", "boundary-4-simplex", "--k", str(k), "--eigs", "4",
                    "--promote", str(model), "--output", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("promotion failed:")
    assert "matches no reference value" in lines[0]
    report = json.loads(out.read_text())["report"]
    assert report["betti"] == [1, 0, 0, 1] and "promoted_to" not in report
    assert report["sphere_comparison"]["max_rel_error"] > 0.1
    assert not model.exists()


def test_oracle_dec_failed_promotion(capsys, tmp_path):
    # no computed 1-form shell of the 5-cell lies within 10% of a reference value
    _assert_failed_promotion(capsys, tmp_path, 1)


def test_oracle_dec_failed_promotion_higher_shell(capsys, tmp_path):
    # the lowest computed 3-form cluster of the 5-cell is compared with the
    # lowest shell (3) and fails; it lies within 10% of the third (15), which
    # must not make it promotable
    _assert_failed_promotion(capsys, tmp_path, 3)


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "formlap.cli", "expand",
                           "--n", "6", "--k", "1", "--ell", "2", "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["params"] == {"n": 6, "k": 1, "ell": 2}
