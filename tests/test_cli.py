import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from formlap.cli import main, report_payload_bytes


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


def test_expand_usage_error(capsys):
    assert run_cli(["expand", "--n", "3", "--k", "2", "--ell", "1"]) == 2
    assert "usage error" in capsys.readouterr().err


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


@pytest.mark.parametrize("args, needle", [
    (["--n-min", "2"], "--n-min"),
    (["--j-value", "abc"], "--j-value"),
    (["--ell-max", "0"], "empty sweep"),
    (["--n-min", "7", "--n-max", "5"], "empty sweep"),
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
], ids=["torus-n-below-3", "torus-ell-max-zero", "torus-modes-zero", "dec-k-above-dim",
        "dec-eigs-above-cochains", "dec-subdivide-torus", "dec-promote-torus"])
def test_oracle_usage_error(capsys, args, needle):
    assert run_cli(["oracle", *args]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:") and needle in lines[0]
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


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "formlap.cli", "expand",
                           "--n", "6", "--k", "1", "--ell", "2", "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["params"] == {"n": 6, "k": 1, "ell": 2}
