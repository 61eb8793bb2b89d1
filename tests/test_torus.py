import hashlib
import json
import random
from fractions import Fraction

import numpy as np

import pytest

import formlap.factory
import formlap.torus
from formlap.cli import main
from formlap.coeffring import ZERO
from formlap.factory import build_L_definition, operator_weight
from formlap.torus import (CMat, box_matrix, compare_pipelines, pipeline_L_numeric, pipeline_matrix,
                           random_modes, splitting_matrix, symbolic_mode_matrix, wedge_basis,
                           _connection, _eps, _gram, _mode_block, _row_blocks)
from exterior_reference import derivation_matrix, eps_matrix, iota_matrix, tractor_gammas, z_embed
from strategies import graded


def mode_matrices(n, k, xi):
    """d = i eps(xi) on k-forms and codifferential = -i iota(xi) on k-forms."""
    x = np.array([int(v) for v in xi], dtype=object)
    return CMat.real(_eps(x, k)).scale_imag(1), CMat.real(_eps(x, k - 1).T).scale_imag(-1)


def at_j_zero(c):
    """The coefficient c * J**m at J = 0; raises at the pole of a negative J power."""
    if c.m < 0:
        raise ZeroDivisionError(f"pole at J = 0: {c}")
    return c.c if c.m == 0 else 0


def compose_EF(n, k, xi):
    d_k, delta_k = mode_matrices(n, k, xi)
    d_km1, _ = mode_matrices(n, k - 1, xi)
    _, delta_kp1 = mode_matrices(n, k + 1, xi)
    e = d_km1 @ delta_k
    f = delta_kp1 @ d_k
    return e, f


def test_mode_matrix_example():
    e, f = compose_EF(3, 1, (1, 0, 0))
    assert [e.re[i, i] for i in range(3)] == [1, 0, 0]
    assert [f.re[i, i] for i in range(3)] == [0, 1, 1]
    assert e.is_real and f.is_real


def test_zero_mode():
    d, delta = mode_matrices(3, 1, (0, 0, 0))
    assert d.is_zero and delta.is_zero


def test_laplacian_identity():
    # d delta + delta d equals |xi|^2 times the identity on every degree
    for n, k, xi in [(3, 1, (1, 1, 0)), (4, 2, (2, -1, 0, 3)), (5, 2, (1, 1, 1, 1, 1))]:
        e, f = compose_EF(n, k, xi)
        lap = e + f
        norm2 = sum(x * x for x in xi)
        dim = len(wedge_basis(n, k))
        expect = CMat.eye(dim).scale(norm2)
        assert lap == expect


def test_squares_vanish():
    for n, k, xi in [(4, 1, (1, 2, 0, -1)), (5, 2, (3, 0, 1, -2, 2))]:
        d_k, _ = mode_matrices(n, k, xi)
        d_kp1, _ = mode_matrices(n, k + 1, xi)
        assert (d_kp1 @ d_k).is_zero
        _, delta_k = mode_matrices(n, k, xi)
        _, delta_km1 = mode_matrices(n, k - 1, xi)
        assert (delta_km1 @ delta_k).is_zero


def test_pipeline_example():
    # order-one operator at (4, 1): twice the delta-d piece
    got = pipeline_L_numeric(4, 1, 1, [(1, 0, 0, 0)])[0]
    want = np.zeros((4, 4), dtype=np.int64)
    for i in (1, 2, 3):
        want[i, i] = 2
    assert np.array_equal(got, want * 2)  # the pipeline reads twice the operator


def test_pipeline_zero_mode():
    got = pipeline_L_numeric(4, 1, 1, [(0, 0, 0, 0)])[0]
    assert not np.any(got != 0)


def test_top_slots_vanish_numerically():
    full = pipeline_matrix(5, 2, 2, [(1, -2, 0, 3, 1)])[0]
    blocks = _row_blocks(5, 2)
    for name in ("y", "w"):
        assert not np.any(full[blocks[name]] != 0)


def test_symbolic_matches_numeric_exactly():
    for (n, k, ell) in [(3, 1, 1), (3, 1, 3), (4, 1, 2), (4, 2, 2), (5, 2, 3)]:
        rep = compare_pipelines(n, k, ell, random_modes(n, 5, seed=7))
        assert rep["status"] == "pass" and rep["max_discrepancy"] == 0, (n, k, ell)


def test_companion_slot_matches_symbolic():
    # the bottom slot of the numeric pipeline carries the companion operator
    from formlap.factory import run_pipeline

    n, k, ell = 4, 2, 2
    xi = (1, -1, 2, 0)
    full = pipeline_matrix(n, k, ell, [xi])[0]
    tractor_basis = wedge_basis(n + 2, k)
    form_km1 = wedge_basis(n, k - 1)
    # bottom-slot read: rho = k (-1)^(k-1) times the coefficients on tuples (T, n+1)
    rows = []
    for t in form_km1:
        target = tuple(x + 1 for x in t) + (n + 1,)
        rows.append(tractor_basis.index(target))
    sign = k * (-1) ** (k - 1)
    # pipeline_matrix is 2k S times the pipeline, and S = -i on these rows,
    # so the bottom slot is i * sign * full[rows] / (2k)
    g_numeric_im = full[rows] * Fraction(sign, 2 * k)

    x_op = run_pipeline(n, k, ell)[1]  # G = delta X: the words delta (d delta)^p

    def word_matrix(word):
        deg = k
        out = CMat.eye(len(wedge_basis(n, k)))
        for letter in reversed(word):
            if letter == "d":
                m = CMat.real(eps_matrix(n, deg, list(xi))).scale_imag(1)
                deg += 1
            else:
                m = CMat.real(iota_matrix(n, deg, list(xi))).scale_imag(-1)
                deg -= 1
            out = m @ out
        return out

    acc = CMat.zero(len(form_km1), len(wedge_basis(n, k)))
    for name, c in x_op.monomials().items():
        power = 0 if name == "1" else 1 if len(name) == 1 else int(name[2:])
        acc = acc + word_matrix("c" + "dc" * power).scale(at_j_zero(c))
    assert not np.any(acc.re != 0) and np.all(acc.im == g_numeric_im)


def test_symbolic_mode_matrix_is_real():
    # an exact integer pair (M, D) equal to the Gaussian-rational expansion
    # sum c_p E^p + sum d_q F^q with E = d delta, F = delta d
    n, k, xi = 4, 2, (1, 2, -1, 0)
    op = build_L_definition(n, k, 2)
    mats, dens = symbolic_mode_matrix(op, n, k, [xi])
    mat, den = mats[0], dens[0]
    assert mat.dtype == np.int64 and isinstance(den, int) and den > 0
    e, f = compose_EF(n, k, xi)
    dim = len(wedge_basis(n, k))
    mono = op.monomials()
    acc = CMat.eye(dim).scale(at_j_zero(mono.get("1", ZERO)))
    for mats, letter, top in ((e, "E", len(op.e_nums)), (f, "F", len(op.f_nums))):
        cur = CMat.eye(dim)
        for p in range(1, top + 1):
            cur = mats @ cur
            acc = acc + cur.scale(at_j_zero(mono.get(letter if p == 1 else f"{letter}^{p}", ZERO)))
    assert acc.is_real and np.array_equal(acc.re * den, mat)


def test_box_mixes_slots_at_zero_mode():
    # the connection part alone is nonzero even for the zero mode ...
    box = box_matrix(4, 1, (0, 0, 0, 0))
    assert np.any(box != 0)
    # ... yet the composed pipeline still annihilates it (cancellation)
    assert not np.any(pipeline_L_numeric(4, 1, 2, [(0, 0, 0, 0)]) != 0)


# -- the signed insertion primitive ----------------------------------------------


def _unit_eps(m, a, k):
    """eps(e_a) on Lambda^k(R^m), from the oracle's insertion table."""
    return _eps(np.eye(m, dtype=np.int64)[a], k)


@pytest.mark.parametrize("m", range(1, 8))
def test_insertion_satisfies_the_exterior_relations(m):
    # eps_a eps_b = -eps_b eps_a and iota_a eps_b + eps_b iota_a = delta_ab, iota_a = eps_a^T
    for k in range(m + 1):
        eye = np.eye(len(wedge_basis(m, k)), dtype=np.int64)
        for a in range(m):
            for b in range(m):
                assert np.array_equal(_unit_eps(m, a, k + 1) @ _unit_eps(m, b, k),
                                      -(_unit_eps(m, b, k + 1) @ _unit_eps(m, a, k))), (k, a, b)
                car = (_unit_eps(m, a, k).T @ _unit_eps(m, b, k)
                       + _unit_eps(m, b, k - 1) @ _unit_eps(m, a, k - 1).T)
                assert np.array_equal(car, eye * (a == b)), (k, a, b)


@pytest.mark.parametrize("n", range(3, 9))
def test_connection_is_the_derivation_of_the_tractor_gammas(n):
    for k in range(n + 3):
        gammas, square = _connection(n, k)
        dim = len(wedge_basis(n + 2, k))
        total = np.zeros((dim, dim), dtype=np.int64)
        for (src, dst, sign), gamma in zip(gammas, tractor_gammas(n), strict=True):
            assert len(set(dst.tolist())) == len(dst)
            mat = np.zeros((dim, dim), dtype=np.int64)
            mat[dst, src] = sign
            assert np.array_equal(mat, derivation_matrix(gamma, n + 2, k)), k
            total += mat @ mat
        # sum_p Gamma_p^2 is one signed index map too
        src, dst, sign = square
        assert len(set(dst.tolist())) == len(dst)
        mat = np.zeros((dim, dim), dtype=np.int64)
        mat[dst, src] = sign
        assert np.array_equal(mat, total), k


# -- the i^grading similarity ---------------------------------------------------


def _similarity(n, k):
    """S = diag(i^g) and its inverse on tractor k-forms, g(t) = [e_Y in t] - [e_X in t]."""
    g = [(0 in t) - (n + 1 in t) for t in wedge_basis(n + 2, k)]
    re = np.diag([int(x == 0) for x in g]).astype(object)
    im = np.diag(g).astype(object)
    return CMat(re, im), CMat(re, -im)


def _complex_box(n, k, xi):
    """-sum_p (i xi_p + Gamma_p)^2 as a Gaussian-rational matrix."""
    dim = len(wedge_basis(n + 2, k))
    box = CMat.zero(dim, dim)
    for p, gamma in enumerate(tractor_gammas(n)):
        nabla = CMat.real(derivation_matrix(gamma, n + 2, k)) + CMat.eye(dim).scale_imag(xi[p])
        box = box - nabla @ nabla
    return box


def _complex_pipeline(n, k, ell, xi):
    """box^ell applied to the splitting (n+w-2k)/k Z_k + (1/k) eps(e_X) Z_(k-1) delta.

    The products run on 2k times the splitting, which has integer
    entries, and the 1/(2k) is applied at the end.
    """
    w = operator_weight(n, k, ell)
    delta = CMat.real(iota_matrix(n, k, list(xi))).scale_imag(-1)
    eps_x = eps_matrix(n + 2, k - 1, [0] * (n + 1) + [1])
    out = (CMat.real(z_embed(n, k)).scale(int(2 * (n + w - 2 * k)))
           + (CMat.real(eps_x @ z_embed(n, k - 1)) @ delta).scale(2))
    box = _complex_box(n, k, xi)
    for _ in range(ell):
        out = box @ out
    return out.scale(Fraction(1, 2 * k))


SIMILARITY_CASES = [(n, xi) for n in range(3, 7)
                    for xi in [(0,) * n] + random_modes(n, 5, seed=3)]


@pytest.mark.parametrize("n,xi", SIMILARITY_CASES)
def test_similarity_makes_the_box_real(n, xi):
    for k in range(n + 3):
        s, s_inv = _similarity(n, k)
        real = s @ _complex_box(n, k, xi) @ s_inv
        assert real.is_real, (k, xi)
        assert np.array_equal(real.re, box_matrix(n, k, xi)), (k, xi)


@pytest.mark.parametrize("n,xi", SIMILARITY_CASES)
def test_integer_pipeline_is_the_complex_pipeline(n, xi):
    for k in range(1, n // 2 + 1):
        _, s_inv = _similarity(n, k)
        for ell in (1, 2):
            full = CMat.real(pipeline_matrix(n, k, ell, [xi])[0].astype(object))
            unscaled = (s_inv @ full).scale(Fraction(1, 2 * k))
            assert unscaled == _complex_pipeline(n, k, ell, xi), (k, ell, xi)


# -- the oracle can fail, and never wraps around ----------------------------------


def _order_below(orig, n, k, ell):
    return orig(n, k, max(ell - 1, 1))


def _top_e_bumped(orig, n, k, ell):
    return orig(n, k, ell) + graded(n, k, ell, 0, [0] * (ell - 1) + [1], [])


@pytest.mark.parametrize("wrong", [_order_below, _top_e_bumped], ids=["order-below", "e-bumped"])
def test_wrong_operator_is_caught(wrong, monkeypatch, tmp_path):
    orig = formlap.factory.build_L_definition
    monkeypatch.setattr(formlap.factory, "build_L_definition",
                        lambda n, k, ell: wrong(orig, n, k, ell))
    for n in (3, 10):
        rep = compare_pipelines(n, 1, 2, random_modes(n, 5, seed=7))
        assert rep["status"] == "fail" and rep["max_discrepancy"] > 0, n
        code = main(["oracle", "torus", "--n", str(n), "--ell-max", "2", "--modes", "3",
                     "--output", str(tmp_path / "torus.json")])
        assert code == 1, n


def _rescaled(orig, n, k, ell):
    return orig(n, k, ell).scale(Fraction(2 ** 61 + 1, 2 ** 61))


# (total, sha256 of the JSON list of per-mode counts) of compare_pipelines'
# mismatched entries for n = 3..6, k = 1..n/2, ell = 1..3 on five seeded
# modes and the zero mode, with build_L_definition replaced by a wrong operator
WRONG_OPERATORS = {"order-below": _order_below, "e-bumped": _top_e_bumped, "rescaled": _rescaled}
MISMATCH_GOLDEN = {
    "order-below": (3330, "58687f5f35b1211a498da163fc6caade83dcad658eff0ac5e9fb42b2f7420bde"),
    "e-bumped": (4932, "ad267b199d67a0e2cf5dfea3f1acdc8c3669f3b511a286fc1d62239c537d1e75"),
    "rescaled": (4991, "e6826fcbd0c54488e123917280cfd54bead5e48dd7253a1a433eaf69e8e41e24"),
}


@pytest.mark.parametrize("name", WRONG_OPERATORS)
def test_mismatch_counts_of_wrong_operators_are_pinned(name, monkeypatch):
    wrong, orig = WRONG_OPERATORS[name], formlap.factory.build_L_definition
    monkeypatch.setattr(formlap.factory, "build_L_definition",
                        lambda n, k, ell: wrong(orig, n, k, ell))
    counts, past_int64 = [], False
    for n in range(3, 7):
        modes = random_modes(n, 5, seed=7) + [(0,) * n]
        for k in range(1, n // 2 + 1):
            for ell in range(1, 4):
                rep = compare_pipelines(n, k, ell, modes)
                counts.append([mode["mismatched_entries"] for mode in rep["modes"]])
                _, dens = symbolic_mode_matrix(wrong(orig, n, k, ell), n, k, modes)
                numeric = pipeline_L_numeric(n, k, ell, modes)
                past_int64 |= any(int(np.abs(block).max()) * den >= 2 ** 63
                                  for block, den in zip(numeric, dens))
    total, digest = MISMATCH_GOLDEN[name]
    assert sum(map(sum, counts)) == total
    assert hashlib.sha256(json.dumps(counts).encode()).hexdigest() == digest
    # the rescaled operator's D times the pipeline side leaves int64
    assert past_int64 == (wrong is _rescaled)


def test_overflow_falls_back_to_python_ints():
    n, k, ell, xi = 3, 1, 6, (40, -37, 25)
    box = box_matrix(n, k, xi)
    assert box.dtype == np.int64
    assert int(np.abs(box).sum(axis=1).max()) ** ell > 2 ** 62
    assert pipeline_matrix(n, k, ell, [xi]).dtype == object
    assert compare_pipelines(n, k, ell, [xi])["status"] == "pass"
    # the int64 power wraps around: an unguarded int64 path would be wrong
    exact = np.linalg.matrix_power(box.astype(object), ell)
    assert not np.array_equal(np.linalg.matrix_power(box, ell), exact)


def test_huge_mode_builds_in_python_ints():
    xi = (2 ** 40, -3, 1)
    assert box_matrix(3, 1, xi).dtype == object
    assert compare_pipelines(3, 1, 2, [xi])["status"] == "pass"


def test_a_batch_with_an_overflow_mode_stays_exact():
    # one mode of the cell breaks the int64 bound, so the whole cell runs on
    # Python ints, and the int64-safe mode's block is unchanged by it
    n, k, ell, small, big = 3, 1, 6, (1, 0, -1), (40, -37, 25)
    alone = pipeline_matrix(n, k, ell, [small])
    both = pipeline_matrix(n, k, ell, [small, big])
    assert alone.dtype == np.int64 and both.dtype == object
    assert np.array_equal(both[0], alone[0])
    assert np.array_equal(both[1], _dense_pipeline(n, k, ell, big))
    rep = compare_pipelines(n, k, ell, [small, big])
    assert rep["status"] == "pass"
    assert [mode["mismatched_entries"] for mode in rep["modes"]] == [0, 0]


# -- the batched structured pipeline against the dense references -----------------


def _dense_pipeline(n, k, ell, xi):
    """2k S box^ell split for one mode, by dense products of box_matrix in Python ints."""
    out = splitting_matrix(n, k, operator_weight(n, k, ell), _mode_block(n, [xi]))[0]
    box = box_matrix(n, k, xi).astype(object)
    out = out.astype(object)
    for _ in range(ell):
        out = box @ out
    return out


def _random_cells(count, seed):
    rng = random.Random(seed)
    cells = []
    for _ in range(count):
        n = rng.randint(3, 7)
        cells.append((n, rng.randint(1, n // 2), rng.randint(1, 4)))
    return cells


@pytest.mark.parametrize("n,k,ell", _random_cells(8, seed=28))
def test_batched_pipeline_is_the_dense_box_product(n, k, ell):
    modes = random_modes(n, 6, seed=ell) + [(0,) * n]
    got = pipeline_matrix(n, k, ell, modes)
    assert got.dtype == np.int64 and got.shape[0] == len(modes)
    for xi, block in zip(modes, got):
        assert np.array_equal(block, _dense_pipeline(n, k, ell, xi)), xi


@pytest.mark.parametrize("n,k,ell", _random_cells(8, seed=29))
def test_batched_E_and_F_are_the_dense_products(n, k, ell):
    # E is the Gram table's product, and F = |xi|^2 - E
    x = _mode_block(n, random_modes(n, 6, seed=ell) + [(0,) * n])
    e_mat = _gram(x, k - 1)
    eye = np.eye(e_mat.shape[1], dtype=np.int64)
    for i, xi in enumerate(x):
        lower, upper = _eps(xi, k - 1), _eps(xi, k)
        assert np.array_equal(e_mat[i], lower @ lower.T), xi
        assert np.array_equal(eye * int(xi @ xi) - e_mat[i], upper.T @ upper), xi
    # and the symbolic block is the operator's monomials at J = 0, with
    # E^p = q^(p-1) E and F^p = q^(p-1) F for q = |xi|^2
    op = build_L_definition(n, k, ell)
    mats, dens = symbolic_mode_matrix(op, n, k, [tuple(xi) for xi in x.tolist()])
    for i, xi in enumerate(x):
        q = int(xi @ xi)
        powers = {"1": eye, "E": e_mat[i], "F": eye * q - e_mat[i]}
        want = np.zeros(eye.shape, dtype=object)
        for name, c in op.monomials().items():
            p = 1 if len(name) == 1 else int(name[2:])
            want = want + powers[name[0]].astype(object) * (at_j_zero(c) * q ** (p - 1))
        assert np.array_equal(mats[i], want * dens[i]), xi


def test_the_oracle_never_builds_the_dense_box(monkeypatch, tmp_path):
    def forbidden(*args):
        raise AssertionError("the oracle built a dense box")

    monkeypatch.setattr(formlap.torus, "box_matrix", forbidden)
    assert compare_pipelines(5, 2, 3, random_modes(5, 20, seed=1))["status"] == "pass"
    assert main(["oracle", "torus", "--output", str(tmp_path / "torus.json")]) == 0
