from fractions import Fraction

import numpy as np

from formlap.factory import build_L_definition
from formlap.torus import (CMat, box_matrix, compare_pipelines, mode_matrices,
                           pipeline_L_numeric, pipeline_matrix, random_modes,
                           symbolic_mode_matrix, wedge_basis, _row_blocks)


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
    got = pipeline_L_numeric(4, 1, 1, (1, 0, 0, 0))
    want = np.zeros((4, 4), dtype=object)
    for i in (1, 2, 3):
        want[i, i] = 2
    assert np.all(got == want)


def test_pipeline_zero_mode():
    got = pipeline_L_numeric(4, 1, 1, (0, 0, 0, 0))
    assert not np.any(got != 0)


def test_top_slots_vanish_numerically():
    full = pipeline_matrix(5, 2, 2, (1, -2, 0, 3, 1))
    blocks = _row_blocks(5, 2)
    for name in ("y", "w"):
        rows = blocks[name]
        assert not np.any(full.re[rows] != 0)
        assert not np.any(full.im[rows] != 0)


def test_symbolic_matches_numeric_exactly():
    for (n, k, ell) in [(3, 1, 1), (3, 1, 3), (4, 1, 2), (4, 2, 2), (5, 2, 3)]:
        rep = compare_pipelines(n, k, ell, random_modes(n, 5, seed=7))
        assert rep["status"] == "pass" and rep["max_discrepancy"] == 0, (n, k, ell)


def test_companion_slot_matches_symbolic():
    # the bottom slot of the numeric pipeline carries the companion operator
    from formlap.factory import build_L_and_G
    from formlap.forms import CD, D

    n, k, ell = 4, 2, 2
    xi = (1, -1, 2, 0)
    full = pipeline_matrix(n, k, ell, xi)
    blocks = _row_blocks(n, k)
    tractor_basis = wedge_basis(n + 2, k)
    form_km1 = wedge_basis(n, k - 1)
    # bottom-slot read: rho = k (-1)^(k-1) times the coefficients on tuples (T, n+1)
    rows = []
    for t in form_km1:
        target = tuple(x + 1 for x in t) + (n + 1,)
        rows.append(tractor_basis.index(target))
    sign = k * (-1) ** (k - 1)
    g_numeric_re = full.re[rows] * sign
    g_numeric_im = full.im[rows] * sign

    g_expr = build_L_and_G(n, k, ell)[1]
    d_mats = {}
    from formlap.torus import eps_matrix, iota_matrix, _obj

    def word_matrix(word):
        deg = k
        out = CMat.eye(len(wedge_basis(n, k)))
        for letter in reversed(word):
            if letter == D:
                m = CMat(_obj((len(wedge_basis(n, deg + 1)), len(wedge_basis(n, deg)))),
                         eps_matrix(n, deg, list(xi)))
                deg += 1
            else:
                m = CMat(_obj((len(wedge_basis(n, deg - 1)), len(wedge_basis(n, deg)))),
                         -iota_matrix(n, deg, list(xi)))
                deg -= 1
            out = m @ out
        return out

    acc = CMat.zero(len(form_km1), len(wedge_basis(n, k)))
    for word, coeff in g_expr.terms.items():
        acc = acc + word_matrix(word).scale(coeff.eval_at(0))
    assert np.all(acc.re == g_numeric_re) and np.all(acc.im == g_numeric_im)


def test_symbolic_mode_matrix_is_real():
    op = build_L_definition(4, 2, 2)
    mat = symbolic_mode_matrix(op, 4, 2, (1, 2, -1, 0))
    assert mat.dtype == object
    assert mat[0, 0] == mat[0, 0]  # finite exact entries, no floats anywhere
    assert all(isinstance(v, (int, Fraction)) for v in mat.flat)


def test_box_mixes_slots_at_zero_mode():
    # the connection part alone is nonzero even for the zero mode ...
    box = box_matrix(4, 1, (0, 0, 0, 0))
    assert not box.is_zero
    # ... yet the composed pipeline still annihilates it (cancellation)
    assert not np.any(pipeline_L_numeric(4, 1, 2, (0, 0, 0, 0)) != 0)
