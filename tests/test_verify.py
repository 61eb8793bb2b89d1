from fractions import Fraction

import pytest

from formlap.coeffring import J, ratj, render_ratj
from formlap.factory import build_L_definition, closed_factors, operator_weight
from formlap.forms import OperatorPoly
from formlap.spectral import SpectralModel, SpectralPoint, synthetic_model
from formlap.verify import (BezoutError, bezout, lg_second_scalar, predicted_kernel_content,
                            verify_LG, verify_MMstar, verify_bezout_pairs,
                            verify_factorization, verify_kernel_decomposition)


def test_factorization_examples():
    r = verify_factorization(8, 2, 1)
    assert r.passed and r.witness == {"constant": "-2"}
    r = verify_factorization(5, 1, 2)
    assert r.passed and r.witness["constant"] not in ("0", None)
    r = verify_factorization(4, 2, 1)
    assert r.passed and r.witness == {"constant": "-1"}


def test_MMstar_examples():
    assert verify_MMstar(5, 1, 2, 1).passed
    assert verify_MMstar(6, 1, 3, 2).passed
    with pytest.raises(Exception):
        verify_MMstar(5, 1, 2, 2)  # p = ell violates the precondition


def test_MMstar_forced_p2_at_weight_one():
    # even dimension, weight one: the p = 1 route degenerates to 0 = 0 and
    # the p = 2 route carries the content
    for (n, k, ell) in [(6, 2, 2), (8, 2, 3), (6, 1, 3)]:
        assert operator_weight(n, k, ell) == 1
        for p in range(1, ell):
            assert verify_MMstar(n, k, ell, p).passed


def test_LG_first_relation_weight_zero():
    r = verify_LG(4, 1, 1)  # w = 0: both sides vanish because the
    assert r.passed         # codifferential square is zero


def test_LG_examples():
    assert verify_LG(6, 2, 1).passed
    assert verify_LG(8, 3, 2).passed
    assert verify_LG(5, 2, 3).passed


def test_LG_second_scalar_value():
    # the engine-calibrated scalar is 1/(n+w-2k+1); the printed
    # (k-1)/(k(n+w-2k+1)) differs by exactly (k-1)/k, which fails on the
    # whole grid -- documented in the repository notes
    from formlap.forms import CD, FormContext, FormExpr

    for (n, k, ell) in [(6, 2, 1), (8, 3, 1), (10, 4, 2), (6, 2, 3)]:
        w = operator_weight(n, k, ell)
        ctx = FormContext(n, k, w)
        from formlap.factory import build_L_and_G

        g = build_L_and_G(n, k, ell)[1]
        lower = build_L_definition(n, k - 1, ell)
        delta_f = FormExpr.generator(ctx).apply_letter(CD).shift_weight(1)
        rhs = lower.to_form_expr(delta_f).shift_weight(-1)
        scalar = lg_second_scalar(n, k, ell)
        assert g.terms == rhs.scale(scalar).terms
        printed = Fraction(k - 1, k) * scalar
        assert g.terms != rhs.scale(printed).terms  # the printed scalar fails
        # and the mismatch is exactly the factor (k-1)/k
        assert printed / scalar == Fraction(k - 1, k)


def test_bezout_weight_two_pair():
    s = OperatorPoly.make(4, 2, J / 2, (ratj(1),), (ratj(1),))
    t = OperatorPoly.make(4, 2, 0, (ratj(1),), (ratj(-1),))
    phi_s, phi_t = bezout(s, t)
    combined = phi_s * s + phi_t * t
    assert combined.monomials() == {"1": ratj(1)}
    # the solver's free-variable choice reproduces the hand-computed pair
    assert phi_s.monomials() == {"E": -4 / (J * J), "F": -4 / (J * J), "1": 2 / J}
    assert phi_t.monomials() == {"E": 4 / (J * J), "F": -4 / (J * J)}


def test_bezout_singular_cases():
    s = OperatorPoly.make(4, 2, J / 2, (ratj(1),), (ratj(1),))
    with pytest.raises(BezoutError):
        bezout(s, s)
    # specialising J to zero removes the constants and the system turns
    # inconsistent
    s0 = OperatorPoly.linear(4, 2, 1, 1)
    t0 = OperatorPoly.linear(4, 2, 1, -1)
    with pytest.raises(BezoutError):
        bezout(s0, t0)


def test_bezout_weight_zero_obstruction():
    # at weight zero the leading factor is a pure F multiple and no pair
    # exists against a factor with nonzero E part: the quotient of R by F
    # is a polynomial ring in E where the second factor stays proper
    factors = closed_factors(6, 1, 2).factors
    assert operator_weight(6, 1, 2) == 0
    assert factors[0].monomials() == {"F": ratj(-4)}
    with pytest.raises(BezoutError):
        bezout(factors[0], factors[1])
    r = verify_bezout_pairs(6, 1, 2)
    assert r.passed and r.witness["obstructed_at_w0"] == ["(1,2)"]


def test_bezout_sweep_samples():
    for (n, k, ell) in [(4, 2, 2), (8, 2, 3), (5, 1, 3), (6, 2, 4)]:
        r = verify_bezout_pairs(n, k, ell)
        assert r.passed, (n, k, ell, r.witness)
        assert r.witness["pairs_solved"] >= 1


def test_kernel_decomposition_example():
    model = SpectralModel(4, 2, Fraction(1), (
        SpectralPoint("harmonic", Fraction(0), 3),
        SpectralPoint("coexact", Fraction(1), 5),
        SpectralPoint("exact", Fraction(1), 7)))
    r = verify_kernel_decomposition(4, 2, 2, model)
    assert r.passed
    assert r.witness["dim_null_L"] == 15
    assert sum(r.witness["factor_dims"]) == 15


def test_kernel_constant_obstructs_harmonics():
    # a factor with nonzero constant contributes nothing on harmonic points
    op = OperatorPoly.make(6, 2, J * 2, (ratj(1),), (ratj(1),))
    from formlap.spectral import eval_scalar

    pt = SpectralPoint("harmonic", Fraction(0), 11)
    assert eval_scalar(op, pt, Fraction(1)) != 0


def test_kernel_rejects_j_zero_model():
    model = SpectralModel(4, 2, Fraction(0), (SpectralPoint("harmonic", Fraction(0), 1),))
    r = verify_kernel_decomposition(4, 2, 2, model)
    assert not r.passed


def test_lambda_bar_distinctness():
    # the exact-side kernel eigenvalues are pairwise distinct across the
    # factor index: i + j = 2 ell + 1 has no solution with i, j <= ell
    for (n, k, ell) in [(6, 2, 4), (9, 3, 6), (12, 5, 6), (5, 1, 5)]:
        w = operator_weight(n, k, ell)
        lam_bar = [Fraction(2, n) * (w - i) * (w - i + n - 2 * k + 1) for i in range(1, ell + 1)]
        lam_til = [Fraction(2, n) * (w - i + 1) * (w - i + n - 2 * k) for i in range(1, ell + 1)]
        assert len(set(lam_bar)) == ell
        assert len(set(lam_til)) == ell


def test_synthetic_models_pass():
    for (n, k, ell) in [(5, 1, 2), (6, 1, 3), (6, 2, 2), (8, 2, 2), (12, 4, 6)]:
        model = synthetic_model(n, k, ell, Fraction(1))
        r = verify_kernel_decomposition(n, k, ell, model)
        assert r.passed, (n, k, ell, r.witness)


def test_predicted_content_cases():
    # top degree: harmonic plus ell-1 eigenvalue pairs
    content = predicted_kernel_content(4, 2, 2, Fraction(1))
    assert ("harmonic", None) in content
    assert ("exact", Fraction(1)) in content and ("coexact", Fraction(1)) in content
    # weight zero: the whole closed-plus-harmonic part
    content0 = predicted_kernel_content(6, 1, 2, Fraction(1))
    assert ("exact", None) in content0 and ("harmonic", None) in content0
    # positive weight: the degenerate pair contributes -mu on the exact side
    w = operator_weight(6, 2, 2)
    assert w == 1
    mu = Fraction(4, 6) * (3 - 2) * 1
    content1 = predicted_kernel_content(6, 2, 2, Fraction(1))
    assert ("exact", -mu) in content1 and ("coexact", mu) in content1
