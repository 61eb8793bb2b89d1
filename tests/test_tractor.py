from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap.coeffring import J, ratj
from formlap.forms import CD, D, FormContext, FormExpr
from formlap.tractor import (InternalConsistencyError, TractorFormExpr, apply_Mstar,
                             apply_box, extract_slots, make_M)


def test_make_M_examples():
    m = make_M(FormContext(6, 2, Fraction(1)))
    f = FormExpr.generator(FormContext(6, 2, Fraction(1)))
    assert m.slot_z == f.scale(Fraction(3, 2))
    assert m.slot_x == f.apply_letter(CD)
    assert m.slot_y.is_zero and m.slot_w.is_zero
    assert m.wt == -1

    m2 = make_M(FormContext(4, 2, Fraction(0)))
    assert m2.slot_z.is_zero  # n + w - 2k = 0
    assert not m2.slot_x.is_zero


def test_slot_invariants_enforced():
    c = FormContext(6, 2, Fraction(1))
    good = make_M(c)
    with pytest.raises(InternalConsistencyError):
        TractorFormExpr(c, good.wt, good.slot_z, good.slot_z, good.slot_w, good.slot_x)


def test_box_on_pure_z_slot():
    # four-dimensional valence-one case: output slots
    # (-2 delta mu, (E + F - J) mu, 0, -(1/2) J delta mu) at weight -1
    c = FormContext(4, 1, Fraction(1))
    mu = FormExpr.generator(c)
    t = TractorFormExpr(c, Fraction(0),
                        FormExpr.zero(c, 0, Fraction(1)), mu,
                        FormExpr.zero(c, -1, Fraction(-1)),
                        FormExpr.zero(c, 0, Fraction(-1)))
    out = apply_box(t)
    assert out.wt == -1
    assert out.slot_y == mu.apply_letter(CD).scale(-2).shift_weight(1)
    expected_z = (mu.apply_EF(1, 1) + mu.times_J(1, -1)).shift_weight(1)
    assert out.slot_z == expected_z
    assert out.slot_w.is_zero
    assert out.slot_x == mu.apply_letter(CD).times_J(1, Fraction(-1, 2)).shift_weight(1)


def test_box_zero_tractor():
    c = FormContext(5, 2, Fraction(1, 2))
    z = TractorFormExpr.zero(c, Fraction(3))
    assert apply_box(z).is_zero


def test_Mstar_contractions():
    c = FormContext(6, 2, Fraction(1))
    f = FormExpr.generator(c)
    wt = Fraction(-2)
    pure_z = TractorFormExpr(c, wt, FormExpr.zero(c, 1, wt + 2), f.shift_weight(-1),
                             FormExpr.zero(c, 0, wt), FormExpr.zero(c, 1, wt))
    assert apply_Mstar(pure_z) == pure_z.slot_z.scale(-(wt + 2))
    pure_x = TractorFormExpr(c, wt, FormExpr.zero(c, 1, wt + 2),
                             FormExpr.zero(c, 2, wt + 2),
                             FormExpr.zero(c, 0, wt), f.apply_letter(CD).shift_weight(-1))
    assert apply_Mstar(pure_x).is_zero


@pytest.mark.parametrize("n", range(3, 13))
def test_calibration_identity_grid(n):
    # M* applied to the embedded generator returns -(1/k) w (n+w-2k) times it,
    # at the operator weights of every order up to four
    for k in range(1, n // 2 + 1):
        for ell in range(1, 5):
            w = Fraction(k) + ell - Fraction(n, 2)
            c = FormContext(n, k, w)
            got = apply_Mstar(make_M(c))
            expect = FormExpr.generator(c).scale(Fraction(-1, k) * w * (n + w - 2 * k))
            assert got == expect, (n, k, ell)


@given(st.fractions(min_value=-4, max_value=4, max_denominator=2),
       st.fractions(min_value=-4, max_value=4, max_denominator=2))
@settings(max_examples=25, deadline=None)
def test_box_linearity(a, b):
    c = FormContext(6, 2, Fraction(1))
    f = FormExpr.generator(c)
    wt = c.w - c.k - 2
    s = TractorFormExpr(c, wt,
                        f.apply_letter(CD),
                        f.apply_EF(2, -1) + f.times_J(1, 3),
                        FormExpr.zero(c, 0, wt),
                        f.apply_letter(CD).times_J(1))
    t = TractorFormExpr(c, wt,
                        f.apply_letter(CD).scale(-5),
                        f.times_J(1),
                        FormExpr.zero(c, 0, wt),
                        f.apply_EF(0, 1).apply_letter(CD))
    lhs = apply_box(s.scale(a) + t.scale(b))
    rhs = apply_box(s).scale(a) + apply_box(t).scale(b)
    assert lhs.slot_y == rhs.slot_y and lhs.slot_z == rhs.slot_z
    assert lhs.slot_w == rhs.slot_w and lhs.slot_x == rhs.slot_x


@pytest.mark.parametrize("n,k,ell", [(4, 1, 1), (6, 2, 2), (5, 1, 2), (8, 3, 3), (12, 6, 2)])
def test_slot_vanishing_at_operator_weight(n, k, ell):
    from formlap.factory import run_pipeline

    t = run_pipeline(n, k, ell)
    assert t.slot_y.is_zero and t.slot_w.is_zero
    assert not t.slot_z.is_zero


def test_extract_slots():
    c = FormContext(6, 2, Fraction(1))
    m = make_M(c)
    l_part, g_part = extract_slots(m)
    f = FormExpr.generator(c)
    assert l_part == f.scale(3)            # k * (n+w-2k)/k * f
    assert g_part == f.apply_letter(CD)
    z = TractorFormExpr.zero(c, Fraction(-1))
    zl, zg = extract_slots(z)
    assert zl.is_zero and zg.is_zero
