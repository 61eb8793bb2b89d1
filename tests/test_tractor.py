from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap.forms import CD, D, FormContext, FormExpr, OperatorPoly
from formlap.tractor import (InternalConsistencyError, TractorFormExpr, apply_Mstar,
                             apply_box, extract_slots, make_M)


def test_make_M_examples():
    m = make_M(FormContext(6, 2, Fraction(1)))
    f = FormExpr.generator(FormContext(6, 2, Fraction(1)))
    assert m.slot_z == f.scale(Fraction(3, 2))
    assert m.slot_x == f.apply_letter(CD)
    assert m.slot_y.is_zero
    assert m.p == 0 and m.wt == -1

    m2 = make_M(FormContext(4, 2, Fraction(0)))
    assert m2.slot_z.is_zero  # n + w - 2k = 0
    assert not m2.slot_x.is_zero


def test_slot_invariants_enforced():
    c = FormContext(6, 2, Fraction(1))
    good = make_M(c)
    with pytest.raises(InternalConsistencyError):
        TractorFormExpr(c, good.p, good.slot_z, good.slot_z, good.slot_x)
    with pytest.raises(InternalConsistencyError):
        TractorFormExpr(c, good.p + 1, good.slot_y, good.slot_z, good.slot_x)


def test_box_on_pure_z_slot():
    # four-dimensional valence-one case: output slots
    # (-2 delta mu, (E + F - J) mu, -(1/2) J delta mu) at weight -1
    c = FormContext(4, 1, Fraction(1))
    mu = FormExpr.generator(c)
    t = TractorFormExpr(c, 0, FormExpr(c, 0, 0), mu, FormExpr(c, 0, 1))
    assert t.wt == 0
    out = apply_box(t)
    assert out.wt == -1
    assert out.slot_y == mu.apply_letter(CD).scale(-2)
    lap = OperatorPoly.graded(4, 1, 1, 0, [1], [1])
    assert out.slot_z == lap.to_form_expr(mu) + mu.times_J(1, -1)
    assert out.slot_x == mu.apply_letter(CD).times_J(1, Fraction(-1, 2))


def _slots(t):
    return [t.slot_y, t.slot_z, t.slot_x]


def _zero_like(t):
    return TractorFormExpr(t.ctx, t.p, *(slot.scale(0) for slot in _slots(t)))


def test_box_zero_tractor():
    c = FormContext(5, 2, Fraction(1, 2))
    z = _zero_like(make_M(c))
    assert z.is_zero
    assert apply_box(z).is_zero and apply_box(apply_box(z)).is_zero


def test_Mstar_contractions():
    c = FormContext(6, 2, Fraction(1))
    f = FormExpr.generator(c)
    # one box above the generator: tractor weight -2, slot orders 1, 1, 2 (weights -1, -1, -3)
    pure_z = TractorFormExpr(c, 1, FormExpr(c, 1, 1), f.times_J(1), FormExpr(c, 1, 2))
    assert pure_z.wt == -2
    assert apply_Mstar(pure_z) == pure_z.slot_z.scale(-(pure_z.wt + 2))
    pure_x = TractorFormExpr(c, 1, FormExpr(c, 1, 1), FormExpr(c, 2, 1),
                             f.apply_letter(CD).times_J(1))
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
    s = TractorFormExpr(c, 1,
                        f.apply_letter(CD),
                        OperatorPoly.graded(6, 2, 1, 0, [2], [-1]).to_form_expr(f) + f.times_J(1, 3),
                        f.apply_letter(CD).times_J(1))
    t = TractorFormExpr(c, 1,
                        f.apply_letter(CD).scale(-5),
                        f.times_J(1),
                        OperatorPoly.graded(6, 2, 1, 0, [], [1]).to_form_expr(f).apply_letter(CD))

    def combine(u, v):  # the slots of a*u + b*v
        return [x.scale(a) + y.scale(b) for x, y in zip(_slots(u), _slots(v))]

    lhs = apply_box(TractorFormExpr(c, 1, *combine(s, t)))
    assert _slots(lhs) == combine(apply_box(s), apply_box(t))


@pytest.mark.parametrize("n,k,ell", [(4, 1, 1), (6, 2, 2), (5, 1, 2), (8, 3, 3), (12, 6, 2)])
def test_slot_vanishing_at_operator_weight(n, k, ell):
    from formlap.factory import run_pipeline

    t = run_pipeline(n, k, ell)
    assert t.slot_y.is_zero
    assert not t.slot_z.is_zero


@given(st.sampled_from([(3, 1), (4, 1), (4, 2), (6, 2), (7, 3), (8, 4), (12, 5)]),
       st.lists(st.sampled_from([D, CD]), max_size=8))
@settings(max_examples=80, deadline=None)
def test_generator_words_reach_only_three_degrees(nk, letters):
    # why a tractor form has no degree-(k-2) slot: every word in d and the
    # codifferential applied to the generator is zero outside degrees k-1..k+1
    n, k = nk
    expr = FormExpr.generator(FormContext(n, k, Fraction(1)))
    for letter in letters:
        expr = expr.apply_letter(letter)
    assert expr.is_zero or abs(expr.degree - k) <= 1


def test_extract_slots():
    c = FormContext(6, 2, Fraction(1))
    m = make_M(c)
    l_part, g_part = extract_slots(m)
    f = FormExpr.generator(c)
    assert l_part == f.scale(3)            # k * (n+w-2k)/k * f
    assert g_part == f.apply_letter(CD)
    zl, zg = extract_slots(_zero_like(m))
    assert zl.is_zero and zg.is_zero
