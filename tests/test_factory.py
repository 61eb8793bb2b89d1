from fractions import Fraction

import pytest

import formlap.factory as factory
from formlap.coeffring import J, jpow, ratj
from formlap.factory import (build_L_and_G, build_L_definition, build_tmodbox, closed_factors,
                             closed_G1, closed_L1, closed_tmodbox1, closed_tmodbox2,
                             closed_tmodbox2_w1, operator_weight, sqyam_factors, yam_factor)
from formlap.forms import CD, D, FormAlgebraError, FormContext, FormExpr, proportionality


def test_closed_L1_examples():
    assert closed_L1(8, 2).monomials() == {"E": ratj(1), "F": ratj(3), "1": jpow(1, Fraction(3, 2))}
    assert closed_L1(4, 2).monomials() == {"E": ratj(-1), "F": ratj(1)}
    assert closed_L1(6, 1).monomials() == {"E": ratj(1), "F": ratj(3), "1": jpow(1, 2)}


def test_definition_examples():
    assert proportionality(build_L_definition(4, 2, 1),
                           OperatorPoly_EF(4, 2, 1, -1)) is not None
    assert build_L_definition(8, 2, 1).monomials() == closed_L1(8, 2).monomials()
    assert build_L_definition(4, 1, 1).monomials() == {"F": ratj(2)}


def OperatorPoly_EF(n, k, e, f):
    from formlap.forms import OperatorPoly

    return OperatorPoly.linear(n, k, e, f)


@pytest.mark.parametrize("n", range(3, 13))
def test_order_one_equality_grid(n):
    for k in range(1, n // 2 + 1):
        assert build_L_definition(n, k, 1).monomials() == closed_L1(n, k).monomials(), (n, k)


def test_build_G_examples():
    g = build_L_and_G(4, 1, 1)[1]
    c = FormContext(4, 1, operator_weight(4, 1, 1))
    f = FormExpr.generator(c)
    expected = (f.apply_word(D + CD) + f.times_J(1, 1)).apply_letter(CD)
    assert g == expected
    assert g == closed_G1(4, 1)


@pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (8, 3), (5, 1), (9, 4)])
def test_G_closed_form_order_one(n, k):
    assert build_L_and_G(n, k, 1)[1] == closed_G1(n, k)


def test_closed_factors_examples():
    f1 = closed_factors(8, 2, 1)
    assert [f.monomials() for f in f1.factors] == [
        {"E": ratj(-2), "F": ratj(-6), "1": jpow(1, -3)}]
    f2 = closed_factors(4, 2, 2)
    assert [f.monomials() for f in f2.factors] == [
        {"E": ratj(1), "F": ratj(-1)},
        {"E": ratj(2), "F": ratj(2), "1": jpow(1, -2)}]
    f3 = closed_factors(6, 1, 3)
    assert [f.monomials() for f in f3.factors] == [
        {"E": ratj(Fraction(3, 2)), "F": ratj(Fraction(5, 2))},
        {"E": ratj(1), "F": ratj(-1), "1": jpow(1, Fraction(4, 3))},
        {"E": ratj(-2), "F": ratj(-6), "1": jpow(1, -4)}]


def test_closed_factors_case_selection():
    # top degree (even n): leading antisymmetric factor
    top = closed_factors(6, 3, 2)
    assert top.factors[0].monomials() == {"E": ratj(1), "F": ratj(-1)}
    assert len(top.factors) == 2
    # odd dimension: generic factors only
    odd = closed_factors(7, 2, 4)
    assert len(odd.factors) == 4
    for f in odd.factors:
        assert f.const != 0
    # nonpositive weight (even n): generic factors only
    w0 = closed_factors(8, 2, 2)
    assert operator_weight(8, 2, 2) == 0 and len(w0.factors) == 2
    # positive weight below top degree: degenerate-weight pair first
    pos = closed_factors(6, 2, 2)
    assert pos.factors[0].monomials() == {"E": ratj(Fraction(1, 2)), "F": ratj(Fraction(3, 2))}
    assert pos.factors[1].monomials() == {"E": ratj(1), "F": ratj(-1), "1": jpow(1, Fraction(2, 3))}


def test_factor_count_invariant():
    for (n, k, ell) in [(4, 2, 5), (10, 3, 6), (11, 5, 4), (12, 6, 3)]:
        assert len(closed_factors(n, k, ell).factors) == ell


def test_param_validation():
    with pytest.raises(FormAlgebraError):
        closed_factors(6, 4, 2)
    with pytest.raises(FormAlgebraError):
        build_L_definition(6, 1, 0)


def test_tmodbox_examples():
    assert build_tmodbox(6, 2, 1, 1).monomials() == {"E": ratj(-1)}
    # weight zero: ((n-2k)/k) F
    assert build_tmodbox(6, 1, 0, 1).monomials() == {"F": ratj(4)}
    assert build_tmodbox(8, 2, 0, 1).monomials() == {"F": ratj(2)}
    got = build_tmodbox(6, 1, 1, 2)
    want = closed_tmodbox2_w1(6, 1)
    assert got.monomials() == want.monomials()
    # -2 [ (3/2)E + (5/2)F ][ E - F + (4/3)J ]
    first, second = sqyam_factors(6, 1)
    assert (first * second).scale(-2).monomials() == got.monomials()


@pytest.mark.parametrize("n,k,w", [(6, 2, 1), (6, 2, 0), (5, 1, Fraction(1, 2)),
                                   (8, 3, 2), (4, 1, -1), (12, 4, 3)])
def test_tmodbox_p1_closed_form(n, k, w):
    assert build_tmodbox(n, k, w, 1).monomials() == closed_tmodbox1(n, k, w).monomials()


@pytest.mark.parametrize("n,k,w", [(6, 2, 1), (6, 1, 1), (8, 3, 2),
                                   (5, 1, Fraction(1, 2)), (7, 3, Fraction(-3, 2))])
def test_tmodbox_p2_closed_form(n, k, w):
    assert build_tmodbox(n, k, w, 2).monomials() == closed_tmodbox2(n, k, w).monomials()


@pytest.mark.parametrize("n,k,w", [(6, 2, 1), (8, 2, 2), (5, 2, Fraction(1, 2)), (9, 3, -1)])
def test_square_relation(n, k, w):
    # composing the order-one reduction at weights w and w-1 equals
    # -(1/k)(w-1)(n+w-2k-1) times the order-two reduction at weight w
    w = Fraction(w)
    lhs = build_tmodbox(n, k, w - 1, 1) * build_tmodbox(n, k, w, 1)
    scalar = Fraction(-1, k) * (w - 1) * (n + w - 2 * k - 1)
    rhs = build_tmodbox(n, k, w, 2).scale(scalar)
    assert lhs.monomials() == rhs.monomials()


def test_yam_factor_matches_tmodbox1():
    # the generic factor with index i is -k times the order-one reduction
    # at weight w - i + 1
    for (n, k, ell, i) in [(8, 2, 3, 2), (7, 1, 4, 3), (10, 3, 5, 1)]:
        w = operator_weight(n, k, ell)
        lhs = yam_factor(n, k, w, i)
        rhs = closed_tmodbox1(n, k, w - i + 1).scale(-k)
        assert lhs.monomials() == rhs.monomials()


def test_sweep_builds_each_box_state_once(monkeypatch):
    # the operators, companions and second-order reductions of a sweep all
    # read the same box iterates: one apply_box per state (n, k, w, p >= 1)
    from formlap.verify import default_grid, run_sweep

    for cached in (factory.box_iterate, factory.run_pipeline, factory.build_L_and_G,
                   factory.build_tmodbox):
        cached.cache_clear()
    calls = []
    apply_box = factory.apply_box

    def counting_apply_box(t):
        calls.append(t.wt)
        return apply_box(t)

    monkeypatch.setattr(factory, "apply_box", counting_apply_box)
    reports = run_sweep(["factorization", "MMstar", "LG", "bezout", "kernel"],
                        range(3, 6), ell_max=3)
    assert all(r.passed for r in reports)
    assert len(calls) == sum(ell for _, _, ell in default_grid(range(3, 6), 3))
