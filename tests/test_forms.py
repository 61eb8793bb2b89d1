from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap.coeffring import J, ratj
from formlap.forms import (CD, D, FormAlgebraError, FormContext, FormExpr, OperatorPoly,
                           proportionality, to_operator_poly, word_is_valid)


def ctx(n=6, k=2, w=1):
    return FormContext(n, k, Fraction(w))


def test_context_validation():
    with pytest.raises(FormAlgebraError):
        FormContext(2, 1, Fraction(0))
    with pytest.raises(FormAlgebraError):
        FormContext(6, 4, Fraction(0))  # k > n/2


def test_apply_letter_bookkeeping():
    f = FormExpr.generator(ctx(6, 2, 1))
    cf = f.apply_letter(CD)
    assert cf.degree == 1 and cf.weight == -1 and set(cf.terms) == {CD}


def test_repeated_letters_vanish():
    f = FormExpr.generator(ctx())
    assert f.apply_letter(CD).apply_letter(CD).is_zero
    assert f.apply_letter(D).apply_letter(D).is_zero


def test_top_degree_annihilation():
    c = FormContext(4, 2, Fraction(0))
    top = FormExpr(c, 4, Fraction(0), {"": ratj(1)})
    assert top.apply_letter(D).is_zero
    bottom = FormExpr(c, 0, Fraction(0), {"": ratj(1)})
    assert bottom.apply_letter(CD).is_zero


@given(st.lists(st.sampled_from([D, CD]), min_size=0, max_size=7))
def test_alternation_invariant(letters):
    expr = FormExpr.generator(ctx())
    for letter in letters:
        expr = expr.apply_letter(letter)
    for word in expr.terms:
        assert word_is_valid(word, 2, 6)
        assert D + D not in word and CD + CD not in word
    expr.validate()


def test_homogeneity_add_error():
    f = FormExpr.generator(ctx())
    with pytest.raises(FormAlgebraError):
        f + f.apply_letter(CD)


def test_to_operator_poly_examples():
    f = FormExpr.generator(ctx())
    e1 = f.apply_word(D + CD).scale(3)
    assert to_operator_poly(e1).monomials() == {"E": ratj(3)}
    e2 = f.apply_word(D + CD).apply_word(D + CD)
    assert to_operator_poly(e2).monomials() == {"E^2": ratj(1)}
    with pytest.raises(FormAlgebraError):
        to_operator_poly(f.apply_letter(CD))


def test_poly_mul_examples():
    p = OperatorPoly.linear(6, 2, 1, 0, 1) * OperatorPoly.linear(6, 2, 0, 1, 1)
    assert p.monomials() == {"E": ratj(1), "F": ratj(1), "1": ratj(1)}
    q = OperatorPoly.linear(6, 2, 1, -1) * OperatorPoly.linear(6, 2, 1, 1)
    assert q.monomials() == {"E^2": ratj(1), "F^2": ratj(-1)}


def test_bezout_ring_identity_n4():
    # hand expansion in R of the weight-two relative-inverse pair at n = 4
    phi_t = OperatorPoly.make(4, 2, 2 / J, (-4 / (J * J),), (-4 / (J * J),))
    s = OperatorPoly.make(4, 2, J / 2, (ratj(1),), (ratj(1),))
    phi_u = OperatorPoly.make(4, 2, 0, (4 / (J * J),), (-4 / (J * J),))
    t = OperatorPoly.make(4, 2, 0, (ratj(1),), (ratj(-1),))
    assert (phi_t * s + phi_u * t).monomials() == {"1": ratj(1)}


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_ring_relations_exhaustive(p, q):
    e_mono = OperatorPoly.make(6, 2, 0, [0] * (p - 1) + [1], ())
    f_mono = OperatorPoly.make(6, 2, 0, (), [0] * (q - 1) + [1])
    assert (e_mono * f_mono).is_zero
    assert (f_mono * e_mono).is_zero


def test_context_mismatch():
    with pytest.raises(FormAlgebraError):
        OperatorPoly.linear(6, 2, 1, 0) * OperatorPoly.linear(6, 1, 1, 0)


def test_proportionality_examples():
    a = OperatorPoly.make(6, 2, J * 3, (ratj(2),), (ratj(6),))
    b = OperatorPoly.make(6, 2, J * Fraction(3, 2), (ratj(1),), (ratj(3),))
    assert proportionality(a, b) == ratj(2)
    assert proportionality(OperatorPoly.linear(6, 2, 1, 0), OperatorPoly.linear(6, 2, 0, 1)) is None
    assert proportionality(OperatorPoly.zero(6, 2), OperatorPoly.linear(6, 2, 1, 0)) == ratj(0)
    with pytest.raises(FormAlgebraError):
        proportionality(OperatorPoly.linear(6, 2, 1, 0), OperatorPoly.zero(6, 2))


def test_normal_form_idempotent():
    f = FormExpr.generator(ctx())
    e = f.apply_word(D + CD) + f.apply_word(D + CD).scale(-1)
    assert e.is_zero and e.terms == {}


def test_render():
    p = OperatorPoly.make(6, 2, J * Fraction(3, 2), (ratj(1),), (ratj(3),))
    assert p.render() == "E + 3F + (3/2*J)"
    assert "d\\delta" in p.render(latex=True)


def test_to_form_expr_keeps_the_weight_of_a_zero_input():
    # c J^m E^p lowers the weight by 2(m + p), on the zero form as on any other
    c = ctx(5, 2, 1)
    gen, zero = FormExpr.generator(c), FormExpr.zero(c, 2, Fraction(1))
    lap = OperatorPoly.linear(5, 2, 1, 1)
    assert lap.to_form_expr(gen).weight == lap.to_form_expr(zero).weight == -1
    j_e = OperatorPoly.make(5, 2, 0, (J,), ())
    assert j_e.to_form_expr(gen).weight == j_e.to_form_expr(zero).weight == -3
    assert OperatorPoly.zero(5, 2).to_form_expr(zero).weight == 1
