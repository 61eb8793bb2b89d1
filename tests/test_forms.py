from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formlap.coeffring import J, RatJ, ZERO, jpow, ratj
from formlap.factory import build_L_and_G, closed_factors, run_pipeline
from formlap.forms import (CD, D, FormAlgebraError, FormContext, FormExpr,
                           InternalConsistencyError, OperatorPoly, proportionality,
                           to_operator_poly)
from strategies import operators


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
    top = FormExpr(c, 4, 0, {"": 1})
    assert top.apply_letter(D).is_zero
    bottom = FormExpr(c, 0, 0, {"": 1})
    assert bottom.apply_letter(CD).is_zero


@given(st.lists(st.sampled_from([D, CD]), min_size=0, max_size=7))
def test_alternation_invariant(letters):
    expr = FormExpr.generator(ctx())
    for letter in letters:
        expr = expr.apply_letter(letter)
    for word in expr.terms:
        assert D + D not in word and CD + CD not in word
        # the degree after each suffix (the letters applied so far) stays in [0, n]
        degrees = [2 + word[i:].count(D) - word[i:].count(CD) for i in range(len(word) + 1)]
        assert all(0 <= d <= 6 for d in degrees) and degrees[0] == expr.degree
        # letters carry no J: the weight implies the power J^0 at every word
        assert expr.coefficient(word) == RatJ(1)


def test_homogeneity_add_error():
    f = FormExpr.generator(ctx())
    with pytest.raises(FormAlgebraError):
        f + f.apply_letter(CD)


def test_zero_summand_of_another_weight_raises():
    c = ctx()
    f = FormExpr.generator(c)
    for zero in (FormExpr.zero(c, c.k, c.w - 2), FormExpr.zero(c, c.k + 1, c.w)):
        with pytest.raises(FormAlgebraError):
            f + zero
        with pytest.raises(FormAlgebraError):
            zero + f
    assert f + FormExpr.zero(c, c.k, c.w) == f


def test_weight_off_the_even_lattice_is_an_internal_error():
    # the J power at a word is the stored order minus its codifferential
    # count, so an odd weight cannot be stored; the one place a weight is
    # converted to an order rejects it
    c = ctx()
    f = FormExpr.generator(c)
    assert f.times_J(2, 3).apply_letter(CD).coefficient(CD) == jpow(2, 3)
    assert FormExpr.zero(c, c.k, c.w - 4).order == 2
    with pytest.raises(InternalConsistencyError):
        FormExpr.zero(c, c.k, c.w - 1)


def test_to_operator_poly_examples():
    f = FormExpr.generator(ctx())
    e1 = f.apply_word(D + CD).scale(3)
    assert to_operator_poly(e1).monomials() == {"E": ratj(3)}
    e2 = f.apply_word(D + CD).apply_word(D + CD)
    assert to_operator_poly(e2).monomials() == {"E^2": ratj(1)}
    with pytest.raises(FormAlgebraError):
        to_operator_poly(f.apply_letter(CD))


def test_poly_mul_examples():
    # (E + J)(F + J) = J E + J F + J^2, since EF = 0
    p = OperatorPoly.linear(6, 2, 1, 0, J) * OperatorPoly.linear(6, 2, 0, 1, J)
    assert p.order == 2
    assert p.monomials() == {"E": J, "F": J, "1": J * J}
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
    assert proportionality(OperatorPoly.make(6, 2, 0), OperatorPoly.linear(6, 2, 1, 0)) == ratj(0)
    with pytest.raises(FormAlgebraError):
        proportionality(OperatorPoly.linear(6, 2, 1, 0), OperatorPoly.make(6, 2, 0))


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
    assert OperatorPoly.make(5, 2, 0).to_form_expr(zero).weight == 1


def _ratj_inputs(op):
    """The coefficients of op as c * J**m values, the form OperatorPoly.make takes."""
    return (RatJ(op.const, op.order),
            [RatJ(c, op.order - p) for p, c in enumerate(op.e_coeffs, start=1)],
            [RatJ(c, op.order - q) for q, c in enumerate(op.f_coeffs, start=1)])


@given(operators())
def test_make_round_trips_ratj_inputs(op):
    assume(not op.is_zero)  # make gives the zero operator order 0
    assert OperatorPoly.make(6, 2, *_ratj_inputs(op)) == op


@given(operators(), st.sampled_from([-2, -1, 1, 2]), st.booleans())
def test_make_rejects_inhomogeneous_input(op, shift, on_e):
    # one more E or F monomial whose J power belongs to another order
    assume(not op.is_zero)
    const, e, f = _ratj_inputs(op)
    coeffs = e if on_e else f
    coeffs.append(jpow(op.order - len(coeffs) - 1 + shift, 1))
    with pytest.raises(FormAlgebraError):
        OperatorPoly.make(6, 2, const, e, f)


@given(operators(), operators())
def test_sum_of_different_orders_raises(a, b):
    assume(a.order != b.order)
    with pytest.raises(FormAlgebraError):
        a + b
    with pytest.raises(FormAlgebraError):
        a - b


def _monomial_product(x, y):
    """Name of the product of two monomials named "1", "E", "E^p", "F^q"; None if EF."""
    def split(name):
        if name == "1":
            return "", 0
        return name[0], 1 if len(name) == 1 else int(name[2:])

    (lx, px), (ly, py) = split(x), split(y)
    if lx and ly and lx != ly:
        return None
    letter, power = lx or ly, px + py
    return "1" if not letter else letter if power == 1 else f"{letter}^{power}"


@given(operators(), operators())
@settings(max_examples=80)
def test_product_monomials_match_ratj_expansion(a, b):
    # independent reference: expand the product monomial by monomial in RatJ
    # arithmetic, which raises on a sum of different J degrees
    expected: dict = {}
    for x, cx in a.monomials().items():
        for y, cy in b.monomials().items():
            name = _monomial_product(x, y)
            if name is not None:
                expected[name] = expected.get(name, ZERO) + cx * cy
    product = a * b
    assert product.order == a.order + b.order
    assert product.monomials() == {name: c for name, c in expected.items() if c}


@pytest.mark.parametrize("n,k,ell", [(8, 2, 3), (6, 3, 2), (7, 2, 4), (10, 2, 3)])
def test_coefficients_are_plain_fractions(n, k, ell):
    L, G = build_L_and_G(n, k, ell)
    t = run_pipeline(n, k, ell)
    factors = closed_factors(n, k, ell).factors
    ops = [L, L * L, L + L, L.scale(J), -L, *factors]
    for op in ops:
        assert all(type(c) is Fraction for c in (op.const, *op.e_coeffs, *op.f_coeffs))
    gen = FormExpr.generator(FormContext(n, k, Fraction(k) + ell - Fraction(n, 2)))
    exprs = [G, L.to_form_expr(gen), t.slot_y, t.slot_z, t.slot_x, G.scale(3), G.times_J(2, 3)]
    for expr in exprs:
        assert all(type(c) is Fraction for c in expr.terms.values())
