from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formlap.coeffring import RatJ, ZERO
from formlap.factory import box_iterate, closed_factors, operator_weight, run_pipeline
from formlap.forms import (FormContext, InternalConsistencyError, OperatorPoly, UsageError,
                           proportionality, to_operator_poly)
from strategies import operators

J = RatJ(1, 1)


def test_context_validation():
    with pytest.raises(UsageError):
        FormContext(2, 1, Fraction(0))
    with pytest.raises(UsageError):
        FormContext(6, 4, Fraction(0))  # k > n/2


def test_homogeneity_add_error():
    # E and J f lower weights by 2, f itself does not
    f, e = OperatorPoly(6, 2, 0, 1), OperatorPoly.graded(6, 2, 1, 0, [1], [])
    with pytest.raises(InternalConsistencyError):
        f + e
    assert (OperatorPoly.combine(((1, 1, f),)) + e).monomials() == {"E": RatJ(1), "1": J}


def test_zero_summand_of_another_weight_raises():
    f = OperatorPoly(6, 2, 0, 1)
    for zero in (OperatorPoly(6, 2, 1), OperatorPoly(6, 1, 0)):
        with pytest.raises(InternalConsistencyError):
            f + zero
        with pytest.raises(InternalConsistencyError):
            zero + f
    assert f + OperatorPoly(6, 2, 0) == f


def test_to_operator_poly_examples():
    # operators leave the tractor slots as elements of R: the read-out is the identity
    L = run_pipeline(6, 2, 2)[0]
    assert to_operator_poly(L) is L


def test_poly_mul_examples():
    # (E + J)(F + J) = J E + J F + J^2, since EF = 0
    p = OperatorPoly.graded(6, 2, 1, 1, [1], []) * OperatorPoly.graded(6, 2, 1, 1, [], [1])
    assert p.order == 2
    assert p.monomials() == {"E": J, "F": J, "1": J * J}
    q = OperatorPoly.graded(6, 2, 1, 0, [1], [-1]) * OperatorPoly.graded(6, 2, 1, 0, [1], [1])
    assert q.monomials() == {"E^2": RatJ(1), "F^2": RatJ(-1)}


def test_bezout_ring_identity_n4():
    # hand expansion in R of the weight-two relative-inverse pair at n = 4
    phi_t = OperatorPoly.graded(4, 2, -1, 2, [-4], [-4])   # 2/J - 4/J^2 (E + F)
    s = OperatorPoly.graded(4, 2, 1, Fraction(1, 2), [1], [1])
    phi_u = OperatorPoly.graded(4, 2, -1, 0, [4], [-4])
    t = OperatorPoly.graded(4, 2, 1, 0, [1], [-1])
    assert (phi_t * s + phi_u * t).monomials() == {"1": RatJ(1)}


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_ring_relations_exhaustive(p, q):
    e_mono = OperatorPoly.graded(6, 2, p, 0, [0] * (p - 1) + [1], [])
    f_mono = OperatorPoly.graded(6, 2, q, 0, [], [0] * (q - 1) + [1])
    assert (e_mono * f_mono).is_zero
    assert (f_mono * e_mono).is_zero


def test_context_mismatch():
    with pytest.raises(InternalConsistencyError):
        OperatorPoly.graded(6, 2, 1, 0, [1], []) * OperatorPoly.graded(6, 1, 1, 0, [1], [])


def test_proportionality_examples():
    a = OperatorPoly.graded(6, 2, 1, 3, [2], [6])
    b = OperatorPoly.graded(6, 2, 1, Fraction(3, 2), [1], [3])
    assert proportionality(a, b) == RatJ(2)
    e, f, zero = (OperatorPoly.graded(6, 2, 1, 0, [1], []), OperatorPoly.graded(6, 2, 1, 0, [], [1]),
                  OperatorPoly(6, 2, 0))
    assert proportionality(e, f) is None
    assert proportionality(zero, e) == RatJ(0)
    with pytest.raises(InternalConsistencyError):
        proportionality(e, zero)


def test_normal_form_idempotent():
    e = OperatorPoly.graded(6, 2, 1, 0, [1], [])
    zero = e + e.scale(-1)
    assert zero.is_zero and zero == OperatorPoly(6, 2, 1) and zero.den == 1
    # a common factor of the numerators goes into the denominator
    assert OperatorPoly.from_numerators(6, 2, 1, 4, [6], [], 8) == OperatorPoly(6, 2, 1, 2, (3,), (), 4)


def test_render():
    p = OperatorPoly.graded(6, 2, 1, Fraction(3, 2), [1], [3])
    assert p.render() == "E + 3F + (3/2*J)"
    assert "d\\delta" in p.render(latex=True)


@given(operators(), operators())
def test_sum_of_different_orders_raises(a, b):
    assume(a.order != b.order)
    with pytest.raises(InternalConsistencyError):
        a + b
    with pytest.raises(InternalConsistencyError):
        a + (-b)


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
    L, X = run_pipeline(n, k, ell)
    t = box_iterate(n, k, operator_weight(n, k, ell), ell)
    factors = closed_factors(n, k, ell)
    ops = [L, L * L, L + L, L * OperatorPoly(n, k, 1, 1), L.scale(Fraction(2, 3)), -L, *factors,
           X, L.e_part(), t.slot_y, t.slot_z, t.slot_x, X.scale(3),
           OperatorPoly.combine(((3, 2, X),))]
    for op in ops:
        assert all(type(c.c) is Fraction for c in op.monomials().values())


def test_combine_checks_order_and_context():
    f, e = OperatorPoly(6, 2, 0, 1), OperatorPoly(6, 2, 1, 0, (1,))
    assert OperatorPoly.combine(((2, 1, f), (Fraction(1, 2), 0, e))) == OperatorPoly(6, 2, 1, 4, (1,), (), 2)
    with pytest.raises(InternalConsistencyError, match="adding operators of orders 1 and 0"):
        OperatorPoly.combine(((1, 0, e), (1, 0, f)))
    with pytest.raises(InternalConsistencyError, match="context mismatch"):
        OperatorPoly.combine(((1, 0, e), (1, 1, OperatorPoly(6, 1, 0, 1))))
