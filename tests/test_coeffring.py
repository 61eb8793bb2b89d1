from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap.coeffring import CoefficientError, RatJ, ZERO
from formlap.forms import InternalConsistencyError, OperatorPoly

J = RatJ(1, 1)
ONE = RatJ(1)


def jpow(m, c=1):
    """c * J**m."""
    return RatJ(c, m)


small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
degrees = st.integers(min_value=-3, max_value=3)


@st.composite
def ratjs(draw, m=None):
    """c * J**m with m in -3..3 (or the given degree); c may be 0."""
    return jpow(draw(degrees) if m is None else m, draw(small_fracs))


@st.composite
def same_degree_pairs(draw):
    m = draw(degrees)
    return draw(ratjs(m)), draw(ratjs(m))


def test_basic_examples():
    assert (J * J * 2) / (2 * J) == J
    assert RatJ(Fraction(1, 2)) + Fraction(1, 3) == RatJ(Fraction(5, 6))
    assert J * 2 - J == J
    assert (J / J) == ONE
    assert (1 / J) * J == ONE
    assert 3 - ONE == RatJ(2)
    assert sum([J, J * Fraction(1, 2)]) == jpow(1, Fraction(3, 2))


def test_eval_examples():
    assert (J * 3).eval_at(2) == 6
    assert (RatJ(4) / (J * J)).eval_at(Fraction(1, 2)) == 16
    assert jpow(2, 5).eval_at(0) == 0
    assert jpow(-2, 3).eval_at(2) == Fraction(3, 4)  # exact at an int J, no float power
    assert type(jpow(-2, 3).eval_at(2)) is Fraction
    assert ONE.eval_at(0) == 1
    with pytest.raises(CoefficientError):
        (1 / J).eval_at(0)


def test_division_by_zero():
    with pytest.raises(CoefficientError):
        ONE / ZERO
    with pytest.raises(CoefficientError):
        J / 0
    with pytest.raises(CoefficientError):
        1 / ZERO
    with pytest.raises(CoefficientError):
        ZERO.inv()


def test_sum_of_different_degrees_raises():
    with pytest.raises(CoefficientError):
        J + 1
    with pytest.raises(CoefficientError):
        1 - J * J
    with pytest.raises(CoefficientError):
        J / J + J
    # zero is the identity at every degree
    assert J + ZERO == J and ZERO + jpow(-2, 3) == jpow(-2, 3)
    assert (J - J) + 5 == RatJ(5)


def test_operator_sum_of_different_degrees_raises():
    a = OperatorPoly.graded(6, 2, 1, 2, [1], [3])   # 2J + E + 3F
    c = OperatorPoly.graded(6, 2, 2, 0, [1], [])    # J E
    assert (a.order, c.order) == (1, 2)
    with pytest.raises(InternalConsistencyError):
        a + (-c)
    assert (a + a).monomials() == {"1": J * 4, "E": RatJ(2), "F": RatJ(6)}


@given(ratjs(), ratjs())
def test_round_trip_product_cancellation(a, b):
    if b.is_zero:
        return
    assert (a * b) / b == a
    assert (a / b) * b == a
    assert b * b.inv() == ONE


@given(same_degree_pairs(), ratjs(), st.fractions(min_value=-5, max_value=5, max_denominator=4))
@settings(max_examples=80)
def test_eval_is_ring_homomorphism(pair, b2, j0):
    a, b = pair
    if j0 == 0 and min(a.m, b.m, b2.m) < 0:
        # the pole at J = 0: every nonzero value of negative degree raises
        for x in (a, b, b2):
            if x.m < 0:
                with pytest.raises(CoefficientError):
                    x.eval_at(j0)
        return
    ea, eb, eb2 = a.eval_at(j0), b.eval_at(j0), b2.eval_at(j0)
    assert (a + b).eval_at(j0) == ea + eb
    assert (a - b).eval_at(j0) == ea - eb
    assert (a * b2).eval_at(j0) == ea * eb2
    if not b2.is_zero and j0 != 0:
        assert (a / b2).eval_at(j0) == ea / eb2


def test_render_format():
    assert str(jpow(2, Fraction(3, 2))) == "3/2*J^2"
    assert str(-J) == "-J"
    assert str(RatJ(Fraction(-5, 6))) == "-5/6"
    assert str(ZERO) == "0"
    assert str(jpow(-2, Fraction(-3, 2))) == "(-3/2) / (J^2)"
    assert str(1 / J) == "(1) / (J)"


def test_normal_form_invariants():
    x = (J * 0) * (1 / J)
    assert x == ZERO and x.c == 0 and x.m == 0
    assert RatJ(0, 5) == ZERO
    assert hash(jpow(1, 2)) == hash(J * 2)
    assert isinstance((J * 2).c, Fraction)
    assert not ZERO and bool(J)


def test_monomial_degree():
    assert (J * J * Fraction(3, 2)).m == 2
    assert (1 / (J * J)).m == -2
    assert ZERO.m == 0
    assert ONE.m == 0
    assert (J * 3 - J * 3).m == 0
