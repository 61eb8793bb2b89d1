"""Hypothesis strategies shared by the test modules, and ``graded``, which builds an operator
from rational coefficients."""

from math import lcm

from hypothesis import strategies as st

from formlap.forms import OperatorPoly

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def graded(n, k, order, const, e, f):
    """The operator const J^order + sum e_p J^(order-p) E^p + sum f_q J^(order-q) F^q.

    The coefficients are ints or Fractions; they go over their common denominator.
    """
    values = (const, *e, *f)
    den = lcm(*(v.denominator for v in values))
    c, *nums = (v.numerator * (den // v.denominator) for v in values)
    return OperatorPoly.from_numerators(n, k, order, c, nums[:len(e)], nums[len(e):], den)


@st.composite
def operators(draw, n=6, k=2, order=None):
    """A weight-homogeneous operator on k-forms of M^n: order -2..3 unless given, small rational coefficients."""
    coeffs = st.lists(small_fracs, max_size=4)
    if order is None:
        order = draw(st.integers(min_value=-2, max_value=3))
    return graded(n, k, order, draw(small_fracs), draw(coeffs), draw(coeffs))


@st.composite
def shaped_operators(draw, n=6, k=2, order=None):
    """An operator of one of five shapes: general, zero, constant only, E only or F only."""
    if order is None:
        order = draw(st.integers(min_value=-2, max_value=3))
    nonzero = small_fracs.filter(bool)
    side = st.lists(small_fracs, min_size=1, max_size=4)
    shape = draw(st.sampled_from(("general", "zero", "constant", "e", "f")))
    if shape == "general":
        return draw(operators(n, k, order))
    if shape == "zero":
        return OperatorPoly(n, k, order)
    if shape == "constant":
        return graded(n, k, order, draw(nonzero), [], [])
    if shape == "e":
        return graded(n, k, order, 0, draw(side), [])
    return graded(n, k, order, 0, [], draw(side))
