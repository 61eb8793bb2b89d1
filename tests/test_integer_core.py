"""The integer-numerator core of ``formlap.forms`` against a per-coefficient Fraction reference.

The reference below stores an operator as its order and a map from
monomials ("1", ("E", p), ("F", q)) to Fractions; every operation is
written out coefficient by coefficient, without the shared denominator,
the gcd normalisation or the integer Horner sums under test.
"""

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap.coeffring import CoefficientError
from formlap.forms import OperatorPoly
from strategies import operators, small_fracs

J_VALUES = [Fraction(-3), Fraction(-2, 3), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
            Fraction(3)]
lams = st.fractions(min_value=-6, max_value=6, max_denominator=5)


# -- canonical form ------------------------------------------------------------


def assert_canonical(x):
    nums = [x.c_num, *x.e_nums, *x.f_nums]
    assert all(type(v) is int for v in nums)
    assert not x.e_nums or x.e_nums[-1]
    assert not x.f_nums or x.f_nums[-1]
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *nums) == 1
    if not any(nums):
        assert x.den == 1


# -- reference operators: (order, {monomial: Fraction}) -------------------------


def ref_op(op):
    """An operator's value read through ``monomials()``, never its numerators.

    Each monomial's J power must be the order minus its power of E or F.
    """
    coeffs = {}
    for name, c in op.monomials().items():
        key = "1" if name == "1" else (name[0], 1 if len(name) == 1 else int(name[2:]))
        assert c.m == op.order - (0 if key == "1" else key[1])
        coeffs[key] = c.c
    return op.order, coeffs


def ref_add(a, b, sign=1):
    assert a[0] == b[0]
    out = dict(a[1])
    for key, c in b[1].items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return a[0], {key: c for key, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for x, cx in a[1].items():
        for y, cy in b[1].items():
            if x == "1" or y == "1":
                key = y if x == "1" else x
            elif x[0] != y[0]:
                continue  # EF = FE = 0
            else:
                key = (x[0], x[1] + y[1])
            out[key] = out.get(key, Fraction(0)) + cx * cy
    return a[0] + b[0], {key: c for key, c in out.items() if c}


def ref_scale(a, c, power=0):
    return a[0] + power, {key: x * c for key, x in a[1].items() if x * c}


def ref_eigen(a, j, lam, side):
    """const J^m + sum over the side's monomials of x J^(m-p) lam^p, term by term."""
    m, coeffs = a
    total = Fraction(0)
    for key, x in coeffs.items():
        p = 0 if key == "1" else key[1]
        if key != "1" and key[0] != side:
            continue
        if j == 0 and m - p < 0:
            raise CoefficientError("pole")
        total += x * j ** (m - p) * lam ** p
    return total


# -- operators -----------------------------------------------------------------


@given(operators(), operators(), st.data())
@settings(max_examples=60)
def test_operator_arithmetic_matches_reference(a, b, data):
    c = data.draw(operators(order=a.order))
    for op in (a, b, c):
        assert_canonical(op)
    s, power = data.draw(small_fracs), data.draw(st.integers(-2, 2))
    for result, expected in ((a * b, ref_mul(ref_op(a), ref_op(b))),
                             (a + c, ref_add(ref_op(a), ref_op(c))),
                             (a + (-c), ref_add(ref_op(a), ref_op(c), -1)),
                             (-a, ref_scale(ref_op(a), Fraction(-1))),
                             (a.scale(s), ref_scale(ref_op(a), s)),
                             (a.scale(s.numerator), ref_scale(ref_op(a), s.numerator)),
                             # times s J^power, an operator of order power
                             (a * OperatorPoly.graded(6, 2, power, s, [], []),
                              ref_scale(ref_op(a), s, power)),
                             (OperatorPoly.combine(((s, power, a),)),
                              ref_scale(ref_op(a), s, power)),
                             (a.e_part(), (a.order, {key: x for key, x in ref_op(a)[1].items()
                                                     if key == "1" or key[0] == "E"}))):
        assert_canonical(result)
        assert ref_op(result) == expected


@given(st.integers(-2, 3), st.data())
@settings(max_examples=60)
def test_combine_matches_chained_arithmetic(order, data):
    # sum_i c_i J^a_i x_i in one multiply-accumulate, against the pairwise chain
    # of one-term combines and + and against the per-coefficient reference
    terms = []
    for _ in range(data.draw(st.integers(1, 4))):
        c = data.draw(small_fracs | st.integers(-6, 6))
        power = data.draw(st.integers(-2, 2))
        terms.append((c, power, data.draw(operators(order=order - power))))
    result = OperatorPoly.combine(terms)
    assert_canonical(result)
    assert result == reduce(add, (OperatorPoly.combine(((c, power, x),))
                                  for c, power, x in terms))
    assert ref_op(result) == reduce(ref_add, (ref_scale(ref_op(x), Fraction(c), power)
                                              for c, power, x in terms))


@given(operators(), operators(), st.data())
@settings(max_examples=50)
def test_operator_equality_is_value_equality(a, c, data):
    b = data.draw(operators(order=a.order))
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a + b) + (-b) == a
    assert a.scale(3).scale(Fraction(1, 3)) == a
    assert (a + (-a)).is_zero and (a + (-a)).den == 1


@given(operators(), st.sampled_from(J_VALUES), lams)
@settings(max_examples=100)
def test_operator_evaluation_matches_reference(op, j, lam):
    ref = ref_op(op)
    values = {}
    for kind, side in (("exact", "E"), ("coexact", "F"), ("harmonic", "")):
        try:
            values[kind] = ref_eigen(ref, j, lam, side)
        except CoefficientError:
            with pytest.raises(CoefficientError):
                op.on_eigenspace(kind, j, lam)
            continue
        value = op.on_eigenspace(kind, j, lam)
        assert type(value) is Fraction and value == values[kind]
