from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formlap.coeffring import CoefficientError, RatJ, ZERO
from formlap.factory import box_iterate, closed_factors, operator_weight, run_pipeline
from formlap.forms import (FormContext, InternalConsistencyError, OperatorPoly, UsageError,
                           proportionality, to_operator_poly)
from strategies import operators, shaped_operators, small_fracs

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
    assert product.monomials() == {name: c for name, c in expected.items() if not c.is_zero}


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


def assert_canonical(op):
    """Tuples of integers over a positive den, no common factor, no trailing zero, zero over 1."""
    assert type(op.e_nums) is tuple and type(op.f_nums) is tuple
    assert op.den > 0 and gcd(op.den, op.c_num, *op.e_nums, *op.f_nums) == 1
    assert not op.e_nums or op.e_nums[-1]
    assert not op.f_nums or op.f_nums[-1]
    assert not op.is_zero or op.den == 1


@given(shaped_operators())
@settings(max_examples=150)
def test_shifts_are_the_products_by_E_and_E_plus_F(x):
    # E x and (E + F) x move numerators up one power over the same denominator;
    # E x drops the F part (E F = 0), so an F-only operator goes to zero
    e = OperatorPoly(x.n, x.k, 1, 0, (1,))
    laplacian = OperatorPoly(x.n, x.k, 1, 0, (1,), (1,))
    assert_canonical(x)
    for shifted, product in ((x.times_e(), e * x), (x.times_laplacian(), laplacian * x)):
        assert_canonical(shifted)
        assert shifted == product and shifted.order == x.order + 1


def _fraction_sides(x):
    """The constant and the E and F coefficients of x as Fractions."""
    return (Fraction(x.c_num, x.den), [Fraction(v, x.den) for v in x.e_nums],
            [Fraction(v, x.den) for v in x.f_nums])


def _trimmed(values):
    while values and not values[-1]:
        values = values[:-1]
    return values


def _fraction_sum(terms):
    """(const, E, F) of sum_i c_i J**a_i x_i in Fractions; a J shift only relabels powers."""
    const, e, f = Fraction(0), [], []
    for c, _, x in terms:
        xc, xe, xf = _fraction_sides(x)
        const += c * xc
        e = [u + c * v for u, v in zip_longest(e, xe, fillvalue=0)]
        f = [u + c * v for u, v in zip_longest(f, xf, fillvalue=0)]
    return const, _trimmed(e), _trimmed(f)


@given(st.integers(min_value=-1, max_value=3),
       st.lists(st.tuples(st.one_of(st.integers(min_value=-6, max_value=6), small_fracs),
                          st.integers(min_value=0, max_value=2)), min_size=1, max_size=4),
       st.data())
@settings(max_examples=150)
def test_combine_is_the_fraction_sum(order, coeffs, data):
    # int and Fraction coefficients, summands of every shape and of mixed lengths
    terms = [(c, a, data.draw(shaped_operators(order=order - a))) for c, a in coeffs]
    out = OperatorPoly.combine(terms)
    assert_canonical(out)
    assert out.order == order
    assert _fraction_sides(out) == _fraction_sum(terms)


@given(shaped_operators(), st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(0)]),
       st.one_of(st.integers(min_value=-9, max_value=9), small_fracs))
@settings(max_examples=200)
def test_kills_is_the_zero_test_of_on_eigenspace(op, j, lam):
    # the reducer takes the constant apart from the side it reads: every
    # operator shape, negative and non-integer eigenvalues; at J = 0 kills
    # raises exactly where on_eigenspace raises (a nonzero coefficient of
    # negative J power)
    for kind in ("exact", "coexact", "harmonic"):
        try:
            value = op.on_eigenspace(kind, j, lam)
        except CoefficientError:
            assert j == 0
            with pytest.raises(CoefficientError):
                op.kills(kind, j, lam)
            continue
        assert op.kills(kind, j, lam) is (value == 0)
