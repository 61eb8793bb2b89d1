"""The integer-numerator core of ``formlap.forms`` against a per-coefficient Fraction reference.

The reference below stores an operator as its order and a map from
monomials ("1", ("E", p), ("F", q)) to Fractions, and an expression as
its order and a map from words to Fractions; every operation is written
out coefficient by coefficient, without the shared denominator, the gcd
normalisation or the integer Horner sums under test.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap.coeffring import CoefficientError, RatJ
from formlap.forms import CD, D, FormContext, FormExpr
from strategies import operators, small_fracs

CONTEXTS = [FormContext(6, 2, Fraction(1)), FormContext(4, 1, Fraction(0)),
            FormContext(5, 2, Fraction(1, 2)), FormContext(3, 1, Fraction(-3, 2))]
J_VALUES = [Fraction(-3), Fraction(-2, 3), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
            Fraction(3)]
lams = st.fractions(min_value=-6, max_value=6, max_denominator=5)


# -- canonical form ------------------------------------------------------------


def assert_canonical(x):
    if isinstance(x, FormExpr):
        nums = list(x.nums.values())
        assert all(type(v) is int and v for v in nums)
    else:
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
    coeffs = {"1": Fraction(op.c_num, op.den)}
    coeffs.update({("E", p): Fraction(x, op.den) for p, x in enumerate(op.e_nums, start=1)})
    coeffs.update({("F", q): Fraction(x, op.den) for q, x in enumerate(op.f_nums, start=1)})
    return op.order, {key: c for key, c in coeffs.items() if c}


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


def read_op(op):
    """An operator's value through the public read-outs, in the reference's shape."""
    coeffs = {"1": op.const}
    coeffs.update({("E", p): c for p, c in enumerate(op.e_coeffs, start=1)})
    coeffs.update({("F", q): c for q, c in enumerate(op.f_coeffs, start=1)})
    return op.order, {key: c for key, c in coeffs.items() if c}


# -- reference expressions: (degree, order, {word: Fraction}) --------------------


def ref_prefix(word, prefix, degree, n):
    """Letters of prefix applied right to left to one word; None when it vanishes."""
    for letter in reversed(prefix):
        degree += 1 if letter == D else -1
        if word.startswith(letter) or not 0 <= degree <= n:
            return None
        word = letter + word
    return word


def ref_apply(a, expr):
    m, coeffs = a
    out = {}
    for key, c in coeffs.items():
        prefix = "" if key == "1" else (D + CD if key[0] == "E" else CD + D) * key[1]
        for w, x in expr.terms.items():
            word = ref_prefix(w, prefix, expr.degree, expr.ctx.n)
            if word is not None:
                out[word] = out.get(word, Fraction(0)) + c * x
    return expr.degree, expr.order + m, {w: c for w, c in out.items() if c}


def read_expr(expr):
    return expr.degree, expr.order, expr.terms


@st.composite
def expressions(draw, ctx, shift, order):
    """Sum of generator words of one degree shift, each times c * J**power, of one order."""
    words = {start[:length] for start in ("dc" * 3, "cd" * 3) for length in range(6)}
    words = sorted(w for w in words if w.count(D) - w.count(CD) == shift)
    gen = FormExpr.generator(ctx)
    out = FormExpr.zero(ctx, ctx.k + shift, ctx.w - 2 * order)
    for w in draw(st.lists(st.sampled_from(words), max_size=4)):
        out = out + gen.apply_word(w).times_J(order - w.count(CD), draw(small_fracs))
    return out


@st.composite
def expression_pairs(draw):
    """Two or three expressions of one context, degree and order."""
    ctx = draw(st.sampled_from(CONTEXTS))
    shift, order = draw(st.sampled_from([-1, 0, 1])), draw(st.integers(-2, 2))
    return [draw(expressions(ctx, shift, order)) for _ in range(3)]


# -- operators -----------------------------------------------------------------


@given(operators(), operators(), st.data())
@settings(max_examples=60)
def test_operator_arithmetic_matches_reference(a, b, data):
    c = data.draw(operators(order=a.order))
    for op in (a, b, c):
        assert_canonical(op)
        assert read_op(op) == ref_op(op)
    s, power = data.draw(small_fracs), data.draw(st.integers(-2, 2))
    for result, expected in ((a * b, ref_mul(ref_op(a), ref_op(b))),
                             (a + c, ref_add(ref_op(a), ref_op(c))),
                             (a - c, ref_add(ref_op(a), ref_op(c), -1)),
                             (-a, ref_scale(ref_op(a), Fraction(-1))),
                             (a.scale(s), ref_scale(ref_op(a), s)),
                             (a.scale(s.numerator), ref_scale(ref_op(a), s.numerator)),
                             # the zero RatJ has J power 0
                             (a.scale(RatJ(s, power)), ref_scale(ref_op(a), s, power if s else 0))):
        assert_canonical(result)
        assert read_op(result) == expected


@given(operators(), operators(), st.data())
@settings(max_examples=50)
def test_operator_equality_is_value_equality(a, c, data):
    b = data.draw(operators(order=a.order))
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a + b) - b == a
    assert a.scale(3).scale(Fraction(1, 3)) == a
    assert (a - a).is_zero and (a - a).den == 1


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
    if len(values) < 3:
        with pytest.raises(CoefficientError):
            op.at(j, lam)
        return
    a, b, c = op.at(j, lam)
    assert all(type(v) is Fraction for v in (a, b, c))
    assert (a + b * lam, a + c * lam, a) == (values["exact"], values["coexact"], values["harmonic"])


# -- expressions ---------------------------------------------------------------


@given(expression_pairs(), small_fracs, st.integers(-2, 2))
@settings(max_examples=80)
def test_expression_arithmetic_matches_reference(exprs, s, power):
    a, b, _ = exprs
    for x in exprs:
        assert_canonical(x)
    degree, order, ta = read_expr(a)
    tb = b.terms
    words = set(ta) | set(tb)
    add = {w: ta.get(w, 0) + tb.get(w, 0) for w in words}
    sub = {w: ta.get(w, 0) - tb.get(w, 0) for w in words}
    for result, expected in (
            (a + b, (degree, order, {w: c for w, c in add.items() if c})),
            (a - b, (degree, order, {w: c for w, c in sub.items() if c})),
            (-a, (degree, order, {w: -c for w, c in ta.items()})),
            (a.scale(s), (degree, order, {w: c * s for w, c in ta.items() if c * s})),
            (a.times_J(power, s),
             (degree, order + power, {w: c * s for w, c in ta.items() if c * s}))):
        assert_canonical(result)
        assert read_expr(result) == expected
    for letter in (D, CD):
        result = a.apply_letter(letter)
        assert_canonical(result)
        moved = {}
        for w, c in ta.items():
            word = ref_prefix(w, letter, degree, a.ctx.n)
            if word is not None:
                moved[word] = c
        assert read_expr(result) == (degree + (1 if letter == D else -1),
                                     order + (letter == CD), moved)


@given(expression_pairs(), small_fracs)
@settings(max_examples=50)
def test_expression_equality_is_value_equality(exprs, s):
    a, b, c = exprs
    assert (a + b) + c == a + (b + c)
    assert (a + b) - b == a
    assert a.scale(3).scale(Fraction(1, 3)) == a
    assert a.times_J(2, s).times_J(-2, 1 / s if s else 1) == (a if s else a.scale(0))
    assert (a - a).is_zero and (a - a).den == 1


@given(st.sampled_from(CONTEXTS), st.sampled_from([0, -1]), st.integers(-2, 2), st.data())
@settings(max_examples=80)
def test_to_form_expr_matches_reference(ctx, shift, order, data):
    # the operator acts on the expression's degree: k, or k - 1 as on the
    # top and bottom tractor slots, where E kills 0-forms
    expr = data.draw(expressions(ctx, shift, order))
    op = data.draw(operators(ctx.n, ctx.k + shift))
    result = op.to_form_expr(expr)
    assert_canonical(result)
    assert read_expr(result) == ref_apply(ref_op(op), expr)
