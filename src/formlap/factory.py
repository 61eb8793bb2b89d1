"""Construction of the weighted-form operators, two independent ways.

The definition engine runs the tractor pipeline: embed the generator
with the splitting operator, apply the coupled box ell times, read off
the middle slot (the operator itself) and the bottom slot (its
companion of one degree lower).  Each box state (n, k, w, p) is built
once, from state p-1, by `box_iterate`; the operator L, its companion G
and the second-order reductions M* box**p M are all read from those
states.  The closed-form builders write down the order-one operator,
the commuting second-order factor lists, and the second-order
reductions directly from their explicit formulas.
The two routes share nothing above the expression algebra, so their
agreement is evidence rather than tautology.

Conventions: the operator of order 2*ell acts on k-forms of weight
w = k + ell - n/2, its factor list multiplies left to right, and the
generic second-order factor with index i is

    (w-i+1)(w-i+n-2k) E + (w-i)(w-i+n-2k+1) F
        - (2/n)(w-i)(w-i+1)(w-i+n-2k)(w-i+n-2k+1) J.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .forms import (CD, D, FormAlgebraError, FormContext, FormExpr, InternalConsistencyError,
                    OperatorPoly, to_operator_poly)
from .tractor import (TractorFormExpr, apply_Mstar, apply_box, assert_top_slots_vanish,
                      extract_slots, make_M)


def operator_weight(n: int, k: int, ell: int) -> Fraction:
    """Domain weight w = k + ell - n/2 of the order-2*ell operator."""
    return Fraction(k) + ell - Fraction(n, 2)


def _check_params(n: int, k: int, ell: int) -> None:
    if n < 3:
        raise FormAlgebraError(f"n = {n} < 3")
    if not 1 <= k <= n // 2:
        raise FormAlgebraError(f"k = {k} outside 1..floor(n/2) for n = {n}")
    if ell < 1:
        raise FormAlgebraError(f"ell = {ell} < 1")


# -- definition engine ----------------------------------------------------


@lru_cache(maxsize=8)
def box_iterate(n: int, k: int, w: Fraction | int, p: int) -> TractorFormExpr:
    """Box**p applied to the embedded generator of weight w.

    State p is built from state p-1, so every state of one (n, k, w)
    chain is built once; the cache holds about one chain.
    """
    if p == 0:
        return make_M(FormContext(n, k, Fraction(w)))
    return apply_box(box_iterate(n, k, w, p - 1))


@lru_cache(maxsize=None)
def run_pipeline(n: int, k: int, ell: int) -> TractorFormExpr:
    """Box**ell applied to the embedded generator at the operator weight."""
    _check_params(n, k, ell)
    return box_iterate(n, k, operator_weight(n, k, ell), ell)


@lru_cache(maxsize=None)
def build_L_and_G(n: int, k: int, ell: int) -> tuple[OperatorPoly, FormExpr]:
    """The order-2*ell operator and its degree-(k-1) companion, from one pipeline.

    Asserts the structural identities along the way: the top and second
    slots vanish at this weight, and the middle slot expands into E**p,
    F**q and constant monomials only.
    """
    t = run_pipeline(n, k, ell)
    assert_top_slots_vanish(t)
    l_expr, g_expr = extract_slots(t)
    return to_operator_poly(l_expr), g_expr


def build_L_definition(n: int, k: int, ell: int) -> OperatorPoly:
    """The order-2*ell operator from the tractor definition."""
    return build_L_and_G(n, k, ell)[0]


# -- closed forms ----------------------------------------------------------


def closed_L1(n: int, k: int) -> OperatorPoly:
    """Order-one closed form at w = k + 1 - n/2.

    (n/2-k-1) E + (n/2-k+1) F + (2/n)(n/2-k-1)(n/2-k+1)(n/2-k) J.
    """
    _check_params(n, k, 1)
    h = Fraction(n, 2) - k
    return OperatorPoly.graded(n, k, 1, Fraction(2, n) * (h - 1) * (h + 1) * h, [h - 1], [h + 1])


def closed_G1(n: int, k: int) -> FormExpr:
    """Order-one closed form of the companion: delta [E + (2/n)(n/2-k+1)(n/2-k) J]."""
    _check_params(n, k, 1)
    ctx = FormContext(n, k, operator_weight(n, k, 1))
    h = Fraction(n, 2) - k
    f = FormExpr.generator(ctx)
    inner = f.apply_word(D + CD) + f.times_J(1, Fraction(2, n) * (h + 1) * h)
    return inner.apply_letter(CD)


def yam_factor(n: int, k: int, w: Fraction, i: int) -> OperatorPoly:
    """Generic second-order factor with index i at operator weight w."""
    a = (w - i + 1) * (w - i + n - 2 * k)
    b = (w - i) * (w - i + n - 2 * k + 1)
    c = Fraction(-2, n) * a * b
    return OperatorPoly.graded(n, k, 1, c, [a], [b])


def sqyam_factors(n: int, k: int) -> tuple[OperatorPoly, OperatorPoly]:
    """The two factors replacing the degenerate indices when w >= 1 and k < n/2.

    [(n/2-k-1/2) E + (n/2-k+1/2) F] and [E - F + (4/n)(n/2-k) J].
    """
    h = Fraction(n, 2) - k
    first = OperatorPoly.graded(n, k, 1, 0, [h - Fraction(1, 2)], [h + Fraction(1, 2)])
    second = OperatorPoly.graded(n, k, 1, Fraction(4, n) * h, [1], [-1])
    return first, second


@dataclass(frozen=True)
class FactoredOperator:
    """Ordered commuting second-order factor list.

    Every factor is built at order 1 with one E and one F coefficient.
    """

    n: int
    k: int
    ell: int
    factors: tuple[OperatorPoly, ...]

    def product(self) -> OperatorPoly:
        out = OperatorPoly(self.n, self.k, 0, 1)
        for f in self.factors:
            out = out * f
        return out


@lru_cache(maxsize=None)
def closed_factors(n: int, k: int, ell: int) -> FactoredOperator:
    """Factor list of the order-2*ell operator, by the four-case closed form.

    Even n, k = n/2:        (E - F) then generic factors i = 1..ell-1.
    Even n, w <= 0, k<n/2:  generic factors i = 1..ell.
    Even n, w >= 1, k<n/2:  the two degenerate-weight factors, then the
                            generic factors with i = w, w+1 removed.
    Odd n:                  generic factors i = 1..ell.
    """
    _check_params(n, k, ell)
    w = operator_weight(n, k, ell)
    phi = range(1, ell + 1)
    if n % 2 == 0 and 2 * k == n:
        factors = [OperatorPoly.graded(n, k, 1, 0, [1], [-1])]
        factors += [yam_factor(n, k, w, i) for i in phi if i != ell]
    elif n % 2 == 1 or w <= 0:
        factors = [yam_factor(n, k, w, i) for i in phi]
    else:
        skip = {int(w), int(w) + 1}
        factors = list(sqyam_factors(n, k))
        factors += [yam_factor(n, k, w, i) for i in phi if i not in skip]
    if len(factors) != ell:
        raise InternalConsistencyError(f"{len(factors)} factors for order parameter {ell}")
    return FactoredOperator(n, k, ell, tuple(factors))


# -- second-order reductions ------------------------------------------------


@lru_cache(maxsize=None)
def build_tmodbox(n: int, k: int, w: Fraction | int, p: int) -> OperatorPoly:
    """M* box**p M at generator weight w, read from the shared box iterate."""
    if p < 1:
        raise FormAlgebraError(f"p = {p} < 1")
    return to_operator_poly(apply_Mstar(box_iterate(n, k, w, p)))


def closed_tmodbox1(n: int, k: int, w: Fraction | int) -> OperatorPoly:
    """Closed form of the p = 1 reduction:

    -(1/k) [ w(n+w-2k-1) E + (w-1)(n+w-2k) F
             - (2/n) w(w-1)(n+w-2k)(n+w-2k-1) J ].
    """
    w = Fraction(w)
    s = Fraction(-1, k)
    a = w * (n + w - 2 * k - 1)
    b = (w - 1) * (n + w - 2 * k)
    c = Fraction(-2, n) * w * (w - 1) * (n + w - 2 * k) * (n + w - 2 * k - 1)
    return OperatorPoly.graded(n, k, 1, s * c, [s * a], [s * b])


def closed_tmodbox2(n: int, k: int, w: Fraction | int) -> OperatorPoly:
    """Closed form of the p = 2 reduction at arbitrary weight."""
    w = Fraction(w)
    m = n + w - 2 * k
    s = Fraction(-1, k)
    e2 = w * (m - 2)
    f2 = (w - 2) * m
    e1 = Fraction(-2, n) * w * (m - 2) * ((w - 1) * m + (w - 2) * (m - 1))
    f1 = Fraction(-2, n) * (w - 2) * m * ((w - 1) * (m - 2) + w * (m - 1))
    c0 = Fraction(4, n * n) * w * (w - 1) * (w - 2) * m * (m - 1) * (m - 2)
    return OperatorPoly.graded(n, k, 2, s * c0, [s * e1, s * e2], [s * f1, s * f2])


def closed_tmodbox2_w1(n: int, k: int) -> OperatorPoly:
    """Factored closed form of the p = 2 reduction on weight-1 forms:

    -(2/k) [ (n/2-k-1/2) E + (n/2-k+1/2) F ] [ E - F + (4/n)(n/2-k) J ].
    """
    first, second = sqyam_factors(n, k)
    return (first * second).scale(Fraction(-2, k))
