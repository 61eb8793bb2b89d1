"""Construction of the weighted-form operators, two independent ways.

The definition engine runs the tractor pipeline: embed the generator
with the splitting operator, apply the coupled box ell times, read off
the middle slot (the operator itself) and the bottom slot (its
companion of one degree lower).  Each box state (n, k, w, p) is built
once, from state p-1, by `box_iterate`, which keeps the states of one
(n, k) at a time: a sweep visits each (n, k) once.  `run_pipeline`
memoises what is read at the operator weight, L and the X of its
companion G = delta X, so operators of other (n, k) come from there;
`build_tmodbox` memoises the second-order reductions M* box**p M.
Every slot is an element of R or the codifferential of one (see
``tractor``), so L, X and the reductions are all elements of R.  The
closed-form builders write down the order-one operator, the tuple of
commuting second-order factors whose product is the operator, and the
second-order reductions directly from their explicit formulas.
The two routes share nothing but the ring R (``forms``), so their
agreement is evidence rather than tautology.

Conventions: the operator of order 2*ell acts on k-forms of weight
w = k + ell - n/2, its factor tuple multiplies left to right, and the
generic second-order factor with index i is

    (w-i+1)(w-i+n-2k) E + (w-i)(w-i+n-2k+1) F
        - (2/n)(w-i)(w-i+1)(w-i+n-2k)(w-i+n-2k+1) J.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .forms import FormContext, InternalConsistencyError, OperatorPoly, UsageError
from .tractor import TractorFormExpr, apply_Mstar, apply_box, make_M


def operator_weight(n: int, k: int, ell: int) -> Fraction:
    """Domain weight w = k + ell - n/2 = (2(k+ell) - n)/2 of the order-2*ell operator."""
    return Fraction(2 * (k + ell) - n, 2)


def _check_params(n: int, k: int, ell: int) -> None:
    """The (n, k) rule of ``FormContext``, and ell >= 1."""
    FormContext(n, k, operator_weight(n, k, ell))
    if ell < 1:
        raise UsageError(f"ell = {ell} < 1")


def default_grid(n_range=range(3, 13), ell_max: int = 6):
    """The cells (n, k, ell) of a sweep: every n of n_range, k = 1..n/2, ell = 1..ell_max."""
    for n in n_range:
        for k in range(1, n // 2 + 1):
            for ell in range(1, ell_max + 1):
                yield n, k, ell


# -- definition engine ----------------------------------------------------


@lru_cache(maxsize=1)
def box_chains(n: int, k: int) -> dict[Fraction, list[TractorFormExpr]]:
    """The box states of one (n, k): generator weight w -> [box**0 M, box**1 M, ...]."""
    return {}


def box_iterate(n: int, k: int, w: Fraction | int, p: int) -> TractorFormExpr:
    """Box**p applied to the embedded generator of weight w.

    The chain of weight w is extended on demand, state p from state p-1,
    so every state of the current (n, k) is built once.
    """
    chain = box_chains(n, k).setdefault(w, [])
    if not chain:
        chain.append(make_M(FormContext(n, k, Fraction(w))))
    while len(chain) <= p:
        chain.append(apply_box(chain[-1]))
    return chain[p]


@lru_cache(maxsize=None)
def run_pipeline(n: int, k: int, ell: int) -> tuple[OperatorPoly, OperatorPoly]:
    """The order-2*ell operator L and the X of its companion G = delta X, from one pipeline.

    Box**ell at the operator weight, read as (k * Z, X): under these reads
    the order-one operator equals its closed form with constant exactly 1.
    Raises unless the top slot vanishes there.
    """
    _check_params(n, k, ell)
    t = box_iterate(n, k, operator_weight(n, k, ell), ell)
    if not t.slot_y.is_zero:
        raise InternalConsistencyError(
            f"top slot expected to vanish at (n, k, ell) = ({n}, {k}, {ell}):\n" + t.render())
    return t.slot_z.scale(k), t.slot_x


def build_L_definition(n: int, k: int, ell: int) -> OperatorPoly:
    """The order-2*ell operator from the tractor definition."""
    return run_pipeline(n, k, ell)[0]


# -- closed forms ----------------------------------------------------------


def closed_L1(n: int, k: int) -> OperatorPoly:
    """Order-one closed form at w = k + 1 - n/2.

    (n/2-k-1) E + (n/2-k+1) F + (2/n)(n/2-k-1)(n/2-k+1)(n/2-k) J.
    """
    _check_params(n, k, 1)
    h = Fraction(n, 2) - k
    return OperatorPoly.graded(n, k, 1, Fraction(2, n) * (h - 1) * (h + 1) * h, [h - 1], [h + 1])


def closed_G1(n: int, k: int) -> OperatorPoly:
    """Order-one closed form of the companion G = delta X: X = E + (2/n)(n/2-k+1)(n/2-k) J."""
    _check_params(n, k, 1)
    h = Fraction(n, 2) - k
    return OperatorPoly.graded(n, k, 1, Fraction(2, n) * (h + 1) * h, [1], [])


def yam_factor(n: int, k: int, w: Fraction, i: int) -> OperatorPoly:
    """Generic second-order factor with index i at operator weight w."""
    return _generic_factor(n, k, w - i)


@lru_cache(maxsize=None)
def _generic_factor(n: int, k: int, s: Fraction) -> OperatorPoly:
    """The generic factor through s = w - i, the one shift it depends on; built once per key.

    With s = u/v and h = n - 2k: (s+1)(s+h) = A/v^2 and s(s+h+1) = B/v^2
    for A = (u+v)(u+hv) and B = u(u+(h+1)v), so the factor is
    (n v^2 A E + n v^2 B F - 2AB J) / (n v^4).
    """
    u, v = s.numerator, s.denominator
    h = n - 2 * k
    a = (u + v) * (u + h * v)
    b = u * (u + (h + 1) * v)
    nvv = n * v * v
    return OperatorPoly.from_numerators(n, k, 1, -2 * a * b, [nvv * a], [nvv * b], nvv * v * v)


def sqyam_factors(n: int, k: int) -> tuple[OperatorPoly, OperatorPoly]:
    """The two factors replacing the degenerate indices when w >= 1 and k < n/2.

    [(n/2-k-1/2) E + (n/2-k+1/2) F] and [E - F + (4/n)(n/2-k) J], that is
    ((n-2k-1) E + (n-2k+1) F) / 2 and (n E - n F + 2(n-2k) J) / n.
    """
    h = n - 2 * k
    first = OperatorPoly.from_numerators(n, k, 1, 0, [h - 1], [h + 1], 2)
    second = OperatorPoly.from_numerators(n, k, 1, 2 * h, [n], [-n], n)
    return first, second


@lru_cache(maxsize=None)
def closed_factors(n: int, k: int, ell: int) -> tuple[OperatorPoly, ...]:
    """Factor tuple of the order-2*ell operator, by the four-case closed form.

    Every factor is built at order 1 with one E and one F coefficient.

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
    return tuple(factors)


# -- second-order reductions ------------------------------------------------


@lru_cache(maxsize=None)
def build_tmodbox(n: int, k: int, w: Fraction | int, p: int) -> OperatorPoly:
    """M* box**p M at generator weight w, read from the shared box iterate."""
    if p < 1:
        raise UsageError(f"p = {p} < 1")
    return apply_Mstar(box_iterate(n, k, w, p))


def closed_tmodbox1(n: int, k: int, w: Fraction | int) -> OperatorPoly:
    """Closed form of the p = 1 reduction, -(1/k) times the generic factor with index 1:

    -(1/k) [ w(n+w-2k-1) E + (w-1)(n+w-2k) F
             - (2/n) w(w-1)(n+w-2k)(n+w-2k-1) J ].
    """
    return yam_factor(n, k, Fraction(w), 1).scale(Fraction(-1, k))


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
