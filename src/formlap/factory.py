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
closed forms write down the tuple of commuting second-order factors
whose product is the operator, the operator and its companion, and the
second-order reductions, all from two root lists.  The two routes
share nothing but the ring R (``forms``), so their agreement is
evidence rather than tautology.

Conventions: the operator of order 2*ell acts on k-forms of weight
w = k + ell - n/2 = ell - a, a = n/2 - k, and its factor tuple
multiplies left to right.  At J = 1 its exact and coexact roots are
lam_m = (2/n)(m+a)(m-a-1) and mu_m = (2/n)(m-a)(m+a-1), m = 1..ell
(Branson, Trans. AMS 347, 1995).  The pairing rule: for m = ell..1 the
factor of root m is (n/2)(mu_m E + lam_m F - lam_m mu_m J), which kills
the exact forms of eigenvalue lam_m J and the coexact ones of mu_m J.
Where a is an integer with a + 1 <= ell, lam_(a+1) = mu_a = 0 and the
roots a and a + 1 pair across, first: the zeros into
((2a-1) E + (2a+1) F)/2 when a >= 1, then lam_a = -mu_(a+1) with
mu_(a+1) into E - F + mu_(a+1) J.
"""

from __future__ import annotations

import math
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


def exact_root(n: int, k: int, m: Fraction | int) -> Fraction | int:
    """2n lam_m = (2m+h)(2m-h-2) with h = n - 2k: an integer at integer m, else rational."""
    h = n - 2 * k
    return (2 * m + h) * (2 * m - h - 2)


def coexact_root(n: int, k: int, m: Fraction | int) -> Fraction | int:
    """2n mu_m = (2m-h)(2m+h-2) with h = n - 2k."""
    h = n - 2 * k
    return (2 * m - h) * (2 * m + h - 2)


@lru_cache(maxsize=None)
def _root_factor(n: int, k: int, m: int) -> OperatorPoly:
    """The factor pairing the m-th roots, (n/2)(mu_m E + lam_m F - lam_m mu_m J); built once.

    With Lam = 2n lam_m and M = 2n mu_m it is (2n M E + 2n Lam F - Lam M J) / (8n).
    """
    lam, mu = exact_root(n, k, m), coexact_root(n, k, m)
    return OperatorPoly.from_numerators(n, k, 1, -lam * mu, [2 * n * mu], [2 * n * lam], 8 * n)


@lru_cache(maxsize=None)
def closed_factors(n: int, k: int, ell: int) -> tuple[OperatorPoly, ...]:
    """Factor tuple of the order-2*ell operator, by the pairing rule (module docstring).

    Each factor has order 1; lam_m = 0 exactly at m = a + 1, as a >= 0.
    """
    _check_params(n, k, ell)
    ms = range(ell, 0, -1)
    factors: list[OperatorPoly] = []
    zero = next((m for m in ms if not exact_root(n, k, m)), None)
    if zero is not None:  # m = a + 1: the pairs m - 1 and m cross
        h = 2 * zero - 2  # 2a
        if h:
            factors.append(OperatorPoly.from_numerators(n, k, 1, 0, [h - 1], [h + 1], 2))
        factors.append(OperatorPoly.from_numerators(n, k, 1, coexact_root(n, k, zero),
                                                    [2 * n], [-2 * n], 2 * n))
        ms = [m for m in ms if m not in (zero - 1, zero)]
    return (*factors, *(_root_factor(n, k, m) for m in ms))


def closed_operator(n: int, k: int, ell: int) -> tuple[OperatorPoly, OperatorPoly]:
    """L, with exact side (a-ell) prod (E - lam_m J) and coexact side (a+ell) prod (F - mu_m J),
    and the X of its companion G = delta X, prod (E - lam_m J) with no F part."""
    _check_params(n, k, ell)
    a = Fraction(n - 2 * k, 2)
    lams = [Fraction(exact_root(n, k, m), 2 * n) for m in range(1, ell + 1)]
    mus = [Fraction(coexact_root(n, k, m), 2 * n) for m in range(1, ell + 1)]
    x_const = math.prod(-lam for lam in lams)
    return _expand(n, k, (a - ell, lams), (a + ell, mus)), _expand(n, k, (1, lams), (x_const, ()))


def _expand(n: int, k: int, exact: tuple, coexact: tuple) -> OperatorPoly:
    """The element of R with sides (lead, roots), lead * prod (x - r J), x = E then F.

    Its order is the exact side's degree; the sides must agree at x = 0.
    """
    sides = []
    for lead, roots in (exact, coexact):
        coeffs = [Fraction(lead)]  # lowest degree first
        for r in roots:
            coeffs = [prev - r * cur for prev, cur in zip([0, *coeffs], [*coeffs, 0])]
        sides.append(coeffs)
    (c, *e), (c_f, *f) = sides
    if c != c_f:
        raise InternalConsistencyError(f"the sides disagree at E = F = 0: {c} and {c_f}")
    return OperatorPoly.graded(n, k, len(e), c, e, f)


# -- second-order reductions ------------------------------------------------


@lru_cache(maxsize=None)
def build_tmodbox(n: int, k: int, w: Fraction | int, p: int) -> OperatorPoly:
    """M* box**p M at generator weight w, read from the shared box iterate."""
    if p < 1:
        raise UsageError(f"p = {p} < 1")
    return apply_Mstar(box_iterate(n, k, w, p))


def closed_tmodbox(n: int, k: int, w: Fraction | int, p: int) -> OperatorPoly:
    """M* box**p M at generator weight w: over m = w + a - q, q = 0..p-1, its exact side is
    (p-w-n+2k)(w/k) prod (E - lam_m J) and its coexact side (p-w)(n+w-2k)/k prod (F - mu_m J)."""
    w = Fraction(w)
    ms = [w + Fraction(n - 2 * k, 2) - q for q in range(p)]
    lams = [Fraction(exact_root(n, k, m), 2 * n) for m in ms]
    mus = [Fraction(coexact_root(n, k, m), 2 * n) for m in ms]
    return _expand(n, k, ((p - w - n + 2 * k) * w / k, lams), ((p - w) * (n + w - 2 * k) / k, mus))
