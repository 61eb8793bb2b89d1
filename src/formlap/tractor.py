"""Weighted tractor k-forms as three slots and the Einstein-scale operators on them.

A tractor k-form is stored through its components in a fixed Einstein
scale, together with the number p of boxes applied since the splitting
operator embedded the generator f of weight w.  Its overall weight is
wt = w - k - p, and its slots carry

    slot_y : delta Y f, degree k-1, weight w-2p      (top slot)
    slot_z : Z f,       degree k,   weight w-2p      (middle, form part)
    slot_x : delta X f, degree k-1, weight w-2p-2    (bottom slot)

with Y, Z and X elements of R (``forms.OperatorPoly`` on k-forms) of
orders p-1, p and p, and Y and X without F part; the slot check
compares exactly this.

Why three elements of R suffice (the two-shapes lemma): every form here
is an alternating word in d and delta applied to f, since d d = 0 and
delta delta = 0.  A word of degree k is 1, (d delta)^p or (delta d)^q,
an element of R; a word of degree k-1 is delta (d delta)^p, delta of an
element of R with no F part.  The box and the splitting operators map
these two shapes to each other, so the words of degree k+1, d (delta
d)^q, never reach a slot, and no slot of degree k-2 is needed.  The box
then acts through four rules, each a few products in R:

    d (delta Y) = E Y,           Laplacian (delta Y) = delta (E Y),
    Laplacian Z = (E + F) Z,     delta Z = delta (Z without its F part),

the last because delta F = delta delta d = 0.

Everything is computed in the scale itself: the scale function is
numerically 1, and the p-th power of it that each slot carries is the
gap between the slot's weight above and its weight as a tractor
component (wt+k, wt+k, wt+k-2).  The coupled box operator acts
slotwise through the modified-Laplacian component formulas below plus
a diagonal curvature term, and lowers the weight by one.

The splitting operator M embeds a weighted k-form, its formal adjoint
M* extracts one; the combinatorial normalisation of the top-slot term
inside M* (the 1/k below) is pinned by requiring M* box M to reproduce
the second-order closed form exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .forms import FormContext, InternalConsistencyError, OperatorPoly


class TractorFormExpr:
    """Three-slot weighted tractor form, p boxes above the embedded generator.

    ``slot_y`` and ``slot_x`` hold the Y and X of delta Y and delta X.
    """

    __slots__ = ("ctx", "p", "slot_y", "slot_z", "slot_x")

    def __init__(self, ctx: FormContext, p: int, slot_y: OperatorPoly, slot_z: OperatorPoly,
                 slot_x: OperatorPoly) -> None:
        for name, slot, order in (("slot_y", slot_y, p - 1), ("slot_z", slot_z, p),
                                  ("slot_x", slot_x, p)):
            if (slot.n, slot.k, slot.order) != (ctx.n, ctx.k, order):
                raise InternalConsistencyError(
                    f"{name} carries (n, k, order) = ({slot.n}, {slot.k}, {slot.order}), "
                    f"expected ({ctx.n}, {ctx.k}, {order})"
                )
            if name != "slot_z" and slot.f_nums:
                raise InternalConsistencyError(f"{name} = delta of an operator with an F part")
        self.ctx = ctx
        self.p = p
        self.slot_y = slot_y
        self.slot_z = slot_z
        self.slot_x = slot_x

    def render(self) -> str:
        return (f"[Y] δ({self.slot_y.render()})\n[Z] {self.slot_z.render()}\n"
                f"[X] δ({self.slot_x.render()})")


def make_M(ctx: FormContext) -> TractorFormExpr:
    """Splitting operator: f -> ((n+w-2k)/k) Z f + X (delta f), weight w-k."""
    n, k, w = ctx.n, ctx.k, ctx.w
    return TractorFormExpr(
        ctx, 0,
        OperatorPoly(n, k, -1),
        OperatorPoly.from_numerators(n, k, 0, w.numerator + (n - 2 * k) * w.denominator, (), (),
                                     k * w.denominator),
        OperatorPoly(n, k, 0, 1),
    )


def apply_box(t: TractorFormExpr) -> TractorFormExpr:
    """One application of the scale-coupled box; weight drops by one.

    The output is (component formulas of the modified Laplacian, with the
    overall sign folded in) minus the diagonal term 2 (wt/n)(n+wt-1) J,
    with the box count raised by one.  In the slots' terms (see the
    module docstring), with e(Z) the constant and E terms of Z and
    D = -2 (wt/n)(n+wt-1) the diagonal coefficient:

        Y' = E Y + (j_y + D) J Y - 2k e(Z) + (n-2k+2) X
        Z' = (E + F) Z + (D - 2k(n-k-1)/n) J Z - (2/(nk)) J E Y - (2/k) E X
        X' = E X + (j_y + D) J X + ((n-2k+2)/n^2) J^2 Y - (2k/n) J e(Z)

    where j_y = 1 - 2(k-1)(n-k+1)/n.  Lemma: the weight enters only
    through D, and D only as D J times each slot, so

        box_wt = box_0 + D(wt) J Id

    on the three-slot module, box_0 being the step with D = 0 (at
    wt = 0).  The ell steps at the weights wt_p are then
    prod (box_0 + D(wt_p) J), a polynomial in one operator, and they
    commute.  In the order-2*ell pipeline wt_p = m - n/2 with m = ell - p,
    and there -(D - 2k(n-k-1)/n) = (2m-h)(2m+h-2)/(2n), h = n - 2k: the
    coexact root mu_m of the closed forms.

    Theorem: on coexact forms only Z survives, and L's coexact side is
    (n+w-2k) prod_p (mu + j_z(wt_p) J), j_z = D - 2k(n-k-1)/n.  Proof: the
    coexact read E -> 0, F -> mu is a ring map on R; it sends E Y and E X
    to 0, so Z' reads as (mu + j_z J) Z, from M's Z = (n+w-2k)/k to L = k Z.
    And delta Y f = c_Y delta f = 0 on coexact f (Y has no F part, E f = 0).

    In integers, with wt = a/b in lowest terms (any rational weight),
    D = -2a(nb + a - b) / (nb^2) and j_y = (n - 2(k-1)(n-k+1)) / n, so
    j_y + D and D - 2k(n-k-1)/n are each one Fraction over nb^2, built
    once per (n, k, wt) with the four others.  E Y, E X and (E + F) Z are
    numerator shifts, and e(Z) and each output slot (one
    ``OperatorPoly.combine``) normalise once: 4 times per step.
    """
    n, k, w = t.ctx.n, t.ctx.k, t.ctx.w
    a = w.numerator - (k + t.p) * w.denominator  # wt = a / w.denominator, in lowest terms
    j_y, j_z, c_zy, c_zx, c_xy, c_xz = _box_coefficients(n, k, a, w.denominator)
    y, z, x = t.slot_y, t.slot_z, t.slot_x
    ey, ex, ez = y.times_e(), x.times_e(), z.e_part()

    combine = OperatorPoly.combine
    out_y = combine(((1, 0, ey), (j_y, 1, y), (-2 * k, 0, ez), (n - 2 * k + 2, 0, x)))
    out_z = combine(((1, 0, z.times_laplacian()), (j_z, 1, z), (c_zy, 1, ey), (c_zx, 0, ex)))
    out_x = combine(((1, 0, ex), (j_y, 1, x), (c_xy, 2, y), (c_xz, 1, ez)))
    return TractorFormExpr(t.ctx, t.p + 1, out_y, out_z, out_x)


@lru_cache(maxsize=None)
def _box_coefficients(n: int, k: int, a: int, b: int) -> tuple[Fraction, ...]:
    """The six Fraction coefficients of a box step at wt = a/b: j_y + D, j_z, then (n, k)-only."""
    diag = -2 * a * (n * b + a - b)  # n b^2 D
    return (Fraction((n - 2 * (k - 1) * (n - k + 1)) * b * b + diag, n * b * b),  # j_y + D
            Fraction(diag - 2 * k * (n - k - 1) * b * b, n * b * b),  # j_z = D - 2k(n-k-1)/n
            Fraction(-2, n * k), Fraction(-2, k), Fraction(n - 2 * k + 2, n * n), Fraction(-2 * k, n))


def apply_Mstar(t: TractorFormExpr) -> OperatorPoly:
    """Formal adjoint of the splitting operator: -(wt+k) slot_z + (1/k) d slot_y.

    Here d slot_y = d delta Y = E Y, so the result is an element of R.
    """
    k, w = t.ctx.k, t.ctx.w
    scalar = Fraction(t.p * w.denominator - w.numerator, w.denominator)  # -(wt + k) = p - w
    return OperatorPoly.combine(((scalar, 0, t.slot_z), (Fraction(1, k), 0, t.slot_y.times_e())))

