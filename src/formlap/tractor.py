"""Weighted tractor k-forms as three slots and the Einstein-scale operators on them.

A tractor k-form is stored through its components in a fixed Einstein
scale, together with the number p of boxes applied since the splitting
operator embedded the generator of weight w.  Its overall weight is
wt = w - k - p, and its slots carry

    slot_y : degree k-1, weight w-2p      (top slot)
    slot_z : degree k,   weight w-2p      (middle, form part)
    slot_x : degree k-1, weight w-2p-2    (bottom slot)

that is, expression orders p, p and p+1 (``FormExpr.order``, the J
power of the empty word), which is what the slot check compares.

Everything is computed in the scale itself: the scale function is
numerically 1, and the p-th power of it that each slot carries is the
gap between the slot's weight above and its weight as a tractor
component (wt+k, wt+k, wt+k-2).  The coupled box operator acts
slotwise through the modified-Laplacian component formulas below plus
a diagonal curvature term, and lowers the weight by one.

The second middle component (degree k-2) is not stored: every form here
is an alternating word in d and the codifferential applied to the one
generator of degree k, so only degrees k-1, k and k+1 are ever nonzero.

The splitting operator M embeds a weighted k-form, its formal adjoint
M* extracts one; the combinatorial normalisation of the top-slot term
inside M* (the 1/k below) is pinned by requiring M* box M to reproduce
the second-order closed form exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forms import CD, D, FormContext, FormExpr, InternalConsistencyError, OperatorPoly


@dataclass(frozen=True)
class TractorFormExpr:
    """Three-slot weighted tractor form, p boxes above the embedded generator."""

    ctx: FormContext
    p: int
    slot_y: FormExpr
    slot_z: FormExpr
    slot_x: FormExpr

    def __post_init__(self) -> None:
        k, p = self.ctx.k, self.p
        expected = {"slot_y": (k - 1, p), "slot_z": (k, p), "slot_x": (k - 1, p + 1)}
        for name, (deg, order) in expected.items():
            slot: FormExpr = getattr(self, name)
            if slot.degree != deg or slot.order != order:
                raise InternalConsistencyError(
                    f"{name} carries (deg, order) = ({slot.degree}, {slot.order}), "
                    f"expected ({deg}, {order})"
                )

    @property
    def wt(self) -> Fraction:
        """Overall tractor weight w - k - p."""
        return self.ctx.w - self.ctx.k - self.p

    @property
    def is_zero(self) -> bool:
        return self.slot_y.is_zero and self.slot_z.is_zero and self.slot_x.is_zero

    def render(self) -> str:
        return f"[Y] {self.slot_y.render()}\n[Z] {self.slot_z.render()}\n[X] {self.slot_x.render()}"


def make_M(ctx: FormContext) -> TractorFormExpr:
    """Splitting operator: f -> ((n+w-2k)/k) Z f + X (delta f), weight w-k."""
    n, k, w = ctx.n, ctx.k, ctx.w
    f = FormExpr.generator(ctx)
    c_m = Fraction(n + w - 2 * k, k)
    return TractorFormExpr(
        ctx, 0,
        FormExpr(ctx, k - 1, 0),
        f.scale(c_m),
        f.apply_letter(CD),
    )


def apply_box(t: TractorFormExpr) -> TractorFormExpr:
    """One application of the scale-coupled box; weight drops by one.

    The output is (component formulas of the modified Laplacian, with the
    overall sign folded in) minus the diagonal term 2 (wt/n)(n+wt-1) J,
    with the box count raised by one.
    """
    ctx = t.ctx
    n, k = ctx.n, ctx.k
    wt = t.wt
    kappa, mu, rho = t.slot_y, t.slot_z, t.slot_x

    c_dia = Fraction(k - 1) * (n - k + 1)  # recurring combination in the diagonal J terms
    j_y = Fraction(1) - Fraction(2 * c_dia, n)
    # the form Laplacian d delta + delta d on the degree-(k-1) and degree-k slots
    lap_low = OperatorPoly.graded(n, k - 1, 1, 0, [1], [1]).to_form_expr
    lap = OperatorPoly.graded(n, k, 1, 0, [1], [1]).to_form_expr

    # top slot output
    out_y = lap_low(kappa) + kappa.times_J(1, j_y)
    out_y = out_y + mu.apply_letter(CD).scale(Fraction(-2 * k))
    out_y = out_y + rho.scale(Fraction(n - 2 * k + 2))

    # middle form slot
    out_z = lap(mu) + mu.times_J(1, Fraction(-2 * k * (n - k - 1), n))
    out_z = out_z + kappa.apply_letter(D).times_J(1, Fraction(-2, n * k))
    out_z = out_z + rho.apply_letter(D).scale(Fraction(-2, k))

    # bottom slot
    out_x = lap_low(rho) + rho.times_J(1, j_y)
    out_x = out_x + kappa.times_J(2, Fraction(n - 2 * k + 2, n * n))
    out_x = out_x + mu.apply_letter(CD).times_J(1, Fraction(-2 * k, n))

    # diagonal curvature term
    diag = Fraction(-2) * wt * (n + wt - 1) / n
    out_y = out_y + kappa.times_J(1, diag)
    out_z = out_z + mu.times_J(1, diag)
    out_x = out_x + rho.times_J(1, diag)

    return TractorFormExpr(ctx, t.p + 1, out_y, out_z, out_x)


def apply_Mstar(t: TractorFormExpr) -> FormExpr:
    """Formal adjoint of the splitting operator: -(wt+k) slot_z + (1/k) d slot_y."""
    k = t.ctx.k
    out = t.slot_z.scale(-(t.wt + k))
    return out + t.slot_y.apply_letter(D).scale(Fraction(1, k))


def extract_slots(t: TractorFormExpr) -> tuple[FormExpr, FormExpr]:
    """Operator-normalised middle and bottom reads: (k * slot_z, slot_x).

    These are the reads under which the order-one operator equals its
    closed form with constant exactly 1 (the acceptance calibration); the
    raw slots remain available as attributes.
    """
    return t.slot_z.scale(t.ctx.k), t.slot_x


def assert_top_slots_vanish(t: TractorFormExpr) -> None:
    if not t.slot_y.is_zero:
        raise InternalConsistencyError("top slot expected to vanish:\n" + t.render())
