"""Weighted tractor k-forms as four slots and the Einstein-scale operators on them.

A tractor k-form of overall weight wt is stored through its four
components in a fixed Einstein scale,

    slot_y : degree k-1, weight wt+k      (top slot)
    slot_z : degree k,   weight wt+k      (middle, form part)
    slot_w : degree k-2, weight wt+k-2    (middle, second part; absent for k=1)
    slot_x : degree k-1, weight wt+k-2    (bottom slot)

Everything is computed in the scale itself: the scale function is
numerically 1 and multiplying by its p-th power only shifts declared
weights by p.  The coupled box operator acts slotwise through the
modified-Laplacian component formulas below plus a diagonal curvature
term, and lowers the weight by one.

One component formula needs care: the contribution of the slot_w source
to the slot_x output must carry a factor of J.  The two slots sit at
weights differing by 2 and the map W -> X is zeroth order in d and the
codifferential, so weight homogeneity forces the J (restoring it is also
confirmed by the slot-vanishing identities, the order-one closed forms,
and the flat-space matrix oracle, all exercised in the test suite).

The splitting operator M embeds a weighted k-form, its formal adjoint
M* extracts one; the combinatorial normalisation of the top-slot term
inside M* (the 1/k below) is pinned by requiring M* box M to reproduce
the second-order closed form exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forms import CD, D, FormAlgebraError, FormContext, FormExpr, InternalConsistencyError


@dataclass(frozen=True)
class TractorFormExpr:
    """Four-slot weighted tractor form over one generator context."""

    ctx: FormContext
    wt: Fraction
    slot_y: FormExpr
    slot_z: FormExpr
    slot_w: FormExpr
    slot_x: FormExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "wt", Fraction(self.wt))
        self.validate()

    @property
    def valence(self) -> int:
        return self.ctx.k

    @staticmethod
    def zero(ctx: FormContext, wt: Fraction) -> TractorFormExpr:
        k = ctx.k
        wt = Fraction(wt)
        return TractorFormExpr(
            ctx, wt,
            FormExpr.zero(ctx, k - 1, wt + k),
            FormExpr.zero(ctx, k, wt + k),
            FormExpr.zero(ctx, k - 2, wt + k - 2),
            FormExpr.zero(ctx, k - 1, wt + k - 2),
        )

    @property
    def is_zero(self) -> bool:
        return self.slot_y.is_zero and self.slot_z.is_zero and self.slot_w.is_zero and self.slot_x.is_zero

    def validate(self) -> None:
        k = self.ctx.k
        expected = {
            "slot_y": (k - 1, self.wt + k),
            "slot_z": (k, self.wt + k),
            "slot_w": (k - 2, self.wt + k - 2),
            "slot_x": (k - 1, self.wt + k - 2),
        }
        for name, (deg, wt) in expected.items():
            slot: FormExpr = getattr(self, name)
            if slot.degree != deg or slot.weight != wt:
                raise InternalConsistencyError(
                    f"{name} carries (deg, wt) = ({slot.degree}, {slot.weight}), "
                    f"expected ({deg}, {wt})"
                )
            slot.validate()
        if k == 1 and not self.slot_w.is_zero:
            raise InternalConsistencyError("nonzero degree-(-1) slot for valence 1")

    def __add__(self, other: TractorFormExpr) -> TractorFormExpr:
        if self.ctx != other.ctx or self.wt != other.wt:
            raise FormAlgebraError("adding tractor forms of different context or weight")
        return TractorFormExpr(
            self.ctx, self.wt,
            self.slot_y + other.slot_y, self.slot_z + other.slot_z,
            self.slot_w + other.slot_w, self.slot_x + other.slot_x,
        )

    def scale(self, c) -> TractorFormExpr:
        return TractorFormExpr(self.ctx, self.wt, self.slot_y.scale(c), self.slot_z.scale(c),
                               self.slot_w.scale(c), self.slot_x.scale(c))

    def render(self) -> str:
        return (f"[Y] {self.slot_y.render()}\n[Z] {self.slot_z.render()}\n"
                f"[W] {self.slot_w.render()}\n[X] {self.slot_x.render()}")


def make_M(ctx: FormContext) -> TractorFormExpr:
    """Splitting operator: f -> ((n+w-2k)/k) Z f + X (delta f), weight w-k."""
    n, k, w = ctx.n, ctx.k, ctx.w
    f = FormExpr.generator(ctx)
    wt = w - k
    c_m = Fraction(n + w - 2 * k, k)
    return TractorFormExpr(
        ctx, wt,
        FormExpr.zero(ctx, k - 1, w),
        f.scale(c_m),
        FormExpr.zero(ctx, k - 2, w - 2),
        f.apply_letter(CD),
    )


def apply_box(t: TractorFormExpr) -> TractorFormExpr:
    """One application of the scale-coupled box; weight drops by one.

    The output is (component formulas of the modified Laplacian, with the
    overall sign folded in) minus the diagonal term 2 (wt/n)(n+wt-1) J,
    then a single weight shift for the scale factor.
    """
    ctx = t.ctx
    n, k = ctx.n, ctx.k
    wt = t.wt
    kappa, mu, nu, rho = t.slot_y, t.slot_z, t.slot_w, t.slot_x

    c_dia = Fraction(k - 1) * (n - k + 1)  # recurring combination in the diagonal J terms
    j_y = Fraction(1) - Fraction(2 * c_dia, n)

    # top slot output
    out_y = kappa.apply_EF(1, 1) + kappa.times_J(1, j_y)
    out_y = out_y + mu.apply_letter(CD).scale(Fraction(-2 * k))
    if k >= 2:
        out_y = out_y + nu.apply_letter(D).scale(Fraction(2, k - 1))
    out_y = out_y + rho.scale(Fraction(n - 2 * k + 2))

    # middle form slot
    out_z = mu.apply_EF(1, 1) + mu.times_J(1, Fraction(-2 * k * (n - k - 1), n))
    out_z = out_z + kappa.apply_letter(D).times_J(1, Fraction(-2, n * k))
    out_z = out_z + rho.apply_letter(D).scale(Fraction(-2, k))

    # middle second slot (absent for k = 1)
    if k >= 2:
        out_w = nu.apply_EF(1, 1) + nu.times_J(1, Fraction(-2 * (k - 3) * (n - k + 2), n))
        out_w = out_w + kappa.apply_letter(CD).times_J(1, Fraction(2 * (k - 1), n))
        out_w = out_w + rho.apply_letter(CD).scale(Fraction(-2 * (k - 1)))
    else:
        out_w = FormExpr.zero(ctx, k - 2, wt + k - 4)

    # bottom slot; the nu contribution carries J (weight bookkeeping, see module docstring)
    out_x = rho.apply_EF(1, 1) + rho.times_J(1, j_y)
    out_x = out_x + kappa.times_J(2, Fraction(n - 2 * k + 2, n * n))
    out_x = out_x + mu.apply_letter(CD).times_J(1, Fraction(-2 * k, n))
    if k >= 2:
        out_x = out_x + nu.apply_letter(D).times_J(1, Fraction(-2, n * k - n))

    # diagonal curvature term, then the scale shift
    diag = Fraction(-2) * wt * (n + wt - 1) / n
    out_y = out_y + kappa.times_J(1, diag)
    out_z = out_z + mu.times_J(1, diag)
    if k >= 2:
        out_w = out_w + nu.times_J(1, diag)
    out_x = out_x + rho.times_J(1, diag)

    return TractorFormExpr(
        ctx, wt - 1,
        out_y.shift_weight(1), out_z.shift_weight(1),
        out_w.shift_weight(1), out_x.shift_weight(1),
    )


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
    if not t.slot_y.is_zero or not t.slot_w.is_zero:
        raise InternalConsistencyError(
            "top/second slots expected to vanish:\n" + t.render()
        )
