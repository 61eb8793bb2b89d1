from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap.forms import FormContext, OperatorPoly
from formlap.tractor import (InternalConsistencyError, TractorFormExpr, apply_Mstar,
                             apply_box, make_M)
from formlap.verify import through_codifferential
from strategies import graded, operators, small_fracs

CONTEXTS_NK = [(3, 1), (4, 1), (4, 2), (6, 2), (7, 3), (8, 4), (12, 5)]


def unit(n, k):
    return OperatorPoly(n, k, 0, 1)


def weight(t):
    """The overall weight w - k - p of a tractor state."""
    return t.ctx.w - t.ctx.k - t.p


# -- word-level reference ---------------------------------------------------------
# A form built from the generator f is a dict {(word, J power): Fraction}.  A word
# lists its letters outermost first, "d" for d and "c" for the codifferential;
# applying a letter prefixes it, and dd = cc = 0 drops the words that already
# start with it.  Letters carry no J.


def power(name):
    """The exponent of a monomial named "1", "E", "F", "E^p" or "F^q"."""
    return 0 if name == "1" else 1 if len(name) == 1 else int(name[2:])


def w_add(*forms):
    out = {}
    for form in forms:
        for key, c in form.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def w_apply(form, letter):
    return {(letter + w, m): c for (w, m), c in form.items() if not w.startswith(letter)}


def w_J(form, j_power, c):
    """The form times c J**j_power."""
    return {(w, m + j_power): x * c for (w, m), x in form.items() if x * c}


def w_lap(form):
    """The form Laplacian d delta + delta d."""
    return w_add(w_apply(w_apply(form, "c"), "d"), w_apply(w_apply(form, "d"), "c"))


def w_act(op, form):
    """An operator applied to a form: each monomial E^p or F^q is a word of 2p letters."""
    out = []
    for name, c in op.monomials().items():
        moved = form
        for letter in reversed(("dc" if name[0] == "E" else "cd") * power(name)):
            moved = w_apply(moved, letter)
        out.append(w_J(moved, c.m, c.c))
    return w_add(*out)


def w_of(op):
    """op f as words."""
    return w_act(op, {("", 0): Fraction(1)})


def w_delta(op):
    """delta op f as words c (dc)^p, for an op without F part."""
    assert not op.f_nums
    return {("c" + "dc" * power(name), c.m): c.c for name, c in op.monomials().items()}


def w_slots(t):
    return w_delta(t.slot_y), w_of(t.slot_z), w_delta(t.slot_x)


def w_box(t):
    """The coupled box on word slots, component formula by component formula."""
    n, k, wt = t.ctx.n, t.ctx.k, weight(t)
    kappa, mu, rho = w_slots(t)
    j_y = 1 - Fraction(2 * (k - 1) * (n - k + 1), n)
    diag = Fraction(-2) * wt * (n + wt - 1) / n
    return (w_add(w_lap(kappa), w_J(kappa, 1, j_y + diag), w_J(w_apply(mu, "c"), 0, -2 * k),
                  w_J(rho, 0, n - 2 * k + 2)),
            w_add(w_lap(mu), w_J(mu, 1, Fraction(-2 * k * (n - k - 1), n) + diag),
                  w_J(w_apply(kappa, "d"), 1, Fraction(-2, n * k)),
                  w_J(w_apply(rho, "d"), 0, Fraction(-2, k))),
            w_add(w_lap(rho), w_J(rho, 1, j_y + diag),
                  w_J(kappa, 2, Fraction(n - 2 * k + 2, n * n)),
                  w_J(w_apply(mu, "c"), 1, Fraction(-2 * k, n))))


@st.composite
def tractors(draw):
    """A tractor with random slots of the orders and shapes the slot check demands."""
    n, k = draw(st.sampled_from(CONTEXTS_NK))
    p = draw(st.integers(0, 2))
    y, z, x = (draw(operators(n, k, order=m)) for m in (p - 1, p, p))
    return TractorFormExpr(FormContext(n, k, draw(small_fracs)), p, y.e_part(), z, x.e_part())


@given(st.sampled_from(CONTEXTS_NK), st.lists(st.sampled_from("dc"), max_size=8))
@settings(max_examples=80, deadline=None)
def test_generator_words_have_two_shapes(nk, letters):
    # the two-shapes lemma: a nonzero word in d and the codifferential applied
    # to the generator has degree k, k-1 or k+1; of degree k it is 1, E^p or
    # F^q (an element of R), of degree k-1 delta E^p (delta of an element
    # without F part); the degree-(k+1) words d F^q reach no tractor slot
    n, k = nk
    word = ""
    for letter in letters:
        if word.startswith(letter):
            return
        word = letter + word
    degree = k + word.count("d") - word.count("c")
    assert 0 <= degree <= n
    half = len(word) // 2
    shapes = {k: {"dc" * half, "cd" * half}, k - 1: {"c" + "dc" * half},
              k + 1: {"d" + "cd" * half}}
    assert word in shapes[degree]


@given(st.sampled_from(CONTEXTS_NK), st.data())
@settings(max_examples=60, deadline=None)
def test_box_rules_match_words(nk, data):
    n, k = nk
    e = graded(n, k, 1, 0, [1], [])
    lap = graded(n, k, 1, 0, [1], [1])
    y, z = data.draw(operators(n, k)).e_part(), data.draw(operators(n, k))
    assert w_apply(w_delta(y), "d") == w_of(e * y)           # d (delta Y) = E Y
    assert w_lap(w_delta(y)) == w_delta(e * y)              # Laplacian (delta Y) = delta (E Y)
    assert w_lap(w_of(z)) == w_of(lap * z)                  # Laplacian Z = (E + F) Z
    assert w_apply(w_of(z), "c") == w_delta(z.e_part())     # delta Z = delta e(Z)
    # sigma: an operator Q on (k-1)-forms acts on delta f as delta sigma(Q)
    q = data.draw(operators(n, k - 1))
    assert w_act(q, w_delta(unit(n, k))) == w_delta(through_codifferential(q, k))


@given(tractors())
@settings(max_examples=60, deadline=None)
def test_box_and_Mstar_match_words(t):
    out = apply_box(t)
    assert out.p == t.p + 1 and weight(out) == weight(t) - 1
    assert w_slots(out) == w_box(t)
    # M* = -(wt+k) slot_z + (1/k) d slot_y
    kappa, mu, _ = w_slots(t)
    expect = w_add(w_J(mu, 0, -(weight(t) + t.ctx.k)),
                   w_J(w_apply(kappa, "d"), 0, Fraction(1, t.ctx.k)))
    assert w_of(apply_Mstar(t)) == expect


# -- the slots as elements of R ----------------------------------------------------


def test_make_M_examples():
    m = make_M(FormContext(6, 2, Fraction(1)))
    assert m.slot_z == unit(6, 2).scale(Fraction(3, 2))
    assert m.slot_x == unit(6, 2)                            # delta f
    assert m.slot_y.is_zero and m.slot_y.order == -1
    assert m.p == 0 and weight(m) == -1

    m2 = make_M(FormContext(4, 2, Fraction(0)))
    assert m2.slot_z.is_zero  # n + w - 2k = 0
    assert not m2.slot_x.is_zero


def test_slot_invariants_enforced():
    c = FormContext(6, 2, Fraction(1))
    good = make_M(c)
    with pytest.raises(InternalConsistencyError):
        TractorFormExpr(c, good.p, good.slot_z, good.slot_z, good.slot_x)
    with pytest.raises(InternalConsistencyError):
        TractorFormExpr(c, good.p + 1, good.slot_y, good.slot_z, good.slot_x)
    with pytest.raises(InternalConsistencyError):  # delta F = 0 is never stored
        TractorFormExpr(c, 0, good.slot_y, good.slot_z, graded(6, 2, 0, 1, [], [1]))
    with pytest.raises(InternalConsistencyError):
        TractorFormExpr(c, 0, good.slot_y, unit(6, 1), good.slot_x)


def test_box_on_pure_z_slot():
    # four-dimensional valence-one case: output slots
    # (-2 delta mu, (E + F - J) mu, -(1/2) J delta mu) at weight -1
    c = FormContext(4, 1, Fraction(1))
    mu = unit(4, 1)
    t = TractorFormExpr(c, 0, OperatorPoly(4, 1, -1), mu, OperatorPoly(4, 1, 0))
    assert weight(t) == 0
    out = apply_box(t)
    assert weight(out) == -1
    assert out.slot_y == mu.scale(-2)
    lap = graded(4, 1, 1, 0, [1], [1])
    assert out.slot_z == lap * mu + OperatorPoly.combine(((-1, 1, mu),))
    assert out.slot_x == OperatorPoly.combine(((Fraction(-1, 2), 1, mu),))


def _slots(t):
    return [t.slot_y, t.slot_z, t.slot_x]


def _zero_like(t):
    return TractorFormExpr(t.ctx, t.p, *(slot.scale(0) for slot in _slots(t)))


def test_box_zero_tractor():
    c = FormContext(5, 2, Fraction(1, 2))
    z = _zero_like(make_M(c))
    for t in (z, apply_box(z), apply_box(apply_box(z))):
        assert all(slot.is_zero for slot in _slots(t))


def test_Mstar_contractions():
    c = FormContext(6, 2, Fraction(1))
    f = unit(6, 2)
    # one box above the generator: tractor weight -2, slot orders 0, 1, 1
    fj = OperatorPoly.combine(((1, 1, f),))  # J f
    pure_z = TractorFormExpr(c, 1, OperatorPoly(6, 2, 0), fj, OperatorPoly(6, 2, 1))
    assert weight(pure_z) == -2
    assert apply_Mstar(pure_z) == pure_z.slot_z.scale(-(weight(pure_z) + 2))
    pure_x = TractorFormExpr(c, 1, OperatorPoly(6, 2, 0), OperatorPoly(6, 2, 1), fj)
    assert apply_Mstar(pure_x).is_zero
    # d (delta f) = E f, over k
    pure_y = TractorFormExpr(c, 1, f, OperatorPoly(6, 2, 1), OperatorPoly(6, 2, 1))
    assert apply_Mstar(pure_y) == graded(6, 2, 1, 0, [Fraction(1, 2)], [])


@pytest.mark.parametrize("n", range(3, 13))
def test_calibration_identity_grid(n):
    # M* applied to the embedded generator returns -(1/k) w (n+w-2k) times it,
    # at the operator weights of every order up to four
    for k in range(1, n // 2 + 1):
        for ell in range(1, 5):
            w = Fraction(k) + ell - Fraction(n, 2)
            got = apply_Mstar(make_M(FormContext(n, k, w)))
            assert got == unit(n, k).scale(Fraction(-1, k) * w * (n + w - 2 * k)), (n, k, ell)


@given(st.fractions(min_value=-4, max_value=4, max_denominator=2),
       st.fractions(min_value=-4, max_value=4, max_denominator=2))
@settings(max_examples=25, deadline=None)
def test_box_linearity(a, b):
    c = FormContext(6, 2, Fraction(1))
    f = unit(6, 2)
    fj = OperatorPoly.combine(((1, 1, f),))  # J f
    s = TractorFormExpr(c, 1, f, graded(6, 2, 1, 3, [2], [-1]), fj)
    t = TractorFormExpr(c, 1, f.scale(-5), fj, graded(6, 2, 1, 1, [1], []))

    def combine(u, v):  # the slots of a*u + b*v
        return [x.scale(a) + y.scale(b) for x, y in zip(_slots(u), _slots(v))]

    lhs = apply_box(TractorFormExpr(c, 1, *combine(s, t)))
    assert _slots(lhs) == combine(apply_box(s), apply_box(t))


@pytest.mark.parametrize("n,k,ell", [(4, 1, 1), (6, 2, 2), (5, 1, 2), (8, 3, 3), (12, 6, 2)])
def test_slot_vanishing_at_operator_weight(n, k, ell):
    from formlap.factory import box_iterate, operator_weight

    t = box_iterate(n, k, operator_weight(n, k, ell), ell)
    assert t.slot_y.is_zero
    assert not t.slot_z.is_zero


def test_each_box_step_normalises_four_times(monkeypatch):
    # the e(Z) read and one multiply-accumulate per output slot; E Y, E X and
    # (E + F) Z are numerator shifts that keep the canonical form and normalise
    # nothing.  A box that summed its slots pairwise would normalise 24 times
    # per step, one that multiplied by E and E + F in the ring 7 times
    real = OperatorPoly.from_numerators
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    t = make_M(FormContext(8, 2, Fraction(1)))
    monkeypatch.setattr(OperatorPoly, "from_numerators", staticmethod(counted))
    for p in range(1, 5):
        calls.clear()
        t = apply_box(t)
        assert (t.p, len(calls)) == (p, 4)
        calls.clear()
        apply_Mstar(t)
        assert len(calls) == 1  # one multiply-accumulate; E Y is a shift


def _diag(n, wt):
    """D(wt) = -2 (wt/n)(n + wt - 1), the box's one weight-dependent coefficient."""
    return -2 * wt * (n + wt - 1) / n


def test_box_depends_on_the_weight_only_through_a_multiple_of_the_identity():
    # the lemma of apply_box, box_wt = box_0 + D(wt) J Id: every box step of
    # the default grid, its slots relabelled at three other weights (half a
    # unit up, one down, and wt = 0 where D = 0), differs after one box by
    # exactly (D - D') J times the state, slot by slot
    from formlap.factory import default_grid, operator_weight

    compared = 0
    for n, k, ell in default_grid():
        t = make_M(FormContext(n, k, operator_weight(n, k, ell)))
        for _ in range(ell):
            out, w = apply_box(t), t.ctx.w
            for w2 in (w + Fraction(1, 2), w - 1, Fraction(k + t.p)):
                t2 = TractorFormExpr(FormContext(n, k, w2), t.p, t.slot_y, t.slot_z, t.slot_x)
                out2, shift = apply_box(t2), _diag(n, weight(t)) - _diag(n, weight(t2))
                for name in ("slot_y", "slot_z", "slot_x"):
                    diff = OperatorPoly.combine(((1, 0, getattr(out, name)),
                                                 (-1, 0, getattr(out2, name))))
                    assert diff == OperatorPoly.combine(((shift, 1, getattr(t, name)),)), (
                        n, k, ell, t.p, w2, name)
                    compared += 1
            t = out
    assert compared == 6615


def test_box_z_coefficient_is_the_coexact_root():
    # -j_z(wt_p) = 2n mu_m / 2n with m = ell - p, read as the J coefficient of
    # Z' from a state whose only slot is Z = 1: every box step of the cells
    # n = 3..30, k <= n/2, ell <= 10.  Times n both sides are polynomials of
    # degree 2 in each of n, k and m, and the steps hold the product grid
    # {6, 7, 8} x {1, 2, 3} x {1, 2, 3}, so by the grid lemma they agree for
    # every (n, k, m)
    from formlap.factory import coexact_root, default_grid, operator_weight

    steps = 0
    for n, k, ell in default_grid(range(3, 31), 10):
        for p in range(ell):
            wt = operator_weight(n, k, ell) - k - p
            t = TractorFormExpr(FormContext(n, k, wt + k), 0, OperatorPoly(n, k, -1), unit(n, k),
                                OperatorPoly(n, k, 0))
            z = apply_box(t).slot_z
            assert Fraction(-z.c_num, z.den) == Fraction(coexact_root(n, k, ell - p), 2 * n), (
                n, k, ell, p)
            steps += 1
    assert steps == 12320


def test_coexact_side_of_L_is_the_product_over_the_box_steps():
    # apply_box's proof: on coexact forms only the Z slot survives, so L's
    # coexact side (E -> 0, F -> mu) is (n+w-2k) prod_p (mu + j_z(wt_p) J),
    # wt_p = w - k - p, j_z(wt) = D(wt) - 2k(n-k-1)/n.  Compared coefficient by
    # coefficient in mu (J = 1 reads each, by weight homogeneity) on every
    # default-grid cell
    from formlap.factory import default_grid, operator_weight, run_pipeline

    for n, k, ell in default_grid():
        w = operator_weight(n, k, ell)
        poly = [n + w - 2 * k]  # coefficients of mu**0, mu**1, ...
        for p in range(ell):
            j_z = _diag(n, w - k - p) - Fraction(2 * k * (n - k - 1), n)
            poly = [j_z * lo + hi for lo, hi in zip([*poly, 0], [0, *poly])]
        L = run_pipeline(n, k, ell)[0]
        coexact = [Fraction(v, L.den) for v in (L.c_num, *L.f_nums)]
        assert coexact + [0] * (len(poly) - len(coexact)) == poly, (n, k, ell)
