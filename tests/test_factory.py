import hashlib
from fractions import Fraction

import pytest

import formlap.factory as factory
from formlap.coeffring import RatJ
from formlap.factory import (build_L_definition, build_tmodbox, closed_companion, closed_factors,
                             closed_operator, closed_tmodbox, coexact_root, default_grid,
                             exact_root, operator_weight, run_pipeline)
from formlap.forms import OperatorPoly, UsageError, proportionality
from strategies import graded


def test_closed_L1_examples():
    assert closed_operator(8, 2, 1).monomials() == {"E": RatJ(1), "F": RatJ(3),
                                             "1": RatJ(Fraction(3, 2), 1)}
    assert closed_operator(4, 2, 1).monomials() == {"E": RatJ(-1), "F": RatJ(1)}
    assert closed_operator(6, 1, 1).monomials() == {"E": RatJ(1), "F": RatJ(3), "1": RatJ(2, 1)}


def test_definition_examples():
    assert proportionality(build_L_definition(4, 2, 1),
                           graded(4, 2, 1, 0, [1], [-1])) is not None
    assert build_L_definition(8, 2, 1).monomials() == closed_operator(8, 2, 1).monomials()
    assert build_L_definition(4, 1, 1).monomials() == {"F": RatJ(2)}


@pytest.mark.parametrize("n", range(3, 13))
def test_order_one_equality_grid(n):
    # the engine's (L, X) equals the closed form from the root lists at
    # every ell of the default grid, with constant exactly 1
    for _, k, ell in default_grid(range(n, n + 1)):
        assert run_pipeline(n, k, ell) == (closed_operator(n, k, ell),
                                           closed_companion(n, k, ell)), (k, ell)


def test_build_G_examples():
    # G = delta X with X = E + J at (n, k) = (4, 1)
    x = run_pipeline(4, 1, 1)[1]
    assert x.monomials() == {"E": RatJ(1), "1": RatJ(1, 1)}
    assert x == closed_companion(4, 1, 1)


@pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (8, 3), (5, 1), (9, 4)])
def test_G_closed_form_order_one(n, k):
    # X = prod (E - lam_m J) at every ell of the default grid, not only ell = 1
    for ell in range(1, 7):
        assert run_pipeline(n, k, ell)[1] == closed_companion(n, k, ell), ell


def test_closed_factors_examples():
    f1 = closed_factors(8, 2, 1)
    assert [f.monomials() for f in f1] == [
        {"E": RatJ(-2), "F": RatJ(-6), "1": RatJ(-3, 1)}]
    f2 = closed_factors(4, 2, 2)
    assert [f.monomials() for f in f2] == [
        {"E": RatJ(1), "F": RatJ(-1)},
        {"E": RatJ(2), "F": RatJ(2), "1": RatJ(-2, 1)}]
    f3 = closed_factors(6, 1, 3)
    assert [f.monomials() for f in f3] == [
        {"E": RatJ(Fraction(3, 2)), "F": RatJ(Fraction(5, 2))},
        {"E": RatJ(1), "F": RatJ(-1), "1": RatJ(Fraction(4, 3), 1)},
        {"E": RatJ(-2), "F": RatJ(-6), "1": RatJ(-4, 1)}]


def _render_delta(x):
    """delta X as the words delta (d delta)^p on the generator, shortest first."""
    parts = []
    for name, c in x.monomials().items():  # "1", then E^p by rising p; X has no F part
        word = "δ" + "dδ" * (0 if name == "1" else 1 if len(name) == 1 else int(name[2:]))
        cs = str(c)
        parts.append(word if cs == "1" else f"-{word}" if cs == "-1" else f"({cs})*{word}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def tmodbox2_w1(n, k):
    """M* box**2 M on weight-1 forms, factored: -(2/k) times the two leading factors at
    ell = n/2 - k + 1, [(n/2-k-1/2) E + (n/2-k+1/2) F] [E - F + (4/n)(n/2-k) J]."""
    first, second = closed_factors(n, k, n // 2 - k + 1)[:2]
    return (first * second).scale(Fraction(-2, k))


def _closed_form_lines():
    """The rendering of every closed form on the default grid, one line each."""
    for n, k, ell in default_grid():
        w = operator_weight(n, k, ell)
        if ell == 1:
            yield f"L1 {n} {k}: {closed_operator(n, k, 1).render()}"
            yield f"G1 {n} {k}: {_render_delta(closed_companion(n, k, 1))}"
        yield (f"factors {n} {k} {ell}: "
               + "; ".join(f.render() for f in closed_factors(n, k, ell)))
        yield f"tmodbox1 {n} {k} {w}: {closed_tmodbox(n, k, w, 1).render()}"
        yield f"tmodbox2 {n} {k} {w}: {closed_tmodbox(n, k, w, 2).render()}"
        if w == 1 and 2 * k < n:
            yield f"tmodbox2_w1 {n} {k}: {tmodbox2_w1(n, k).render()}"


# sha256 of the rendered closed forms on the default grid (715 lines): each
# factor, order-one form and second-order reduction with its coefficients
# and J powers, so the order each closed form states is pinned
CLOSED_FORMS_SHA256 = "e521a2fe00db2bb5e88f51d7d2941ccd540d83953c6e2d7acac640f74a495237"


def test_closed_forms_golden_digest():
    lines = list(_closed_form_lines())
    assert len(lines) == 715
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CLOSED_FORMS_SHA256


def test_closed_factors_are_cached():
    # the sweep asks for each factor list several times; one frozen value serves them
    assert closed_factors(7, 2, 4) is closed_factors(7, 2, 4)


def test_closed_factors_case_selection():
    # top degree (even n): leading antisymmetric factor
    top = closed_factors(6, 3, 2)
    assert top[0].monomials() == {"E": RatJ(1), "F": RatJ(-1)}
    assert len(top) == 2
    # odd dimension: generic factors only
    odd = closed_factors(7, 2, 4)
    assert len(odd) == 4
    for f in odd:
        assert "1" in f.monomials()
    # nonpositive weight (even n): generic factors only
    w0 = closed_factors(8, 2, 2)
    assert operator_weight(8, 2, 2) == 0 and len(w0) == 2
    # positive weight below top degree: degenerate-weight pair first
    pos = closed_factors(6, 2, 2)
    assert pos[0].monomials() == {"E": RatJ(Fraction(1, 2)), "F": RatJ(Fraction(3, 2))}
    assert pos[1].monomials() == {"E": RatJ(1), "F": RatJ(-1), "1": RatJ(Fraction(2, 3), 1)}


def test_factor_count_invariant():
    for (n, k, ell) in [(4, 2, 5), (10, 3, 6), (11, 5, 4), (12, 6, 3)]:
        assert len(closed_factors(n, k, ell)) == ell


def test_param_validation():
    with pytest.raises(UsageError):
        closed_factors(6, 4, 2)
    with pytest.raises(UsageError):
        build_L_definition(6, 1, 0)


def test_tmodbox_examples():
    assert build_tmodbox(6, 2, 1, 1).monomials() == {"E": RatJ(-1)}
    # weight zero: ((n-2k)/k) F
    assert build_tmodbox(6, 1, 0, 1).monomials() == {"F": RatJ(4)}
    assert build_tmodbox(8, 2, 0, 1).monomials() == {"F": RatJ(2)}
    got = build_tmodbox(6, 1, 1, 2)
    assert got.monomials() == closed_tmodbox(6, 1, 1, 2).monomials()
    # -2 [ (3/2)E + (5/2)F ][ E - F + (4/3)J ]
    first = graded(6, 1, 1, 0, [Fraction(3, 2)], [Fraction(5, 2)])
    second = graded(6, 1, 1, Fraction(4, 3), [1], [-1])
    assert closed_factors(6, 1, 3)[:2] == (first, second)
    assert (first * second).scale(-2) == got == tmodbox2_w1(6, 1)


@pytest.mark.parametrize("n,k,w", [(6, 2, 1), (6, 2, 0), (5, 1, Fraction(1, 2)),
                                   (8, 3, 2), (4, 1, -1), (12, 4, 3)])
def test_tmodbox_p1_closed_form(n, k, w):
    assert build_tmodbox(n, k, w, 1).monomials() == closed_tmodbox(n, k, w, 1).monomials()


@pytest.mark.parametrize("n,k,w", [(6, 2, 1), (6, 1, 1), (8, 3, 2),
                                   (5, 1, Fraction(1, 2)), (7, 3, Fraction(-3, 2))])
def test_tmodbox_p2_closed_form(n, k, w):
    assert build_tmodbox(n, k, w, 2).monomials() == closed_tmodbox(n, k, w, 2).monomials()


@pytest.mark.parametrize("p", range(1, 7), ids=lambda p: f"p{p}")
def test_tmodbox_closed_forms_on_a_half_integer_weight_sweep(p):
    # the reductions at generator weights off the operator grid too:
    # every w in {-8, -15/2, ..., 8} for every (n, k) with n = 3..12, and
    # weights of denominators 3, 7, 9, 6 and 12, since the box builds its
    # scalars over the denominator of the tractor weight, whatever it is
    weights = [Fraction(h, 2) for h in range(-16, 17)] + [
        Fraction(1, 3), Fraction(-5, 7), Fraction(22, 9), Fraction(-13, 6), Fraction(41, 12)]
    cases = [(n, k, w) for n in range(3, 13) for k in range(1, n // 2 + 1) for w in weights]
    assert len(cases) == 1330
    # at 1/3 and -5/7 every root numerator 2n lam_m, 2n mu_m is rational and not an
    # integer, so the closed form's integer expansion reads each as p/q
    assert all(root(n, k, w + Fraction(n - 2 * k, 2) - q).denominator > 1
               for n, k, w in cases if w in (Fraction(1, 3), Fraction(-5, 7))
               for root in (exact_root, coexact_root) for q in range(p))
    for n, k, w in cases:
        assert build_tmodbox(n, k, w, p) == closed_tmodbox(n, k, w, p), (n, k, w)


@pytest.mark.parametrize("n,k,w", [(6, 2, 1), (8, 2, 2), (5, 2, Fraction(1, 2)), (9, 3, -1)])
def test_square_relation(n, k, w):
    # composing the order-one reduction at weights w and w-1 equals
    # -(1/k)(w-1)(n+w-2k-1) times the order-two reduction at weight w
    w = Fraction(w)
    lhs = build_tmodbox(n, k, w - 1, 1) * build_tmodbox(n, k, w, 1)
    scalar = Fraction(-1, k) * (w - 1) * (n + w - 2 * k - 1)
    rhs = build_tmodbox(n, k, w, 2).scale(scalar)
    assert lhs.monomials() == rhs.monomials()


def test_root_factor_matches_tmodbox1():
    # the factor of the m-th roots is -k times the order-one reduction at
    # weight m - a, a = n/2 - k: the i-th generic factor at operator weight
    # w, m = ell + 1 - i, is that at weight w - i + 1, and m = a at (8, 2),
    # where the tuple crosses that pair, still holds
    for (n, k, m) in [(8, 2, 2), (7, 1, 2), (10, 3, 5)]:
        lhs = factory._root_factor(n, k, m)
        rhs = closed_tmodbox(n, k, m - Fraction(n - 2 * k, 2), 1).scale(-k)
        assert lhs.monomials() == rhs.monomials()


def test_sweep_builds_each_box_state_once(monkeypatch):
    # the operators, companions and second-order reductions of a sweep all
    # read the same box states: one apply_box per state (n, k, w, p >= 1),
    # for each theorem alone and for all together.  At ell = 10 one chain
    # holds 11 states.  The relative inverses read only the closed forms.
    from formlap.verify import THEOREMS, run_sweep

    calls = []
    apply_box = factory.apply_box

    def counting_apply_box(t):
        calls.append(t.p)
        return apply_box(t)

    monkeypatch.setattr(factory, "apply_box", counting_apply_box)
    states = sum(ell for _, _, ell in default_grid(range(3, 6), 10))
    for theorems in [[name] for name in THEOREMS] + [list(THEOREMS)]:
        for cached in (factory.box_chains, factory.run_pipeline, factory.build_tmodbox):
            cached.cache_clear()
        calls.clear()
        reports = run_sweep(theorems, range(3, 6), ell_max=10)
        assert reports and all(r.passed for r in reports), theorems
        assert len(calls) == (0 if theorems == ["bezout"] else states), theorems


def test_pipeline_raises_unless_the_top_slot_vanishes(monkeypatch):
    # a box that leaves delta Y f in the top slot breaks the definition: a fault
    from formlap.forms import InternalConsistencyError
    from formlap.tractor import TractorFormExpr

    apply_box = factory.apply_box

    def leaky_apply_box(t):
        out = apply_box(t)
        y = out.slot_y + OperatorPoly(t.ctx.n, t.ctx.k, out.p - 1, 1)
        return TractorFormExpr(out.ctx, out.p, y, out.slot_z, out.slot_x)

    caches = (factory.box_chains, factory.run_pipeline)
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(factory, "apply_box", leaky_apply_box)
    try:
        with pytest.raises(InternalConsistencyError, match=r"top slot expected to vanish at "
                                                           r"\(n, k, ell\) = \(6, 2, 2\)"):
            run_pipeline(6, 2, 2)
    finally:
        for cached in caches:  # they now hold states built with the leaky box
            cached.cache_clear()
