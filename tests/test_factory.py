import hashlib
from fractions import Fraction

import pytest

import formlap.factory as factory
from formlap.coeffring import RatJ
from formlap.factory import (build_L_and_G, build_L_definition, build_tmodbox, closed_factors,
                             closed_G1, closed_L1, closed_tmodbox1, closed_tmodbox2,
                             closed_tmodbox2_w1, operator_weight, sqyam_factors, yam_factor)
from formlap.forms import (CD, D, FormAlgebraError, FormContext, FormExpr, OperatorPoly,
                           proportionality)
from formlap.verify import default_grid


def test_closed_L1_examples():
    assert closed_L1(8, 2).monomials() == {"E": RatJ(1), "F": RatJ(3), "1": RatJ(Fraction(3, 2), 1)}
    assert closed_L1(4, 2).monomials() == {"E": RatJ(-1), "F": RatJ(1)}
    assert closed_L1(6, 1).monomials() == {"E": RatJ(1), "F": RatJ(3), "1": RatJ(2, 1)}


def test_definition_examples():
    assert proportionality(build_L_definition(4, 2, 1),
                           OperatorPoly.graded(4, 2, 1, 0, [1], [-1])) is not None
    assert build_L_definition(8, 2, 1).monomials() == closed_L1(8, 2).monomials()
    assert build_L_definition(4, 1, 1).monomials() == {"F": RatJ(2)}


@pytest.mark.parametrize("n", range(3, 13))
def test_order_one_equality_grid(n):
    for k in range(1, n // 2 + 1):
        assert build_L_definition(n, k, 1).monomials() == closed_L1(n, k).monomials(), (n, k)


def test_build_G_examples():
    g = build_L_and_G(4, 1, 1)[1]
    c = FormContext(4, 1, operator_weight(4, 1, 1))
    f = FormExpr.generator(c)
    expected = (f.apply_word(D + CD) + f.times_J(1, 1)).apply_letter(CD)
    assert g == expected
    assert g == closed_G1(4, 1)


@pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (8, 3), (5, 1), (9, 4)])
def test_G_closed_form_order_one(n, k):
    assert build_L_and_G(n, k, 1)[1] == closed_G1(n, k)


def test_closed_factors_examples():
    f1 = closed_factors(8, 2, 1)
    assert [f.monomials() for f in f1.factors] == [
        {"E": RatJ(-2), "F": RatJ(-6), "1": RatJ(-3, 1)}]
    f2 = closed_factors(4, 2, 2)
    assert [f.monomials() for f in f2.factors] == [
        {"E": RatJ(1), "F": RatJ(-1)},
        {"E": RatJ(2), "F": RatJ(2), "1": RatJ(-2, 1)}]
    f3 = closed_factors(6, 1, 3)
    assert [f.monomials() for f in f3.factors] == [
        {"E": RatJ(Fraction(3, 2)), "F": RatJ(Fraction(5, 2))},
        {"E": RatJ(1), "F": RatJ(-1), "1": RatJ(Fraction(4, 3), 1)},
        {"E": RatJ(-2), "F": RatJ(-6), "1": RatJ(-4, 1)}]


def _closed_form_lines():
    """The rendering of every closed form on the default grid, one line each."""
    for n, k, ell in default_grid():
        w = operator_weight(n, k, ell)
        if ell == 1:
            yield f"L1 {n} {k}: {closed_L1(n, k).render()}"
            yield f"G1 {n} {k}: {closed_G1(n, k).render()}"
        yield (f"factors {n} {k} {ell}: "
               + "; ".join(f.render() for f in closed_factors(n, k, ell).factors))
        yield f"tmodbox1 {n} {k} {w}: {closed_tmodbox1(n, k, w).render()}"
        yield f"tmodbox2 {n} {k} {w}: {closed_tmodbox2(n, k, w).render()}"
        if w == 1 and 2 * k < n:
            yield f"tmodbox2_w1 {n} {k}: {closed_tmodbox2_w1(n, k).render()}"


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
    assert top.factors[0].monomials() == {"E": RatJ(1), "F": RatJ(-1)}
    assert len(top.factors) == 2
    # odd dimension: generic factors only
    odd = closed_factors(7, 2, 4)
    assert len(odd.factors) == 4
    for f in odd.factors:
        assert "1" in f.monomials()
    # nonpositive weight (even n): generic factors only
    w0 = closed_factors(8, 2, 2)
    assert operator_weight(8, 2, 2) == 0 and len(w0.factors) == 2
    # positive weight below top degree: degenerate-weight pair first
    pos = closed_factors(6, 2, 2)
    assert pos.factors[0].monomials() == {"E": RatJ(Fraction(1, 2)), "F": RatJ(Fraction(3, 2))}
    assert pos.factors[1].monomials() == {"E": RatJ(1), "F": RatJ(-1), "1": RatJ(Fraction(2, 3), 1)}


def test_factor_count_invariant():
    for (n, k, ell) in [(4, 2, 5), (10, 3, 6), (11, 5, 4), (12, 6, 3)]:
        assert len(closed_factors(n, k, ell).factors) == ell


def test_param_validation():
    with pytest.raises(FormAlgebraError):
        closed_factors(6, 4, 2)
    with pytest.raises(FormAlgebraError):
        build_L_definition(6, 1, 0)


def test_tmodbox_examples():
    assert build_tmodbox(6, 2, 1, 1).monomials() == {"E": RatJ(-1)}
    # weight zero: ((n-2k)/k) F
    assert build_tmodbox(6, 1, 0, 1).monomials() == {"F": RatJ(4)}
    assert build_tmodbox(8, 2, 0, 1).monomials() == {"F": RatJ(2)}
    got = build_tmodbox(6, 1, 1, 2)
    want = closed_tmodbox2_w1(6, 1)
    assert got.monomials() == want.monomials()
    # -2 [ (3/2)E + (5/2)F ][ E - F + (4/3)J ]
    first, second = sqyam_factors(6, 1)
    assert (first * second).scale(-2).monomials() == got.monomials()


@pytest.mark.parametrize("n,k,w", [(6, 2, 1), (6, 2, 0), (5, 1, Fraction(1, 2)),
                                   (8, 3, 2), (4, 1, -1), (12, 4, 3)])
def test_tmodbox_p1_closed_form(n, k, w):
    assert build_tmodbox(n, k, w, 1).monomials() == closed_tmodbox1(n, k, w).monomials()


@pytest.mark.parametrize("n,k,w", [(6, 2, 1), (6, 1, 1), (8, 3, 2),
                                   (5, 1, Fraction(1, 2)), (7, 3, Fraction(-3, 2))])
def test_tmodbox_p2_closed_form(n, k, w):
    assert build_tmodbox(n, k, w, 2).monomials() == closed_tmodbox2(n, k, w).monomials()


@pytest.mark.parametrize("n,k,w", [(6, 2, 1), (8, 2, 2), (5, 2, Fraction(1, 2)), (9, 3, -1)])
def test_square_relation(n, k, w):
    # composing the order-one reduction at weights w and w-1 equals
    # -(1/k)(w-1)(n+w-2k-1) times the order-two reduction at weight w
    w = Fraction(w)
    lhs = build_tmodbox(n, k, w - 1, 1) * build_tmodbox(n, k, w, 1)
    scalar = Fraction(-1, k) * (w - 1) * (n + w - 2 * k - 1)
    rhs = build_tmodbox(n, k, w, 2).scale(scalar)
    assert lhs.monomials() == rhs.monomials()


def test_yam_factor_matches_tmodbox1():
    # the generic factor with index i is -k times the order-one reduction
    # at weight w - i + 1
    for (n, k, ell, i) in [(8, 2, 3, 2), (7, 1, 4, 3), (10, 3, 5, 1)]:
        w = operator_weight(n, k, ell)
        lhs = yam_factor(n, k, w, i)
        rhs = closed_tmodbox1(n, k, w - i + 1).scale(-k)
        assert lhs.monomials() == rhs.monomials()


def test_sweep_builds_each_box_state_once(monkeypatch):
    # the operators, companions and second-order reductions of a sweep all
    # read the same box iterates: one apply_box per state (n, k, w, p >= 1)
    from formlap.verify import default_grid, run_sweep

    for cached in (factory.box_iterate, factory.run_pipeline, factory.build_L_and_G,
                   factory.build_tmodbox):
        cached.cache_clear()
    calls = []
    apply_box = factory.apply_box

    def counting_apply_box(t):
        calls.append(t.wt)
        return apply_box(t)

    monkeypatch.setattr(factory, "apply_box", counting_apply_box)
    reports = run_sweep(["factorization", "MMstar", "LG", "bezout", "kernel"],
                        range(3, 6), ell_max=3)
    assert all(r.passed for r in reports)
    assert len(calls) == sum(ell for _, _, ell in default_grid(range(3, 6), 3))
