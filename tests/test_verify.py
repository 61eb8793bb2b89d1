from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap import verify
from formlap.coeffring import RatJ, ZERO
from formlap.factory import build_L_definition, closed_factors, operator_weight
from formlap.forms import OperatorPoly, UsageError
from formlap.spectral import (SpectralModel, SpectralPoint, factor_kernel_content,
                              synthetic_model)
from formlap.verify import (BezoutError, bezout, default_grid, lg_second_scalar,
                            predicted_kernel_content, verify_LG,
                            verify_MMstar, verify_bezout_pairs, verify_factorization,
                            verify_kernel_decomposition)


def test_factorization_examples():
    r = verify_factorization(8, 2, 1)
    assert r.passed and r.witness == {"constant": "-2"}
    r = verify_factorization(5, 1, 2)
    assert r.passed and r.witness["constant"] not in ("0", None)
    r = verify_factorization(4, 2, 1)
    assert r.passed and r.witness == {"constant": "-1"}


def test_MMstar_examples():
    assert verify_MMstar(5, 1, 2, 1).passed
    assert verify_MMstar(6, 1, 3, 2).passed
    with pytest.raises(UsageError, match="p = 2 outside"):
        verify_MMstar(5, 1, 2, 2)  # p = ell violates the precondition


def test_MMstar_forced_p2_at_weight_one():
    # even dimension, weight one: the p = 1 route degenerates to 0 = 0 and
    # the p = 2 route carries the content
    for (n, k, ell) in [(6, 2, 2), (8, 2, 3), (6, 1, 3)]:
        assert operator_weight(n, k, ell) == 1
        for p in range(1, ell):
            assert verify_MMstar(n, k, ell, p).passed


def test_LG_first_relation_weight_zero():
    r = verify_LG(4, 1, 1)  # w = 0: both sides vanish because the
    assert r.passed         # codifferential square is zero


def test_LG_examples():
    assert verify_LG(6, 2, 1).passed
    assert verify_LG(8, 3, 2).passed
    assert verify_LG(5, 2, 3).passed


def test_LG_failure_names_a_codifferential_word(monkeypatch):
    # a wrong companion fails both relations, each with a delta-word witness
    import formlap.verify as verify

    L, X = verify.run_pipeline(8, 3, 2)  # w = 1
    monkeypatch.setattr(verify, "run_pipeline", lambda n, k, ell: (L, X.scale(2)))
    r = verify.verify_LG(8, 3, 2)
    assert not r.passed and set(r.witness) == {"first", "second"}
    assert r.witness["first"]["monomial"] in ("δ∘1", "δ∘E", "δ∘E^2")
    assert r.witness["second"]["lhs"] != r.witness["second"]["rhs"]


def test_LG_second_scalar_value():
    # the engine-calibrated scalar is 1/(n+w-2k+1); the printed
    # (k-1)/(k(n+w-2k+1)) differs by exactly (k-1)/k, which fails on the
    # whole grid -- documented in the repository notes.  With G = delta X,
    # the lower operator after the codifferential is delta sigma(lower).
    from formlap.factory import run_pipeline
    from formlap.verify import through_codifferential

    for (n, k, ell) in [(6, 2, 1), (8, 3, 1), (10, 4, 2), (6, 2, 3)]:
        x = run_pipeline(n, k, ell)[1]
        rhs = through_codifferential(build_L_definition(n, k - 1, ell), k)
        scalar = lg_second_scalar(n, k, ell)
        assert x == rhs.scale(scalar)
        printed = Fraction(k - 1, k) * scalar
        assert x != rhs.scale(printed)  # the printed scalar fails
        # and the mismatch is exactly the factor (k-1)/k
        assert printed / scalar == Fraction(k - 1, k)


def test_bezout_weight_two_pair():
    s = OperatorPoly.graded(4, 2, 1, Fraction(1, 2), [1], [1])
    t = OperatorPoly.graded(4, 2, 1, 0, [1], [-1])
    phi_s, phi_t = bezout(s, t)
    combined = phi_s * s + phi_t * t
    assert combined.monomials() == {"1": RatJ(1)}
    # the solver's free-variable choice reproduces the hand-computed pair
    assert phi_s.monomials() == {"E": RatJ(-4, -2), "F": RatJ(-4, -2), "1": RatJ(2, -1)}
    assert phi_t.monomials() == {"E": RatJ(4, -2), "F": RatJ(-4, -2)}


def _linsolve(rows, rhs):
    """Reference: one solution of A x = b over Q by Gaussian elimination, or None."""
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [vi - f * vr for vi, vr in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][cols]:
            return None  # inconsistent
    x = [Fraction(0)] * cols
    for row, col in pivots:
        x[col] = aug[row][cols]
    return x


def _monomial_system_consistent(s, t):
    """Whether phi_s s + phi_t t = 1 has a degree-one solution: the five
    monomial equations E^2, F^2, E, F, 1 in the six unknowns of phi_s, phi_t."""
    def coeffs(op):  # rational coefficients of E, F and 1; the J powers follow from the order
        mono = op.monomials()
        return tuple(mono.get(name, ZERO).c for name in ("E", "F", "1"))

    (a1, b1, c1), (a2, b2, c2) = coeffs(s), coeffs(t)
    z = Fraction(0)
    rows = [
        [a1, z, z, a2, z, z],          # E^2
        [z, b1, z, z, b2, z],          # F^2
        [c1, z, a1, c2, z, a2],        # E
        [z, c1, b1, z, c2, b2],        # F
        [z, z, c1, z, z, c2],          # 1
    ]
    return _linsolve(rows, [z, z, z, z, Fraction(1)]) is not None


# mostly zeros, so that every degenerate case (constant sides, vanishing
# constants, parallel coefficient vectors) is drawn often
sparse_coeffs = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                          st.fractions(min_value=-3, max_value=3, max_denominator=3))


@given(st.lists(sparse_coeffs, min_size=6, max_size=6),
       st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2))
@settings(max_examples=300)
def test_bezout_matches_gaussian_elimination(coeffs, order_s, order_t):
    a1, b1, c1, a2, b2, c2 = coeffs
    s = OperatorPoly.graded(5, 2, order_s, c1, [a1], [b1])
    t = OperatorPoly.graded(5, 2, order_t, c2, [a2], [b2])
    if s == t:
        with pytest.raises(BezoutError):
            bezout(s, t)
        return
    consistent = _monomial_system_consistent(s, t)
    try:
        phi_s, phi_t = bezout(s, t)
    except BezoutError:
        assert not consistent, (s.render(), t.render())
        return
    assert consistent, (s.render(), t.render())
    assert (phi_s.order, phi_t.order) == (-order_s, -order_t)
    assert (phi_s * s + phi_t * t).monomials() == {"1": RatJ(1)}


def test_bezout_default_grid_raises_only_at_weight_zero():
    # 1,225 factor pairs over the default grid; the 20 without a pair are
    # exactly those of the pure-F leading factor at w = 0 with a factor
    # that has an E part
    pairs = raised = 0
    for n, k, ell in default_grid():
        factors = closed_factors(n, k, ell)
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                s, t = factors[i], factors[j]
                pairs += 1
                first_at_w0 = operator_weight(n, k, ell) == 0 and i == 0
                try:
                    bezout(s, t)
                except BezoutError:
                    raised += 1
                    assert first_at_w0, (n, k, ell, i + 1, j + 1)
                    assert set(s.monomials()) == {"F"} and "E" in t.monomials()
                    assert not _monomial_system_consistent(s, t)
                else:
                    assert not first_at_w0, (n, k, ell, i + 1, j + 1)
    assert (pairs, raised) == (1225, 20)


def test_bezout_singular_cases():
    s = OperatorPoly.graded(4, 2, 1, Fraction(1, 2), [1], [1])
    with pytest.raises(BezoutError):
        bezout(s, s)
    unit = OperatorPoly(4, 2, 1, 1)  # J
    with pytest.raises(BezoutError):
        bezout(unit, unit)  # identical factors raise, even a unit
    # specialising J to zero removes the constants and the system turns
    # inconsistent
    s0 = OperatorPoly.graded(4, 2, 1, 0, [1], [1])
    t0 = OperatorPoly.graded(4, 2, 1, 0, [1], [-1])
    with pytest.raises(BezoutError):
        bezout(s0, t0)


def test_bezout_weight_zero_obstruction():
    # at weight zero the leading factor is a pure F multiple and no pair
    # exists against a factor with nonzero E part: the quotient of R by F
    # is a polynomial ring in E where the second factor stays proper
    factors = closed_factors(6, 1, 2)
    assert operator_weight(6, 1, 2) == 0
    assert factors[0].monomials() == {"F": RatJ(-4)}
    with pytest.raises(BezoutError):
        bezout(factors[0], factors[1])
    r = verify_bezout_pairs(6, 1, 2)
    assert r.passed and r.witness["obstructed_at_w0"] == ["(1,2)"]


def test_bezout_pairs_fail_on_an_unexpected_obstruction(monkeypatch):
    import formlap.verify as verify

    # w = 1: every pair must solve; a solver that raises on the second
    # pair, (1, 3), fails the theorem there
    assert operator_weight(8, 2, 3) != 0
    real, calls = verify.bezout, []

    def raising_once(s, t):
        calls.append((s, t))
        if len(calls) == 2:
            raise BezoutError("mutated solver")
        return real(s, t)

    monkeypatch.setattr(verify, "bezout", raising_once)
    r = verify_bezout_pairs(8, 2, 3)
    assert not r.passed
    assert r.witness == {"pair": [1, 3], "reason": "mutated solver"}


def test_bezout_pairs_fail_when_a_weight_zero_obstruction_solves(monkeypatch):
    import formlap.verify as verify

    # w = 0 with four factors: (1, 2), (1, 3) and (1, 4) must raise; a
    # solver that returns a pair for (1, 3) fails the theorem there
    assert operator_weight(10, 1, 4) == 0
    factors = closed_factors(10, 1, 4)
    real = verify.bezout

    def solving_one(s, t):
        if (s, t) == (factors[0], factors[2]):
            return s, t
        return real(s, t)

    monkeypatch.setattr(verify, "bezout", solving_one)
    r = verify_bezout_pairs(10, 1, 4)
    assert not r.passed
    assert r.witness == {"pair": [1, 3], "reason": "solver succeeded where obstruction predicted"}


def test_bezout_sweep_samples():
    for (n, k, ell) in [(4, 2, 2), (8, 2, 3), (5, 1, 3), (6, 2, 4)]:
        r = verify_bezout_pairs(n, k, ell)
        assert r.passed, (n, k, ell, r.witness)
        assert r.witness["pairs_solved"] >= 1


def test_kernel_decomposition_example():
    model = SpectralModel(4, 2, Fraction(1), (
        SpectralPoint("harmonic", Fraction(0), 3),
        SpectralPoint("coexact", Fraction(1), 5),
        SpectralPoint("exact", Fraction(1), 7)))
    r = verify_kernel_decomposition(4, 2, 2, model)
    assert r.passed
    assert r.witness["dim_null_L"] == 15
    assert sum(r.witness["factor_dims"]) == 15


def test_kernel_constant_obstructs_harmonics():
    # a factor with nonzero constant contributes nothing on harmonic points
    op = OperatorPoly.graded(6, 2, 1, 2, [1], [1])
    assert op.on_eigenspace("harmonic", Fraction(1), Fraction(0)) != 0


def test_kernel_rejects_j_zero_model():
    model = SpectralModel(4, 2, Fraction(0), (SpectralPoint("harmonic", Fraction(0), 1),))
    r = verify_kernel_decomposition(4, 2, 2, model)
    assert not r.passed


def test_kernel_rejects_a_model_of_another_n_k():
    # the operator kills no point of another degree's model: dim_null_L 0 would pass vacuously
    r = verify_kernel_decomposition(3, 1, 2, synthetic_model(5, 2, 2, Fraction(1)))
    assert not r.passed
    assert "(5, 2)" in r.witness["reason"] and "(3, 1)" in r.witness["reason"]


def test_lambda_bar_distinctness():
    # the exact-side kernel eigenvalues are pairwise distinct across the
    # factor index: i + j = 2 ell + 1 has no solution with i, j <= ell
    for (n, k, ell) in [(6, 2, 4), (9, 3, 6), (12, 5, 6), (5, 1, 5)]:
        w = operator_weight(n, k, ell)
        lam_bar = [Fraction(2, n) * (w - i) * (w - i + n - 2 * k + 1) for i in range(1, ell + 1)]
        lam_til = [Fraction(2, n) * (w - i + 1) * (w - i + n - 2 * k) for i in range(1, ell + 1)]
        assert len(set(lam_bar)) == ell
        assert len(set(lam_til)) == ell


def test_synthetic_models_pass():
    for (n, k, ell) in [(5, 1, 2), (6, 1, 3), (6, 2, 2), (8, 2, 2), (12, 4, 6)]:
        model = synthetic_model(n, k, ell, Fraction(1))
        r = verify_kernel_decomposition(n, k, ell, model)
        assert r.passed, (n, k, ell, r.witness)


def test_kernel_decomposition_evaluates_each_operator_once_per_point(monkeypatch):
    real, calls = OperatorPoly.on_eigenspace, []

    def counting(op, kind, j_value, lam):
        calls.append((kind, lam))
        return real(op, kind, j_value, lam)

    # on the class: every caller, spectral helpers such as kernel_dim too
    monkeypatch.setattr(OperatorPoly, "on_eigenspace", counting)
    # the model is read from the factors' kernel contents, not evaluated
    model = synthetic_model(6, 2, 3, Fraction(1))
    assert calls == []
    assert verify_kernel_decomposition(6, 2, 3, model).passed
    factors = closed_factors(6, 2, 3)
    assert len(calls) == (len(factors) + 1) * len(model.points) == 32


def test_kernel_decomposition_reports_coincidences():
    # at w = 0 the leading factor -(n-2k) F kills every exact point, so an
    # exact point in the second factor's kernel is killed twice
    assert operator_weight(6, 1, 2) == 0
    model = SpectralModel(6, 1, Fraction(-1), (SpectralPoint("exact", Fraction(2), 3),))
    r = verify_kernel_decomposition(6, 1, 2, model)
    assert not r.passed
    assert r.witness == {"dim_null_L": 3, "factor_dims": [3, 3],
                         "coincidences": [{"point": ["exact", "2"], "factors": [1, 2]}]}


def test_kernel_decomposition_reports_content_mismatch(monkeypatch):
    # an engine L that lost the last factor: it no longer kills that
    # factor's kernel point, which the factor and the case table still do
    import formlap.verify as verify

    full = closed_factors(5, 1, 2)
    [(kind, lam)] = [c for c in factor_kernel_content(full[-1], Fraction(1))
                     if c[0] == "exact"]
    monkeypatch.setattr(verify, "build_L_definition", lambda n, k, ell: full[0])
    model = SpectralModel(5, 1, Fraction(1), (SpectralPoint(kind, lam, 2),))
    r = verify_kernel_decomposition(5, 1, 2, model)
    assert not r.passed
    assert r.witness == {"dim_null_L": 0, "factor_dims": [0, 2],
                         "content_mismatch": [{"point": [kind, str(lam)], "in_kernel": False,
                                               "predicted": True}]}


def test_kernel_decomposition_fails_on_a_wrong_engine_operator(monkeypatch):
    # L must come from the definition engine: an engine that returns the
    # order ell-1 operator fails the theorem on the synthetic models
    import formlap.verify as verify

    real = verify.build_L_definition
    monkeypatch.setattr(verify, "build_L_definition", lambda n, k, ell: real(n, k, ell - 1))
    for (n, k, ell) in [(5, 1, 2), (6, 1, 3), (6, 2, 2), (8, 2, 2), (12, 4, 6)]:
        model = synthetic_model(n, k, ell, Fraction(1))
        r = verify_kernel_decomposition(n, k, ell, model)
        assert not r.passed and "coincidences" not in r.witness, (n, k, ell, r.witness)


def test_predicted_content_cases():
    # top degree: harmonic plus ell-1 eigenvalue pairs
    content = predicted_kernel_content(4, 2, 2, Fraction(1))
    assert ("harmonic", None) in content
    assert ("exact", Fraction(1)) in content and ("coexact", Fraction(1)) in content
    # weight zero: the whole closed-plus-harmonic part
    content0 = predicted_kernel_content(6, 1, 2, Fraction(1))
    assert ("exact", None) in content0 and ("harmonic", None) in content0
    # positive weight: the degenerate pair contributes -mu on the exact side
    w = operator_weight(6, 2, 2)
    assert w == 1
    mu = Fraction(4, 6) * (3 - 2) * 1
    content1 = predicted_kernel_content(6, 2, 2, Fraction(1))
    assert ("exact", -mu) in content1 and ("coexact", mu) in content1


@pytest.mark.parametrize("j_value", [Fraction(1), Fraction(-2, 3)], ids=str)
def test_predicted_content_is_the_union_of_factor_contents(j_value):
    # the case table against the factors it summarises, past the default
    # grid: n = 3..20, ell <= 10, 990 cells per J
    cells = list(default_grid(range(3, 21), 10))
    assert len(cells) == 990
    for n, k, ell in cells:
        union = set().union(*(factor_kernel_content(f, j_value) for f in closed_factors(n, k, ell)))
        assert predicted_kernel_content(n, k, ell, j_value) == union, (n, k, ell)


# the checks of one sweep on n = 4..5, ell <= 2: 8 cells, MMstar and
# bezout only at ell = 2
SWEEP_CHECKS = {"verify_factorization": 8, "verify_MMstar": 4, "verify_LG": 8,
                "verify_bezout_pairs": 4, "verify_kernel_decomposition": 8}


@pytest.mark.parametrize("name", sorted(SWEEP_CHECKS))
def test_sweep_runs_the_patched_check(monkeypatch, name):
    # the table looks each check up when it runs: the benchmark's tracer
    # and mutants replace these module attributes
    monkeypatch.setattr(verify, name,
                        lambda *args: verify.VerificationReport(name, {}, "fail", "stub"))
    reports = verify.run_sweep(list(verify.THEOREMS), range(4, 6), ell_max=2)
    failed = [r for r in reports if not r.passed]
    assert len(failed) == SWEEP_CHECKS[name]
    assert {(r.theorem, r.witness) for r in failed} == {(name, "stub")}


def test_sweep_builds_models_through_the_patched_name(monkeypatch):
    calls = []
    real = verify.synthetic_model
    monkeypatch.setattr(verify, "synthetic_model", lambda *args: calls.append(args) or real(*args))
    assert all(r.passed for r in verify.run_sweep(["kernel"], range(4, 5), 2, Fraction(3)))
    assert calls == [(4, k, ell, Fraction(3)) for k in (1, 2) for ell in (1, 2)]


def test_sweep_rejects_j_zero_for_the_kernel_before_any_check(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "verify_factorization", lambda *args: ran.append(args))
    with pytest.raises(UsageError, match="Ricci flat"):
        verify.run_sweep(list(verify.THEOREMS), j_value=Fraction(0))
    assert ran == []
