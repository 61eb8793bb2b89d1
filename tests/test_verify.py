from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap import verify
from formlap.coeffring import RatJ, ZERO
from formlap.factory import (build_L_definition, closed_factors, closed_operator, coexact_root,
                             default_grid, exact_root, operator_weight)
from formlap.forms import OperatorPoly, UsageError
from formlap.spectral import SpectralModel, SpectralPoint, synthetic_model
from formlap.verify import (BezoutError, bezout, lg_second_scalar, verify_LG,
                            verify_MMstar, verify_bezout_pairs, verify_factorization,
                            verify_kernel_decomposition)
from strategies import graded


def test_factorization_examples():
    r = verify_factorization(8, 2, 1)
    assert r.passed and r.witness == {"constant": "-2"}
    r = verify_factorization(5, 1, 2)
    assert r.passed and r.witness["constant"] not in ("0", None)
    r = verify_factorization(4, 2, 1)
    assert r.passed and r.witness == {"constant": "-1"}


def test_factorization_fails_on_a_product_of_the_wrong_order(monkeypatch):
    # every ring product raised one order: the factor product is then a power
    # of J times the definition, and a J power is no constant.  The ell = 1
    # cells form no product, so the other 175 of the 210 fail
    real_mul = OperatorPoly.__mul__
    monkeypatch.setattr(OperatorPoly, "__mul__",
                        lambda a, b: OperatorPoly.combine(((1, 1, real_mul(a, b)),)))
    reports = verify.run_sweep(["factorization"])
    failed = [r for r in reports if not r.passed]
    assert len(reports) == 210 and len(failed) == 175
    assert {r.params["ell"] for r in failed} == set(range(2, 7))


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
    s = graded(4, 2, 1, Fraction(1, 2), [1], [1])
    t = graded(4, 2, 1, 0, [1], [-1])
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
    s = graded(5, 2, order_s, c1, [a1], [b1])
    t = graded(5, 2, order_t, c2, [a2], [b2])
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
    s = graded(4, 2, 1, Fraction(1, 2), [1], [1])
    with pytest.raises(BezoutError):
        bezout(s, s)
    unit = OperatorPoly(4, 2, 1, 1)  # J
    with pytest.raises(BezoutError):
        bezout(unit, unit)  # identical factors raise, even a unit
    # specialising J to zero removes the constants and the system turns
    # inconsistent
    s0 = graded(4, 2, 1, 0, [1], [1])
    t0 = graded(4, 2, 1, 0, [1], [-1])
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


def test_bezout_solves_each_pair_once_per_n_k(monkeypatch):
    # 1,225 pairs over the default grid, 545 of them distinct within their
    # (n, k); the 20 obstructed pairs at w = 0 are among the 545
    solve, real = verify._solve_bezout, verify.bezout
    solves, calls = [], []
    monkeypatch.setattr(verify, "_solve_bezout", lambda s, t: solves.append((s, t)) or solve(s, t))
    monkeypatch.setattr(verify, "bezout", lambda s, t: calls.append((s, t)) or real(s, t))
    verify._solved_pairs.cache_clear()
    assert all(r.passed for r in verify.run_sweep(["bezout"]))
    assert (len(calls), len(solves)) == (1225, 545)


def test_bezout_keeps_only_solved_pairs_and_a_swapped_solver_sees_every_pair(monkeypatch):
    # w = 0 at (6, 1, 2): the one pair raises, and is solved again on every call
    solve, solves = verify._solve_bezout, []
    monkeypatch.setattr(verify, "_solve_bezout", lambda s, t: solves.append((s, t)) or solve(s, t))
    s, t = closed_factors(6, 1, 2)
    for _ in range(2):
        with pytest.raises(BezoutError):
            bezout(s, t)
    assert len(solves) == 2
    # after a cell has run for real, a solver that replaces bezout is still
    # called on each of its pairs: the memo lives inside bezout
    assert verify_bezout_pairs(8, 2, 3).passed
    factors = closed_factors(8, 2, 3)
    swapped = []
    monkeypatch.setattr(verify, "bezout", lambda s, t: swapped.append((s, t)) or (s, t))
    verify_bezout_pairs(8, 2, 3)
    assert swapped == [(factors[i], factors[j]) for i in range(3) for j in range(i + 1, 3)]


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
    op = graded(6, 2, 1, 2, [1], [1])
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
    real, reads, values = OperatorPoly.kills, [], []

    def counting(op, kind, j_value, lam):
        reads.append((kind, lam))
        return real(op, kind, j_value, lam)

    # on the class: every caller, spectral helpers such as kernel_dim too
    monkeypatch.setattr(OperatorPoly, "kills", counting)
    monkeypatch.setattr(OperatorPoly, "on_eigenspace", lambda *args: values.append(args))
    # the model asks the factors which of them kill each point it places
    model = synthetic_model(6, 2, 3, Fraction(1))
    reads.clear()
    assert verify_kernel_decomposition(6, 2, 3, model).passed
    factors = closed_factors(6, 2, 3)
    # one zero test per (operator, point), and no scalar is built
    assert len(reads) == (len(factors) + 1) * len(model.points) == 32
    assert values == []


def test_kills_is_the_zero_test_of_on_eigenspace_on_the_kernel_sweep():
    # every (operator, point) the default grid's kernel sweep reads: L and
    # each closed factor on each point of the cell's synthetic model
    pairs = zeros = 0
    for n, k, ell in default_grid():
        model = synthetic_model(n, k, ell, Fraction(1))
        for op in (build_L_definition(n, k, ell), *closed_factors(n, k, ell)):
            for pt in model.points:
                killed = op.kills(pt.kind, model.j_value, pt.eigenvalue)
                assert killed == (op.on_eigenspace(pt.kind, model.j_value, pt.eigenvalue) == 0)
                pairs += 1
                zeros += killed
    assert (pairs, zeros) == (10560, 2752)


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
    # factor's kernel point, which the factor and the closed L still do
    import formlap.verify as verify

    full = closed_factors(5, 1, 2)
    # the last factor pairs the roots m = 1: its exact root is lam_1
    kind, lam = "exact", Fraction(exact_root(5, 1, 1), 10)
    assert full[-1].kills(kind, Fraction(1), lam) and not full[0].kills(kind, Fraction(1), lam)
    assert closed_operator(5, 1, 2).kills(kind, Fraction(1), lam)
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
    # the closed L, the kernel theorem's prediction, on points of known content
    one = Fraction(1)
    # top degree: harmonic plus ell-1 eigenvalue pairs
    top = closed_operator(4, 2, 2)
    assert top.kills("harmonic", one, Fraction(0))
    assert top.kills("exact", one, one)
    assert top.kills("coexact", one, one)
    assert not top.kills("exact", one, Fraction(2))
    # weight zero: the whole closed-plus-harmonic part
    assert operator_weight(6, 1, 2) == 0
    w0 = closed_operator(6, 1, 2)
    assert all(w0.kills("exact", one, lam)
               for lam in (Fraction(0), Fraction(-5, 2), Fraction(7, 3), Fraction(12)))
    assert w0.kills("harmonic", one, Fraction(0))
    assert not w0.kills("coexact", one, Fraction(7, 3))
    # positive weight: the degenerate pair contributes -mu on the exact side
    w = operator_weight(6, 2, 2)
    assert w == 1
    mu = Fraction(4, 6) * (3 - 2) * 1
    pos = closed_operator(6, 2, 2)
    assert pos.kills("exact", one, -mu)
    assert pos.kills("coexact", one, mu)
    assert not pos.kills("exact", one, mu)
    # harmonic forms where some mu_m is 0: mu_1 = 0 at a = 1, none at (8, 2, 1)
    assert pos.kills("harmonic", one, Fraction(0))
    assert not closed_operator(8, 2, 1).kills("harmonic", one, Fraction(0))


def _root_list(n, k, ell, j_value):
    """The root-list eigenvalues of one cell at J: (kind, lam_m J) and (kind, mu_m J)."""
    return [(kind, Fraction(root(n, k, m), 2 * n) * j_value)
            for kind, root in (("exact", exact_root), ("coexact", coexact_root))
            for m in range(1, ell + 1)]


@pytest.mark.parametrize("j_value", [Fraction(1), Fraction(-2, 3)], ids=str)
def test_predicted_content_is_the_union_of_factor_contents(j_value):
    # the closed L against its factors, past the default grid: n = 3..20,
    # ell <= 10, 990 cells per J.  Every root-list eigenvalue is killed by
    # some factor; on the nonzero roots of every closed factor, the root-list
    # eigenvalues, the harmonic point and one point of each kind that is no
    # root, the closed L kills a point exactly where some factor kills it
    cells = list(default_grid(range(3, 21), 10))
    assert len(cells) == 990
    for n, k, ell in cells:
        closed, factors = closed_operator(n, k, ell), closed_factors(n, k, ell)
        roots = [(kind, Fraction(-f.c_num * j_value.numerator, j_value.denominator * side[0]))
                 for f in factors if f.c_num
                 for kind, side in (("exact", f.e_nums), ("coexact", f.f_nums)) if side]
        listed = _root_list(n, k, ell, j_value)
        assert all(any(f.kills(kind, j_value, lam) for f in factors) for kind, lam in listed)
        generic = j_value / (4 * n + 1)  # lam_m and mu_m are integers over 2n
        for kind, lam in [*roots, *listed, ("harmonic", Fraction(0)),
                          ("exact", generic), ("coexact", generic)]:
            assert (closed.kills(kind, j_value, lam)
                    == any(f.kills(kind, j_value, lam) for f in factors)), (n, k, ell, kind, lam)


def _kernel_failures(monkeypatch, **names):
    """The failed reports of the default kernel sweep with verify's names replaced."""
    for name, value in names.items():
        monkeypatch.setattr(verify, name, value)
    reports = verify.run_sweep(["kernel"])
    assert len(reports) == 210
    failed = [r for r in reports if not r.passed]
    assert all("content_mismatch" in r.witness for r in failed)
    return failed


def test_kernel_sweep_fails_without_the_weight_zero_clause(monkeypatch):
    # a closed L that forgets that its exact side vanishes identically at
    # a = ell, by an E^ell term there: 14 of the 15 weight-zero cells fail
    real = verify.closed_operator

    def closed(n, k, ell):
        L = real(n, k, ell)
        return L + graded(n, k, ell, 0, [0] * (ell - 1) + [1], []) if n - 2 * k == 2 * ell else L

    failed = _kernel_failures(monkeypatch, closed_operator=closed)
    assert len(failed) == 14
    assert all(operator_weight(*(r.params[x] for x in ("n", "k", "ell"))) == 0 for r in failed)


def test_kernel_sweep_fails_with_the_root_lists_swapped(monkeypatch):
    # a closed L whose exact and coexact sides trade places over the same constant
    real = verify.closed_operator

    def closed(n, k, ell):
        L = real(n, k, ell)
        return OperatorPoly(L.n, L.k, L.order, L.c_num, L.f_nums, L.e_nums, L.den)

    failed = _kernel_failures(monkeypatch, closed_operator=closed)
    assert len(failed) == 180


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
    assert all(r.passed for r in verify.run_sweep(["kernel"], range(4, 5), 2))
    assert calls == [(4, k, ell, Fraction(1)) for k in (1, 2) for ell in (1, 2)]


@pytest.mark.parametrize("j_value", [Fraction(-3), Fraction(-2, 3), Fraction(1, 3), Fraction(3)],
                         ids=str)
def test_j_one_stands_for_every_nonzero_j(j_value):
    # L^ell_k lowers weight by 2 ell and J has weight -2: on the default grid
    # L acts on (kind, J lam) at J as J^ell times on (kind, lam) at J = 1, and
    # the closed L, the kernel theorem's prediction, kills (kind, J lam) at J
    # exactly where it kills (kind, lam) at J = 1.  That is why the sweep
    # checks at J = 1 only.
    lams = [Fraction(0), Fraction(1), Fraction(-5, 2), Fraction(7, 3), Fraction(12)]
    for n, k, ell in default_grid(range(3, 13), 6):
        L, closed = build_L_definition(n, k, ell), closed_operator(n, k, ell)
        points = [("harmonic", Fraction(0))] + [(kind, lam) for kind in ("exact", "coexact")
                                                for lam in lams]
        points += _root_list(n, k, ell, Fraction(1))
        for kind, lam in points:
            assert (L.on_eigenspace(kind, j_value, j_value * lam)
                    == j_value ** ell * L.on_eigenspace(kind, Fraction(1), lam)), (n, k, ell, kind)
            assert (closed.kills(kind, j_value, j_value * lam)
                    == closed.kills(kind, Fraction(1), lam)), (n, k, ell, kind)


def test_kernel_theorem_holds_at_a_negative_non_integer_j():
    # the sweep's J = 1 kernel checks, rebuilt at J = -2/3 on the default
    # grid: a negative, non-integer J reaches every J power of the scalars
    j_value = Fraction(-2, 3)
    cells = list(default_grid(range(3, 13), 6))
    assert len(cells) == 210
    for n, k, ell in cells:
        r = verify_kernel_decomposition(n, k, ell, synthetic_model(n, k, ell, j_value))
        assert r.passed and r.params["model"] == "synthetic", (n, k, ell, r.witness)


def test_sweep_rejects_an_unknown_theorem_before_any_check(monkeypatch):
    # the kernel's table key is "kernel"; its reports say "kernel-decomposition"
    ran = []
    monkeypatch.setattr(verify, "verify_factorization", lambda *args: ran.append(args))
    with pytest.raises(UsageError, match="'kernel-decomposition'.*factorization, MMstar, LG, "
                                         "bezout, kernel"):
        verify.run_sweep(["kernel-decomposition"], range(4, 5), 1)
    with pytest.raises(UsageError, match="'kernel-decomposition'"):
        verify.run_sweep(["factorization", "kernel-decomposition"], range(4, 5), 1)
    assert ran == []
