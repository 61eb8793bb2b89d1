from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap.coeffring import CoefficientError
from formlap.forms import FormAlgebraError, OperatorPoly
from formlap.spectral import (SpectralDataError, SpectralModel, SpectralPoint, eval_scalar,
                              kernel_dim, sphere_preset, synthetic_model, torus_preset)
from strategies import operators


def pt(kind, lam, mult=1):
    return SpectralPoint(kind, Fraction(lam), mult)


def test_eval_scalar_examples():
    op = OperatorPoly.graded(4, 2, 1, -2, [2], [2])
    assert eval_scalar(op, pt("coexact", 1), Fraction(1)) == 0
    assert eval_scalar(OperatorPoly.graded(4, 2, 1, 0, [1], [-1]), pt("harmonic", 0),
                       Fraction(1)) == 0
    e2 = OperatorPoly.graded(4, 2, 2, 0, [0, 1], [])
    assert eval_scalar(e2, pt("exact", 3), Fraction(1)) == 9


def test_eval_scalar_pole():
    op = OperatorPoly(4, 2, -1, 1)  # 1/J
    with pytest.raises(Exception):
        eval_scalar(op, pt("exact", 1), Fraction(0))


# J off 1, zero included, and eigenvalues of either sign with non-unit
# denominators: the reducer takes both apart into numerators and denominators
j_values = st.sampled_from([Fraction(-3), Fraction(-2, 3), Fraction(-1, 2), Fraction(0),
                            Fraction(1, 3), Fraction(3)])
eigenvalues = st.fractions(min_value=-10, max_value=10, max_denominator=5)


def _coeffs(op):
    """The rational coefficients of 1, of E, E^2, ... and of F, F^2, ..., read from monomials()."""
    mono = {name: c.c for name, c in op.monomials().items()}

    def side(letter, top):
        return tuple(mono.get(letter if p == 1 else f"{letter}^{p}", Fraction(0))
                     for p in range(1, top + 1))

    return mono.get("1", Fraction(0)), side("E", len(op.e_nums)), side("F", len(op.f_nums))


def _power_sum(terms, j, lam):
    """sum x J^m lam^p over the nonzero (x, m, p); ZeroDivisionError at a pole J = 0."""
    return sum((x * j ** m * lam ** p for x, m, p in terms if x), Fraction(0))


@given(operators(), j_values, eigenvalues)
@settings(max_examples=80)
def test_at_matches_direct_power_sums(op, j, lam):
    # op.at reduces E^p to lam^(p-1) E: on an exact point it acts as
    # const J^m + sum e_p J^(m-p) lam^p, on a coexact one as
    # const J^m + sum f_q J^(m-q) lam^q, on a harmonic one as const J^m
    m = op.order
    sums = {}
    const, e, f = _coeffs(op)
    for kind, side in (("harmonic", ()), ("exact", e), ("coexact", f)):
        terms = [(const, m, 0), *((x, m - p, p) for p, x in enumerate(side, start=1))]
        try:
            sums[kind] = _power_sum(terms, j, lam)
        except ZeroDivisionError:
            point = SpectralPoint(kind, Fraction(0) if kind == "harmonic" else lam, 1)
            with pytest.raises(CoefficientError):
                eval_scalar(op, point, j)
    if len(sums) < 3:
        with pytest.raises(CoefficientError):
            op.at(j, lam)
        return
    a, b, c = op.at(j, lam)
    base, exact, coexact = sums["harmonic"], sums["exact"], sums["coexact"]
    assert (a, a + b * lam, a + c * lam) == (base, exact, coexact)
    assert eval_scalar(op, pt("exact", lam), j) == exact
    assert eval_scalar(op, pt("coexact", lam), j) == coexact
    assert eval_scalar(op, pt("harmonic", 0), j) == base


@given(operators(), j_values, eigenvalues)
@settings(max_examples=150)
def test_on_eigenspace_matches_at(op, j, lam):
    # the one-sided scalar equals a, a + b lam or a + c lam from at, read
    # off an operator that keeps only the constant and the side the kind
    # uses; at J = 0 a nonzero coefficient of negative J power on that
    # side is a pole, and the other side is never read
    const, e_all, f_all = _coeffs(op)
    kept = {"exact": (e_all, ()), "coexact": ((), f_all), "harmonic": ((), ())}
    for kind, (e, f) in kept.items():
        side = OperatorPoly.graded(op.n, op.k, op.order, const, list(e), list(f))
        read = (const, *e, *f)
        powers = (op.order, *(op.order - p for p in range(1, len(e + f) + 1)))
        if j == 0 and any(c and m < 0 for c, m in zip(read, powers)):
            with pytest.raises(CoefficientError):
                op.on_eigenspace(kind, j, lam)
            with pytest.raises(CoefficientError):
                side.at(j, lam)
            continue
        a, b, c = side.at(j, lam)
        expected = {"exact": a + b * lam, "coexact": a + c * lam, "harmonic": a}[kind]
        assert expected == sum(x * j ** m * lam ** p
                               for p, (x, m) in enumerate(zip(read, powers)) if x)
        point = SpectralPoint(kind, Fraction(0) if kind == "harmonic" else lam, 1)
        assert op.on_eigenspace(kind, j, lam) == eval_scalar(op, point, j) == expected


def test_on_eigenspace_rejects_unknown_kind():
    with pytest.raises(FormAlgebraError):
        OperatorPoly.graded(4, 2, 1, 0, [1], [1]).on_eigenspace("closed", Fraction(1), Fraction(1))


def test_kernel_dim_examples():
    op = OperatorPoly.graded(4, 2, 1, -2, [2], [2])
    model = SpectralModel(4, 2, Fraction(1), (pt("coexact", 1, 5),))
    assert kernel_dim(op, model) == 5
    assert kernel_dim(OperatorPoly.graded(4, 2, 1, 0, [1], [-1]),
                      SpectralModel(4, 2, Fraction(1), (pt("harmonic", 0, 7),))) == 7
    assert kernel_dim(op, SpectralModel(4, 2, Fraction(1), ())) == 0


point_strategy = st.builds(
    pt,
    st.sampled_from(["exact", "coexact"]),
    st.fractions(min_value=Fraction(1, 3), max_value=8, max_denominator=4),
    st.integers(min_value=1, max_value=5),
)


@given(st.lists(point_strategy, max_size=6),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3),
       st.fractions(min_value=-2, max_value=2, max_denominator=3))
@settings(max_examples=60)
def test_eval_multiplicative_over_product(points, a, b, c):
    p = OperatorPoly.graded(6, 2, 1, c, [a], [b])
    # q = J^2 + b J E + a J F + F^2, of order 2
    q = OperatorPoly.graded(6, 2, 2, 1, [b], [a, 1])
    prod = p * q
    for point in points:
        lhs = eval_scalar(prod, point, Fraction(2))
        rhs = eval_scalar(p, point, Fraction(2)) * eval_scalar(q, point, Fraction(2))
        assert lhs == rhs


@given(st.lists(point_strategy, max_size=6))
@settings(max_examples=40)
def test_kernel_dim_subadditive(points):
    model = SpectralModel(6, 2, Fraction(1), tuple(points))
    p = OperatorPoly.graded(6, 2, 1, -1, [1], [1])
    q = OperatorPoly.graded(6, 2, 1, -4, [1], [2])
    assert kernel_dim(p * q, model) <= kernel_dim(p, model) + kernel_dim(q, model)


def test_kernel_dim_additive_when_distinct():
    # factor kernel eigenvalues pairwise distinct per kind: equality holds
    p = OperatorPoly.graded(6, 2, 1, -1, [1], [1])
    q = OperatorPoly.graded(6, 2, 1, -4, [1], [2])
    model = SpectralModel(6, 2, Fraction(1), (
        pt("exact", 1, 2), pt("coexact", 1, 3), pt("exact", 4, 5), pt("coexact", 2, 7),
        pt("exact", 9, 1), pt("coexact", 5, 1)))
    assert kernel_dim(p * q, model) == kernel_dim(p, model) + kernel_dim(q, model) == 17


def test_model_json_round_trip(tmp_path):
    model = SpectralModel(3, 1, Fraction(3, 2), (
        pt("harmonic", 0, 1), pt("exact", 3, 4), pt("coexact", 4, 6)), "synthetic", True)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = SpectralModel.load(path)
    assert loaded == model
    data = path.read_text()
    assert '"3/2"' in data and '"schema": 1' in data


def test_sphere_preset():
    m = sphere_preset(3, 1, 2)
    have = {(p.kind, p.eigenvalue): p.multiplicity for p in m.points}
    assert have[("exact", Fraction(3))] == 4
    assert have[("exact", Fraction(8))] == 9
    assert have[("coexact", Fraction(4))] == 6
    assert have[("coexact", Fraction(9))] == 16
    assert m.j_value == Fraction(3, 2)


def test_sphere_preset_function_case():
    m = sphere_preset(3, 0, 2)
    kinds = {p.kind for p in m.points}
    assert "exact" not in kinds
    assert ("harmonic" in kinds)
    m0 = sphere_preset(3, 0, 0)
    assert [p.kind for p in m0.points] == ["harmonic"]


def test_sphere_preset_errors(tmp_path):
    with pytest.raises(SpectralDataError):
        sphere_preset(4, 1, 2)
    missing = tmp_path / "absent.json"
    with pytest.raises(SpectralDataError):
        sphere_preset(3, 1, 2, data_path=missing)
    untrusted = tmp_path / "untrusted.json"
    untrusted.write_text('{"schema": 1, "trusted": false, "n": 3, "families": []}')
    with pytest.raises(SpectralDataError):
        sphere_preset(3, 1, 2, data_path=untrusted)


def test_torus_preset():
    m = torus_preset(3, 1, 2)
    assert m.j_value == 0
    have = {(p.kind, p.eigenvalue): p.multiplicity for p in m.points}
    assert have[("harmonic", Fraction(0))] == 3
    # |xi|^2 = 1 has 6 lattice modes; exact part C(2,0) = 1, coexact C(2,1) = 2 each
    assert have[("exact", Fraction(1))] == 6
    assert have[("coexact", Fraction(1))] == 12


def test_synthetic_model_deterministic():
    a = synthetic_model(6, 2, 3, Fraction(1))
    b = synthetic_model(6, 2, 3, Fraction(1))
    assert a == b


def test_harmonic_point_validation():
    with pytest.raises(SpectralDataError):
        SpectralPoint("harmonic", Fraction(2), 1)
    with pytest.raises(SpectralDataError):
        SpectralPoint("mystery", Fraction(0), 1)
