import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlap.coeffring import CoefficientError
from formlap.factory import build_L_definition, default_grid
from formlap.forms import InternalConsistencyError, OperatorPoly, UsageError
from formlap.spectral import (SpectralModel, SpectralPoint, kernel_dim,
                              sphere_preset, synthetic_model, torus_preset)
from strategies import graded, operators
from weyl_reference import casimir, harmonic_polynomials, weyl_dimension


def pt(kind, lam, mult=1):
    return SpectralPoint(kind, Fraction(lam), mult)


def test_on_eigenspace_examples():
    op = graded(4, 2, 1, -2, [2], [2])
    assert op.on_eigenspace("coexact", Fraction(1), Fraction(1)) == 0
    assert graded(4, 2, 1, 0, [1], [-1]).on_eigenspace(
        "harmonic", Fraction(1), Fraction(0)) == 0
    e2 = graded(4, 2, 2, 0, [0, 1], [])
    assert e2.on_eigenspace("exact", Fraction(1), Fraction(3)) == 9


def test_on_eigenspace_pole():
    op = OperatorPoly(4, 2, -1, 1)  # 1/J
    with pytest.raises(CoefficientError):
        op.on_eigenspace("exact", Fraction(0), Fraction(1))
    with pytest.raises(CoefficientError):
        op.kills("exact", Fraction(0), Fraction(1))


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
def test_on_eigenspace_matches_direct_power_sums(op, j, lam):
    # on an exact point the operator acts as const J^m + sum e_p J^(m-p) lam^p,
    # on a coexact one as const J^m + sum f_q J^(m-q) lam^q, on a harmonic
    # one as const J^m
    m = op.order
    const, e, f = _coeffs(op)
    for kind, side in (("harmonic", ()), ("exact", e), ("coexact", f)):
        terms = [(const, m, 0), *((x, m - p, p) for p, x in enumerate(side, start=1))]
        point_lam = Fraction(0) if kind == "harmonic" else lam
        try:
            expected = _power_sum(terms, j, lam)
        except ZeroDivisionError:
            with pytest.raises(CoefficientError):
                op.on_eigenspace(kind, j, point_lam)
            continue
        assert op.on_eigenspace(kind, j, point_lam) == expected


@given(operators(), j_values, eigenvalues)
@settings(max_examples=150)
def test_on_eigenspace_reads_only_its_side(op, j, lam):
    # the one-sided scalar is that of an operator that keeps only the
    # constant and the side the kind uses; at J = 0 a nonzero coefficient
    # of negative J power on that side is a pole, and the other side is
    # never read
    const, e_all, f_all = _coeffs(op)
    kept = {"exact": (e_all, ()), "coexact": ((), f_all), "harmonic": ((), ())}
    for kind, (e, f) in kept.items():
        side = graded(op.n, op.k, op.order, const, list(e), list(f))
        read = (const, *e, *f)
        powers = (op.order, *(op.order - p for p in range(1, len(e + f) + 1)))
        if j == 0 and any(c and m < 0 for c, m in zip(read, powers)):
            with pytest.raises(CoefficientError):
                op.on_eigenspace(kind, j, lam)
            with pytest.raises(CoefficientError):
                side.on_eigenspace(kind, j, lam)
            continue
        expected = sum(x * j ** m * lam ** p for p, (x, m) in enumerate(zip(read, powers)) if x)
        # a harmonic point's eigenvalue is 0, and the scalar ignores lam there
        point_lam = Fraction(0) if kind == "harmonic" else lam
        assert (op.on_eigenspace(kind, j, lam) == op.on_eigenspace(kind, j, point_lam)
                == side.on_eigenspace(kind, j, lam) == expected)


@given(operators(), j_values, eigenvalues)
@settings(max_examples=150)
def test_kills_reads_whether_on_eigenspace_vanishes(op, j, lam):
    # one reducer, two reads: the zero test agrees with the scalar, and at
    # J = 0 both raise on the same poles
    for kind in ("exact", "coexact", "harmonic"):
        try:
            value = op.on_eigenspace(kind, j, lam)
        except CoefficientError:
            with pytest.raises(CoefficientError):
                op.kills(kind, j, lam)
            continue
        assert op.kills(kind, j, lam) is (value == 0)


def test_on_eigenspace_rejects_unknown_kind():
    with pytest.raises(InternalConsistencyError):
        graded(4, 2, 1, 0, [1], [1]).on_eigenspace("closed", Fraction(1), Fraction(1))


def test_kernel_dim_examples():
    op = graded(4, 2, 1, -2, [2], [2])
    model = SpectralModel(4, 2, Fraction(1), (pt("coexact", 1, 5),))
    assert kernel_dim(op, model) == 5
    assert kernel_dim(graded(4, 2, 1, 0, [1], [-1]),
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
    p = graded(6, 2, 1, c, [a], [b])
    # q = J^2 + b J E + a J F + F^2, of order 2
    q = graded(6, 2, 2, 1, [b], [a, 1])
    prod = p * q
    for point in points:
        p_at, q_at, prod_at = (op.on_eigenspace(point.kind, Fraction(2), point.eigenvalue)
                               for op in (p, q, prod))
        assert prod_at == p_at * q_at


@given(st.lists(point_strategy, max_size=6))
@settings(max_examples=40)
def test_kernel_dim_subadditive(points):
    model = SpectralModel(6, 2, Fraction(1), tuple(points))
    p = graded(6, 2, 1, -1, [1], [1])
    q = graded(6, 2, 1, -4, [1], [2])
    assert kernel_dim(p * q, model) <= kernel_dim(p, model) + kernel_dim(q, model)


def test_kernel_dim_additive_when_distinct():
    # factor kernel eigenvalues pairwise distinct per kind: equality holds
    p = graded(6, 2, 1, -1, [1], [1])
    q = graded(6, 2, 1, -4, [1], [2])
    model = SpectralModel(6, 2, Fraction(1), (
        pt("exact", 1, 2), pt("coexact", 1, 3), pt("exact", 4, 5), pt("coexact", 2, 7),
        pt("exact", 9, 1), pt("coexact", 5, 1)))
    assert kernel_dim(p * q, model) == kernel_dim(p, model) + kernel_dim(q, model) == 17


def test_model_json_round_trip(tmp_path):
    model = SpectralModel(3, 1, Fraction(3, 2), (
        pt("harmonic", 0, 1), pt("exact", 3, 4), pt("coexact", 4, 6)), "synthetic")
    path = tmp_path / "model.json"
    model.save(path)
    loaded = SpectralModel.load(path)
    assert loaded == model
    data = path.read_text()
    assert '"3/2"' in data and '"schema": 1' in data and "trusted" not in data
    # files written with the former "trusted" flag still load
    assert SpectralModel.from_json({**model.as_json(), "trusted": False}) == model


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


def test_sphere_preset_errors():
    for n, k in ((3, 4), (3, -1), (1, 0), (0, 0)):
        with pytest.raises(UsageError, match="needs n >= 2 and 0 <= k <= n"):
            sphere_preset(n, k, 2)


# sha256 of the JSON list of sphere_preset(3, k, 8).as_json() over k = 0..3:
# the S^3 models that the simplicial oracle compares with and promotes from
SPHERE_S3_PRESETS_SHA256 = "9a263dc5cc2c59d3ec23b3a658ccf9e1ff762af6ebc76fda6b0c3a52c697af2a"


def test_sphere_presets_on_s3_are_pinned():
    models = [sphere_preset(3, k, 8).as_json() for k in range(4)]
    digest = hashlib.sha256(json.dumps(models, sort_keys=True).encode()).hexdigest()
    assert digest == SPHERE_S3_PRESETS_SHA256


def _levels(model, kind):
    """{level j: point} for the points of one kind, which come lowest level first."""
    return dict(enumerate((p for p in model.points if p.kind == kind), start=1))


def test_sphere_preset_matches_representation_theory():
    # multiplicities are Weyl dimensions of SO(n+1), eigenvalues Casimirs;
    # exact k-forms are d of the coexact (k-1)-forms, and the Hodge star
    # maps coexact k-forms onto coexact (n-1-k)-forms
    for n in range(2, 13):
        models = [sphere_preset(n, k, 11) for k in range(n + 1)]
        for k, model in enumerate(models):
            assert model.j_value == Fraction(n, 2)
            harmonic = [p.multiplicity for p in model.points if p.kind == "harmonic"]
            assert harmonic == ([1] if k in (0, n) else [])
            coexact, exact = _levels(model, "coexact"), _levels(model, "exact")
            assert len(coexact) == (11 if k < n else 0) and len(exact) == (11 if k else 0)
            for j, p in coexact.items():
                assert p.multiplicity == weyl_dimension(n, k, j)
                assert p.eigenvalue == casimir(n, k, j)
                mirror = _levels(models[n - 1 - k], "coexact")[j]
                assert p.multiplicity == mirror.multiplicity
                if k == 0:
                    assert p.multiplicity == harmonic_polynomials(n, j)
            for j, p in exact.items():
                below = _levels(models[k - 1], "coexact")[j]
                assert (p.eigenvalue, p.multiplicity) == (below.eigenvalue, below.multiplicity)


def test_sphere_preset_s4_literals():
    functions = {(p.kind, p.eigenvalue): p.multiplicity for p in sphere_preset(4, 0, 2).points}
    assert functions == {("harmonic", 0): 1, ("coexact", 4): 5, ("coexact", 10): 14}
    one_forms = {(p.kind, p.eigenvalue): p.multiplicity for p in sphere_preset(4, 1, 2).points}
    assert one_forms == {("exact", 4): 5, ("exact", 10): 14,
                         ("coexact", 6): 10, ("coexact", 12): 35}


def _branson_cells(j_value=None, swap=False):
    """Whether L is Branson's intertwinor on each cell of the default grid, at J = n/2.

    Per (n, k, ell) and kind: on the level-j points of that kind of
    sphere_preset(n, k, 11), with B = j + (n-1)/2, L from the definition
    engine must act as one constant times prod_i (B^2 - (ell-i+1/2)^2),
    i = 1..ell, and vanish where the product does.  j_value replaces J,
    and swap evaluates L as if each point were of the other kind: the
    negative controls.  Returns {(n, k, ell, kind): (holds, constant or
    None, zeros of the product)}.
    """
    cells = {}
    for n, k, ell in default_grid():
        L = build_L_definition(n, k, ell)
        model = sphere_preset(n, k, 11)
        for kind in ("exact", "coexact"):
            read_as = {"exact": "coexact", "coexact": "exact"}[kind] if swap else kind
            holds, constants, zeros = True, set(), 0
            for j, p in _levels(model, kind).items():
                b = Fraction(2 * j + n - 1, 2)
                product = math.prod(b * b - Fraction(2 * (ell - i) + 1, 2) ** 2
                                    for i in range(1, ell + 1))
                value = L.on_eigenspace(read_as, model.j_value if j_value is None else j_value,
                                        p.eigenvalue)
                if product == 0:
                    zeros += 1
                    holds = holds and value == 0
                else:
                    constants.add(value / product)
            holds = holds and len(constants) == 1
            cells[n, k, ell, kind] = (holds, constants.pop() if holds else None, zeros)
    return cells


def test_sphere_spectrum_of_L_is_bransons():
    cells = _branson_cells()
    assert len(cells) == 420 and all(holds for holds, _, _ in cells.values())
    # L vanishes on every exact form at weight w = k + ell - n/2 = 0, so for even n only
    assert {cell for cell, (_, constant, _) in cells.items() if constant == 0} == {
        (n, k, ell, "exact") for n, k, ell in default_grid() if 2 * (k + ell) == n}
    assert sum(zeros for _, _, zeros in cells.values()) == 110


@pytest.mark.parametrize("control, failing", [({"j_value": Fraction(1)}, 390),
                                              ({"swap": True}, 345)],
                         ids=["J=1", "kinds-swapped"])
def test_bransons_spectrum_fails_its_negative_controls(control, failing):
    assert sum(not holds for holds, _, _ in _branson_cells(**control).values()) == failing


def test_torus_preset():
    m = torus_preset(3, 1, 2)
    assert m.j_value == 0
    have = {(p.kind, p.eigenvalue): p.multiplicity for p in m.points}
    assert have[("harmonic", Fraction(0))] == 3
    # |xi|^2 = 1 has 6 lattice modes; exact part C(2,0) = 1, coexact C(2,1) = 2 each
    assert have[("exact", Fraction(1))] == 6
    assert have[("coexact", Fraction(1))] == 12


# sha256 of the JSON list of torus_preset(n, k, N).as_json() over
# n = 3..5, k = 0..n, N in (0, 1, 2, 5), in that loop order
TORUS_PRESETS_SHA256 = "af085ca1aa9e9cf76f6a686a8d904e7c0488cc1a2c70a8ade4b7b2c7f7a1201a"


def test_torus_presets_are_pinned():
    models = [torus_preset(n, k, cutoff).as_json()
              for n in range(3, 6) for k in range(n + 1) for cutoff in (0, 1, 2, 5)]
    digest = hashlib.sha256(json.dumps(models, sort_keys=True).encode()).hexdigest()
    assert digest == TORUS_PRESETS_SHA256


def test_synthetic_model_deterministic():
    a = synthetic_model(6, 2, 3, Fraction(1))
    b = synthetic_model(6, 2, 3, Fraction(1))
    assert a == b


def test_harmonic_point_validation():
    with pytest.raises(UsageError):
        SpectralPoint("harmonic", Fraction(2), 1)
    with pytest.raises(UsageError):
        SpectralPoint("mystery", Fraction(0), 1)
