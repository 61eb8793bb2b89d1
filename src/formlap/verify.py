"""Machine checks of the operator identities, as exact statements in R.

Every check here is an exact-arithmetic comparison; there are no
tolerances anywhere in this module.  Failures carry a concrete
counterexample monomial with both sides' coefficients.

Two places deliberately deviate from the printed sources, both pinned by
the order-one closed form and recorded in the repository notes:

* the scalar relating the degree-lowering companion to the operator one
  degree down is 1/(n+w-2k+1); the printed (k-1)/(k(n+w-2k+1)) misses a
  factor k/(k-1) (checked symbolically on the whole grid here);
* at w = 0 the leading factor is the pure-F factor -(n-2k) F, and no
  relative-inverse pair exists against any factor with a nonzero E part:
  in R/(F) ~ Q(J)[E] the second factor generates a proper ideal.  Every
  other factor has one, so the sweep expects ``bezout`` to raise on
  exactly the pairs (1, j) at w = 0 and on none elsewhere, and fails on
  any other outcome instead of silently skipping the obstruction.
"""

from __future__ import annotations

import functools
import operator
import time
from fractions import Fraction
from typing import Any, Callable

from .coeffring import RatJ, ZERO
from .factory import (build_L_definition, build_tmodbox, closed_factors, closed_operator,
                      default_grid, operator_weight, run_pipeline)
from .forms import InternalConsistencyError, OperatorPoly, UsageError, proportionality
from .spectral import SpectralModel, synthetic_model


class BezoutError(ArithmeticError):
    """No relative-inverse pair exists for the given factor pair."""


class VerificationReport:
    __slots__ = ("theorem", "params", "status", "witness", "seconds")

    def __init__(self, theorem: str, params: dict[str, Any], status: str, witness: Any = None) -> None:
        self.theorem = theorem
        self.params = params
        self.status = status  # "pass" | "fail"
        self.witness = witness
        self.seconds = 0.0  # wall time, set by run_sweep; not in as_json

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_json(self) -> dict[str, Any]:
        return {"theorem": self.theorem, "params": self.params,
                "status": self.status, "witness": self.witness}


def _diff_witness(lhs: dict[str, RatJ], rhs: dict[str, RatJ],
                  render: Callable[[str], str] = str) -> dict[str, str]:
    """First differing key of two monomial maps."""
    for key in sorted(set(lhs) | set(rhs)):
        ca, cb = lhs.get(key, ZERO), rhs.get(key, ZERO)
        if ca != cb:
            return {"monomial": render(key), "lhs": str(ca), "rhs": str(cb)}
    raise InternalConsistencyError("no differing monomial between the sides of a failed check")


# -- factorization ----------------------------------------------------------


def verify_factorization(n: int, k: int, ell: int) -> VerificationReport:
    """Factored closed form against the definition engine: a nonzero rational multiple."""
    params = {"n": n, "k": k, "ell": ell}
    left = functools.reduce(operator.mul, closed_factors(n, k, ell))
    right = build_L_definition(n, k, ell)
    c = proportionality(left, right)
    if not c:
        witness = ({"constant": "0"} if c is not None
                   else _diff_witness(left.monomials(), right.monomials()))
        return VerificationReport("factorization", params, "fail", witness)
    return VerificationReport("factorization", params, "pass", {"constant": str(c)})


# -- order reduction --------------------------------------------------------


def verify_MMstar(n: int, k: int, ell: int, p: int) -> VerificationReport:
    """(1/k)(k+(ell-p)-n/2)(k-(ell-p)-n/2) L = (second-order reduction route).

    The right side composes the operator of order 2(ell-p), built at its
    own weight w-p, with the p-th reduction built at the operator weight;
    the equality is exact, scalars included.
    """
    params = {"n": n, "k": k, "ell": ell, "p": p}
    if not 1 <= p <= ell - 1:
        raise UsageError(f"p = {p} outside 1..ell-1 = 1..{ell - 1}")
    w = operator_weight(n, k, ell)
    m = ell - p
    scalar = Fraction((2 * (k + m) - n) * (2 * (k - m) - n), 4 * k)
    lhs = build_L_definition(n, k, ell).scale(scalar)
    rhs = build_L_definition(n, k, ell - p) * build_tmodbox(n, k, w, p)
    if lhs == rhs:
        return VerificationReport("MMstar", params, "pass", {"scalar": str(scalar)})
    return VerificationReport("MMstar", params, "fail",
                              _diff_witness(lhs.monomials(), rhs.monomials()))


# -- companion operator ------------------------------------------------------


def lg_second_scalar(n: int, k: int, ell: int) -> Fraction:
    """Engine-calibrated scalar of the second companion relation, 1/(n+w-2k+1).

    With w = k + ell - n/2 that is 2/(n - 2k + 2 ell + 2).
    """
    return Fraction(2, n - 2 * k + 2 * ell + 2)


def through_codifferential(q: OperatorPoly, k: int) -> OperatorPoly:
    """sigma(Q) on k-forms with Q (delta f) = delta (sigma(Q) f), for Q on (k-1)-forms.

    E^p delta = (d delta)^p delta vanishes for p >= 1 and F^q delta =
    (delta d)^q delta = delta E^q, so sigma keeps the constant, moves the
    F^q coefficients to E^q and drops the E terms.
    """
    return OperatorPoly.from_numerators(q.n, k, q.order, q.c_num, q.f_nums, (), q.den)


def _delta_witness(lhs: OperatorPoly, rhs: OperatorPoly) -> dict[str, str]:
    """First differing monomial of delta lhs and delta rhs."""
    return _diff_witness(lhs.monomials(), rhs.monomials(), lambda m: f"δ∘{m}")


def verify_LG(n: int, k: int, ell: int) -> VerificationReport:
    """Both companion relations, for the companion G = delta X.

    First: w G = -(codifferential) L on the generator; since delta F = 0,
    this is w X = -(the constant and E terms of L).
    Second (k >= 2): G equals 1/(n+w-2k+1) times the operator one degree
    down, built at generator weight w-1, applied after the codifferential;
    that is, X = sigma(lower) / (n+w-2k+1) (``through_codifferential``).
    """
    params = {"n": n, "k": k, "ell": ell}
    L, X = run_pipeline(n, k, ell)
    lhs1, rhs1 = X.scale(operator_weight(n, k, ell)), -L.e_part()
    witness: dict[str, Any] = {}
    if lhs1 != rhs1:
        witness["first"] = _delta_witness(lhs1, rhs1)
    if k >= 2:
        scalar = lg_second_scalar(n, k, ell)
        rhs2 = through_codifferential(build_L_definition(n, k - 1, ell), k).scale(scalar)
        if X != rhs2:
            witness["second"] = _delta_witness(X, rhs2)
    if witness:
        return VerificationReport("LG", params, "fail", witness)
    return VerificationReport("LG", params, "pass", {"second_scalar": str(scalar)} if k >= 2
                              else {"second": "skipped (k = 1)"})


# -- relative invertibility --------------------------------------------------


@functools.lru_cache(maxsize=1)
def _solved_pairs(n: int, k: int) -> dict[tuple, tuple[OperatorPoly, OperatorPoly]]:
    """The relative-inverse pairs of one (n, k) solved so far, keyed by both factors' fields."""
    return {}


def _fields(op: OperatorPoly) -> tuple:
    """The integer fields that fix an operator of a known (n, k)."""
    return op.order, op.c_num, op.e_nums, op.f_nums, op.den


def bezout(s: OperatorPoly, t: OperatorPoly) -> tuple[OperatorPoly, OperatorPoly]:
    """Operators (phi_s, phi_t), each a E + b F + c over Q(J), with
    phi_s s + phi_t t = 1 exactly in R.

    A pair is solved once per (n, k): one that solved and passed the ring
    check is kept for the current (n, k), one dict held as
    ``factory.box_chains`` holds its chains, and the cells of that (n, k)
    that share the pair read it back.  A pair that raises is solved again.
    A solver swapped in for ``bezout`` is still called on every pair.
    """
    if (s.n, s.k) != (t.n, t.k):
        raise InternalConsistencyError("factor pair from different contexts")
    solved = _solved_pairs(s.n, s.k)
    key = _fields(s), _fields(t)
    pair = solved.get(key)
    if pair is None:
        pair = solved[key] = _solve_bezout(s, t)
    return pair


def _solve_bezout(s: OperatorPoly, t: OperatorPoly) -> tuple[OperatorPoly, OperatorPoly]:
    """The relative-inverse pair of ``bezout``, solved in closed form and checked.

    The pair is weight-graded (phi_s has order -s.order and phi_t order
    -t.order), so it is found over Q on the coefficients of
    s = a1 E + b1 F + c1 and t = a2 E + b2 F + c2 and holds for every J.
    It is computed on the integer numerators: scaling s and t by their
    denominators scales phi_s and phi_t inversely.

    Since EF = 0, R embeds in Q[E] x Q[F] (an element goes to its E side,
    F -> 0, and its F side, E -> 0), and evaluating at a point of either
    axis, (E, F) = (e, 0) or (0, f), is a ring map R -> Q.  A pair exists
    exactly when all three of these hold:

    * (c1, c2) != 0;
    * r_E = a2 c1 - a1 c2 != 0, unless a1 = a2 = 0;
    * r_F = b2 c1 - b1 c2 != 0, unless b1 = b2 = 0.

    No pair when one fails: then s and t share a zero on an axis, namely
    E = F = 0 when c1 = c2 = 0; E = e, F = 0 when (c1, c2) = -e (a1, a2)
    is parallel to a nonzero (a1, a2); likewise on the F axis.  Every
    phi_s s + phi_t t vanishes there, so none is 1, whatever its degree.
    A pair when all hold: phi_s = x1 E + y1 F + z1, phi_t = x2 E + y2 F + z2
    with z = (c1, c2)/(c1^2 + c2^2), x = mu (a2, -a1), y = nu (b2, -b1),
    mu = -(a.z)/r_E and nu = -(b.z)/r_F (zero on a constant side).  It
    solves the five monomial equations: 1 because c.z = 1, E^2 and F^2
    because x is orthogonal to a and y to b, E and F by the choice of mu
    and nu.  The pair is still re-verified by ring multiplication.
    Identical factors raise BezoutError.
    """
    if s == t:
        raise BezoutError("identical factors admit no relative-inverse pair")
    a1, b1, c1 = _linear_numerators(s)
    a2, b2, c2 = _linear_numerators(t)
    norm = c1 * c1 + c2 * c2
    if not norm:
        raise BezoutError("no relative-inverse pair: both factors vanish at E = F = 0")

    def side(u1: int, u2: int, axis: str) -> tuple[int, int, int]:
        """mu (u2, -u1) as numerators over norm * r, with r = 1 on a constant side."""
        if not u1 and not u2:
            return 0, 0, 1
        r = u2 * c1 - u1 * c2
        if not r:
            raise BezoutError(f"no relative-inverse pair: common zero on the {axis} axis")
        dot = u1 * c1 + u2 * c2
        return -dot * u2, dot * u1, r

    x1, x2, r_e = side(a1, a2, "E")
    y1, y2, r_f = side(b1, b2, "F")
    # over norm r_E r_F: z = c r_E r_F, x = (x1, x2) r_F, y = (y1, y2) r_E.  This
    # pair serves the numerator factors s.den s and t.den t, so phi_s and
    # phi_t take the factors' denominators back as multipliers
    den = norm * r_e * r_f
    phi_s = OperatorPoly.from_numerators(s.n, s.k, -s.order, s.den * c1 * r_e * r_f,
                                         [s.den * x1 * r_f], [s.den * y1 * r_e], den)
    phi_t = OperatorPoly.from_numerators(s.n, s.k, -t.order, t.den * c2 * r_e * r_f,
                                         [t.den * x2 * r_f], [t.den * y2 * r_e], den)
    check = phi_s * s + phi_t * t
    if check != OperatorPoly(s.n, s.k, 0, 1):
        raise InternalConsistencyError(f"closed form returned a non-witness: {check.render()}")
    return phi_s, phi_t


def _linear_numerators(op: OperatorPoly) -> tuple[int, int, int]:
    """Numerators of the E, F and constant coefficients of a degree-one factor."""
    return op.e_nums[0] if op.e_nums else 0, op.f_nums[0] if op.f_nums else 0, op.c_num


def verify_bezout_pairs(n: int, k: int, ell: int) -> VerificationReport:
    """Relative-inverse pairs for every factor pair of one decomposition.

    ``bezout`` is called once per pair, and the pairs on which it raises
    must be exactly the expected ones: at w = 0 the pairs (1, j) of the
    pure-F leading factor with the others, whose E coefficients
    (1-i)(n-2k-i), i = 2..ell = (n-2k)/2, are nonzero; elsewhere none.
    Every other pair is solved and re-verified by ring multiplication.
    The obstructed pairs are reported in the witness.
    """
    params = {"n": n, "k": k, "ell": ell}
    factors = closed_factors(n, k, ell)
    raised: dict[tuple[int, int], str] = {}
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            try:
                bezout(factors[i], factors[j])
            except BezoutError as exc:
                raised[i + 1, j + 1] = str(exc)
    expected = ({(1, j) for j in range(2, len(factors) + 1)}
                if 2 * (k + ell) == n else set())  # w = 0
    wrong = min(set(raised) ^ expected, default=None)
    if wrong is not None:
        reason = raised.get(wrong, "solver succeeded where obstruction predicted")
        return VerificationReport("bezout", params, "fail", {"pair": list(wrong), "reason": reason})
    witness: dict[str, Any] = {"pairs_solved": len(factors) * (len(factors) - 1) // 2 - len(raised)}
    if raised:
        witness["obstructed_at_w0"] = [f"({i},{j})" for i, j in raised]
    return VerificationReport("bezout", params, "pass", witness)


# -- kernel decomposition ----------------------------------------------------


def verify_kernel_decomposition(n: int, k: int, ell: int, model: SpectralModel) -> VerificationReport:
    """Null-space dimension additivity and eigenvalue content on a model.

    L is the definition engine's operator, not the product of the closed
    factors, so the check ties the two together.  Checks (1) dim N(L)
    equals the sum of the factor kernel dimensions, (2) L kills exactly
    the model points that the closed-form L of the two root lists
    (``closed_operator``) kills, and (3) reports any point killed by two
    different factors (a spectral coincidence; additivity is then not
    expected and the report fails with that witness).  Each operator is
    read only through ``kills``; where the closed L equals the engine's
    L in R the two kill the same points, so the closed L is read only on
    a cell where they differ, and each point where their reads differ is
    a content mismatch.
    """
    params = {"n": n, "k": k, "ell": ell, "model": model.source}
    if model.j_value == 0:
        return VerificationReport("kernel-decomposition", params, "fail",
                                  {"reason": "J = 0 model outside the decomposition hypotheses"})
    if (model.n, model.k) != (n, k):
        return VerificationReport("kernel-decomposition", params, "fail",
                                  {"reason": f"model for (n, k) = ({model.n}, {model.k}), "
                                             f"operator at ({n}, {k})"})
    ops = (build_L_definition(n, k, ell), *closed_factors(n, k, ell))
    # zeros[i][0]: L kills point i; zeros[i][f]: factor f (1-based) kills it
    zeros = [[op.kills(pt.kind, model.j_value, pt.eigenvalue) for op in ops]
             for pt in model.points]
    dim_l, *dims = (sum(pt.multiplicity for pt, row in zip(model.points, zeros) if row[col])
                    for col in range(len(ops)))
    closed = closed_operator(n, k, ell)
    same = closed == ops[0]  # then the two kill the same points
    coincidences = []
    mismatch = []
    for pt, (in_kernel, *killed) in zip(model.points, zeros):
        killers = [f for f, z in enumerate(killed, start=1) if z]
        if len(killers) > 1:
            coincidences.append({"point": [pt.kind, str(pt.eigenvalue)], "factors": killers})
        if not same and in_kernel != (pred := closed.kills(pt.kind, model.j_value, pt.eigenvalue)):
            mismatch.append({"point": [pt.kind, str(pt.eigenvalue)], "in_kernel": in_kernel,
                             "predicted": pred})
    ok = dim_l == sum(dims) and not coincidences and not mismatch
    witness: dict[str, Any] = {"dim_null_L": dim_l, "factor_dims": dims}
    if coincidences:
        witness["coincidences"] = coincidences
    if mismatch:
        witness["content_mismatch"] = mismatch
    return VerificationReport("kernel-decomposition", params, "pass" if ok else "fail", witness)


# -- sweeps -------------------------------------------------------------------


# The sweep's J: models are built at J = 1, which stands for every J != 0.
# L is weight-homogeneous, so its scalar on (kind, J lam) at J is J^ell
# times that on (kind, lam) at 1, and the roots scale alike.
SWEEP_J = Fraction(1)

# The theorem table: each selectable name, in the order a grid cell runs
# its checks, gives the checks of one cell (n, k, ell), each a call
# returning one report.  A check names verify_* and synthetic_model when
# it runs, so a patched module attribute (the benchmark's tracer, a
# mutant) is the one called.
THEOREMS: dict[str, Callable[[int, int, int], list[Callable[[], VerificationReport]]]] = {
    "factorization": lambda n, k, ell: [lambda: verify_factorization(n, k, ell)],
    "MMstar": lambda n, k, ell: [lambda p=p: verify_MMstar(n, k, ell, p) for p in range(1, ell)],
    "LG": lambda n, k, ell: [lambda: verify_LG(n, k, ell)],
    "bezout": lambda n, k, ell: [lambda: verify_bezout_pairs(n, k, ell)] if ell >= 2 else [],
    "kernel": lambda n, k, ell: [lambda: verify_kernel_decomposition(
        n, k, ell, synthetic_model(n, k, ell, SWEEP_J))],
}


def run_sweep(theorems: list[str], n_range=range(3, 13), ell_max: int = 6) -> list[VerificationReport]:
    """The checks of the selected ``THEOREMS`` entries, cell by cell in table order.

    Each report carries its check's wall seconds; a kernel check's include
    building its synthetic model.  A name that is not a key of the table
    raises UsageError before any check runs.
    """
    unknown = [name for name in theorems if name not in THEOREMS]
    if unknown:
        raise UsageError(f"unknown theorem {unknown[0]!r}: the theorems are {', '.join(THEOREMS)}")
    reports: list[VerificationReport] = []
    for n, k, ell in default_grid(n_range, ell_max):
        for check in [check for name, cell in THEOREMS.items() if name in theorems
                      for check in cell(n, k, ell)]:
            start = time.perf_counter()
            report = check()
            report.seconds = time.perf_counter() - start
            reports.append(report)
    return reports
