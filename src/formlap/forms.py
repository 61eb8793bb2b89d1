"""Free weighted-form expressions in d and the codifferential, and the ring R.

Expressions are linear combinations, with rational coefficients, of
alternating words in the exterior derivative ``d`` and the
codifferential (written ``c`` inside word strings, rendered as a
lowercase delta) applied to one abstract generator form of fixed
degree k and conformal weight w.  Words are stored outermost letter
first, so the word "dc" is the composition d(delta(f)).  Repeated
letters are identically zero (d d = 0, delta delta = 0) and are never
stored; applying a letter that would push the degree outside [0, n]
also yields zero rather than an error.

Weight: d preserves the conformal weight, the codifferential lowers it
by 2, and each power of J (the trace of the Schouten tensor) carries
weight -2.  An expression stores its weight once, and the J power of
every term follows from it: (w - weight)/2 minus the number of
codifferentials in the word.  A term of another weight cannot be
written down, so weight homogeneity holds by construction; ``coefficient``
reads one term back as c * J**m.

Degree-preserving expressions expand in the commutative quotient ring
R = Q[J, 1/J][E, F] / (EF = FE = 0) with E the word "dc" and F the word
"cd".  Only monomials E^p, F^q and a constant survive in R, and a
weight-homogeneous element is fixed by its order m (it lowers weights
by 2m) and rational coefficients: const J^m + sum e_p J^(m-p) E^p +
sum f_q J^(m-q) F^q.  An element of R reaches an expression only
through ``OperatorPoly.to_form_expr`` and an eigenspace only through one
reducer, a Horner sum over the rational coefficients with one J power
per call: on an eigenform of eigenvalue lam, E^p = lam^(p-1) E and
F^q = lam^(q-1) F, so the element acts there as a + b E + c F
(``OperatorPoly.at``), and on an exact, coexact or harmonic eigenform
as the scalar a + b lam, a + c lam or a (``OperatorPoly.on_eigenspace``,
which reduces only the side it needs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

from .coeffring import CoefficientError, RatJ, ratj, render_ratj

D = "d"
CD = "c"  # codifferential letter inside word strings

_PRETTY = {D: "d", CD: "δ"}

_ZERO = Fraction(0)


class FormAlgebraError(ValueError):
    """Contract violation in the expression algebra (not a degenerate zero)."""


class InternalConsistencyError(AssertionError):
    """A structural identity the pipeline guarantees failed to hold."""


@dataclass(frozen=True)
class FormContext:
    """Dimension n, generator degree k and generator conformal weight w."""

    n: int
    k: int
    w: Fraction

    def __post_init__(self) -> None:
        if self.n < 3:
            raise FormAlgebraError(f"dimension n = {self.n} < 3")
        if not 1 <= self.k <= self.n // 2:
            raise FormAlgebraError(f"degree k = {self.k} outside 1..floor(n/2) for n = {self.n}")
        object.__setattr__(self, "w", Fraction(self.w))


def render_word(word: str) -> str:
    if not word:
        return "1"
    return "".join(_PRETTY[letter] for letter in word)


@dataclass(frozen=True)
class FormExpr:
    """Homogeneous expression: all terms share one output degree and weight.

    ``terms`` maps each word to its rational coefficient; the J power of
    the term is implied by the weight (see the module docstring).
    """

    ctx: FormContext
    degree: int
    weight: Fraction
    terms: dict[str, Fraction] = field(default_factory=dict)

    @staticmethod
    def zero(ctx: FormContext, degree: int, weight: Fraction) -> FormExpr:
        return FormExpr(ctx, degree, Fraction(weight), {})

    @staticmethod
    def generator(ctx: FormContext) -> FormExpr:
        return FormExpr(ctx, ctx.k, ctx.w, {"": Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        """(w - weight)/2: the J power of a term is this minus its codifferential count."""
        half = (self.ctx.w - self.weight) / 2
        if half.denominator != 1:
            raise InternalConsistencyError(
                f"weight {self.weight} is not the generator weight {self.ctx.w} "
                "minus an even integer"
            )
        return int(half)

    def coefficient(self, word: str) -> RatJ:
        """The coefficient c * J**m of a word (zero when the word is absent)."""
        return RatJ(self.terms.get(word, 0), self.order - word.count(CD))

    def __add__(self, other: FormExpr) -> FormExpr:
        if self.ctx != other.ctx or self.degree != other.degree or self.weight != other.weight:
            raise FormAlgebraError(
                f"adding inhomogeneous expressions: deg {self.degree}/{other.degree}, "
                f"wt {self.weight}/{other.weight}"
            )
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, _ZERO) + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        return FormExpr(self.ctx, self.degree, self.weight, terms)

    def __neg__(self) -> FormExpr:
        return FormExpr(self.ctx, self.degree, self.weight, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: FormExpr) -> FormExpr:
        return self + (-other)

    def scale(self, c: Fraction | int) -> FormExpr:
        """Multiply by the rational c; the weight is unchanged."""
        return self.times_J(0, c)

    def times_J(self, power: int = 1, c: Fraction | int = 1) -> FormExpr:
        """Multiply by c * J**power; J carries conformal weight -2."""
        weight = self.weight - 2 * power
        if not c:
            return FormExpr.zero(self.ctx, self.degree, weight)
        return FormExpr(self.ctx, self.degree, weight, {w: co * c for w, co in self.terms.items()})

    def apply_letter(self, letter: str) -> FormExpr:
        """Prefix every word with the letter; degenerate degrees yield zero."""
        if letter not in (D, CD):
            raise FormAlgebraError(f"unknown letter {letter!r}")
        step = 1 if letter == D else -1
        new_deg = self.degree + step
        new_wt = self.weight + (0 if letter == D else -2)
        if not 0 <= new_deg <= self.ctx.n:
            return FormExpr.zero(self.ctx, new_deg, new_wt)
        terms: dict[str, Fraction] = {}
        for w, c in self.terms.items():
            if w.startswith(letter):
                continue  # dd = 0 and (codifferential)^2 = 0
            terms[letter + w] = c
        return FormExpr(self.ctx, new_deg, new_wt, terms)

    def apply_word(self, word: str) -> FormExpr:
        out = self
        for letter in reversed(word):
            out = out.apply_letter(letter)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormExpr):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.degree == other.degree
            and self.weight == other.weight
            and self.terms == other.terms
        )

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda s: (len(s), s)):
            cs = render_ratj(self.coefficient(w))
            if w == "":
                parts.append(cs)
            elif cs == "1":
                parts.append(render_word(w))
            elif cs == "-1":
                parts.append(f"-{render_word(w)}")
            else:
                parts.append(f"({cs})*{render_word(w)}")
        return " + ".join(parts).replace("+ -", "- ")

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class OperatorPoly:
    """Weight-homogeneous element of R = Q[J, 1/J][E, F] / (EF = FE = 0) on k-forms of M^n.

    The operator lowers weights by 2 * order: ``const`` multiplies
    J**order, ``e_coeffs[p-1]`` multiplies J**(order-p) E**p and
    ``f_coeffs[q-1]`` multiplies J**(order-q) F**q; mixed monomials
    vanish identically in R.  Coefficients are rationals.
    """

    n: int
    k: int
    order: int
    const: Fraction
    e_coeffs: tuple[Fraction, ...] = ()
    f_coeffs: tuple[Fraction, ...] = ()

    @staticmethod
    def make(n: int, k: int, const: RatJ | Fraction | int = 0,
             e_coeffs: tuple | list = (), f_coeffs: tuple | list = ()) -> OperatorPoly:
        """From the coefficients c * J**m of 1, E, E^2, ... and F, F^2, ...

        The order is the J power plus the power of E or F of any nonzero
        coefficient; coefficients of different orders raise.
        """
        const = ratj(const)
        e = [ratj(c) for c in e_coeffs]
        f = [ratj(c) for c in f_coeffs]
        orders = {c.m + p for p, c in ((0, const), *enumerate(e, 1), *enumerate(f, 1)) if c}
        if len(orders) > 1:
            raise FormAlgebraError(f"weight-inhomogeneous operator: orders {sorted(orders)}")
        return OperatorPoly.graded(n, k, orders.pop() if orders else 0,
                                   const.c, [c.c for c in e], [c.c for c in f])

    @staticmethod
    def graded(n: int, k: int, order: int, const: Fraction,
               e_coeffs: list[Fraction], f_coeffs: list[Fraction]) -> OperatorPoly:
        """From the order and the rational coefficients; trailing zeros are dropped."""
        return OperatorPoly(n, k, order, const, _trim(e_coeffs), _trim(f_coeffs))

    @staticmethod
    def linear(n: int, k: int, e: RatJ | Fraction | int, f: RatJ | Fraction | int,
               c: RatJ | Fraction | int = 0) -> OperatorPoly:
        """a*E + b*F + c."""
        return OperatorPoly.make(n, k, c, (e,), (f,))

    @property
    def is_zero(self) -> bool:
        return not self.const and not self.e_coeffs and not self.f_coeffs

    def _check(self, other: OperatorPoly) -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise FormAlgebraError(
                f"operator context mismatch: (n,k)=({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def e_coeff(self, p: int) -> Fraction:
        """Rational coefficient of J**(order-p) E**p (p >= 1)."""
        return self.e_coeffs[p - 1] if 1 <= p <= len(self.e_coeffs) else _ZERO

    def f_coeff(self, q: int) -> Fraction:
        return self.f_coeffs[q - 1] if 1 <= q <= len(self.f_coeffs) else _ZERO

    def __add__(self, other: OperatorPoly) -> OperatorPoly:
        self._check(other)
        if self.order != other.order:
            raise FormAlgebraError(f"adding operators of orders {self.order} and {other.order}")
        return OperatorPoly.graded(
            self.n, self.k, self.order, self.const + other.const,
            [a + b for a, b in zip_longest(self.e_coeffs, other.e_coeffs, fillvalue=_ZERO)],
            [a + b for a, b in zip_longest(self.f_coeffs, other.f_coeffs, fillvalue=_ZERO)],
        )

    def __neg__(self) -> OperatorPoly:
        return OperatorPoly(self.n, self.k, self.order, -self.const,
                            tuple(-c for c in self.e_coeffs), tuple(-c for c in self.f_coeffs))

    def __sub__(self, other: OperatorPoly) -> OperatorPoly:
        return self + (-other)

    def scale(self, c: RatJ | Fraction | int) -> OperatorPoly:
        """Multiply by c = c0 * J**m; the order rises by m."""
        c = ratj(c)
        return OperatorPoly.graded(self.n, self.k, self.order + c.m, self.const * c.c,
                                   [a * c.c for a in self.e_coeffs],
                                   [b * c.c for b in self.f_coeffs])

    def __mul__(self, other: OperatorPoly) -> OperatorPoly:
        """Ring product in R: orders add, and E^p F^q cross terms are annihilated."""
        self._check(other)
        e = _convolve((self.const, *self.e_coeffs), (other.const, *other.e_coeffs))
        f = _convolve((self.const, *self.f_coeffs), (other.const, *other.f_coeffs))
        return OperatorPoly.graded(self.n, self.k, self.order + other.order, e[0], e[1:], f[1:])

    def _terms(self) -> list[tuple[str, int, Fraction]]:
        """(name, J power, rational coefficient) of each nonzero monomial."""
        out = [("1", self.order, self.const)] if self.const else []
        for letter, coeffs in (("E", self.e_coeffs), ("F", self.f_coeffs)):
            out += [(letter if p == 1 else f"{letter}^{p}", self.order - p, c)
                    for p, c in enumerate(coeffs, start=1) if c]
        return out

    def monomials(self) -> dict[str, RatJ]:
        """Nonzero monomials keyed "1", "E^p", "F^q" (exponent 1 written E/F)."""
        return {name: RatJ(c, m) for name, m, c in self._terms()}

    def at(self, j_value: Fraction, lam: Fraction | int) -> tuple[Fraction, Fraction, Fraction]:
        """(a, b, c) with self = a + b E + c F once J = j_value, E^2 = lam E, F^2 = lam F.

        On an eigenform of eigenvalue lam the operator is the scalar
        a + b lam (exact), a + c lam (coexact) or a (harmonic); use
        ``on_eigenspace`` for that scalar alone.
        """
        return (_reduce((self.const,), self.order, j_value, lam),
                _reduce(self.e_coeffs, self.order - 1, j_value, lam),
                _reduce(self.f_coeffs, self.order - 1, j_value, lam))

    def on_eigenspace(self, kind: str, j_value: Fraction, lam: Fraction | int) -> Fraction:
        """The scalar by which the operator acts on a kind eigenform of eigenvalue lam.

        Only the side the kind needs is reduced: const J^m + sum e_p J^(m-p) lam^p
        on exact forms (E -> lam, F -> 0), the same with the f_q on coexact
        forms, and const J^m on harmonic forms.
        """
        if kind == "exact":
            return _reduce((self.const, *self.e_coeffs), self.order, j_value, lam)
        if kind == "coexact":
            return _reduce((self.const, *self.f_coeffs), self.order, j_value, lam)
        if kind == "harmonic":
            return _reduce((self.const,), self.order, j_value, lam)
        raise FormAlgebraError(f"unknown eigenspace kind {kind!r}")

    def to_form_expr(self, expr: FormExpr) -> FormExpr:
        """The operator applied wordwise to an expression of degree k.

        The result is 2 * order below the input's weight, also when it is zero.
        """
        if (expr.ctx.n, expr.degree) != (self.n, self.k):
            raise FormAlgebraError(
                f"operator on {self.k}-forms of M^{self.n} applied to a degree-{expr.degree} "
                f"expression on M^{expr.ctx.n}"
            )
        acc = expr.times_J(self.order, self.const)
        for word, coeffs in ((D + CD, self.e_coeffs), (CD + D, self.f_coeffs)):
            cur = expr
            for p, c in enumerate(coeffs, start=1):
                cur = cur.apply_word(word)
                acc = acc + cur.times_J(self.order - p, c)
        return acc

    def render(self, latex: bool = False) -> str:
        mono = self.monomials()
        if not mono:
            return "0"
        def key(m: str) -> tuple:
            if m == "1":
                return (2, 0)
            power = 1 if len(m) == 1 else int(m.split("^")[1])
            return (0 if m[0] == "E" else 1, power)
        parts = []
        for m in sorted(mono, key=key):
            c = render_ratj(mono[m])
            if latex:
                c = c.replace("*", r"\,")
            body = m
            if latex and m != "1":
                power = "" if len(m) == 1 else f"^{{{m.split('^')[1]}}}"
                body = (r"(d\delta)" if m[0] == "E" else r"(\delta d)") + power
            if m == "1":
                parts.append(_wrap(c))
            elif c == "1":
                parts.append(body)
            elif c == "-1":
                parts.append(f"-{body}")
            else:
                parts.append(f"{_wrap(c)}{body}")
        return " + ".join(parts).replace("+ -", "- ")

    __hash__ = None  # type: ignore[assignment]


def _wrap(c: str) -> str:
    if any(op in c[1:] for op in "+-*/ ") or c.startswith("("):
        return f"({c})"
    return c


def _reduce(coeffs: tuple[Fraction, ...], top: int, j_value: Fraction,
            lam: Fraction | int) -> Fraction:
    """sum_i coeffs[i] * J**(top - i) * lam**i at J = j_value.

    The one place where powers of E and F meet an eigenvalue.  For J != 0
    this is J**top times a Horner sum in lam/J, so one J power per call;
    at J = 0 only the term of J power 0 survives, and a nonzero
    coefficient of negative J power is a pole (CoefficientError).
    """
    if j_value:
        if type(j_value) is not Fraction:
            j_value = Fraction(j_value)
        x = lam / j_value
        acc = _ZERO
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc * j_value ** top if top else acc
    if any(coeffs[max(top + 1, 0):]):
        raise CoefficientError("pole at J = 0")
    return coeffs[top] * lam ** top if 0 <= top < len(coeffs) else _ZERO


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


def _convolve(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> list[Fraction]:
    """Product of two polynomials, coefficients listed lowest degree first."""
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def to_operator_poly(expr: FormExpr) -> OperatorPoly:
    """Canonicalise a degree-preserving expression into R.

    The operator's order is the expression's (w - weight)/2.  Raises
    FormAlgebraError when the expression is not an endomorphism
    expression (output degree differs from the generator degree).
    """
    ctx = expr.ctx
    if not expr.is_zero and expr.degree != ctx.k:
        raise FormAlgebraError(
            f"not an endomorphism expression: degree {expr.degree} != k = {ctx.k}"
        )
    const = _ZERO
    e: dict[int, Fraction] = {}
    f: dict[int, Fraction] = {}
    for w, c in expr.terms.items():
        half = len(w) // 2
        if w == "":
            const = c
        elif w == (D + CD) * half:
            e[half] = c
        elif w == (CD + D) * half:
            f[half] = c
        else:
            raise FormAlgebraError(f"word {w!r} is not a power of E or F")
    return OperatorPoly.graded(
        ctx.n, ctx.k, expr.order, const,
        [e.get(p, _ZERO) for p in range(1, max(e, default=0) + 1)],
        [f.get(q, _ZERO) for q in range(1, max(f, default=0) + 1)],
    )


def proportionality(a: OperatorPoly, b: OperatorPoly) -> RatJ | None:
    """The exact constant c with a = c * b, if one exists.

    Returns the zero coefficient when a = 0 (a is proportional to anything),
    and None when no constant works.  b must be nonzero.
    """
    a._check(b)
    if b.is_zero:
        raise FormAlgebraError("proportionality against the zero operator")
    if a.is_zero:
        return RatJ(0)
    coeffs_a = {name: c for name, _, c in a._terms()}
    coeffs_b = {name: c for name, _, c in b._terms()}
    if set(coeffs_a) != set(coeffs_b):
        return None
    first = min(coeffs_b)
    c = coeffs_a[first] / coeffs_b[first]
    if any(coeffs_a[name] != cb * c for name, cb in coeffs_b.items()):
        return None
    return RatJ(c, a.order - b.order)
