"""Free weighted-form expressions in d and the codifferential, and the ring R.

Expressions are linear combinations, with coefficients c * J**m, of
alternating words in the exterior derivative ``d`` and the
codifferential (written ``c`` inside word strings, rendered as a
lowercase delta) applied to one abstract generator form of fixed
degree k and conformal weight w.  Words are stored outermost letter
first, so the word "dc" is the composition d(delta(f)).  Repeated
letters are identically zero (d d = 0, delta delta = 0) and are never
stored; applying a letter that would push the degree outside [0, n]
also yields zero rather than an error.

Weight bookkeeping: d preserves the conformal weight, the codifferential
lowers it by 2, and each power of J in a coefficient carries weight -2.
Coefficients are graded monomials c * J**m (see ``coeffring``), so each
term has one definite weight.  The declared weight of an expression is
redundant bookkeeping used to catch slot-mixing bugs early; it is
asserted consistent term by term.

Degree-preserving expressions expand in the commutative quotient ring
R = Q[J, 1/J][E, F] / (EF = FE = 0) with E the word "dc" and F the word
"cd".  Only monomials E^p, F^q and a constant survive in R.  An
element of R reaches an expression only through
``OperatorPoly.to_form_expr`` and an eigenspace only through
``OperatorPoly.at``: on an eigenform of eigenvalue lam, E^p = lam^(p-1) E
and F^q = lam^(q-1) F, so the element acts there as a + b E + c F.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeffring import ONE, RatJ, ZERO, jpow, ratj, render_ratj

D = "d"
CD = "c"  # codifferential letter inside word strings

_PRETTY = {D: "d", CD: "δ"}


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


def word_degree_delta(word: str) -> int:
    """Net degree change of a word (each d: +1, each codifferential: -1)."""
    return word.count(D) - word.count(CD)


def word_weight_delta(word: str) -> Fraction:
    return Fraction(-2 * word.count(CD))


def word_is_valid(word: str, k: int, n: int) -> bool:
    """Alternating letters and a degree trajectory that stays inside [0, n]."""
    deg = k
    prev = ""
    for letter in reversed(word):
        if letter not in (D, CD):
            return False
        if letter == prev:
            return False
        deg += 1 if letter == D else -1
        if not 0 <= deg <= n:
            return False
        prev = letter
    return True


def render_word(word: str) -> str:
    if not word:
        return "1"
    return "".join(_PRETTY[letter] for letter in word)


@dataclass(frozen=True)
class FormExpr:
    """Homogeneous expression: all terms share one output degree and weight."""

    ctx: FormContext
    degree: int
    weight: Fraction
    terms: dict[str, RatJ] = field(default_factory=dict)

    @staticmethod
    def zero(ctx: FormContext, degree: int, weight: Fraction) -> FormExpr:
        return FormExpr(ctx, degree, Fraction(weight), {})

    @staticmethod
    def generator(ctx: FormContext) -> FormExpr:
        return FormExpr(ctx, ctx.k, ctx.w, {"": ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: FormExpr) -> FormExpr:
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.ctx != other.ctx or self.degree != other.degree or self.weight != other.weight:
            raise FormAlgebraError(
                f"adding inhomogeneous expressions: deg {self.degree}/{other.degree}, "
                f"wt {self.weight}/{other.weight}"
            )
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, ZERO) + c
            if s.is_zero:
                terms.pop(w, None)
            else:
                terms[w] = s
        return FormExpr(self.ctx, self.degree, self.weight, terms)

    def __neg__(self) -> FormExpr:
        return FormExpr(self.ctx, self.degree, self.weight, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: FormExpr) -> FormExpr:
        return self + (-other)

    def scale(self, c: RatJ | Fraction | int) -> FormExpr:
        c = ratj(c)
        if c.is_zero:
            return FormExpr.zero(self.ctx, self.degree, self.weight)
        return FormExpr(self.ctx, self.degree, self.weight, {w: co * c for w, co in self.terms.items()})

    def times_J(self, power: int = 1, c: Fraction | int = 1) -> FormExpr:
        """Multiply by c * J**power; J carries conformal weight -2."""
        return self.scale_weighted(jpow(power, c))

    def scale_weighted(self, c: RatJ) -> FormExpr:
        """Scale by c = c0 * J**m, lowering the declared weight by 2m."""
        scaled = self.scale(c)
        return FormExpr(self.ctx, self.degree, self.weight - 2 * c.m, scaled.terms)

    def shift_weight(self, p: Fraction | int) -> FormExpr:
        """Multiply by the p-th power of the Einstein scale: weight shifts, values do not."""
        return FormExpr(self.ctx, self.degree, self.weight + Fraction(p), self.terms)

    def apply_letter(self, letter: str) -> FormExpr:
        """Prefix every word with the letter; degenerate degrees yield zero."""
        if letter not in (D, CD):
            raise FormAlgebraError(f"unknown letter {letter!r}")
        step = 1 if letter == D else -1
        new_deg = self.degree + step
        new_wt = self.weight + (0 if letter == D else -2)
        if not 0 <= new_deg <= self.ctx.n:
            return FormExpr.zero(self.ctx, new_deg, new_wt)
        terms: dict[str, RatJ] = {}
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

    def validate(self) -> None:
        """Alternation, degree trajectory, and J-weight homogeneity of every term.

        The declared weight may differ from the natural term weight by a
        common integer (powers of the Einstein scale); the offset must be
        identical for all terms.
        """
        offset: Fraction | None = None
        for w, c in self.terms.items():
            if not word_is_valid(w, self.ctx.k, self.ctx.n):
                raise FormAlgebraError(f"invalid stored word {w!r} for k={self.ctx.k}, n={self.ctx.n}")
            if self.ctx.k + word_degree_delta(w) != self.degree:
                raise FormAlgebraError(f"word {w!r} does not produce degree {self.degree}")
            natural = self.ctx.w + word_weight_delta(w) - 2 * c.m
            off = self.weight - natural
            if offset is None:
                offset = off
            elif off != offset:
                raise FormAlgebraError(
                    f"weight-inhomogeneous expression: offsets {offset} and {off}"
                )

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
            c = self.terms[w]
            cs = render_ratj(c)
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
    """Element of R = Q[J, 1/J][E, F] / (EF = FE = 0) for operators on k-forms of M^n.

    ``e_coeffs[p]`` multiplies E**(p+1) and ``f_coeffs[q]`` multiplies
    F**(q+1); mixed monomials vanish identically in R.
    """

    n: int
    k: int
    const: RatJ
    e_coeffs: tuple[RatJ, ...] = ()
    f_coeffs: tuple[RatJ, ...] = ()

    @staticmethod
    def make(n: int, k: int, const: RatJ | Fraction | int = 0,
             e_coeffs: tuple | list = (), f_coeffs: tuple | list = ()) -> OperatorPoly:
        e = _trim_coeffs(e_coeffs)
        f = _trim_coeffs(f_coeffs)
        return OperatorPoly(n, k, ratj(const), e, f)

    @staticmethod
    def zero(n: int, k: int) -> OperatorPoly:
        return OperatorPoly(n, k, ZERO)

    @staticmethod
    def linear(n: int, k: int, e: RatJ | Fraction | int, f: RatJ | Fraction | int,
               c: RatJ | Fraction | int = 0) -> OperatorPoly:
        """a*E + b*F + c."""
        return OperatorPoly.make(n, k, c, (ratj(e),), (ratj(f),))

    @property
    def is_zero(self) -> bool:
        return self.const.is_zero and not self.e_coeffs and not self.f_coeffs

    def _check(self, other: OperatorPoly) -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise FormAlgebraError(
                f"operator context mismatch: (n,k)=({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def e_coeff(self, p: int) -> RatJ:
        """Coefficient of E**p (p >= 1)."""
        return self.e_coeffs[p - 1] if 1 <= p <= len(self.e_coeffs) else ZERO

    def f_coeff(self, q: int) -> RatJ:
        return self.f_coeffs[q - 1] if 1 <= q <= len(self.f_coeffs) else ZERO

    def __add__(self, other: OperatorPoly) -> OperatorPoly:
        self._check(other)
        ne = max(len(self.e_coeffs), len(other.e_coeffs))
        nf = max(len(self.f_coeffs), len(other.f_coeffs))
        return OperatorPoly.make(
            self.n, self.k, self.const + other.const,
            [self.e_coeff(p) + other.e_coeff(p) for p in range(1, ne + 1)],
            [self.f_coeff(q) + other.f_coeff(q) for q in range(1, nf + 1)],
        )

    def __neg__(self) -> OperatorPoly:
        return OperatorPoly(self.n, self.k, -self.const,
                            tuple(-c for c in self.e_coeffs), tuple(-c for c in self.f_coeffs))

    def __sub__(self, other: OperatorPoly) -> OperatorPoly:
        return self + (-other)

    def scale(self, c: RatJ | Fraction | int) -> OperatorPoly:
        c = ratj(c)
        return OperatorPoly.make(self.n, self.k, self.const * c,
                                 [a * c for a in self.e_coeffs], [b * c for b in self.f_coeffs])

    def __mul__(self, other: OperatorPoly) -> OperatorPoly:
        """Ring product in R; E^p F^q cross terms are annihilated."""
        self._check(other)
        const = self.const * other.const
        ne = len(self.e_coeffs) + len(other.e_coeffs)
        nf = len(self.f_coeffs) + len(other.f_coeffs)
        e = [ZERO] * ne
        f = [ZERO] * nf
        for p in range(1, len(self.e_coeffs) + 1):
            for p2 in range(1, len(other.e_coeffs) + 1):
                e[p + p2 - 1] = e[p + p2 - 1] + self.e_coeff(p) * other.e_coeff(p2)
        for q in range(1, len(self.f_coeffs) + 1):
            for q2 in range(1, len(other.f_coeffs) + 1):
                f[q + q2 - 1] = f[q + q2 - 1] + self.f_coeff(q) * other.f_coeff(q2)
        for p in range(1, len(self.e_coeffs) + 1):
            e[p - 1] = e[p - 1] + self.e_coeff(p) * other.const
        for p in range(1, len(other.e_coeffs) + 1):
            e[p - 1] = e[p - 1] + other.e_coeff(p) * self.const
        for q in range(1, len(self.f_coeffs) + 1):
            f[q - 1] = f[q - 1] + self.f_coeff(q) * other.const
        for q in range(1, len(other.f_coeffs) + 1):
            f[q - 1] = f[q - 1] + other.f_coeff(q) * self.const
        return OperatorPoly.make(self.n, self.k, const, e, f)

    def monomials(self) -> dict[str, RatJ]:
        """Nonzero monomials keyed "1", "E^p", "F^q" (exponent 1 written E/F)."""
        out: dict[str, RatJ] = {}
        if not self.const.is_zero:
            out["1"] = self.const
        for p, c in enumerate(self.e_coeffs, start=1):
            if not c.is_zero:
                out["E" if p == 1 else f"E^{p}"] = c
        for q, c in enumerate(self.f_coeffs, start=1):
            if not c.is_zero:
                out["F" if q == 1 else f"F^{q}"] = c
        return out

    def at(self, j_value: Fraction, lam: Fraction | int) -> tuple[Fraction, Fraction, Fraction]:
        """(a, b, c) with self = a + b E + c F once J = j_value, E^2 = lam E, F^2 = lam F.

        On an eigenform of eigenvalue lam the operator is the scalar
        a + b lam (exact), a + c lam (coexact) or a (harmonic).  This is the
        one place where powers of E and F are reduced.
        """
        def reduce(coeffs: tuple[RatJ, ...]) -> Fraction:
            acc = Fraction(0)
            for coeff in reversed(coeffs):  # Horner in lam
                acc = acc * lam + coeff.eval_at(j_value)
            return acc

        return self.const.eval_at(j_value), reduce(self.e_coeffs), reduce(self.f_coeffs)

    def to_form_expr(self, expr: FormExpr) -> FormExpr:
        """The operator applied wordwise to an expression of degree k.

        A monomial c J^m E^p (or F^p) lowers the weight by 2(m + p); in a
        weight-homogeneous operator all do alike, and the result carries
        that weight even when it is zero.  Nonzero summands of different
        weights raise.
        """
        if (expr.ctx.n, expr.degree) != (self.n, self.k):
            raise FormAlgebraError(
                f"operator on {self.k}-forms of M^{self.n} applied to a degree-{expr.degree} "
                f"expression on M^{expr.ctx.n}"
            )
        monomials = ((0, self.const), *enumerate(self.e_coeffs, 1), *enumerate(self.f_coeffs, 1))
        drop = next((2 * (p + c.m) for p, c in monomials if not c.is_zero), 0)
        acc = FormExpr.zero(expr.ctx, expr.degree, expr.weight - drop)
        if not self.const.is_zero:
            acc = acc + expr.scale_weighted(self.const)
        cur = expr
        for c in self.e_coeffs:
            cur = cur.apply_word(D + CD)
            acc = acc + cur.scale_weighted(c)
        cur = expr
        for c in self.f_coeffs:
            cur = cur.apply_word(CD + D)
            acc = acc + cur.scale_weighted(c)
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


def _trim_coeffs(seq) -> tuple[RatJ, ...]:
    out = [ratj(c) for c in seq]
    while out and out[-1].is_zero:
        out.pop()
    return tuple(out)


def to_operator_poly(expr: FormExpr) -> OperatorPoly:
    """Canonicalise a degree-preserving expression into R.

    Raises FormAlgebraError when the expression is not an endomorphism
    expression (output degree differs from the generator degree).
    """
    ctx = expr.ctx
    if not expr.is_zero and expr.degree != ctx.k:
        raise FormAlgebraError(
            f"not an endomorphism expression: degree {expr.degree} != k = {ctx.k}"
        )
    const = ZERO
    e: dict[int, RatJ] = {}
    f: dict[int, RatJ] = {}
    for w, c in expr.terms.items():
        if w == "":
            const = const + c
        elif w == (D + CD) * (len(w) // 2) and len(w) % 2 == 0:
            e[len(w) // 2] = e.get(len(w) // 2, ZERO) + c
        elif w == (CD + D) * (len(w) // 2) and len(w) % 2 == 0:
            f[len(w) // 2] = f.get(len(w) // 2, ZERO) + c
        else:
            raise FormAlgebraError(f"word {w!r} is not a power of E or F")
    ne = max(e) if e else 0
    nf = max(f) if f else 0
    return OperatorPoly.make(
        ctx.n, ctx.k, const,
        [e.get(p, ZERO) for p in range(1, ne + 1)],
        [f.get(q, ZERO) for q in range(1, nf + 1)],
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
        return ZERO
    mono_a, mono_b = a.monomials(), b.monomials()
    if set(mono_a) != set(mono_b):
        return None
    first = next(iter(sorted(mono_b)))
    c = mono_a[first] / mono_b[first]
    for m, cb in mono_b.items():
        if mono_a[m] != cb * c:
            return None
    return c
