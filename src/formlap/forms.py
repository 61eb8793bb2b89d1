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
weight -2.  An expression stores one integer ``order``, the J power of
the empty word, and the J power of every term follows from it: the
order minus the number of codifferentials in the word, and its weight
is w - 2 order.  A term of another weight cannot be
written down, so weight homogeneity holds by construction;
``coefficient`` reads one term back as c * J**m.

Storage is integral: each container keeps integer numerators over one
positive denominator ``den``, in canonical form (gcd(den, numerators)
= 1, no zero numerator stored, zero has den 1), so structural equality
is value equality.  A sum takes one lcm of the denominators, a product
one integer convolution over den1 * den2, and every result is
normalised by one gcd.  ``Fraction`` appears only at the edges.  Values
enter one way: ``OperatorPoly.graded`` takes an order and rational
coefficients (``from_numerators`` is the integer normaliser beneath
it), and ``times_J`` and ``scale`` take a rational factor.  They leave
as ``RatJ`` coefficients (``monomials``, ``FormExpr.coefficient``,
``proportionality``), as scalars (``at``, ``on_eigenspace``) or as text
(``render``).

Degree-preserving expressions expand in the commutative quotient ring
R = Q[J, 1/J][E, F] / (EF = FE = 0) with E the word "dc" and F the word
"cd".  Only monomials E^p, F^q and a constant survive in R, and a
weight-homogeneous element is fixed by its order m (it lowers weights
by 2m) and rational coefficients: const J^m + sum e_p J^(m-p) E^p +
sum f_q J^(m-q) F^q.  An element of R reaches an expression only
through ``OperatorPoly.to_form_expr`` and an eigenspace only through one
reducer, an integer Horner sum over the numerators with one Fraction
built per call: on an eigenform of eigenvalue lam, E^p = lam^(p-1) E and
F^q = lam^(q-1) F, so the element acts there as a + b E + c F
(``OperatorPoly.at``), and on an exact, coexact or harmonic eigenform
as the scalar a + b lam, a + c lam or a (``OperatorPoly.on_eigenspace``,
which reduces only the side it needs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .coeffring import CoefficientError, RatJ

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


def _canonical(nums: dict[str, int], den: int) -> tuple[dict[str, int], int]:
    """Numerators without zeros over a positive den, divided by their common gcd."""
    if not nums:
        return nums, 1
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            return {w: x // g for w, x in nums.items()}, den // g
    return nums, den


@dataclass(frozen=True)
class FormExpr:
    """Homogeneous expression: all terms share one output degree and weight.

    ``nums`` maps each word to its integer numerator over ``den``; the
    J power of the term is ``order`` minus the word's codifferential
    count (see the module docstring).
    """

    ctx: FormContext
    degree: int
    order: int
    nums: dict[str, int] = field(default_factory=dict)
    den: int = 1

    @staticmethod
    def generator(ctx: FormContext) -> FormExpr:
        return FormExpr(ctx, ctx.k, 0, {"": 1})

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, word: str) -> RatJ:
        """The coefficient c * J**m of a word (zero when the word is absent)."""
        return RatJ(Fraction(self.nums.get(word, 0), self.den), self.order - word.count(CD))

    def __add__(self, other: FormExpr) -> FormExpr:
        if ((self.ctx is not other.ctx and self.ctx != other.ctx)
                or self.degree != other.degree or self.order != other.order):
            raise FormAlgebraError(
                f"adding inhomogeneous expressions: deg {self.degree}/{other.degree}, "
                f"order {self.order}/{other.order}"
            )
        if not other.nums:
            return self
        if not self.nums:
            return other
        da, db = self.den, other.den
        if da == db:
            den, nums, mb = da, dict(self.nums), 1
        else:
            den = lcm(da, db)
            ma, mb = den // da, den // db
            nums = {w: x * ma for w, x in self.nums.items()}
        for w, x in other.nums.items():
            s = nums.get(w, 0) + x * mb
            if s:
                nums[w] = s
            else:
                del nums[w]
        return FormExpr(self.ctx, self.degree, self.order, *_canonical(nums, den))

    def __neg__(self) -> FormExpr:
        return FormExpr(self.ctx, self.degree, self.order,
                        {w: -x for w, x in self.nums.items()}, self.den)

    def __sub__(self, other: FormExpr) -> FormExpr:
        return self + (-other)

    def scale(self, c: Fraction | int) -> FormExpr:
        """Multiply by the rational c; the weight is unchanged."""
        return self.times_J(0, c)

    def times_J(self, power: int = 1, c: Fraction | int = 1) -> FormExpr:
        """Multiply by c * J**power; J carries conformal weight -2."""
        p, q = c.numerator, c.denominator
        if not p or not self.nums:
            return FormExpr(self.ctx, self.degree, self.order + power)
        nums = {w: x * p for w, x in self.nums.items()} if p != 1 else self.nums
        return FormExpr(self.ctx, self.degree, self.order + power,
                        *_canonical(nums, self.den * q))

    def apply_letter(self, letter: str) -> FormExpr:
        """Prefix every word with the letter; degenerate degrees yield zero."""
        if letter == D:
            new_deg, order = self.degree + 1, self.order
        elif letter == CD:
            new_deg, order = self.degree - 1, self.order + 1
        else:
            raise FormAlgebraError(f"unknown letter {letter!r}")
        if not 0 <= new_deg <= self.ctx.n:
            return FormExpr(self.ctx, new_deg, order)
        # dd = 0 and (codifferential)^2 = 0
        nums = {letter + w: x for w, x in self.nums.items() if not w.startswith(letter)}
        if len(nums) == len(self.nums):
            return FormExpr(self.ctx, new_deg, order, nums, self.den)
        return FormExpr(self.ctx, new_deg, order, *_canonical(nums, self.den))

    def apply_word(self, word: str) -> FormExpr:
        out = self
        for letter in reversed(word):
            out = out.apply_letter(letter)
        return out

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for w in sorted(self.nums, key=lambda s: (len(s), s)):
            cs = str(self.coefficient(w))
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

    The operator lowers weights by 2 * order: ``c_num / den`` multiplies
    J**order, ``e_nums[p-1] / den`` multiplies J**(order-p) E**p and
    ``f_nums[q-1] / den`` multiplies J**(order-q) F**q; mixed monomials
    vanish identically in R.  Numerators are integers in canonical form
    (see the module docstring), with trailing zeros trimmed.
    """

    n: int
    k: int
    order: int
    c_num: int = 0
    e_nums: tuple[int, ...] = ()
    f_nums: tuple[int, ...] = ()
    den: int = 1

    @staticmethod
    def graded(n: int, k: int, order: int, const: Fraction | int,
               e: list, f: list) -> OperatorPoly:
        """The operator const J^order + sum e_p J^(order-p) E^p + sum f_q J^(order-q) F^q.

        The one rational entry: the coefficients go over their common
        denominator.
        """
        values = (const, *e, *f)
        den = lcm(*(v.denominator for v in values))
        c, *nums = (v.numerator * (den // v.denominator) for v in values)
        return OperatorPoly.from_numerators(n, k, order, c, nums[:len(e)], nums[len(e):], den)

    @staticmethod
    def from_numerators(n: int, k: int, order: int, c: int, e: list[int] | tuple[int, ...],
                        f: list[int] | tuple[int, ...], den: int) -> OperatorPoly:
        """The operator (c + sum e_p E^p + sum f_q F^q) / den, brought to canonical form.

        den is any nonzero integer; J powers follow from the order as usual.
        """
        e, f = _trim(e), _trim(f)
        if not c and not e and not f:
            return OperatorPoly(n, k, order)
        g = gcd(den, c, *e, *f)
        if den < 0:
            g = -g
        if g != 1:
            c //= g
            e = tuple(x // g for x in e)
            f = tuple(x // g for x in f)
            den //= g
        return OperatorPoly(n, k, order, c, e, f, den)

    @property
    def is_zero(self) -> bool:
        return not self.c_num and not self.e_nums and not self.f_nums

    def _check(self, other: OperatorPoly) -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise FormAlgebraError(
                f"operator context mismatch: (n,k)=({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def __add__(self, other: OperatorPoly) -> OperatorPoly:
        self._check(other)
        if self.order != other.order:
            raise FormAlgebraError(f"adding operators of orders {self.order} and {other.order}")
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        ma, mb = den // da, den // db
        return OperatorPoly.from_numerators(
            self.n, self.k, self.order, self.c_num * ma + other.c_num * mb,
            [a * ma + b * mb for a, b in zip_longest(self.e_nums, other.e_nums, fillvalue=0)],
            [a * ma + b * mb for a, b in zip_longest(self.f_nums, other.f_nums, fillvalue=0)],
            den,
        )

    def __neg__(self) -> OperatorPoly:
        return OperatorPoly(self.n, self.k, self.order, -self.c_num,
                            tuple(-x for x in self.e_nums), tuple(-x for x in self.f_nums),
                            self.den)

    def __sub__(self, other: OperatorPoly) -> OperatorPoly:
        return self + (-other)

    def scale(self, c: Fraction | int) -> OperatorPoly:
        """Multiply by the rational c; the order is unchanged."""
        p = c.numerator
        return OperatorPoly.from_numerators(self.n, self.k, self.order, self.c_num * p,
                                            [x * p for x in self.e_nums],
                                            [x * p for x in self.f_nums],
                                            self.den * c.denominator)

    def __mul__(self, other: OperatorPoly) -> OperatorPoly:
        """Ring product in R: orders add, and E^p F^q cross terms are annihilated."""
        self._check(other)
        e = _convolve((self.c_num, *self.e_nums), (other.c_num, *other.e_nums))
        f = _convolve((self.c_num, *self.f_nums), (other.c_num, *other.f_nums))
        return OperatorPoly.from_numerators(self.n, self.k, self.order + other.order,
                                            e[0], e[1:], f[1:], self.den * other.den)

    def _terms(self) -> list[tuple[str, int, int]]:
        """(name, J power, numerator) of each nonzero monomial."""
        out = [("1", self.order, self.c_num)] if self.c_num else []
        for letter, nums in (("E", self.e_nums), ("F", self.f_nums)):
            out += [(letter if p == 1 else f"{letter}^{p}", self.order - p, x)
                    for p, x in enumerate(nums, start=1) if x]
        return out

    def monomials(self) -> dict[str, RatJ]:
        """Nonzero monomials keyed "1", "E^p", "F^q" (exponent 1 written E/F)."""
        return {name: RatJ(Fraction(x, self.den), m) for name, m, x in self._terms()}

    def at(self, j_value: Fraction, lam: Fraction | int) -> tuple[Fraction, Fraction, Fraction]:
        """(a, b, c) with self = a + b E + c F once J = j_value, E^2 = lam E, F^2 = lam F.

        On an eigenform of eigenvalue lam the operator is the scalar
        a + b lam (exact), a + c lam (coexact) or a (harmonic); use
        ``on_eigenspace`` for that scalar alone.
        """
        return (_reduce((self.c_num,), self.den, self.order, j_value, lam),
                _reduce(self.e_nums, self.den, self.order - 1, j_value, lam),
                _reduce(self.f_nums, self.den, self.order - 1, j_value, lam))

    def on_eigenspace(self, kind: str, j_value: Fraction, lam: Fraction | int) -> Fraction:
        """The scalar by which the operator acts on a kind eigenform of eigenvalue lam.

        Only the side the kind needs is reduced: const J^m + sum e_p J^(m-p) lam^p
        on exact forms (E -> lam, F -> 0), the same with the f_q on coexact
        forms, and const J^m on harmonic forms.
        """
        if kind == "exact":
            return _reduce((self.c_num, *self.e_nums), self.den, self.order, j_value, lam)
        if kind == "coexact":
            return _reduce((self.c_num, *self.f_nums), self.den, self.order, j_value, lam)
        if kind == "harmonic":
            return _reduce((self.c_num,), self.den, self.order, j_value, lam)
        raise FormAlgebraError(f"unknown eigenspace kind {kind!r}")

    def to_form_expr(self, expr: FormExpr) -> FormExpr:
        """The operator applied wordwise to an expression of degree k.

        The result is 2 * order below the input's weight, also when it is zero.
        E^p prefixes each word with (dc)^p and kills the words that start
        with c; F^q likewise with (cd)^q and d.  No other degree bound
        can bite: every word of a 0-form starts with c and every word of
        an n-form with d.  The numerators multiply over den * expr.den.
        """
        if (expr.ctx.n, expr.degree) != (self.n, self.k):
            raise FormAlgebraError(
                f"operator on {self.k}-forms of M^{self.n} applied to a degree-{expr.degree} "
                f"expression on M^{expr.ctx.n}"
            )
        c = self.c_num
        acc = {w: x * c for w, x in expr.nums.items()} if c else {}
        for word, nums in ((D + CD, self.e_nums), (CD + D, self.f_nums)):
            base = [(w, x) for w, x in expr.nums.items() if not w.startswith(word[1])]
            for p, y in enumerate(nums, start=1):
                if not y:
                    continue
                prefix = word * p
                for w, x in base:
                    key = prefix + w
                    s = acc.get(key, 0) + y * x
                    if s:
                        acc[key] = s
                    else:
                        del acc[key]
        return FormExpr(expr.ctx, expr.degree, expr.order + self.order,
                        *_canonical(acc, self.den * expr.den))

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
            c = str(mono[m])
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


def _reduce(nums: tuple[int, ...], den: int, top: int, j_value: Fraction,
            lam: Fraction | int) -> Fraction:
    """sum_i nums[i] * J**(top - i) * lam**i / den at J = j_value.

    The one place where powers of E and F meet an eigenvalue.  For
    J = p/q != 0 and lam = r/s, with d = len(nums) - 1, this is
    J**(top - d) / (den (qs)**d) times the integer Horner sum
    sum_i nums[i] (rq)**i (sp)**(d - i), and one Fraction is built at
    the end.  At J = 0 only the term of J power 0 survives, and a
    nonzero coefficient of negative J power is a pole (CoefficientError).
    """
    if not nums:
        return _ZERO
    p, q = j_value.numerator, j_value.denominator
    r, s = lam.numerator, lam.denominator
    d = len(nums) - 1
    if p:
        x, y = r * q, s * p
        acc, y_pow = nums[d], 1
        for c in reversed(nums[:d]):
            y_pow *= y
            acc = acc * x + c * y_pow
        num, dnm = acc, den * (q * s) ** d
        e = top - d
        if e > 0:
            num, dnm = num * p ** e, dnm * q ** e
        elif e < 0:
            num, dnm = num * q ** -e, dnm * p ** -e
        return Fraction(num, dnm)
    if any(nums[max(top + 1, 0):]):
        raise CoefficientError("pole at J = 0")
    return Fraction(nums[top] * r ** top, den * s ** top) if 0 <= top <= d else _ZERO


def _trim(nums: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    return tuple(nums[:end])


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Product of two polynomials, coefficients listed lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def to_operator_poly(expr: FormExpr) -> OperatorPoly:
    """Canonicalise a degree-preserving expression into R.

    The operator's order and denominator are the expression's, and its
    numerators are copied.  Raises FormAlgebraError when the expression
    is not an endomorphism expression (output degree differs from the
    generator degree).
    """
    ctx = expr.ctx
    if not expr.is_zero and expr.degree != ctx.k:
        raise FormAlgebraError(
            f"not an endomorphism expression: degree {expr.degree} != k = {ctx.k}"
        )
    const = 0
    e: dict[int, int] = {}
    f: dict[int, int] = {}
    for w, x in expr.nums.items():
        half = len(w) // 2
        if w == "":
            const = x
        elif w == (D + CD) * half:
            e[half] = x
        elif w == (CD + D) * half:
            f[half] = x
        else:
            raise FormAlgebraError(f"word {w!r} is not a power of E or F")
    # the expression is canonical and its highest powers are nonzero, so this is too
    return OperatorPoly(
        ctx.n, ctx.k, expr.order, const,
        tuple(e.get(p, 0) for p in range(1, max(e, default=0) + 1)),
        tuple(f.get(q, 0) for q in range(1, max(f, default=0) + 1)),
        expr.den,
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
    nums_a = {name: x for name, _, x in a._terms()}
    nums_b = {name: x for name, _, x in b._terms()}
    if set(nums_a) != set(nums_b):
        return None
    first = min(nums_b)
    xa, xb = nums_a[first], nums_b[first]
    # a_i / a.den = c b_i / b.den for every monomial, by cross-multiplication
    if any(nums_a[name] * xb != y * xa for name, y in nums_b.items()):
        return None
    return RatJ(Fraction(xa * b.den, xb * a.den), a.order - b.order)
