"""The ring R of operators polynomial in d delta and delta d, on weighted k-forms.

An operator on k-forms of M^n built from the exterior derivative d, the
codifferential delta and J (the trace of the Schouten tensor) is a
polynomial in E = d delta and F = delta d, and since delta delta = 0
and d d = 0 these satisfy EF = FE = 0.  Such operators form the
commutative quotient ring R = Q[J, 1/J][E, F] / (EF = FE = 0) (class
``OperatorPoly``): only monomials E^p, F^q and a constant survive.

Weight: d preserves the conformal weight, the codifferential lowers it
by 2, and each power of J carries weight -2, so E, F and J all lower
weights by 2.  An operator stores one integer ``order`` m (it lowers
weights by 2m) and rational coefficients: const J^m + sum e_p J^(m-p)
E^p + sum f_q J^(m-q) F^q.  A monomial of another weight cannot be
written down, so weight homogeneity holds by construction.

Storage is integral: each operator is a slotted value holding integer
numerators over one positive denominator ``den``, in canonical form
(gcd(den, numerators) = 1, trailing zeros trimmed, zero has den 1), so
structural equality is value equality.  Only the constructor writes
the fields; that is kept by the source, not checked at run time.  Every
sum and scaling is one multiply-accumulate, ``OperatorPoly.combine``:
sum_i c_i J^(a_i) x_i over one lcm of the denominators, with integer
accumulation in one pass and one gcd (``+`` and ``scale`` are its two-
and one-term cases).  A product is one integer convolution over
den1 * den2 and one gcd; by E or E + F it is a shift (``times_e``,
``times_laplacian``), the same numerators one power up over the same
den, canonical with no gcd, so a box step normalises 4 times and
``apply_Mstar`` once.  ``Fraction`` appears only at the edges.
Values enter as integer numerators over one denominator
(``from_numerators``, the normaliser beneath ``combine``).  They leave
as ``RatJ`` coefficients (``monomials``), as a rational constant
(``proportionality``), as scalars (``on_eigenspace``), as zero tests
(``kills``) or as text (``render``).

An element of R reaches an eigenspace only through one reducer, an
integer Horner sum over the numerators: on an exact eigenform of
eigenvalue lam, E = lam and F = 0, on a coexact one E = 0 and F = lam,
and on a harmonic one E = F = 0, so the element acts there as a scalar.
One reducer, two reads, each of only the side it needs:
``OperatorPoly.on_eigenspace`` builds that scalar as one Fraction, and
``OperatorPoly.kills`` only asks whether it vanishes, and builds none.

Forms of degree k - 1 built from a generator of degree k are all delta
of an operator with no F part (delta F = delta delta d = 0), and
``e_part`` drops the F part for them; see ``tractor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .coeffring import CoefficientError, RatJ

_ZERO = Fraction(0)


class UsageError(ValueError):
    """Bad input: a parameter outside the package's domain (n >= 3, ...), or bad spectral data."""


class InternalConsistencyError(AssertionError):
    """A structural identity the pipeline guarantees failed to hold: a fault, never bad input."""


@dataclass(frozen=True)
class FormContext:
    """Dimension n, generator degree k and generator conformal weight w."""

    n: int
    k: int
    w: Fraction

    def __post_init__(self) -> None:
        if self.n < 3:
            raise UsageError(f"dimension n = {self.n} < 3")
        if not 1 <= self.k <= self.n // 2:
            raise UsageError(f"degree k = {self.k} outside 1..floor(n/2) for n = {self.n}")


class OperatorPoly:
    """Weight-homogeneous element of R = Q[J, 1/J][E, F] / (EF = FE = 0) on k-forms of M^n.

    The operator lowers weights by 2 * order: ``c_num / den`` multiplies
    J**order, ``e_nums[p-1] / den`` multiplies J**(order-p) E**p and
    ``f_nums[q-1] / den`` multiplies J**(order-q) F**q; mixed monomials
    vanish identically in R.  Numerators are integers in canonical form
    (see the module docstring), with trailing zeros trimmed.

    A value: only ``__init__`` assigns the seven slots, equality
    compares them, and instances are unhashable.
    """

    __slots__ = ("n", "k", "order", "c_num", "e_nums", "f_nums", "den")

    def __init__(self, n: int, k: int, order: int, c_num: int = 0,
                 e_nums: tuple[int, ...] = (), f_nums: tuple[int, ...] = (), den: int = 1) -> None:
        self.n = n
        self.k = k
        self.order = order
        self.c_num = c_num
        self.e_nums = e_nums
        self.f_nums = f_nums
        self.den = den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return (self.order == other.order and self.den == other.den and self.c_num == other.c_num
                and self.e_nums == other.e_nums and self.f_nums == other.f_nums
                and self.n == other.n and self.k == other.k)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"OperatorPoly(n={self.n}, k={self.k}, order={self.order}, c_num={self.c_num}, "
                f"e_nums={self.e_nums}, f_nums={self.f_nums}, den={self.den})")

    @staticmethod
    def from_numerators(n: int, k: int, order: int, c: int, e: list[int] | tuple[int, ...],
                        f: list[int] | tuple[int, ...], den: int) -> OperatorPoly:
        """The operator (c + sum e_p E^p + sum f_q F^q) / den, brought to canonical form.

        den is any nonzero integer; J powers follow from the order as usual.
        """
        e = tuple(e) if not e or e[-1] else _trim(e)  # a trimmed tuple is kept as it is
        f = tuple(f) if not f or f[-1] else _trim(f)
        if not c and not e and not f:
            return OperatorPoly(n, k, order)
        g = gcd(den, c, *e, *f)
        if den < 0:
            g = -g
        if g != 1:
            c //= g
            e = tuple([x // g for x in e])
            f = tuple([x // g for x in f])
            den //= g
        return OperatorPoly(n, k, order, c, e, f, den)

    @staticmethod
    def combine(terms: list | tuple) -> OperatorPoly:
        """sum_i c_i J**a_i x_i over a nonempty sequence of terms (c_i, a_i, x_i), normalised once.

        The one path for sums and scalings in R.  Each c_i is an int or a
        Fraction, read through its numerator and denominator; every
        x_i.order + a_i must agree, and that is the result's order.  The
        numerators are accumulated over one lcm of the term denominators.
        """
        c, a0, x0 = terms[0]
        order = x0.order + a0
        m, den = c.numerator, x0.den * c.denominator
        acc_c, acc_e, acc_f = x0.c_num * m, [v * m for v in x0.e_nums], [v * m for v in x0.f_nums]
        for c, a, x in terms[1:]:
            x0._check(x)
            if x.order + a != order:
                raise InternalConsistencyError(f"adding operators of orders {order} and {x.order + a}")
            m, d = c.numerator, x.den * c.denominator
            if den % d:  # a new denominator: bring the sum so far over lcm(den, d)
                r = d // gcd(den, d)
                den *= r
                acc_c, acc_e, acc_f = acc_c * r, [v * r for v in acc_e], [v * r for v in acc_f]
            m *= den // d
            acc_c += x.c_num * m
            for acc, nums in ((acc_e, x.e_nums), (acc_f, x.f_nums)):
                if len(acc) < len(nums):
                    acc += [0] * (len(nums) - len(acc))
                for i, v in enumerate(nums):
                    acc[i] += v * m
        return OperatorPoly.from_numerators(x0.n, x0.k, order, acc_c, acc_e, acc_f, den)

    @property
    def is_zero(self) -> bool:
        return not self.c_num and not self.e_nums and not self.f_nums

    def _check(self, other: OperatorPoly) -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise InternalConsistencyError(
                f"operator context mismatch: (n,k)=({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def __add__(self, other: OperatorPoly) -> OperatorPoly:
        return OperatorPoly.combine(((1, 0, self), (1, 0, other)))

    def __neg__(self) -> OperatorPoly:
        return OperatorPoly(self.n, self.k, self.order, -self.c_num,
                            tuple(-x for x in self.e_nums), tuple(-x for x in self.f_nums),
                            self.den)

    def scale(self, c: Fraction | int) -> OperatorPoly:
        """Multiply by the rational c; the order is unchanged."""
        return OperatorPoly.combine(((c, 0, self),))

    def e_part(self) -> OperatorPoly:
        """The constant and E terms: the operator with its F part dropped."""
        return OperatorPoly.from_numerators(self.n, self.k, self.order, self.c_num,
                                            self.e_nums, (), self.den)

    def times_e(self) -> OperatorPoly:
        """E times the operator, E e(x) as E F = 0: with no F part, a shift of the numerators."""
        x = self.e_part() if self.f_nums else self
        return OperatorPoly(x.n, x.k, x.order + 1, 0, _shift(x.c_num, x.e_nums), (), x.den)

    def times_laplacian(self) -> OperatorPoly:
        """(E + F) times the operator: both sides shift up one power over the same denominator."""
        return OperatorPoly(self.n, self.k, self.order + 1, 0, _shift(self.c_num, self.e_nums),
                            _shift(self.c_num, self.f_nums), self.den)

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

    def on_eigenspace(self, kind: str, j_value: Fraction, lam: Fraction | int) -> Fraction:
        """The scalar by which the operator acts on a kind eigenform of eigenvalue lam.

        Only the side the kind needs is reduced: const J^m + sum e_p J^(m-p) lam^p
        on exact forms (E -> lam, F -> 0), the same with the f_q on coexact
        forms, and const J^m on harmonic forms.
        """
        num, dnm = _reduce(self.c_num, self._side(kind), self.order, j_value, lam)
        return Fraction(num, self.den * dnm) if num else _ZERO

    def kills(self, kind: str, j_value: Fraction, lam: Fraction | int) -> bool:
        """Whether the operator vanishes on a kind eigenform of eigenvalue lam.

        ``on_eigenspace(kind, j_value, lam) == 0``, read from the same
        reducer without building the Fraction; at J = 0 it raises on the
        same poles.
        """
        return not _reduce(self.c_num, self._side(kind), self.order, j_value, lam)[0]

    def _side(self, kind: str) -> tuple[int, ...]:
        """The numerators a kind reads after the constant: the E or F side (neither if harmonic)."""
        if kind == "exact":
            return self.e_nums
        if kind == "coexact":
            return self.f_nums
        if kind == "harmonic":
            return ()
        raise InternalConsistencyError(f"unknown eigenspace kind {kind!r}")

    def render(self, latex: bool = False) -> str:
        mono = self.monomials()
        if not mono:
            return "0"
        if "1" in mono:  # _terms() order (constant, E^p, F^q), the constant moved last
            mono["1"] = mono.pop("1")
        parts = []
        for m, v in mono.items():
            c = str(v)
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


def _wrap(c: str) -> str:
    if any(op in c[1:] for op in "+-*/ ") or c.startswith("("):
        return f"({c})"
    return c


def _reduce(c: int, nums: tuple[int, ...], top: int, j_value: Fraction,
            lam: Fraction | int) -> tuple[int, int]:
    """Integers (num, dnm) with c J**top + sum_i nums[i-1] J**(top-i) lam**i = num/dnm at J = j_value.

    The one place where powers of E and F meet an eigenvalue; num is 0
    exactly when the sum vanishes.  For J = p/q != 0 and lam = r/s, with
    d = len(nums), the sum is J**(top - d) / (qs)**d times the integer
    Horner sum c (sp)**d + sum_i nums[i-1] (rq)**i (sp)**(d - i).  At
    J = 0 only the term of J power 0 survives, and a nonzero coefficient
    of negative J power is a pole (CoefficientError).
    """
    p, q = j_value.numerator, j_value.denominator
    r, s = lam.numerator, lam.denominator
    d = len(nums)
    if p:
        x, y = r * q, s * p
        acc, x_pow = c, 1
        for v in nums:
            x_pow *= x
            acc = acc * y + v * x_pow
        if not acc:
            return 0, 1
        num, dnm = acc, (q * s) ** d
        e = top - d
        if e > 0:
            num, dnm = num * p ** e, dnm * q ** e
        elif e < 0:
            num, dnm = num * q ** -e, dnm * p ** -e
        return num, dnm
    if top < 0 and c or any(nums[max(top, 0):]):
        raise CoefficientError("pole at J = 0")
    return ((nums[top - 1] if top else c) * r ** top, s ** top) if 0 <= top <= d else (0, 1)


def _trim(nums: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    return tuple(nums[:end])


def _shift(c: int, nums: tuple[int, ...]) -> tuple[int, ...]:
    return (c, *nums) if c or nums else ()


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Product of two polynomials, coefficients listed lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def to_operator_poly(op: OperatorPoly) -> OperatorPoly:
    """The identity on R.

    Operators are read from the tractor slots as elements of R directly,
    and nothing in the package calls this; the benchmark tracer spans it
    by name.
    """
    return op


def proportionality(a: OperatorPoly, b: OperatorPoly) -> Fraction | None:
    """The exact rational constant c with a = c * b, if one exists.

    Returns 0 when a = 0 (a is proportional to anything), and None when
    no constant works: a nonzero a of another order than b would need a
    power of J.  b must be nonzero.
    """
    a._check(b)
    if b.is_zero:
        raise InternalConsistencyError("proportionality against the zero operator")
    if a.is_zero:
        return _ZERO
    nums_a = {name: x for name, _, x in a._terms()}
    nums_b = {name: x for name, _, x in b._terms()}
    if a.order != b.order or set(nums_a) != set(nums_b):
        return None
    first = min(nums_b)
    xa, xb = nums_a[first], nums_b[first]
    # a_i / a.den = c b_i / b.den for every monomial, by cross-multiplication
    if any(nums_a[name] * xb != y * xa for name, y in nums_b.items()):
        return None
    return Fraction(xa * b.den, xb * a.den)
