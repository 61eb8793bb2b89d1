"""The graded Laurent monomials c * J**m in which symbolic coefficients are read out.

J is the trace of the Schouten tensor, constant in an Einstein scale,
and carries conformal weight -2.  Operators store integer numerators
over one denominator and one J order each (see ``forms``), so weight
homogeneity holds by construction there.  ``RatJ`` is the read-out
type: one coefficient c * J**m of an operator, as a payload, a witness
or text, with ``c`` a ``Fraction`` and ``m`` an ``int``, and zero as
(0, 0).  The symbolic core does no arithmetic in ``RatJ``; its ring
operations stay because the benchmark tracer patches them by name.
Adding two nonzero values of different J degree raises
``CoefficientError``; products and quotients of nonzero values are
nonzero monomials again, so equality is structural.

There is no floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Coercible = Union[int, Fraction, "RatJ"]


class CoefficientError(ArithmeticError):
    """Division by zero, evaluation at a pole, or a sum of different J degrees."""


class RatJ:
    """The graded monomial c * J**m; zero is c = 0, m = 0.

    Instances are immutable values: no method changes ``c`` or ``m``.
    Equality compares both, and instances are unhashable.
    """

    __slots__ = ("c", "m")

    def __init__(self, c: Fraction | int = 0, m: int = 0) -> None:
        if type(c) is not Fraction:
            c = Fraction(c)
        self.c = c
        self.m = m if c else 0

    # -- ring operations ------------------------------------------------

    def __add__(self, other: Coercible) -> RatJ:
        o = other if isinstance(other, RatJ) else RatJ(other)
        if not o.c:
            return self
        if not self.c:
            return o
        if self.m != o.m:
            raise CoefficientError(f"sum of different J degrees: {self} + {o}")
        return RatJ(self.c + o.c, self.m)

    __radd__ = __add__

    def __neg__(self) -> RatJ:
        return RatJ(-self.c, self.m)

    def __sub__(self, other: Coercible) -> RatJ:
        o = other if isinstance(other, RatJ) else RatJ(other)
        return self + (-o)

    def __rsub__(self, other: Coercible) -> RatJ:
        return RatJ(other) - self

    def __mul__(self, other: Coercible) -> RatJ:
        o = other if isinstance(other, RatJ) else RatJ(other)
        return RatJ(self.c * o.c, self.m + o.m)

    __rmul__ = __mul__

    def __truediv__(self, other: Coercible) -> RatJ:
        o = other if isinstance(other, RatJ) else RatJ(other)
        if not o.c:
            raise CoefficientError("division by zero")
        return RatJ(self.c / o.c, self.m - o.m)

    def __rtruediv__(self, other: Coercible) -> RatJ:
        return RatJ(other) / self

    def inv(self) -> RatJ:
        if not self.c:
            raise CoefficientError("inverse of zero")
        return RatJ(1 / self.c, -self.m)

    # -- value semantics ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatJ):
            return NotImplemented
        return self.c == other.c and self.m == other.m

    def __repr__(self) -> str:
        return f"RatJ({self.c!r}, {self.m})"

    def __str__(self) -> str:
        """Canonical text: "c*J^m" for m >= 0, leaving out the factor 1 and
        the power 1 ("J", "-J", "3/2*J^2", "5"), and "(c) / (J^m)" for m < 0."""
        if self.m >= 0:
            return _render_mono(self.c, self.m)
        return f"({_render_mono(self.c, 0)}) / ({_render_mono(Fraction(1), -self.m)})"


ZERO = RatJ(0)


def _render_mono(c: Fraction, m: int) -> str:
    if not c:
        return "0"
    sign = "-" if c < 0 else ""
    mag = abs(c)
    if m == 0:
        return sign + str(mag)
    var = "J" if m == 1 else f"J^{m}"
    return sign + (var if mag == 1 else f"{mag}*{var}")
