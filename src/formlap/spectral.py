"""Finite spectral models of the Hodge decomposition.

A model is a finite list of (kind, eigenvalue, multiplicity) points and
a fixed rational value of J.  An expanded operator acts on a point as
the scalar ``OperatorPoly.on_eigenspace`` gives, which reduces only the
side the point's kind needs: E -> lam on exact points, F -> lam on
coexact points, neither on harmonic points; that is the one reducer in
``forms``.  Null-space dimensions are sums of multiplicities over points
where the scalar vanishes, which ``OperatorPoly.kills`` reads from the
same reducer without building it; ``synthetic_model`` asks it which
factors kill each point it places.

Presets: the unit round n-sphere (from its closed-form spectrum, J =
n/2) and the flat torus (computed from lattice modes, J = 0).  Models
are also importable from the simplicial oracle after its eigenvalues
have been matched against the sphere preset.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

from .forms import OperatorPoly, UsageError

KINDS = ("exact", "coexact", "harmonic")


class SpectralPoint:
    __slots__ = ("kind", "eigenvalue", "multiplicity")

    def __init__(self, kind: str, eigenvalue: Fraction, multiplicity: int) -> None:
        if kind not in KINDS:
            raise UsageError(f"unknown point kind {kind!r}")
        if kind == "harmonic" and eigenvalue != 0:
            raise UsageError("harmonic points carry eigenvalue 0")
        if multiplicity < 0:
            raise UsageError("negative multiplicity")
        self.kind = kind
        self.eigenvalue = eigenvalue
        self.multiplicity = multiplicity


class SpectralModel:
    __slots__ = ("n", "k", "j_value", "points", "source")

    def __init__(self, n: int, k: int, j_value: Fraction, points: tuple[SpectralPoint, ...],
                 source: str = "synthetic") -> None:
        self.n = n
        self.k = k
        self.j_value = j_value
        self.points = points
        self.source = source  # synthetic | sphere-preset | torus-preset | dec-import

    def as_json(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "k": self.k,
            "j_value": str(self.j_value),
            "points": [
                {"kind": p.kind, "eigenvalue": str(p.eigenvalue), "multiplicity": p.multiplicity}
                for p in self.points
            ],
            "source": self.source,
        }

    @staticmethod
    def from_json(data: dict) -> SpectralModel:
        if data.get("schema") != 1:
            raise UsageError(f"unsupported spectral model schema {data.get('schema')!r}")
        pts = tuple(
            SpectralPoint(p["kind"], Fraction(p["eigenvalue"]), int(p["multiplicity"]))
            for p in data["points"]
        )
        return SpectralModel(int(data["n"]), int(data["k"]), Fraction(data["j_value"]),
                             pts, data.get("source", "synthetic"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.as_json(), indent=2, sort_keys=True) + "\n")

    @staticmethod
    def load(path: str | Path) -> SpectralModel:
        return SpectralModel.from_json(json.loads(Path(path).read_text()))


def kernel_dim(op: OperatorPoly, model: SpectralModel) -> int:
    """Sum of multiplicities over model points annihilated by the operator."""
    return sum(pt.multiplicity for pt in model.points
               if op.kills(pt.kind, model.j_value, pt.eigenvalue))


# -- presets -----------------------------------------------------------------


def _coexact_multiplicity(n: int, k: int, j: int) -> int:
    """Dimension of the level-j coexact k-eigenforms on S^n (Weyl dimension formula)."""
    return (math.factorial(j + n - 1) * (2 * j + n - 1)
            // (math.factorial(k) * math.factorial(n - k - 1) * math.factorial(j - 1)
                * (j + k) * (j + n - k - 1)))


def sphere_preset(n: int, k: int, j_max: int) -> SpectralModel:
    """Unit round S^n model on k-forms, shells 1..j_max, J = n/2.

    Ikeda and Taniguchi (Osaka J. Math. 15, 1978): coexact k-forms at
    level j >= 1 have eigenvalue (j+k)(j+n-k-1); exact k-forms are d of
    the coexact (k-1)-forms, with eigenvalue (j+k-1)(j+n-k) and the same
    multiplicity.  One harmonic form at k = 0 and one at k = n.  Points
    come harmonic first, then the exact shells, then the coexact shells,
    each lowest level first.
    """
    if n < 2 or not 0 <= k <= n:
        raise UsageError(f"no sphere model for n = {n}, k = {k}: needs n >= 2 and 0 <= k <= n")
    levels = range(1, j_max + 1)
    points = [SpectralPoint("harmonic", Fraction(0), 1)] if k in (0, n) else []
    if k >= 1:
        points += [SpectralPoint("exact", Fraction((j + k - 1) * (j + n - k)),
                                 _coexact_multiplicity(n, k - 1, j)) for j in levels]
    if k <= n - 1:
        points += [SpectralPoint("coexact", Fraction((j + k) * (j + n - k - 1)),
                                 _coexact_multiplicity(n, k, j)) for j in levels]
    return SpectralModel(n, k, Fraction(n, 2), tuple(points), "sphere-preset")


def torus_preset(n: int, k: int, max_norm_sq: int) -> SpectralModel:
    """Flat torus model (2*pi-periodic): eigenvalues |xi|^2 up to a cutoff.

    The lattice modes xi in Z^n with 0 < |xi|^2 <= max_norm_sq are counted
    by norm in one pass over a cube.  Per mode, a k-form space splits into
    an exact part of dimension C(n-1, k-1) and a coexact part of dimension
    C(n-1, k); harmonic forms are the constants, C(n, k) of them.  J = 0.
    """
    bound = math.isqrt(max_norm_sq)
    norms = (sum(x * x for x in xi) for xi in itertools.product(range(-bound, bound + 1), repeat=n))
    counts = collections.Counter(m for m in norms if 0 < m <= max_norm_sq)
    points = [SpectralPoint("harmonic", Fraction(0), math.comb(n, k))]
    for m, r in sorted(counts.items()):
        if k >= 1:
            points.append(SpectralPoint("exact", Fraction(m), r * math.comb(n - 1, k - 1)))
        if k <= n - 1:
            points.append(SpectralPoint("coexact", Fraction(m), r * math.comb(n - 1, k)))
    return SpectralModel(n, k, Fraction(0), tuple(points), "torus-preset")


def synthetic_model(n: int, k: int, ell: int, j_value: Fraction) -> SpectralModel:
    """Deterministic synthetic model adapted to one operator's factor list.

    Includes every nonzero factor root that exactly one factor kills
    (spectral coincidences between factors are omitted: the
    decomposition theorems presume per-kind distinctness, and the
    verifier reports coincidences rather than asserting an outcome),
    plus harmonic content and three off-kernel noise points.  A factor
    a E + b F + c J with c != 0 has the roots -cJ/b (coexact) and -cJ/a
    (exact), placed in that order and read from its numerators: with
    J = p/q, -cJ/b = -(c_num p) / (q f_nums[0]).  Which factors kill a
    point is asked of each factor, ``OperatorPoly.kills``.
    """
    import random

    from .factory import closed_factors

    rng = random.Random((n * 1009 + k * 101 + ell * 11) & 0x7FFFFFFF)
    factors = closed_factors(n, k, ell)

    def killers(kind: str, lam: Fraction) -> int:
        return sum(f.kills(kind, j_value, lam) for f in factors)

    points: list[SpectralPoint] = []
    seen: set[tuple[str, int, int]] = set()  # (kind, lam) by integers: a Fraction hashes slowly

    if killers("harmonic", Fraction(0)) <= 1:
        points.append(SpectralPoint("harmonic", Fraction(0), rng.randint(1, 4)))

    roots = [(kind, Fraction(-f.c_num * j_value.numerator, j_value.denominator * side[0]))
             for f in factors if f.c_num and j_value
             for kind, side in (("coexact", f.f_nums), ("exact", f.e_nums)) if side]
    for kind, lam in roots:
        if (kind, lam.numerator, lam.denominator) not in seen and killers(kind, lam) == 1:
            points.append(SpectralPoint(kind, lam, rng.randint(1, 5)))
            seen.add((kind, lam.numerator, lam.denominator))

    noise = 0
    step = 0
    while noise < 3 and step < 200:
        step += 1
        kind = rng.choice(("exact", "coexact"))
        a, b = rng.randint(1, 60), rng.randint(1, 7)
        q = j_value.denominator * b  # lam = J a/b + step, over q
        lam = Fraction(j_value.numerator * a + step * q, q)
        if lam == 0 or (kind, lam.numerator, lam.denominator) in seen:
            continue
        if killers(kind, lam) <= 1:
            points.append(SpectralPoint(kind, lam, rng.randint(1, 3)))
            seen.add((kind, lam.numerator, lam.denominator))
            noise += 1
    return SpectralModel(n, k, j_value, tuple(points), "synthetic")
