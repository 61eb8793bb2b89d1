"""Representation-theoretic counts on the round sphere: the tests' reference for its spectrum.

S^n = SO(n+1)/SO(n).  The coexact k-eigenforms of level j >= 1 carry the
SO(n+1) representation of highest weight (j, 1^p), p = min(k, n-1-k)
(the Hodge star maps coexact k-forms onto coexact (n-1-k)-forms).  When
n + 1 = 2p + 2 that weight reaches the last coordinate of D_{p+1}, and
the space is the sum of (j, 1^p) and its mirror (j, 1^(p-1), -1), of
equal dimension.  The Hodge Laplacian acts there as the Casimir.

``formlap.spectral`` computes the same numbers by closed product
formulas; the tests compare the two.
"""

import math
from fractions import Fraction


def _highest_weight(n: int, k: int, j: int) -> tuple[int, ...]:
    """(j, 1^p) padded with zeros to the rank of SO(n+1)."""
    p = min(k, n - 1 - k)
    rank = (n + 1) // 2
    return (j,) + (1,) * p + (0,) * (rank - 1 - p)


def weyl_dimension(n: int, k: int, j: int) -> int:
    """Dimension of the level-j coexact k-eigenforms on S^n by the Weyl dimension formula.

    With rho the half-sum of positive roots and l = lambda + rho, the
    dimension is the product over positive roots of <l, a> / <rho, a>:
    over i < m of (l_i^2 - l_m^2)/(rho_i^2 - rho_m^2) for SO(2r), times
    l_i/rho_i over i as well for SO(2r+1).
    """
    lam = _highest_weight(n, k, j)
    rank = len(lam)
    rho = [Fraction(n + 1, 2) - i for i in range(1, rank + 1)]
    shifted = [x + r for x, r in zip(lam, rho)]
    dim = Fraction(1)
    for i in range(rank):
        for m in range(i + 1, rank):
            dim *= (shifted[i] ** 2 - shifted[m] ** 2) / (rho[i] ** 2 - rho[m] ** 2)
        if n % 2 == 0:  # SO(2r+1) also has the short roots e_i
            dim *= shifted[i] / rho[i]
    assert dim.denominator == 1
    twice = n % 2 == 1 and 2 * k == n - 1
    return int(dim) * (2 if twice else 1)


def casimir(n: int, k: int, j: int) -> int:
    """<lambda, lambda + 2 rho> at the highest weight of the level-j coexact k-eigenforms."""
    lam = _highest_weight(n, k, j)
    return sum(x * (x + n + 1 - 2 * i) for i, x in enumerate(lam, start=1))


def harmonic_polynomials(n: int, j: int) -> int:
    """Dimension of the homogeneous harmonic polynomials of degree j on R^(n+1)."""
    return math.comb(n + j, n) - math.comb(n + j - 2, n)
