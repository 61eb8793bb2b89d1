"""Generic exterior-algebra constructors: the tests' reference for the flat-torus oracle.

Each matrix is built entry by entry on numpy object arrays of Python
ints, straight from the definitions: exterior multiplication inserts a
vector with the sign of sorted insertion, interior multiplication
contracts the first slot, and a matrix on R^dims acts on Lambda^k as a
derivation.  ``formlap.torus`` builds the same operators from one
signed insertion table; the tests compare the two constructions.
"""

import numpy as np

from formlap.torus import wedge_basis


def _obj(shape) -> np.ndarray:
    return np.zeros(shape, dtype=object)


def _insert(direction, tup):
    """Sorted insertion with sign, or None when the direction is present."""
    if direction in tup:
        return None
    pos = sum(1 for t in tup if t < direction)
    return (-1) ** pos, tuple(sorted(tup + (direction,)))


def eps_matrix(dims, k, vector):
    """Exterior multiplication by a vector, Lambda^k -> Lambda^(k+1)."""
    bin_, bout = wedge_basis(dims, k), wedge_basis(dims, k + 1)
    idx = {t: i for i, t in enumerate(bout)}
    m = _obj((len(bout), len(bin_)))
    for col, tup in enumerate(bin_):
        for direction, v in enumerate(vector):
            ins = _insert(direction, tup)
            if v != 0 and ins:
                sign, out = ins
                m[idx[out], col] += sign * v
    return m


def iota_matrix(dims, k, vector):
    """Interior multiplication (first-slot contraction), Lambda^k -> Lambda^(k-1)."""
    bin_, bout = wedge_basis(dims, k), wedge_basis(dims, k - 1)
    idx = {t: i for i, t in enumerate(bout)}
    m = _obj((len(bout), len(bin_)))
    for col, tup in enumerate(bin_):
        for pos, direction in enumerate(tup):
            rest = tup[:pos] + tup[pos + 1:]
            m[idx[rest], col] += (-1) ** pos * vector[direction]
    return m


def derivation_matrix(a, dims, k):
    """Extension of a matrix on R^dims to Lambda^k as a derivation.

    Replacing the vector in slot j by e_t and resorting costs the sign
    (-1)**j times the sorted-insertion sign of t into the other slots.
    """
    basis = wedge_basis(dims, k)
    idx = {t: i for i, t in enumerate(basis)}
    m = _obj((len(basis), len(basis)))
    for col, tup in enumerate(basis):
        for pos, s in enumerate(tup):
            for t in range(dims):
                c = a[t, s]
                if c == 0:
                    continue
                if t == s:
                    m[col, col] += c
                    continue
                if t in tup:
                    continue
                rest = tup[:pos] + tup[pos + 1:]
                sign, out = _insert(t, rest)
                m[idx[out], col] += c * sign * (-1) ** pos
    return m


def tractor_gammas(n):
    """Flat standard-tractor connection matrices on R^(n+2), one per coordinate direction.

    Directions: 0 is e_Y, 1..n the middle block, n+1 is e_X.
    """
    gammas = []
    for p in range(n):
        g = _obj((n + 2, n + 2))
        g[0, p + 1] = -1      # e_b -> -delta_pb e_Y
        g[p + 1, n + 1] = 1   # e_X -> e_p
        gammas.append(g)
    return gammas


def z_embed(n, k):
    """Middle-block embedding of k-forms into tractor k-forms."""
    fb, tb = wedge_basis(n, k), wedge_basis(n + 2, k)
    idx = {t: i for i, t in enumerate(tb)}
    m = _obj((len(tb), len(fb)))
    for col, tup in enumerate(fb):
        m[idx[tuple(t + 1 for t in tup)], col] = 1
    return m
