"""Flat-torus matrix oracle for the tractor pipeline, one Fourier mode at a time.

On the flat n-torus (an Einstein space with J = 0) every operator in
the pipeline acts mode by mode as a finite matrix: d is i times
exterior multiplication by the mode vector xi, the codifferential is -i
times contraction, and the tractor bundle is the rank n+2 space spanned
by a null direction e_Y, the middle block e_1..e_n and a second null
direction e_X, with the flat connection

    grad_p e_Y = 0,   grad_p e_b = -delta_pb e_Y,   grad_p e_X = e_p

extended to tractor k-forms as a derivation Gamma_p.  The coupled box
is minus the mode Laplacian sum_p (i xi_p + Gamma_p)^2; the weight term
vanishes because J = 0.  None of the slotwise component formulas of
the symbolic engine enter anywhere here, so exact agreement of the two
pipelines is independent evidence, not a tautology.

All matrices are exact integer matrices.  Gamma_p raises the grading
g(t) = [e_Y in t] - [e_X in t] of a tractor basis k-tuple t by one, so
the diagonal similarity S = diag(i^g) carries i xi_p + Gamma_p to
i (xi_p + Gamma_p), and

    S box S^-1 = |xi|^2 + 2 sum_p xi_p Gamma_p + sum_p Gamma_p^2

is a real integer matrix.  The splitting embedding carries the 1/k of
the valence-normalised projector convention (it drops out of every
observable comparison), so 2k S split is an integer matrix.  S is the
identity on the middle block (g = 0), where the rows of
2k S box^ell split are twice the operator's mode matrix.  On the
symbolic side E = eps(xi) iota(xi) and F = iota(xi) eps(xi) are integer
matrices with E^2 = |xi|^2 E and F^2 = |xi|^2 F, so the expanded
operator is a + b E + c F with (a, b, c) = ``OperatorPoly.at(0, |xi|^2)``,
and D times it is an integer matrix for D the common denominator of
a, b and c.  The comparison is D times those middle rows against 2 times
D times the expanded operator, entry by entry.

Products run in int64 only when an a-priori bound keeps every entry
and partial sum below 2^62; otherwise the same products run on numpy
object arrays of Python ints, so nothing wraps around.  The matrices
that do not depend on the mode (the Gamma_p, sum Gamma_p^2, exterior
and interior multiplication by each coordinate vector, the middle-block
and bottom-slot embeddings, the slot row blocks) are built once per
(n, k); S itself is never formed, since it is folded into
``box_matrix`` and ``splitting_matrix``.
``CMat`` and ``mode_matrices`` keep the Gaussian-rational form of the
same operators, against which the tests check the similarity; the
oracle does not use them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .forms import InternalConsistencyError, OperatorPoly


def _obj(shape) -> np.ndarray:
    return np.zeros(shape, dtype=object)


@dataclass(frozen=True)
class CMat:
    """Exact complex matrix: object arrays of Python ints / Fractions."""

    re: np.ndarray
    im: np.ndarray

    @staticmethod
    def real(mat: np.ndarray) -> CMat:
        return CMat(mat, _obj(mat.shape))

    @staticmethod
    def zero(rows: int, cols: int) -> CMat:
        return CMat(_obj((rows, cols)), _obj((rows, cols)))

    @staticmethod
    def eye(dim: int) -> CMat:
        m = _obj((dim, dim))
        for i in range(dim):
            m[i, i] = 1
        return CMat(m, _obj((dim, dim)))

    def __add__(self, other: CMat) -> CMat:
        return CMat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: CMat) -> CMat:
        return CMat(self.re - other.re, self.im - other.im)

    def __matmul__(self, other: CMat) -> CMat:
        return CMat(self.re @ other.re - self.im @ other.im,
                    self.re @ other.im + self.im @ other.re)

    def scale(self, c) -> CMat:
        return CMat(self.re * c, self.im * c)

    def scale_imag(self, c) -> CMat:
        """Multiply by i*c for exact real c."""
        return CMat(self.im * (-c), self.re * c)

    @property
    def is_real(self) -> bool:
        return not np.any(self.im != 0)

    @property
    def is_zero(self) -> bool:
        return not (np.any(self.re != 0) or np.any(self.im != 0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CMat):
            return NotImplemented
        return bool(np.all(self.re == other.re) and np.all(self.im == other.im))

    __hash__ = None  # type: ignore[assignment]


def wedge_basis(dims: int, k: int) -> list[tuple[int, ...]]:
    if k < 0 or k > dims:
        return []
    return list(itertools.combinations(range(dims), k))


def _insert(direction: int, tup: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sorted insertion with sign, or None when the direction is present."""
    if direction in tup:
        return None
    pos = sum(1 for t in tup if t < direction)
    out = tuple(sorted(tup + (direction,)))
    return (-1) ** pos, out


def eps_matrix(dims: int, k: int, vector: list) -> np.ndarray:
    """Exterior multiplication by a vector with exact entries, Lambda^k -> Lambda^(k+1)."""
    bin_, bout = wedge_basis(dims, k), wedge_basis(dims, k + 1)
    idx = {t: i for i, t in enumerate(bout)}
    m = _obj((len(bout), len(bin_)))
    for col, tup in enumerate(bin_):
        for direction, v in enumerate(vector):
            if v == 0:
                continue
            ins = _insert(direction, tup)
            if ins:
                sign, out = ins
                m[idx[out], col] += sign * v
    return m


def iota_matrix(dims: int, k: int, vector: list) -> np.ndarray:
    """Interior multiplication (first-slot contraction), Lambda^k -> Lambda^(k-1)."""
    bin_, bout = wedge_basis(dims, k), wedge_basis(dims, k - 1)
    idx = {t: i for i, t in enumerate(bout)}
    m = _obj((len(bout), len(bin_)))
    for col, tup in enumerate(bin_):
        for pos, direction in enumerate(tup):
            v = vector[direction]
            if v == 0:
                continue
            rest = tup[:pos] + tup[pos + 1 :]
            m[idx[rest], col] += (-1) ** pos * v
    return m


def derivation_matrix(a: np.ndarray, dims: int, k: int) -> np.ndarray:
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
                rest = tup[:pos] + tup[pos + 1 :]
                sign, out = _insert(t, rest)
                m[idx[out], col] += c * sign * (-1) ** pos
    return m


def mode_matrices(n: int, k: int, xi: tuple[int, ...]) -> tuple[CMat, CMat]:
    """d = i eps(xi) on k-forms and codifferential = -i iota(xi) on k-forms."""
    d = CMat(_obj((len(wedge_basis(n, k + 1)), len(wedge_basis(n, k)))),
             eps_matrix(n, k, list(xi)))
    delta = CMat(_obj((len(wedge_basis(n, k - 1)), len(wedge_basis(n, k)))),
                 -iota_matrix(n, k, list(xi)))
    return d, delta


# -- flat tractor pipeline ----------------------------------------------------
#
# Tractor directions: 0 is the null direction e_Y, 1..n the middle block
# (form direction b maps to b+1), n+1 the null direction e_X.

_LIMIT = 1 << 62


def _exact(bound: int):
    """int64 when integers up to ``bound`` (entries and partial sums) fit, else Python ints."""
    return np.int64 if bound < _LIMIT else object


def _absmax(mat: np.ndarray) -> int:
    return int(np.abs(mat).max(initial=0))


def _int(mats) -> np.ndarray:
    """Read-only int64 array of small exact integer matrices."""
    out = np.array(mats, dtype=np.int64)
    out.flags.writeable = False
    return out


def _unit(dims: int, p: int) -> list[int]:
    return [int(i == p) for i in range(dims)]


def tractor_gammas(n: int) -> list[np.ndarray]:
    """Flat standard-tractor connection matrices, one per coordinate direction."""
    gammas = []
    for p in range(n):
        g = _obj((n + 2, n + 2))
        g[0, p + 1] = -1      # e_b -> -delta_pb e_Y
        g[p + 1, n + 1] = 1   # e_X -> e_p
        gammas.append(g)
    return gammas


@lru_cache(maxsize=None)
def _connection(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gamma_p on tractor k-forms stacked (n, dim, dim), and sum_p Gamma_p^2."""
    gammas = _int([derivation_matrix(g, n + 2, k) for g in tractor_gammas(n)])
    return gammas, _int((gammas @ gammas).sum(axis=0))


@lru_cache(maxsize=None)
def _eps_stack(n: int, k: int) -> np.ndarray:
    """Exterior multiplication by e_p, Lambda^k(R^n) -> Lambda^(k+1), stacked over p."""
    return _int([eps_matrix(n, k, _unit(n, p)) for p in range(n)])


@lru_cache(maxsize=None)
def _iota_stack(n: int, k: int) -> np.ndarray:
    """Interior multiplication by e_p, Lambda^k(R^n) -> Lambda^(k-1), stacked over p."""
    return _int([iota_matrix(n, k, _unit(n, p)) for p in range(n)])


@lru_cache(maxsize=None)
def _embeddings(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Z_k and eps(e_X) Z_(k-1): the middle-block and bottom-slot embeddings."""
    eps_x = eps_matrix(n + 2, k - 1, _unit(n + 2, n + 1))
    return _int(z_embed(n, k)), _int(eps_x @ z_embed(n, k - 1))


def _mode_vector(n: int, xi: tuple[int, ...]) -> np.ndarray:
    """xi as int64, or as Python ints when the mode-linear blocks might not fit.

    With s = sum |xi_p|, every entry and partial sum of box_matrix, its
    row sums, E, F and the bottom-slot part of the splitting is at most
    (s + n)^2 * 2^(n+2).
    """
    xi = [int(x) for x in xi]
    s = sum(abs(x) for x in xi)
    return np.array(xi, dtype=_exact((s + n) ** 2 << (n + 2)))


def _along(x: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_p x_p stack[p] in the dtype of x."""
    return np.tensordot(x, stack.astype(x.dtype, copy=False), axes=1)


def z_embed(n: int, k: int) -> np.ndarray:
    """Middle-block embedding of k-forms into tractor k-forms."""
    fb = wedge_basis(n, k)
    tb = wedge_basis(n + 2, k)
    idx = {t: i for i, t in enumerate(tb)}
    m = _obj((len(tb), len(fb)))
    for col, tup in enumerate(fb):
        m[idx[tuple(t + 1 for t in tup)], col] = 1
    return m


@lru_cache(maxsize=None)
def _row_blocks(n: int, k: int) -> dict[str, np.ndarray]:
    """Partition of the tractor k-form basis into slot row blocks (read-only index arrays)."""
    blocks: dict[str, list[int]] = {"z": [], "y": [], "x": [], "w": []}
    for i, tup in enumerate(wedge_basis(n + 2, k)):
        has_y_dir = 0 in tup
        has_x_dir = (n + 1) in tup
        if has_y_dir and has_x_dir:
            blocks["w"].append(i)
        elif has_y_dir:
            blocks["y"].append(i)   # carries the top slot (coefficient 1/k)
        elif has_x_dir:
            blocks["x"].append(i)   # carries the bottom slot
        else:
            blocks["z"].append(i)
    return {name: _int(rows) for name, rows in blocks.items()}


def box_matrix(n: int, k: int, xi: tuple[int, ...]) -> np.ndarray:
    """S (box) S^-1 = |xi|^2 + 2 sum xi_p Gamma_p + sum Gamma_p^2 on tractor k-forms (J = 0)."""
    x = _mode_vector(n, xi)
    gammas, gamma_sq = _connection(n, k)
    box = 2 * _along(x, gammas) + gamma_sq.astype(x.dtype)
    box[np.diag_indices_from(box)] += int(x @ x)
    return box


def splitting_matrix(n: int, k: int, w: Fraction, xi: tuple[int, ...]) -> np.ndarray:
    """2k S times the splitting operator's mode matrix, k-forms to tractor k-forms.

    The splitting is (n + w - 2k)/k Z_k + (1/k) eps(e_X) Z_(k-1) delta with
    delta = -i iota(xi); S is -i on the e_X rows, so the result is
    2(n + w - 2k) Z_k - 2 eps(e_X) Z_(k-1) iota(xi).
    """
    top = 2 * (n + Fraction(w) - 2 * k)
    if top.denominator != 1:
        raise InternalConsistencyError(f"weight {w} is not a half-integer")
    x = _mode_vector(n, xi)
    z_k, eps_z = _embeddings(n, k)
    return (z_k.astype(x.dtype) * int(top)
            - 2 * (eps_z.astype(x.dtype) @ _along(x, _iota_stack(n, k))))


def pipeline_matrix(n: int, k: int, ell: int, xi: tuple[int, ...]) -> np.ndarray:
    """2k S box^ell split at the operator weight: the flat pipeline as an integer matrix.

    The ell products run in int64 when ||S box S^-1||_inf^ell * max|entry
    of the splitting| < 2^62, which bounds every entry and partial sum;
    otherwise on Python ints.
    """
    from .factory import operator_weight

    out = splitting_matrix(n, k, operator_weight(n, k, ell), xi)
    box = box_matrix(n, k, xi)
    row_norm = int(np.abs(box).sum(axis=1).max(initial=0))
    if row_norm ** ell * _absmax(out) >= _LIMIT:
        box, out = box.astype(object), out.astype(object)
    for _ in range(ell):
        out = box @ out
    return out


def pipeline_L_numeric(n: int, k: int, ell: int,
                       xi: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Exact mode matrix of the operator from the flat pipeline, as (M, 2): it is M / 2.

    M is the middle block of ``pipeline_matrix``, where S is the
    identity.  Raises unless the top and second slot blocks vanish.
    """
    full = pipeline_matrix(n, k, ell, xi)
    blocks = _row_blocks(n, k)
    for name in ("y", "w"):
        if np.any(full[blocks[name]] != 0):
            raise InternalConsistencyError(f"nonvanishing {name!r} slot block at xi = {xi}")
    return full[blocks["z"]], 2


def symbolic_mode_matrix(op: OperatorPoly, n: int, k: int,
                         xi: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Mode matrix of an expanded operator at J = 0, as (M, D): it is M / D.

    With E = eps(xi) iota(xi), F = iota(xi) eps(xi) and
    (a, b, c) = op.at(0, |xi|^2), the matrix is a I + b E + c F; D is the
    common denominator of a, b and c, so M = D (a I + b E + c F) is an
    integer matrix.
    """
    x = _mode_vector(n, xi)
    coeffs = op.at(Fraction(0), int(x @ x))
    den = math.lcm(*(v.denominator for v in coeffs))
    a, b, c = (int(v * den) for v in coeffs)
    e_mat = _along(x, _eps_stack(n, k - 1)) @ _along(x, _iota_stack(n, k))
    f_mat = _along(x, _iota_stack(n, k + 1)) @ _along(x, _eps_stack(n, k))
    dtype = _exact(abs(a) + abs(b) * _absmax(e_mat) + abs(c) * _absmax(f_mat))
    out = e_mat.astype(dtype) * b + f_mat.astype(dtype) * c
    out[np.diag_indices_from(out)] += a
    return out, den


def _times(mat: np.ndarray, c: int) -> np.ndarray:
    """mat * c exactly: int64 when the product fits, else Python ints."""
    if _absmax(mat) * abs(c) >= _LIMIT:
        mat = mat.astype(object)
    return mat * c


def random_modes(n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """count seeded modes with entries in -3..3."""
    rng = random.Random(seed * 7919 + n)
    return [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(count)]


def compare_pipelines(n: int, k: int, ell: int, modes: list[tuple[int, ...]]) -> dict:
    """Exact per-mode comparison of the two pipelines at J = 0.

    The discrepancy entry is the number of differing matrix entries,
    which must be 0 on pass.
    """
    from .factory import build_L_definition

    op = build_L_definition(n, k, ell)
    per_mode = []
    worst = 0
    for xi in modes:
        numeric, two = pipeline_L_numeric(n, k, ell, xi)
        symbolic, den = symbolic_mode_matrix(op, n, k, xi)
        mismatches = int(np.sum(_times(numeric, den) != _times(symbolic, two)))
        worst = max(worst, mismatches)
        per_mode.append({"xi": list(xi), "mismatched_entries": mismatches})
    return {"n": n, "k": k, "ell": ell, "modes": per_mode,
            "max_discrepancy": worst, "status": "pass" if worst == 0 else "fail"}
