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

Every matrix comes from one primitive, the signed insertion t -> e_a ^ t
on the basis of Lambda^k(R^m): one target row and one sign per direction
a and column t.  eps(e_a) is one scatter of it, iota(e_a) = eps(e_a)^T,
and a rank-one map u v^T acts on forms as the derivation eps(u) iota(v),
so

    Gamma_p = eps(e_p) iota(e_X) - eps(e_Y) iota(e_p)

sends each basis form to at most one basis form, found by two index
maps (e_X -> e_p, then e_p -> -e_Y).  The middle-block embedding Z_k is
a column selection and eps(e_X) Z_(k-1) a row scatter.

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
object arrays of Python ints, so nothing wraps around.  The insertion
tables, the Gamma_p index maps, sum Gamma_p^2 and the slot row blocks
are built once per (n, k); S itself is never formed, since it is
folded into ``box_matrix`` and ``splitting_matrix``.  ``CMat`` and
``mode_matrices`` give the Gaussian-rational form of d and the
codifferential for the tests; the oracle does not use them.
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


def _int(mats) -> np.ndarray:
    """Read-only int64 array of small exact integer matrices."""
    out = np.array(mats, dtype=np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _insertion(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """e_a ^ t on the basis of Lambda^k(R^m): target rows and signs, each (m, C(m, k)).

    The sign is (-1)^(entries of t below a), and 0 (row 0) when a is in t.
    """
    idx = {t: i for i, t in enumerate(wedge_basis(m, k + 1))}
    basis = wedge_basis(m, k)
    rows = np.zeros((m, len(basis)), dtype=np.int64)
    signs = np.zeros((m, len(basis)), dtype=np.int64)
    for col, tup in enumerate(basis):
        for a in range(m):
            if a not in tup:
                rows[a, col] = idx[tuple(sorted(tup + (a,)))]
                signs[a, col] = (-1) ** sum(t < a for t in tup)
    return _int(rows), _int(signs)


def _eps(x: np.ndarray, k: int) -> np.ndarray:
    """eps(x) = sum_a x_a eps(e_a), Lambda^k(R^m) -> Lambda^(k+1), m = len(x), in x's dtype."""
    rows, signs = _insertion(len(x), k)
    out = np.zeros((math.comb(len(x), k + 1), rows.shape[1]), dtype=x.dtype)
    a, col = np.nonzero(signs)
    out[rows[a, col], col] = x[a] * signs[a, col]
    return out


def mode_matrices(n: int, k: int, xi: tuple[int, ...]) -> tuple[CMat, CMat]:
    """d = i eps(xi) on k-forms and codifferential = -i iota(xi) on k-forms."""
    x = np.array([int(v) for v in xi], dtype=object)
    d, lower = _eps(x, k), _eps(x, k - 1)
    return CMat(_obj(d.shape), d), CMat(_obj(lower.T.shape), -lower.T)


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


@lru_cache(maxsize=None)
def _connection(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gamma_p on tractor k-forms as index maps, and sum_p Gamma_p^2.

    Gamma_p e_t = signs[p, t] e_rows[p, t] (rows and signs are (n, dim)).
    eps(e_a) iota(e_b) sends e_b ^ s to e_a ^ s for each (k-1)-form s
    lacking e_a and e_b; the two terms of Gamma_p, (a, b) = (p, X) and
    -(Y, p), act on disjoint columns (with e_X but not e_p; with e_p).
    """
    ins_rows, ins_signs = _insertion(n + 2, k - 1)
    dim = math.comb(n + 2, k)
    rows = np.zeros((n, dim), dtype=np.int64)
    signs = np.zeros((n, dim), dtype=np.int64)
    for p in range(n):
        for a, b, sign in ((p + 1, n + 1, 1), (0, p + 1, -1)):
            s = np.flatnonzero(ins_signs[a] * ins_signs[b])
            rows[p, ins_rows[b, s]] = ins_rows[a, s]
            signs[p, ins_rows[b, s]] = sign * ins_signs[a, s] * ins_signs[b, s]
    square = np.zeros((dim, dim), dtype=np.int64)
    np.add.at(square, (np.take_along_axis(rows, rows, axis=1), np.arange(dim)),
              signs * np.take_along_axis(signs, rows, axis=1))
    return _int(rows), _int(signs), _int(square)


def _mode_vector(n: int, xi: tuple[int, ...]) -> np.ndarray:
    """xi as int64, or as Python ints when the mode-linear blocks might not fit.

    With s = sum |xi_p|, every entry and partial sum of box_matrix, its
    row sums, E, F and the bottom-slot part of the splitting is at most
    (s + n)^2 * 2^(n+2).
    """
    xi = [int(x) for x in xi]
    s = sum(abs(x) for x in xi)
    return np.array(xi, dtype=_exact((s + n) ** 2 << (n + 2)))


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
    rows, signs, square = _connection(n, k)
    box = square.astype(x.dtype)
    np.add.at(box, (rows, np.arange(box.shape[1])), 2 * x[:, None] * signs)
    box[np.diag_indices_from(box)] += int(x @ x)
    return box


def splitting_matrix(n: int, k: int, w: Fraction, xi: tuple[int, ...]) -> np.ndarray:
    """2k S times the splitting operator's mode matrix, k-forms to tractor k-forms.

    The splitting is (n + w - 2k)/k Z_k + (1/k) eps(e_X) Z_(k-1) delta with
    delta = -i iota(xi); S is -i on the e_X rows, so the result is
    2(n + w - 2k) Z_k - 2 eps(e_X) Z_(k-1) iota(xi).  Z_k puts the form
    basis on the middle row block; eps(e_X) Z_(k-1) sends row i of
    iota(xi) to the row of e_X ^ (the i-th middle (k-1)-form), with its sign.
    """
    top = 2 * (n + Fraction(w) - 2 * k)
    if top.denominator != 1:
        raise InternalConsistencyError(f"weight {w} is not a half-integer")
    x = _mode_vector(n, xi)
    middle, lower = _row_blocks(n, k)["z"], _row_blocks(n, k - 1)["z"]
    rows, signs = _insertion(n + 2, k - 1)
    out = np.zeros((math.comb(n + 2, k), len(middle)), dtype=x.dtype)
    out[middle, np.arange(len(middle))] = int(top)
    out[rows[n + 1, lower]] = -2 * signs[n + 1, lower, None] * _eps(x, k - 1).T
    return out


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
    lower, upper = _eps(x, k - 1), _eps(x, k)
    e_mat, f_mat = lower @ lower.T, upper.T @ upper
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
