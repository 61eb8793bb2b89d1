"""Flat-torus matrix oracle for the tractor pipeline, all Fourier modes of a cell at once.

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

sends each basis form to at most one basis form, and no two to the same
one: a signed index map, found by two index maps (e_X -> e_p, then
e_p -> -e_Y).  Both routes of Gamma_p^2 replace e_X by e_Y, whatever p,
so Q = sum_p Gamma_p^2 is one signed index map too, its coefficient the
sum over p.  The middle-block embedding Z_k is a column selection and
eps(e_X) Z_(k-1) a row scatter.

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
symbolic side E = eps(xi) iota(xi) is an integer matrix, q = |xi|^2
times the projection onto the mode's exact forms, and F = q - E
(eps iota + iota eps = q).  So the expanded operator acts as its
exact scalar s_ex = ``OperatorPoly.on_eigenspace("exact", 0, q)`` on
E's image and as its coexact scalar s_co on E's kernel: it is
s_co + ((s_ex - s_co) / q) E, and s_co at xi = 0, where E = 0.  D times
it is an integer matrix M for D the common denominator of the two
coefficients.  The comparison is exact division, entry by entry: D
must divide 2M, and 2M / D must equal those middle rows.

The oracle never forms a dense box.  A cell's modes run as one
(modes, rows, columns) integer block, and each box step multiplies it
by the block-diagonal sparse matrix of the cell's boxes
|xi|^2 + 2 sum_p xi_p Gamma_p + Q, assembled from the index maps: at
most n + 2 products per entry where a dense product takes C(n+2, k).
E is a Gram product of eps(xi), a sum of sign * xi_a * xi_b over the
pairs of insertions that share their source; those pairs are tabulated
once per (n, k) and evaluated for all modes together.

Each row of Gamma_p and of Q holds at most one entry, so the box's
absolute row sums are at most |xi|^2 + 2 sum |xi_p| + max |Q| for every
mode.  A cell's products run in int64 only when that bound, taken over
all its modes, to the power ell times the largest splitting entry is
below 2^62, which bounds every entry and partial sum; otherwise the
whole cell runs on numpy object arrays of Python ints (the sparse
product then runs as row sums of gathered rows), so nothing wraps
around.  M runs in int64 when its entries and partial sums are below
2^62, so 2M fits too, and D when it is below 2^62.  The insertion
tables, the Gamma_p and Q maps, the box's sparse pattern, the E pair
table and the slot row blocks are built once per (n, k); the
similarity S is never formed, since it is folded into the box and the
splitting.  ``box_matrix`` (the dense box of one mode) and ``CMat`` are
references for the tests; the oracle does not use them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse

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
    """eps(x) = sum_a x_a eps(e_a), Lambda^k(R^m) -> Lambda^(k+1), for each row x of (..., m).

    The result has shape (..., C(m, k+1), C(m, k)) and x's dtype.
    """
    m = x.shape[-1]
    rows, signs = _insertion(m, k)
    out = np.zeros(x.shape[:-1] + (math.comb(m, k + 1), rows.shape[1]), dtype=x.dtype)
    a, col = np.nonzero(signs)
    out[..., rows[a, col], col] = x[..., a] * signs[a, col]
    return out


@lru_cache(maxsize=None)
def _gram_pairs(m: int, k: int) -> tuple[np.ndarray, ...]:
    """Where eps(x) iota(x) on Lambda^(k+1)(R^m) picks up x_a x_b.

    eps(x): Lambda^k -> Lambda^(k+1) has the entry x_a * sign at
    (rows[a, t], t) for each insertion (a, t) of ``_insertion(m, k)``, so
    eps(x) iota(x) sums x_a x_b sign_1 sign_2 at (row_1, row_2) over the
    pairs of insertions with the same source t.  Returns (positions,
    starts, a, b, signs): the flat positions each pair adds to, without
    repeats, where each position's run of pairs starts, and the pairs
    sorted by position.
    """
    rows, signs = _insertion(m, k)
    a, t = np.nonzero(signs)
    target, sign = rows[a, t], signs[a, t]
    group = np.argsort(t, kind="stable").reshape(-1, m - k)  # every source has m - k insertions
    one, two = (pair.ravel() for pair in np.broadcast_arrays(group[:, :, None], group[:, None, :]))
    flat = target[one] * math.comb(m, k + 1) + target[two]
    order = np.argsort(flat, kind="stable")
    one, two = one[order], two[order]
    positions, starts = np.unique(flat[order], return_index=True)
    return (_int(positions), _int(starts), _int(a[one]), _int(a[two]), _int(sign[one] * sign[two]))


def _gram(x: np.ndarray, k: int) -> np.ndarray:
    """eps(xi) iota(xi) on (k+1)-forms for each row xi of x.

    x is a (modes, m) block; the result is (modes, side, side) with
    side = C(m, k+1), in x's dtype.
    """
    positions, starts, a, b, signs = _gram_pairs(x.shape[1], k)
    side = math.comb(x.shape[1], k + 1)
    out = np.zeros((len(x), side * side), dtype=x.dtype)
    out[:, positions] = np.add.reduceat(x[:, a] * x[:, b] * signs, starts, axis=1)
    return out.reshape(len(x), side, side)


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


def _index_map(src: np.ndarray, dst: np.ndarray, sign: np.ndarray) -> tuple[np.ndarray, ...]:
    """The signed index map e_src[i] -> sign[i] e_dst[i], entries with sign 0 dropped."""
    keep = sign != 0
    return _int(src[keep]), _int(dst[keep]), _int(sign[keep])


def _connection(n: int, k: int) -> tuple[tuple[tuple[np.ndarray, ...], ...], tuple[np.ndarray, ...]]:
    """Gamma_p (one map per p) and Q = sum_p Gamma_p^2 on tractor k-forms, as signed index maps.

    Each map is a triple (src, dst, sign) that sends e_src[i] to
    sign[i] e_dst[i] and every other basis form to 0; dst has no
    repeats.  eps(e_a) iota(e_b) sends e_b ^ s to e_a ^ s for each
    (k-1)-form s lacking e_a and e_b; the two terms of Gamma_p,
    (a, b) = (p, X) and -(Y, p), act on disjoint columns (with e_X but
    not e_p; with e_p) and land on disjoint rows (with e_p; without).
    Gamma_p^2 replaces e_X by e_Y, whatever p: checked here, so that Q is
    one map whose sign is the sum over p.
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
    twice = np.take_along_axis(rows, rows, axis=1)
    twice_signs = signs * np.take_along_axis(signs, rows, axis=1)
    square = np.where(twice_signs != 0, twice, -1).max(axis=0, initial=-1)
    if np.any((twice_signs != 0) & (twice != square)):
        raise InternalConsistencyError(f"sum_p Gamma_p^2 on tractor {k}-forms is not one index map")
    cols = np.arange(dim)
    return (tuple(_index_map(cols, rows[p], signs[p]) for p in range(n)),
            _index_map(cols, square, twice_signs.sum(axis=0)))


def _mode_block(n: int, modes: list[tuple[int, ...]]) -> np.ndarray:
    """The modes as a (modes, n) block: int64, or Python ints when the mode-linear blocks might not fit.

    With s the largest sum |xi_p| of a mode, every entry and partial sum
    of the box's mode-linear part, its row sums, E and the bottom-slot
    part of the splitting is at most (s + n)^2 * 2^(n+2).
    """
    xs = [[int(v) for v in xi] for xi in modes]
    s = max(sum(abs(v) for v in xi) for xi in xs)
    return np.array(xs, dtype=_exact((s + n) ** 2 << (n + 2)))


@lru_cache(maxsize=None)
def _row_blocks(n: int, k: int) -> dict[str, np.ndarray]:
    """The z, y and w slot row blocks of the tractor k-form basis (read-only index arrays)."""
    blocks: dict[str, list[int]] = {"z": [], "y": [], "w": []}
    for i, tup in enumerate(wedge_basis(n + 2, k)):
        has_y_dir = 0 in tup
        has_x_dir = (n + 1) in tup
        if has_y_dir and has_x_dir:
            blocks["w"].append(i)
        elif has_y_dir:
            blocks["y"].append(i)   # carries the top slot (coefficient 1/k)
        elif not has_x_dir:  # the x rows (the bottom slot) go unread
            blocks["z"].append(i)
    return {name: _int(rows) for name, rows in blocks.items()}


def box_matrix(n: int, k: int, xi: tuple[int, ...]) -> np.ndarray:
    """S (box) S^-1 = |xi|^2 + 2 sum xi_p Gamma_p + sum Gamma_p^2 on tractor k-forms (J = 0).

    The dense box of one mode, a reference for the tests: the oracle
    applies the same maps without forming it.
    """
    x = _mode_block(n, [xi])[0]
    gammas, square = _connection(n, k)
    dim = math.comb(n + 2, k)
    box = np.zeros((dim, dim), dtype=x.dtype)
    for x_p, (src, dst, sign) in zip(x, gammas):
        box[dst, src] += 2 * x_p * sign
    src, dst, sign = square
    box[dst, src] += sign
    box[np.diag_indices(dim)] += int(x @ x)
    return box


def splitting_matrix(n: int, k: int, w: Fraction, x: np.ndarray) -> np.ndarray:
    """2k S times the splitting operator's mode matrix, k-forms to tractor k-forms, per mode.

    x is a (modes, n) block from ``_mode_block``; the result is
    (modes, C(n+2, k), C(n, k)) in its dtype.  The splitting is
    (n + w - 2k)/k Z_k + (1/k) eps(e_X) Z_(k-1) delta with
    delta = -i iota(xi); S is -i on the e_X rows, so the result is
    2(n + w - 2k) Z_k - 2 eps(e_X) Z_(k-1) iota(xi).  Z_k puts the form
    basis on the middle row block; eps(e_X) Z_(k-1) sends row i of
    iota(xi) to the row of e_X ^ (the i-th middle (k-1)-form), with its sign.
    """
    top = 2 * (n + Fraction(w) - 2 * k)
    if top.denominator != 1:
        raise InternalConsistencyError(f"weight {w} is not a half-integer")
    middle, lower = _row_blocks(n, k)["z"], _row_blocks(n, k - 1)["z"]
    rows, signs = _insertion(n + 2, k - 1)
    out = np.zeros((len(x), math.comb(n + 2, k), len(middle)), dtype=x.dtype)
    out[:, middle, np.arange(len(middle))] = int(top)
    out[:, rows[n + 1, lower]] = -2 * signs[n + 1, lower, None] * np.swapaxes(_eps(x, k - 1), 1, 2)
    return out


@lru_cache(maxsize=None)
def _box_pattern(n: int, k: int) -> tuple[np.ndarray, ...]:
    """One mode's S (box) S^-1 on tractor k-forms in CSR order: (indptr, indices, feature, sign).

    Entry i is sign[i] * f[feature[i]] for the mode's features
    f = (|xi|^2, 2 xi_1, ..., 2 xi_n, 1): the diagonal, then the maps
    Gamma_1..Gamma_n and Q of ``_connection``.  Every row holds its
    diagonal entry, so none is empty.
    """
    gammas, square = _connection(n, k)
    diagonal = np.arange(math.comb(n + 2, k))
    maps = [(diagonal, diagonal, np.ones_like(diagonal)), *gammas, square]
    rows = np.concatenate([dst for _, dst, _ in maps])
    order = np.argsort(rows, kind="stable")
    return (_int(np.searchsorted(rows[order], np.arange(len(diagonal) + 1))),
            _int(np.concatenate([src for src, _, _ in maps])[order]),
            _int(np.repeat(np.arange(n + 2), [len(src) for src, _, _ in maps])[order]),
            _int(np.concatenate([sign for _, _, sign in maps])[order]))


def pipeline_matrix(n: int, k: int, ell: int, modes: list[tuple[int, ...]]) -> np.ndarray:
    """2k S box^ell split at the operator weight for each mode: (modes, C(n+2, k), C(n, k)).

    Each box step is one product with the block-diagonal sparse matrix of
    the modes' boxes (``_box_pattern``): in int64 when the cell's bound
    (module docstring) is below 2^62, else as sums of gathered rows on
    Python ints.
    """
    from .factory import operator_weight

    x = _mode_block(n, modes)
    out = splitting_matrix(n, k, operator_weight(n, k, ell), x)
    indptr, cols, feature, sign = _box_pattern(n, k)
    features = np.column_stack([(x * x).sum(axis=1), 2 * x, np.ones_like(x[:, 0])])
    row_norm = max(sum(v * v + 2 * abs(v) for v in xi) for xi in x.tolist())
    if (row_norm + _absmax(sign)) ** ell * _absmax(out) >= _LIMIT:
        features, out = features.astype(object), out.astype(object)
    count, dim, width = out.shape
    shift = np.arange(count)[:, None]
    data = (features[:, feature] * sign).ravel()
    indices = (cols + dim * shift).ravel()
    starts = np.append(indptr[:-1] + len(cols) * shift, count * len(cols))
    flat = out.reshape(count * dim, width)
    if flat.dtype == object:
        for _ in range(ell):
            flat = np.add.reduceat(data[:, None] * flat[indices], starts[:-1], axis=0)
    else:
        box = scipy.sparse.csr_matrix((data, indices, starts), shape=(count * dim,) * 2)
        for _ in range(ell):
            flat = box @ flat
    return flat.reshape(count, dim, width)


def pipeline_L_numeric(n: int, k: int, ell: int, modes: list[tuple[int, ...]]) -> np.ndarray:
    """Twice the exact mode matrix of the operator for each mode, from the flat pipeline.

    It is the middle block of ``pipeline_matrix``, where S is the
    identity: (modes, C(n, k), C(n, k)).  Raises unless the top and second
    slot blocks vanish for every mode.
    """
    full = pipeline_matrix(n, k, ell, modes)
    blocks = _row_blocks(n, k)
    for name in ("y", "w"):
        leaks = np.any(full[:, blocks[name]] != 0, axis=(1, 2))
        if np.any(leaks):
            raise InternalConsistencyError(
                f"nonvanishing {name!r} slot block at xi = {tuple(modes[int(np.argmax(leaks))])}")
    return full[:, blocks["z"]]


def symbolic_mode_matrix(op: OperatorPoly, n: int, k: int,
                         modes: list[tuple[int, ...]]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Mode matrices of an expanded operator at J = 0, as (M, D): mode i's is M[i] / D[i].

    With q = |xi|^2, E = eps(xi) iota(xi) and the scalars s_ex and s_co
    of ``op.on_eigenspace`` on exact and coexact forms of eigenvalue q,
    the matrix is s_co I + ((s_ex - s_co) / q) E, and s_co I at xi = 0;
    D[i] is the common denominator of the two coefficients, so M[i] is
    an integer matrix.
    """
    x = _mode_block(n, modes)
    norm2 = [int(v) for v in (x * x).sum(axis=1)]
    scaled = {}  # |xi|^2 -> (D, D s_co, D (s_ex - s_co) / q)
    zero = Fraction(0)
    for q in set(norm2):
        coexact = op.on_eigenspace("coexact", zero, q)
        slope = (op.on_eigenspace("exact", zero, q) - coexact) / q if q else zero
        den = math.lcm(coexact.denominator, slope.denominator)
        scaled[q] = (den, *(v.numerator * (den // v.denominator) for v in (coexact, slope)))
    dens, diagonal, slopes = zip(*(scaled[q] for q in norm2))
    e_mat = _gram(x, k - 1)
    e_max = _absmax(e_mat)
    dtype = _exact(max(abs(a) + abs(b) * e_max for a, b in zip(diagonal, slopes)))
    out = e_mat.astype(dtype) * np.array(slopes, dtype=dtype)[:, None, None]
    diag = np.arange(out.shape[1])
    out[:, diag, diag] += np.array(diagonal, dtype=dtype)[:, None]
    return out, dens


def random_modes(n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """count seeded modes with entries in -3..3."""
    rng = random.Random(seed * 7919 + n)
    return [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(count)]


def compare_pipelines(n: int, k: int, ell: int, modes: list[tuple[int, ...]]) -> dict:
    """Exact per-mode comparison of the two pipelines at J = 0, all modes in one block.

    The discrepancy entry is the number of differing matrix entries,
    which must be 0 on pass: an entry differs unless D divides 2M there
    and 2M / D is the pipeline's entry.
    """
    from .factory import build_L_definition

    op = build_L_definition(n, k, ell)
    numeric = pipeline_L_numeric(n, k, ell, modes)  # twice the operators' mode matrices
    symbolic, dens = symbolic_mode_matrix(op, n, k, modes)
    twice, den = 2 * symbolic, np.array(dens, dtype=_exact(max(dens)))[:, None, None]
    counts = np.sum((twice % den != 0) | (twice // den != numeric), axis=(1, 2))
    per_mode = [{"xi": list(xi), "mismatched_entries": int(c)} for xi, c in zip(modes, counts)]
    worst = max(m["mismatched_entries"] for m in per_mode)
    return {"n": n, "k": k, "ell": ell, "modes": per_mode,
            "max_discrepancy": worst, "status": "pass" if worst == 0 else "fail"}
