"""Flat-torus matrix oracle for the tractor pipeline, one Fourier mode at a time.

On the flat n-torus (an Einstein space with J = 0) every operator in
the pipeline acts mode by mode as a finite matrix over the Gaussian
rationals: d is i times exterior multiplication by the mode vector,
the codifferential is -i times contraction, and the tractor bundle is
the rank n+2 space spanned by a null direction e_Y, the middle block
e_1..e_n and a second null direction e_X, with the flat connection

    grad_p e_Y = 0,   grad_p e_b = -delta_pb e_Y,   grad_p e_X = e_p

extended to tractor k-forms as a derivation.  The coupled box is minus
the mode Laplacian sum_p (i xi_p + Gamma_p)^2; the weight term vanishes
because J = 0.  None of the slotwise component formulas of the symbolic
engine enter anywhere here, so exact agreement of the two pipelines is
independent evidence, not a tautology.

Embeddings and reads use the valence-normalised projector conventions
(the 1/k and 1/(k(k-1)) below), which drop out of all observable
comparisons; matrices are numpy object arrays holding exact Python
integers and Fractions split into real and imaginary parts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class ModeOperator:
    """One operator on a single Fourier mode."""

    n: int
    k: int
    xi: tuple[int, ...]
    matrix: CMat


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


def mode_matrices(n: int, k: int, xi: tuple[int, ...]) -> tuple[ModeOperator, ModeOperator]:
    """d = i eps(xi) on k-forms and codifferential = -i iota(xi) on k-forms."""
    xi = tuple(xi)
    d = CMat(_obj((len(wedge_basis(n, k + 1)), len(wedge_basis(n, k)))),
             eps_matrix(n, k, list(xi)))
    delta = CMat(_obj((len(wedge_basis(n, k - 1)), len(wedge_basis(n, k)))),
                 -iota_matrix(n, k, list(xi)))
    return ModeOperator(n, k + 1, xi, d), ModeOperator(n, k - 1, xi, delta)


# -- flat tractor pipeline ----------------------------------------------------
#
# Tractor directions: 0 is the null direction e_Y, 1..n the middle block
# (form direction b maps to b+1), n+1 the null direction e_X.


def tractor_gammas(n: int) -> list[np.ndarray]:
    """Flat standard-tractor connection matrices, one per coordinate direction."""
    gammas = []
    for p in range(n):
        g = _obj((n + 2, n + 2))
        g[0, p + 1] = -1      # e_b -> -delta_pb e_Y
        g[p + 1, n + 1] = 1   # e_X -> e_p
        gammas.append(g)
    return gammas


def box_matrix(n: int, k: int, xi: tuple[int, ...]) -> CMat:
    """Minus the coupled mode Laplacian on tractor k-forms (J = 0)."""
    dim = len(wedge_basis(n + 2, k))
    box = CMat.zero(dim, dim)
    for p, gamma in enumerate(tractor_gammas(n)):
        nabla = CMat(derivation_matrix(gamma, n + 2, k), _obj((dim, dim)))
        nabla = nabla + CMat.eye(dim).scale_imag(int(xi[p]))
        box = box - nabla @ nabla
    return box


def z_embed(n: int, k: int) -> np.ndarray:
    """Middle-block embedding of k-forms into tractor k-forms."""
    fb = wedge_basis(n, k)
    tb = wedge_basis(n + 2, k)
    idx = {t: i for i, t in enumerate(tb)}
    m = _obj((len(tb), len(fb)))
    for col, tup in enumerate(fb):
        m[idx[tuple(t + 1 for t in tup)], col] = 1
    return m


def _row_blocks(n: int, k: int) -> dict[str, list[int]]:
    """Partition of the tractor k-form basis into slot row blocks."""
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
    return blocks


def splitting_matrix(n: int, k: int, w: Fraction, xi: tuple[int, ...]) -> CMat:
    """Mode matrix of the splitting operator, k-forms to tractor k-forms."""
    _, delta = mode_matrices(n, k, xi)
    c_m = Fraction(n + w - 2 * k, k)
    e_x = [0] * (n + 2)
    e_x[n + 1] = 1
    zk = CMat.real(z_embed(n, k))
    zk1 = CMat.real(z_embed(n, k - 1))
    eps_x = CMat.real(eps_matrix(n + 2, k - 1, e_x))
    return zk.scale(c_m) + (eps_x @ zk1 @ delta.matrix).scale(Fraction(1, k))


def pipeline_matrix(n: int, k: int, ell: int, xi: tuple[int, ...]) -> CMat:
    """Box**ell applied to the splitting embedding at the operator weight."""
    from .factory import operator_weight

    w = operator_weight(n, k, ell)
    out = splitting_matrix(n, k, w, xi)
    box = box_matrix(n, k, xi)
    for _ in range(ell):
        out = box @ out
    return out


def pipeline_L_numeric(n: int, k: int, ell: int, xi: tuple[int, ...]) -> np.ndarray:
    """Exact mode matrix of the operator from the flat pipeline.

    Asserts that the top and second slot blocks vanish and that the
    middle block is real, then returns k times the middle block.
    """
    full = pipeline_matrix(n, k, ell, xi)
    blocks = _row_blocks(n, k)
    for name in ("y", "w"):
        rows = blocks[name]
        if rows and (np.any(full.re[rows] != 0) or np.any(full.im[rows] != 0)):
            raise InternalConsistencyError(f"nonvanishing {name!r} slot block at xi = {xi}")
    mid = blocks["z"]
    if np.any(full.im[mid] != 0):
        raise InternalConsistencyError(f"residual imaginary part in the middle block at xi = {xi}")
    return full.re[mid] * k


def symbolic_mode_matrix(op: OperatorPoly, n: int, k: int, xi: tuple[int, ...],
                         j_value: Fraction = Fraction(0)) -> np.ndarray:
    """Mode matrix of an expanded operator with J specialised (real part).

    The composition of equal numbers of d's and codifferentials is real;
    an imaginary residue raises.
    """
    d_k, delta_k = mode_matrices(n, k, xi)
    d_km1, _ = mode_matrices(n, k - 1, xi)
    _, delta_kp1 = mode_matrices(n, k + 1, xi)
    e_mat = d_km1.matrix @ delta_k.matrix
    f_mat = delta_kp1.matrix @ d_k.matrix
    dim = len(wedge_basis(n, k))
    acc = CMat.eye(dim).scale(op.const.eval_at(j_value))
    cur = CMat.eye(dim)
    for p in range(1, len(op.e_coeffs) + 1):
        cur = e_mat @ cur
        acc = acc + cur.scale(op.e_coeff(p).eval_at(j_value))
    cur = CMat.eye(dim)
    for q in range(1, len(op.f_coeffs) + 1):
        cur = f_mat @ cur
        acc = acc + cur.scale(op.f_coeff(q).eval_at(j_value))
    if not acc.is_real:
        raise InternalConsistencyError("imaginary part in an expanded operator mode matrix")
    return acc.re


def random_modes(n: int, count: int, seed: int, bound: int = 3) -> list[tuple[int, ...]]:
    rng = random.Random(seed * 7919 + n)
    return [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(count)]


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
        numeric = pipeline_L_numeric(n, k, ell, xi)
        symbolic = symbolic_mode_matrix(op, n, k, xi)
        mismatches = int(np.sum(numeric != symbolic))
        worst = max(worst, mismatches)
        per_mode.append({"xi": list(xi), "mismatched_entries": mismatches})
    return {"n": n, "k": k, "ell": ell, "modes": per_mode,
            "max_discrepancy": worst, "status": "pass" if worst == 0 else "fail"}

