"""Galerkin (Whitney-form) mass matrices for simplicial n-complexes.

Diagonal circumcentric stars need a well-centered mesh; on every other
mesh the spectrum uses the Whitney-form mass matrices below, which stay
consistent on any shape-regular mesh and keep every operator sparse.
The vertex mass is also returned lumped (diagonal): the mass of the
vertex pencil that gives the exact part of the degree-one spectrum.

One element formula serves every degree k (Arnold-Falk-Winther 2006):
phi_s = k! sum_i (-1)^i lambda_{s_i} dlambda_{s - s_i}, the integral of
lambda_a lambda_b is vol (1 + [a = b]) / ((n+1)(n+2)), and wedges of
barycentric gradients pair by the determinant of their Gram block.  So
it needs only barycentric-gradient dot products, in any ambient dimension
(the sphere meshes live in R^4), batched over the (T, n+1, E) tet
coordinates and summed into the global matrices through the face table.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import scipy.sparse

from .dec import SimplicialMesh, local_faces, simplex_volumes
from .forms import UsageError


def _assemble(index: np.ndarray, blocks: np.ndarray, size: int) -> scipy.sparse.csr_matrix:
    """Sum element blocks (T, k, k) into a sparse matrix; index (T, k) holds their global ids."""
    rows = np.broadcast_to(index[:, :, None], blocks.shape)
    cols = np.broadcast_to(index[:, None, :], blocks.shape)
    return scipy.sparse.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                                   shape=(size, size)).tocsr()


def _gram_det(gdot: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """det gdot[:, rows[..., a], cols[..., b]] over a, b (last axis), by Leibniz: a few batched
    products.  np.linalg.det factors each small block alone: 4x slower on torus3-grid(6)."""
    terms = []
    for perm in itertools.permutations(range(rows.shape[-1])):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        factors = (gdot[:, rows[..., a], cols[..., b]] for a, b in enumerate(perm))
        terms.append(functools.reduce(np.multiply, factors, sign))
    return functools.reduce(np.add, terms)


def whitney_masses(mesh: SimplicialMesh) -> dict:
    """Whitney mass matrices M0 .. M_{n-1} plus the lumped vertex mass, n = mesh.dim.

    Local simplex vertex order agrees with the sorted global order, so
    no orientation signs appear beyond the Whitney-form definitions.
    """
    pts, dim = mesh.tet_points, mesh.dim
    edges = pts[:, 1:] - pts[:, :1]
    # barycentric gradients: rows 1..n solve gram @ g = edges, row 0 is minus their sum
    h = np.linalg.solve(edges @ edges.transpose(0, 2, 1), edges)
    g = np.concatenate([-h.sum(axis=1, keepdims=True), h], axis=1)
    gdot = g @ g.transpose(0, 2, 1)
    vol = simplex_volumes(pts)
    scale = (vol / ((dim + 1) * (dim + 2)))[:, None, None]

    masses = {"M0_lumped": scipy.sparse.diags(np.bincount(
        mesh.faces(0).ravel(), np.repeat(vol / (dim + 1), dim + 1))).tocsr()}
    subsets = local_faces(dim)[0]
    for k in range(dim):
        # face s without its vertex i is a (k-1)-face: one Gram determinant per pair
        # of (k-1)-faces, gathered to every pair of (face, position) pairs
        faces, i = np.array(subsets[k]), np.arange(k + 1)
        lower = subsets[k - 1] if k else ((),)
        index = {face: a for a, face in enumerate(lower)}
        rest = np.array([[index[tuple(v for v in s if v != u)] for u in s] for s in subsets[k]])
        rows = np.array(lower, dtype=int).reshape(len(lower), k)
        det = _gram_det(gdot, rows[:, None], rows[None])
        if k:  # at k = 0 the one empty Gram block has determinant 1
            det = det[:, rest[:, :, None, None], rest[None, None]]
        weight = (-1) ** (i[:, None, None] + i) * (1 + (faces[:, :, None, None] == faces[None, None]))
        block = math.factorial(k) ** 2 * scale * (weight * det).sum(axis=(-3, -1))
        masses[f"M{k}"] = _assemble(mesh.faces(k), block, len(mesh.simplices[k]))
    return masses


def galerkin_laplacian(mesh: SimplicialMesh, k: int) -> list[scipy.sparse.csr_matrix]:
    """The Whitney masses [M0, .., M_{n-1}] of the degree-k pencils, for k in {0, 1}.

    At degree one M0 is lumped, the mass of the exact part (d0^T M1 d0, M0).
    Not above: the star-dual pencil on (n-1)-cochains needs a diagonal M_{n-1}.
    """
    if k not in (0, 1):
        raise UsageError("galerkin spectra implemented for degrees 0 and 1 only")
    masses = whitney_masses(mesh)
    return [masses["M0_lumped" if k else "M0"]] + [masses[f"M{d}"] for d in range(1, mesh.dim)]
