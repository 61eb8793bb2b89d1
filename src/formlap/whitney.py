"""Galerkin (Whitney-form) mass matrices for simplicial 3-complexes.

Diagonal circumcentric stars need a well-centered mesh; on every other
mesh the spectrum uses the Whitney-form mass matrices below, which stay
consistent on any shape-regular mesh and keep every operator sparse.
The vertex mass is also returned lumped (diagonal): the mass of the
vertex pencil that gives the exact part of the degree-one spectrum.

All element quantities reduce to barycentric-gradient dot products, so
the construction works directly with coordinates in any ambient
dimension (the sphere meshes live in R^4); cross-product pairings use
the Lagrange identity and never need an explicit 3-frame.  The element
blocks of all tets are computed at once from the mesh's (T, 4, E) tet
coordinates and summed into the global matrices through its face table.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .dec import LOCAL_SUBSETS, SimplicialMesh, simplex_volumes
from .forms import UsageError


def _assemble(index: np.ndarray, blocks: np.ndarray, size: int) -> scipy.sparse.csr_matrix:
    """Sum element blocks (T, k, k) into a sparse matrix; index (T, k) holds their global ids."""
    rows = np.broadcast_to(index[:, :, None], blocks.shape)
    cols = np.broadcast_to(index[:, None, :], blocks.shape)
    return scipy.sparse.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                                   shape=(size, size)).tocsr()


def whitney_masses(mesh: SimplicialMesh) -> dict:
    """Whitney mass matrices M0, M1, M2 plus the lumped vertex mass.

    Local simplex vertex order agrees with the sorted global order, so
    no orientation signs appear beyond the Whitney-form definitions.
    """
    pts = mesh.tet_points
    edges = pts[:, 1:] - pts[:, :1]
    # barycentric gradients: rows 1..3 solve gram @ g = edges, row 0 is minus their sum
    h = np.linalg.solve(edges @ edges.transpose(0, 2, 1), edges)
    g = np.concatenate([-h.sum(axis=1, keepdims=True), h], axis=1)
    gdot = g @ g.transpose(0, 2, 1)
    vol = simplex_volumes(pts)
    scale = (vol / 20)[:, None, None]

    m0 = scale * (1 + np.eye(4))

    e = np.array(LOCAL_SUBSETS[1])
    i, j = e[:, 0, None], e[:, 1, None]
    k, l = e[None, :, 0], e[None, :, 1]
    m1 = scale * ((1 + (i == k)) * gdot[:, j, l] - (1 + (i == l)) * gdot[:, j, k]
                  - (1 + (j == k)) * gdot[:, i, l] + (1 + (j == l)) * gdot[:, i, k])

    # X_a = grad(next) x grad(next2), cyclically within the sorted face;
    # (x x y).(z x w) = (x.z)(y.w) - (x.w)(y.z)
    f = np.array(LOCAL_SUBSETS[2])
    nxt, nxt2 = np.roll(f, -1, axis=1), np.roll(f, -2, axis=1)
    a, p, q = (x[:, :, None, None] for x in (f, nxt, nxt2))  # row face, position in it
    b, r, s = (x[None, None] for x in (f, nxt, nxt2))  # column face, position in it
    cross = gdot[:, p, r] * gdot[:, q, s] - gdot[:, p, s] * gdot[:, q, r]
    m2 = 4 * scale * ((1 + (a == b)) * cross).sum(axis=(2, 4))

    n0, n1, n2 = (len(mesh.simplices[d]) for d in range(3))
    verts = mesh.faces(0)
    lumped = np.bincount(verts.ravel(), np.repeat(vol / 4, 4), minlength=n0)
    return {
        "M0": _assemble(verts, m0, n0),
        "M0_lumped": scipy.sparse.diags(lumped).tocsr(),
        "M1": _assemble(mesh.faces(1), m1, n1),
        "M2": _assemble(mesh.faces(2), m2, n2),
    }


def galerkin_laplacian(mesh: SimplicialMesh, k: int) -> list[scipy.sparse.csr_matrix]:
    """The Whitney masses [M0, M1, M2] of the degree-k pencils, for k in {0, 1}.

    At degree one M0 is lumped, the mass of the exact part (d0^T M1 d0, M0).
    """
    if k not in (0, 1):
        raise UsageError("galerkin spectra implemented for degrees 0 and 1 only")
    masses = whitney_masses(mesh)
    return [masses["M0"] if k == 0 else masses["M0_lumped"], masses["M1"], masses["M2"]]
