"""Galerkin (Whitney-form) mass matrices for simplicial 3-complexes.

Diagonal circumcentric stars need a well-centered mesh; on every other
mesh the spectrum uses the Whitney-form mass matrices below, which stay
consistent on any shape-regular mesh and keep every operator sparse.
The vertex mass is additionally returned in lumped (diagonal) form so
the degree-one down-Laplacian piece needs no dense inverse.

All element quantities reduce to barycentric-gradient dot products, so
the construction works directly with coordinates in any ambient
dimension (the sphere meshes live in R^4); cross-product pairings use
the Lagrange identity and never need an explicit 3-frame.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse

from .dec import MeshError, SimplicialMesh, _simplex_volume, laplacian_pencil


def _tet_gradients(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Barycentric gradients (4, E) and volume of one tetrahedron."""
    edges = pts[1:] - pts[0]           # (3, E)
    gram = edges @ edges.T
    h = np.linalg.solve(gram, edges)   # rows: gradients of coords 1..3
    g = np.vstack([-h.sum(axis=0), h])
    vol = _simplex_volume(pts)
    return g, vol


def whitney_masses(mesh: SimplicialMesh) -> dict:
    """Whitney mass matrices M0, M1, M2 plus the lumped vertex mass.

    Local simplex vertex order agrees with the sorted global order, so
    no orientation signs appear beyond the Whitney-form definitions.
    """
    n0, n1, n2 = (len(mesh.simplices[d]) for d in range(3))
    m0 = scipy.sparse.lil_matrix((n0, n0))
    m0_lump = np.zeros(n0)
    m1_rows: dict[tuple[int, int], float] = {}
    m2_rows: dict[tuple[int, int], float] = {}

    local_edges = list(itertools.combinations(range(4), 2))
    local_faces = list(itertools.combinations(range(4), 3))

    for t_idx, tet in enumerate(mesh.simplices[3]):
        pts = mesh.coords[3][t_idx]
        g, vol = _tet_gradients(pts)
        gdot = g @ g.T
        sub = mesh.tet_sub[t_idx]
        verts = [sub[0][1 << a] for a in range(4)]  # vertex simplex indices

        for a in range(4):
            m0_lump[verts[a]] += vol / 4
            for b in range(4):
                m0[verts[a], verts[b]] += vol * (2 if a == b else 1) / 20

        edge_ids = [sub[1][(1 << a) | (1 << b)] for a, b in local_edges]
        for (ei, (i, j)), (fi, (k, l)) in itertools.product(
                zip(edge_ids, local_edges), repeat=2):
            if fi < ei:
                continue
            val = (vol / 20) * (
                (1 + (i == k)) * gdot[j, l] - (1 + (i == l)) * gdot[j, k]
                - (1 + (j == k)) * gdot[i, l] + (1 + (j == l)) * gdot[i, k])
            key = (min(ei, fi), max(ei, fi))
            m1_rows[key] = m1_rows.get(key, 0.0) + val

        face_ids = [sub[2][(1 << a) | (1 << b) | (1 << c)] for a, b, c in local_faces]
        # X_a = grad(next) x grad(next2), cyclically within the sorted face
        def cross_dot(p1, q1, p2, q2):
            return gdot[p1, p2] * gdot[q1, q2] - gdot[p1, q2] * gdot[q1, p2]

        for (fi_a, fa), (fi_b, fb) in itertools.product(
                zip(face_ids, local_faces), repeat=2):
            if fi_b < fi_a:
                continue
            val = 0.0
            for pos_a in range(3):
                a = fa[pos_a]
                pa, qa = fa[(pos_a + 1) % 3], fa[(pos_a + 2) % 3]
                for pos_b in range(3):
                    b = fb[pos_b]
                    pb, qb = fb[(pos_b + 1) % 3], fb[(pos_b + 2) % 3]
                    val += (1 + (a == b)) * cross_dot(pa, qa, pb, qb)
            val *= 4 * vol / 20
            key = (fi_a, fi_b)
            m2_rows[key] = m2_rows.get(key, 0.0) + val

    def sym_csr(entries: dict[tuple[int, int], float], size: int) -> scipy.sparse.csr_matrix:
        rows, cols, vals = [], [], []
        for (i, j), v in entries.items():
            rows.append(i)
            cols.append(j)
            vals.append(v)
            if i != j:
                rows.append(j)
                cols.append(i)
                vals.append(v)
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))

    return {
        "M0": m0.tocsr(),
        "M0_lumped": scipy.sparse.diags(m0_lump).tocsr(),
        "M1": sym_csr(m1_rows, n1),
        "M2": sym_csr(m2_rows, n2),
    }


def galerkin_laplacian(mesh: SimplicialMesh, k: int, masses: dict | None = None
                       ) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix,
                                  scipy.sparse.csr_matrix]:
    """(full Laplacian form, up form, mass) for k in {0, 1}, all sparse.

    At degree one the down piece uses the lumped vertex mass so its
    inverse stays diagonal; the up piece is the exact Galerkin form.
    """
    if k not in (0, 1):
        raise MeshError("galerkin spectra implemented for degrees 0 and 1 only")
    if masses is None:
        masses = whitney_masses(mesh)
    vertex_mass = masses["M0"] if k == 0 else masses["M0_lumped"]
    return laplacian_pencil(mesh, k, [vertex_mass, masses["M1"], masses["M2"]])
