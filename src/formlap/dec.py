"""Discrete exterior calculus on triangulated 3-manifolds.

Supplies the numerical side of the spectral checks: simplicial meshes
of the flat 3-torus and of the 3-sphere (the boundary of the 4-simplex
and the 600-cell), the up Laplacian pencils, exact Betti numbers by
coreduction to a small Morse complex and integer ranks of its boundary
matrices, and approximate exact and coexact eigenvalues for comparison
against the trusted sphere spectrum file.

A mesh is stored as arrays over its tets: the coordinates of each tet's
four vertices, (T, 4, E), and a (T, 16) table that maps each local face
bitmask of a tet to the global index of that simplex.  Every metric
quantity (circumcenters, flag dual volumes, primal volumes,
barycenters, edge chords, Whitney element blocks) is one batched numpy
pass over the tets, scattered to the simplices through that table.

Each mesh takes one of two spectrum paths, decided by a single flag
pass over its tets: diagonal circumcentric Hodge stars when the mesh
is well-centered, the Galerkin (Whitney-form) masses of whitney.py
otherwise.  Both feed the same pencil builder.

The coexact spectrum on j-cochains is the nonzero spectrum of the up
pencil there, the exact one on k-cochains the coexact one on
(k-1)-cochains: each eigenvalue's kind is the pencil it came from, and
each kernel dimension follows from the Betti numbers, so no eigenvalue
is ever tested against zero.

Boundary matrices are exact integer matrices; Betti numbers never pass
through floating point.  Eigenvalues do, and are treated as
mesh-limited approximations with an explicit tolerance everywhere.
"""

from __future__ import annotations

import bisect
import collections
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .spectral import SpectralModel, SpectralPoint

PHI = (1 + math.sqrt(5)) / 2
DENSE_MAX = 2500  # rows of the largest pencil solved by dense eigh

# The faces of one tet: its vertex subsets of each dimension d, in
# itertools.combinations order, and their bitmasks (the tet_faces columns).
LOCAL_SUBSETS = [list(itertools.combinations(range(4), d + 1)) for d in range(4)]
LOCAL_MASKS = [[sum(1 << i for i in s) for s in subsets] for subsets in LOCAL_SUBSETS]


class MeshError(ValueError):
    pass


@dataclass
class SimplicialMesh:
    """Simplicial 3-complex stored as arrays over its tets.

    ``simplices[d]`` lists sorted vertex-index tuples and
    ``boundaries[d]`` is the integer matrix of the boundary operator
    from dimension d to d-1 (d >= 1).  Tet t is ``simplices[3][t]``;
    ``tet_points[t]`` holds its four vertices as a (4, E) array, rows
    aligned with the sorted tuple.  For periodic meshes the coordinates
    are unwrapped inside the tet, which is enough for every metric
    quantity.  ``tet_faces[t, mask]`` is the global index of the face of
    tet t spanned by the local vertices set in mask, a simplex of
    dimension popcount(mask) - 1 (column 0 is unused and holds -1).
    """

    name: str
    simplices: list[list[tuple[int, ...]]]
    boundaries: list[scipy.sparse.csr_matrix | None]
    embedded: bool
    tet_points: np.ndarray  # (T, 4, E) float
    tet_faces: np.ndarray  # (T, 16) int

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.simplices)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(s) for d, s in enumerate(self.simplices))

    def faces(self, d: int) -> np.ndarray:
        """Global indices of the d-faces of every tet, (T, C(4, d+1)), in LOCAL_SUBSETS order."""
        return self.tet_faces[:, LOCAL_MASKS[d]]

    def face_points(self, d: int) -> np.ndarray:
        """Coordinates of the d-faces of every tet, (T, C(4, d+1), d+1, E)."""
        return self.tet_points[:, LOCAL_SUBSETS[d]]


def _per_simplex(mesh: SimplicialMesh, d: int, per_face: np.ndarray) -> np.ndarray:
    """Per-simplex values of dimension d, each read in the first tet that holds it.

    per_face has the (T, C(4, d+1), ...) layout of ``mesh.faces(d)``.
    """
    _, first = np.unique(mesh.faces(d).ravel(), return_index=True)
    return per_face.reshape(-1, *per_face.shape[2:])[first]


def simplex_volumes(pts: np.ndarray) -> np.ndarray:
    """Volumes of the simplices pts[..., vertex, coordinate] (any ambient dim; 1 for points)."""
    edges = pts[..., 1:, :] - pts[..., :1, :]
    det = np.linalg.det(edges @ np.swapaxes(edges, -1, -2))
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(edges.shape[-2])


def _circumcenters(pts: np.ndarray) -> np.ndarray:
    """Circumcenters of the simplices pts[..., vertex, coordinate], inside their affine hulls."""
    edges = pts[..., 1:, :] - pts[..., :1, :]
    gram = 2.0 * edges @ np.swapaxes(edges, -1, -2)
    rhs = np.einsum("...ij,...ij->...i", edges, edges)
    sol = np.linalg.solve(gram, rhs[..., None])[..., 0]
    return pts[..., 0, :] + np.einsum("...i,...ij->...j", sol, edges)


def _build_from_tets(name: str, ids: np.ndarray, points: np.ndarray,
                     embedded: bool) -> SimplicialMesh:
    """Assemble the full complex from tets given as arrays.

    ids is (T, 4), each row increasing; points is (T, 4, E), rows aligned
    with the ids.  Vertices are numbered in ascending id order, higher
    simplices in order of first appearance (tet by tet, faces in
    LOCAL_SUBSETS order).
    """
    if np.any(np.diff(ids, axis=1) <= 0):
        raise MeshError("tet vertex ids must increase along each tet")
    n_tets = len(ids)
    tet_faces = np.full((n_tets, 16), -1, dtype=np.int64)
    simplices: list[list[tuple[int, ...]]] = []
    boundaries: list[scipy.sparse.csr_matrix | None] = [None]
    for d in range(4):
        keys = ids[:, LOCAL_SUBSETS[d]].reshape(-1, d + 1)
        unique, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        if d > 0:
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            unique, first, inverse = unique[order], first[order], rank[inverse.ravel()]
        tet_faces[:, LOCAL_MASKS[d]] = inverse.reshape(n_tets, -1)
        simplices.append([tuple(s) for s in unique.tolist()])
        if d == 0:
            continue
        # the faces of each simplex, read in the tet where it first appears:
        # dropping vertex i of the sorted tuple gives sign (-1)^i
        tet, local = np.divmod(first, len(LOCAL_SUBSETS[d]))
        drop = np.array([[mask & ~(1 << v) for v in subset]
                         for subset, mask in zip(LOCAL_SUBSETS[d], LOCAL_MASKS[d])])
        rows = tet_faces[tet[:, None], drop[local]]
        cols = np.broadcast_to(np.arange(len(unique))[:, None], rows.shape)
        vals = np.broadcast_to((-1) ** np.arange(d + 1), rows.shape)
        boundaries.append(scipy.sparse.csr_matrix(
            (vals.ravel(), (rows.ravel(), cols.ravel())),
            shape=(len(simplices[d - 1]), len(unique)), dtype=np.int64))
    if len(simplices[3]) != n_tets:
        raise MeshError("a tet is listed twice")
    return SimplicialMesh(name, simplices, boundaries, embedded, points, tet_faces)


# -- presets -------------------------------------------------------------------


def _boundary_4_simplex() -> SimplicialMesh:
    """The 5-vertex triangulation of the 3-sphere (boundary of the 4-simplex)."""
    basis = np.eye(5)
    centered = basis - basis.mean(axis=0)
    q, _ = np.linalg.qr(centered.T)
    verts = centered @ q[:, :4]
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    ids = np.array(list(itertools.combinations(range(5), 4)))
    return _build_from_tets("boundary-4-simplex", ids, verts[ids], embedded=True)


def _cell600_vertices() -> np.ndarray:
    verts: list[tuple[float, ...]] = []
    for i in range(4):
        for s in (1.0, -1.0):
            v = [0.0] * 4
            v[i] = s
            verts.append(tuple(v))
    for signs in itertools.product((0.5, -0.5), repeat=4):
        verts.append(signs)
    even_perms = [p for p in itertools.permutations(range(4))
                  if _perm_sign(p) == 1]
    base = (PHI / 2, 0.5, 1 / (2 * PHI), 0.0)
    for p in even_perms:
        arranged = [base[p.index(i)] for i in range(4)]
        nz = [i for i in range(4) if arranged[i] != 0.0]
        for signs in itertools.product((1.0, -1.0), repeat=3):
            v = list(arranged)
            for slot, s in zip(nz, signs):
                v[slot] = s * abs(v[slot])
            verts.append(tuple(v))
    unique = sorted({tuple(v) for v in np.round(np.array(verts), 12).tolist()})
    out = np.array(unique)
    if out.shape != (120, 4):
        raise MeshError(f"600-cell vertex generation produced {out.shape}")
    return out


def _perm_sign(p: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _cell600() -> SimplicialMesh:
    """The 600-cell: 120 unit quaternions, edges at inner product phi/2."""
    verts = _cell600_vertices()
    gram = verts @ verts.T
    adj = np.abs(gram - PHI / 2) < 1e-9
    neighbors = [set(np.nonzero(adj[i])[0].tolist()) for i in range(120)]
    tets = []
    for i in range(120):
        for j in sorted(neighbors[i]):
            if j <= i:
                continue
            common_ij = neighbors[i] & neighbors[j]
            for k in sorted(common_ij):
                if k <= j:
                    continue
                for l in sorted(common_ij & neighbors[k]):
                    if l <= k:
                        continue
                    tets.append((i, j, k, l))
    ids = np.array(tets)
    mesh = _build_from_tets("cell600", ids, verts[ids], embedded=True)
    if mesh.counts() != (120, 720, 1200, 600):
        raise MeshError(f"600-cell f-vector {mesh.counts()}")
    return mesh


def _torus3_grid(m: int) -> SimplicialMesh:
    """Flat 3-torus, side 2*pi, m^3 cubes each cut into 6 tetrahedra."""
    if m < 3:
        raise MeshError("torus grid needs m >= 3 (smaller grids identify simplex vertices)")
    h = 2 * math.pi / m
    # each cube splits along its six monotone lattice paths from corner to corner
    paths = np.zeros((6, 4, 3), dtype=int)
    for p, perm in enumerate(itertools.permutations(range(3))):
        for step, axis in enumerate(perm):
            paths[p, step + 1:, axis] += 1
    corners = np.array(list(itertools.product(range(m), repeat=3)))
    lattice = (corners[:, None, None, :] + paths).reshape(-1, 4, 3)
    wrapped = lattice % m
    ids = wrapped[..., 0] * m * m + wrapped[..., 1] * m + wrapped[..., 2]
    order = np.argsort(ids, axis=1)
    return _build_from_tets(f"torus3-grid({m})", np.take_along_axis(ids, order, axis=1),
                            np.take_along_axis(lattice * h, order[..., None], axis=1),
                            embedded=False)


def build_mesh(preset: str, m: int | None = None) -> SimplicialMesh:
    """Build one of the presets: torus3-grid(m), boundary-4-simplex, cell600."""
    if preset == "boundary-4-simplex":
        return _boundary_4_simplex()
    if preset == "cell600":
        return _cell600()
    if preset == "torus3-grid":
        if m is None:
            raise MeshError("torus3-grid needs a grid size m")
        return _torus3_grid(m)
    raise MeshError(f"unknown mesh preset {preset!r}")


def subdivide_barycentric(mesh: SimplicialMesh, project_radius: float | None = None) -> SimplicialMesh:
    """One barycentric subdivision (embedded meshes only).

    With project_radius set, new vertices are pushed radially onto the
    sphere of that radius: refinement of a sphere approximant has to
    track the sphere itself, otherwise the spectrum converges to the
    inscribed polytope's and not to the round one.
    """
    if not mesh.embedded:
        raise MeshError("barycentric subdivision is only supported for embedded meshes")
    # new vertex ids: the old simplices, dimension by dimension
    offsets = np.cumsum((0,) + mesh.counts()[:3])
    bary = np.concatenate([_per_simplex(mesh, d, mesh.face_points(d).mean(axis=2))
                           for d in range(4)])
    if project_radius is not None:
        bary *= project_radius / np.linalg.norm(bary, axis=1, keepdims=True)
    # each flag vertex < edge < face < tet of an old tet spans one new tet
    # on the barycenters of its four simplices
    flags = np.cumsum([[1 << v for v in perm] for perm in itertools.permutations(range(4))], axis=1)
    ids = np.sort((mesh.tet_faces[:, flags] + offsets).reshape(-1, 4), axis=1)
    return _build_from_tets(mesh.name + "+bary", ids, bary[ids], embedded=True)


# -- Hodge stars ----------------------------------------------------------------


def _flag_dual_volumes(mesh: SimplicialMesh) -> list[np.ndarray] | None:
    """Circumcentric dual volumes per simplex via flags inside each tet.

    Uses the orthogonal-projection property of circumcenters (signed
    heights).  Returns None when the mesh is not well-centered: some
    accumulated dual volume is nonpositive, or so small against the
    largest one of its dimension that only rounding separates it from
    zero (the threshold is relative, so the answer does not depend on
    units).
    """
    pts = mesh.tet_points
    n_tets = len(pts)
    centers = np.empty((n_tets, 16, pts.shape[2]))
    centers[:, LOCAL_MASKS[0]] = pts
    for d in range(1, 4):
        centers[:, LOCAL_MASKS[d]] = _circumcenters(mesh.face_points(d))
    # signed height of each step from face mask a to a | 1 << v: the
    # distance between the two circumcenters, negative when the step
    # points away from the added vertex v
    a, v = np.array([(a, v) for a in range(1, 15) for v in range(4) if not a >> v & 1]).T
    step = centers[:, a | (1 << v)] - centers[:, a]
    toward = np.einsum("tse,tse->ts", step, pts[:, v] - centers[:, a])
    heights = np.zeros((n_tets, 16, 4))
    heights[:, a, v] = np.where(toward >= 0, 1.0, -1.0) * np.linalg.norm(step, axis=2)

    duals = []
    for d in range(3):
        # every flag from a d-face up to the tet: the face mask before each
        # step and the vertex the step adds
        before, added = [], []
        for subset, mask in zip(LOCAL_SUBSETS[d], LOCAL_MASKS[d]):
            for chain in itertools.permutations([u for u in range(4) if u not in subset]):
                before.append(mask + np.cumsum([0] + [1 << u for u in chain[:-1]]))
                added.append(chain)
        flag_vols = heights[:, np.array(before), np.array(added)].prod(axis=2)
        per_face = flag_vols.reshape(n_tets, len(LOCAL_MASKS[d]), -1).sum(axis=2)
        per_face /= math.factorial(3 - d)
        duals.append(np.bincount(mesh.faces(d).ravel(), per_face.ravel(),
                                 minlength=len(mesh.simplices[d])))
    for d in range(3):
        if np.any(duals[d] <= 1e-12 * np.abs(duals[d]).max()):
            return None
    return duals


def hodge_stars(mesh: SimplicialMesh) -> list[scipy.sparse.dia_matrix] | None:
    """Diagonal circumcentric Hodge stars, or None if the mesh is not well-centered."""
    duals = _flag_dual_volumes(mesh)
    if duals is None:
        return None
    stars = []
    for d in range(4):
        primal = _per_simplex(mesh, d, simplex_volumes(mesh.face_points(d)))
        dual = duals[d] if d < 3 else np.ones(len(primal))
        stars.append(scipy.sparse.diags(dual / primal))
    return stars


def laplacian_pencil(mesh: SimplicialMesh, j: int, masses: list
                     ) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
    """The up pencil (d_j^T M_{j+1} d_j, M_j) on j-cochains (j < dim), sparse.

    masses[d] is the mass matrix on d-cochains: Hodge stars or Whitney masses.
    """
    d_j = mesh.boundaries[j + 1].T.astype(float)
    return (d_j.T @ masses[j + 1] @ d_j).tocsr(), scipy.sparse.csr_matrix(masses[j])


# -- exact rank and Betti numbers -------------------------------------------------


def integer_rank(matrix: scipy.sparse.spmatrix) -> int:
    """Exact rank of an integer matrix over Q.

    Sparse elimination preferring unit pivots (no fractions appear then);
    falls back to exact fraction pivoting when no unit entry remains.
    """
    coo = matrix.tocoo()
    rows: dict[int, dict[int, Fraction | int]] = {}
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if v:
            rows.setdefault(int(r), {})[int(c)] = int(v)
    col_rows: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    rank = 0
    while rows:
        best = None
        for r, row in rows.items():
            for c, v in row.items():
                if v == 1 or v == -1:
                    fill = (len(row) - 1) * (len(col_rows[c]) - 1)
                    if best is None or fill < best[0]:
                        best = (fill, r, c)
                        if fill == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            r = next(iter(rows))
            c = next(iter(rows[r]))
            best = (0, r, c)
        _, pr, pc = best
        pivot_row = rows.pop(pr)
        pv = pivot_row[pc]
        for c in pivot_row:
            col_rows[c].discard(pr)
        for r in list(col_rows.get(pc, ())):
            row = rows[r]
            factor = row[pc] * pv if pv in (1, -1) else Fraction(row[pc], pv)
            for c, v in pivot_row.items():
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                    col_rows.setdefault(c, set()).add(r)
                else:
                    if c in row:
                        del row[c]
                        col_rows[c].discard(r)
            if not row:
                del rows[r]
        col_rows.pop(pc, None)
        rank += 1
    return rank


def _morse_complex(mesh: SimplicialMesh) -> tuple[list[int], list[scipy.sparse.csr_matrix]]:
    """Critical cells of a coreduction of the mesh and their Morse boundaries.

    Coreduction (Mrozek-Batko 2009): a live cell tau with exactly one
    live face sigma is paired with it and both are removed; when no
    such tau is queued, the lowest-dimensional live cell (it has no
    live faces) becomes critical and is removed.  Each pair is a unit
    pivot with no fill, so over Q the critical cells with their Morse
    boundaries have the homology of the mesh.

    The Morse boundary of a critical cell is its boundary pushed along
    the gradient flow (Harker-Mischaikow-Mrozek-Nanda 2014): the entry
    removed last, if it was paired with a coface tau, is cleared with
    the boundary of tau, whose other faces were all removed before it.
    Clearing only adds cells removed earlier, so popping a heap on
    removal time, latest first, visits each cell once, with its
    coefficient final.  Critical entries are kept; the upper cells of
    lower pairs drop out.  Boundary entries are +-1, so the flow stays
    in the integers (a coefficient past int64 raises OverflowError
    when the matrix is built; it never wraps).

    Returns the critical counts c_d and, for d = 1..dim, the integer
    Morse boundary matrix of shape (c_{d-1}, c_d).
    """
    counts = mesh.counts()
    # cell i of dimension d is global cell offset[d] + i
    offset = np.cumsum((0,) + counts).tolist()
    n_cells = offset[-1]
    # the faces of a d-cell are its column of the CSC boundary_d, its
    # cofaces its row of the CSR boundary_{d+1}
    down = [mesh.boundaries[d].tocsc() for d in range(1, len(counts))]
    up = [mesh.boundaries[d].tocsr() for d in range(1, len(counts))]
    n_faces = np.concatenate([np.zeros(counts[0], dtype=np.int64)]
                             + [np.diff(b.indptr) for b in down])
    n_cofaces = np.concatenate([np.diff(b.indptr) for b in up]
                               + [np.zeros(counts[-1], dtype=np.int64)])
    face_ptr = np.concatenate(([0], np.cumsum(n_faces))).tolist()
    face_idx = np.concatenate([b.indices + offset[d] for d, b in enumerate(down)]).tolist()
    face_val = np.concatenate([b.data for b in down]).tolist()
    coface_ptr = np.concatenate(([0], np.cumsum(n_cofaces))).tolist()
    coface_idx = np.concatenate([b.indices + offset[d + 1] for d, b in enumerate(up)]).tolist()

    live_faces = n_faces.tolist()
    removed_at = [-1] * n_cells  # removal time, -1 while live
    partner = [-1] * n_cells  # sigma -> the coface tau it was paired with
    partner_val = [0] * n_cells  # the entry of sigma in the boundary of tau
    critical: list[int] = []
    queue: collections.deque[int] = collections.deque()
    clock = cursor = 0
    while True:
        if queue:
            tau = queue.popleft()
            if removed_at[tau] >= 0 or live_faces[tau] != 1:
                continue
            for j in range(face_ptr[tau], face_ptr[tau + 1]):
                sigma = face_idx[j]
                if removed_at[sigma] < 0:
                    partner[sigma], partner_val[sigma] = tau, face_val[j]
                    break
            removal: tuple[int, ...] = (sigma, tau)
        else:
            # cells are numbered dimension by dimension and only ever
            # removed, so the first live cell is a lowest-dimensional one
            while cursor < n_cells and removed_at[cursor] >= 0:
                cursor += 1
            if cursor == n_cells:
                break
            critical.append(cursor)
            removal = (cursor,)
        for cell in removal:
            removed_at[cell] = clock
            clock += 1
            for t in coface_idx[coface_ptr[cell]:coface_ptr[cell + 1]]:
                live_faces[t] -= 1
                if live_faces[t] == 1 and removed_at[t] < 0:
                    queue.append(t)

    by_dim: list[list[int]] = [[] for _ in counts]
    for cell in critical:
        by_dim[bisect.bisect_right(offset, cell) - 1].append(cell)
    position = {cell: i for cells in by_dim for i, cell in enumerate(cells)}
    morse = []
    for d in range(1, len(counts)):
        rows, cols, vals = [], [], []
        for col, cell in enumerate(by_dim[d]):
            chain = {face_idx[j]: face_val[j] for j in range(face_ptr[cell], face_ptr[cell + 1])}
            heap = [(-removed_at[s], s) for s in chain]
            heapq.heapify(heap)
            while heap:
                s = heapq.heappop(heap)[1]
                x, tau = chain[s], partner[s]
                if not x:
                    continue
                if tau < 0:
                    if s in position:
                        rows.append(position[s])
                        cols.append(col)
                        vals.append(x)
                    continue
                # subtract x / <d tau, s> times d tau; the entry is +-1, its own inverse
                f = x * partner_val[s]
                for j in range(face_ptr[tau], face_ptr[tau + 1]):
                    r = face_idx[j]
                    if r == s:
                        continue
                    if r in chain:
                        chain[r] -= f * face_val[j]
                    else:
                        chain[r] = -f * face_val[j]
                        heapq.heappush(heap, (-removed_at[r], r))
        morse.append(scipy.sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(by_dim[d - 1]), len(by_dim[d])), dtype=np.int64))
    return [len(cells) for cells in by_dim], morse


def betti_numbers(mesh: SimplicialMesh) -> tuple[int, int, int, int]:
    """Exact Betti numbers over Q: b_d = c_d - rank M_d - rank M_{d+1}.

    c_d counts the critical d-cells of a coreduction and M_d is their
    integer Morse boundary matrix (see _morse_complex); only these small
    matrices go through integer_rank.
    """
    crit, morse = _morse_complex(mesh)
    ranks = [0] + [integer_rank(m) for m in morse] + [0]
    return tuple(crit[d] - ranks[d] - ranks[d + 1] for d in range(len(crit)))  # type: ignore[return-value]


# -- spectra ------------------------------------------------------------------------


def is_well_centered(mesh: SimplicialMesh) -> bool:
    return _flag_dual_volumes(mesh) is not None


def _sparse_lowest(a, m, harmonic: int, count: int, gradients) -> np.ndarray:
    """The count lowest nonzero eigenvalues of the pencil (a, m), by shift-invert Lanczos.

    a + shift*m is factored once.  With gradients = d_0, each solve is
    followed by the m-orthogonal projection off im d_0 (Arbenz-Geus 2005),
    so only the harmonic part of the kernel is left, and dropped.  ARPACK
    non-convergence raises.
    """
    # symmetric orderings: SuperLU's default COLAMD fills in badly on these pencils
    splu = functools.partial(scipy.sparse.linalg.splu, permc_spec="MMD_AT_PLUS_A",
                             options={"SymmetricMode": True})
    shift = 1e-3 * a.diagonal().sum() / m.diagonal().sum()  # scales with the pencil
    lu = splu((a + shift * m).tocsc())
    solve = lu.solve
    if gradients is not None:
        lap = (gradients.T @ m @ gradients).tocsr()
        _, component = scipy.sparse.csgraph.connected_components(lap)
        free = np.ones(lap.shape[0], dtype=bool)
        free[np.unique(component, return_index=True)[1]] = False  # one grounded vertex each
        grounded = splu(lap[free][:, free].tocsc())

        def solve(x):
            y = lu.solve(x)
            potential = np.zeros(lap.shape[0])
            potential[free] = grounded.solve((gradients.T @ (m @ y))[free])
            return y - gradients @ potential

    vals = scipy.sparse.linalg.eigsh(
        a, k=count + harmonic, M=m, sigma=-shift, return_eigenvectors=False,
        OPinv=scipy.sparse.linalg.LinearOperator(a.shape, matvec=solve, dtype=float),
        v0=np.random.default_rng(0).standard_normal(a.shape[0]))
    return np.sort(vals)[harmonic:]


def coexact_spectrum(mesh: SimplicialMesh, j: int, masses: list, count: int,
                     betti: tuple[int, ...]) -> np.ndarray:
    """The coexact spectrum on j-cochains: the lowest count nonzero eigenvalues of the up pencil.

    Its kernel has dimension b_j + rank d_{j-1} (ranks from the Betti
    numbers and the f-vector), which dense eigh skips by index; pencils
    of more than DENSE_MAX rows go to _sparse_lowest.
    """
    gradients = mesh.boundaries[1].T.astype(float) if j == 1 else None
    if j == 2:
        # the star-dual pencil (d_2 M_2^-1 d_2^T, M_3^-1) on tets has the same nonzero
        # eigenvalues (substitute z = M_3 d_2 x) and only b_3 zeros; M_2 is diagonal
        d_2 = mesh.boundaries[3].T.astype(float)
        a = (d_2 @ scipy.sparse.diags(1.0 / masses[2].diagonal()) @ d_2.T).tocsr()
        m = scipy.sparse.diags(1.0 / masses[3].diagonal()).tocsr()
        kernel = harmonic = betti[3]
    else:
        a, m = laplacian_pencil(mesh, j, masses)
        harmonic = betti[j]
        kernel = harmonic + (mesh.counts()[0] - betti[0] if j == 1 else 0)  # + rank d_{j-1}
    count = min(count, a.shape[0] - kernel)
    if count == 0:
        return np.empty(0)
    if a.shape[0] <= DENSE_MAX:
        return scipy.linalg.eigh(a.toarray(), m.toarray(), eigvals_only=True,
                                 subset_by_index=[kernel, kernel + count - 1])
    return _sparse_lowest(a, m, harmonic, count, gradients)


def spectrum(mesh: SimplicialMesh, k: int, count: int) -> list[tuple[float, str]]:
    """The b_k harmonics and the lowest count nonzero eigenvalues on k-cochains.

    Returns (eigenvalue, kind) pairs sorted by eigenvalue, each kind by
    construction: b_k harmonics from the exact Betti number, coexact
    values from the up pencil on k-cochains, exact ones from the up
    pencil on (k-1)-cochains (exact k-forms are d of coexact (k-1)-forms).
    Well-centered meshes use diagonal circumcentric stars (Hirani 2003);
    all others the Galerkin (Whitney) matrices (Arnold-Falk-Winther 2006).
    """
    if not 0 <= k <= mesh.dim:
        raise MeshError(f"degree {k} outside 0..{mesh.dim}")
    nk = len(mesh.simplices[k])
    if count > nk:
        raise MeshError(f"requested {count} eigenvalues of a {nk}-dimensional space")
    betti = betti_numbers(mesh)
    masses = hodge_stars(mesh)
    if masses is None:
        from .whitney import galerkin_laplacian

        masses = galerkin_laplacian(mesh, k)
    pairs = [(float(lam), kind) for j, kind in ((k, "coexact"), (k - 1, "exact"))
             if 0 <= j < mesh.dim for lam in coexact_spectrum(mesh, j, masses, count, betti)]
    return [(0.0, "harmonic")] * betti[k] + sorted(pairs)[:count]


def unit_sphere_edge_scale(mesh: SimplicialMesh) -> float:
    """Eigenvalue scaling onto the unit sphere via edge geodesic lengths.

    Each PL edge is the chord of a unit-sphere arc; restoring geodesic
    edge lengths multiplies the metric by (arc/chord)^2, hence the
    eigenvalues by the mean squared chord-to-arc ratio.
    """
    ends = _per_simplex(mesh, 1, mesh.face_points(1))
    chord = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    arc = 2 * np.arcsin(np.minimum(chord / 2, 1.0))
    return float(np.mean((chord / arc) ** 2))


# -- comparison with the trusted sphere data ----------------------------------------


def _cluster(values: list[float]) -> list[tuple[float, int]]:
    """Group a sorted eigenvalue list into (mean, size) clusters.

    Discretization splits an exact multiplet by a few percent; distinct
    low sphere eigenvalues sit tens of percent apart, so a relative gap
    of 6% separates them cleanly.
    """
    clusters: list[tuple[float, int]] = []
    cur: list[float] = []
    for v in values:
        if cur and v - cur[-1] > 0.06 * max(cur[-1], 1e-12):
            clusters.append((sum(cur) / len(cur), len(cur)))
            cur = []
        cur.append(v)
    if cur:
        clusters.append((sum(cur) / len(cur), len(cur)))
    return clusters


def _shells(reference: SpectralModel, kind: str) -> list[SpectralPoint]:
    """The reference points of one kind, lowest eigenvalue first."""
    return sorted((p for p in reference.points if p.kind == kind), key=lambda p: p.eigenvalue)


def compare_sphere_spectrum(mesh: SimplicialMesh, k: int, spec: list[tuple[float, str]],
                            reference: SpectralModel) -> dict:
    """Relative discrepancy of the lowest eigenvalue shell of each kind.

    spec is spectrum(mesh, k, ...) and reference the trusted sphere model
    (``sphere_preset``).  Computed eigenvalues are scaled onto the unit
    sphere by the edge-geodesic factor and clustered into approximate
    multiplets; the lowest cluster of each kind is paired with the
    lowest reference shell of that kind.
    """
    scale = unit_sphere_edge_scale(mesh)
    result: dict = {"mesh": mesh.name, "k": k, "scale": scale, "entries": []}
    for kind in ("exact", "coexact"):
        shells = _shells(reference, kind)
        clusters = _cluster(sorted(lam * scale for lam, kd in spec if kd == kind))
        if shells and clusters:
            ref, (mean, size) = float(shells[0].eigenvalue), clusters[0]
            result["entries"].append(
                {"kind": kind, "shell": 1, "reference": ref, "computed": mean,
                 "rel_error": abs(mean - ref) / ref,
                 "multiplicity": shells[0].multiplicity, "cluster_size": size})
    result["max_rel_error"] = max((e["rel_error"] for e in result["entries"]), default=math.inf)
    return result


def dec_import_model(mesh: SimplicialMesh, k: int, spec: list[tuple[float, str]],
                     reference: SpectralModel, rtol: float = 0.10) -> SpectralModel:
    """Promote the shells ``compare_sphere_spectrum`` compares into an exact model.

    spec is spectrum(mesh, k, ...) and reference the trusted sphere
    model.  Each compared shell becomes a point at the exact reference
    eigenvalue and multiplicity, provided the cluster mean lies within
    rtol of that eigenvalue and the cluster has exactly that many
    members.  Anything else aborts the import: a model with unexplained
    spectral content must not feed the kernel checks.  Higher shells are
    discarded as mesh-unresolved.
    """
    b_k = sum(p.multiplicity for p in reference.points if p.kind == "harmonic")
    measured_b = sum(1 for lam, kd in spec if kd == "harmonic")
    if measured_b != b_k:
        raise MeshError(f"harmonic dimension {measured_b} disagrees with reference {b_k}")
    points = [SpectralPoint("harmonic", Fraction(0), b_k)] if b_k else []
    for e in compare_sphere_spectrum(mesh, k, spec, reference)["entries"]:
        kind = e["kind"]
        if e["rel_error"] > rtol or e["cluster_size"] != e["multiplicity"]:
            raise MeshError(
                f"computed {kind} shell {e['computed']:.4f} (x{e['cluster_size']}) matches no "
                f"reference value within {rtol:.0%}: the lowest {kind} shell is "
                f"{e['reference']:g} (x{e['multiplicity']})")
        shell = _shells(reference, kind)[e["shell"] - 1]
        points.append(SpectralPoint(kind, shell.eigenvalue, shell.multiplicity))
    return SpectralModel(3, k, reference.j_value, tuple(points), "dec-import", True)

