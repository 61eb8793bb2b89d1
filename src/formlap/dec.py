"""Discrete exterior calculus on triangulated manifolds of any dimension.

Supplies the numerical side of the spectral checks: simplicial meshes
(presets: the flat 3-torus and two 3-spheres), the up Laplacian pencils,
exact Betti numbers by one column reduction of the integer coboundary
matrices, lowest degree first with clearing, and approximate exact and
coexact eigenvalues for comparison against the closed-form sphere
spectrum (``spectral.sphere_preset``).
The two sphere meshes (the boundary of the 4-simplex and the 600-cell)
have unit vertices, and their tets are the 4-cliques of an edge rule:
every pair for the first, inner product phi/2 for the second.

An n-complex is stored as arrays over its top simplices ("tets"): the
n + 1 vertex coordinates of each, (T, n+1, E), and a (T, 2^(n+1)) table
that maps each local face bitmask of a tet to the global index of that
simplex; n is the width of the tets, read nowhere else.  Every metric
quantity (circumcenters, flag dual volumes, primal volumes,
barycenters, edge chords, Whitney element blocks) is one batched numpy
pass over the tets, scattered to the simplices through that table.

Each mesh takes one of two spectrum paths, decided by a single flag
pass over its tets: diagonal circumcentric Hodge stars when the mesh
is well-centered, the Galerkin (Whitney-form) masses of whitney.py
otherwise.  Both feed the same pencil builder; a dense solve turns a
diagonal mass into a standard eigenproblem and keeps a Galerkin one
generalized.

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

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .forms import InternalConsistencyError, UsageError
from .spectral import SpectralModel, SpectralPoint

PHI = (1 + math.sqrt(5)) / 2
# Rows of the largest pencil solved by dense eigh; larger ones go to
# _sparse_lowest.  Dense eigh solves a pencil with a diagonal mass as a
# standard problem and any other as a generalized one.  Both paths timed
# on the package's pencils (best of 3, one BLAS thread, 2-core x86-64
# Xeon; they agree to a relative 1.3e-14):
#     pencil                  rows  mass      eigs    dense   sparse
#     cell600, j = 1           720  diagonal    40    41 ms   223 ms
#     torus3-grid(4), j = 1    448  Galerkin     6    16 ms    51 ms
#     torus3-grid(5), j = 1    875  Galerkin     6   104 ms   101 ms
#     torus3-grid(6), j = 1   1512  Galerkin     6   401 ms   120 ms
#     torus3-grid(7), j = 1   2401  Galerkin     6  1793 ms   405 ms
# The crossover lies between 720 and 875 rows on Galerkin pencils.  No
# diagonal-mass pencil of the package lies between 720 and 17,040 rows,
# so its crossover, above 720, is not measured.
DENSE_MAX = 800
# ARPACK restarts allowed per sparse solve: ten times the 28 that the
# slowest tested or benchmarked pencil takes (the refined 600-cell's
# 17,040-row j = 1 pencil, 12 eigenvalues)
ARPACK_MAXITER = 300
# The one relative tolerance of the sphere comparison (compare_sphere_spectrum)
SPHERE_RTOL = 0.10


@functools.cache
def local_faces(dim: int) -> tuple[tuple, tuple]:
    """A tet's vertex subsets of each dimension (combinations order) and their tet_faces masks."""
    subsets = tuple(tuple(itertools.combinations(range(dim + 1), d + 1)) for d in range(dim + 1))
    return subsets, tuple(tuple(sum(1 << i for i in s) for s in subs) for subs in subsets)


@dataclass
class SimplicialMesh:
    """Simplicial n-complex stored as arrays over its tets, its n-simplices.

    ``simplices[d]`` is an (N_d, d+1) integer array, one increasing
    row of vertex indices per d-simplex, and ``boundaries[d]`` is the
    integer matrix of the boundary operator from dimension d to d-1
    (d >= 1).  Tet t is ``simplices[n][t]``; ``tet_points[t]`` holds its
    vertices as an (n+1, E) array, rows aligned with that row.  For
    periodic meshes the coordinates are unwrapped inside the tet, which
    is enough for every metric quantity.  ``tet_faces[t, mask]`` is the
    global index of the face of tet t spanned by the local vertices set
    in mask, a simplex of dimension popcount(mask) - 1 (column 0 is
    unused and holds -1).
    """

    name: str
    simplices: list[np.ndarray]  # (N_d, d+1) int
    boundaries: list[scipy.sparse.csr_matrix | None]
    embedded: bool
    tet_points: np.ndarray  # (T, n+1, E) float
    tet_faces: np.ndarray  # (T, 2^(n+1)) int

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.simplices)

    @functools.cached_property
    def betti(self) -> tuple[int, ...]:
        """Exact Betti numbers over Q: b_d = N_d - rank B_d - rank B_{d+1}, computed once.

        B_d is ``boundaries[d]`` (B_0 = B_{n+1} = 0).  The coboundary matrices
        B_d^T are reduced lowest degree first (see _reduce), with clearing
        (Chen-Kerber 2011): a column of B_{d+1}^T whose index is a low of
        the reduced B_d^T is skipped.  This is exact.  Say a reduced
        column R = B_d^T v has low i; then B_{d+1}^T R = 0, so column i of
        B_{d+1}^T is a combination of the columns before it and would
        reduce to zero.  The argument needs lows to be the largest row,
        columns to be taken in increasing index, and both matrices to
        number the d-cells alike, as the rows of ``simplices[d]``.
        """
        ranks, lows = [0], set()
        for boundary in self.boundaries[1:]:
            lows = _reduce(boundary.T, lows)
            ranks.append(len(lows))
        ranks.append(0)
        return tuple(n - ranks[d] - ranks[d + 1] for d, n in enumerate(self.counts()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(s) for d, s in enumerate(self.simplices))

    def faces(self, d: int) -> np.ndarray:
        """Global indices of the d-faces of every tet, (T, C(n+1, d+1)), in local_faces order."""
        return self.tet_faces[:, local_faces(self.dim)[1][d]]

    def face_points(self, d: int) -> np.ndarray:
        """Coordinates of the d-faces of every tet, (T, C(n+1, d+1), d+1, E)."""
        return self.tet_points[:, local_faces(self.dim)[0][d]]


def _per_simplex(mesh: SimplicialMesh, d: int, per_face: np.ndarray) -> np.ndarray:
    """Per-simplex values of dimension d, each read in the first tet that holds it.

    per_face has the (T, C(n+1, d+1), ...) layout of ``mesh.faces(d)``.
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

    ids is (T, n+1), each row increasing, its width the dimension n;
    points is (T, n+1, E), rows aligned with the ids.  Vertices are
    numbered in ascending id order, higher simplices in order of first
    appearance (tet by tet, faces in local_faces order).  Only the
    presets and subdivision call it.
    """
    if np.any(np.diff(ids, axis=1) <= 0):
        raise InternalConsistencyError("tet vertex ids must increase along each tet")
    n_tets, dim = len(ids), ids.shape[1] - 1
    subsets, masks = local_faces(dim)
    tet_faces = np.full((n_tets, 1 << (dim + 1)), -1, dtype=np.int64)
    simplices: list[np.ndarray] = []
    boundaries: list[scipy.sparse.csr_matrix | None] = [None]
    for d in range(dim + 1):
        keys = ids[:, subsets[d]].reshape(-1, d + 1)
        # one stable sort of the rows: each run of equal rows starts at
        # the row's first appearance and numbers it in sorted order
        order = np.lexsort(keys.T[::-1])
        start = np.ones(len(order), dtype=bool)
        start[1:] = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
        first = order[start]
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(start) - 1
        if d > 0:
            by_appearance = np.argsort(first)
            rank = np.empty_like(by_appearance)
            rank[by_appearance] = np.arange(len(first))
            first, inverse = first[by_appearance], rank[inverse]
        tet_faces[:, masks[d]] = inverse.reshape(n_tets, -1)
        simplices.append(keys[first])
        # the sort's work arrays, else alive through the boundary build
        # (2.2 MB of the refined 600-cell's 12.6 MB peak)
        del keys, order, start, inverse
        if d == 0:
            continue
        # the faces of each simplex, read in the tet where it first appears:
        # dropping vertex i of the sorted row gives sign (-1)^i
        tet, local = np.divmod(first, len(subsets[d]))
        drop = np.array([[mask & ~(1 << v) for v in subset]
                         for subset, mask in zip(subsets[d], masks[d])])
        rows = tet_faces[tet[:, None], drop[local]]
        cols = np.broadcast_to(np.arange(len(first))[:, None], rows.shape)
        vals = np.broadcast_to((-1) ** np.arange(d + 1), rows.shape)
        boundaries.append(scipy.sparse.csr_matrix(
            (vals.ravel(), (rows.ravel(), cols.ravel())),
            shape=(len(simplices[d - 1]), len(first)), dtype=np.int64))
    if len(simplices[dim]) != n_tets:
        raise InternalConsistencyError("a tet is listed twice")
    return SimplicialMesh(name, simplices, boundaries, embedded, points, tet_faces)


# -- presets -------------------------------------------------------------------


def _clique_tets(adj: np.ndarray) -> np.ndarray:
    """The 4-cliques of a graph (boolean adjacency, no loops) as increasing rows, lexicographic."""
    later = np.triu(adj, 1)
    cliques = np.arange(len(adj))[:, None]
    for _ in range(3):  # extend each clique by every later vertex adjacent to all of it
        rows, nxt = np.nonzero(np.logical_and.reduce(later[cliques], axis=1))
        cliques = np.column_stack([cliques[rows], nxt])
    return cliques


def _boundary_4_simplex() -> SimplicialMesh:
    """The 5-cell, the boundary of the 4-simplex: 5 unit vectors, every pair an edge."""
    basis = np.eye(5)
    centered = basis - basis.mean(axis=0)
    q, _ = np.linalg.qr(centered.T)
    verts = centered @ q[:, :4]
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    ids = _clique_tets(~np.eye(5, dtype=bool))
    return _build_from_tets("boundary-4-simplex", ids, verts[ids], embedded=True)


def _cell600_vertices() -> np.ndarray:
    """The 120 unit quaternions of the 600-cell, rows in ascending order: the 8
    permutations of (+-1, 0, 0, 0), the 16 of (+-1/2)^4 and the 96 even
    permutations of (+-phi/2, +-1/2, +-1/(2 phi), 0)."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
    perms = np.array(list(itertools.permutations(range(4))))
    even = perms[np.linalg.det(np.eye(4)[perms]) > 0]
    golden = np.array([PHI / 2, 0.5, 1 / (2 * PHI), 0.0])[even]
    verts = np.concatenate([np.eye(4), -np.eye(4), 0.5 * signs,
                            (signs[:, None] * golden).reshape(-1, 4)])
    out = np.unique(np.round(verts + 0.0, 12), axis=0)  # + 0.0 turns -0.0 into 0.0
    if out.shape != (120, 4):
        raise InternalConsistencyError(f"600-cell vertex generation produced {out.shape}")
    return out


def _cell600() -> SimplicialMesh:
    """The 600-cell: 120 unit quaternions, edges at inner product phi/2."""
    verts = _cell600_vertices()
    ids = _clique_tets(np.abs(verts @ verts.T - PHI / 2) < 1e-9)
    mesh = _build_from_tets("cell600", ids, verts[ids], embedded=True)
    if mesh.counts() != (120, 720, 1200, 600):
        raise InternalConsistencyError(f"600-cell f-vector {mesh.counts()}")
    return mesh


def _torus3_grid(m: int) -> SimplicialMesh:
    """Flat 3-torus, side 2*pi, m^3 cubes each cut into 6 tetrahedra."""
    if m < 3:
        raise UsageError("torus grid needs m >= 3 (smaller grids identify simplex vertices)")
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
            raise UsageError("torus3-grid needs a grid size m")
        return _torus3_grid(m)
    raise UsageError(f"unknown mesh preset {preset!r}")


def subdivide_barycentric(mesh: SimplicialMesh, project_radius: float | None = None) -> SimplicialMesh:
    """One barycentric subdivision (embedded meshes only).

    With project_radius set, new vertices are pushed radially onto the
    sphere of that radius: refinement of a sphere approximant has to
    track the sphere itself, otherwise the spectrum converges to the
    inscribed polytope's and not to the round one.
    """
    if not mesh.embedded:
        raise UsageError("barycentric subdivision is only supported for embedded meshes")
    dim = mesh.dim  # new vertex ids: the old simplices, dimension by dimension
    offsets = np.cumsum((0,) + mesh.counts()[:dim])
    bary = np.concatenate([_per_simplex(mesh, d, mesh.face_points(d).mean(axis=2))
                           for d in range(dim + 1)])
    if project_radius is not None:
        bary *= project_radius / np.linalg.norm(bary, axis=1, keepdims=True)
    # each flag vertex < edge < ... < tet of an old tet spans one new tet
    # on the barycenters of its dim + 1 simplices
    flags = np.cumsum([[1 << v for v in p] for p in itertools.permutations(range(dim + 1))], axis=1)
    ids = np.sort((mesh.tet_faces[:, flags] + offsets).reshape(-1, dim + 1), axis=1)
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
    pts, dim = mesh.tet_points, mesh.dim
    n_tets, (subsets, masks) = len(pts), local_faces(dim)
    centers = np.empty((n_tets, 2 << dim, pts.shape[2]))
    centers[:, masks[0]] = pts
    for d in range(1, dim + 1):
        centers[:, masks[d]] = _circumcenters(mesh.face_points(d))
    # signed height of each step from face mask a to a | 1 << v: the
    # distance between the two circumcenters, negative when the step
    # points away from the added vertex v
    a, v = np.array([(a, v) for a in range(1, 2 << dim) for v in range(dim + 1) if not a >> v & 1]).T
    step = centers[:, a | (1 << v)] - centers[:, a]
    toward = np.einsum("tse,tse->ts", step, pts[:, v] - centers[:, a])
    heights = np.zeros((n_tets, 2 << dim, dim + 1))
    heights[:, a, v] = np.where(toward >= 0, 1.0, -1.0) * np.linalg.norm(step, axis=2)

    duals = []
    for d in range(dim):
        # every flag from a d-face up to the tet: the face mask before each
        # step and the vertex the step adds
        before, added = [], []
        for subset, mask in zip(subsets[d], masks[d]):
            for chain in itertools.permutations([u for u in range(dim + 1) if u not in subset]):
                before.append(mask + np.cumsum([0] + [1 << u for u in chain[:-1]]))
                added.append(chain)
        flag_vols = heights[:, np.array(before), np.array(added)].prod(axis=2)
        per_face = flag_vols.reshape(n_tets, len(masks[d]), -1).sum(axis=2)
        per_face /= math.factorial(dim - d)
        duals.append(np.bincount(mesh.faces(d).ravel(), per_face.ravel(),
                                 minlength=len(mesh.simplices[d])))
    for d in range(dim):
        if np.any(duals[d] <= 1e-12 * np.abs(duals[d]).max()):
            return None
    return duals


def hodge_stars(mesh: SimplicialMesh) -> list[scipy.sparse.dia_matrix] | None:
    """Diagonal circumcentric Hodge stars, or None if the mesh is not well-centered."""
    duals = _flag_dual_volumes(mesh)
    if duals is None:
        return None
    stars = []
    for d in range(mesh.dim + 1):
        primal = _per_simplex(mesh, d, simplex_volumes(mesh.face_points(d)))
        dual = duals[d] if d < mesh.dim else np.ones(len(primal))
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


def _reduce(matrix: scipy.sparse.spmatrix, cleared: set[int]) -> set[int]:
    """The pivot rows of an exact column reduction of an integer matrix over Q.

    Columns are reduced left to right, skipping those in cleared.  The
    low of a column is its largest nonzero row; while an earlier reduced
    column has the same low, a multiple of it is subtracted.  A +-1 pivot
    keeps the entries integers, any other one divides as a Fraction;
    entries are Python ints, so nothing overflows.  Returns the set of
    lows, one per nonzero reduced column: their number is the rank of
    the columns not cleared.
    """
    csc = matrix.tocsc().sorted_indices()
    csc.eliminate_zeros()
    ptr, rows, vals = csc.indptr.tolist(), csc.indices.tolist(), csc.data.tolist()
    # low -> (the entry there, rows, values) of a reduced column; a column
    # nothing was subtracted from stays a slice of the input
    by_low: dict[int, tuple] = {}
    for j in range(csc.shape[1]):
        a, b = ptr[j], ptr[j + 1]
        if a == b or j in cleared:
            continue
        low, col = rows[b - 1], None
        while low in by_low:
            if col is None:
                col = dict(zip(rows[a:b], vals[a:b]))
            p, p_rows, p_vals = by_low[low]
            f = col[low] * p if p in (1, -1) else Fraction(col[low], p)
            for r, v in zip(p_rows, p_vals):
                nv = col.get(r, 0) - f * v
                if nv:
                    col[r] = nv
                else:
                    del col[r]
            if not col:
                break
            low = max(col)
        else:
            by_low[low] = ((vals[b - 1], rows[a:b], vals[a:b]) if col is None
                           else (col[low], col.keys(), col.values()))
    return set(by_low)


def integer_rank(matrix: scipy.sparse.spmatrix) -> int:
    """Exact rank of an integer matrix over Q, by column reduction (see _reduce)."""
    return len(_reduce(matrix, set()))


# -- spectra ------------------------------------------------------------------------


def is_well_centered(mesh: SimplicialMesh) -> bool:
    return _flag_dual_volumes(mesh) is not None


def _sparse_lowest(a, m, harmonic: int, count: int, gradients) -> np.ndarray:
    """The count lowest nonzero eigenvalues of the pencil (a, m), by shift-invert Lanczos.

    a + shift*m is factored once.  With gradients = d_0, each solve is
    followed by the m-orthogonal projection off im d_0 (Arbenz-Geus 2005),
    so only the harmonic part of the kernel is left, and dropped.  ARPACK
    gets ARPACK_MAXITER restarts; non-convergence raises.

    ARPACK runs at its default tol = 0 (machine precision) on purpose.
    Single-vector Lanczos finds the extra copies of a degenerate
    eigenvalue only through rounding, so a looser tolerance stops before
    they appear: with tol = 1e-8 the 6-fold shells of torus3-grid(6) at
    j = 1 (count 6) come back 4.7 % off, and the sparse and dense 600-cell
    spectra at j = 0 disagree.  Even tol = 0 misses a copy at j = 0 on torus3-grid(4),
    counts 20 and 22, and (5), count 12, with or without two eigenvalues more.
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

    try:
        vals = scipy.sparse.linalg.eigsh(
            a, k=count + harmonic, M=m, sigma=-shift, return_eigenvectors=False,
            OPinv=scipy.sparse.linalg.LinearOperator(a.shape, matvec=solve, dtype=float),
            v0=np.random.default_rng(0).standard_normal(a.shape[0]), maxiter=ARPACK_MAXITER)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise InternalConsistencyError(
            f"shift-invert Lanczos on a {a.shape[0]}-row pencil: {len(exc.eigenvalues)} of "
            f"{count + harmonic} eigenvalues converged within {ARPACK_MAXITER} ARPACK "
            f"iterations") from exc
    return np.sort(vals)[harmonic:]


def _coexact_pencil(mesh: SimplicialMesh, j: int, masses: list) -> tuple:
    """The pencil whose nonzero spectrum is the coexact one on j-cochains: (a, m, kernel, harmonic).

    kernel is the dimension of the pencil's kernel, b_j + rank d_{j-1},
    with rank d_{j-1} = sum_{i<j} (-1)^(j-1-i) (N_i - b_i) from the
    f-vector and the Betti numbers, and harmonic its harmonic part.
    """
    betti, counts, top = mesh.betti, mesh.counts(), mesh.dim
    if j == top - 1:
        # the star-dual pencil (d M_j^-1 d^T, M_top^-1) on tets, d = d_j, has the same
        # nonzero eigenvalues (substitute z = M_top d x) and only b_top zeros; M_j is diagonal
        d = mesh.boundaries[top].T.astype(float)
        a = (d @ scipy.sparse.diags(1.0 / masses[j].diagonal()) @ d.T).tocsr()
        m = scipy.sparse.diags(1.0 / masses[top].diagonal()).tocsr()
        return a, m, betti[top], betti[top]
    a, m = laplacian_pencil(mesh, j, masses)
    rank = sum((-1) ** (j - 1 - i) * (counts[i] - betti[i]) for i in range(j))  # rank d_{j-1}
    return a, m, betti[j] + rank, betti[j]


def _diagonal_mass(m: scipy.sparse.spmatrix) -> np.ndarray | None:
    """The diagonal of a mass matrix that stores no off-diagonal entry and is positive, else None."""
    coo = m.tocoo()
    diag = m.diagonal()
    return diag if np.all(coo.row == coo.col) and np.all(diag > 0) else None


def _dense_lowest(a, m, first: int, count: int) -> np.ndarray:
    """Eigenvalues first .. first + count - 1 (ascending) of the pencil (a, m), dense.

    A diagonal mass D is folded in as the standard problem D^-1/2 a D^-1/2;
    any other mass keeps the generalized problem.
    """
    diag, index = _diagonal_mass(m), [first, first + count - 1]
    if diag is None:
        return scipy.linalg.eigh(a.toarray(), m.toarray(), eigvals_only=True, subset_by_index=index)
    scale = scipy.sparse.diags(1.0 / np.sqrt(diag))
    return scipy.linalg.eigh((scale @ a @ scale).toarray(), eigvals_only=True, subset_by_index=index)


def coexact_spectrum(mesh: SimplicialMesh, j: int, masses: list, count: int) -> np.ndarray:
    """The coexact spectrum on j-cochains: the lowest count nonzero eigenvalues of the up pencil.

    Dense eigh skips the pencil's kernel (``_coexact_pencil``) by index.
    The mass matrix decides the dense problem: one that stores no
    off-diagonal entry (circumcentric stars, the lumped vertex mass) is
    folded in as the standard problem D^-1/2 A D^-1/2, with no dense mass;
    any other (a Whitney-Galerkin mass) keeps the generalized problem.
    Pencils of more than DENSE_MAX = 800 rows go to _sparse_lowest, which
    overtakes dense eigh on Galerkin pencils between 720 and 875 rows (the
    table at DENSE_MAX); it removes the kernel at j = 0, 1 and dim - 1 only.
    """
    a, m, kernel, harmonic = _coexact_pencil(mesh, j, masses)
    count = min(count, a.shape[0] - kernel)
    if count == 0:
        return np.empty(0)
    if a.shape[0] <= DENSE_MAX:
        return _dense_lowest(a, m, kernel, count)
    if 2 <= j <= mesh.dim - 2:
        raise UsageError(f"no sparse solve on {j}-cochains: nothing projects off im d_{j - 1}")
    gradients = mesh.boundaries[1].T.astype(float) if j == 1 else None
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
        raise UsageError(f"degree {k} outside 0..{mesh.dim}")
    nk = len(mesh.simplices[k])
    if not 1 <= count <= nk:
        raise UsageError(f"eigenvalue count {count} outside 1..{nk}, the {k}-cochain dimension")
    betti = mesh.betti
    masses = hodge_stars(mesh)
    if masses is None:
        from .whitney import galerkin_laplacian

        masses = galerkin_laplacian(mesh, k)
    pairs = [(float(lam), kind) for j, kind in ((k, "coexact"), (k - 1, "exact"))
             if 0 <= j < mesh.dim for lam in coexact_spectrum(mesh, j, masses, count)]
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


# -- comparison with the sphere spectrum -------------------------------------------


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


def _lowest_shell(reference: SpectralModel, kind: str) -> SpectralPoint | None:
    """The reference point of one kind with the lowest eigenvalue, or None."""
    return min((p for p in reference.points if p.kind == kind), key=lambda p: p.eigenvalue,
               default=None)


def _sig10(x: float) -> float:
    """x to 10 significant digits: its last bits follow the BLAS thread count."""
    return float(f"{x:.10g}")


def compare_sphere_spectrum(mesh: SimplicialMesh, k: int, spec: list[tuple[float, str]],
                            reference: SpectralModel) -> tuple[dict, str | None]:
    """The lowest eigenvalue shell of each kind against the sphere, and why it fails, or None.

    spec is spectrum(mesh, k, ...) and reference the closed-form sphere
    model (``sphere_preset``).  Computed eigenvalues are scaled onto the unit
    sphere by the edge-geodesic factor and clustered into approximate
    multiplets; the lowest cluster of each kind is paired with the
    lowest reference shell of that kind.  The failure is the first broken
    condition of the one rule of `oracle dec`: the reference's harmonic
    count, and for each kind with a reference shell a computed cluster,
    within SPHERE_RTOL of that shell and exactly as large as its
    multiplicity.  The rule judges the unrounded values; the comparison
    holds them to 10 significant digits.
    """
    scale = unit_sphere_edge_scale(mesh)
    failures = []
    b_k = sum(p.multiplicity for p in reference.points if p.kind == "harmonic")
    measured_b = sum(1 for lam, kd in spec if kd == "harmonic")
    if measured_b != b_k:
        failures.append(f"harmonic dimension {measured_b} disagrees with reference {b_k}")
    entries = []
    for kind in ("exact", "coexact"):
        shell = _lowest_shell(reference, kind)
        if shell is None:
            continue
        clusters = _cluster(sorted(lam * scale for lam, kd in spec if kd == kind))
        if not clusters:
            failures.append(f"no computed {kind} eigenvalue: the lowest {kind} shell is "
                            f"{shell.eigenvalue} (x{shell.multiplicity})")
            continue
        (mean, size), ref = clusters[0], float(shell.eigenvalue)
        error = abs(mean - ref) / ref
        entries.append({"kind": kind, "shell": 1, "reference": ref, "computed": _sig10(mean),
                        "rel_error": _sig10(error), "multiplicity": shell.multiplicity,
                        "cluster_size": size})
        against = (f"computed {kind} shell {mean:.4f} (x{size}) against the lowest {kind} "
                   f"shell {shell.eigenvalue} (x{shell.multiplicity})")
        if error > SPHERE_RTOL:
            failures.append(f"{against}: {error:.1%} off, beyond {SPHERE_RTOL:.0%}")
        elif size != shell.multiplicity:
            failures.append(f"{against}: cluster size {size}, not {shell.multiplicity}")
    comparison = {"mesh": mesh.name, "k": k, "scale": _sig10(scale), "entries": entries,
                  "max_rel_error": max((e["rel_error"] for e in entries), default=math.inf)}
    return comparison, (failures[0] if failures else None)


def dec_import_model(reference: SpectralModel) -> SpectralModel:
    """The exact model a passing sphere comparison promotes: what it compared, from the reference.

    A pass (``compare_sphere_spectrum``) matches the lowest shell of each
    kind that has one, so the model is the reference's harmonic points
    and those shells, at their exact eigenvalues and multiplicities;
    higher shells are discarded as mesh-unresolved.
    """
    lowest = (_lowest_shell(reference, kind) for kind in ("exact", "coexact"))
    points = [p for p in reference.points if p.kind == "harmonic"]
    points += [shell for shell in lowest if shell is not None]
    return SpectralModel(reference.n, reference.k, reference.j_value, tuple(points), "dec-import")
