import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from formlap import dec
from formlap.dec import (MeshError, _build_from_tets, _morse_complex, betti_numbers, build_mesh,
                         coexact_spectrum, compare_sphere_spectrum, dec_import_model, hodge_stars,
                         integer_rank, is_well_centered, laplacian_pencil, spectrum,
                         subdivide_barycentric, unit_sphere_edge_scale)
from formlap.whitney import galerkin_laplacian, whitney_masses


@pytest.fixture(scope="module")
def five_cell():
    return build_mesh("boundary-4-simplex")


@pytest.fixture(scope="module")
def torus3():
    return build_mesh("torus3-grid", 3)


@pytest.fixture(scope="module")
def c600():
    return build_mesh("cell600")


def test_f_vectors(five_cell, torus3, c600):
    assert five_cell.counts() == (5, 10, 10, 5)
    assert c600.counts() == (120, 720, 1200, 600)
    assert torus3.counts()[3] == 27 * 6


def test_euler_characteristics(five_cell, torus3, c600):
    assert five_cell.euler_characteristic() == 0
    assert torus3.euler_characteristic() == 0
    assert c600.euler_characteristic() == 0


def test_boundary_of_boundary(five_cell, torus3, c600):
    for mesh in (five_cell, torus3, c600):
        for d in (1, 2):
            prod = mesh.boundaries[d] @ mesh.boundaries[d + 1]
            assert prod.nnz == 0 or not np.any(prod.toarray())


def test_invalid_preset():
    with pytest.raises(MeshError):
        build_mesh("dodecaplex")
    with pytest.raises(MeshError):
        build_mesh("torus3-grid", 2)


def _rank_betti(mesh):
    """Reference Betti numbers: integer_rank of the full boundary matrices."""
    ranks = [0] + [integer_rank(mesh.boundaries[d]) for d in range(1, 4)] + [0]
    return tuple(c - ranks[d] - ranks[d + 1] for d, c in enumerate(mesh.counts()))


def test_betti_numbers_exact(five_cell, torus3, c600):
    assert betti_numbers(five_cell) == (1, 0, 0, 1)
    assert betti_numbers(c600) == (1, 0, 0, 1)
    assert betti_numbers(torus3) == (1, 3, 3, 1)
    refined = subdivide_barycentric(five_cell, project_radius=1.0)
    for mesh in (five_cell, torus3, c600, refined):
        assert betti_numbers(mesh) == _rank_betti(mesh), mesh.name


def test_critical_cells_of_the_presets(five_cell, torus3, c600):
    # a coreduction of a torus grid leaves a perfect Morse complex, so the
    # 3x3 Morse boundaries are zero; on the spheres only a vertex and a tet remain
    spheres = (five_cell, c600, subdivide_barycentric(five_cell, project_radius=1.0),
               subdivide_barycentric(c600, project_radius=1.0))
    for meshes, known in (((torus3, build_mesh("torus3-grid", 6)), (1, 3, 3, 1)),
                          (spheres, (1, 0, 0, 1))):
        for mesh in meshes:
            crit, morse = _morse_complex(mesh)
            assert tuple(crit) == known, mesh.name
            assert [m.shape for m in morse] == [(crit[d - 1], crit[d]) for d in (1, 2, 3)]
            assert betti_numbers(mesh) == known, mesh.name


def _random_subcomplexes(mesh, count, seed):
    """Seeded subsets of the tets of a mesh, each a complex of its own.

    On an embedded mesh the tets are first cut to a band of the sphere,
    which keeps the reference ranks cheap.
    """
    rng = np.random.default_rng(seed)
    ids = np.array(mesh.simplices[3])
    centres = mesh.tet_points.mean(axis=1)
    for _ in range(count):
        pool = np.arange(len(ids))
        if mesh.embedded:
            height = centres @ centres[rng.integers(len(ids))]
            low = rng.uniform(-0.5, 0.3)
            pool = np.nonzero((height > low) & (height < low + 0.3))[0]
        keep = pool[rng.random(len(pool)) < rng.uniform(0.2, 0.9)]
        if len(keep):
            yield _build_from_tets(mesh.name + "-sub", ids[keep], mesh.tet_points[keep],
                                   embedded=mesh.embedded)


def test_betti_numbers_match_full_ranks_on_random_subcomplexes(torus3, c600):
    cases = excess = 0
    for mesh, count in ((torus3, 140), (c600, 70)):
        for sub in _random_subcomplexes(mesh, count, seed=1):
            betti = betti_numbers(sub)
            assert betti == _rank_betti(sub), (sub.counts(), betti)
            cases += 1
            excess += sum(_morse_complex(sub)[0]) > sum(betti)
    assert cases >= 200
    # a nonzero Morse boundary was needed, not only the critical counts
    assert excess >= 10


def test_integer_rank_small():
    import scipy.sparse

    m = scipy.sparse.csr_matrix(np.array([[1, 2], [2, 4]]))
    assert integer_rank(m) == 1
    m2 = scipy.sparse.csr_matrix(np.array([[2, 0], [0, 3]]))  # no unit pivots
    assert integer_rank(m2) == 2


def _masses(mesh, k):
    """The masses the degree-k spectrum uses: circumcentric stars, else Whitney masses."""
    stars = hodge_stars(mesh)
    return stars if stars is not None else galerkin_laplacian(mesh, k)


def test_hodge_operator_structure(five_cell, torus3):
    # each up pencil annihilates im d_{j-1}, since d_j d_{j-1} = 0; five_cell
    # takes the circumcentric path, torus3 the Whitney one (masses up to M2)
    for mesh, degrees in ((five_cell, (1, 2)), (torus3, (1,))):
        for j in degrees:
            up, _ = laplacian_pencil(mesh, j, _masses(mesh, j))
            assert abs(up @ mesh.boundaries[j].T).max() <= 1e-12 * abs(up).max()


def test_up_pencil_nullity(five_cell, torus3):
    # the dense nullity of each up pencil is b_j + rank d_{j-1}: the kernel
    # the dense solve skips by index, without testing any eigenvalue against zero
    for mesh, j in ((five_cell, 0), (five_cell, 1), (torus3, 0), (torus3, 1)):
        up, mass = laplacian_pencil(mesh, j, _masses(mesh, j))
        vals = scipy.linalg.eigh(up.toarray(), mass.toarray(), eigvals_only=True)
        kernel = betti_numbers(mesh)[j] + (integer_rank(mesh.boundaries[j]) if j else 0)
        assert int(np.sum(np.abs(vals) < 1e-9 * vals.max())) == kernel


def test_sparse_solve_matches_dense(monkeypatch):
    c600, grid = build_mesh("cell600"), build_mesh("torus3-grid", 5)
    fine = subdivide_barycentric(build_mesh("boundary-4-simplex"), project_radius=1.0)
    for mesh, degrees in ((c600, (0, 1, 2)), (grid, (0, 1)), (fine, (0, 1, 2))):
        betti = betti_numbers(mesh)
        for j in degrees:
            masses = _masses(mesh, j)
            dense = coexact_spectrum(mesh, j, masses, 10, betti)
            with monkeypatch.context() as patch:
                patch.setattr(dec, "DENSE_MAX", 0)  # every pencil takes the sparse solve
                sparse = coexact_spectrum(mesh, j, masses, 10, betti)
            assert sparse == pytest.approx(dense, rel=1e-9, abs=0), (mesh.name, j)


def test_refined_sphere_two_form_multiplets():
    # coexact and exact 2-form shells interleave; each comes out of its own
    # pencil, degenerate to rounding by the symmetry of the mesh
    mesh = subdivide_barycentric(build_mesh("cell600"), project_radius=1.0)
    spec = spectrum(mesh, 2, 12)
    assert [kind for _, kind in spec] == ["coexact"] * 4 + ["exact"] * 6 + ["coexact"] * 2
    for shell in (spec[:4], spec[4:10], spec[10:]):
        vals = [lam for lam, _ in shell]
        assert max(vals) - min(vals) < 1e-8 * min(vals)


def _scaled(mesh, factor):
    return dataclasses.replace(mesh, tet_points=mesh.tet_points * factor)


def test_well_centered_detection(five_cell, torus3, c600):
    # the decision is scale-free: only the shape of the mesh matters
    for factor in (1e-5, 1.0, 1e3):
        assert is_well_centered(_scaled(five_cell, factor))
        assert is_well_centered(_scaled(c600, factor))
        # grid tets have boundary circumcenters: no stars, the Whitney path
        assert not is_well_centered(_scaled(torus3, factor))
        assert hodge_stars(_scaled(torus3, factor)) is None


def test_spectrum_is_scale_free(five_cell):
    # eigenvalues scale as f^-2; which of them count as zero must not depend on f
    def pairs(factor):
        return [(lam * factor**2, kind) for lam, kind in spectrum(_scaled(five_cell, factor), 0, 4)]

    base = pairs(1.0)
    assert [kind for _, kind in base] == ["harmonic"] + ["coexact"] * 4
    # no nonzero eigenvalue is asked for: the harmonics alone
    assert spectrum(five_cell, 0, 0) == [(0.0, "harmonic")]
    assert spectrum(five_cell, 1, 0) == []
    for factor in (1e-3, 1e5):
        got = pairs(factor)
        assert [kind for _, kind in got] == [kind for _, kind in base]
        assert [lam for lam, _ in got] == pytest.approx([lam for lam, _ in base], rel=1e-9, abs=0)


def _vertex_coords(mesh):
    """One coordinate row per vertex of an embedded mesh, read off the tets."""
    coords = np.empty((len(mesh.simplices[0]), mesh.tet_points.shape[2]))
    for t in range(len(mesh.simplices[3])):
        for i in range(4):
            coords[mesh.tet_faces[t, 1 << i]] = mesh.tet_points[t, i]
    return coords


def test_hodge_star_volume_identity(five_cell, c600):
    # each simplex and its dual span |s| * |*s| / C(3, d) of volume, so
    # sum |s|^2 * star_d(s) = C(3, d) * Vol(M) in every degree
    for mesh in (five_cell, c600):
        coords = _vertex_coords(mesh)
        primal = []
        for d in range(4):
            vols = []
            for simplex in mesh.simplices[d]:
                edges = coords[list(simplex[1:])] - coords[simplex[0]]
                vols.append(math.sqrt(abs(np.linalg.det(edges @ edges.T))) / math.factorial(d))
            primal.append(np.array(vols))
        total = primal[3].sum()
        stars = hodge_stars(mesh)
        for d in range(4):
            lhs = float(np.sum(primal[d] ** 2 * stars[d].diagonal()))
            assert abs(lhs - math.comb(3, d) * total) <= 1e-12 * total


def test_whitney_masses_integrate_constant_forms(torus3):
    # Whitney forms reproduce constant forms, so each mass matrix
    # integrates the cochain of a unit constant form to Vol = (2 pi)^3
    vol = (2 * math.pi) ** 3
    masses = whitney_masses(torus3)
    ones = np.ones(len(torus3.simplices[0]))
    assert abs(ones @ masses["M0"] @ ones - vol) <= 1e-12 * vol
    assert abs(masses["M0_lumped"].sum() - vol) <= 1e-12 * vol
    # the cochains: integrals over each edge and face, on unwrapped tet coordinates
    edge_vec = np.empty((len(torus3.simplices[1]), 3))
    face_vecs = np.empty((len(torus3.simplices[2]), 2, 3))
    for t, pts in enumerate(torus3.tet_points):
        for a, b in itertools.combinations(range(4), 2):
            edge_vec[torus3.tet_faces[t, (1 << a) | (1 << b)]] = pts[b] - pts[a]
        for a, b, c in itertools.combinations(range(4), 3):
            face_vecs[torus3.tet_faces[t, (1 << a) | (1 << b) | (1 << c)]] = pts[[b, c]] - pts[a]
    for i in range(3):
        cochain = edge_vec[:, i]
        assert abs(cochain @ masses["M1"] @ cochain - vol) <= 1e-12 * vol
    u, w = face_vecs[:, 0], face_vecs[:, 1]
    for j, k in ((0, 1), (0, 2), (1, 2)):
        cochain = (u[:, j] * w[:, k] - u[:, k] * w[:, j]) / 2  # dx_j ^ dx_k over the face
        assert abs(cochain @ masses["M2"] @ cochain - vol) <= 1e-12 * vol


def test_sphere_function_spectrum(c600):
    spec = spectrum(c600, 0, 6)
    nonzero = [lam for lam, kind in spec if kind != "harmonic"]
    # the lowest function shell is reproduced almost exactly on this mesh
    assert abs(nonzero[0] * unit_sphere_edge_scale(c600) - 3.0) < 0.2
    assert sum(1 for lam, kind in spec if kind == "harmonic") == 1


def test_sphere_comparison_within_tolerance(c600):
    from formlap.spectral import sphere_preset

    cmp = compare_sphere_spectrum(c600, 1, spectrum(c600, 1, 40), sphere_preset(3, 1, 2))
    assert cmp["max_rel_error"] <= 0.10
    kinds = {e["kind"] for e in cmp["entries"]}
    assert kinds == {"exact", "coexact"}
    for entry in cmp["entries"]:
        assert entry["cluster_size"] == entry["multiplicity"]


def test_dec_import_model(c600):
    from formlap.spectral import sphere_preset

    model = dec_import_model(c600, 1, spectrum(c600, 1, 40), sphere_preset(3, 1, 4))
    assert model.source == "dec-import"
    assert model.j_value == Fraction(3, 2)
    have = {(p.kind, p.eigenvalue): p.multiplicity for p in model.points}
    assert have == {("exact", Fraction(3)): 4, ("coexact", Fraction(4)): 6}


@pytest.mark.parametrize("exact_shell, needle", [
    ((8, 9), "8.0000 (x9)"),   # the lowest exact cluster sits at the second shell
    ((3, 3), "3.0000 (x3)"),   # at the first shell, one eigenvalue short
], ids=["second-shell", "short-cluster"])
def test_dec_import_promotes_only_compared_shells(c600, exact_shell, needle):
    # hand-built spectra, already on the unit sphere once scaled: the
    # coexact shell matches, the exact one is not the shell it is compared with
    from formlap.spectral import sphere_preset

    reference = sphere_preset(3, 1, 4)
    scale = unit_sphere_edge_scale(c600)
    lam, size = exact_shell
    spec = sorted([(lam / scale, "exact")] * size + [(4 / scale, "coexact")] * 6)
    cmp = compare_sphere_spectrum(c600, 1, spec, reference)
    assert [(e["kind"], e["cluster_size"]) for e in cmp["entries"]] == [("exact", size),
                                                                        ("coexact", 6)]
    with pytest.raises(MeshError, match="matches no reference value") as info:
        dec_import_model(c600, 1, spec, reference)
    assert needle in str(info.value) and "the lowest exact shell is 3 (x4)" in str(info.value)


def test_torus_function_eigenvalue_converges():
    # 2-pi-periodic torus: the lowest nonzero function eigenvalue tends to 1
    errs = []
    for m in (3, 5):
        mesh = build_mesh("torus3-grid", m)
        spec = spectrum(mesh, 0, 8)
        lam = next(l for l, kind in spec if l > 1e-9)
        errs.append(abs(lam - 1.0))
    assert errs[1] < errs[0]
    assert errs[1] < 0.15


def test_subdivision_requires_embedding(torus3):
    with pytest.raises(MeshError):
        subdivide_barycentric(torus3)
