"""Tests for the lowest-order element spaces: degrees of freedom,
incidence matrices, interpolation and local form matrices."""

import numpy as np
import pytest

from safefem.mesh import (
    DIAG_LL_UR,
    DIAG_UL_LR,
    build_unit_cube_mesh,
    build_unit_square_mesh,
    local_subsimplices,
    mesh_geometry,
)
from safefem.quadrature import simplex_rules
from safefem.whitney import (
    basis_derivatives,
    basis_values,
    canonical_interpolate,
    dof_map,
    incidence,
    local_incidence,
    mass_matrices,
    stiffness_matrices,
)

from conftest import facet_normals, jittered_mesh, random_cell_mesh, single_cell_mesh

SPECIES = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)]


def cell_basis(geo, k, x):
    """Basis of the one-cell block ``geo`` at the points ``x`` (npts, n),
    refusing points outside the cell."""
    return basis_values(geo, k, x[None], 1e-10)[0]


def test_num_local_dofs():
    assert [len(local_subsimplices(2, k)) for k in range(3)] == [3, 3, 1]
    assert [len(local_subsimplices(3, k)) for k in range(4)] == [4, 6, 4, 1]


def test_dof_map_shapes():
    mesh = build_unit_cube_mesh(2)
    for k in range(4):
        dm = dof_map(mesh, k)
        assert dm.num_dofs == mesh.num_entities(k)
        assert dm.cell_dofs.shape == (mesh.num_cells, len(local_subsimplices(3, k)))
        assert dm.boundary.shape == (dm.num_dofs,)


def test_facet_outward_signs(rng):
    for dim in (2, 3):
        geom = mesh_geometry(random_cell_mesh(rng, dim))[0]
        signs = geom.facet_signs
        normals, _ = facet_normals(geom)
        locs = local_subsimplices(dim, dim - 1)
        for slot, loc in enumerate(locs):
            centroid = geom.vertices[list(loc)].mean(axis=0)
            outward = centroid - geom.barycenter
            assert signs[slot] * (normals[slot] @ outward) > 0


def test_kronecker_dofs(rng):
    # canonical DOFs of the basis functions form the identity
    for dim, k in SPECIES:
        mesh = random_cell_mesh(rng, dim)
        geo = mesh_geometry(mesh)
        nloc = len(local_subsimplices(dim, k))
        for j in range(nloc):
            def field(x, j=j):
                vals = cell_basis(geo, k, x)
                return vals[:, j] if vals.ndim == 2 else vals[:, j, :]

            dofs = canonical_interpolate(mesh, k, field, degree=8)
            expected = np.zeros(nloc)
            expected[j] = 1.0
            np.testing.assert_allclose(dofs, expected, atol=1e-12)


def test_eval_basis_rejects_outside_points():
    geo = mesh_geometry(build_unit_square_mesh(1))[[0]]
    with pytest.raises(ValueError, match=r"point outside cell 0\b"):
        cell_basis(geo, 0, np.array([[2.0, 2.0]]))


def test_partition_of_unity(rng):
    for dim in (2, 3):
        geo = mesh_geometry(random_cell_mesh(rng, dim))
        pts = random_interior_points(rng, geo[0], 5)
        vals = cell_basis(geo, 0, pts)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, rtol=1e-12)


def random_interior_points(rng, geom, count):
    lam = rng.dirichlet(np.ones(len(geom.vertices)), size=count)
    return lam @ geom.vertices


def test_incidence_integer_and_nilpotent():
    mesh2 = build_unit_square_mesh(3)
    d0 = incidence(mesh2, 0)
    d1 = incidence(mesh2, 1)
    assert d0.dtype.kind == "i" and d1.dtype.kind == "i"
    assert d0.shape == (mesh2.num_entities(1), mesh2.num_entities(0))
    assert (d1 @ d0).nnz == 0 or abs((d1 @ d0)).max() == 0

    mesh3 = build_unit_cube_mesh(2)
    d0 = incidence(mesh3, 0)
    d1 = incidence(mesh3, 1)
    d2 = incidence(mesh3, 2)
    assert abs((d1 @ d0)).max() == 0
    assert abs((d2 @ d1)).max() == 0
    for d in (d0, d1, d2):
        assert set(np.unique(d.data)) <= {-1, 1}


def test_local_incidence_matches_global():
    mesh = build_unit_cube_mesh(1)
    for k in range(3):
        dglob = incidence(mesh, k).toarray()
        for cid in (0, 3):
            dloc = local_incidence(mesh_geometry(mesh)[cid], k)
            rows = mesh.cell_entities[k + 1][cid]
            cols = mesh.cell_entities[k][cid]
            np.testing.assert_array_equal(dloc, dglob[np.ix_(rows, cols)])


def _loop_incidence(mesh, k):
    """D^k entry by entry: head minus tail on each edge, the boundary
    cycle a -> b -> c of each sorted face, and the outward sign of each
    facet of a cell."""
    n = mesh.dim
    D = np.zeros((mesh.num_entities(k + 1), mesh.num_entities(k)), dtype=np.int64)
    if k == n - 1:
        signs = mesh_geometry(mesh).facet_signs
        for c in range(mesh.num_cells):
            D[c, mesh.cell_entities[k][c]] = signs[c]
        return D
    ids = {tuple(s): i for i, s in enumerate(mesh.simplices[k].tolist())}
    for r, s in enumerate(mesh.simplices[k + 1].tolist()):
        if k == 0:
            D[r, s[0]], D[r, s[1]] = -1, 1
        else:
            a, b, c = s
            D[r, ids[(a, b)]], D[r, ids[(b, c)]], D[r, ids[(a, c)]] = 1, 1, -1
    return D


@pytest.mark.parametrize("diagonal", [DIAG_LL_UR, DIAG_UL_LR, None])
@pytest.mark.parametrize("n", range(1, 7))
def test_incidence_matches_loop_reference(n, diagonal):
    if diagonal is None:
        mesh = build_unit_cube_mesh(n)
    else:
        mesh = build_unit_square_mesh(n, diagonal=diagonal)
    for k in range(mesh.dim):
        d = incidence(mesh, k)
        assert d.dtype == np.int64
        assert d.nnz == (k + 2) * mesh.num_entities(k + 1)
        assert np.array_equal(d.toarray(), _loop_incidence(mesh, k))


def poly_fields_2d():
    u = lambda x: x[:, 0] ** 2 * x[:, 1] + x[:, 0]
    rot_u = lambda x: np.column_stack(
        [x[:, 0] ** 2, -(2 * x[:, 0] * x[:, 1] + 1)]
    )
    w = lambda x: np.column_stack([x[:, 0] ** 2, x[:, 1] * x[:, 0]])
    div_w = lambda x: 3 * x[:, 0]
    return u, rot_u, w, div_w


def poly_fields_3d():
    u = lambda x: x[:, 0] * x[:, 1] * x[:, 2]
    grad_u = lambda x: np.column_stack(
        [x[:, 1] * x[:, 2], x[:, 0] * x[:, 2], x[:, 0] * x[:, 1]]
    )
    w = lambda x: np.column_stack([x[:, 1] ** 2, x[:, 2] ** 2, x[:, 0] ** 2])
    curl_w = lambda x: np.column_stack([-2 * x[:, 2], -2 * x[:, 0], -2 * x[:, 1]])
    v = lambda x: np.column_stack(
        [x[:, 0] * x[:, 2], x[:, 1] * x[:, 0], x[:, 2] * x[:, 1]]
    )
    div_v = lambda x: x[:, 2] + x[:, 0] + x[:, 1]
    return u, grad_u, w, curl_w, v, div_v


def test_interpolation_commutes_with_derivative_2d():
    mesh = build_unit_square_mesh(3)
    u, rot_u, w, div_w = poly_fields_2d()
    np.testing.assert_allclose(
        incidence(mesh, 0) @ canonical_interpolate(mesh, 0, u),
        canonical_interpolate(mesh, 1, rot_u, degree=6),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        incidence(mesh, 1) @ canonical_interpolate(mesh, 1, w, degree=6),
        canonical_interpolate(mesh, 2, div_w, degree=6),
        atol=1e-12,
    )


def test_interpolation_commutes_with_derivative_3d():
    mesh = build_unit_cube_mesh(2)
    u, grad_u, w, curl_w, v, div_v = poly_fields_3d()
    np.testing.assert_allclose(
        incidence(mesh, 0) @ canonical_interpolate(mesh, 0, u),
        canonical_interpolate(mesh, 1, grad_u, degree=6),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        incidence(mesh, 1) @ canonical_interpolate(mesh, 1, w, degree=6),
        canonical_interpolate(mesh, 2, curl_w, degree=6),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        incidence(mesh, 2) @ canonical_interpolate(mesh, 2, v, degree=6),
        canonical_interpolate(mesh, 3, div_v, degree=6),
        atol=1e-12,
    )


def test_constant_field_dofs(rng):
    # closed-form DOFs of constant fields: |E| c.tau and |F| c.n
    mesh = random_cell_mesh(rng, 3)
    geom = mesh_geometry(mesh)[0]
    c = np.array([0.3, -1.2, 0.7])
    field = lambda x: np.tile(c, (len(x), 1))

    edges = canonical_interpolate(mesh, 1, field, degree=4)
    for slot, (i, j) in enumerate(local_subsimplices(3, 1)):
        tangent = geom.vertices[j] - geom.vertices[i]
        assert edges[slot] == pytest.approx(c @ tangent, rel=1e-12, abs=1e-14)

    faces = canonical_interpolate(mesh, 2, field, degree=4)
    normals, measures = facet_normals(geom)
    for slot in range(4):
        expected = measures[slot] * (c @ normals[slot])
        assert faces[slot] == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_local_stiffness_reference_triangle():
    mesh = single_cell_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    K = stiffness_matrices(mesh_geometry(mesh), 0)[0]
    ref = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    np.testing.assert_allclose(K, ref, atol=1e-14)


def test_local_mass_reference_triangle():
    mesh = single_cell_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    M = mass_matrices(mesh_geometry(mesh), 0)[0]
    ref = (np.ones((3, 3)) + np.eye(3)) / 24.0
    np.testing.assert_allclose(M, ref, rtol=1e-13)
    # the facet basis is +-(x - a_opp) / (2 |T|); the hypotenuse function
    # is orthogonal to both others, and those zeros must come out exact
    M = mass_matrices(mesh_geometry(mesh), 1)[0]
    ref = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]) / 6.0
    np.testing.assert_allclose(M, ref, rtol=1e-15, atol=0.0)


def quadrature_gram(mesh, k, use_d=False, degree=8):
    """Gram matrix of basis (or derivative-proxy) functions by quadrature."""
    geo = mesh_geometry(mesh)
    pts, wts = (a[0] for a in simplex_rules(geo.vertices, degree))
    vals = basis_derivatives(geo, k)[0] if use_d else cell_basis(geo, k, pts)
    if vals.ndim == 2 and vals.shape[0] != len(pts):
        # constant-per-cell proxies: promote to a point axis
        vals = np.broadcast_to(vals[None, :, :], (len(pts),) + vals.shape)
    if vals.ndim == 1:
        vals = np.broadcast_to(vals[None, :], (len(pts), vals.shape[0]))
    if vals.ndim == 2:
        return np.einsum("q,qi,qj->ij", wts, vals, vals)
    return np.einsum("q,qid,qjd->ij", wts, vals, vals)


def test_mass_matches_quadrature(rng):
    for dim, k in SPECIES:
        mesh = random_cell_mesh(rng, dim)
        M = mass_matrices(mesh_geometry(mesh), k)[0]
        np.testing.assert_allclose(
            M, quadrature_gram(mesh, k), atol=1e-12 * max(1.0, abs(M).max())
        )


def test_stiffness_matches_quadrature(rng):
    for dim, k in SPECIES:
        if k == dim:
            continue  # top-degree proxy is zero by construction
        mesh = random_cell_mesh(rng, dim)
        K = stiffness_matrices(mesh_geometry(mesh), k)[0]
        np.testing.assert_allclose(
            K,
            quadrature_gram(mesh, k, use_d=True),
            atol=1e-11 * max(1.0, abs(K).max()),
        )


def test_stiffness_kernel_dimensions(rng):
    # nullity equals the dimension of derivative-free fields in the space
    expected = {(2, 0): 1, (2, 1): 2, (2, 2): 1, (3, 0): 1, (3, 1): 3,
                (3, 2): 3, (3, 3): 1}
    for dim, k in SPECIES:
        mesh = random_cell_mesh(rng, dim)
        K = stiffness_matrices(mesh_geometry(mesh), k)[0]
        np.testing.assert_allclose(K, K.T, atol=1e-13 * max(1.0, abs(K).max()))
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-12 * max(1.0, abs(K).max())
        nullity = int((eigs < 1e-10 * max(1.0, abs(K).max())).sum())
        assert nullity == expected[(dim, k)]


def test_interpolation_error_decays(rng):
    # smooth field, edge space: canonical interpolation error is O(h)
    field = lambda x: np.column_stack(
        [np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 0])]
    )
    errors = []
    for n in (4, 8, 16):
        mesh = build_unit_square_mesh(n)
        dofs = canonical_interpolate(mesh, 1, field, degree=6)
        geo = mesh_geometry(mesh)
        pts, wts = simplex_rules(geo.vertices, 6)
        vals = basis_values(geo, 1, pts, 1e-10)
        local = dofs[mesh.cell_entities[1]]
        exact = field(pts.reshape(-1, 2)).reshape(pts.shape)
        diff = np.einsum("cqid,ci->cqd", vals, local) - exact
        errors.append(np.sqrt(np.sum(wts * (diff**2).sum(axis=2))))
    rate = np.log2(errors[0] / errors[1])
    assert 0.8 < rate < 1.3
    rate = np.log2(errors[1] / errors[2])
    assert 0.9 < rate < 1.2


@pytest.mark.parametrize("shift", [10.0, 1e3])
@pytest.mark.parametrize("dim", [2, 3])
def test_facet_mass_is_translation_stable(dim, shift):
    # far from the origin the facet mass must not lose digits to
    # cancellation between O(|x|^2) moments; the quadrature route works
    # with O(h) offsets there
    mesh = jittered_mesh(dim, 7 + dim)
    mesh.vertices = mesh.vertices + shift
    geo = mesh_geometry(mesh)
    pts, wts = simplex_rules(geo.vertices, 2)
    vals = basis_values(geo, dim - 1, pts)
    ref = np.einsum("cq,cqad,cqbd->cab", wts, vals, vals)
    M = mass_matrices(geo, dim - 1)
    assert np.max(np.abs(M - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("mesh", [
    build_unit_square_mesh(8, DIAG_LL_UR),
    build_unit_square_mesh(8, DIAG_UL_LR),
    build_unit_cube_mesh(4),
], ids=["square-ll-ur", "square-ul-lr", "cube"])
def test_facet_mass_zeros_are_exact(mesh):
    # on grids with dyadic coordinates the vertex offsets and their
    # products are exact, so orthogonal facet functions get an exact 0,
    # which the constrained system then drops from its pattern
    M = mass_matrices(mesh_geometry(mesh), mesh.dim - 1)
    vanishing = np.abs(M) <= 1e-12 * np.abs(M).max()
    assert vanishing.any()
    np.testing.assert_array_equal(M[vanishing], 0.0)
