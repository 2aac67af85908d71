"""Tests for mesh construction, entity tables and cell geometry."""

import itertools

import numpy as np
import pytest

from safefem.mesh import (
    DIAG_LL_UR,
    DIAG_UL_LR,
    _build_complex,
    build_unit_cube_mesh,
    build_unit_square_mesh,
    local_subsimplices,
    mesh_geometry,
    opposite_vertices,
    save_vtk,
)
from safefem.quadrature import simplex_measures

from conftest import facet_normals, jittered_mesh, random_simplex, single_cell_mesh


def test_local_subsimplices():
    assert local_subsimplices(2, 0) == [(0,), (1,), (2,)]
    assert local_subsimplices(2, 1) == [(0, 1), (0, 2), (1, 2)]
    assert local_subsimplices(3, 2) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_square_mesh_counts():
    mesh = build_unit_square_mesh(2)
    assert mesh.dim == 2
    assert mesh.vertices.shape == (9, 2)
    assert mesh.num_entities(1) == 16
    assert mesh.num_cells == 8
    # Euler characteristic of a disk
    assert mesh.num_entities(0) - mesh.num_entities(1) + mesh.num_cells == 1


@pytest.mark.parametrize("n", [1, 2, 5])
def test_square_mesh_scaling(n):
    mesh = build_unit_square_mesh(n)
    assert mesh.num_cells == 2 * n * n
    assert mesh.num_entities(0) == (n + 1) ** 2
    assert mesh.boundary[1].sum() == 4 * n
    vols = mesh_geometry(mesh).volume
    assert sum(vols) == pytest.approx(1.0, rel=1e-13)
    assert min(vols) == pytest.approx(max(vols), rel=1e-13)


def _loop_cells(n, diagonal):
    """Cells of the structured builders, square by square and cube by
    cube, each row sorted as the builders store it; ``diagonal`` None
    stands for the cube builder."""
    cells = []
    if diagonal is None:
        axes = np.eye(3, dtype=np.int64)
        for k in range(n):
            for j in range(n):
                for i in range(n):
                    for perm in itertools.permutations(range(3)):
                        path = [np.array([i, j, k])]
                        for ax in perm:
                            path.append(path[-1] + axes[ax])
                        cells.append([p @ [1, n + 1, (n + 1) ** 2] for p in path])
    else:
        for j in range(n):
            for i in range(n):
                v00, v10 = i + (n + 1) * j, i + 1 + (n + 1) * j
                v01, v11 = v00 + n + 1, v10 + n + 1
                if diagonal == DIAG_LL_UR:
                    cells += [[v00, v10, v11], [v00, v11, v01]]
                else:
                    cells += [[v00, v10, v01], [v10, v11, v01]]
    return np.sort(np.array(cells), axis=1)


@pytest.mark.parametrize("diagonal", [DIAG_LL_UR, DIAG_UL_LR, None])
@pytest.mark.parametrize("n", range(1, 7))
def test_builders_match_loop_reference(n, diagonal):
    if diagonal is None:
        mesh = build_unit_cube_mesh(n)
    else:
        mesh = build_unit_square_mesh(n, diagonal=diagonal)
    assert np.array_equal(mesh.cells, _loop_cells(n, diagonal))
    # an entity lies in the boundary of the box exactly when all of its
    # vertices share a coordinate equal to 0 or to 1
    for k in range(mesh.dim + 1):
        verts = mesh.vertices[mesh.simplices[k]]
        on_plane = ((verts == 0.0).all(axis=1) | (verts == 1.0).all(axis=1)).any(axis=1)
        assert np.array_equal(mesh.boundary[k], on_plane)


@pytest.mark.parametrize("diagonal", [DIAG_LL_UR, DIAG_UL_LR, None])
@pytest.mark.parametrize("n", range(1, 7))
def test_entity_tables_match_unique_reference(n, diagonal):
    # each entity table is the sorted set of the cells' local
    # subsimplices, and the cell-to-entity map is its inverse
    if diagonal is None:
        mesh = build_unit_cube_mesh(n)
    else:
        mesh = build_unit_square_mesh(n, diagonal=diagonal)
    for k in range(1, mesh.dim):
        locs = local_subsimplices(mesh.dim, k)
        raw = np.concatenate([mesh.cells[:, loc] for loc in locs])
        uniq, inverse = np.unique(raw, axis=0, return_inverse=True)
        assert np.array_equal(mesh.simplices[k], uniq)
        assert np.array_equal(mesh.cell_entities[k], inverse.reshape(len(locs), -1).T)


def test_square_mesh_vertex_order():
    # vertex ids run x-fastest in lexicographic order
    mesh = build_unit_square_mesh(2)
    np.testing.assert_allclose(mesh.vertices[0], [0.0, 0.0])
    np.testing.assert_allclose(mesh.vertices[1], [0.5, 0.0])
    np.testing.assert_allclose(mesh.vertices[3], [0.0, 0.5])
    np.testing.assert_allclose(mesh.vertices[8], [1.0, 1.0])


def test_square_mesh_diagonal_conventions():
    def has_edge(mesh, a, b):
        return sorted((a, b)) in mesh.simplices[1].tolist()

    llur = build_unit_square_mesh(1, diagonal=DIAG_LL_UR)
    assert has_edge(llur, 0, 3)  # (0,0) to (1,1)
    ullr = build_unit_square_mesh(1, diagonal=DIAG_UL_LR)
    assert has_edge(ullr, 1, 2)  # (1,0) to (0,1)
    with pytest.raises(ValueError):
        build_unit_square_mesh(1, diagonal="slash")


def test_cells_are_sorted_everywhere():
    for mesh in (build_unit_square_mesh(3), build_unit_cube_mesh(2)):
        for k, simps in mesh.simplices.items():
            assert (np.diff(simps, axis=1) > 0).all() if k > 0 else True


def test_cube_mesh_counts():
    mesh = build_unit_cube_mesh(1)
    assert mesh.dim == 3
    assert mesh.vertices.shape == (8, 3)
    assert mesh.num_entities(1) == 19
    assert mesh.num_entities(2) == 18
    assert mesh.num_cells == 6
    # Euler characteristic of a ball
    assert 8 - 19 + 18 - 6 == 1

    mesh = build_unit_cube_mesh(3)
    assert mesh.num_cells == 6 * 27
    assert mesh.num_entities(0) == 64
    euler = (
        mesh.num_entities(0)
        - mesh.num_entities(1)
        + mesh.num_entities(2)
        - mesh.num_cells
    )
    assert euler == 1
    # every boundary face of the unit cube carries 2 n^2 triangles
    assert mesh.boundary[2].sum() == 6 * 2 * 9


def test_cube_mesh_volumes():
    mesh = build_unit_cube_mesh(2)
    vols = mesh_geometry(mesh).volume
    assert vols.sum() == pytest.approx(1.0, rel=1e-13)
    np.testing.assert_allclose(vols, 1.0 / (6 * 8), rtol=1e-13)


def test_cube_mesh_boundary_closure():
    # edges and vertices flagged boundary are exactly those lying in a
    # boundary facet
    mesh = build_unit_cube_mesh(2)
    bfaces = mesh.simplices[2][mesh.boundary[2]]
    expected_edges = set()
    for f in bfaces:
        f = f.tolist()
        expected_edges.update([(f[0], f[1]), (f[0], f[2]), (f[1], f[2])])
    flagged = {
        tuple(e) for e, b in zip(mesh.simplices[1].tolist(), mesh.boundary[1]) if b
    }
    assert flagged == expected_edges


def test_cell_entities_consistent():
    mesh = build_unit_cube_mesh(2)
    for k in (1, 2):
        locs = local_subsimplices(3, k)
        for cid in (0, 7, mesh.num_cells - 1):
            cell = mesh.cells[cid]
            for slot, loc in enumerate(locs):
                ent = mesh.cell_entities[k][cid, slot]
                np.testing.assert_array_equal(
                    mesh.simplices[k][ent], cell[list(loc)]
                )


def test_cell_geometry_identities(rng):
    for dim in (2, 3):
        geo = mesh_geometry(single_cell_mesh(random_simplex(rng, dim)))
        geom = geo[0]
        measure = simplex_measures(geo.vertices)[0]
        assert geom.volume == pytest.approx(measure, rel=1e-13)
        # barycentric gradients pair with tangent vectors as increments
        for i in range(dim + 1):
            for j in range(dim + 1):
                lam_j_at = lambda x: geom.lambda_grads[j] @ (x - geom.vertices[j])
                got = geom.lambda_grads[j] @ geom.tangents[i, j]
                # moving from a_j to a_i changes lambda_j by -1... check sign
                assert geom.lambda_grads[j] @ (
                    geom.vertices[i] - geom.vertices[j]
                ) == pytest.approx(-1.0 if i != j else 0.0, abs=1e-12)
        # gradients sum to zero
        np.testing.assert_allclose(geom.lambda_grads.sum(axis=0), 0.0, atol=1e-12)


def test_facet_normals_outward_and_unit():
    # facet_signs turns each facet's sorted-order normal away from the
    # opposite vertex, on cells of both orientations
    for dim, seed in ((2, 5), (3, 6)):
        geo = mesh_geometry(jittered_mesh(dim, seed))
        v = geo.vertices
        assert np.array_equal(geo.barycenter, v.mean(axis=1))
        det = np.linalg.det(v[:, 1:] - v[:, :1])
        assert np.any(det > 0) and np.any(det < 0)
        normals, measures = facet_normals(geo)
        np.testing.assert_allclose(np.linalg.norm(normals, axis=2), 1.0, rtol=1e-13)
        locs = local_subsimplices(dim, dim - 1)
        for slot, (loc, opp) in enumerate(zip(locs, opposite_vertices(dim))):
            fverts = v[:, list(loc)]
            # the normal is orthogonal to the facet
            tangents = fverts[:, 1:] - fverts[:, :1]
            assert np.all(np.abs(np.vecdot(normals[:, None, slot], tangents)) <= 1e-12)
            away = fverts[:, 0] - v[:, opp]
            assert np.all(geo.facet_signs[:, slot] * np.vecdot(normals[:, slot], away) > 0)
            np.testing.assert_allclose(measures[:, slot], simplex_measures(fverts), rtol=1e-12)


def reference_geometry(verts):
    """lambda_grads from the inverse of the augmented vertex matrix and
    facet_signs from the facet midpoints, for stacked cells (N, n+1, n)."""
    n = verts.shape[2]
    aug = np.concatenate([np.ones(verts.shape[:2] + (1,)), verts], axis=2)
    grads = np.linalg.inv(aug)[:, 1:, :].transpose(0, 2, 1)
    signs = []
    for fac in local_subsimplices(n, n - 1):
        opp = next(i for i in range(n + 1) if i not in fac)
        edges = verts[:, list(fac[1:])] - verts[:, [fac[0]]]
        if n == 2:
            normal = np.column_stack([edges[:, 0, 1], -edges[:, 0, 0]])
        else:
            normal = np.cross(edges[:, 0], edges[:, 1])
        mid = verts[:, list(fac)].mean(axis=1)
        signs.append(np.where(np.vecdot(normal, mid - verts[:, opp]) > 0, 1, -1))
    return grads, np.stack(signs, axis=1)


# one tetrahedron of measure 2^-43 / 6, just above the degeneracy
# threshold 1e-14 max|a_i - a_0|^3; the determinant 2^-43 is exact, while
# the Gram determinant of simplex_measures rounds it away
SLIVER = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 2.0**-43]])


@pytest.mark.parametrize("mesh,measure", [
    (jittered_mesh(2, 3), None),
    (jittered_mesh(3, 4), None),
    (single_cell_mesh(SLIVER), 2.0**-43 / 6),
], ids=["jittered-2d", "jittered-3d", "sliver"])
def test_geometry_matches_independent_reference(mesh, measure):
    geo = mesh_geometry(mesh)
    grads, signs = reference_geometry(geo.vertices)
    scale = np.max(np.abs(grads), axis=(1, 2))
    err = np.max(np.abs(geo.lambda_grads - grads), axis=(1, 2))
    assert np.all(err <= 1e-13 * scale)
    measures = simplex_measures(geo.vertices) if measure is None else measure
    assert np.all(np.abs(geo.volume - measures) <= 1e-13 * measures)
    np.testing.assert_array_equal(geo.facet_signs, signs)


def test_degenerate_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    mesh = single_cell_mesh(verts)
    with pytest.raises(ValueError, match=r"degenerate cell 0\b"):
        mesh_geometry(mesh)


def test_non_manifold_rejected():
    # three triangles glued along one edge
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]]
    )
    cells = np.array([[0, 1, 2], [1, 2, 3], [1, 2, 4]])
    with pytest.raises(ValueError):
        _build_complex(2, verts, cells)


def test_save_vtk(tmp_path):
    mesh = build_unit_square_mesh(2)
    path = tmp_path / "mesh.vtk"
    save_vtk(mesh, path)
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "POINTS 9" in text
    assert f"CELLS {mesh.num_cells}" in text
    assert "boundary_facets" in text

    mesh3 = build_unit_cube_mesh(1)
    path3 = tmp_path / "mesh3.vtk"
    values = np.arange(mesh3.num_cells, dtype=float)
    vectors = np.tile([1.0, 2.0, 3.0], (mesh3.num_cells, 1))
    save_vtk(mesh3, path3, cell_data={"cell_index": values, "flow": vectors})
    text3 = path3.read_text()
    assert "SCALARS cell_index double 1" in text3
    assert "VECTORS flow double" in text3
    # tetrahedra use VTK type 10
    assert "\n10\n" in text3
