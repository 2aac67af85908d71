"""Tests for graph weights, the averaged convection-diffusion local
matrices and global assembly."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from safefem.assembly import (
    _FACE_PAIRS,
    _edge_weights,
    apply_essential_bc,
    assemble,
    assemble_load,
    local_safe_oracle,
    safe_matrices,
)
from safefem.exponential import averaged_coefficients, local_exp_operators
from safefem.mesh import (
    build_unit_cube_mesh,
    build_unit_square_mesh,
    local_subsimplices,
    mesh_geometry,
)
from safefem.whitney import (
    dof_map,
    local_incidence,
    mass_matrices,
    stiffness_matrices,
)

from conftest import facet_normals, random_cell_mesh, random_simplex, single_cell_mesh

CONVECTIVE_SPECIES = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def const_beta(vec):
    vec = np.asarray(vec, dtype=float)
    return lambda x: np.tile(vec, (len(x), 1))


def coeffs_for(geo, alpha, beta_vec):
    """(alpha_bar, beta_bar) of the cells of ``geo`` for a constant drift."""
    return averaged_coefficients(geo, alpha, const_beta(beta_vec))


def safe_matrix(geo, k, alpha, beta_vec):
    """Local matrix of the one-cell block ``geo``."""
    return safe_matrices(geo, k, *coeffs_for(geo, alpha, beta_vec))[0]


def face_pair_table(geo):
    """omega_FF' of the one-cell block ``geo`` as a (4, 4) face table."""
    omega = _edge_weights(geo, 1)[0]
    W = np.zeros((4, 4))
    for a, b, e, *_ in _FACE_PAIRS:
        W[a, b] = omega[e]
    return W


def test_graph_weights_reference_triangle():
    mesh = single_cell_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    geo = mesh_geometry(mesh)
    np.testing.assert_allclose(_edge_weights(geo, 0)[0], [0.5, 0.5, 0.0], atol=1e-14)
    # the facet degree's cell weight 1/|T|
    assert 1.0 / geo.volume[0] == pytest.approx(2.0, rel=1e-14)


def test_graph_weights_face_pairs(rng):
    W = face_pair_table(mesh_geometry(random_cell_mesh(rng, 3)))
    np.testing.assert_allclose(W, W.T, atol=1e-14)
    np.testing.assert_allclose(np.diag(W), 0.0)


def test_edge_weight_identity(rng):
    # sum over edges of omega_E t t^T / |T| resolves the identity
    for dim in (2, 3):
        for _ in range(100):
            verts = random_simplex(rng, dim)
            geo = mesh_geometry(single_cell_mesh(verts))
            geom = geo[0]
            acc = np.zeros((dim, dim))
            for w, (i, j) in zip(_edge_weights(geo, 0)[0], local_subsimplices(dim, 1)):
                t = geom.tangents[i, j]
                acc += w * np.outer(t, t) / geom.volume
            np.testing.assert_allclose(acc, np.eye(dim), atol=1e-12)


def test_face_pair_weight_identity(rng):
    # sum over ordered facet pairs of omega_FF' |F||F'| n n'^T / |T|
    # resolves the identity (3d edge degree)
    for _ in range(100):
        verts = random_simplex(rng, 3)
        geo = mesh_geometry(single_cell_mesh(verts))
        geom = geo[0]
        W = face_pair_table(geo)
        signs = geom.facet_signs
        normals, measures = facet_normals(geom)
        acc = np.zeros((3, 3))
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                na = signs[a] * normals[a] * measures[a]
                nb = signs[b] * normals[b] * measures[b]
                acc += W[a, b] * np.outer(na, nb) / geom.volume
        np.testing.assert_allclose(acc, np.eye(3), atol=1e-12)


def test_zero_drift_reduces_to_stiffness(rng):
    # with no drift the averaged matrix is exactly alpha_bar times the
    # stiffness matrix, all species
    for dim, k in CONVECTIVE_SPECIES:
        geo = mesh_geometry(random_cell_mesh(rng, dim))
        alpha = 0.37
        A = safe_matrix(geo, k, alpha, np.zeros(dim))
        K = stiffness_matrices(geo, k)[0]
        np.testing.assert_allclose(A, alpha * K, atol=1e-13 * max(1.0, abs(K).max()))


def test_matches_operator_route(rng):
    # kernel-based local matrices against the independent route built
    # from the conjugated difference operators and averaged projections
    for dim, k in CONVECTIVE_SPECIES:
        for _ in range(100):
            geo = mesh_geometry(random_cell_mesh(rng, dim))
            alpha = float(10.0 ** rng.uniform(-2, 2))
            beta = rng.uniform(-1.0, 1.0, size=dim)
            beta *= rng.uniform(0.0, 10.0) / max(np.linalg.norm(beta), 1e-12)
            alpha_bar, beta_bar = coeffs_for(geo, alpha, beta)
            A = safe_matrices(geo, k, alpha_bar, beta_bar)[0]
            B = local_safe_oracle(geo, k, alpha_bar[0], beta_bar[0] / alpha_bar[0])
            scale = max(abs(A).max(), abs(B).max(), 1e-30)
            assert abs(A - B).max() / scale < 1e-9


def test_matches_independent_eafe_formula():
    # vertex degree, constant coefficients: textbook edge formula with
    # B(y) = y/(e^y - 1), assembled edge by edge
    alpha, beta = 0.5, np.array([2.0, 1.0])
    mesh = build_unit_square_mesh(3)
    A = assemble(mesh, 0, alpha, const_beta(beta)).matrix.toarray()

    def bf(y):
        return 1.0 if y == 0 else y / math.expm1(y)

    n = mesh.num_entities(0)
    ref = np.zeros((n, n))
    geo = mesh_geometry(mesh)
    for cid in range(mesh.num_cells):
        geom = geo[cid]
        cell = mesh.cells[cid]
        for li, lj in local_subsimplices(2, 1):
            i, j = cell[li], cell[lj]
            omega = -geom.volume * (geom.lambda_grads[li] @ geom.lambda_grads[lj])
            y = beta @ geom.tangents[li, lj] / alpha
            ref[i, i] += omega * alpha * bf(y)
            ref[i, j] -= omega * alpha * bf(-y)
            ref[j, i] -= omega * alpha * bf(y)
            ref[j, j] += omega * alpha * bf(-y)
    np.testing.assert_allclose(A, ref, atol=1e-12 * abs(ref).max())


def test_annihilates_weighted_difference_kernel(rng):
    # the local matrix vanishes on DOF vectors h_k * z with z in the
    # nullspace of the local incidence, the discrete counterpart of
    # exponential-weighted gradient-free fields
    for dim, k in CONVECTIVE_SPECIES:
        geo = mesh_geometry(random_cell_mesh(rng, dim))
        alpha = 0.8
        beta = rng.uniform(-2.0, 2.0, size=dim)
        alpha_bar, beta_bar = coeffs_for(geo, alpha, beta)
        A = safe_matrices(geo, k, alpha_bar, beta_bar)[0]

        D = local_incidence(geo[0], k).astype(float)
        h_k = local_exp_operators(geo[0], k, beta_bar[0] / alpha_bar[0])[0]
        _, s, vt = np.linalg.svd(D)
        rank = int((s > 1e-12 * s.max()).sum())
        null = vt[rank:]
        for z in null:
            u = h_k * z
            assert abs(A @ u).max() <= 1e-11 * max(abs(A).max() * abs(u).max(), 1.0)


def test_vertex_scheme_annihilates_exponential():
    mesh = build_unit_square_mesh(2)
    alpha, beta = 0.6, np.array([1.5, -0.7])
    theta = beta / alpha
    A = assemble(mesh, 0, alpha, const_beta(beta)).matrix
    u = np.exp(-mesh.vertices @ theta)
    resid = A @ u
    assert abs(resid).max() <= 1e-12 * abs(A).max() * abs(u).max()


def test_dual_is_transpose(rng):
    mesh = build_unit_square_mesh(3)
    beta = const_beta([1.0, -2.0])
    primal = assemble(mesh, 1, 0.05, beta, gamma=1.0).matrix
    dual = assemble(mesh, 1, 0.05, beta, gamma=1.0, scheme="dual").matrix
    assert (primal.T != dual).nnz == 0

    with pytest.raises(ValueError):
        assemble(mesh, 1, 0.05, beta, scheme="adjoint")


def test_symmetric_without_drift():
    mesh = build_unit_cube_mesh(2)
    A = assemble(mesh, 1, 1.0, const_beta([0.0, 0.0, 0.0]), gamma=2.0).matrix
    assert abs(A - A.T).max() <= 1e-13 * abs(A).max()


def test_global_zero_drift_is_stiffness_plus_mass(rng):
    # assembled matrix at beta = 0 equals alpha K + gamma M with K, M
    # assembled from the closed-form local arrays
    alpha, gamma = 0.7, 1.3
    for mesh, k in [(build_unit_square_mesh(2), 1), (build_unit_cube_mesh(1), 1)]:
        dim = mesh.dim
        A = assemble(mesh, k, alpha, const_beta(np.zeros(dim)), gamma=gamma).matrix
        dm = dof_map(mesh, k)
        geo = mesh_geometry(mesh)
        ref = sp.lil_matrix((dm.num_dofs, dm.num_dofs))
        for cid in range(mesh.num_cells):
            # one-cell blocks, the closed forms cell by cell
            loc = (
                alpha * stiffness_matrices(geo[[cid]], k)[0]
                + gamma * mass_matrices(geo[[cid]], k)[0]
            )
            dofs = dm.cell_dofs[cid]
            ref[np.ix_(dofs, dofs)] += loc
        diff = abs(A - ref.tocsr()).max()
        assert diff <= 1e-13 * abs(A).max()


def half_zero(a):
    """Diffusion a on the cells left of x = 1/2 and 1e-3 elsewhere."""
    return lambda x: np.where(x[:, 0] < 0.5, a, 1e-3)


def test_vanishing_diffusion_limit_is_continuous():
    # alpha -> 0 and alpha = 0 agree, on the whole domain and on half of it
    betas = {
        2: lambda x: np.column_stack([-x[:, 1], x[:, 0]]) + 0.5,
        3: lambda x: np.column_stack([x[:, 1], x[:, 2], x[:, 0]]) - 0.2,
    }
    for dim, k in CONVECTIVE_SPECIES:
        mesh = build_unit_square_mesh(4) if dim == 2 else build_unit_cube_mesh(2)
        for zero, tiny in ((0, 1e-12), (half_zero(0.0), half_zero(1e-12))):
            limit = assemble(mesh, k, zero, betas[dim]).matrix
            near = assemble(mesh, k, tiny, betas[dim]).matrix
            assert abs(near - limit).max() <= 1e-8


def test_upwind_limit_matches_kernel_limits(rng):
    # spot check one cell: assembling with alpha = 0 uses the closed-form
    # limit kernels
    mesh = random_cell_mesh(rng, 2)
    beta = np.array([3.0, 1.0])
    A0 = assemble(mesh, 1, 0, const_beta(beta)).matrix.toarray()
    loc = safe_matrix(mesh_geometry(mesh), 1, 0, beta)
    dm = dof_map(mesh, 1)
    ref = np.zeros_like(A0)
    ref[np.ix_(dm.cell_dofs[0], dm.cell_dofs[0])] = loc
    np.testing.assert_allclose(A0, ref, atol=1e-14)


def test_load_top_degree_is_cell_average():
    mesh = build_unit_square_mesh(3)
    rhs = assemble_load(mesh, 2, lambda x: np.full(len(x), 2.5))
    np.testing.assert_allclose(rhs, 2.5, rtol=1e-13)


def test_load_vertex_partition_of_unity():
    mesh = build_unit_square_mesh(4)
    rhs = assemble_load(mesh, 0, lambda x: np.ones(len(x)))
    assert rhs.sum() == pytest.approx(1.0, rel=1e-13)


def test_load_facet_constant_field():
    # DOF-wise closed form: integral of the facet basis against a
    # constant c on a cell is sigma_F (x_c - a_opp) . c / n
    mesh = build_unit_square_mesh(2)
    c = np.array([0.4, -1.1])
    rhs = assemble_load(mesh, 1, const_beta(c))
    dm = dof_map(mesh, 1)
    ref = np.zeros(dm.num_dofs)
    geo = mesh_geometry(mesh)
    for cid in range(mesh.num_cells):
        geom = geo[cid]
        signs = geom.facet_signs
        for slot, loc in enumerate(local_subsimplices(2, 1)):
            opp = next(v for v in range(3) if v not in loc)
            fid = mesh.cell_entities[1][cid, slot]
            ref[fid] += signs[slot] * (geom.barycenter - geom.vertices[opp]) @ c / 2.0
    np.testing.assert_allclose(rhs, ref, atol=1e-14)


def test_neumann_load_vertex():
    mesh = build_unit_square_mesh(4)
    right = [
        fid
        for fid in np.nonzero(mesh.boundary[1])[0]
        if np.allclose(mesh.vertices[mesh.simplices[1][fid]][:, 0], 1.0)
    ]
    rhs = assemble_load(
        mesh, 0, lambda x: np.zeros(len(x)), neumann=right, g=lambda x: np.ones(len(x))
    )
    # integral of the boundary hat functions over the side adds to its length
    assert rhs.sum() == pytest.approx(1.0, rel=1e-13)
    assert abs(rhs[~np.isclose(mesh.vertices[:, 0], 1.0)]).max() < 1e-15

    with pytest.raises(ValueError):
        assemble_load(mesh, 0, lambda x: np.zeros(len(x)), neumann=right)


def test_neumann_load_facet():
    # constant normal density g: each listed facet's DOF gets its outward
    # sign times g, every other entry stays zero
    mesh = build_unit_square_mesh(4)
    right = [
        fid
        for fid in np.nonzero(mesh.boundary[1])[0]
        if np.allclose(mesh.vertices[mesh.simplices[1][fid]][:, 0], 1.0)
    ]
    g = 2.5
    rhs = assemble_load(
        mesh, 1, lambda x: np.zeros((len(x), 2)), neumann=right,
        g=lambda x: np.full(len(x), g),
    )
    for fid in right:
        a, b = mesh.vertices[mesh.simplices[1][fid]]
        normal = np.array([b[1] - a[1], a[0] - b[0]])  # rotated clockwise
        assert rhs[fid] == pytest.approx(np.sign(normal[0]) * g, rel=1e-13)
    others = np.setdiff1d(np.arange(len(rhs)), right)
    assert (rhs[others] == 0.0).all()


def test_essential_bc_elimination():
    mesh = build_unit_square_mesh(2)
    beta = const_beta([1.0, 0.0])
    system = assemble(mesh, 0, 1.0, beta, gamma=1.0)
    system.rhs[:] = assemble_load(mesh, 0, lambda x: np.ones(len(x)))
    g = lambda x: x[:, 0] + 2 * x[:, 1]
    bidx = np.nonzero(system.dof_map.boundary)[0]
    values = {int(i): float(g(mesh.vertices[[i]])[0]) for i in bidx}
    bc = apply_essential_bc(system, values)

    # constrained rows are identity rows carrying the boundary value
    A = bc.matrix.toarray()
    for i, v in values.items():
        assert bc.rhs[i] == pytest.approx(v)
        row = np.zeros(A.shape[1])
        row[i] = 1.0
        np.testing.assert_allclose(A[i], row)
    # free rows got the column correction
    A0 = system.matrix.toarray()
    xc = np.zeros(A.shape[0])
    for i, v in values.items():
        xc[i] = v
    free = [i for i in range(A.shape[0]) if i not in values]
    np.testing.assert_allclose(
        bc.rhs[free], (system.rhs - A0 @ xc)[free], atol=1e-14
    )

    with pytest.raises(ValueError):
        apply_essential_bc(system, {int(bidx[0]): 0.0})


def test_assemble_rejects_nonpositive_alpha():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        assemble(mesh, 0, -1.0, const_beta([0.0, 0.0]))
    with pytest.raises(ValueError):
        assemble(mesh, 0, lambda x: -np.ones(len(x)), const_beta([0.0, 0.0]))


def test_assemble_rejects_nonfinite_gamma():
    # the first cell with a non-finite reaction value is named
    mesh = build_unit_square_mesh(2)
    beta = const_beta([1.0, 0.0])
    for k in (0, 1):
        for gamma in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"gamma is not finite on cell 0\b"):
                assemble(mesh, k, 1.0, beta, gamma)
        xc = mesh_geometry(mesh)[5].barycenter
        gamma = lambda x: np.where(np.linalg.norm(x - xc, axis=1) < 0.1, np.nan, 1.0)
        with pytest.raises(ValueError, match=r"gamma is not finite on cell 5\b"):
            assemble(mesh, k, 1.0, beta, gamma)


@pytest.mark.parametrize("dim", [2, 3])
def test_assemble_rejects_top_degree(dim):
    # the piecewise constants have no convective-diffusive form; the
    # check comes before anything is sized or evaluated
    mesh = build_unit_square_mesh(2) if dim == 2 else build_unit_cube_mesh(1)
    for alpha in (1.0, lambda x: 1.0 + x[:, 0]):
        with pytest.raises(
            ValueError, match=rf"no convective-diffusive form for k={dim} in dimension {dim}"
        ):
            assemble(mesh, dim, alpha, const_beta(np.ones(dim)))
