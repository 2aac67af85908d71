"""The whole-mesh routes of assemble, assemble_load and error_norms
against per-cell references written out here: loops over the cells that
call the local routines (safe_matrices with averaged_coefficients,
mass_matrices, and basis_values at the points of simplex_rules) on the
one-cell block ``mesh_geometry(mesh)[[c]]`` and scatter or sum the
results.  Loads and error norms interpolate the basis from its values at
the cell vertices; that the basis is affine on each cell is checked here
too."""

import numpy as np
import pytest

from conftest import jittered_mesh, single_cell_mesh
from safefem.assembly import assemble, assemble_load, safe_matrices
from safefem.exponential import averaged_coefficients
from safefem.mesh import (
    build_unit_cube_mesh,
    build_unit_square_mesh,
    cell_blocks,
    mesh_geometry,
)
from safefem.quadrature import reference_simplex_rule, simplex_rules
from safefem.verify import error_norms
from safefem.whitney import basis_derivatives, basis_values, dof_map, mass_matrices

CONVECTIVE_SPECIES = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
ALL_SPECIES = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)]
REL_TOL = 1e-13


def beta_field(dim):
    if dim == 2:
        return lambda x: np.column_stack([-x[:, 1], x[:, 0]]) + 0.3
    return lambda x: np.column_stack([x[:, 1], x[:, 2], x[:, 0]]) - 0.2


ALPHAS = {
    "constant": 0.05,
    "callable": lambda x: 0.02 + x[:, 0] ** 2,
    "zero": 0.0,
    "half-zero": lambda x: np.where(x[:, 0] < 0.5, 0.0, 0.02 + x[:, 0] ** 2),
}
GAMMAS = {"constant": 1.5, "callable": lambda x: 1.0 + x[:, -1]}


def scalar_field(x):
    return np.sin(3.0 * x[:, 0]) * np.exp(x[:, 1])


def vector_field(x):
    return np.column_stack([np.sin(3.0 * x[:, 0] + x[:, i]) for i in range(x.shape[1])])


def cells(mesh):
    """The one-cell blocks of the mesh with their cell ids."""
    geo = mesh_geometry(mesh)
    return ((cid, geo[[cid]]) for cid in range(mesh.num_cells))


def cell_rule(cell, k):
    """Degree-4 quadrature points and weights of a one-cell block with the
    basis values there, refusing points outside the cell."""
    pts, wts = (a[0] for a in simplex_rules(cell.vertices, 4))
    return pts, wts, basis_values(cell, k, pts[None], 1e-10)[0]


def per_cell_matrix(mesh, k, alpha, beta, gamma):
    dm = dof_map(mesh, k)
    ref = np.zeros((dm.num_dofs, dm.num_dofs))
    for cid, cell in cells(mesh):
        loc = safe_matrices(cell, k, *averaged_coefficients(cell, alpha, beta))[0]
        if callable(gamma):
            pts, wts, vals = cell_rule(cell, k)
            gw = gamma(pts) * wts
            if vals.ndim == 2:
                loc = loc + np.einsum("q,qa,qb->ab", gw, vals, vals)
            else:
                loc = loc + np.einsum("q,qad,qbd->ab", gw, vals, vals)
        else:
            loc = loc + gamma * mass_matrices(cell, k)[0]
        dofs = dm.cell_dofs[cid]
        ref[np.ix_(dofs, dofs)] += loc
    return ref


def per_cell_load(mesh, k, f):
    dm = dof_map(mesh, k)
    rhs = np.zeros(dm.num_dofs)
    for cid, cell in cells(mesh):
        pts, wts, vals = cell_rule(cell, k)
        fw = f(pts) * (wts if vals.ndim == 2 else wts[:, None])
        spec = "q,qa->a" if vals.ndim == 2 else "qd,qad->a"
        rhs[dm.cell_dofs[cid]] += np.einsum(spec, fw, vals)
    return rhs


def per_cell_error_norms(mesh, k, u_h, u_exact, du_exact):
    dm = dof_map(mesh, k)
    acc_l2 = acc_d = 0.0
    for cid, cell in cells(mesh):
        pts, wts, vals = cell_rule(cell, k)
        coefs = u_h[dm.cell_dofs[cid]]
        if vals.ndim == 2:
            err = vals @ coefs - u_exact(pts)
        else:
            err = np.einsum("qad,a->qd", vals, coefs) - u_exact(pts)
        acc_l2 += wts @ (err**2 if err.ndim == 1 else np.sum(err**2, axis=1))
        d = basis_derivatives(cell, k)[0]
        if d.ndim == 2 and d.shape[1] > 1:
            derr = (d.T @ coefs)[None, :] - du_exact(pts)
            acc_d += wts @ np.sum(derr**2, axis=1)
        else:
            acc_d += wts @ (d.ravel() @ coefs - du_exact(pts)) ** 2
    return np.sqrt(acc_l2), np.sqrt(acc_d)


def assert_close(actual, reference):
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(actual - reference)) <= REL_TOL * scale


def test_cube_mesh_spans_several_blocks():
    mesh = jittered_mesh(3, 0)
    points = reference_simplex_rule(3, 4)[1].size
    assert len(cell_blocks(mesh.num_cells, points)) > 1


BUDGET_ALPHAS = {
    "one": 1.0,
    "small": 1e-3,
    "zero": 0.0,
    "callable": ALPHAS["callable"],
}


def max_rel(actual, reference):
    return np.max(np.abs(actual - reference)) / np.max(np.abs(reference))


@pytest.mark.parametrize("dim,k", ALL_SPECIES)
def test_results_do_not_depend_on_the_block_budget(dim, k, monkeypatch):
    # with constant coefficients the kernel-row budget puts these meshes
    # into one or two blocks; a budget of 64 splits every pass into many
    mesh = jittered_mesh(dim, 300 + 10 * dim + k)
    beta = beta_field(dim)
    f = scalar_field if k in (0, dim) else vector_field
    df = vector_field if k == 0 or (dim == 3 and k == 1) else scalar_field
    u_h = np.random.default_rng(k).standard_normal(mesh.num_entities(k))

    def results():
        mats = {}
        if (dim, k) in CONVECTIVE_SPECIES:
            mats = {
                name: assemble(mesh, k, alpha, beta, 1.5).matrix.toarray()
                for name, alpha in BUDGET_ALPHAS.items()
            }
        err = error_norms(mesh, k, u_h, f, df)
        return mats, assemble_load(mesh, k, f), np.array([err.l2, err.d])

    mats, load, norms = results()
    monkeypatch.setattr("safefem.mesh._BLOCK_POINTS", 64)
    small_mats, small_load, small_norms = results()
    for name in mats:
        assert max_rel(small_mats[name], mats[name]) <= 1e-15, name
    assert max_rel(small_load, load) <= 1e-15
    assert max_rel(small_norms, norms) <= 1e-14


@pytest.mark.parametrize("gamma", sorted(GAMMAS))
@pytest.mark.parametrize("alpha", sorted(ALPHAS))
@pytest.mark.parametrize("dim,k", CONVECTIVE_SPECIES)
def test_assemble_matches_per_cell_route(dim, k, alpha, gamma):
    mesh = jittered_mesh(dim, 10 * dim + k)
    beta = beta_field(dim)
    ref = per_cell_matrix(mesh, k, ALPHAS[alpha], beta, GAMMAS[gamma])
    for scheme, want in (("primal", ref), ("dual", ref.T)):
        A = assemble(mesh, k, ALPHAS[alpha], beta, GAMMAS[gamma], scheme=scheme)
        assert_close(A.matrix.toarray(), want)


@pytest.mark.parametrize("dim,k", ALL_SPECIES)
def test_load_and_error_norms_match_per_cell_route(dim, k):
    mesh = jittered_mesh(dim, 100 + 10 * dim + k)
    f = scalar_field if k in (0, dim) else vector_field
    assert_close(assemble_load(mesh, k, f), per_cell_load(mesh, k, f))

    u_h = np.random.default_rng(k).standard_normal(mesh.num_entities(k))
    vector_d = k == 0 or (dim == 3 and k == 1)
    df = vector_field if vector_d else scalar_field
    got = error_norms(mesh, k, u_h, f, df)
    want = per_cell_error_norms(mesh, k, u_h, f, df)
    assert_close(np.array([got.l2, got.d]), np.array(want))


@pytest.mark.parametrize("dim,k", ALL_SPECIES)
def test_basis_is_affine_on_each_cell(dim, k):
    geo = mesh_geometry(jittered_mesh(dim, 200 + 10 * dim + k))
    vals = basis_values(geo, k, geo.vertices)
    # interpolating the vertex values with the barycentric coordinates of
    # a point gives the value there
    lam = np.random.default_rng(k).dirichlet(np.ones(dim + 1), (len(geo.volume), 5))
    points = lam @ geo.vertices
    spec = "cpv,cva->cpa" if vals.ndim == 3 else "cpv,cvad->cpad"
    assert_close(np.einsum(spec, lam, vals), basis_values(geo, k, points))


def degenerate_mesh(dim):
    """Mesh whose first degenerate cell has a nonzero index: one interior
    vertex is moved onto the facet of a cell opposite to it."""
    mesh = build_unit_square_mesh(4) if dim == 2 else build_unit_cube_mesh(2)
    interior = np.nonzero(~mesh.boundary[0])[0]
    cid = max(np.nonzero(np.isin(mesh.cells, interior).any(axis=1))[0])
    verts = mesh.cells[cid]
    moved = next(v for v in verts if v in interior)
    others = [v for v in verts if v != moved]
    mesh.vertices[moved] = mesh.vertices[others].mean(axis=0)
    first = None
    for c in range(mesh.num_cells):
        try:
            mesh_geometry(single_cell_mesh(mesh.vertices[mesh.cells[c]]))
        except ValueError:
            first = c
            break
    assert first is not None and first > 0
    return mesh, first


@pytest.mark.parametrize("dim,k", [(2, 1), (3, 1)])
def test_degenerate_cell_is_named(dim, k):
    mesh, first = degenerate_mesh(dim)
    beta = beta_field(dim)
    with pytest.raises(ValueError, match=rf"degenerate cell {first}\b"):
        mesh_geometry(mesh)
    with pytest.raises(ValueError, match=rf"degenerate cell {first}\b"):
        assemble(mesh, k, 0.5, beta, 1.0)
    with pytest.raises(ValueError, match=rf"degenerate cell {first}\b"):
        assemble_load(mesh, k, vector_field)
    u_h = np.zeros(mesh.num_entities(k))
    df = scalar_field if dim == 2 else vector_field
    with pytest.raises(ValueError, match=rf"degenerate cell {first}\b"):
        error_norms(mesh, k, u_h, vector_field, df)


@pytest.mark.parametrize("dim,k", CONVECTIVE_SPECIES)
def test_nonpositive_callable_alpha_is_named(dim, k):
    mesh = build_unit_square_mesh(4) if dim == 2 else build_unit_cube_mesh(2)
    cid = mesh.num_cells - 3
    xc = mesh_geometry(mesh)[cid].barycenter
    for bad in (-1.0, np.nan):

        def alpha(x):
            return np.where(np.all(np.abs(x - xc) < 1e-12, axis=1), bad, 1.0)

        with pytest.raises(ValueError, match=rf"alpha is negative.* on cell {cid}\b"):
            assemble(mesh, k, alpha, beta_field(dim))


@pytest.mark.parametrize("dim,k", CONVECTIVE_SPECIES)
def test_nonfinite_callable_beta_is_named(dim, k):
    mesh = build_unit_square_mesh(4) if dim == 2 else build_unit_cube_mesh(2)
    cid = mesh.num_cells - 3
    xc = mesh_geometry(mesh)[cid].barycenter
    for bad in (np.nan, np.inf):

        def beta(x):
            vals = beta_field(dim)(x)
            vals[np.all(np.abs(x - xc) < 1e-12, axis=1), 0] = bad
            return vals

        for alpha in (1.0, 0.0):
            with pytest.raises(ValueError, match=rf"beta is not finite on cell {cid}\b"):
                assemble(mesh, k, alpha, beta)
