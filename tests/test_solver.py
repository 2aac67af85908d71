"""Tests for the sparse linear solver front end."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import jittered_mesh
from safefem import verify
from safefem.assembly import SparseSystem, apply_essential_bc, assemble, assemble_load
from safefem.mesh import build_unit_square_mesh
from safefem.solver import SolveReport, _nested_dissection, solve
from safefem.whitney import dof_map, incidence

ALL_SPECIES = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)]
CONVECTIVE_SPECIES = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
# (case, alpha, n) of every mesh the benchmark workloads solve
BENCHMARK_MESHES = (
    [("div2d", 0.01, n) for n in (8, 16, 32, 64)]
    + [(name, 1.0, n) for name in ("grad3d", "curl3d") for n in (2, 4, 8)]
    + [("div2d-stability", alpha, 64) for alpha in (1e-3, 1e-5, 1e-7, 0.0)]
)


def toy_system(matrix, rhs):
    mesh = build_unit_square_mesh(1)
    dm = dof_map(mesh, 2)  # 2 cells, matches a 2x2 system
    return SparseSystem(
        matrix=sp.csr_matrix(matrix), rhs=np.asarray(rhs, dtype=float),
        dof_map=dm,
    )


def poisson_like_system(n=8, alpha=1.0, beta=(1.0, 0.5)):
    mesh = build_unit_square_mesh(n)
    bvec = np.asarray(beta, dtype=float)
    system = assemble(mesh, 0, alpha, lambda x: np.tile(bvec, (len(x), 1)), gamma=1.0)
    system.rhs[:] = assemble_load(mesh, 0, lambda x: np.ones(len(x)))
    values = {int(i): 0.0 for i in np.nonzero(system.dof_map.boundary)[0]}
    return apply_essential_bc(system, values)


def test_identity_system():
    system = toy_system(np.eye(2), [3.0, -1.0])
    x, report = solve(system)
    np.testing.assert_allclose(x, [3.0, -1.0])
    assert isinstance(report, SolveReport)
    assert report.n_dofs == 2


def test_convection_dominated_solve_finite():
    system = poisson_like_system(n=16, alpha=1e-6)
    x, _ = solve(system)
    assert np.isfinite(x).all()
    resid = system.matrix @ x - system.rhs
    assert np.linalg.norm(resid) <= 1e-9 * max(np.linalg.norm(system.rhs), 1.0)


def test_singular_matrix_raises():
    system = toy_system(np.zeros((2, 2)), [1.0, 0.0])
    with pytest.raises(RuntimeError):
        solve(system)


def test_direct_residual_guard_raises():
    system = poisson_like_system()
    with pytest.raises(RuntimeError, match="residual"):
        solve(system, tol=1e-30)


def test_default_route_beyond_old_limit():
    """The face scheme past 200k DOFs (div2d, n = 272: 222,496 DOFs)
    solves on the default route within the residual bound."""
    _, _, report = verify.solve_case(verify.make_case("div2d", alpha=0.01), 272)
    assert report.n_dofs > 200_000
    assert report.residual <= 1e-10
    assert report.fill > 0


def colamd(system):
    """Reference solve by SuperLU in its default COLAMD column order with
    full partial pivoting: (solution, stored factor entries)."""
    lu = spla.splu(system.matrix.tocsc())
    return lu.solve(system.rhs), lu.nnz


def assert_matches(u, ref):
    assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))


def adjacency(mesh, k):
    """Pattern coupling the degree-k entities that share a
    (k+1)-entity, or a facet for k = n."""
    n = mesh.dim
    if k < n:
        D = incidence(mesh, k)
        return (D.T @ D).tocsc()
    D = incidence(mesh, n - 1)
    return (D @ D.T).tocsc()


@pytest.mark.parametrize("share", [0.0, 0.3])
@pytest.mark.parametrize("dim,k", ALL_SPECIES)
def test_order_is_permutation(dim, k, share):
    mesh = jittered_mesh(dim, 10 * dim + k, n=8 if dim == 2 else 4, share=share)
    p = _nested_dissection(dof_map(mesh, k).points, adjacency(mesh, k))
    np.testing.assert_array_equal(np.sort(p), np.arange(mesh.num_entities(k)))


@pytest.mark.parametrize("k", [0, 1])
def test_first_separator_is_last_block(k):
    """On the structured square the first cut is the plane x = 1/2: the
    order lists every DOF left of it, then every DOF right of it, then
    exactly the entities on it."""
    mesh = build_unit_square_mesh(4)
    system = assemble(
        mesh, k, 1.0, lambda x: np.tile([1.0, 0.5], (len(x), 1)), gamma=1.0
    )
    p = _nested_dissection(system.dof_map.points, system.matrix)
    on_plane = np.all(mesh.vertices[mesh.simplices[k]][:, :, 0] == 0.5, axis=1)
    m = np.count_nonzero(on_plane)
    assert m > 0
    np.testing.assert_array_equal(np.sort(p[-m:]), np.flatnonzero(on_plane))
    right = system.dof_map.points[p[:-m], 0] > 0.5
    assert right.any() and not right.all()
    assert np.all(np.diff(right.astype(int)) >= 0)


@pytest.mark.parametrize("name,alpha,n", BENCHMARK_MESHES)
def test_benchmark_meshes_match_colamd(name, alpha, n, monkeypatch):
    systems = []

    def capture(system, tol):
        systems.append(system)
        return solve(system, tol=tol)

    monkeypatch.setattr(verify, "solve", capture)
    _, u, report = verify.solve_case(verify.make_case(name, alpha, 1.0), n)
    ref, ref_fill = colamd(systems[0])
    assert_matches(u, ref)
    assert report.fill <= ref_fill
    if name == "curl3d" and n == 8:
        assert report.fill <= 0.6 * ref_fill


def jittered_system(dim, k, alpha, n):
    """Constrained system of a variable drift and a constant load on a
    mesh with interior vertices moved by up to 0.3 h."""
    mesh = jittered_mesh(dim, 7 * dim + k, n=n, share=0.3)

    def beta(x):
        cols = [np.cos(3.0 * x[:, 1]), np.sin(2.0 * x[:, 0]), x[:, 0] - 0.3]
        return np.column_stack(cols[:dim])

    system = assemble(mesh, k, alpha, beta, gamma=1.0)
    load = (lambda x: np.ones(len(x))) if k == 0 else np.ones_like
    system.rhs[:] = assemble_load(mesh, k, load)
    flagged = np.flatnonzero(system.dof_map.boundary)
    return apply_essential_bc(system, {int(d): 0.0 for d in flagged})


@pytest.mark.parametrize("alpha", [0.01, 0.0])
@pytest.mark.parametrize("dim,k", CONVECTIVE_SPECIES)
def test_jittered_meshes_match_colamd(dim, k, alpha):
    system = jittered_system(dim, k, alpha, 16 if dim == 2 else 6)
    u, report = solve(system)
    assert_matches(u, colamd(system)[0])
    assert report.residual <= 1e-12


@pytest.mark.parametrize("dim,k,n", [(2, 1, 64), (3, 1, 8)])
def test_jittered_fill_below_colamd(dim, k, n):
    """Separators one cell thick still cut the fill of the finer meshes."""
    system = jittered_system(dim, k, 0.01, n)
    u, report = solve(system)
    ref, ref_fill = colamd(system)
    assert_matches(u, ref)
    assert report.fill <= ref_fill
