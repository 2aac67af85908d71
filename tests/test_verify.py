"""Tests for the manufactured-solution harness: cases, strong residuals,
error norms, convergence tables and stability metrics."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sym

import safefem
from safefem.mesh import DIAG_UL_LR, build_unit_square_mesh
from safefem.verify import (
    CASE_NAMES,
    error_norms,
    make_case,
    reconstruct_cell_field,
    run_convergence,
    solve_case,
    stability_metrics,
    strong_residual,
    write_solution_vtk,
)
from safefem.whitney import canonical_interpolate


def interior_points(rng, dim, count=10):
    return rng.uniform(0.15, 0.85, size=(count, dim))


def _lambdify_scalar(expr, coords):
    fn = sym.lambdify(coords, expr, "numpy")
    def wrapped(P):
        P = np.asarray(P, dtype=float)
        out = fn(*[P[:, i] for i in range(len(coords))])
        return np.broadcast_to(np.asarray(out, dtype=float), (P.shape[0],)).copy()
    return wrapped


def _lambdify_vector(exprs, coords):
    fns = [sym.lambdify(coords, e, "numpy") for e in exprs]
    def wrapped(P):
        P = np.asarray(P, dtype=float)
        args = [P[:, i] for i in range(len(coords))]
        cols = [
            np.broadcast_to(np.asarray(f(*args), dtype=float), (P.shape[0],))
            for f in fns
        ]
        return np.column_stack(cols)
    return wrapped


def _sym_curl(u, coords):
    x, y, z = coords
    return sym.Matrix(
        [
            sym.diff(u[2], y) - sym.diff(u[1], z),
            sym.diff(u[0], z) - sym.diff(u[2], x),
            sym.diff(u[1], x) - sym.diff(u[0], y),
        ]
    )


def symbolic_case(name, alpha, gamma):
    """Fields (u_exact, du_exact, beta, f) of a builtin case, derived with
    sympy from the exact solution and the strong operator and lambdified:
    the oracle for the closed forms of ``make_case``."""
    if name == "grad2d":
        x, y = coords = sym.symbols("x y")
        u = sym.sin(sym.pi * x) * sym.sin(sym.pi * y)
        beta = sym.Matrix([-y, x])
        flux = alpha * sym.Matrix([sym.diff(u, x), sym.diff(u, y)]) + beta * u
        f = -(sym.diff(flux[0], x) + sym.diff(flux[1], y)) + gamma * u
        return (
            _lambdify_scalar(u, coords),
            _lambdify_vector([sym.diff(u, x), sym.diff(u, y)], coords),
            _lambdify_vector(list(beta), coords),
            _lambdify_scalar(f, coords),
        )
    if name == "grad3d":
        x, y, z = coords = sym.symbols("x y z")
        u = sym.sin(sym.pi * x) * sym.sin(sym.pi * y) * sym.sin(sym.pi * z)
        beta = sym.Matrix([y, z, x])
        grad = sym.Matrix([sym.diff(u, c) for c in coords])
        flux = alpha * grad + beta * u
        f = -sum(sym.diff(flux[i], coords[i]) for i in range(3)) + gamma * u
        return (
            _lambdify_scalar(u, coords),
            _lambdify_vector(list(grad), coords),
            _lambdify_vector(list(beta), coords),
            _lambdify_scalar(f, coords),
        )
    if name == "div2d":
        x, y = coords = sym.symbols("x y")
        u = sym.Matrix(
            [
                sym.exp(x - y) * x * y * (1 - x) * (1 - y),
                sym.sin(sym.pi * x) * sym.sin(sym.pi * y),
            ]
        )
        beta = sym.Matrix([-y, x])
        divu = sym.diff(u[0], x) + sym.diff(u[1], y)
        p = alpha * divu + beta.dot(u)
        f = -sym.Matrix([sym.diff(p, x), sym.diff(p, y)]) + gamma * u
        return (
            _lambdify_vector(list(u), coords),
            _lambdify_scalar(divu, coords),
            _lambdify_vector(list(beta), coords),
            _lambdify_vector(list(f), coords),
        )
    if name == "curl3d":
        x, y, z = coords = sym.symbols("x y z")
        u = sym.Matrix([sym.sin(z), sym.sin(x), sym.sin(y)])
        beta = sym.Matrix([y, z, x])
        w = _sym_curl(u, coords)
        f = alpha * _sym_curl(w, coords) - beta.cross(w) + gamma * u
        return (
            _lambdify_vector(list(u), coords),
            _lambdify_vector(list(w), coords),
            _lambdify_vector(list(beta), coords),
            _lambdify_vector(list(f), coords),
        )
    if name == "div2d-stability":
        x, y = coords = sym.symbols("x y")
        beta = sym.Matrix([-y, x])
        return None, None, _lambdify_vector(list(beta), coords), None
    raise ValueError(name)


@pytest.mark.parametrize("alpha,gamma", [(1.0, 1.0), (0.01, 1.0), (0.8, 1.5), (0.0, 2.0)])
@pytest.mark.parametrize("name", CASE_NAMES)
def test_closed_forms_match_symbolic_derivation(name, alpha, gamma):
    case = make_case(name, alpha=alpha, gamma=gamma)
    oracle = symbolic_case(name, alpha, gamma)
    pts = np.random.default_rng(7).uniform(0.0, 1.0, size=(1000, case.dim))
    fields = (case.u_exact, case.du_exact, case.beta, case.f)
    for label, got, want in zip(("u_exact", "du_exact", "beta", "f"), fields, oracle):
        if want is None:
            continue
        a, b = got(pts), want(pts)
        assert a.shape == b.shape, label
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), label


def test_make_case_does_not_import_sympy():
    # the closed forms need numpy only; sympy (and mpmath under it) stay
    # off the import path of the package and the command line
    code = (
        "import sys\n"
        "import safefem, safefem.cli\n"
        "from safefem.verify import CASE_NAMES, make_case\n"
        "for name in CASE_NAMES:\n"
        "    make_case(name)\n"
        "print(sorted(m for m in ('sympy', 'mpmath') if m in sys.modules))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(safefem.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src_dir), timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_case_names_construct():
    for name in CASE_NAMES:
        case = make_case(name)
        assert case.name == name
        assert case.dim in (2, 3)
        mesh = case.build_mesh(2)
        assert mesh.dim == case.dim
    with pytest.raises(ValueError):
        make_case("heat1d")
    for alpha, gamma in ((-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError):
            make_case("grad2d", alpha=alpha, gamma=gamma)


@pytest.mark.parametrize("name", ["grad2d", "grad3d", "div2d", "curl3d"])
def test_manufactured_rhs_consistent(name, rng):
    # the synthesized right-hand side satisfies the strong equation at
    # random interior points, checked by nested finite differences
    case = make_case(name, alpha=0.8, gamma=1.5)
    pts = interior_points(rng, case.dim)
    assert strong_residual(case, pts) <= 1e-4


def test_strong_residual_needs_exact_solution(rng):
    case = make_case("div2d-stability")
    with pytest.raises(ValueError):
        strong_residual(case, interior_points(rng, 2))
    # the operator follows (dimension, degree); the 3d facet space has none
    case = dataclasses.replace(make_case("curl3d"), k=2)
    with pytest.raises(ValueError):
        strong_residual(case, interior_points(rng, 3))


def test_case_metadata():
    case = make_case("div2d", alpha=0.01, gamma=2.0)
    assert case.k == 1
    assert case.scheme == "primal"
    assert case.alpha == 0.01
    assert case.gamma == 2.0
    dual = make_case("curl3d")
    assert dual.scheme == "dual"
    assert dual.k == 1
    stab = make_case("div2d-stability")
    assert stab.u_exact is None


def test_error_norms_vanish_for_in_space_fields():
    mesh = build_unit_square_mesh(3)
    # affine scalar field lies in the vertex space
    u = lambda x: 2.0 * x[:, 0] - x[:, 1] + 0.5
    du = lambda x: np.tile([2.0, -1.0], (len(x), 1))
    dofs = canonical_interpolate(mesh, 0, u)
    err = error_norms(mesh, 0, dofs, u, du)
    assert err.l2 == pytest.approx(0.0, abs=1e-13)
    assert err.d == pytest.approx(0.0, abs=1e-12)

    # constant vector field lies in the facet space with zero divergence
    w = lambda x: np.tile([0.7, -0.2], (len(x), 1))
    divw = lambda x: np.zeros(len(x))
    dofs = canonical_interpolate(mesh, 1, w)
    err = error_norms(mesh, 1, dofs, w, divw)
    assert err.l2 == pytest.approx(0.0, abs=1e-13)
    assert err.d == pytest.approx(0.0, abs=1e-12)


def test_error_norms_shape_mismatch():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        error_norms(mesh, 0, np.zeros(3), lambda x: np.zeros(len(x)))


def test_solve_case_applies_boundary_values():
    case = make_case("grad2d")
    mesh, u, _ = solve_case(case, 4)
    bidx = np.nonzero(mesh.boundary[0])[0]
    exact = case.u_exact(mesh.vertices[bidx])
    np.testing.assert_allclose(u[bidx], exact, atol=1e-12)


def test_convergence_orders_vertex_scheme():
    rep = run_convergence(make_case("grad2d"), (4, 8, 16))
    assert rep.rows[0].l2_order is None and rep.rows[0].d_order is None
    last = rep.rows[-1]
    assert last.l2_order > 1.8  # second order in L2 on this smooth case
    assert 0.9 < last.d_order < 1.1
    # errors decrease monotonically
    l2s = [r.l2_err for r in rep.rows]
    assert l2s == sorted(l2s, reverse=True)


def _variable_alpha(P):
    return 0.5 + 0.4 * P[:, 0] * P[:, 1]


def _variable_alpha_load(P):
    """f = -alpha lap u - grad alpha . grad u - beta . grad u + gamma u of
    grad2d with gamma = 1, div beta = 0 and the variable diffusion."""
    s, c = np.sin(np.pi * P), np.cos(np.pi * P)
    u = s[:, 0] * s[:, 1]
    grad = np.pi * np.column_stack([c[:, 0] * s[:, 1], s[:, 0] * c[:, 1]])
    # beta = (-y, x) and grad alpha = 0.4 (y, x)
    drift = np.column_stack([-0.6 * P[:, 1], 1.4 * P[:, 0]])
    return (_variable_alpha(P) * 2 * np.pi**2 + 1.0) * u - np.vecdot(drift, grad)


def test_variable_alpha_load_matches_symbolic_derivation():
    x, y = sym.symbols("x y")
    want = symbolic_case("grad2d", 0.5 + sym.Rational(2, 5) * x * y, 1.0)[3]
    pts = np.random.default_rng(7).uniform(0.0, 1.0, size=(1000, 2))
    b = want(pts)
    assert np.max(np.abs(_variable_alpha_load(pts) - b)) <= 1e-13 * np.max(np.abs(b))


def test_convergence_with_variable_alpha():
    # the cell mean of a variable diffusion keeps both rates of the
    # vertex scheme
    case = dataclasses.replace(
        make_case("grad2d"), alpha=_variable_alpha, f=_variable_alpha_load
    )
    rep = run_convergence(case, (8, 16, 32))
    assert rep.rows[-1].l2_order >= 1.9
    assert rep.rows[-1].d_order >= 0.95
    # the table prints with the callable coefficient named, not formatted
    lines = str(rep).splitlines()
    assert lines[0] == "case grad2d (primal), alpha=variable, gamma=1"
    assert len(lines) == 2 + 3


def test_half_domain_vanishing_diffusion_solve():
    # alpha = 0 left of x = 1/2 and 1e-3 right of it: finite, bounded by
    # the homogeneous runs, and the limit of alpha -> 0 on that half
    case = make_case("div2d-stability", alpha=1e-3)

    def solve_with(alpha):
        u, report = solve_case(dataclasses.replace(case, alpha=alpha), 32)[1:]
        assert np.all(np.isfinite(u)) and report.residual <= 1e-10
        return u

    def half(a):
        return lambda x: np.where(x[:, 0] < 0.5, a, 1e-3)

    u = solve_with(half(0.0))
    bound = max(stability_metrics(solve_with(a)).max_abs_dof for a in (0.0, 1e-3))
    assert stability_metrics(u).max_abs_dof <= 1.05 * bound
    m = stability_metrics(solve_with(half(1e-12)), reference=u)
    assert m.max_diff <= 1e-8 * m.max_abs_dof


def test_convergence_respects_diagonal():
    rep = run_convergence(make_case("grad2d", diagonal=DIAG_UL_LR), (4, 8))
    assert rep.rows[-1].l2_err < rep.rows[0].l2_err


def test_report_rendering(tmp_path):
    rep = run_convergence(make_case("grad2d"), (4, 8))
    text = str(rep)
    assert "case grad2d (primal)" in text
    assert "l2_err" in text
    path = tmp_path / "table.csv"
    rep.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "inv_h,l2_err,l2_order,d_err,d_order"
    first = lines[1].split(",")
    assert first[0] == "4" and first[2] == "" and first[4] == ""
    assert len(lines) == 3


def test_stability_metrics():
    m = stability_metrics(np.array([1.0, -3.0, 2.0]))
    assert m.max_abs_dof == 3.0
    assert m.overshoot is None and m.max_diff is None
    m = stability_metrics(np.array([1.0, -3.0]), reference=np.array([1.0, -2.0]))
    assert m.max_abs_dof == 3.0
    assert m.overshoot == pytest.approx(1.0)
    assert m.max_diff == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stability_metrics(np.zeros(3), reference=np.zeros(4))


def test_reconstruct_constant_field():
    mesh = build_unit_square_mesh(2)
    c = np.array([0.3, 0.9])
    dofs = canonical_interpolate(mesh, 1, lambda x: np.tile(c, (len(x), 1)))
    field = reconstruct_cell_field(mesh, 1, dofs)
    np.testing.assert_allclose(field, np.tile(c, (mesh.num_cells, 1)), atol=1e-12)


def test_write_solution_vtk(tmp_path):
    case = make_case("div2d")
    mesh, u, _ = solve_case(case, 2)
    path = tmp_path / "sol.vtk"
    write_solution_vtk(mesh, 1, u, path, label="velocity")
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "VECTORS velocity double" in text


def test_run_convergence_rejects_stability_case():
    with pytest.raises(ValueError):
        run_convergence(make_case("div2d-stability"), (4,))
