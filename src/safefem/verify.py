"""Manufactured-solution cases, error norms, convergence and stability
experiments.

Right-hand sides of the builtin cases are derived symbolically from the
exact solution at case-construction time and lambdified; an independent
finite-difference application of the strong operator (``strong_residual``)
is available to cross-check that derivation.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import sympy as sym

from .assembly import apply_essential_bc, assemble, assemble_load
from .mesh import (
    DIAG_LL_UR,
    build_unit_cube_mesh,
    build_unit_square_mesh,
    cell_blocks,
    mesh_geometry,
    save_vtk,
)
from .quadrature import reference_simplex_rule, simplex_rules
from .solver import solve
from .whitney import basis_derivatives, basis_values, canonical_interpolate, dof_map

CASE_NAMES = ("grad2d", "grad3d", "div2d", "curl3d", "div2d-stability")


@dataclass
class ManufacturedCase:
    """A complete problem setup: coefficients, exact fields, load and a
    mesh family.  ``u_exact`` is None for pure stability cases."""

    name: str
    dim: int
    k: int
    scheme: str
    operator: str
    alpha: float
    gamma: float
    beta: object
    f: object
    u_exact: object = None
    du_exact: object = None
    diagonal: str = DIAG_LL_UR

    def build_mesh(self, n):
        if self.dim == 2:
            return build_unit_square_mesh(n, diagonal=self.diagonal)
        return build_unit_cube_mesh(n)


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


def make_case(name, alpha=1.0, gamma=1.0, diagonal=DIAG_LL_UR):
    """Construct a builtin manufactured case.

    Cases: grad2d and grad3d (vertex unknowns, primal), div2d (facet
    unknowns, primal, the rotational-drift benchmark), curl3d (edge
    unknowns, dual scheme), div2d-stability (constant load, no exact
    solution, for vanishing-diffusion sweeps).
    """
    alpha = float(alpha)
    gamma = float(gamma)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if name == "grad2d":
        x, y = coords = sym.symbols("x y")
        u = sym.sin(sym.pi * x) * sym.sin(sym.pi * y)
        beta = sym.Matrix([-y, x])
        flux = alpha * sym.Matrix([sym.diff(u, x), sym.diff(u, y)]) + beta * u
        f = -(sym.diff(flux[0], x) + sym.diff(flux[1], y)) + gamma * u
        return ManufacturedCase(
            name, 2, 0, "primal", "grad-primal", alpha, gamma,
            beta=_lambdify_vector(list(beta), coords),
            f=_lambdify_scalar(f, coords),
            u_exact=_lambdify_scalar(u, coords),
            du_exact=_lambdify_vector([sym.diff(u, x), sym.diff(u, y)], coords),
            diagonal=diagonal,
        )
    if name == "grad3d":
        x, y, z = coords = sym.symbols("x y z")
        u = sym.sin(sym.pi * x) * sym.sin(sym.pi * y) * sym.sin(sym.pi * z)
        beta = sym.Matrix([y, z, x])
        grad = sym.Matrix([sym.diff(u, c) for c in coords])
        flux = alpha * grad + beta * u
        f = -sum(sym.diff(flux[i], coords[i]) for i in range(3)) + gamma * u
        return ManufacturedCase(
            name, 3, 0, "primal", "grad-primal", alpha, gamma,
            beta=_lambdify_vector(list(beta), coords),
            f=_lambdify_scalar(f, coords),
            u_exact=_lambdify_scalar(u, coords),
            du_exact=_lambdify_vector(list(grad), coords),
            diagonal=diagonal,
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
        return ManufacturedCase(
            name, 2, 1, "primal", "div-primal", alpha, gamma,
            beta=_lambdify_vector(list(beta), coords),
            f=_lambdify_vector(list(f), coords),
            u_exact=_lambdify_vector(list(u), coords),
            du_exact=_lambdify_scalar(divu, coords),
            diagonal=diagonal,
        )
    if name == "curl3d":
        x, y, z = coords = sym.symbols("x y z")
        u = sym.Matrix([sym.sin(z), sym.sin(x), sym.sin(y)])
        beta = sym.Matrix([y, z, x])
        w = _sym_curl(u, coords)
        f = alpha * _sym_curl(w, coords) - beta.cross(w) + gamma * u
        return ManufacturedCase(
            name, 3, 1, "dual", "curl-dual", alpha, gamma,
            beta=_lambdify_vector(list(beta), coords),
            f=_lambdify_vector(list(f), coords),
            u_exact=_lambdify_vector(list(u), coords),
            du_exact=_lambdify_vector(list(w), coords),
            diagonal=diagonal,
        )
    if name == "div2d-stability":
        x, y = coords = sym.symbols("x y")
        beta = sym.Matrix([-y, x])
        return ManufacturedCase(
            name, 2, 1, "primal", "div-primal", alpha, gamma,
            beta=_lambdify_vector(list(beta), coords),
            f=lambda P: np.ones((np.asarray(P).shape[0], 2)),
            diagonal=diagonal,
        )
    raise ValueError(f"unknown case {name!r}; choose from {CASE_NAMES}")


def _fd_jacobian(fn, x, step):
    """Columns are partial derivatives of the (vector) field fn."""
    n = len(x)
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        cols.append((fn((x + e)[None])[0] - fn((x - e)[None])[0]) / (2 * step))
    return np.array(cols).T


def strong_residual(case, points, step=1e-5):
    """Max deviation |L u - f| of the strong operator applied to the
    exact solution by nested central differences."""
    if case.u_exact is None:
        raise ValueError(f"case {case.name} has no exact solution")
    worst = 0.0
    al, ga = case.alpha, case.gamma
    for x in np.atleast_2d(points):
        if case.operator == "grad-primal":
            def flux(P):
                P = np.atleast_2d(P)
                grads = np.array([
                    _fd_jacobian(lambda Q: case.u_exact(Q)[:, None], p, step)[0]
                    for p in P
                ])
                return al * grads + case.beta(P) * case.u_exact(P)[:, None]
            jac = _fd_jacobian(flux, x, step)
            val = -np.trace(jac) + ga * case.u_exact(x[None])[0]
            ref = case.f(x[None])[0]
        elif case.operator == "div-primal":
            def pres(P):
                P = np.atleast_2d(P)
                divs = np.array([np.trace(_fd_jacobian(case.u_exact, p, step)) for p in P])
                return (divs * al + np.einsum("ij,ij->i", case.beta(P), case.u_exact(P)))[:, None]
            jac = _fd_jacobian(pres, x, step)
            val = -jac[0] + ga * case.u_exact(x[None])[0]
            ref = case.f(x[None])[0]
        elif case.operator == "curl-dual":
            def curl_of(fn, p):
                J = _fd_jacobian(fn, p, step)
                return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])
            def w(P):
                return np.array([curl_of(case.u_exact, p) for p in np.atleast_2d(P)])
            cc = curl_of(lambda P: al * w(P), x)
            wx = w(x[None])[0]
            bx = case.beta(x[None])[0]
            val = cc - np.cross(bx, wx) + ga * case.u_exact(x[None])[0]
            ref = case.f(x[None])[0]
        else:
            raise ValueError(f"unknown operator {case.operator!r}")
        worst = max(worst, float(np.max(np.abs(val - ref))))
    return worst


@dataclass
class ErrorNorms:
    l2: float
    d: float | None


def error_norms(mesh, k, u_h, u_exact, du_exact=None, degree=4):
    """Cellwise Gauss-quadrature L2 errors of the field and of its
    exterior derivative proxy."""
    dm = dof_map(mesh, k)
    if len(u_h) != dm.num_dofs:
        raise ValueError("DOF vector length does not match the mesh")
    n = mesh.dim
    geo = mesh_geometry(mesh)
    acc_l2 = 0.0
    acc_d = 0.0
    for cells in cell_blocks(mesh.num_cells, reference_simplex_rule(n, degree)[1].size):
        block = geo[cells]
        pts, wts = simplex_rules(block.vertices, degree)
        lam = basis_values(block, 0, pts, tol=1e-8)
        flat = pts.reshape(-1, n)
        coefs = u_h[dm.cell_dofs[cells]]
        ue = np.asarray(u_exact(flat), dtype=float).reshape(pts.shape[:2] + (-1,))
        # u_h is affine on each cell: interpolate its values at the vertices
        vals = basis_values(block, k, block.vertices)
        vals = vals.reshape(vals.shape[:3] + (-1,))
        uh = lam @ np.einsum("cvad,ca->cvd", vals, coefs)
        acc_l2 += float(np.sum(np.vecdot(wts, np.sum((uh - ue) ** 2, axis=2))))
        if du_exact is not None:
            de = np.asarray(du_exact(flat), dtype=float).reshape(pts.shape[:2] + (-1,))
            dvals = basis_derivatives(block, k)
            if dvals.ndim == 3:
                dh = (dvals.transpose(0, 2, 1) @ coefs[:, :, None])[:, None, :, 0]
            else:
                dh = np.vecdot(dvals, coefs)[:, None, None]
            acc_d += float(np.sum(np.vecdot(wts, np.sum((dh - de) ** 2, axis=2))))
    return ErrorNorms(math.sqrt(acc_l2), math.sqrt(acc_d) if du_exact is not None else None)


def solve_case(case, n, solver_config=None, quad_degree=4):
    """Assemble, constrain and solve one mesh of a case.

    Returns (mesh, dof vector, SolveReport).
    """
    mesh = case.build_mesh(n)
    system = assemble(
        mesh, case.k, case.alpha, case.beta, case.gamma,
        scheme=case.scheme, quad_degree=quad_degree,
    )
    system.rhs = assemble_load(mesh, case.k, case.f, degree=quad_degree)
    flagged = np.nonzero(system.dof_map.boundary)[0]
    if case.u_exact is None:
        values = {int(d): 0.0 for d in flagged}
    else:
        traces = canonical_interpolate(
            mesh, case.k, case.u_exact, degree=quad_degree, entities=flagged
        )
        values = {int(d): float(traces[d]) for d in flagged}
    constrained = apply_essential_bc(system, values)
    u, report = solve(constrained, solver_config)
    return mesh, u, report


@dataclass
class ConvergenceRow:
    n: int
    l2_err: float
    l2_order: float | None
    d_err: float
    d_order: float | None


@dataclass
class ConvergenceReport:
    case: str
    scheme: str
    alpha: float
    gamma: float
    rows: list = field(default_factory=list)

    def __str__(self):
        out = [
            f"case {self.case} ({self.scheme}), alpha={self.alpha:g}, "
            f"gamma={self.gamma:g}",
            f"{'1/h':>6} {'l2_err':>14} {'order':>7} {'d_err':>14} {'order':>7}",
        ]
        for r in self.rows:
            lo = f"{r.l2_order:.2f}" if r.l2_order is not None else "-"
            do = f"{r.d_order:.2f}" if r.d_order is not None else "-"
            out.append(
                f"{r.n:>6} {r.l2_err:>14.6e} {lo:>7} {r.d_err:>14.6e} {do:>7}"
            )
        return "\n".join(out)

    def to_csv(self, path):
        lines = ["inv_h,l2_err,l2_order,d_err,d_order"]
        for r in self.rows:
            lo = f"{r.l2_order:.9g}" if r.l2_order is not None else ""
            do = f"{r.d_order:.9g}" if r.d_order is not None else ""
            lines.append(f"{r.n},{r.l2_err:.9g},{lo},{r.d_err:.9g},{do}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def run_convergence(case, ns, solver_config=None, quad_degree=4):
    """Solve the case over a mesh family and tabulate errors and rates."""
    if case.u_exact is None:
        raise ValueError(f"case {case.name} has no exact solution to converge to")
    report = ConvergenceReport(case.name, case.scheme, case.alpha, case.gamma)
    prev = None
    for n in ns:
        mesh, u, _ = solve_case(case, n, solver_config, quad_degree)
        err = error_norms(mesh, case.k, u, case.u_exact, case.du_exact, quad_degree)
        if prev is None:
            lo = do = None
        else:
            ratio = math.log2(n / prev.n)
            lo = math.log2(prev.l2_err / err.l2) / ratio
            do = math.log2(prev.d_err / err.d) / ratio
        row = ConvergenceRow(n, err.l2, lo, err.d, do)
        report.rows.append(row)
        prev = row
    return report


@dataclass
class StabilityMetrics:
    max_abs_dof: float
    overshoot: float | None
    max_diff: float | None


def stability_metrics(u_h, reference=None):
    """Max-norm summaries of a DOF vector, optionally against a
    reference vector of identical layout."""
    u_h = np.asarray(u_h, dtype=float)
    m = float(np.max(np.abs(u_h))) if u_h.size else 0.0
    if reference is None:
        return StabilityMetrics(m, None, None)
    ref = np.asarray(reference, dtype=float)
    if ref.shape != u_h.shape:
        raise ValueError("reference DOF layout does not match")
    rmax = float(np.max(np.abs(ref)))
    return StabilityMetrics(
        max_abs_dof=m,
        overshoot=max(0.0, m - rmax),
        max_diff=float(np.max(np.abs(u_h - ref))),
    )


def reconstruct_cell_field(mesh, k, u_h):
    """Barycenter values of a DOF field per cell: scalars for k = 0 and
    k = n, vectors otherwise."""
    geo = mesh_geometry(mesh)
    vals = basis_values(geo, k, geo.barycenter[:, None, :])[:, 0]
    coefs = u_h[dof_map(mesh, k).cell_dofs]
    if vals.ndim == 2:
        return np.vecdot(vals, coefs)
    return np.einsum("cad,ca->cd", vals, coefs)


def write_solution_vtk(mesh, k, u_h, path, label="solution"):
    """Dump the mesh with a cell-centered reconstruction of the field."""
    save_vtk(
        mesh, path,
        cell_data={label: reconstruct_cell_field(mesh, k, u_h)},
        field_label=label,
    )
