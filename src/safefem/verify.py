"""Manufactured-solution cases, error norms, convergence and stability
experiments.

The exact fields, drifts and loads of the builtin cases are closed forms
in numpy.  The tests check them against a symbolic derivation of each
load from its exact solution, and ``strong_residual`` applies the strong
operator to the exact solution by finite differences as an independent
cross-check.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import apply_essential_bc, assemble, assemble_load
from .mesh import (
    DIAG_LL_UR,
    build_unit_cube_mesh,
    build_unit_square_mesh,
    cell_blocks,
    mesh_geometry,
    save_vtk,
)
from .quadrature import cell_rules, reference_barycentric
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


def _rotation(P):
    """The planar drift (-y, x); divergence free."""
    return np.column_stack([-P[:, 1], P[:, 0]])


def _cyclic(P):
    """The 3d drift (y, z, x); divergence free."""
    return P[:, [1, 2, 0]]


def _sines(P):
    """u = prod_i sin(pi x_i), zero on the boundary of the unit square or cube."""
    return math.prod(np.sin(np.pi * P).T)


def _sines_grad(P):
    return _sines_and_grad(P)[1]


def _sines_and_grad(P):
    """``_sines`` and ``_sines_grad`` from one sin and one cos of pi P."""
    s, grad = np.sin(np.pi * P), np.pi * np.cos(np.pi * P)
    # column i of the k-th roll is sin(pi x_{i+k}), so the product over
    # k = 1..dim-1 takes every factor but the i-th
    for k in range(1, P.shape[1]):
        grad *= np.roll(s, -k, axis=1)
    return math.prod(s.T), grad


def _div2d_u(P):
    x, y = P[:, 0], P[:, 1]
    return np.column_stack([
        np.exp(x - y) * x * y * (1 - x) * (1 - y),
        np.sin(np.pi * x) * np.sin(np.pi * y),
    ])


def _div2d_div(P):
    x, y = P[:, 0], P[:, 1]
    return (np.exp(x - y) * y * (1 - y) * (1 - x - x * x)
            + np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


def _div2d_load(P, alpha, gamma):
    """f = -grad(alpha div u + beta . u) + gamma u for the div2d field."""
    x, y = P[:, 0], P[:, 1]
    e, s, c = np.exp(x - y), np.sin(np.pi * P), np.cos(np.pi * P)
    # u1 = e p q with p = x (1 - x), q = y (1 - y), (e^x p)' = e^x a and
    # (e^-y q)' = e^-y b; u2 = sin(pi x) sin(pi y)
    p, q = x * (1 - x), y * (1 - y)
    a, b = 1 - x - x * x, 1 - 3 * y + y * y
    u1, u2 = e * p * q, s[:, 0] * s[:, 1]
    grad_div = np.column_stack([
        -e * x * (3 + x) * q + np.pi**2 * c[:, 0] * c[:, 1],
        e * a * b - np.pi**2 * u2,
    ])
    grad_bu = np.column_stack([
        -y * e * a * q + u2 + np.pi * x * c[:, 0] * s[:, 1],
        -u1 - y * e * p * b + np.pi * x * s[:, 0] * c[:, 1],
    ])
    return gamma * np.column_stack([u1, u2]) - alpha * grad_div - grad_bu


def _curl3d_u(P):
    return np.sin(P[:, [2, 0, 1]])


def _curl3d_curl(P):
    return np.cos(P[:, [1, 2, 0]])


def make_case(name, alpha=1.0, gamma=1.0, diagonal=DIAG_LL_UR):
    """Construct a builtin manufactured case.

    Cases: grad2d and grad3d (vertex unknowns, primal), div2d (facet
    unknowns, primal, the rotational-drift benchmark), curl3d (edge
    unknowns, dual scheme), div2d-stability (constant load, no exact
    solution, for vanishing-diffusion sweeps).

    ``beta``, ``f``, ``u_exact`` and ``du_exact`` are numpy closed forms.
    The tests check them against a symbolic derivation, and the load
    against the strong operator with ``strong_residual``.
    """
    alpha = float(alpha)
    gamma = float(gamma)
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if name in ("grad2d", "grad3d"):
        dim, beta = (2, _rotation) if name == "grad2d" else (3, _cyclic)

        def f(P):
            # -alpha lap u - beta . grad u + gamma u, as div beta = 0; u is
            # a product of sines, so lap u = -dim pi^2 u
            u, grad = _sines_and_grad(P)
            return (alpha * dim * np.pi**2 + gamma) * u - np.vecdot(beta(P), grad)

        return ManufacturedCase(
            name, dim, 0, "primal", alpha, gamma, beta=beta, f=f,
            u_exact=_sines, du_exact=_sines_grad, diagonal=diagonal,
        )
    if name == "div2d":
        return ManufacturedCase(
            name, 2, 1, "primal", alpha, gamma, beta=_rotation,
            f=lambda P: _div2d_load(P, alpha, gamma),
            u_exact=_div2d_u, du_exact=_div2d_div, diagonal=diagonal,
        )
    if name == "curl3d":
        def f(P):
            # alpha curl w - beta x w + gamma u with w = curl u; curl w = u
            return (alpha + gamma) * _curl3d_u(P) - np.cross(_cyclic(P), _curl3d_curl(P))

        return ManufacturedCase(
            name, 3, 1, "dual", alpha, gamma, beta=_cyclic, f=f,
            u_exact=_curl3d_u, du_exact=_curl3d_curl, diagonal=diagonal,
        )
    if name == "div2d-stability":
        return ManufacturedCase(
            name, 2, 1, "primal", alpha, gamma, beta=_rotation,
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
    exact solution by nested central differences; the operator is the
    form of the case's (dimension, degree): grad for k = 0, div for
    (2, 1) and curl for (3, 1)."""
    if case.u_exact is None:
        raise ValueError(f"case {case.name} has no exact solution")
    worst = 0.0
    al, ga = case.alpha, case.gamma
    for x in np.atleast_2d(points):
        if case.k == 0:
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
        elif (case.dim, case.k) == (2, 1):
            def pres(P):
                P = np.atleast_2d(P)
                divs = np.array([np.trace(_fd_jacobian(case.u_exact, p, step)) for p in P])
                return (divs * al + np.einsum("ij,ij->i", case.beta(P), case.u_exact(P)))[:, None]
            jac = _fd_jacobian(pres, x, step)
            val = -jac[0] + ga * case.u_exact(x[None])[0]
            ref = case.f(x[None])[0]
        elif (case.dim, case.k) == (3, 1):
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
            raise ValueError(f"no strong operator for k={case.k} in dimension {case.dim}")
        worst = max(worst, float(np.max(np.abs(val - ref))))
    return worst


@dataclass
class ErrorNorms:
    l2: float
    d: float | None


def error_norms(mesh, k, u_h, u_exact, du_exact=None):
    """Cellwise Gauss-quadrature L2 errors of the field and of its
    exterior derivative proxy."""
    dm = dof_map(mesh, k)
    if len(u_h) != dm.num_dofs:
        raise ValueError("DOF vector length does not match the mesh")
    n = mesh.dim
    geo = mesh_geometry(mesh)
    lam = reference_barycentric(n)
    acc_l2 = 0.0
    acc_d = 0.0
    for cells in cell_blocks(mesh.num_cells, len(lam)):
        block = geo[cells]
        pts, wts = cell_rules(block)
        flat = pts.reshape(-1, n)
        coefs = u_h[dm.cell_dofs[cells]]
        ue = np.asarray(u_exact(flat), dtype=float).reshape(pts.shape[:2] + (-1,))
        # u_h is affine on each cell: interpolate its values at the vertices
        vals = basis_values(block, k, block.vertices)
        vals = vals.reshape(vals.shape[:3] + (-1,))
        uh = lam @ np.einsum("cvad,ca->cvd", vals, coefs)
        acc_l2 += float(np.sum(wts[..., None] * (uh - ue) ** 2))
        if du_exact is not None:
            de = np.asarray(du_exact(flat), dtype=float).reshape(pts.shape[:2] + (-1,))
            dvals = basis_derivatives(block, k)
            if dvals.ndim == 3:
                dh = (dvals.transpose(0, 2, 1) @ coefs[:, :, None])[:, None, :, 0]
            else:
                dh = np.vecdot(dvals, coefs)[:, None, None]
            acc_d += float(np.sum(wts[..., None] * (dh - de) ** 2))
    return ErrorNorms(math.sqrt(acc_l2), math.sqrt(acc_d) if du_exact is not None else None)


def solve_case(case, n, tol=1e-10):
    """Assemble, constrain and solve one mesh of a case; ``tol`` bounds
    the relative residual of the solve.

    Returns (mesh, dof vector, SolveReport).
    """
    mesh = case.build_mesh(n)
    system = assemble(mesh, case.k, case.alpha, case.beta, case.gamma, scheme=case.scheme)
    system.rhs = assemble_load(mesh, case.k, case.f)
    flagged = np.nonzero(system.dof_map.boundary)[0]
    if case.u_exact is None:
        values = {int(d): 0.0 for d in flagged}
    else:
        traces = canonical_interpolate(mesh, case.k, case.u_exact, entities=flagged)
        values = {int(d): float(traces[d]) for d in flagged}
    constrained = apply_essential_bc(system, values)
    u, report = solve(constrained, tol=tol)
    return mesh, u, report


@dataclass
class ConvergenceRow:
    n: int
    l2_err: float
    l2_order: float | None
    d_err: float
    d_order: float | None


def _coefficient_text(coeff):
    return "variable" if callable(coeff) else f"{coeff:g}"


@dataclass
class ConvergenceReport:
    """Error and rate table of a case; ``alpha`` and ``gamma`` are
    constants or callables, printed as ``variable``."""

    case: str
    scheme: str
    alpha: float
    gamma: float
    rows: list = field(default_factory=list)

    def __str__(self):
        out = [
            f"case {self.case} ({self.scheme}), "
            f"alpha={_coefficient_text(self.alpha)}, "
            f"gamma={_coefficient_text(self.gamma)}",
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


def run_convergence(case, ns, tol=1e-10):
    """Solve the case over a mesh family and tabulate errors and rates."""
    if case.u_exact is None:
        raise ValueError(f"case {case.name} has no exact solution to converge to")
    report = ConvergenceReport(case.name, case.scheme, case.alpha, case.gamma)
    prev = None
    for n in ns:
        mesh, u, _ = solve_case(case, n, tol=tol)
        err = error_norms(mesh, case.k, u, case.u_exact, case.du_exact)
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
