"""Simplex-averaged (exponentially fitted) assembly of convection-
diffusion forms on Whitney spaces.

The local convective-diffusive matrix couples DOFs through Bernoulli-type
kernels evaluated at drift components along vertex offsets:

* k = 0: edge kernels B_1 on the gradient graph with weights
  ``omega_E = -(grad lam_i, grad lam_j)_T``,
* k = 1 in 3d: face-pair kernels B_2 on the curl graph with weights
  ``omega_FF' = -1/2 ||curl phi_E||^2`` for the shared edge E,
* k = n-1: facet kernels (B_2 in 2d, B_3 in 3d) against the divergence
  with the cell weight ``omega_T = 1/|T|``.

With vanishing drift every matrix degenerates to ``alpha_bar`` times the
Whitney stiffness matrix.  The diffusion may vanish on any set of cells:
there ``alpha_bar = 0`` and the same kernels take their upwind limits.
``local_safe_oracle`` provides an independent evaluation through the
conjugated difference operators and the averaging maps; both routes
agree to rounding.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exponential import (
    _bernoulli,
    _eval_at,
    averaged_coefficients,
    local_exp_operators,
)
from .mesh import cell_blocks, local_subsimplices, mesh_geometry, opposite_vertices
from .quadrature import (
    QUAD_DEGREE,
    cell_rules,
    reference_barycentric,
    simplex_measures,
    simplex_rules,
)
from .whitney import (
    DofMap,
    basis_derivatives,
    basis_values,
    dof_map,
    mass_matrices,
)


def _edge_weights(geo, k):
    """Graph weights per local edge E of every cell of ``geo``,
    (ncells, nedges): ``omega_E = -|T| (grad lam_i, grad lam_j)`` for
    k = 0, and for the 3d edge space ``omega_FF' = -|T|/2 ||curl phi_E||^2``
    of the two faces F, F' that share E."""
    if k == 0:
        g = geo.lambda_grads
        i, j = np.array(local_subsimplices(g.shape[2], 1)).T
        return -geo.volume[:, None] * np.vecdot(g[:, i], g[:, j])
    curls = basis_derivatives(geo, 1)
    return -0.5 * geo.volume[:, None] * np.vecdot(curls, curls)


def _face_pairs():
    """Ordered pairs (a, b) of distinct local faces of a tetrahedron, with
    the local index of their shared edge (i, j) and the remaining vertex
    kv of face a and lv of face b."""
    edges = local_subsimplices(3, 1)
    faces = local_subsimplices(3, 2)
    pairs = []
    for a, fa in enumerate(faces):
        for b, fb in enumerate(faces):
            if a != b:
                i, j = sorted(set(fa) & set(fb))
                kv = next(v for v in fa if v not in (i, j))
                lv = next(v for v in fb if v not in (i, j))
                pairs.append((a, b, edges.index((i, j)), i, j, kv, lv))
    return pairs


_FACE_PAIRS = _face_pairs()


def local_safe_oracle(geo, k, alpha_bar, theta_bar):
    """Independent local matrix of the one-cell block ``geo`` (a
    MeshGeometry) through the averaged-operator route, for the cell's
    ``alpha_bar > 0`` and fitted drift ``theta_bar``: assemble
    (alpha Pi J w, d v)_T from the conjugated difference operator J and
    the constant-reproducing averaging map Pi.
    """
    if not alpha_bar > 0:
        raise ValueError("oracle route needs alpha_bar > 0")
    geom = geo[0]
    n = geom.vertices.shape[1]
    d = basis_derivatives(geo, k)[0]
    J = local_exp_operators(geom, k, theta_bar)[2]
    scale = alpha_bar * geom.volume
    if k == 0:
        w = _edge_weights(geo, k)[0]
        P = np.zeros((n, len(w)))
        for e, (i, j) in enumerate(local_subsimplices(n, 1)):
            P[:, e] = w[e] * geom.tangents[i, j] / geom.volume
        return scale * (d @ (P @ J))
    if k == 1 and n == 3:
        omega = _edge_weights(geo, k)[0]
        W = np.zeros((4, 4))
        for a, b, e, *_ in _FACE_PAIRS:
            W[a, b] = omega[e]
        # area-weighted outward normal of each face, and the sign that
        # turns its sorted-order normal outward
        signs, n_out = np.zeros(4), np.zeros((4, 3))
        faces = zip(local_subsimplices(3, 2), opposite_vertices(3))
        for f, ((i, j, l), o) in enumerate(faces):
            cross = np.cross(geom.tangents[i, j], geom.tangents[i, l])
            signs[f] = np.sign(cross @ geom.tangents[o, i])
            n_out[f] = 0.5 * signs[f] * cross
        P = np.zeros((3, 4))
        for fa in range(4):
            acc = np.zeros(3)
            for fb in range(4):
                if fb != fa:
                    acc += W[fa, fb] * n_out[fb] / geom.volume
            P[:, fa] = signs[fa] * acc
        return scale * (d @ (P @ J))
    if k == n - 1:
        # the cell weight omega_T = 1/|T|
        fvals = J[0] / geom.volume
        return scale * np.outer(d, fvals)
    raise ValueError(f"no oracle form for k={k} in dimension {n}")


@dataclass
class SparseSystem:
    """Assembled linear system with its DOF context."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dof_map: DofMap


def _curl_tables():
    """Constant tables of the 3d edge scheme.

    For each ordered face pair (a, b) with shared edge (i, j), the trial
    runs the boundary cycle i -> j -> kv of face a, each directed edge
    p -> q weighted by B_2 at (drift along the edge, drift to the
    remaining face vertex o); the test runs the cycle i -> j -> lv of
    face b.  Of these 36 kernels only 24 have distinct arguments.
    Returns the distinct rows (P, Q), the row ``inverse`` of each of the
    36 kernels, the shared edge of each, and the map ``T`` (36, 36) from
    the weighted kernel values to the flattened local matrix.
    """
    edges = local_subsimplices(3, 1)

    def directed(p, q):
        v = np.zeros(6)
        v[edges.index((min(p, q), max(p, q)))] = 1.0 if p < q else -1.0
        return v

    steps, shared, T = [], [], []
    for _, _, e, i, j, kv, lv in _FACE_PAIRS:
        test = directed(i, j) + directed(j, lv) + directed(lv, i)
        for p, q, o in ((i, j, kv), (j, kv, i), (kv, i, j)):
            steps.append((p, q, o))
            shared.append(e)
            T.append(-np.outer(test, directed(p, q)).ravel())
    args, inverse = np.unique(np.array(steps), axis=0, return_inverse=True)
    return args[:, [0, 0]], args[:, 1:], inverse.ravel(), np.array(shared), np.array(T)


def _kernel_args(n, k):
    """Index tables (P, Q), one row per kernel, selecting the arguments
    S[P, Q] of the vertex (k = 0) or facet (k = n-1) form on an
    n-simplex."""
    if k == 0:
        # B_1 along both directions of every local edge (i, j)
        i, j = np.array(local_subsimplices(n, 1)).T
        return np.r_[i, j][:, None], np.r_[j, i][:, None]
    # B_n of each facet (p, ...) at the drift to its other vertices q and
    # to the opposite vertex
    facets = np.array(local_subsimplices(n, n - 1))
    P = np.repeat(facets[:, :1], n, axis=1)
    return P, np.column_stack([facets[:, 1:], opposite_vertices(n)])


_CURL_P, _CURL_Q, _CURL_INVERSE, _CURL_SHARED, _CURL_MAP = _curl_tables()
# (P, Q) of every convective-diffusive form, by (dimension, degree)
_KERNEL_ARGS = {
    **{(n, k): _kernel_args(n, k) for n in (2, 3) for k in (0, n - 1)},
    (3, 1): (_CURL_P, _CURL_Q),
}


def _form_args(n, k):
    """The kernel index tables (P, Q) of the convective-diffusive form of
    degree k on an n-simplex, raising where there is none."""
    if (n, k) not in _KERNEL_ARGS:
        raise ValueError(f"no convective-diffusive form for k={k} in dimension {n}")
    return _KERNEL_ARGS[n, k]


def safe_matrices(geo, k, eps, bbar):
    """Local convective-diffusive matrices of every cell of ``geo``,
    (ncells, nloc, nloc), for kernel parameters ``eps`` (ncells,) and
    averaged drifts ``bbar`` (ncells, n).

    Every kernel argument is an entry of S[p, q] = bbar . (a_q - a_p); the
    constant index tables (P, Q) select the distinct ones, and one kernel
    call serves the whole block."""
    n = geo.vertices.shape[2]
    P, Q = _form_args(n, k)
    S = np.vecdot(bbar[:, None, None], geo.tangents)
    vals = _bernoulli(eps[:, None], S[:, P, Q])
    if k == 0:
        # column p gains omega_E B_1(S[p, q]) (e_p - e_q) for each neighbour q
        W = np.zeros((len(vals), n + 1, n + 1))
        W[:, P[:, 0], Q[:, 0]] = np.tile(_edge_weights(geo, k), 2) * vals
        A = -W.transpose(0, 2, 1)
        d = np.arange(n + 1)
        A[:, d, d] = W.sum(axis=2)
        return A
    if k == n - 1:
        signs = geo.facet_signs.astype(float)
        return signs[:, :, None] * (signs * vals)[:, None, :] / geo.volume[:, None, None]
    coef = _edge_weights(geo, k)[:, _CURL_SHARED] * vals[:, _CURL_INVERSE]
    return (coef @ _CURL_MAP).reshape(-1, 6, 6)


def _weighted_masses(geo, k, gamma):
    """Local mass matrices of a block weighted by the reaction
    coefficient."""
    if not callable(gamma):
        gamma = float(gamma)
        if not np.isfinite(gamma):
            raise ValueError(f"gamma is not finite on cell {geo.cell_ids[0]}")
        return gamma * mass_matrices(geo, k)
    pts, wts = cell_rules(geo)
    gvals = _eval_at(gamma, pts)
    bad = np.nonzero(~np.all(np.isfinite(gvals), axis=1))[0]
    if bad.size:
        raise ValueError(f"gamma is not finite on cell {geo.cell_ids[bad[0]]}")
    gvals = gvals * wts
    vals = basis_values(geo, k, pts)
    if vals.ndim == 3:
        return np.einsum("cq,cqa,cqb->cab", gvals, vals, vals)
    return np.einsum("cq,cqad,cqbd->cab", gvals, vals, vals)


def assemble(mesh, k, alpha, beta, gamma=0.0, scheme="primal"):
    """Assemble the global convective-diffusive(-reactive) matrix.

    ``alpha`` is a nonnegative constant or vectorized callable.  Cells
    where it vanishes at the barycenter take the upwind limits of the
    kernels at the drift ``beta(x_c)``.  ``gamma`` must be finite.  The
    dual scheme is the transpose of the primal matrix.

    Returns a SparseSystem with a zero right-hand side.
    """
    if scheme not in ("primal", "dual"):
        raise ValueError(f"unknown scheme {scheme!r}")
    geo = mesh_geometry(mesh)
    n = mesh.dim
    # a block counts kernel rows, and quadrature points for callable coefficients
    per_cell = len(_form_args(n, k)[0])
    if callable(alpha) or callable(gamma):
        per_cell = max(per_cell, len(reference_barycentric(n)))
    dm = dof_map(mesh, k)
    nloc = dm.cell_dofs.shape[1]
    ncells = mesh.num_cells
    blocks = np.empty((ncells, nloc, nloc))
    with_mass = callable(gamma) or float(np.asarray(gamma)) != 0.0
    for cells in cell_blocks(ncells, per_cell):
        block = geo[cells]
        eps, bbar = averaged_coefficients(block, alpha, beta)
        A = safe_matrices(block, k, eps, bbar)
        if with_mass:
            A = A + _weighted_masses(block, k, gamma)
        blocks[cells] = A
    rows = np.repeat(dm.cell_dofs, nloc, axis=1).ravel()
    cols = np.tile(dm.cell_dofs, (1, nloc)).ravel()
    mat = sp.coo_matrix(
        (blocks.ravel(), (rows, cols)), shape=(dm.num_dofs, dm.num_dofs)
    ).tocsr()
    if scheme == "dual":
        mat = mat.T.tocsr()
    return SparseSystem(matrix=mat, rhs=np.zeros(dm.num_dofs), dof_map=dm)


def _basis_integrals(fvals, wts, vals):
    """Quadrature of a field against every local basis function, per
    cell: scalar fields (ncells, npts), vector fields (ncells, npts, n)."""
    if vals.ndim == 3:
        return np.einsum("cq,cqa->ca", fvals * wts, vals)
    return np.einsum("cqd,cqad->ca", fvals * wts[..., None], vals)


def assemble_load(mesh, k, f, neumann=None, g=None):
    """Load vector of (f, phi_S) plus optional natural boundary data.

    ``neumann`` is an iterable of boundary facet ids paired with the
    boundary density ``g``: for k = 0 a scalar integrated against the
    vertex traces, for k = n-1 a scalar against the outward normal
    component, for the 3d edge space a vector integrated against the
    basis on the facet.
    """
    n = mesh.dim
    geo = mesh_geometry(mesh)
    dm = dof_map(mesh, k)
    loc = np.empty(dm.cell_dofs.shape)
    lam = reference_barycentric(n)
    for cells in cell_blocks(mesh.num_cells, len(lam)):
        block = geo[cells]
        pts, wts = cell_rules(block)
        # the basis is affine on each cell: the barycentric moments of f,
        # contracted with the basis values at the vertices
        fw = _eval_at(f, pts).reshape(pts.shape[:2] + (-1,)) * wts[..., None]
        vals = basis_values(block, k, block.vertices)
        vals = vals.reshape(vals.shape[:3] + (-1,))
        loc[cells] = np.einsum("cvd,cvad->ca", lam.T @ fw, vals)
    rhs = np.bincount(dm.cell_dofs.ravel(), loc.ravel(), dm.num_dofs)
    if neumann is not None:
        if g is None:
            raise ValueError("neumann facets given without boundary data g")
        rhs += _natural_boundary_load(mesh, geo, k, neumann, g)
    return rhs


def _natural_boundary_load(mesh, geo, k, facet_ids, g):
    n = mesh.dim
    if not (k in (0, n - 1) or (k == 1 and n == 3)):
        raise ValueError(f"no natural boundary pairing for k={k}")
    dm = dof_map(mesh, k)
    rhs = np.zeros(dm.num_dofs)
    fids = np.asarray(list(facet_ids), dtype=np.int64)
    if fids.size == 0:
        return rhs
    # adjacent cell of each facet
    cell_facets = mesh.cell_entities[n - 1]
    facet_cell = np.full(mesh.num_entities(n - 1), -1, dtype=np.int64)
    facet_cell[cell_facets.ravel()] = np.repeat(np.arange(mesh.num_cells), n + 1)
    cells = facet_cell[fids]
    fverts = mesh.vertices[mesh.simplices[n - 1][fids]]
    pts, wts = simplex_rules(fverts, QUAD_DEGREE)
    gvals = _eval_at(g, pts)
    if k == n - 1:
        slots = np.argmax(cell_facets[cells] == fids[:, None], axis=1)
        signs = geo.facet_signs[cells, slots]
        areas = simplex_measures(fverts)
        np.add.at(rhs, fids, signs / areas * np.sum(wts * gvals, axis=1))
    else:
        # vertex traces are the facet barycentric coordinates; the 3d edge
        # basis is integrated on the facet as it is
        vals = basis_values(geo[cells], k, pts)
        np.add.at(rhs, dm.cell_dofs[cells], _basis_integrals(gvals, wts, vals))
    return rhs


def apply_essential_bc(system, boundary_values):
    """Constrain DOFs to prescribed values by row replacement with
    right-hand-side column correction.

    ``boundary_values`` maps DOF ids to values and must cover every
    boundary-flagged DOF of the system; additional (interior) pins are
    allowed.  Returns a new SparseSystem.
    """
    dm = system.dof_map
    flagged = set(np.nonzero(dm.boundary)[0].tolist())
    missing = flagged - set(int(i) for i in boundary_values)
    if missing:
        raise ValueError(
            f"missing boundary values for {len(missing)} flagged DOFs, "
            f"first: {sorted(missing)[:5]}"
        )
    ndof = dm.num_dofs
    mask = np.zeros(ndof, dtype=bool)
    xc = np.zeros(ndof)
    for dof, val in boundary_values.items():
        mask[int(dof)] = True
        xc[int(dof)] = float(val)
    keep = sp.diags((~mask).astype(float))
    A = system.matrix
    b = system.rhs - A @ xc
    A = keep @ A @ keep + sp.diags(mask.astype(float))
    b[mask] = xc[mask]
    return SparseSystem(matrix=A.tocsr(), rhs=b, dof_map=dm)
