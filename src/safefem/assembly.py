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
Whitney stiffness matrix; with ``alpha_bar = 0`` the kernels switch to
their upwind limits.  ``local_safe_oracle`` provides an independent
evaluation through the conjugated difference operators and the averaging
maps; both routes agree to rounding.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .exponential import (
    _averaged_coefficients,
    _bernoulli,
    _eval_at,
    local_exp_operators,
)
from .mesh import (
    _geometry,
    cell_blocks,
    local_subsimplices,
    mesh_geometry,
    opposite_vertices,
)
from .quadrature import reference_simplex_rule, simplex_measures, simplex_rules
from .whitney import (
    DofMap,
    LocalFormMatrix,
    basis_derivatives,
    basis_values,
    dof_map,
    mass_matrices,
)


@dataclass
class GraphWeights:
    """Sub-simplex weights of the cell graph Laplacian at one degree.

    ``edge`` holds omega_E per local edge (k = 0), ``face_pair`` the
    symmetric omega_FF' table with zero diagonal (k = 1, 3d), ``top`` the
    scalar 1/|T| (k = n-1).  Unused entries are None.
    """

    cell: int
    k: int
    edge: np.ndarray | None = None
    face_pair: np.ndarray | None = None
    top: float | None = None


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


def graph_weights(mesh, cell_id, k):
    """Graph-Laplacian weights of one cell for degree k."""
    n = mesh.dim
    geo = _geometry(mesh, [cell_id])
    if k == 0:
        return GraphWeights(cell_id, k, edge=_edge_weights(geo, k)[0])
    if k == 1 and n == 3:
        omega = _edge_weights(geo, k)[0]
        W = np.zeros((4, 4))
        for a, b, e, *_ in _face_pairs():
            W[a, b] = omega[e]
        return GraphWeights(cell_id, k, face_pair=W)
    if k == n - 1:
        return GraphWeights(cell_id, k, top=float(1.0 / geo.volume[0]))
    raise ValueError(f"no graph weights for k={k} in dimension {n}")


def local_safe_matrix(mesh, cell_id, k, coeffs):
    """Local convective-diffusive matrix via Bernoulli kernels.

    ``coeffs.alpha_bar = 0`` selects the upwind limit branch.
    """
    geo = _geometry(mesh, [cell_id])
    bbar = np.asarray(coeffs.beta_bar, dtype=float)[None]
    matrix = _safe_matrices(geo, k, np.array([coeffs.alpha_bar]), bbar)[0]
    return LocalFormMatrix(cell_id, k, "safe", matrix)


def local_safe_oracle(mesh, cell_id, k, coeffs):
    """Independent local matrix through the averaged-operator route
    (requires ``alpha_bar > 0``): assemble (alpha Pi J w, d v)_T from the
    conjugated difference operator J and the constant-reproducing
    averaging map Pi.
    """
    if not coeffs.alpha_bar > 0 or coeffs.theta_bar is None:
        raise ValueError("oracle route needs alpha_bar > 0 and theta_bar")
    n = mesh.dim
    geo = _geometry(mesh, [cell_id])
    geom = geo[0]
    d = basis_derivatives(geo, k)[0]
    J = local_exp_operators(mesh, cell_id, k, coeffs.theta_bar).j_k
    scale = coeffs.alpha_bar * geom.volume
    if k == 0:
        w = graph_weights(mesh, cell_id, k).edge
        P = np.zeros((n, len(w)))
        for e, (i, j) in enumerate(local_subsimplices(n, 1)):
            P[:, e] = w[e] * geom.tangents[i, j] / geom.volume
        return LocalFormMatrix(cell_id, k, "safe-oracle", scale * (d @ (P @ J)))
    if k == 1 and n == 3:
        W = graph_weights(mesh, cell_id, k).face_pair
        signs = geom.facet_signs.astype(float)
        n_out = signs[:, None] * geom.facet_normals
        P = np.zeros((3, 4))
        for fa in range(4):
            acc = np.zeros(3)
            for fb in range(4):
                if fb != fa:
                    acc += W[fa, fb] * (geom.facet_measures[fb] / geom.volume) * n_out[fb]
            P[:, fa] = signs[fa] * acc
        return LocalFormMatrix(cell_id, k, "safe-oracle", scale * (d @ (P @ J)))
    if k == n - 1:
        fvals = J[0] / geom.volume
        return LocalFormMatrix(cell_id, k, "safe-oracle", scale * np.outer(d, fvals))
    raise ValueError(f"no oracle form for k={k} in dimension {n}")


@dataclass
class SparseSystem:
    """Assembled linear system with its DOF context."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dof_map: DofMap
    k: int
    scheme: str
    constrained: dict = field(default_factory=dict)


def _directed_edge(p, q):
    """Signed vector over the six local edges of a tetrahedron of the
    directed edge p -> q."""
    v = np.zeros(6)
    v[local_subsimplices(3, 1).index((min(p, q), max(p, q)))] = 1.0 if p < q else -1.0
    return v


def _safe_matrices(geo, k, eps, bbar):
    """Local convective-diffusive matrices of every cell of ``geo``,
    (ncells, nloc, nloc), for kernel parameters ``eps`` (ncells,) and
    averaged drifts ``bbar`` (ncells, n).

    Every kernel argument is an entry of S[p, q] = bbar . (a_q - a_p); the
    index tables (P, Q), one row per kernel, select them, and one kernel
    call serves the whole block."""
    n = geo.vertices.shape[2]
    if k == 0:
        # B_1 along both directions of every local edge (i, j)
        i, j = np.array(local_subsimplices(n, 1)).T
        P, Q = np.r_[i, j][:, None], np.r_[j, i][:, None]
    elif k == 1 and n == 3:
        # trial: boundary cycle i -> j -> kv of the first face, each
        # directed edge p -> q weighted by B_2 at (drift along the edge,
        # drift to the remaining face vertex o); test: the cycle
        # i -> j -> lv of the second face
        pairs = _face_pairs()
        steps = [((i, j, kv), (j, kv, i), (kv, i, j)) for *_, i, j, kv, _ in pairs]
        P = np.array([(p, p) for cyc in steps for p, _, _ in cyc])
        Q = np.array([(q, o) for cyc in steps for _, q, o in cyc])
        shared = [e for _, _, e, *_ in pairs]
        trial_edges = np.array([[_directed_edge(p, q) for p, q, _ in cyc] for cyc in steps])
        test = np.array(
            [_directed_edge(i, j) + _directed_edge(j, lv) + _directed_edge(lv, i)
             for *_, i, j, _, lv in pairs]
        )
    elif k == n - 1:
        # B_n of each facet (p, ...) at the drift to its other vertices q
        # and to the opposite vertex
        facets = np.array(local_subsimplices(n, n - 1))
        P = np.repeat(facets[:, :1], n, axis=1)
        Q = np.column_stack([facets[:, 1:], opposite_vertices(n)])
    else:
        raise ValueError(f"no convective-diffusive form for k={k} in dimension {n}")
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
    trial = np.einsum("cmt,mts->cms", vals.reshape(-1, len(pairs), 3), trial_edges)
    return -(test.T @ (_edge_weights(geo, k)[:, shared, None] * trial))


def _weighted_masses(geo, k, gamma, degree):
    """Local mass matrices of a block weighted by the reaction
    coefficient."""
    if not callable(gamma):
        return float(gamma) * mass_matrices(geo, k)
    pts, wts = simplex_rules(geo.vertices, degree)
    gvals = _eval_at(gamma, pts) * wts
    vals = basis_values(geo, k, pts)
    if vals.ndim == 3:
        return np.einsum("cq,cqa,cqb->cab", gvals, vals, vals)
    return np.einsum("cq,cqad,cqbd->cab", gvals, vals, vals)


def assemble(mesh, k, alpha, beta, gamma=0.0, scheme="primal", quad_degree=4):
    """Assemble the global convective-diffusive(-reactive) matrix.

    ``alpha`` is a positive constant or positive vectorized callable; the
    literal constant 0 selects the upwind limit scheme (then the drift is
    averaged as ``beta(x_c)`` per cell).  The dual scheme is the
    transpose of the primal matrix.

    Returns a SparseSystem with a zero right-hand side.
    """
    if scheme not in ("primal", "dual"):
        raise ValueError(f"unknown scheme {scheme!r}")
    n = mesh.dim
    dm = dof_map(mesh, k)
    limit_mode = not callable(alpha) and float(np.asarray(alpha)) == 0.0
    nloc = dm.cell_dofs.shape[1]
    ncells = mesh.num_cells
    geo = mesh_geometry(mesh)
    blocks = np.empty((ncells, nloc, nloc))
    with_mass = callable(gamma) or float(np.asarray(gamma)) != 0.0
    for cells in cell_blocks(ncells, reference_simplex_rule(n, quad_degree)[1].size):
        block = geo[cells]
        if limit_mode:
            eps = np.zeros(len(block.volume))
            bbar = _eval_at(beta, block.barycenter)
        else:
            eps, _, bbar = _averaged_coefficients(block, alpha, beta, quad_degree)
        A = _safe_matrices(block, k, eps, bbar)
        if with_mass:
            A = A + _weighted_masses(block, k, gamma, quad_degree)
        blocks[cells] = A
    rows = np.repeat(dm.cell_dofs, nloc, axis=1).ravel()
    cols = np.tile(dm.cell_dofs, (1, nloc)).ravel()
    mat = sp.coo_matrix(
        (blocks.ravel(), (rows, cols)), shape=(dm.num_dofs, dm.num_dofs)
    ).tocsr()
    if scheme == "dual":
        mat = mat.T.tocsr()
    return SparseSystem(
        matrix=mat,
        rhs=np.zeros(dm.num_dofs),
        dof_map=dm,
        k=k,
        scheme=scheme,
    )


def _basis_integrals(fvals, wts, vals):
    """Quadrature of a field against every local basis function, per
    cell: scalar fields (ncells, npts), vector fields (ncells, npts, n)."""
    if vals.ndim == 3:
        return np.einsum("cq,cqa->ca", fvals * wts, vals)
    return np.einsum("cqd,cqad->ca", fvals * wts[..., None], vals)


def assemble_load(mesh, k, f, degree=4, neumann=None, g=None):
    """Load vector of (f, phi_S) plus optional natural boundary data.

    ``neumann`` is an iterable of boundary facet ids paired with the
    boundary density ``g``: for k = 0 a scalar integrated against the
    vertex traces, for k = n-1 a scalar against the outward normal
    component, for the 3d edge space a vector integrated against the
    basis on the facet.
    """
    n = mesh.dim
    dm = dof_map(mesh, k)
    rhs = np.zeros(dm.num_dofs)
    geo = mesh_geometry(mesh)
    for cells in cell_blocks(mesh.num_cells, reference_simplex_rule(n, degree)[1].size):
        block = geo[cells]
        pts, wts = simplex_rules(block.vertices, degree)
        loc = _basis_integrals(_eval_at(f, pts), wts, basis_values(block, k, pts))
        np.add.at(rhs, dm.cell_dofs[cells], loc)
    if neumann is not None:
        if g is None:
            raise ValueError("neumann facets given without boundary data g")
        rhs += _natural_boundary_load(mesh, geo, k, neumann, g, degree)
    return rhs


def _natural_boundary_load(mesh, geo, k, facet_ids, g, degree):
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
    pts, wts = simplex_rules(fverts, degree)
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
    return SparseSystem(
        matrix=A.tocsr(),
        rhs=b,
        dof_map=dm,
        k=system.k,
        scheme=system.scheme,
        constrained={int(d): float(v) for d, v in boundary_values.items()},
    )
