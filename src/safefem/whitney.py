"""Lowest-order Whitney form spaces on a simplicial complex.

The four species, indexed by form degree k, are

* k = 0: continuous piecewise linears (hat functions), point DOFs,
* k = 1 in 3d: edge elements ``lam_i grad lam_j - lam_j grad lam_i`` with
  tangential edge integrals as DOFs,
* k = n-1: facet elements ``sigma (x - a_opp) / (n |T|)`` with normal
  facet fluxes as DOFs (in 2d this is the k = 1 space),
* k = n: piecewise constants ``1/|T|`` with cell integrals as DOFs.

DOF orientations follow the sorted-vertex conventions of
:mod:`safefem.mesh`: tangents run low to high vertex id, facet normals are
the sorted-order normals.  Cells store their vertices sorted, so local
and global orientations coincide and all cell-to-DOF signs are +1.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import _geometry, local_subsimplices, mesh_geometry, opposite_vertices
from .quadrature import reference_simplex_rule


def num_local_dofs(n, k):
    return math.comb(n + 1, k + 1)


@dataclass(frozen=True)
class DofMap:
    """Cell-to-global DOF connectivity for the degree-k space."""

    k: int
    num_dofs: int
    cell_dofs: np.ndarray
    boundary: np.ndarray


def dof_map(mesh, k):
    """DofMap of the degree-k Whitney space; DOF ids are entity ids."""
    if not 0 <= k <= mesh.dim:
        raise ValueError(f"no degree-{k} space in dimension {mesh.dim}")
    return DofMap(
        k=k,
        num_dofs=mesh.num_entities(k),
        cell_dofs=mesh.cell_entities[k],
        boundary=mesh.boundary[k].copy(),
    )


def facet_outward_signs(geom):
    """+1 where the stored facet normal of the cell ``geom`` (from
    ``cell_geometry``) points out of it."""
    return geom.facet_signs


def incidence(mesh, k):
    """Signed incidence matrix D^k mapping degree-k DOFs to degree-(k+1)
    DOFs, as an integer CSR matrix.  D^{k+1} D^k = 0 holds exactly.
    """
    n = mesh.dim
    if not 0 <= k < n:
        raise ValueError(f"no incidence D^{k} in dimension {n}")
    rows, cols, vals = [], [], []
    if k == 0:
        edges = mesh.simplices[1]
        ne = edges.shape[0]
        rows = np.repeat(np.arange(ne), 2)
        cols = edges[:, ::-1].ravel()  # (hi, lo) per row
        vals = np.tile([1, -1], ne)
        shape = (ne, mesh.num_entities(0))
    elif n == 3 and k == 1:
        faces = mesh.simplices[2]
        edge_ids = {tuple(e): i for i, e in enumerate(mesh.simplices[1].tolist())}
        rows, cols, vals = [], [], []
        for fi, (a, b, c) in enumerate(faces.tolist()):
            # boundary cycle a -> b -> c -> a, right-handed about the
            # sorted-order face normal
            for tail, head, sgn in ((a, b, 1), (b, c, 1), (a, c, -1)):
                rows.append(fi)
                cols.append(edge_ids[(tail, head)])
                vals.append(sgn)
        shape = (faces.shape[0], mesh.num_entities(1))
    else:
        # facets -> cells: outward flux signs
        rows = np.repeat(np.arange(mesh.num_cells), n + 1)
        cols = mesh.cell_entities[n - 1].ravel()
        vals = mesh_geometry(mesh).facet_signs.ravel()
        shape = (mesh.num_cells, mesh.num_entities(n - 1))
    return sp.csr_matrix(
        (np.asarray(vals, dtype=np.int64), (np.asarray(rows), np.asarray(cols))),
        shape=shape,
    )


def local_incidence(geom, k):
    """Local incidence D^k of one cell (rows: (k+1)-subsimplices, cols:
    k-subsimplices), matching the global conventions."""
    n = geom.vertices.shape[1]
    if not 0 <= k < n:
        raise ValueError(f"no incidence D^{k} in dimension {n}")
    lo = local_subsimplices(n, k)
    hi = local_subsimplices(n, k + 1)
    col = {s: i for i, s in enumerate(lo)}
    D = np.zeros((len(hi), len(lo)), dtype=np.int64)
    if k == 0:
        for r, (i, j) in enumerate(hi):
            D[r, j] = 1
            D[r, i] = -1
    elif n == 3 and k == 1:
        for r, (a, b, c) in enumerate(hi):
            D[r, col[(a, b)]] = 1
            D[r, col[(b, c)]] = 1
            D[r, col[(a, c)]] = -1
    else:
        D[0, :] = facet_outward_signs(geom)
    return D


@dataclass
class WhitneyBasis:
    """Values (and exterior-derivative proxies) of all local basis
    functions at a batch of points.

    ``values`` has shape (npts, nloc) for scalar species and
    (npts, nloc, dim) for vector species.  ``d_values`` holds gradients
    for k = 0, curls for the 3d edge space, divergences for the facet
    space and zeros for k = n; constant-per-cell proxies are returned
    without a point axis.
    """

    cell: int
    k: int
    values: np.ndarray
    d_values: np.ndarray


def eval_basis(mesh, cell_id, k, points, tol=1e-10):
    """Evaluate the local degree-k basis at physical points of one cell.

    Raises ValueError when a point lies outside the cell beyond ``tol``
    (in barycentric coordinates).
    """
    geo = _geometry(mesh, [cell_id])
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = basis_values(geo, k, pts[None], tol)[0]
    return WhitneyBasis(cell_id, k, vals, basis_derivatives(geo, k)[0])


def basis_values(geo, k, points, tol=None):
    """Local degree-k basis of each cell of ``geo`` (a MeshGeometry) at
    that cell's own points, ``points`` of shape (ncells, npts, n).

    Returns (ncells, npts, nloc) for scalar species and
    (ncells, npts, nloc, n) for vector species.  With ``tol`` set,
    raises ValueError naming the first cell with a point outside it
    beyond ``tol`` in barycentric coordinates.
    """
    n = geo.vertices.shape[2]
    g = geo.lambda_grads
    lam = 1.0 / (n + 1) + (points - geo.barycenter[:, None, :]) @ g.transpose(0, 2, 1)
    if tol is not None:
        outside = np.nonzero(((lam < -tol) | (lam > 1.0 + tol)).any(axis=(1, 2)))[0]
        if outside.size:
            c = outside[0]
            raise ValueError(
                f"point outside cell {geo.cell_ids[c]}: barycentric range "
                f"[{lam[c].min():.3e}, {lam[c].max():.3e}]"
            )
    if k == 0:
        return lam
    if k == n:
        return np.repeat((1.0 / geo.volume)[:, None, None], points.shape[1], axis=1)
    if n == 3 and k == 1:
        vals = np.empty(lam.shape[:2] + (6, 3))
        for e, (i, j) in enumerate(local_subsimplices(3, 1)):
            vals[:, :, e, :] = (
                lam[:, :, i, None] * g[:, None, j] - lam[:, :, j, None] * g[:, None, i]
            )
        return vals
    vals = np.empty(lam.shape[:2] + (n + 1, n))
    for m, opp in enumerate(opposite_vertices(n)):
        coef = geo.facet_signs[:, m] / (n * geo.volume)
        vals[:, :, m, :] = coef[:, None, None] * (points - geo.vertices[:, None, opp])
    return vals


def basis_derivatives(geo, k):
    """Exterior-derivative proxies of the local basis, constant per cell:
    gradients (ncells, n+1, n) for k = 0, curls (ncells, 6, 3) for the 3d
    edge space, divergences (ncells, n+1) for the facet space and zeros
    (ncells, 1) for k = n."""
    n = geo.vertices.shape[2]
    g = geo.lambda_grads
    if k == 0:
        return g
    if k == n:
        return np.zeros((len(geo.volume), 1))
    if n == 3 and k == 1:
        edges = local_subsimplices(3, 1)
        return np.stack([2.0 * np.cross(g[:, i], g[:, j]) for i, j in edges], axis=1)
    return geo.facet_signs / geo.volume[:, None]


def _entity_frames(mesh, k, entity_ids):
    """Vertex coords, measures and DOF direction vectors of k-entities."""
    n = mesh.dim
    verts = mesh.vertices[mesh.simplices[k][entity_ids]]
    if k == 0:
        return verts, np.ones(len(entity_ids)), None
    if k == 1:
        tan = verts[:, 1] - verts[:, 0]
        lengths = np.linalg.norm(tan, axis=1)
        unit = tan / lengths[:, None]
        if n == 2:
            # facet role: clockwise-rotated tangent as normal direction
            direction = np.column_stack([unit[:, 1], -unit[:, 0]])
        else:
            direction = unit
        return verts, lengths, direction
    if n == 3 and k == 2:
        cr = np.cross(verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0])
        areas = 0.5 * np.linalg.norm(cr, axis=1)
        return verts, areas, cr / (2.0 * areas[:, None])
    # k == n: cell integral
    mats = verts[:, 1:] - verts[:, :1]
    dets = np.abs(np.linalg.det(mats))
    return verts, dets / math.factorial(n), None


def canonical_interpolate(mesh, k, field, degree=4, entities=None):
    """Canonical DOFs of a field: point values, tangential edge
    integrals, normal facet fluxes or cell integrals.

    ``field`` must accept an (npts, dim) array and return (npts,) for
    scalar species or (npts, dim) for vector species.  When ``entities``
    is given only those DOFs are computed; others stay zero.

    Returns the DOF vector.
    """
    n = mesh.dim
    if not 0 <= k <= n:
        raise ValueError(f"no degree-{k} space in dimension {n}")
    ids = np.arange(mesh.num_entities(k)) if entities is None else np.asarray(entities)
    out = np.zeros(mesh.num_entities(k))
    if len(ids) == 0:
        return out
    if k == 0:
        pts = mesh.vertices[mesh.simplices[0][ids, 0]]
        out[ids] = np.asarray(field(pts), dtype=float)
        return out
    verts, measures, direction = _entity_frames(mesh, k, ids)
    ref_pts, ref_wts = reference_simplex_rule(k, degree)
    # physical quadrature points for all entities at once
    pts = verts[:, 0, None, :] + np.einsum(
        "qm,emn->eqn", ref_pts, verts[:, 1:] - verts[:, :1]
    )
    flat = pts.reshape(-1, n)
    fvals = np.asarray(field(flat), dtype=float)
    scale = measures * math.factorial(k)  # ref weights sum to 1/k!
    if k == n:
        fvals = fvals.reshape(len(ids), -1)
        out[ids] = (fvals @ ref_wts) * scale
    else:
        fvals = fvals.reshape(len(ids), -1, n)
        comp = np.einsum("eqn,en->eq", fvals, direction)
        out[ids] = (comp @ ref_wts) * scale
    return out


@dataclass
class LocalFormMatrix:
    """Dense local form matrix with its provenance."""

    cell: int
    k: int
    kind: str
    matrix: np.ndarray


def _lambda_products(n, volume):
    """Matrix of integrals of lam_a lam_b over the cell."""
    c = volume / ((n + 1) * (n + 2))
    return c * (np.ones((n + 1, n + 1)) + np.eye(n + 1))


def mass_matrices(geo, k):
    """Exact unweighted local mass matrices of every cell of ``geo`` (a
    MeshGeometry), (ncells, nloc, nloc)."""
    n = geo.vertices.shape[2]
    vol = geo.volume
    if k == 0:
        return _lambda_products(n, vol[:, None, None])
    if k == n:
        return (1.0 / vol)[:, None, None]
    if n == 3 and k == 1:
        g = geo.lambda_grads
        gg = g @ g.transpose(0, 2, 1)
        C = _lambda_products(n, vol[:, None, None])
        i, j = np.array(local_subsimplices(3, 1)).T
        I, J, P, Q = i[:, None], j[:, None], i[None, :], j[None, :]
        return (
            C[:, I, P] * gg[:, J, Q]
            - C[:, I, Q] * gg[:, J, P]
            - C[:, J, P] * gg[:, I, Q]
            + C[:, J, Q] * gg[:, I, P]
        )
    # facet space, from the moments s2 = int x.x dx and m1 = int x dx
    signs = geo.facet_signs
    verts = geo.vertices
    vsum = verts.sum(axis=1)
    squares = (verts * verts).reshape(len(vol), -1).sum(axis=1)
    s2 = vol / ((n + 1) * (n + 2)) * (squares + np.vecdot(vsum, vsum))
    m1 = vol[:, None] * geo.barycenter
    opp = [verts[:, v] for v in opposite_vertices(n)]
    scale = (n * vol) ** 2
    M = np.empty((len(vol), n + 1, n + 1))
    for a in range(n + 1):
        for b in range(n + 1):
            val = (
                s2
                - np.vecdot(opp[b], m1)
                - np.vecdot(opp[a], m1)
                + np.vecdot(opp[a], opp[b]) * vol
            )
            M[:, a, b] = signs[:, a] * signs[:, b] * val / scale
    return M


def stiffness_matrices(geo, k):
    """Local matrices of (d phi_S, d phi_S') of every cell of ``geo``,
    (ncells, nloc, nloc); the proxies are constant per cell."""
    d = basis_derivatives(geo, k)
    if d.ndim == 2:
        d = d[:, :, None]
    return geo.volume[:, None, None] * (d @ d.transpose(0, 2, 1))


def local_mass(mesh, cell_id, k):
    """Local mass matrix (exact, unweighted) of the degree-k space."""
    matrix = mass_matrices(_geometry(mesh, [cell_id]), k)[0]
    return LocalFormMatrix(cell_id, k, "mass", matrix)


def local_stiffness(mesh, cell_id, k):
    """Local matrix of (d phi_S, d phi_S') over one cell."""
    matrix = stiffness_matrices(_geometry(mesh, [cell_id]), k)[0]
    return LocalFormMatrix(cell_id, k, "stiffness", matrix)
