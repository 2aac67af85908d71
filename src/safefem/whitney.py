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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import _geometry, local_subsimplices, mesh_geometry, opposite_vertices
from .quadrature import QUAD_DEGREE, reference_simplex_rule


@dataclass(frozen=True)
class DofMap:
    """Cell-to-global DOF connectivity for the degree-k space, with the
    barycentre of each DOF's entity in ``points``."""

    num_dofs: int
    cell_dofs: np.ndarray
    boundary: np.ndarray
    points: np.ndarray


def dof_map(mesh, k):
    """DofMap of the degree-k Whitney space; DOF ids are entity ids."""
    if not 0 <= k <= mesh.dim:
        raise ValueError(f"no degree-{k} space in dimension {mesh.dim}")
    return DofMap(
        num_dofs=mesh.num_entities(k),
        cell_dofs=mesh.cell_entities[k],
        boundary=mesh.boundary[k].copy(),
        points=sum(mesh.vertices[mesh.simplices[k][:, i]] for i in range(k + 1)) / (k + 1),
    )


def incidence(mesh, k):
    """Signed incidence matrix D^k mapping degree-k DOFs to degree-(k+1)
    DOFs, as an integer CSR matrix.  D^{k+1} D^k = 0 holds exactly.

    Each row is the local incidence of one cell that contains the
    (k+1)-entity, scattered through the cell's entity tables.
    """
    n = mesh.dim
    if not 0 <= k < n:
        raise ValueError(f"no incidence D^{k} in dimension {n}")
    hi = mesh.cell_entities[k + 1]
    # one owning cell per (k+1)-entity, with the entity's local slot there
    owner = np.empty(mesh.num_entities(k + 1), dtype=np.int64)
    owner[hi.ravel()] = np.arange(hi.size)
    cells, slots = np.divmod(owner, hi.shape[1])
    # only the top degree depends on the cell, through its facet signs
    geo = mesh_geometry(mesh) if k == n - 1 else _geometry(mesh, [0])
    D = local_incidence(geo, k)
    D = np.broadcast_to(D, (mesh.num_cells,) + D.shape[1:])[cells, slots]
    rows = np.repeat(np.arange(len(cells)), D.shape[1])
    cols = mesh.cell_entities[k][cells].ravel()
    vals = D.ravel()
    keep = vals != 0
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(len(cells), mesh.num_entities(k)),
    )


def local_incidence(geom, k):
    """Local incidence D^k (rows: (k+1)-subsimplices, cols:
    k-subsimplices), matching the global conventions: (ncells, nhi, nlo)
    for a MeshGeometry, (nhi, nlo) for one of its rows without the cell
    axis.

    Below the top degree, dropping the vertex at position p of a sorted
    subsimplex gives the sign (-1)^p; the top degree takes the outward
    facet signs.
    """
    n = geom.vertices.shape[-1]
    if not 0 <= k < n:
        raise ValueError(f"no incidence D^{k} in dimension {n}")
    if k == n - 1:
        return geom.facet_signs[..., None, :].astype(np.int64)
    lo = local_subsimplices(n, k)
    hi = local_subsimplices(n, k + 1)
    D = np.zeros((len(hi), len(lo)), dtype=np.int64)
    for r, s in enumerate(hi):
        for p in range(k + 2):
            D[r, lo.index(s[:p] + s[p + 1:])] = (-1) ** p
    return np.broadcast_to(D, geom.facet_signs.shape[:-1] + D.shape)


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
    # the facet and top-degree bases do not need the barycentrics
    if tol is not None or k == 0 or (n == 3 and k == 1):
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
    vals = np.empty(points.shape[:2] + (n + 1, n))
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
        i, j = np.array(local_subsimplices(3, 1)).T
        return 2.0 * np.cross(g[:, i], g[:, j])
    return geo.facet_signs / geo.volume[:, None]


def canonical_interpolate(mesh, k, field, degree=QUAD_DEGREE, entities=None):
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
    verts = mesh.vertices[mesh.simplices[k][ids]]
    edges = verts[:, 1:] - verts[:, :1]
    ref_pts, ref_wts = reference_simplex_rule(k, degree)
    # physical quadrature points for all entities at once
    pts = verts[:, :1] + np.einsum("qm,emn->eqn", ref_pts, edges)
    fvals = np.asarray(field(pts.reshape(-1, n)), dtype=float)
    fvals = fvals.reshape(pts.shape[:2] + (-1,))
    # the unnormalised pushforward of the reference entity: the tangent
    # b - a of an edge, rotated clockwise for a 2d facet, (b - a) x (c - a)
    # of a 3d face and |det| of a cell
    if k == n:
        push = np.abs(np.linalg.det(edges))[:, None]
    elif n == 2:
        push = np.column_stack([edges[:, 0, 1], -edges[:, 0, 0]])
    elif k == 1:
        push = edges[:, 0]
    else:
        push = np.cross(edges[:, 0], edges[:, 1])
    out[ids] = np.vecdot(fvals, push[:, None]) @ ref_wts
    return out


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
    # facet space: phi_a = s_a (x - a_o) / (n |T|), o opposite facet a.
    # Affine f, g with vertex values f_i, g_i have int f.g = |T| (sum_i f_i.g_i
    # + sum_i f_i . sum_i g_i) / ((n+1)(n+2)); the values here are offsets
    # a_i - a_o, which keep every term O(h^2) wherever the cell lies
    t = geo.tangents[:, opposite_vertices(n)]
    flat = t.reshape(len(vol), n + 1, -1)
    tsum = sum(t[:, :, i] for i in range(n + 1))
    gram = flat @ flat.transpose(0, 2, 1) + tsum @ tsum.transpose(0, 2, 1)
    signs = geo.facet_signs.astype(float)[:, :, None]
    scale = (n + 1) * (n + 2) * n * n * vol
    return signs * signs.transpose(0, 2, 1) * gram / scale[:, None, None]


def stiffness_matrices(geo, k):
    """Local matrices of (d phi_S, d phi_S') of every cell of ``geo``,
    (ncells, nloc, nloc); the proxies are constant per cell."""
    d = basis_derivatives(geo, k)
    if d.ndim == 2:
        d = d[:, :, None]
    return geo.volume[:, None, None] * (d @ d.transpose(0, 2, 1))
