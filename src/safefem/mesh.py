"""Simplicial complexes on the unit square and cube.

A mesh stores, for every dimension k, the list of k-subsimplices as sorted
vertex tuples, the incidence of cells to those entities, and boundary
flags.  Orientation conventions are fixed by the sorted vertex order:

* edges run from the lower to the higher vertex id (tangent ``tau``),
* a triangle face (i < j < k) in 3d carries the unit normal along
  ``(a_j - a_i) x (a_k - a_i)``,
* an edge in 2d carries the normal obtained by rotating the unit tangent
  clockwise, ``n = (tau_y, -tau_x)``,
* cells are weighted by their positive measure.
"""

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

DIAG_LL_UR = "lower-left-to-upper-right"
DIAG_UL_LR = "upper-left-to-lower-right"
DIAGONALS = (DIAG_LL_UR, DIAG_UL_LR)


def local_subsimplices(n, k):
    """Index tuples of the k-subsimplices of an n-simplex (0..n), sorted."""
    return list(itertools.combinations(range(n + 1), k + 1))


def opposite_vertices(n):
    """Local vertex opposite each local facet of an n-simplex, in facet
    order."""
    return [
        next(i for i in range(n + 1) if i not in fac)
        for fac in local_subsimplices(n, n - 1)
    ]


@dataclass
class MeshComplex:
    """Simplicial complex with entity tables for every dimension.

    Attributes
    ----------
    dim : int
        Ambient (and cell) dimension, 2 or 3.
    vertices : (num_vertices, dim) ndarray
    simplices : dict
        Maps k to an (N_k, k+1) integer array of sorted vertex ids.
    cell_entities : dict
        Maps k to an (num_cells, n_local_k) array giving, per cell, the
        global entity id of each local k-subsimplex in the order of
        ``local_subsimplices(dim, k)``.
    boundary : dict
        Maps k to a boolean array flagging entities contained in the
        domain boundary.
    """

    dim: int
    vertices: np.ndarray
    simplices: dict = field(default_factory=dict)
    cell_entities: dict = field(default_factory=dict)
    boundary: dict = field(default_factory=dict)

    def num_entities(self, k):
        return self.simplices[k].shape[0]

    @property
    def num_cells(self):
        return self.simplices[self.dim].shape[0]

    @property
    def cells(self):
        return self.simplices[self.dim]


def _build_complex(dim, vertices, cells):
    cells = np.asarray(cells, dtype=np.int64)
    cells = np.sort(cells, axis=1)
    simplices = {0: np.arange(vertices.shape[0], dtype=np.int64)[:, None]}
    cell_entities = {}
    for k in range(1, dim):
        locs = local_subsimplices(dim, k)
        raw = np.concatenate([cells[:, loc] for loc in locs], axis=0)
        # sort the rows lexicographically; each run of equal rows is one
        # entity, numbered in sorted order
        order = np.lexsort(raw.T[::-1])
        rows = raw[order]
        start = np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)]
        inverse = np.empty(len(raw), dtype=np.int64)
        inverse[order] = np.cumsum(start) - 1
        simplices[k] = rows[start]
        cell_entities[k] = inverse.reshape(len(locs), cells.shape[0]).T.copy()
    simplices[dim] = cells
    cell_entities[0] = cells.copy()
    cell_entities[dim] = np.arange(cells.shape[0], dtype=np.int64)[:, None]

    # Boundary facets have exactly one adjacent cell; lower entities are
    # boundary when contained in a boundary facet.
    nfacets = simplices[dim - 1].shape[0]
    cofacets = np.zeros(nfacets, dtype=np.int64)
    np.add.at(cofacets, cell_entities[dim - 1].ravel(), 1)
    if not np.all((cofacets == 1) | (cofacets == 2)):
        raise ValueError("non-manifold facet detected")
    boundary = {dim - 1: cofacets == 1, dim: np.zeros(cells.shape[0], dtype=bool)}
    bverts = np.zeros(vertices.shape[0], dtype=bool)
    bfacets = simplices[dim - 1][boundary[dim - 1]]
    bverts[bfacets.ravel()] = True
    boundary[0] = bverts
    # vertex containment is not sufficient; an entity is boundary only if
    # it is a subsimplex of some boundary facet
    on_boundary = boundary[dim - 1][cell_entities[dim - 1]]
    for k in range(1, dim - 1):
        locs = local_subsimplices(dim, k)
        flags = np.zeros(simplices[k].shape[0], dtype=bool)
        for m, fac in enumerate(local_subsimplices(dim, dim - 1)):
            for sub in itertools.combinations(fac, k + 1):
                flags[cell_entities[k][on_boundary[:, m], locs.index(sub)]] = True
        boundary[k] = flags
    return MeshComplex(
        dim=dim,
        vertices=np.asarray(vertices, dtype=float),
        simplices=simplices,
        cell_entities=cell_entities,
        boundary=boundary,
    )


def build_unit_square_mesh(n, diagonal=DIAG_LL_UR):
    """Structured triangulation of [0,1]^2 with n x n squares, two
    triangles each.

    Vertex ids are lexicographic in grid coordinates (x fastest).  The
    ``diagonal`` selector selects which square diagonal is drawn.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if diagonal not in DIAGONALS:
        raise ValueError(f"unknown diagonal {diagonal!r}")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # lower-left corner of each square, squares ordered with x fastest
    j, i = np.divmod(np.arange(n * n), n)
    v00 = i + (n + 1) * j
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    if diagonal == DIAG_LL_UR:
        pair = [(v00, v10, v11), (v00, v11, v01)]
    else:
        pair = [(v00, v10, v01), (v10, v11, v01)]
    cells = np.stack([np.stack(tri, axis=1) for tri in pair], axis=1)
    return _build_complex(2, vertices, cells.reshape(-1, 3))


def build_unit_cube_mesh(n):
    """Kuhn triangulation of [0,1]^3: each of the n^3 subcubes is split
    into six tetrahedra sharing the main diagonal.

    Vertex ids are lexicographic in grid coordinates (x fastest).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    grid = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1)
    # id = ix + (n+1) iy + (n+1)^2 iz
    vertices = grid.transpose(2, 1, 0, 3).reshape(-1, 3)

    # each tetrahedron walks from the subcube's lowest corner to its
    # highest along the axes in the order of one permutation
    strides = np.array([1, n + 1, (n + 1) ** 2])
    steps = strides[list(itertools.permutations(range(3)))]
    paths = np.concatenate(
        [np.zeros((6, 1), dtype=np.int64), steps.cumsum(axis=1)], axis=1
    )
    k, j, i = np.unravel_index(np.arange(n**3), (n, n, n))
    base = i + (n + 1) * (j + (n + 1) * k)
    cells = base[:, None, None] + paths[None]
    return _build_complex(3, vertices, cells.reshape(-1, 4))


# Whole-mesh passes work through the cells in consecutive blocks holding
# about this many quadrature points (or kernel rows), so their per-point
# arrays stay a few MB whatever the mesh size.
_BLOCK_POINTS = 8192


def cell_blocks(num_cells, points_per_cell):
    """Consecutive cell slices of near-equal size, as few as keep each
    within one cell of ``_BLOCK_POINTS`` points."""
    count = min(num_cells, -(-num_cells * points_per_cell // _BLOCK_POINTS))
    bounds = (np.arange(count + 1) * num_cells // max(count, 1)).tolist()
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass
class MeshGeometry:
    """Metric data of many cells, stacked along a leading cell axis.

    Row c belongs to cell ``cell_ids[c]``: ``vertices`` (N, n+1, n),
    ``volume`` (N,), ``barycenter`` (N, n), ``lambda_grads`` (N, n+1, n),
    and per local facet ``facet_signs`` (N, n+1),
    +1 where the facet's sorted-order normal (module docstring) points out
    of the cell.  Indexing with a slice or an index array selects cells;
    an integer index gives one cell without the cell axis.
    """

    cell_ids: np.ndarray
    vertices: np.ndarray
    volume: np.ndarray
    barycenter: np.ndarray
    lambda_grads: np.ndarray
    facet_signs: np.ndarray

    def __getitem__(self, cells):
        return MeshGeometry(
            *(getattr(self, f.name)[cells] for f in fields(MeshGeometry))
        )


def _geometry(mesh, cell_ids):
    """MeshGeometry of the cells ``cell_ids``, raising on the first
    degenerate one."""
    n = mesh.dim
    cell_ids = np.asarray(cell_ids)
    verts = mesh.vertices[mesh.cells[cell_ids]]
    # grad lam_i, i >= 1, is the cofactor of the edge a_i - a_0 over the determinant:
    # the other edge turned clockwise in 2d, the other two crossed cyclically in 3d
    e = verts[:, 1:] - verts[:, :1]
    if n == 2:
        cof = np.stack([e[:, 1, [1, 0]] * [1, -1], e[:, 0, [1, 0]] * [-1, 1]], axis=1)
    else:
        cof = np.cross(e[:, [1, 2, 0]], e[:, [2, 0, 1]])
    det = np.vecdot(e[:, 0], cof[:, 0])
    volume = np.abs(det) / math.factorial(n)
    scale = np.max(np.abs(e), axis=(1, 2)) ** n
    bad = np.nonzero(~(volume > 1e-14 * np.maximum(scale, 1e-300)))[0]
    if bad.size:
        c = bad[0]
        raise ValueError(f"degenerate cell {cell_ids[c]}: measure {volume[c]}")
    cof /= det[:, None, None]
    lambda_grads = np.concatenate([-cof.sum(axis=1, keepdims=True), cof], axis=1)

    # facet m omits vertex n - m, and the facet's vertices followed by that
    # vertex have orientation (-1)^m det; with the normal conventions above,
    # the sorted-order normal points out of the cell where (-1)^(m+n) det > 0
    parity = (-1) ** (np.arange(n + 1) + n)
    facet_signs = (np.where(det > 0, 1, -1)[:, None] * parity).astype(np.int8)
    return MeshGeometry(
        cell_ids=cell_ids,
        vertices=verts,
        volume=volume,
        barycenter=sum(verts[:, i] for i in range(n + 1)) / (n + 1),
        lambda_grads=lambda_grads,
        facet_signs=facet_signs,
    )


def mesh_geometry(mesh):
    """MeshGeometry of all cells, raising on the first degenerate cell."""
    return _geometry(mesh, np.arange(mesh.num_cells))


def save_vtk(mesh, path, cell_data=None, field_label=None):
    """Write the mesh as a legacy ASCII VTK unstructured grid.

    ``cell_data`` maps names to per-cell arrays, scalars of shape
    (num_cells,) or vectors of shape (num_cells, dim).  The count of
    boundary facets per cell is always included as cell data.
    """
    cells = mesh.cells
    verts = mesh.vertices
    bflag = mesh.boundary[mesh.dim - 1]
    bcount = bflag[mesh.cell_entities[mesh.dim - 1]].sum(axis=1)
    lines = []
    lines.append("# vtk DataFile Version 3.0")
    lines.append(field_label or "safefem mesh")
    lines.append("ASCII")
    lines.append("DATASET UNSTRUCTURED_GRID")
    lines.append(f"POINTS {verts.shape[0]} double")
    for p in verts:
        x, y = p[0], p[1]
        z = p[2] if mesh.dim == 3 else 0.0
        lines.append(f"{x:.16g} {y:.16g} {z:.16g}")
    npc = mesh.dim + 1
    lines.append(f"CELLS {cells.shape[0]} {cells.shape[0] * (npc + 1)}")
    for c in cells:
        lines.append(" ".join([str(npc)] + [str(v) for v in c]))
    lines.append(f"CELL_TYPES {cells.shape[0]}")
    ctype = 5 if mesh.dim == 2 else 10
    lines.extend([str(ctype)] * cells.shape[0])
    lines.append(f"CELL_DATA {cells.shape[0]}")
    lines.append("SCALARS boundary_facets int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(int(b)) for b in bcount)
    for name, data in (cell_data or {}).items():
        data = np.asarray(data)
        if data.ndim == 1:
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.16g}" for v in data)
        else:
            lines.append(f"VECTORS {name} double")
            for row in data:
                x, y = row[0], row[1]
                z = row[2] if data.shape[1] == 3 else 0.0
                lines.append(f"{x:.16g} {y:.16g} {z:.16g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
