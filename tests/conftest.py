"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from safefem.exponential import _bernoulli
from safefem.mesh import (
    _build_complex,
    build_unit_cube_mesh,
    build_unit_square_mesh,
    local_subsimplices,
)
from safefem.quadrature import simplex_measures


def bernoulli1(eps, s):
    """Edge kernel B_1 at one point; eps = 0 selects the upwind limit."""
    return float(_bernoulli(eps, (s,)))


def bernoulli2(eps, s, t):
    """Face kernel B_2 at one point."""
    return float(_bernoulli(eps, (s, t)))


def bernoulli3(eps, s, t, r):
    """Cell kernel B_3 (3d) at one point."""
    return float(_bernoulli(eps, (s, t, r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_simplex(rng, dim, scale=1.0, min_measure=2e-2):
    """Random non-degenerate simplex, vertices (dim+1, dim)."""
    while True:
        verts = rng.uniform(-scale, scale, size=(dim + 1, dim))
        if simplex_measures(verts[None])[0] > min_measure * scale**dim:
            return verts


def single_cell_mesh(vertices):
    """Mesh consisting of one simplex, vertex order as given."""
    vertices = np.asarray(vertices, dtype=float)
    dim = vertices.shape[1]
    cells = np.arange(dim + 1, dtype=np.int64)[None, :]
    return _build_complex(dim, vertices, cells)


def facet_normals(geo):
    """Unit sorted-order facet normals (..., n+1, n) and facet measures
    (..., n+1) of a MeshGeometry block or one cell of it, from its
    vertices: in 2d the edge tangent turned clockwise, in 3d the cross
    product of the two edges from the facet's lowest vertex."""
    v = geo.vertices
    n = v.shape[-1]
    facets = np.array(local_subsimplices(n, n - 1))
    t = v[..., facets[:, 1:], :] - v[..., facets[:, :1], :]
    if n == 2:
        normal = np.stack([t[..., 0, 1], -t[..., 0, 0]], axis=-1)
        measures = np.linalg.norm(normal, axis=-1)
    else:
        normal = np.cross(t[..., 0, :], t[..., 1, :])
        measures = 0.5 * np.linalg.norm(normal, axis=-1)
    return normal / np.linalg.norm(normal, axis=-1, keepdims=True), measures


def random_cell_mesh(rng, dim, scale=1.0):
    return single_cell_mesh(random_simplex(rng, dim, scale))


def jittered_mesh(dim, seed, n=None, share=0.2):
    """Structured mesh with interior vertices moved by up to ``share`` h,
    so no cell is a right simplex.  By default n = 6 in 2d and n = 4 in
    3d; the cube mesh (n = 4, 384 cells at 64 quadrature points) spans
    several cell blocks."""
    if n is None:
        n = 6 if dim == 2 else 4
    mesh = build_unit_square_mesh(n) if dim == 2 else build_unit_cube_mesh(n)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-share / n, share / n, size=mesh.vertices.shape)
    mesh.vertices = mesh.vertices + shift * (~mesh.boundary[0])[:, None]
    return mesh
