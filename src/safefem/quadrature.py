"""Gauss quadrature on simplices of dimension 0 to 3.

Rules of a requested polynomial degree are built from tensorized
Gauss-Legendre points collapsed onto the simplex (Duffy transform), so any
degree is available.  Weights always sum to the simplex measure.
"""

import math
from functools import lru_cache

import numpy as np

# Polynomial degree of the rules on every cell and boundary facet of a mesh
QUAD_DEGREE = 4


def gauss_legendre_01(npts):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def reference_simplex_rule(dim, degree):
    """Quadrature rule on the unit reference simplex.

    Parameters
    ----------
    dim : int
        Simplex dimension, 0 to 3.
    degree : int
        Polynomial degree integrated exactly.

    Returns
    -------
    points : (npts, dim) ndarray
    weights : (npts,) ndarray, summing to 1/dim!.
    """
    if dim < 0 or dim > 3:
        raise ValueError(f"unsupported simplex dimension {dim}")
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    if dim == 0:
        return np.zeros((1, 0)), np.ones(1)
    if dim == 1:
        n1 = max(1, math.ceil((degree + 1) / 2))
        x, w = gauss_legendre_01(n1)
        return x[:, None], w
    if dim == 2:
        # Duffy: x = u(1-v), y = v, Jacobian (1-v).  Degree-d polynomials
        # become degree d+1 in v, so one extra point covers the Jacobian.
        n1 = max(1, math.ceil((degree + 2) / 2))
        u, wu = gauss_legendre_01(n1)
        v, wv = gauss_legendre_01(n1)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        x = uu * (1.0 - vv)
        y = vv
        w = np.outer(wu, wv) * (1.0 - vv)
        return np.column_stack([x.ravel(), y.ravel()]), w.ravel()
    # dim == 3: x = u(1-v)(1-w), y = v(1-w), z = w, Jacobian (1-v)(1-w)^2.
    n1 = max(1, math.ceil((degree + 3) / 2))
    u, wu = gauss_legendre_01(n1)
    pts = []
    wts = []
    for iu in range(n1):
        for iv in range(n1):
            for iw in range(n1):
                uu, vv, ww = u[iu], u[iv], u[iw]
                pts.append((uu * (1 - vv) * (1 - ww), vv * (1 - ww), ww))
                wts.append(wu[iu] * wu[iv] * wu[iw] * (1 - vv) * (1 - ww) ** 2)
    return np.array(pts), np.array(wts)


@lru_cache(maxsize=None)
def reference_barycentric(dim):
    """Barycentric coordinates (npts, dim+1) of the points of
    ``reference_simplex_rule(dim, QUAD_DEGREE)``: (1 - sum xi, xi_1, ...,
    xi_dim).  They are also the barycentric coordinates of the points that
    ``cell_rules`` maps into any cell."""
    pts, _ = reference_simplex_rule(dim, QUAD_DEGREE)
    return np.column_stack([1.0 - pts.sum(axis=1), pts])


def simplex_measures(vertices):
    """Measures of stacked simplices, ``vertices`` an (N, m+1, n) array."""
    verts = np.asarray(vertices, dtype=float)
    m = verts.shape[1] - 1
    if m == 0:
        return np.ones(verts.shape[0])
    edges = verts[:, 1:] - verts[:, :1]
    gram = edges @ edges.transpose(0, 2, 1)
    return np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / math.factorial(m)


def simplex_rules(vertices, degree):
    """Quadrature points and weights on stacked physical simplices.

    ``vertices`` is an (N, m+1, n) array with m <= n.  Returns points
    (N, npts, n) and weights (N, npts); each row of weights sums to the
    m-dimensional measure of its simplex.
    """
    verts = np.asarray(vertices, dtype=float)
    return _mapped_rules(verts, degree, simplex_measures(verts))


def cell_rules(geo):
    """``simplex_rules`` of degree ``QUAD_DEGREE`` on the cells of ``geo``
    (a MeshGeometry), with the weights scaled by its cell volumes."""
    return _mapped_rules(geo.vertices, QUAD_DEGREE, geo.volume)


def _mapped_rules(verts, degree, measures):
    m = verts.shape[1] - 1
    ref_pts, ref_wts = reference_simplex_rule(m, degree)
    edges = verts[:, 1:] - verts[:, :1]
    pts = verts[:, :1] + np.tensordot(edges, ref_pts, axes=(1, 1)).transpose(0, 2, 1)
    return pts, ref_wts * (math.factorial(m) * measures)[:, None]
