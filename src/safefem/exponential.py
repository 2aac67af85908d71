"""Exponential averages over simplices and Bernoulli-type kernels.

Everything here reduces to divided differences of ``exp``: the average of
``exp(w(x))`` over an m-simplex, with ``w`` affine taking values ``w_i``
at the vertices, equals ``m! exp[w_0, ..., w_m]`` (Hermite-Genocchi).
The kernels

    B_1(eps; s)       = eps / avg_{[0,1]}        exp((s x)/eps)
    B_2(eps; s, t)    = eps * avg_edge / avg_tri  of exp((s x + t y)/eps)
    B_3(eps; s, t, r) = eps * avg_tri / avg_tet   of the analogous form

(the numerator runs over the sub-simplex spanned by all arguments but the
last) are evaluated as ratios of shifted divided differences, which keeps
them finite for argument-to-eps ratios far beyond 1e6 and reproduces the
upwind limits at eps = 0 exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mesh import _geometry, cell_geometry, local_subsimplices
from .quadrature import simplex_rules
from .whitney import local_incidence

# Windows of the divided-difference table whose spread is at most this
# take the series, which handles clustered and coincident points; wider
# windows take the recursion, which is well conditioned there.
_SERIES_SPREAD = 4.0

# Series terms: the points of a series window lie within 4 of their mean,
# so after this many terms the tail is below 1e-18 of the sum.
_SERIES_TERMS = 40

_LIMIT_GUARD = 1e14


def _dd_exp(w):
    """Divided differences exp[w_0..w_m] of the rows of ``w`` (..., m+1),
    returned as (mu, d) with exp[w] = e^mu d and d in (0, 1/m!].

    Each row is shifted by its largest entry mu and sorted, and one Newton
    table is built along it.  A window whose spread is at most
    ``_SERIES_SPREAD`` takes the series exp[z] = e^c sum_k h_k(z - c) /
    (k + l)! about the mean c of its l + 1 points, with the complete
    homogeneous symmetric polynomials h_k; the others take the recursion.
    """
    mu = np.max(w, axis=-1)
    z = np.sort(w - mu[..., None], axis=-1)
    col = np.exp(z)
    for l in range(1, z.shape[-1]):
        win = np.lib.stride_tricks.sliding_window_view(z, l + 1, axis=-1)
        spread = win[..., -1] - win[..., 0]
        near = spread <= _SERIES_SPREAD
        diff = col[..., 1:] - col[..., :-1]
        col = np.divide(diff, spread, out=np.empty_like(diff), where=~near)
        c = np.mean(win[near], axis=-1)
        # h[j] holds h_k(x_0..x_j); each term adds one variable at a time
        x = (win[near] - c[:, None]).T
        h = np.ones_like(x)
        fact = math.factorial(l)
        total = np.full(len(c), 1.0 / fact)
        for k in range(1, _SERIES_TERMS):
            h[0] *= x[0]
            for j in range(1, l + 1):
                h[j] = h[j - 1] + x[j] * h[j]
            fact *= k + l
            total += h[l] / fact
        col[near] = np.exp(c) * total
    return mu, col[..., 0]


def exp_average(vertices, theta):
    """Average of exp(theta . x) over the simplex with the given vertices.

    Internally shifted by the largest vertex exponent, so exponent spans
    of 1e6 and beyond stay finite; the result itself can of course
    overflow when the true average does.
    """
    verts = np.asarray(vertices, dtype=float)
    w = verts @ np.asarray(theta, dtype=float)
    mu, d = _dd_exp(w)
    return math.exp(mu) * (math.factorial(len(w) - 1) * float(d))


def harmonic_average(vertices, alpha_bar, theta):
    """Harmonic-type coefficient average alpha / avg(exp(theta . x))."""
    if alpha_bar <= 0:
        raise ValueError("alpha_bar must be positive")
    return alpha_bar / exp_average(vertices, theta)


def _bernoulli(eps, args):
    """The kernel B_j, j = ``args.shape[-1]``, of every row of ``args``
    (..., j), with ``eps`` broadcast to ``args.shape[:-1]``.

    eps = 0, and argument-to-eps ratios past ``_LIMIT_GUARD``, give the
    upwind limit (max(0, args) - last)/j: -last/j when every argument is
    nonpositive, (max - last)/j when a leading argument attains the max,
    else 0.  Raises ValueError on negative or NaN eps and on non-finite
    arguments.
    """
    args = np.asarray(args, dtype=float)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), args.shape[:-1])
    if not np.all(eps >= 0):
        raise ValueError("eps must be nonnegative")
    finite = np.all(np.isfinite(args), axis=-1)
    if not np.all(finite):
        raise ValueError(f"non-finite kernel arguments {args[~finite][0]}")
    j = args.shape[-1]
    out = np.array((np.max(args, axis=-1, initial=0.0) - args[..., -1]) / j)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ys = args / eps[..., None]
    # past the guard the relative distance to the limit is below resolution
    fit = np.all(np.abs(ys) <= _LIMIT_GUARD, axis=-1)
    ys = ys[fit]
    zero = np.zeros(ys.shape[:-1] + (1,))
    mu_n, d_n = _dd_exp(np.concatenate([zero, ys[:, :-1]], axis=1))
    mu_d, d_d = _dd_exp(np.concatenate([zero, ys], axis=1))
    # mu_n <= mu_d since the numerator runs over a sub-simplex, so the
    # exponential factor never overflows and vanishes exactly where the
    # limit value is zero; the averages are (j-1)! d_n and j! d_d
    out[fit] = eps[fit] * np.exp(mu_n - mu_d) * d_n / (j * d_d)
    return out


def bernoulli1(eps, s):
    """Edge kernel; eps = 0 selects the upwind limit."""
    return float(_bernoulli(eps, (s,)))


def bernoulli2(eps, s, t):
    """Face kernel, symmetric in nothing but stable everywhere."""
    return float(_bernoulli(eps, (s, t)))


def bernoulli3(eps, s, t, r):
    """Cell kernel (3d), symmetric in its first two arguments."""
    return float(_bernoulli(eps, (s, t, r)))


@dataclass(frozen=True)
class CellCoefficients:
    """Averaged PDE data on one cell.

    ``alpha_bar`` is the quadrature mean of the diffusion over the cell,
    ``theta_bar = beta(x_c) / alpha(x_c)`` the fitted drift direction and
    ``beta_bar = alpha_bar * theta_bar``.  ``theta_bar`` is None in the
    vanishing-diffusion limit ``alpha_bar = 0`` (then ``beta_bar`` is the
    barycentric drift itself); ``gamma`` is carried along for the
    reaction term.
    """

    alpha_bar: float
    theta_bar: np.ndarray | None
    beta_bar: np.ndarray
    gamma: object = None


def _eval_at(coeff, points):
    """A constant or vectorized-callable coefficient at points of shape
    (..., n), shaped (...) for scalar and (..., n) for vector data."""
    flat = points.reshape(-1, points.shape[-1])
    if callable(coeff):
        vals = np.asarray(coeff(flat), dtype=float)
    else:
        arr = np.asarray(coeff, dtype=float)
        vals = np.tile(arr, (len(flat),) + (1,) * arr.ndim)
    return vals.reshape(points.shape[:-1] + vals.shape[1:])


def _averaged_coefficients(geo, alpha, beta, degree):
    """Averaged coefficients of every cell of ``geo`` (a MeshGeometry):
    arrays ``alpha_bar``, ``theta_bar`` and ``beta_bar`` as described in
    CellCoefficients.  Raises ValueError naming the first cell where
    alpha is not positive at the barycenter or in quadrature mean."""
    xc = geo.barycenter
    alpha_c = _eval_at(alpha, xc)
    bad = np.nonzero(~(alpha_c > 0))[0]
    if bad.size:
        raise ValueError(f"alpha <= 0 at barycenter of cell {geo.cell_ids[bad[0]]}")
    if callable(alpha):
        pts, wts = simplex_rules(geo.vertices, degree)
        alpha_bar = np.vecdot(_eval_at(alpha, pts), wts) / geo.volume
        bad = np.nonzero(~(alpha_bar > 0))[0]
        if bad.size:
            raise ValueError(
                f"alpha has nonpositive mean on cell {geo.cell_ids[bad[0]]}"
            )
    else:
        alpha_bar = alpha_c
    theta_bar = _eval_at(beta, xc) / alpha_c[:, None]
    return alpha_bar, theta_bar, alpha_bar[:, None] * theta_bar


def cell_coefficients(mesh, cell_id, alpha, beta, gamma=None, degree=4):
    """Averaged coefficients of one cell.

    ``alpha`` must be positive at the barycenter and in quadrature mean;
    ``beta`` returns a length-dim vector per point.
    """
    geo = _geometry(mesh, [cell_id])
    alpha_bar, theta_bar, beta_bar = _averaged_coefficients(geo, alpha, beta, degree)
    return CellCoefficients(
        alpha_bar=float(alpha_bar[0]),
        theta_bar=theta_bar[0],
        beta_bar=beta_bar[0],
        gamma=gamma,
    )


@dataclass(frozen=True)
class LocalExpOperators:
    """Diagonal interpolation inverses H^k, H^{k+1} and the conjugated
    difference operator J^k = H^{k+1} D^k diag(averages_k) of one cell."""

    cell: int
    k: int
    h_k: np.ndarray
    h_k1: np.ndarray
    j_k: np.ndarray


def local_exp_operators(mesh, cell_id, k, theta_bar):
    """Exponential-fitting operators of one cell.

    ``j_k`` is evaluated from shifted averages, entity pair by entity
    pair, so it stays finite for arbitrarily strong drift; the raw
    diagonals ``h_k`` can overflow for extreme exponents.
    """
    n = mesh.dim
    if not 0 <= k < n:
        raise ValueError(f"J^{k} needs k < dimension {n}")
    geom = cell_geometry(mesh, cell_id)
    w = geom.vertices @ np.asarray(theta_bar, dtype=float)
    mu_lo, d_lo = _dd_exp(w[np.array(local_subsimplices(n, k))])
    mu_hi, d_hi = _dd_exp(w[np.array(local_subsimplices(n, k + 1))])
    rho_lo = math.factorial(k) * d_lo
    rho_hi = math.factorial(k + 1) * d_hi
    D = local_incidence(geom, k)
    J = np.zeros(D.shape)
    r, c = np.nonzero(D)
    J[r, c] = D[r, c] * np.exp(mu_lo[c] - mu_hi[r]) * rho_lo[c] / rho_hi[r]
    # 1 / (e^mu rho), saturating to inf when not representable
    with np.errstate(over="ignore"):
        hk = np.exp(-mu_lo) / rho_lo
        hk1 = np.exp(-mu_hi) / rho_hi
    return LocalExpOperators(cell=cell_id, k=k, h_k=hk, h_k1=hk1, j_k=J)

