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

# Beyond this spread the sorted recursion is well conditioned; below it the
# symmetric series handles clustered and coincident points.
_SERIES_SPREAD = 4.0

_LIMIT_GUARD = 1e14


def _dd_exp_series(ys):
    """Divided difference of exp at clustered points, via the expansion
    exp[y_0..y_m] = e^mu sum_k h_k(y - mu) / (k + m)! with complete
    homogeneous symmetric polynomials h_k."""
    m = len(ys) - 1
    mu = math.fsum(ys) / (m + 1)
    z = [y - mu for y in ys]
    # row[j] holds h_k(z_0..z_j); the recurrence adds one variable at a time
    row = [1.0] * (m + 1)
    kfact = math.factorial(m)
    total = 1.0 / kfact
    small = 0
    for k in range(1, 80):
        new = [row[0] * z[0]]
        for j in range(1, m + 1):
            new.append(new[j - 1] + z[j] * row[j])
        row = new
        kfact *= k + m
        term = row[m] / kfact
        total += term
        if abs(term) <= 1e-18 * abs(total):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return math.exp(mu) * total


def _dd_exp(ys):
    """Divided difference of exp at sorted points (expected <= 0)."""
    m = len(ys) - 1
    if m == 0:
        return math.exp(ys[0])
    if m == 1:
        d = ys[1] - ys[0]
        if d == 0.0:
            return math.exp(ys[0])
        if d <= 30.0:
            return math.exp(ys[0]) * math.expm1(d) / d
        return (math.exp(ys[1]) - math.exp(ys[0])) / d
    spread = ys[-1] - ys[0]
    if spread <= _SERIES_SPREAD:
        return _dd_exp_series(ys)
    return (_dd_exp(ys[1:]) - _dd_exp(ys[:-1])) / spread


def _scaled_exp_average(exponents):
    """Average of exp over a simplex with the given vertex exponents,
    returned as (mu, rho) with average = exp(mu) * rho and rho in (0, 1]."""
    m = len(exponents) - 1
    mu = max(exponents)
    shifted = sorted(w - mu for w in exponents)
    return mu, math.factorial(m) * _dd_exp(shifted)


def exp_average(vertices, theta):
    """Average of exp(theta . x) over the simplex with the given vertices.

    Internally shifted by the largest vertex exponent, so exponent spans
    of 1e6 and beyond stay finite; the result itself can of course
    overflow when the true average does.
    """
    verts = np.asarray(vertices, dtype=float)
    w = verts @ np.asarray(theta, dtype=float)
    mu, rho = _scaled_exp_average(w.tolist())
    return math.exp(mu) * rho


def harmonic_average(vertices, alpha_bar, theta):
    """Harmonic-type coefficient average alpha / avg(exp(theta . x))."""
    if alpha_bar <= 0:
        raise ValueError("alpha_bar must be positive")
    return alpha_bar / exp_average(vertices, theta)


def _bernoulli_limit(args):
    """Upwind limits of the kernels at eps = 0."""
    j = len(args)
    m = max(args)
    if j == 1:
        (s,) = args
        return -s + 0.0 if s <= 0 else 0.0
    if j == 2:
        s, t = args
        if m <= 0:
            return -t / 2.0 + 0.0
        return (s - t) / 2.0 if s == m else 0.0
    s, t, r = args
    if m <= 0:
        return -r / 3.0 + 0.0
    if s == m:
        return (s - r) / 3.0
    if t == m:
        return (t - r) / 3.0
    return 0.0


def _bernoulli_value(eps, args):
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if not all(math.isfinite(a) for a in args):
        raise ValueError(f"non-finite kernel arguments {args}")
    if eps == 0.0:
        return _bernoulli_limit(args)
    ys = tuple(a / eps for a in args)
    if not all(math.isfinite(y) for y in ys) or max(abs(y) for y in ys) > _LIMIT_GUARD:
        # relative distance to the limit is below resolution here
        return _bernoulli_limit(args)
    num = (0.0,) + ys[:-1]
    den = (0.0,) + ys
    mu_n, rho_n = _scaled_exp_average(num)
    mu_d, rho_d = _scaled_exp_average(den)
    # mu_n <= mu_d since the numerator runs over a sub-simplex, so the
    # exponential factor never overflows and vanishes exactly where the
    # limit value is zero
    return eps * math.exp(mu_n - mu_d) * rho_n / rho_d


def bernoulli1(eps, s):
    """Edge kernel; eps = 0 selects the upwind limit."""
    return _bernoulli_value(eps, (s,))


def bernoulli2(eps, s, t):
    """Face kernel, symmetric in nothing but stable everywhere."""
    return _bernoulli_value(eps, (s, t))


def bernoulli3(eps, s, t, r):
    """Cell kernel (3d), symmetric in its first two arguments."""
    return _bernoulli_value(eps, (s, t, r))


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
    def scaled(subs):
        out = []
        for s in subs:
            out.append(_scaled_exp_average([w[i] for i in s]))
        return out
    lo = scaled(local_subsimplices(n, k))
    hi = scaled(local_subsimplices(n, k + 1))
    D = local_incidence(geom, k)
    J = np.zeros(D.shape)
    for r in range(D.shape[0]):
        mu_r, rho_r = hi[r]
        for c in range(D.shape[1]):
            if D[r, c]:
                mu_c, rho_c = lo[c]
                J[r, c] = D[r, c] * math.exp(mu_c - mu_r) * rho_c / rho_r
    hk = np.array([_inverse_average(mu, rho) for mu, rho in lo])
    hk1 = np.array([_inverse_average(mu, rho) for mu, rho in hi])
    return LocalExpOperators(cell=cell_id, k=k, h_k=hk, h_k1=hk1, j_k=J)


def _inverse_average(mu, rho):
    """1 / (e^mu rho), saturating to inf when not representable."""
    try:
        return math.exp(-mu) / rho
    except OverflowError:
        return math.inf
