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

import numpy as np

from .mesh import local_subsimplices
from .quadrature import simplex_rules
from .whitney import local_incidence

# Rows and table windows whose spread is at most this take the series,
# which handles clustered and coincident points; wider windows take the
# recursion, which is well conditioned there.
_SERIES_SPREAD = 4.0

# Series terms K.  About the midpoint c of a window of l + 1 points every
# x_i = z_i - c has |x_i| <= 2, so |h_k(x)| <= C(k+l, l) 2^k and the k-th
# term is at most 2^k / (k! l!), while the sum exp[x] is at least
# e^-2 / l!.  The relative tail after K terms is therefore at most
# e^2 sum_{k>=K} 2^k/k! < e^2 (2^K/K!) (K+1)/(K-1), below 2^-56 from K = 26.
_SERIES_TERMS = 26

_LIMIT_GUARD = 1e14


def _dd_exp_series(win, c):
    """exp[x_0..x_l] of the rows of ``win`` (N, l+1), each of spread at
    most ``_SERIES_SPREAD``: e^c sum_k h_k(x - c) / (k + l)! about the
    midpoint ``c`` (N,) of the row, with the complete homogeneous
    symmetric polynomials h_k (McCurdy, Ng & Parlett, Math. Comp. 43,
    1984)."""
    x = np.ascontiguousarray((win - c[:, None]).T)
    l = len(x) - 1
    # h[j] holds h_k(x_0..x_j); each order adds one variable at a time
    h = np.ones_like(x)
    terms = np.empty((_SERIES_TERMS, len(c)))
    terms[0] = 1.0
    for k in range(1, _SERIES_TERMS):
        h[0] *= x[0]
        for j in range(1, l + 1):
            h[j] = h[j - 1] + x[j] * h[j]
        terms[k] = h[l]
    # l! sum_k h_k / (k+l)!, nested from the tail: where the points have
    # both signs the terms alternate, and a forward sum of them lost up to
    # 2.5 ulp on the worst windows, against 1.2 ulp nested
    total = terms[-1]
    for k in range(_SERIES_TERMS - 2, -1, -1):
        total = terms[k] + total / (k + l + 1)
    return np.exp(c) * total / math.factorial(l)


def _dd_exp_table(z):
    """exp[z_0..z_m] of the sorted rows of ``z`` (N, m+1) whose spread
    exceeds ``_SERIES_SPREAD``, by one Newton table along each row.

    A far window takes the recursion from its two children.  A near
    window takes the series, but only where a parent uses its value;
    below a near window nothing is read again, so those windows stay 0.
    """
    col = np.exp(z)
    m = z.shape[-1] - 1
    for l in range(1, m + 1):
        win = np.lib.stride_tricks.sliding_window_view(z, l + 1, axis=-1)
        spread = win[..., -1] - win[..., 0]
        far = spread > _SERIES_SPREAD
        col = np.divide(
            col[:, 1:] - col[:, :-1], spread, out=np.zeros_like(spread), where=far
        )
        if l < m:
            # window i has parents i - 1 and i one level up
            up = np.pad(z[:, l + 1:] - z[:, :-l - 1] > _SERIES_SPREAD, ((0, 0), (1, 1)))
            need = ~far & (up[:, :-1] | up[:, 1:])
            near = win[need]
            col[need] = _dd_exp_series(near, 0.5 * (near[:, 0] + near[:, -1]))
    return col[:, 0]


def _dd_exp(w):
    """Divided differences exp[w_0..w_m] of the rows of ``w`` (..., m+1),
    returned as (mu, d) with exp[w] = e^mu d and d in (0, 1/m!].

    Each row is shifted by its largest entry mu.  A row whose spread is
    at most ``_SERIES_SPREAD`` takes one series; only the others are
    sorted and go through the Newton table.
    """
    mu = np.max(w, axis=-1)
    z = (w - mu[..., None]).reshape(-1, w.shape[-1])
    d = np.empty(len(z))
    lo = np.min(z, axis=-1)
    top = lo >= -_SERIES_SPREAD
    d[top] = _dd_exp_series(z[top], 0.5 * lo[top])
    if not np.all(top):
        d[~top] = _dd_exp_table(np.sort(z[~top], axis=-1))
    return mu, d.reshape(mu.shape)


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


def averaged_coefficients(geo, alpha, beta, degree):
    """Kernel parameters (alpha_bar, beta_bar) of every cell of ``geo`` (a
    MeshGeometry), shaped (ncells,) and (ncells, n).

    ``alpha_bar`` is the quadrature mean of the diffusion over the cell
    and ``beta_bar = alpha_bar * theta_bar``, with the fitted drift
    direction ``theta_bar = beta(x_c) / alpha(x_c)``.  A cell with
    ``alpha(x_c) = 0`` is in the vanishing-diffusion limit: ``alpha_bar``
    is 0 and ``beta_bar`` the barycentric drift itself.  ``alpha`` is a
    nonnegative constant or vectorized callable; ``beta`` returns a
    length-n vector per point.  Raises ValueError naming the first cell
    where alpha is negative or not finite at the barycenter, or positive
    there with a mean that is not positive and finite."""
    xc = geo.barycenter
    alpha_c = _eval_at(alpha, xc)
    fitted = alpha_c > 0
    alpha_bar = alpha_c
    if callable(alpha):
        pts, wts = simplex_rules(geo.vertices, degree)
        alpha_bar = np.vecdot(_eval_at(alpha, pts), wts) / geo.volume
    alpha_bar = np.where(fitted, alpha_bar, 0.0)
    ok = (alpha_c == 0) | ((alpha_bar > 0) & np.isfinite(alpha_bar) & np.isfinite(alpha_c))
    bad = np.nonzero(~ok)[0]
    if bad.size:
        raise ValueError(
            f"alpha is negative, not finite or of nonpositive mean on cell "
            f"{geo.cell_ids[bad[0]]}"
        )
    # beta_bar = alpha_bar * theta_bar, and beta(x_c) itself where alpha vanishes
    beta_c = _eval_at(beta, xc)
    theta = np.divide(beta_c, alpha_c[:, None], out=np.array(beta_c), where=fitted[:, None])
    return alpha_bar, np.where(fitted, alpha_bar, 1.0)[:, None] * theta


def local_exp_operators(geom, k, theta_bar):
    """Exponential-fitting operators of one cell, ``geom`` a MeshGeometry
    row without the cell axis: the diagonal interpolation inverses H^k
    and H^{k+1} and the conjugated difference operator
    J^k = H^{k+1} D^k diag(averages_k), returned as (h_k, h_k1, j_k).

    ``j_k`` is evaluated from shifted averages, entity pair by entity
    pair, so it stays finite for arbitrarily strong drift; the raw
    diagonals ``h_k`` can overflow for extreme exponents.
    """
    n = geom.vertices.shape[-1]
    if not 0 <= k < n:
        raise ValueError(f"J^{k} needs k < dimension {n}")
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
    return hk, hk1, J

