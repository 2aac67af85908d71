"""Exponential averages over simplices and Bernoulli-type kernels.

Everything here reduces to divided differences of ``exp``: the average of
``exp(w(x))`` over an m-simplex, with ``w`` affine taking values ``w_i``
at the vertices, equals ``m! exp[w_0, ..., w_m]`` (Hermite-Genocchi).
The kernels

    B_1(eps; s)       = eps / avg_{[0,1]}        exp((s x)/eps)
    B_2(eps; s, t)    = eps * avg_edge / avg_tri  of exp((s x + t y)/eps)
    B_3(eps; s, t, r) = eps * avg_tri / avg_tet   of the analogous form

(the numerator runs over the sub-simplex spanned by all arguments but the
last) are evaluated as ratios of divided differences: on a clustered row
both come from one series, and a wider row is its upwind limit plus a
nonnegative correction from one Newton table on its exponents shifted by
the largest one, which keeps it finite for argument-to-eps ratios far
beyond 1e6; at eps = 0 the upwind limits are exact.
"""

import functools
import math

import numpy as np

from .mesh import local_subsimplices
from .quadrature import cell_rules
from .whitney import local_incidence

# Rows and table windows whose spread is at most this take the series,
# which handles clustered and coincident points; wider windows take the
# recursion, which is well conditioned there.
_SERIES_SPREAD = 4.0

# Series terms K by class of half-spread r.  About the midpoint c of a
# window of l + 1 points every x_i = z_i - c has |x_i| <= r, so
# |h_k(x)| <= C(k+l, l) r^k and the k-th term is at most r^k / (k! l!),
# while the sum exp[x] is at least e^-r / l!.  The relative tail after K
# terms is therefore at most e^r sum_{k>=K} r^k/k!
# < e^r (r^K/K!) (K+1)/(K+1-r); each K is the least that takes this
# below 2^-56 at the r of its class, the last r being half of
# _SERIES_SPREAD.
_SERIES_HALF = np.array([0.25, 0.5, 1.0, 2.0])
_SERIES_TERMS = np.array([13, 16, 20, 26])

_LIMIT_GUARD = 1e14


def _rowwise(ufunc, a, *initial):
    """The binary ``ufunc`` folded over the last axis of ``a``, one column
    at a time: numpy reduces a short last axis many times slower."""
    return functools.reduce(ufunc, np.moveaxis(a, -1, 0), *initial)


def _series(x, half, prefix=False):
    """S_l = l! sum_k h_k(x_0..x_l) / (k+l)! of every column of ``x``
    (l+1, N), whose points lie within ``half`` (N,) of 0, with the
    complete homogeneous symmetric polynomials h_k (McCurdy, Ng &
    Parlett, Math. Comp. 43, 1984); exp[x] = S_l / l!.  With ``prefix``
    also S_{l-1} of x_0..x_{l-1}, from the same recursion, which meets
    the same tail bound; returned as (S_{l-1}, S_l).

    A column takes the terms of its class of ``half``.  The columns run
    in order of decreasing terms, so step k works on a leading slice, and
    a column's value does not depend on the batch it is evaluated in.
    """
    terms = _SERIES_TERMS.take(np.searchsorted(_SERIES_HALF, half))
    order = np.argsort(-terms, kind="stable")
    x = x.take(order, axis=1)
    l = len(x) - 1
    K = int(terms.max(initial=0))
    # live[k]: the number of columns with more than k terms
    live = np.searchsorted(-terms.take(order), -np.arange(K)).tolist()
    # h[k, i] holds h_k(x_0..x_i); each order adds one variable at a time
    h = np.empty((K, l + 1, len(half)))
    h[:1] = 1.0
    for k in range(1, K):
        n = live[k]
        prev, cur = h[k - 1, :, :n], h[k, :, :n]
        np.multiply(prev[0], x[0, :n], out=cur[0])
        for i in range(1, l + 1):
            np.multiply(x[i, :n], prev[i], out=cur[i])
            np.add(cur[i], cur[i - 1], out=cur[i])
    # sum_k h_k m! / (k+m)! over the first m + 1 points, nested from the
    # tail: where the points have both signs the terms alternate, and a
    # forward sum of them lost up to 2.5 ulp on the worst windows, against
    # 1.2 ulp nested
    rows = [l - 1, l] if prefix else [l]
    total = np.zeros((len(rows), len(half)))
    for t, m in zip(total, rows):
        for k in range(K - 1, -1, -1):
            tk = t[:live[k]]
            np.divide(tk, k + m + 1, out=tk)
            np.add(tk, h[k, m, :live[k]], out=tk)
    sums = np.empty_like(total)
    sums[:, order] = total
    return tuple(sums) if prefix else sums[0]


def _dd_exp_series(win, c, half):
    """exp[x_0..x_l] of the rows of ``win`` (N, l+1), each of spread at
    most ``_SERIES_SPREAD``, by the series about the midpoint ``c`` (N,)
    of the row, whose half-spread is ``half``."""
    x = (win - c[:, None]).T
    return np.exp(c) * _series(x, half) / math.factorial(len(x) - 1)


def _dd_exp_table(z):
    """exp[z_0..z_m] of the sorted rows of ``z`` (N, m+1) whose spread
    exceeds ``_SERIES_SPREAD``, by one Newton table along each row;
    returned with the left child exp[z_0..z_{m-1}] of that top window,
    which the table always evaluates, as the top window is far.

    A far window takes the recursion from its two children.  A near
    window takes the series, but only where a parent uses its value;
    below a near window nothing is read again, so those windows stay 0.
    """
    col = np.exp(z)
    m = z.shape[-1] - 1
    for l in range(1, m + 1):
        left = col[:, 0]
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
            col[need] = _dd_exp_series(
                near, 0.5 * (near[:, 0] + near[:, -1]), 0.5 * (near[:, -1] - near[:, 0])
            )
    return col[:, 0], left


def _dd_exp(w):
    """Divided differences exp[w_0..w_m] of the rows of ``w`` (..., m+1),
    returned as (mu, d) with exp[w] = e^mu d and d in (0, 1/m!].

    Each row is shifted by its largest entry mu.  A row whose spread is
    at most ``_SERIES_SPREAD`` takes one series; only the others are
    sorted and go through the Newton table.
    """
    mu = _rowwise(np.maximum, w)
    z = (w - mu[..., None]).reshape(-1, w.shape[-1])
    d = np.empty(len(z))
    lo = _rowwise(np.minimum, z)
    top = lo >= -_SERIES_SPREAD
    c = 0.5 * lo[top]
    d[top] = _dd_exp_series(np.compress(top, z, axis=0), c, -c)
    if not np.all(top):
        d[~top] = _dd_exp_table(np.sort(np.compress(~top, z, axis=0), axis=-1))[0]
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

    A row whose exponents [0, args/eps] span at most ``_SERIES_SPREAD``
    takes one series for numerator and denominator; a wider row is its
    upwind limit plus a correction from one Newton table on its exponents
    shifted by the largest one.
    """
    args = np.asarray(args, dtype=float)
    shape, j = args.shape[:-1], args.shape[-1]
    args = args.reshape(-1, j)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), shape).reshape(-1)
    if not np.all(eps >= 0):
        raise ValueError("eps must be nonnegative")
    if not np.all(np.isfinite(args)):
        bad = args[~np.all(np.isfinite(args), axis=1)][0]
        raise ValueError(f"non-finite kernel arguments {bad}")
    out = (_rowwise(np.maximum, args, 0.0) - args[:, -1]) / j
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ys = args / eps[:, None]
        hi = _rowwise(np.maximum, ys, 0.0)
        lo = _rowwise(np.minimum, ys, 0.0)
        near = hi - lo <= _SERIES_SPREAD
        # past the guard the relative distance to the limit is below resolution
        wide = ~near & (hi <= _LIMIT_GUARD) & (lo >= -_LIMIT_GUARD)
    if np.any(wide):
        # S = [0, y_1..y_j], m = max S: (a - b) exp[S] = exp[S \ b] -
        # exp[S \ a] (McCurdy, Ng & Parlett) makes the numerator exp[S \ y_j]
        # = exp[S \ m] + (m - y_j) exp[S], so B_j is the upwind limit
        # eps (m - y_j)/j in ``out`` plus eps exp[S \ m] / (j exp[S]), where
        # exp[S \ m] is the left child of the table's top on sorted S - m
        z = np.zeros((np.count_nonzero(wide), j + 1))
        z[:, 1:] = np.compress(wide, ys, axis=0)
        z -= hi[wide, None]
        den, num = _dd_exp_table(np.sort(z, axis=-1))
        out[wide] += eps[wide] * num / (j * den)
    if np.any(near):
        # one series about the midpoint c of the denominator row
        # [0, y_1..y_j], whose prefix [0, y_1..y_{j-1}] is the numerator
        # row; e^c and the factorials cancel in the ratio of the averages
        # (j-1)! exp[num] and j! exp[den]
        hi, lo = hi[near], lo[near]
        c = 0.5 * (hi + lo)
        x = np.empty((j + 1, len(c)))
        x[0] = -c
        np.subtract(np.compress(near, ys, axis=0).T, c, out=x[1:])
        num, den = _series(x, 0.5 * (hi - lo), prefix=True)
        out[near] = eps[near] * num / den
    return out.reshape(shape)


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


def averaged_coefficients(geo, alpha, beta):
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
    there with a mean that is not positive and finite, and the first cell
    where beta is not finite at the barycenter."""
    xc = geo.barycenter
    alpha_c = _eval_at(alpha, xc)
    fitted = alpha_c > 0
    alpha_bar = alpha_c
    if callable(alpha):
        pts, wts = cell_rules(geo)
        alpha_bar = np.vecdot(_eval_at(alpha, pts), wts) / geo.volume
    alpha_bar = np.where(fitted, alpha_bar, 0.0)
    ok = (alpha_c == 0) | ((alpha_bar > 0) & np.isfinite(alpha_bar) & np.isfinite(alpha_c))
    bad = np.nonzero(~ok)[0]
    if bad.size:
        raise ValueError(
            f"alpha is negative, not finite or of nonpositive mean on cell "
            f"{geo.cell_ids[bad[0]]}"
        )
    beta_c = _eval_at(beta, xc)
    bad = np.nonzero(~np.all(np.isfinite(beta_c), axis=1))[0]
    if bad.size:
        raise ValueError(f"beta is not finite on cell {geo.cell_ids[bad[0]]}")
    # beta_bar = alpha_bar * theta_bar, and beta(x_c) itself where alpha vanishes
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

