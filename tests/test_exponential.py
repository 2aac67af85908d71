"""Tests for exponential averages and the Bernoulli-type kernels.

Reference values come from two independent oracles:

* nested adaptive quadrature (mpmath) of the defining simplex integrals,
  used at moderate arguments where tanh-sinh converges quickly;
* naive divided differences of exp evaluated in big-float arithmetic with
  adaptive precision, usable over the whole supported argument range.

The production code never sees either route; it uses shifted stable
recurrences in double precision.
"""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from mpmath import exp as mp_exp
from mpmath import expm1, factorial, mpf, quad, workdps

from safefem.exponential import (
    _LIMIT_GUARD,
    _SERIES_SPREAD,
    _bernoulli,
    bernoulli1,
    bernoulli2,
    bernoulli3,
    cell_coefficients,
    exp_average,
    harmonic_average,
    local_exp_operators,
)
from safefem.mesh import build_unit_square_mesh, cell_geometry
from safefem.quadrature import simplex_rule
from safefem.whitney import eval_basis, local_incidence

from conftest import random_cell_mesh, random_simplex, single_cell_mesh

# numerically exact reference points, worked out by hand from the defining
# integral ratios
B1_AT_ONE = 1.0 / (math.e - 1.0)
B2_SYMMETRIC = math.tanh(1.0)  # eps=1, s=t=2
B3_SYMMETRIC = (math.e**2 + 1.0) / (3.0 * (math.e**2 - 1.0))  # eps=0.5, s=t=r=1


def mp_simplex_exp_average(ys):
    """Average of exp over the simplex with vertex exponents ys.

    Naive divided differences in big-float arithmetic; precision adapts to
    the spread so the cancellation of the recursion never runs out of
    digits. Ties are broken by a 1e-16 stagger, far below the comparison
    tolerances used here.
    """
    pts = sorted(mpf(y) for y in ys)
    dps = 120 + int(0.5 * float(pts[-1] - pts[0]))
    with workdps(dps):
        delta = mpf("1e-16")
        pts = [p + k * delta for k, p in enumerate(pts)]

        def dd(zs):
            if len(zs) == 1:
                return mp_exp(zs[0])
            return (dd(zs[1:]) - dd(zs[:-1])) / (zs[-1] - zs[0])

        return factorial(len(pts) - 1) * dd(pts)


def mp_bernoulli(eps, args):
    """Big-float oracle for the kernels, valid over the full range."""
    ys = [mpf(a) / mpf(eps) for a in args]
    num = [mpf(0)] + ys[:-1]
    den = [mpf(0)] + ys
    return mpf(eps) * mp_simplex_exp_average(num) / mp_simplex_exp_average(den)


def quad_bernoulli(eps, args):
    """Adaptive-quadrature oracle from the defining integrals (moderate args).

    The innermost integral of the 3-argument denominator is exact in mp
    arithmetic; every other integral is an mpmath ``quad``.
    """
    e = mpf(eps)
    scaled = [mpf(a) / e for a in args]
    with workdps(30):
        if len(scaled) == 1:
            (s,) = scaled
            num = mpf(1)
            den = quad(lambda x: mp_exp(s * x), [0, 1])
        elif len(scaled) == 2:
            s, t = scaled
            num = quad(lambda x: mp_exp(s * x), [0, 1])
            den = 2 * quad(
                lambda x: quad(lambda y: mp_exp(s * x + t * y), [0, 1 - x]), [0, 1]
            )
        else:
            s, t, r = scaled
            num = 2 * quad(
                lambda x: quad(lambda y: mp_exp(s * x + t * y), [0, 1 - x]), [0, 1]
            )
            # the innermost integral over z in [0, L] in closed form
            def z_integral(x, y):
                L = 1 - x - y
                a = s * x + t * y
                return mp_exp(a) * (expm1(r * L) / r if r != 0 else L)

            den = 6 * quad(
                lambda x: quad(lambda y: z_integral(x, y), [0, 1 - x]), [0, 1]
            )
        return e * num / den


KERNELS = {1: bernoulli1, 2: bernoulli2, 3: bernoulli3}


def kernel_value(eps, args):
    return KERNELS[len(args)](eps, *args)


def rel_to_oracle(value, oracle):
    if abs(oracle) < mpf("1e-290"):
        # both routes underflow; the kernel must report a clean zero
        return 0.0 if abs(value) < 1e-280 else math.inf
    return float(abs(mpf(value) - oracle) / abs(oracle))


def test_frozen_reference_points():
    assert bernoulli1(1.0, 1.0) == pytest.approx(B1_AT_ONE, rel=1e-14)
    assert bernoulli2(1.0, 2.0, 2.0) == pytest.approx(B2_SYMMETRIC, rel=1e-14)
    assert bernoulli3(0.5, 1.0, 1.0, 1.0) == pytest.approx(
        B3_SYMMETRIC, rel=1e-14
    )
    # zero drift: both averages are 1, the kernel collapses to eps
    assert bernoulli1(0.25, 0.0) == pytest.approx(0.25, rel=1e-15)
    assert bernoulli2(0.25, 0.0, 0.0) == pytest.approx(0.25, rel=1e-15)
    assert bernoulli3(0.25, 0.0, 0.0, 0.0) == pytest.approx(0.25, rel=1e-15)


@pytest.mark.parametrize(
    "eps,args",
    [
        (1.0, (1.0,)),
        (0.5, (-3.0,)),
        (1.0, (2.0, 2.0)),
        (0.5, (-3.0, 1.0)),
        (2.0, (4.0, -1.0)),
        (0.5, (1.0, 1.0, 1.0)),
        (1.0, (2.0, -1.0, 0.5)),
        (0.3, (-2.0, 3.0, -4.0)),
    ],
)
def test_matches_defining_integrals(eps, args):
    oracle = quad_bernoulli(eps, args)
    assert rel_to_oracle(kernel_value(eps, args), oracle) < 1e-13


def test_oracles_agree_with_each_other():
    # the two independent reference routes coincide at moderate arguments
    for eps, args in [(1.0, (2.0, 2.0)), (0.5, (-3.0, 1.0)), (1.0, (2.0, -1.0, 0.5))]:
        a = quad_bernoulli(eps, args)
        b = mp_bernoulli(eps, args)
        assert float(abs(a - b) / abs(a)) < 1e-13


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    st.floats(min_value=-3.0, max_value=1.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_b1_against_oracle(log_eps, s):
    eps = 10.0**log_eps
    assert rel_to_oracle(bernoulli1(eps, s), mp_bernoulli(eps, (s,))) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.floats(min_value=-3.0, max_value=1.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_b2_against_oracle(log_eps, s, t):
    eps = 10.0**log_eps
    assert rel_to_oracle(bernoulli2(eps, s, t), mp_bernoulli(eps, (s, t))) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    st.floats(min_value=-3.0, max_value=1.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_b3_against_oracle(log_eps, s, t, r):
    eps = 10.0**log_eps
    value = bernoulli3(eps, s, t, r)
    assert rel_to_oracle(value, mp_bernoulli(eps, (s, t, r))) < 1e-12


def test_near_tie_arguments():
    # spacings that straddle the series/recursion switch and double rounding
    for gap in [1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 0.0]:
        for base in [-30.0, -1.0, 0.0, 2.5, 40.0]:
            args = (base, base + gap, base - 2 * gap)
            oracle = mp_bernoulli(1.0, args)
            assert rel_to_oracle(kernel_value(1.0, args), oracle) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.floats(min_value=-2.0, max_value=1.0),
    st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=3),
)
def test_nonnegative_and_finite(log_eps, args):
    # the kernels are strictly positive in exact arithmetic; in doubles the
    # value may underflow to a clean zero, never to anything negative
    eps = 10.0**log_eps
    value = kernel_value(eps, tuple(args))
    assert math.isfinite(value)
    assert value >= 0.0
    if value == 0.0:
        # only where the exact value is below the double range
        assert float(mp_bernoulli(eps, tuple(args))) < 1e-290


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.floats(min_value=-40.0, max_value=40.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_b1_jump_identity(s, log_eps):
    # B1(s) - B1(-s) = -s for every eps, the flux asymmetry of the kernel
    eps = 10.0**log_eps
    lhs = bernoulli1(eps, s) - bernoulli1(eps, -s)
    assert lhs == pytest.approx(-s, rel=1e-12, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_degree_one_homogeneity(c, s, t):
    a = bernoulli2(1.0, s, t)
    b = bernoulli2(c, c * s, c * t)
    assert b == pytest.approx(c * a, rel=1e-12)


def test_upwind_limits_b1():
    assert bernoulli1(0.0, -3.0) == 3.0
    assert bernoulli1(0.0, 0.0) == 0.0
    assert bernoulli1(0.0, 4.0) == 0.0


def test_upwind_limits_b2():
    assert bernoulli2(0.0, -1.0, -4.0) == 2.0  # all nonpositive: -t/2
    assert bernoulli2(0.0, 3.0, 1.0) == 1.0  # s is the max: (s-t)/2
    assert bernoulli2(0.0, 1.0, 3.0) == 0.0  # t is the max
    assert bernoulli2(0.0, 0.0, 0.0) == 0.0


def test_upwind_limits_b3():
    assert bernoulli3(0.0, -1.0, -2.0, -6.0) == 2.0  # -r/3
    assert bernoulli3(0.0, 6.0, 1.0, -3.0) == 3.0  # (s-r)/3
    assert bernoulli3(0.0, 1.0, 6.0, -3.0) == 3.0  # (t-r)/3
    assert bernoulli3(0.0, 1.0, 2.0, 6.0) == 0.0  # r is the max
    assert bernoulli3(0.0, 0.0, 0.0, 0.0) == 0.0


def test_small_eps_approaches_limit():
    grid = np.linspace(-10.0, 10.0, 9)
    for s in grid:
        lim = bernoulli1(0.0, s)
        assert abs(bernoulli1(1e-8, s) - lim) <= 1e-6
        for t in grid:
            lim = bernoulli2(0.0, s, t)
            assert abs(bernoulli2(1e-8, s, t) - lim) <= 1e-6
            for r in grid:
                lim = bernoulli3(0.0, s, t, r)
                assert abs(bernoulli3(1e-8, s, t, r) - lim) <= 1e-6


def test_extreme_ratio_no_overflow():
    # |s|/eps up to 1e6 in both directions, all kernels stay finite and
    # agree with the upwind limit to high relative accuracy
    for eps in (1.0, 1e-6):
        big = 1e6 * eps
        for args in [(big,), (-big,), (big, -big), (-big, -2 * big),
                     (big, -big, 2 * big), (-big, -2 * big, -3 * big)]:
            value = kernel_value(eps, args)
            assert math.isfinite(value)
            limit = kernel_value(0.0, args)
            assert value == pytest.approx(limit, rel=1e-4, abs=1e-12 * max(eps, 1.0))


def test_invalid_inputs():
    with pytest.raises(ValueError):
        bernoulli1(-1.0, 1.0)
    with pytest.raises(ValueError):
        bernoulli2(1.0, math.nan, 0.0)
    with pytest.raises(ValueError):
        bernoulli3(1.0, math.inf, 0.0, 0.0)


# (eps, args, upwind limit written out by hand, or None where the
# kernel is finite-eps and checked against the big-float oracle)
MIXED_ROWS = {
    1: [
        (0.0, (-3.0,), 3.0),
        (0.0, (0.0,), 0.0),
        (1.0, (-2e15,), 2e15),  # past the limit guard
        (1e-16, (5.0,), 0.0),  # past the limit guard
        (1.0, (1.5,), None),  # series
        (0.5, (-7.0,), None),  # recursion
        (1.0, (0.0,), None),  # exact tie
        (1e-3, (1.0,), None),  # exponent underflow
    ],
    2: [
        (0.0, (-1.0, -4.0), 2.0),
        (0.0, (3.0, 1.0), 1.0),
        (0.0, (1.0, 3.0), 0.0),
        (1e-15, (3.0, 1.0), 1.0),
        (1e-15, (-1.0, -4.0), 2.0),
        (1.0, (0.5, -1.0), None),
        (0.2, (3.0, -2.0), None),
        (0.7, (-1.0, 2.0), None),
        (1.0, (2.0, 2.0), None),
        (0.5, (0.0, 0.0), None),
        (1e-3, (-1.0, 1.0), None),
    ],
    3: [
        (0.0, (-1.0, -2.0, -6.0), 2.0),
        (0.0, (6.0, 1.0, -3.0), 3.0),
        (0.0, (1.0, 6.0, -3.0), 3.0),
        (0.0, (1.0, 2.0, 6.0), 0.0),
        (1e-15, (-1.0, -2.0, -6.0), 2.0),
        (1e-15, (1.0, 6.0, -3.0), 3.0),
        (1.0, (0.5, 1.0, -1.0), None),
        (0.3, (-2.0, 3.0, -4.0), None),
        (0.4, (1.0, -0.2, 0.3), None),
        (1.0, (1.0, 1.0, 1.0), None),
        (1.0, (2.5, 2.5 + 1e-9, 2.5 - 2e-9), None),
        (1e-3, (-1.0, 0.0, 1.0), None),
    ],
}


@pytest.mark.parametrize("j", [1, 2, 3])
def test_batched_kernel_mixed_rows(j):
    rows = MIXED_ROWS[j]
    eps = np.array([r[0] for r in rows])
    args = np.array([r[1] for r in rows])
    # the batch covers both table branches and the limit guard
    spreads = [
        max(0.0, *a) / e - min(0.0, *a) / e for e, a, lim in rows if lim is None
    ]
    assert min(spreads) <= _SERIES_SPREAD < max(spreads)
    assert any(e > 0 and max(map(abs, a)) / e > _LIMIT_GUARD for e, a, _ in rows)
    values = _bernoulli(eps, args)
    assert values.shape == (len(rows),)
    for value, (e, a, lim) in zip(values, rows):
        if lim is None:
            assert rel_to_oracle(value, mp_bernoulli(e, a)) < 1e-12
        else:
            assert value == lim
    for bad in (-1e-300, math.nan):
        bad_eps = eps.copy()
        bad_eps[len(rows) // 2] = bad
        with pytest.raises(ValueError):
            _bernoulli(bad_eps, args)
    bad_args = args.copy()
    bad_args[-1, 0] = math.nan
    with pytest.raises(ValueError):
        _bernoulli(eps, bad_args)


def test_exp_average_trivial_and_edge():
    verts = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert exp_average(verts, np.zeros(2)) == pytest.approx(1.0, rel=1e-15)
    # average of e^x over the unit interval
    assert exp_average(verts, np.array([1.0, 0.0])) == pytest.approx(
        math.e - 1.0, rel=1e-14
    )


def test_exp_average_matches_quadrature(rng):
    for dim in (2, 3):
        verts = random_simplex(rng, dim)
        theta = rng.uniform(-3.0, 3.0, size=dim)
        pts, wts = simplex_rule(verts, 18)
        ref = (wts @ np.exp(pts @ theta)) / wts.sum()
        assert exp_average(verts, theta) == pytest.approx(ref, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_exp_average_translation_factor(sx, sy):
    # translating the simplex multiplies the average by exp(theta . shift)
    base = np.array([[0.1, 0.2], [1.0, 0.3], [0.4, 1.1]])
    shift = np.array([sx, sy])
    theta = np.array([1.5, -2.5])
    a = exp_average(base, theta)
    b = exp_average(base + shift, theta)
    assert b == pytest.approx(a * math.exp(theta @ shift), rel=1e-11)


def test_harmonic_average_links_to_b1():
    # on an edge with tail a_i, eps * harmonic average of e^{theta.(x-a_i)}
    # is exactly B1 of the drift across the edge
    verts = np.array([[0.3, -0.2], [1.1, 0.7]])
    theta = np.array([2.0, 1.0])
    alpha_bar = 0.7
    tangent = verts[1] - verts[0]
    expected = bernoulli1(alpha_bar, alpha_bar * (theta @ tangent))
    got = harmonic_average(verts, alpha_bar, theta) * math.exp(theta @ verts[0])
    assert got == pytest.approx(expected, rel=1e-13)


def test_cell_coefficients_constant():
    mesh = build_unit_square_mesh(2)
    beta = np.array([1.0, 2.0])
    coeffs = cell_coefficients(mesh, 0, 2.0, lambda x: np.tile(beta, (len(x), 1)))
    assert coeffs.alpha_bar == pytest.approx(2.0, rel=1e-14)
    assert coeffs.theta_bar == pytest.approx(beta / 2.0, rel=1e-13)
    assert coeffs.beta_bar == pytest.approx(beta, rel=1e-13)


def test_cell_coefficients_variable_alpha():
    mesh = build_unit_square_mesh(1)
    geom = cell_geometry(mesh, 0)
    pts, wts = simplex_rule(geom.vertices, 6)
    alpha = lambda x: 1.0 + x[:, 0] ** 2
    ref = (wts @ alpha(pts)) / wts.sum()
    coeffs = cell_coefficients(mesh, 0, alpha, lambda x: np.zeros_like(x))
    assert coeffs.alpha_bar == pytest.approx(ref, rel=1e-12)


def test_cell_coefficients_rejects_nonpositive_alpha():
    mesh = build_unit_square_mesh(1)
    beta = lambda x: np.zeros_like(x)
    with pytest.raises(ValueError):
        cell_coefficients(mesh, 0, -1.0, beta)
    with pytest.raises(ValueError):
        cell_coefficients(mesh, 0, lambda x: x[:, 0] - 10.0, beta)


def test_cell_coefficients_rejects_zero_alpha():
    # the vanishing-diffusion limit is selected at assembly level, the
    # per-cell averaging itself insists on positive alpha
    mesh = build_unit_square_mesh(1)
    beta = lambda x: np.zeros_like(x)
    with pytest.raises(ValueError):
        cell_coefficients(mesh, 0, 0, beta)


def test_exp_operators_zero_drift_reduce_to_incidence(rng):
    for dim, k in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        mesh = random_cell_mesh(rng, dim)
        ops = local_exp_operators(mesh, 0, k, np.zeros(dim))
        geom = cell_geometry(mesh, 0)
        np.testing.assert_allclose(ops.j_k, local_incidence(geom, k), atol=1e-14)
        np.testing.assert_allclose(ops.h_k, np.ones_like(ops.h_k), rtol=1e-14)


def test_exp_operators_compose_to_zero(rng):
    for dim, k in [(2, 0), (3, 0), (3, 1)]:
        mesh = random_cell_mesh(rng, dim)
        theta = rng.uniform(-4.0, 4.0, size=dim)
        a = local_exp_operators(mesh, 0, k, theta)
        b = local_exp_operators(mesh, 0, k + 1, theta)
        comp = b.j_k @ a.j_k
        scale = max(np.abs(b.j_k).max() * np.abs(a.j_k).max(), 1.0)
        assert np.abs(comp).max() <= 1e-12 * scale


def test_exp_operators_weighted_interpolation_inverse(rng):
    # the diagonal weights invert the canonical interpolation of the
    # exponentially weighted basis, entity by entity
    for dim in (2, 3):
        mesh = random_cell_mesh(rng, dim)
        theta = rng.uniform(-1.0, 1.0, size=dim)
        for k in range(dim):
            ops = local_exp_operators(mesh, 0, k, theta)
            p = _weighted_interp_matrix(mesh, k, theta)
            np.testing.assert_allclose(
                np.diag(ops.h_k) @ p, np.eye(p.shape[0]), atol=1e-11
            )
        # top degree comes out as the h_k1 diagonal of the last level
        p = _weighted_interp_matrix(mesh, dim, theta)
        np.testing.assert_allclose(
            np.diag(ops.h_k1) @ p, np.eye(p.shape[0]), atol=1e-11
        )


def _weighted_interp_matrix(mesh, k, theta):
    """P[S, S'] = canonical DOF on S of e^{theta.x} times basis function S'."""
    from safefem.whitney import canonical_interpolate

    n_loc = mesh.cell_entities[k].shape[1]
    cols = []
    for j in range(n_loc):
        def field(x, j=j):
            basis = eval_basis(mesh, 0, k, x).values
            weight = np.exp(x @ theta)
            col = basis[:, j] if basis.ndim == 2 else basis[:, j, :]
            return col * weight if col.ndim == 1 else col * weight[:, None]

        cols.append(canonical_interpolate(mesh, k, field, degree=24))
    return np.column_stack(cols)
