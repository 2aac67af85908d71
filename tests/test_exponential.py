"""Tests for exponential averages and the Bernoulli-type kernels.

Reference values come from two independent oracles:

* nested adaptive quadrature (mpmath) of the defining simplex integrals,
  used at moderate arguments where tanh-sinh converges quickly;
* naive divided differences of exp evaluated in big-float arithmetic with
  adaptive precision, usable over the whole supported argument range.

The production code never sees either route; it uses shifted stable
recurrences in double precision.
"""

import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from mpmath import exp as mp_exp
from mpmath import expm1, factorial, mpf, quad, workdps

from safefem.assembly import local_safe_oracle
from safefem.exponential import (
    _LIMIT_GUARD,
    _SERIES_HALF,
    _SERIES_SPREAD,
    _SERIES_TERMS,
    _bernoulli,
    _dd_exp,
    _dd_exp_table,
    averaged_coefficients,
    exp_average,
    local_exp_operators,
)
from safefem.mesh import build_unit_square_mesh, mesh_geometry
from safefem.quadrature import simplex_rules
from safefem.whitney import basis_values, local_incidence

from conftest import (
    bernoulli1,
    bernoulli2,
    bernoulli3,
    random_cell_mesh,
    random_simplex,
)

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


def mp_dd_exp(points, shift=0.0):
    """e^-shift exp[z_0..z_m] in big-float arithmetic, the divided
    difference from its definition: the recursion on sorted points, and
    e^z / r! on r + 1 coincident ones.  For points that are equal or well
    separated."""
    zs = sorted(mpf(z) for z in points)

    def dd(lo, hi):
        if zs[lo] == zs[hi]:
            return mp_exp(zs[lo]) / factorial(hi - lo)
        return (dd(lo + 1, hi) - dd(lo, hi - 1)) / (zs[hi] - zs[lo])

    with workdps(60):
        return dd(0, len(zs) - 1) * mp_exp(-mpf(shift))


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
        (1.0, (0.3,), None),  # series, each class of half-spread
        (1.0, (-0.4582922910426981,), None),  # 13 and 26 terms round apart
        (0.5, (-0.4,), None),
        (2.0, (-3.0,), None),
        (1.0, (3.5,), None),
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
        (1.0, (0.1, -0.2), None),
        # 13 and 26 terms round apart
        (1.0, (0.2313743592467163, -0.16700743988339928), None),
        (1.0, (0.6, 0.3), None),
        (0.5, (-0.6, 0.9), None),
        (0.2, (3.0, -2.0), None),
        (0.7, (-1.0, 2.0), None),
        (1.0, (2.0, 2.0), None),
        (0.5, (0.0, 0.0), None),
        (1e-3, (-1.0, 1.0), None),
        (0.1, (0.05, 0.9), None),  # table row (0, 0.5, 9), series below
        (0.1, (-0.9, -0.85), None),  # table row (-9, -8.5, 0), series below
    ],
    3: [
        (0.0, (-1.0, -2.0, -6.0), 2.0),
        (0.0, (6.0, 1.0, -3.0), 3.0),
        (0.0, (1.0, 6.0, -3.0), 3.0),
        (0.0, (1.0, 2.0, 6.0), 0.0),
        (1e-15, (-1.0, -2.0, -6.0), 2.0),
        (1e-15, (1.0, 6.0, -3.0), 3.0),
        (1.0, (0.5, 1.0, -1.0), None),
        (1.0, (0.2, -0.1, 0.3), None),
        # 13 and 26 terms round apart
        (1.0, (-0.06983446541521238, -0.22218961079232064, 0.24771657744500086), None),
        (2.0, (-1.0, 0.5, -1.5), None),
        (1.0, (0.5, -1.3, 0.2), None),
        (0.5, (1.5, 0.2, -0.5), None),
        (0.3, (-2.0, 3.0, -4.0), None),
        (0.4, (1.0, -0.2, 0.3), None),
        (1.0, (1.0, 1.0, 1.0), None),
        (1.0, (2.5, 2.5 + 1e-9, 2.5 - 2e-9), None),
        (1e-3, (-1.0, 0.0, 1.0), None),
        (0.5, (0.15, 1.95, 4.5), None),  # table row (0, 0.3, 3.9, 9)
        (2.0, (9.0, 9.2, 0.2), None),  # table row (0, 0.1, 4.5, 4.6)
    ],
}


@pytest.mark.parametrize("j", [1, 2, 3])
def test_batched_kernel_mixed_rows(j):
    rows = MIXED_ROWS[j]
    eps = np.array([r[0] for r in rows])
    args = np.array([r[1] for r in rows])
    # the batch covers every series class, the table and the limit guard
    spreads = np.array([
        max(0.0, *a) / e - min(0.0, *a) / e for e, a, lim in rows if lim is None
    ])
    assert max(spreads) > _SERIES_SPREAD
    classes = np.searchsorted(_SERIES_HALF, 0.5 * spreads[spreads <= _SERIES_SPREAD])
    assert set(classes) == set(range(len(_SERIES_HALF)))
    assert any(e > 0 and max(map(abs, a)) / e > _LIMIT_GUARD for e, a, _ in rows)
    values = _bernoulli(eps, args)
    assert values.shape == (len(rows),)
    for value, (e, a, lim) in zip(values, rows):
        if lim is None:
            assert rel_to_oracle(value, mp_bernoulli(e, a)) < 1e-12
        else:
            assert value == lim
    # each row's value does not depend on the batch it is evaluated in;
    # rows marked above round apart with the terms of the widest class
    single = [_bernoulli(e, a) for e, a in zip(eps, args)]
    assert np.array_equal(values, single)
    for bad in (-1e-300, math.nan):
        bad_eps = eps.copy()
        bad_eps[len(rows) // 2] = bad
        with pytest.raises(ValueError):
            _bernoulli(bad_eps, args)
    bad_args = args.copy()
    bad_args[-1, 0] = math.nan
    with pytest.raises(ValueError):
        _bernoulli(eps, bad_args)


def worst_case_rows(m):
    """Rows of m + 1 points, each at the half-spread r from the midpoint,
    with both signs, at every class edge r of the series and just
    inside and outside it; past the last edge the row takes the table."""
    for signs in itertools.product((-1.0, 1.0), repeat=m + 1):
        if len(set(signs)) == 2:
            for edge in _SERIES_HALF:
                for scale in (1.0 - 1e-12, 1.0 + 1e-12):
                    yield [s * edge * scale for s in signs]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_series_worst_case_windows(m):
    # every point as far from the centre as its class allows
    rows = [
        [centre + z for z in row]
        for row in worst_case_rows(m)
        for centre in (0.0, -3.7, 5.1, 40.0)
    ]
    mu, d = _dd_exp(np.array(rows))
    for row, shift, value in zip(rows, mu, d):
        assert rel_to_oracle(value, mp_dd_exp(row, shift)) <= 4e-16


@pytest.mark.parametrize("j", [1, 2, 3])
def test_kernel_worst_case_windows(j):
    # the same rows as kernel rows [0, y_1..y_j]: one series about the
    # midpoint of the denominator also gives the numerator, whose points
    # need not be centred there, which costs accuracy at the widest class
    # (measured worst case 2.2e-15, at j = 3 on the last edge)
    for eps in (1.0, 0.3):
        args = np.array([
            [eps * (z - row[0]) for z in row[1:]] for row in worst_case_rows(j)
        ])
        values = _bernoulli(eps, args)
        for row, value in zip(args, values):
            assert rel_to_oracle(value, mp_bernoulli(eps, row)) <= 4e-15


def test_series_terms_meet_tail_bound():
    # the bound of exponential.py: after K terms of the series about the
    # midpoint of a window of half-spread r the relative tail is below
    # e^r (r^K/K!) (K+1)/(K+1-r); this pins each class's K to the least
    # that takes it under 2^-56, and the last class to the series spread
    def bound(r, K):
        return math.exp(r) * r**K / math.factorial(K) * (K + 1) / (K + 1 - r)

    assert _SERIES_HALF[-1] == 0.5 * _SERIES_SPREAD
    assert np.all(np.diff(_SERIES_HALF) > 0) and np.all(np.diff(_SERIES_TERMS) > 0)
    for r, K in zip(_SERIES_HALF.tolist(), _SERIES_TERMS.tolist()):
        assert bound(r, K) < 2.0**-56 <= bound(r, K - 1)


# rows wider than the series spread with a lower window that is not: the
# table takes the recursion on top and the series on those windows
TABLE_ROWS = [
    (0.0, 0.5, 9.0),
    (-9.0, -8.5, 0.0),
    (0.0, 8.5, 9.0, 9.0),
    (0.0, 0.3, 3.9, 9.0),
    (0.0, 4.5, 4.6, 4.7),
    (-5.0, -4.9, 0.0, 0.0),
]


@pytest.mark.parametrize("row", TABLE_ROWS)
def test_table_rows_with_series_windows(row):
    # the top window is far, and some window of positive spread is near
    assert row[-1] - row[0] > _SERIES_SPREAD
    assert any(0 < b - a <= _SERIES_SPREAD for a, b in zip(row, row[1:]))
    for order in (row, row[::-1]):
        mu, d = _dd_exp(np.array(order))
        assert rel_to_oracle(float(d), mp_dd_exp(row, mu)) <= 4e-16
    for eps in (1.0, 0.25):
        args = tuple(eps * (z - row[0]) for z in row[1:])
        value = float(_bernoulli(eps, args))
        assert rel_to_oracle(value, mp_bernoulli(eps, args)) < 1e-13


def wide_kinds(j):
    """The kinds of ``wide_kernel_rows`` at j arguments: one argument can
    neither tie with the maximum nor cluster with another."""
    if j == 1:
        return ("random", "last max", "zero max")
    return ("random", "last max", "last tied", "zero max", "clustered")


def wide_kernel_rows(j, kind, count=24):
    """Kernel rows y (count, j) whose exponents S = [0, y] span from just
    above ``_SERIES_SPREAD`` to 300: ``kind`` puts y_j at the strict
    maximum (upwind limit 0) or tied with it, 0 at the maximum, or all
    points but the two ends within 3/1024 of one end.  The exponents lie
    on a 2^-10 grid, so every shift of a row is exact and the rows test
    the evaluation, not the rounding of its inputs."""
    rng = np.random.default_rng(j)
    rows = []
    for spread in np.geomspace(_SERIES_SPREAD + 2.0**-10, 300.0, count):
        top = math.ceil(1024 * spread)
        S = rng.integers(0, top + 1, j + 1)
        if kind == "clustered":
            end = rng.integers(2) * top
            S = np.r_[0, top, end + np.sign(top - 2 * end) * rng.integers(0, 4, j - 1)]
            S = rng.permutation(S)
        else:
            # both ends of the span are attained, the top at a fixed slot
            slot = {"zero max": 0, "last max": j, "last tied": j}.get(kind, rng.integers(j + 1))
            rest = rng.permutation([i for i in range(j + 1) if i != slot])
            S[slot], S[rest[0]] = top, 0
            if kind == "last max":
                S[rest] = np.minimum(S[rest], top - 1)
            elif kind == "last tied":
                S[rest[1]] = top
        rows.append((S[1:] - S[0]) / 1024)
    return np.array(rows)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_wide_rows_are_limit_plus_table_correction(j):
    # every wide row is its upwind limit plus one Newton-table correction
    rows = np.concatenate([wide_kernel_rows(j, kind) for kind in wide_kinds(j)])
    S = np.column_stack([np.zeros(len(rows)), rows])
    assert np.all(np.ptp(S, axis=1) > _SERIES_SPREAD) and np.all(np.ptp(S, axis=1) <= 300.5)
    hi = S.max(axis=1)
    ties = np.sum(S == hi[:, None], axis=1) > 1
    last = S[:, -1] == hi
    assert np.any(last & ~ties) and np.any(~last) and np.any(S[:, 0] == hi)
    assert j == 1 or np.any(last & ties)
    for eps in (1.0, 0.25):
        args = eps * rows
        for row, value in zip(args, _bernoulli(eps, args)):
            assert rel_to_oracle(value, mp_bernoulli(eps, row)) <= 1e-15


@pytest.mark.parametrize("m", [1, 2, 3])
def test_table_left_child_is_row_without_its_maximum(m):
    # the wide kernel rows reuse the left child of the table's top window
    # as the divided difference of the row without its maximum
    rows = [np.sort(np.r_[0.0, y]) for kind in wide_kinds(m) for y in wide_kernel_rows(m, kind)]
    rows += [np.array(r, dtype=float) for r in TABLE_ROWS if len(r) == m + 1]
    z = np.array(rows) - np.array(rows)[:, -1:]
    assert np.all(z[:, -1] - z[:, 0] > _SERIES_SPREAD)
    top, left = _dd_exp_table(z)
    mu, d = _dd_exp(z[:, :-1])
    assert np.all(np.abs(left - np.exp(mu) * d) <= 4e-16 * left)
    mu, d = _dd_exp(z)
    assert np.array_equal(top, np.exp(mu) * d)


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
        pts, wts = (a[0] for a in simplex_rules(verts[None], 18))
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
    # on an edge with tail a_i, the harmonic-type average
    # eps / avg(e^{theta.(x-a_i)}) is exactly B1 of the drift across the edge
    verts = np.array([[0.3, -0.2], [1.1, 0.7]])
    theta = np.array([2.0, 1.0])
    alpha_bar = 0.7
    tangent = verts[1] - verts[0]
    expected = bernoulli1(alpha_bar, alpha_bar * (theta @ tangent))
    got = alpha_bar / exp_average(verts, theta) * math.exp(theta @ verts[0])
    assert got == pytest.approx(expected, rel=1e-13)


def test_cell_coefficients_constant():
    geo = mesh_geometry(build_unit_square_mesh(2))[[0]]
    beta = np.array([1.0, 2.0])
    const = lambda x: np.tile(beta, (len(x), 1))
    alpha_bar, beta_bar = averaged_coefficients(geo, 2.0, const)
    assert alpha_bar[0] == pytest.approx(2.0, rel=1e-14)
    # the fitted direction theta_bar
    assert beta_bar[0] / alpha_bar[0] == pytest.approx(beta / 2.0, rel=1e-13)
    assert beta_bar[0] == pytest.approx(beta, rel=1e-13)


def test_cell_coefficients_variable_alpha():
    geo = mesh_geometry(build_unit_square_mesh(1))[[0]]
    pts, wts = (a[0] for a in simplex_rules(geo.vertices, 6))
    alpha = lambda x: 1.0 + x[:, 0] ** 2
    ref = (wts @ alpha(pts)) / wts.sum()
    alpha_bar, _ = averaged_coefficients(geo, alpha, lambda x: np.zeros_like(x))
    assert alpha_bar[0] == pytest.approx(ref, rel=1e-12)


def test_cell_coefficients_rejects_nonpositive_alpha():
    geo = mesh_geometry(build_unit_square_mesh(1))[[0]]
    beta = lambda x: np.zeros_like(x)
    with pytest.raises(ValueError):
        averaged_coefficients(geo, -1.0, beta)
    with pytest.raises(ValueError):
        averaged_coefficients(geo, lambda x: x[:, 0] - 10.0, beta)
    with pytest.raises(ValueError):
        averaged_coefficients(geo, math.nan, beta)


def test_cell_coefficients_zero_alpha_is_upwind_limit():
    # a cell where alpha vanishes at the barycenter carries the
    # barycentric drift unscaled and no fitted direction, which the
    # operator route refuses
    geo = mesh_geometry(build_unit_square_mesh(1))[[0]]
    xc = geo.barycenter[0]
    beta = lambda x: np.column_stack([1.0 + x[:, 0], -x[:, 1]])
    for alpha in (0, 0.0, lambda x: (x[:, 0] - xc[0]) ** 2):
        alpha_bar, beta_bar = averaged_coefficients(geo, alpha, beta)
        assert alpha_bar[0] == 0.0
        with pytest.raises(ValueError, match="alpha_bar > 0"):
            local_safe_oracle(geo, 0, alpha_bar[0], beta_bar[0])
        np.testing.assert_array_equal(beta_bar[0], beta(xc[None])[0])


def test_exp_operators_zero_drift_reduce_to_incidence(rng):
    for dim, k in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        geom = mesh_geometry(random_cell_mesh(rng, dim))[0]
        h_k, _, j_k = local_exp_operators(geom, k, np.zeros(dim))
        np.testing.assert_allclose(j_k, local_incidence(geom, k), atol=1e-14)
        np.testing.assert_allclose(h_k, np.ones_like(h_k), rtol=1e-14)


def test_exp_operators_compose_to_zero(rng):
    for dim, k in [(2, 0), (3, 0), (3, 1)]:
        geom = mesh_geometry(random_cell_mesh(rng, dim))[0]
        theta = rng.uniform(-4.0, 4.0, size=dim)
        a = local_exp_operators(geom, k, theta)[2]
        b = local_exp_operators(geom, k + 1, theta)[2]
        comp = b @ a
        scale = max(np.abs(b).max() * np.abs(a).max(), 1.0)
        assert np.abs(comp).max() <= 1e-12 * scale


def test_exp_operators_weighted_interpolation_inverse(rng):
    # the diagonal weights invert the canonical interpolation of the
    # exponentially weighted basis, entity by entity
    for dim in (2, 3):
        mesh = random_cell_mesh(rng, dim)
        geom = mesh_geometry(mesh)[0]
        theta = rng.uniform(-1.0, 1.0, size=dim)
        for k in range(dim):
            h_k, h_k1, _ = local_exp_operators(geom, k, theta)
            p = _weighted_interp_matrix(mesh, k, theta)
            np.testing.assert_allclose(
                np.diag(h_k) @ p, np.eye(p.shape[0]), atol=1e-11
            )
        # top degree comes out as the h_k1 diagonal of the last level
        p = _weighted_interp_matrix(mesh, dim, theta)
        np.testing.assert_allclose(
            np.diag(h_k1) @ p, np.eye(p.shape[0]), atol=1e-11
        )


def _weighted_interp_matrix(mesh, k, theta):
    """P[S, S'] = canonical DOF on S of e^{theta.x} times basis function S'."""
    from safefem.whitney import canonical_interpolate

    geo = mesh_geometry(mesh)
    n_loc = mesh.cell_entities[k].shape[1]
    cols = []
    for j in range(n_loc):
        def field(x, j=j):
            basis = basis_values(geo, k, x[None], 1e-10)[0]
            weight = np.exp(x @ theta)
            col = basis[:, j] if basis.ndim == 2 else basis[:, j, :]
            return col * weight if col.ndim == 1 else col * weight[:, None]

        cols.append(canonical_interpolate(mesh, k, field, degree=24))
    return np.column_stack(cols)
