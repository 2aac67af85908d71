"""Tests for reference and physical simplex quadrature."""

import math

import numpy as np
import pytest

from safefem.quadrature import (
    gauss_legendre_01,
    reference_simplex_rule,
    simplex_measures,
    simplex_rules,
)

from conftest import random_simplex


def test_gauss_legendre_unit_interval():
    pts, wts = gauss_legendre_01(4)
    assert wts.sum() == pytest.approx(1.0, rel=1e-14)
    assert ((0 < pts) & (pts < 1)).all()
    # degree-7 exactness
    for p in range(8):
        assert wts @ pts**p == pytest.approx(1.0 / (p + 1), rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reference_rule_weights(dim):
    pts, wts = reference_simplex_rule(dim, 4)
    assert wts.sum() == pytest.approx(1.0 / math.factorial(dim), rel=1e-13)
    assert (wts > 0).all()
    lam0 = 1.0 - pts.sum(axis=1)
    assert (lam0 > -1e-13).all() and (pts > -1e-13).all()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 6])
def test_reference_rule_monomial_exactness(dim, degree):
    pts, wts = reference_simplex_rule(dim, degree)
    for powers in _monomials(dim, degree):
        vals = np.prod(pts ** np.array(powers), axis=1)
        exact = _simplex_monomial_integral(powers)
        assert wts @ vals == pytest.approx(exact, rel=1e-12), powers


def _monomials(dim, degree):
    if dim == 1:
        return [(p,) for p in range(degree + 1)]
    out = []
    for p in range(degree + 1):
        for rest in _monomials(dim - 1, degree - p):
            out.append((p,) + rest)
    return out


def _simplex_monomial_integral(powers):
    # int over the unit simplex of prod x_i^{p_i} in closed form
    num = np.prod([math.factorial(p) for p in powers])
    return num / math.factorial(sum(powers) + len(powers))


def measure(vertices):
    """Measure of one simplex, vertices (m+1, n)."""
    return simplex_measures(vertices[None])[0]


def test_simplex_measure():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert measure(tri) == pytest.approx(0.5, rel=1e-14)
    tet = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert measure(tet) == pytest.approx(1.0 / 6.0, rel=1e-14)
    edge3d = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    assert measure(edge3d) == pytest.approx(5.0, rel=1e-14)


def test_physical_rule(rng):
    verts = random_simplex(rng, 2)
    pts, wts = (a[0] for a in simplex_rules(verts[None], 3))
    assert wts.sum() == pytest.approx(measure(verts), rel=1e-13)
    # exactness for an affine integrand
    f = lambda x: 2.0 + 3.0 * x[:, 0] - x[:, 1]
    centroid = verts.mean(axis=0)
    exact = measure(verts) * (2.0 + 3.0 * centroid[0] - centroid[1])
    assert wts @ f(pts) == pytest.approx(exact, rel=1e-13)
