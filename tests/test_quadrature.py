from math import factorial

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

import helmqo.quadrature
from helmqo.quadrature import edge_rule, triangle_rule


def reference_monomial_integral(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(1, 21))
def test_monomial_exactness(degree):
    rule = triangle_rule(degree)
    assert rule.degree >= degree
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    tol = 10 * np.finfo(float).eps
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            approx = 0.5 * np.sum(rule.weights * x ** a * y ** b)
            exact = reference_monomial_integral(a, b)
            assert abs(approx - exact) <= tol, (degree, a, b)


@pytest.mark.parametrize("degree", range(1, 21))
def test_weights_positive_and_normalized(degree):
    rule = triangle_rule(degree)
    assert (rule.weights > 0).all()
    assert np.isclose(rule.weights.sum(), 1.0, atol=1e-14)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_invalid_degree():
    with pytest.raises(ValueError):
        triangle_rule(0)


def test_edge_rule_exactness():
    x, w = edge_rule(5)
    for p in range(6):
        assert np.isclose(np.sum(w * x ** p), 1.0 / (p + 1), atol=1e-14)


@pytest.mark.parametrize("n", range(1, 41))
def test_gauss_nodes_match_scipy(n):
    # the library builds both rules without scipy.special
    x, w = helmqo.quadrature._gauss_jacobi_10(n)
    xs, ws = roots_jacobi(n, 1.0, 0.0)
    assert np.abs(x - xs).max() <= 1e-13
    assert np.abs(w - ws).max() <= 1e-13
    x, w = edge_rule(2 * n - 1)
    xs, ws = roots_legendre(n)
    assert len(x) == n
    assert np.abs(x - 0.5 * (xs + 1.0)).max() <= 1e-13
    assert np.abs(w - 0.5 * ws).max() <= 1e-13
