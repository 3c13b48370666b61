"""Quadrature rules on the reference triangle and unit interval.

Triangle rules are stored in barycentric coordinates with area-normalized
weights (weights sum to one); the integral over a physical triangle K is
``area(K) * sum(w_q * f(x_q))``.  Rules up to degree 5 use closed-form
points; higher degrees fall back to a conical-product construction
(Gauss-Jacobi x Gauss-Legendre), which has positive weights for any degree.
The Gauss-Legendre nodes are NumPy's ``leggauss``; the Gauss-Jacobi nodes
come from the eigendecomposition of their Jacobi matrix (Golub-Welsch), so
the module needs no ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class QuadratureRule:
    """Points (barycentric, shape (q, 3)) and weights (sum = 1) on the
    reference triangle, exact for polynomials up to ``degree``."""

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        if (self.weights <= 0).any():
            raise ValueError("quadrature weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")


def _midpoint_rule() -> QuadratureRule:
    pts = np.array([[0.5, 0.5, 0.0],
                    [0.0, 0.5, 0.5],
                    [0.5, 0.0, 0.5]])
    return QuadratureRule(pts, np.full(3, 1.0 / 3.0), 2)


def _seven_point_rule() -> QuadratureRule:
    # centroid + two orbits with closed-form coordinates
    s = np.sqrt(15.0)
    a1, w1 = (6.0 + s) / 21.0, (155.0 + s) / 1200.0
    a2, w2 = (6.0 - s) / 21.0, (155.0 - s) / 1200.0
    pts = [np.array([1, 1, 1]) / 3.0]
    wts = [9.0 / 40.0]
    for a, w in ((a1, w1), (a2, w2)):
        b = 1.0 - 2.0 * a
        for perm in ((b, a, a), (a, b, a), (a, a, b)):
            pts.append(np.array(perm))
            wts.append(w)
    return QuadratureRule(np.array(pts), np.array(wts), 5)


def _gauss_jacobi_10(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 - x) on [-1, 1] (Jacobi
    alpha = 1, beta = 0), by Golub-Welsch: the nodes are the eigenvalues
    of the symmetric tridiagonal Jacobi matrix of the three-term
    recurrence, and each weight is the weight's total mass 2 times the
    squared first component of its normalized eigenvector."""
    k = np.arange(n)
    diag = -1.0 / ((2 * k + 1.0) * (2 * k + 3.0))
    j = k[1:]
    off = np.sqrt(j * (j + 1.0)) / (2 * j + 1.0)
    x, V = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                          + np.diag(off, -1))
    return x, 2.0 * V[0] ** 2


def _conical_rule(degree: int) -> QuadratureRule:
    npts = (degree + 2) // 2  # m-point rules are exact to degree 2m-1
    xj, wj = _gauss_jacobi_10(npts)   # weight (1-x) on [-1, 1]
    eta, weta = edge_rule(2 * npts - 1)
    xi = 0.5 * (xj + 1.0)
    # map int_T f = int_0^1 int_0^1 f(xi, eta*(1-xi)) (1-xi) deta dxi
    wxi = wj / 4.0   # includes the (1-xi) Jacobi weight and interval scaling
    X = np.repeat(xi, npts)
    Y = np.tile(eta, npts) * (1.0 - X)
    W = np.repeat(wxi, npts) * np.tile(weta, npts)
    lam = np.column_stack([1.0 - X - Y, X, Y])
    return QuadratureRule(lam, 2.0 * W, 2 * npts - 1)


_STOCK = [_midpoint_rule(), _seven_point_rule()]


def triangle_rule(degree: int) -> QuadratureRule:
    """Smallest available rule exact at least to ``degree``."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for rule in _STOCK:
        if rule.degree >= degree:
            return rule
    return _conical_rule(degree)


def edge_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points/weights on [0, 1], exact to ``degree``."""
    npts = max(1, (degree + 2) // 2)
    x, w = leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w
