"""Eigenvalue ladders, the stability criterion, and guaranteed CR bounds.

The central object is the ordered ladder of discrete Laplace eigenvalues on
the free (Dirichlet-constrained) space.  A wave number k^2 placed strictly
between two consecutive ladder values makes the Helmholtz bilinear form
stable (sign-flipping coercivity) with an explicit constant; for
Crouzeix-Raviart discretizations the ladder can additionally be enclosed by
guaranteed lower and upper bounds at every index; from those,
:func:`helmqo.certify.run_gmr` estimates and certifies the number of
continuous eigenvalues below k^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .spaces import (CR, P2, DofSpace, ElementFamily, FeFunction, build_space,
                     cr_to_p2_lift, expand_free)
from .sparsela import (EigenSolveError, EigenSolveOptions, SparseSymMatrix,
                       eigs_smallest)

DEFAULT_KAPPA = 0.1932
MIN_KAPPA = 0.1893    # Liu's CR interpolation constant C_h / h
_RITZ_SLICE = 8       # eigenvector columns lifted at a time
# smallest Cholesky pivot^2 of the lifted Gram matrix, relative to its
# largest diagonal entry, below which the lifted vectors count as dependent
_GRAM_RTOL = 1e-8


@dataclass
class EigenSet:
    """Ascending generalized eigenpairs of the constrained Laplace pencil.

    ``vectors`` holds free-dof eigenvector columns; ``eigenfunction(i)``
    embeds pair ``i`` (1-based, like the ladder) into the full dof set.
    """

    space: DofSpace
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    @property
    def family(self) -> ElementFamily:
        return self.space.family

    def __len__(self) -> int:
        return len(self.values)

    def eigenfunction(self, i: int) -> FeFunction:
        if not 1 <= i <= len(self):
            raise IndexError(f"eigenpair index {i} out of range 1..{len(self)}")
        return FeFunction(self.space,
                          expand_free(self.space, self.vectors[:, i - 1]))


@dataclass(frozen=True)
class BoundedEigen:
    """A discrete eigenvalue with guaranteed lower and upper bounds."""

    lam: float
    lower: float
    upper: float


@dataclass(frozen=True)
class Criterion:
    """Outcome of the two-sided ladder check at a wave number."""

    lambda_lo: float
    lambda_hi: float
    satisfied: bool
    alpha_star: float


def eigen_ladder(space: DofSpace, m: int, counts: dict[float, int],
                 opts: EigenSolveOptions | None = None) -> EigenSet:
    """The ``m`` smallest eigenpairs (at most ``n_free``), checked against
    the LDL^T inertia counts the caller holds.

    ``counts`` maps each shift the caller reads the ladder at to its
    inertia count there (:func:`helmqo.sparsela.count_below`).  Raises
    :class:`EigenSolveError` unless exactly ``count`` ladder values lie
    below each ``shift``, so every index read off the ladder at a shift
    is the index of that eigenvalue.
    """
    if space.n_free == 0:
        raise ValueError("space has no free degrees of freedom")
    E = eigenpairs(space, min(m, space.n_free), opts)
    for shift, count in counts.items():
        found = int((E.values < shift).sum())
        if found != count:
            raise EigenSolveError(
                f"{found} ladder values lie below {shift!r}, but the LDL^T "
                f"inertia counts {count}")
    return E


def eigenpairs(space: DofSpace, m: int,
               opts: EigenSolveOptions | None = None) -> EigenSet:
    """The ``m`` smallest eigenpairs of the space's constrained pencil."""
    res = eigs_smallest(*space.pencil, m, opts)
    return EigenSet(space, res.values, res.vectors, res.residuals)


def check_criterion(E: EigenSet, k2: float, i_star: int) -> Criterion:
    """Check lambda^(i*) < k^2 < lambda^(i*+1) on the ladder.

    ``i_star = 0`` means k^2 is expected below the whole spectrum and only
    the upper comparison applies.  ``alpha_star`` is the coercivity
    constant min |lambda - k^2| / (1 + lambda) over the available pairs;
    it is meaningful when the criterion holds.
    """
    if i_star < 0:
        raise ValueError("i_star must be >= 0")
    if len(E) < i_star + 1:
        raise ValueError(f"ladder has {len(E)} pairs, need {i_star + 1}")
    lam = E.values
    lambda_lo = float(lam[i_star - 1]) if i_star >= 1 else 0.0
    lambda_hi = float(lam[i_star])
    satisfied = lambda_lo < k2 < lambda_hi if i_star >= 1 else k2 < lambda_hi
    alpha = float(np.min(np.abs(lam - k2) / (1.0 + lam)))
    return Criterion(lambda_lo, lambda_hi, satisfied, alpha)


def cr_lower_bound(lam: float, h: float,
                   kappa: float = DEFAULT_KAPPA) -> float:
    """Guaranteed lower bound lambda / (1 + kappa^2 lambda h^2).

    Liu, "A framework of verified eigenvalue bounds for self-adjoint
    differential operators" (Appl. Math. Comput. 2015): if the CR
    interpolation Pi_h is a_h-orthogonal to the CR space (it keeps edge
    means, and CR gradients are elementwise constant) and
    ||u - Pi_h u|| <= C_h ||grad_h (u - Pi_h u)|| with C_h = 0.1893 h, then
    lambda_j >= lambda_h,j / (1 + C_h^2 lambda_h,j) for every
    j <= dim V_h, with no condition on the mesh size.  A larger kappa only
    lowers the bound, so every ``kappa >= MIN_KAPPA`` is valid; a smaller
    one raises :class:`ValueError`.  ``lam`` is the j-th CR eigenvalue and
    ``h`` the global mesh size (largest element diameter).
    """
    if not kappa >= MIN_KAPPA:
        raise ValueError(f"kappa must be >= {MIN_KAPPA} (the proven CR "
                         f"interpolation constant), got {kappa!r}")
    if lam < 0:
        raise ValueError("eigenvalue must be nonnegative")
    if h <= 0:
        raise ValueError("mesh size must be positive")
    return lam / (1.0 + kappa ** 2 * lam * h ** 2)


def compute_bounds(E: EigenSet,
                   kappa: float = DEFAULT_KAPPA) -> list[BoundedEigen]:
    """Guaranteed lower and upper bounds for a CR ladder, at every index.

    The lower bounds are :func:`cr_lower_bound`.  The upper bounds are the
    Ritz values of the pencil (A_2, M_2) of the P2 space on the same mesh,
    taken on the span of the ladder's eigenvectors lifted by
    :func:`cr_to_p2_lift`: that span is an m-dimensional subspace of the
    conforming space, so by the Poincare min-max principle its j-th Ritz
    value bounds the j-th continuous eigenvalue from above, for every
    j <= m.  Raises :class:`EigenSolveError` when the lifted vectors are
    numerically dependent (their Gram matrix in M_2 fails its Cholesky
    check), which independent eigenvectors cannot cause.

    The continuous operator is semidefinite, so a roundoff-negative
    eigenvalue or upper value (a pure-Neumann zero mode) is read as 0;
    ``eigs_smallest`` has already rejected anything below
    -min(1/2, 1e3 tol).
    """
    if E.family != CR:
        raise ValueError("guaranteed bounds require a Crouzeix-Raviart "
                         "ladder")
    mesh = E.space.mesh
    h = mesh.h
    p2 = build_space(mesh, P2)
    uppers = _ritz_values(*p2.pencil, cr_to_p2_lift(E.space, p2), E.vectors)
    out = []
    for lam, upper in zip(E.values, uppers):
        lam = max(float(lam), 0.0)
        out.append(BoundedEigen(lam, cr_lower_bound(lam, h, kappa),
                                max(float(upper), 0.0)))
    return out


def _ritz_values(A: SparseSymMatrix, M: SparseSymMatrix, L,
                 X: np.ndarray) -> np.ndarray:
    """Ascending Ritz values of (A, M) on the span of the columns of L X.

    The Gram matrices (L X)^T A (L X) and (L X)^T M (L X) are formed
    ``_RITZ_SLICE`` columns at a time, so no dense block of A's dimension
    by more than ``_RITZ_SLICE`` columns is ever held.
    """
    m = X.shape[1]
    G_A = np.empty((m, m))
    G_M = np.empty((m, m))
    for lo in range(0, m, _RITZ_SLICE):
        sl = slice(lo, lo + _RITZ_SLICE)
        Y = L @ X[:, sl]
        G_A[:, sl] = X.T @ (L.T @ (A @ Y))
        G_M[:, sl] = X.T @ (L.T @ (M @ Y))
    G_A = 0.5 * (G_A + G_A.T)
    G_M = 0.5 * (G_M + G_M.T)
    try:
        pivots = np.diag(sla.cholesky(G_M))
    except sla.LinAlgError:
        pivots = np.zeros(1)
    if not pivots.min() ** 2 > _GRAM_RTOL * G_M.diagonal().max():
        raise EigenSolveError("the lifted eigenvectors are numerically "
                              "dependent; no Rayleigh-Ritz upper bounds")
    return sla.eigh(G_A, G_M, eigvals_only=True)
