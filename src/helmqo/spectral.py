"""Eigenvalue ladders, the stability criterion, and guaranteed CR bounds.

The central object is the ordered ladder of discrete Laplace eigenvalues on
the free (Dirichlet-constrained) space, held as the eigensolver's
:class:`helmqo.sparsela.EigenResult`; the functions that read the mesh
take the space beside it.  A wave number k^2 placed strictly
between two consecutive ladder values makes the Helmholtz bilinear form
stable (sign-flipping coercivity) with an explicit constant; for
Crouzeix-Raviart discretizations the ladder can additionally be enclosed by
guaranteed lower and upper bounds at every index; from those,
:func:`helmqo.certify.run_gmr` estimates and certifies the number of
continuous eigenvalues below k^2.

The upper bounds are one Rayleigh-Ritz step on the ladder lifted into P2.
Its two Gram matrices are summed element by element from the local P2
matrices, a fixed slice of triangles at a time, so neither the P2 pencil
nor the lifted block is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .spaces import CR, P2, DofSpace, element_matrices
from .sparsela import (RECOUNT_RTOL, ZERO_EIGENVALUE_TOL, EigenResult,
                       EigenSolveError, count_below, eigs_smallest)

# the CR interpolation constant C_h / h in the lower bound; Liu proved 0.1893
KAPPA = 0.1932
_SLICE_TRIANGLES = 512    # triangles per slice of the Gram sums
# smallest Cholesky pivot^2 of the lifted Gram matrix, relative to its
# largest diagonal entry, below which the lifted vectors count as dependent
_GRAM_RTOL = 1e-8


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
                 seed: int = 0) -> EigenResult:
    """The ``m`` smallest eigenpairs (at most ``n_free``) of the space's
    constrained pencil, as :func:`helmqo.sparsela.eigs_smallest` returns
    them, checked against the LDL^T inertia counts the caller holds.

    ``counts`` maps each shift the caller reads the ladder at to its
    inertia count there (:func:`helmqo.sparsela.count_below`).  Raises
    :class:`EigenSolveError` unless exactly ``count`` ladder values lie
    below each ``shift``, so every index read off the ladder at a shift
    is the index of that eigenvalue.
    """
    if space.n_free == 0:
        raise ValueError("space has no free degrees of freedom")
    E = eigs_smallest(*space.pencil, min(m, space.n_free), seed)
    _check_counts(E.values, counts)
    return E


def check_complete(space: DofSpace, values: np.ndarray) -> None:
    """Prove that the ladder ``values`` of the space's pencil misses no
    eigenvalue below its last value: one inertia count at
    ``values[-1] * (1 - RECOUNT_RTOL)`` must equal the number of ladder
    values below that shift, or :class:`EigenSolveError` is raised.

    A ladder whose last value is at most ``ZERO_EIGENVALUE_TOL`` needs no
    count: the pencil is semidefinite, so its eigenvalues at those indices
    lie between 0 and the ladder's values (a pure-Neumann zero mode).
    """
    top = float(values[-1])
    if top <= ZERO_EIGENVALUE_TOL:
        return
    shift = top * (1.0 - RECOUNT_RTOL)
    _check_counts(values, {shift: count_below(*space.pencil, shift)})


def _check_counts(values: np.ndarray, counts: dict[float, int]) -> None:
    """Raise :class:`EigenSolveError` unless exactly ``count`` of the
    ladder ``values`` lie below each ``shift: count`` of ``counts``."""
    for shift, count in counts.items():
        found = int((values < shift).sum())
        if found != count:
            raise EigenSolveError(
                f"{found} ladder values lie below {shift!r}, but the LDL^T "
                f"inertia counts {count}")


def check_criterion(E: EigenResult, k2: float, i_star: int) -> Criterion:
    """Check lambda^(i*) < k^2 < lambda^(i*+1) on the ladder.

    ``i_star = 0`` means k^2 is expected below the whole spectrum and only
    the upper comparison applies.  ``alpha_star`` is the coercivity
    constant min |lambda - k^2| / (1 + lambda) over the available pairs;
    it is meaningful when the criterion holds.
    """
    if i_star < 0:
        raise ValueError("i_star must be >= 0")
    if len(E.values) < i_star + 1:
        raise ValueError(f"ladder has {len(E.values)} pairs, "
                         f"need {i_star + 1}")
    lam = E.values
    lambda_lo = float(lam[i_star - 1]) if i_star >= 1 else 0.0
    lambda_hi = float(lam[i_star])
    satisfied = lambda_lo < k2 < lambda_hi if i_star >= 1 else k2 < lambda_hi
    alpha = float(np.min(np.abs(lam - k2) / (1.0 + lam)))
    return Criterion(lambda_lo, lambda_hi, satisfied, alpha)


def cr_lower_bound(lam: float, h: float | np.ndarray) -> float | np.ndarray:
    """Guaranteed lower bound lambda / (1 + KAPPA^2 lambda h^2).

    Liu, "A framework of verified eigenvalue bounds for self-adjoint
    differential operators" (Appl. Math. Comput. 2015): if the CR
    interpolation Pi_h is a_h-orthogonal to the CR space (it keeps edge
    means, and CR gradients are elementwise constant) and
    ||u - Pi_h u|| <= C_h ||grad_h (u - Pi_h u)|| with C_h = 0.1893 h, then
    lambda_j >= lambda_h,j / (1 + C_h^2 lambda_h,j) for every
    j <= dim V_h, with no condition on the mesh size.  ``KAPPA`` = 0.1932
    only lowers the bound below the one at 0.1893, so it is valid too.
    ``lam`` is the j-th CR eigenvalue and ``h`` the global mesh size
    (largest element diameter), or an array of sizes, each positive.
    """
    if lam < 0:
        raise ValueError("eigenvalue must be nonnegative")
    if np.min(h) <= 0:
        raise ValueError("mesh size must be positive")
    return lam / (1.0 + KAPPA ** 2 * lam * h ** 2)


def cr_bound_preimage(t: float, h: float) -> float:
    """The lambda whose :func:`cr_lower_bound` at mesh size ``h`` is ``t``,
    t / (1 - t (KAPPA h)^2); inf when t >= 1/(KAPPA h)^2, the value the
    bound approaches as lambda grows but never reaches."""
    return (np.inf if t >= 1.0 / (KAPPA * h) ** 2
            else t / (1.0 - t * (KAPPA * h) ** 2))


def cr_certifies(bounds: list[BoundedEigen], k2: float, i: int, h):
    """Whether the CR ``bounds`` certify index ``i`` at mesh size ``h``
    (elementwise for an array): (A) lower^(i+1) >= k^2 and, for i >= 1,
    (B) the i-th enclosure is narrower than k^2 - lambda_h^(i), the lower
    bounds taken at ``h``.  Then the index can no longer change."""
    ok = cr_lower_bound(bounds[i].lam, h) >= k2
    if i:
        b = bounds[i - 1]
        ok = ok & (b.upper - cr_lower_bound(b.lam, h) < k2 - b.lam)
    return ok


def compute_bounds(space: DofSpace, E: EigenResult) -> list[BoundedEigen]:
    """Guaranteed lower and upper bounds for the ladder ``E`` of the CR
    ``space``, at every index.

    The lower bounds are :func:`cr_lower_bound`, at the fixed ``KAPPA``.
    The upper bounds are the Ritz values of the pencil (A_2, M_2) of the
    P2 space on the same mesh, taken on the span of the ladder's
    eigenvectors lifted into P2 (see
    :func:`_p2_lifts`): that span is an m-dimensional subspace of the
    conforming space, so by the Poincare min-max principle its j-th Ritz
    value bounds the j-th continuous eigenvalue from above, for every
    j <= m.  The Gram matrices Y^T A_2 Y and Y^T M_2 Y of the lifted
    vectors Y are summed element by element, ``_SLICE_TRIANGLES``
    triangles at a time, so neither the P2 pencil nor the lifted block is
    ever formed.  Raises :class:`EigenSolveError` when the lifted vectors
    are numerically dependent (their Gram matrix in M_2 fails its
    Cholesky check), which independent eigenvectors cannot cause.

    The continuous operator is semidefinite, so a roundoff-negative
    eigenvalue or upper value (a pure-Neumann zero mode) is read as 0;
    ``eigs_smallest`` has already rejected anything below
    ``-ZERO_EIGENVALUE_TOL`` = -1e-7 and checked every pair's residual.
    """
    if space.family != CR:
        raise ValueError("guaranteed bounds require a Crouzeix-Raviart "
                         "ladder")
    mesh = space.mesh
    m = len(E.values)
    G_A = np.zeros((m, m))
    G_M = np.zeros((m, m))
    for triangles, Y in _p2_lifts(space, E.vectors):
        Yt = Y.reshape(-1, m).T
        for G, mass in ((G_A, False), (G_M, True)):
            local = element_matrices(mesh, P2, triangles, mass)
            G += Yt @ (local @ Y).reshape(-1, m)
    h = mesh.h
    out = []
    for lam, upper in zip(E.values, _ritz_values(G_A, G_M)):
        lam = max(float(lam), 0.0)
        out.append(BoundedEigen(lam, cr_lower_bound(lam, h),
                                max(float(upper), 0.0)))
    return out


def _p2_lifts(space: DofSpace, X: np.ndarray):
    """The CR functions with free coefficient columns ``X``, lifted into
    P2: per slice of ``_SLICE_TRIANGLES`` triangles, yields the slice and
    the local P2 coefficients (nt, 6, m) of the lifts there.

    A lift keeps the CR values at the edge midpoints and takes at each
    vertex the mean of the CR function's elementwise limits there
    (:func:`_cr_vertex_average`); Dirichlet dofs are 0.  The result is
    conforming, and the lift is injective because every free CR dof
    reappears as a P2 edge dof.
    """
    mesh = space.mesh
    vertex = _cr_vertex_average(space, X)
    for lo in range(0, mesh.n_triangles, _SLICE_TRIANGLES):
        triangles = slice(lo, lo + _SLICE_TRIANGLES)
        yield triangles, np.concatenate(
            [vertex[mesh.triangles[triangles]],
             space.cell_values(X, triangles)], axis=1)


def _cr_vertex_average(space: DofSpace, X: np.ndarray) -> np.ndarray:
    """(n_vertices, m) vertex means of the CR functions with free
    coefficient columns ``X``, 0 at Dirichlet vertices.

    Vertex ``v`` takes the mean, over the triangles at ``v``, of the
    elementwise limit ``sum(c_t) - 2 c_i`` of the CR function at ``v``
    (local vertex ``i``, whose opposite edge carries ``c_i``).  The limits
    are formed one column of ``X`` at a time.
    """
    mesh = space.mesh
    corners = mesh.triangles.ravel()
    out = np.empty((mesh.n_vertices, X.shape[1]))
    for j in range(X.shape[1]):
        limits = space.cell_values(X[:, j])                     # (nt, 3)
        limits = limits.sum(axis=1, keepdims=True) - 2.0 * limits
        out[:, j] = np.bincount(corners, limits.ravel(), mesh.n_vertices)
    # no zero count: Mesh puts every vertex in a triangle
    out /= np.bincount(corners)[:, None]
    out[mesh.dirichlet_vertices()] = 0.0
    return out


def _ritz_values(G_A: np.ndarray, G_M: np.ndarray) -> np.ndarray:
    """Ascending Ritz values of the pencil whose Gram matrices on a trial
    span are ``G_A`` and ``G_M``, after checking that the span's basis is
    numerically independent."""
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
