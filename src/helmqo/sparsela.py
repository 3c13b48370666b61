"""Sparse symmetric linear algebra.

CSR symmetric storage, LDL^T factorization of ``A - sigma*M`` with inertia
extraction (Sylvester eigenvalue counting), residual-checked solves with
iterative refinement, and a shift-invert Lanczos eigensolver for the smallest
generalized eigenpairs.

The eigensolver is a thick-restart (symmetric Krylov-Schur) Lanczos on
``(A + M)^-1 M``, written here rather than called through ARPACK: its
basis of ``ncv + 1`` vectors is the only n-sized storage it keeps.  Each
step solves with the factor of ``A + M`` and M-orthogonalizes the new
vector against the whole basis twice; each restart, and the Ritz vectors
at the end, overwrite the basis's leading vectors in place.  A run stops
when every wanted Ritz estimate is at most ``LANCZOS_TOL`` relative to its
Ritz value; the result is then checked against the pencil itself (see
:func:`eigs_smallest`).

Every factorization is symmetric-mode SuperLU with its own
``MMD_AT_PLUS_A`` ordering, restricted to diagonal pivoting, which yields a
unit-lower/diagonal decomposition with a diagonal D.  It factors
``A - sigma*M`` in the numbering the pencil comes in, so that numbering
decides the fill: the pencils of :mod:`helmqo.spaces` come numbered in the
reverse Cuthill-McKee order of their free dofs (see there).

Sparse pivots are read only where an inertia count is needed
(:func:`count_below`, :func:`solve`, or a read of a factorization's
``inertia`` or ``L``).  SuperLU answers such a read with CSC copies of both
triangular factors, about 12 bytes per factor entry, kept for as long as
the factor lives; the shift-invert factor of :func:`eigs_smallest` never
makes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import structural_rank

DENSE_EIG_LIMIT = 200
RECOUNT_RTOL = 1e-8     # relative offset of a recount from its shift or value
LANCZOS_MAXITER = 10000     # restarts of one Lanczos run
LANCZOS_TOL = 1e-14         # Ritz estimate relative to |theta| at convergence
RESIDUAL_TOL = 1e-10        # |A x - l M x| / (1 + |l|) of an accepted pair
_SLICE_BYTES = 2 ** 20      # n-sized temporaries, per slice of columns


class ResonanceError(RuntimeError):
    """The shift coincides numerically with a generalized eigenvalue."""


class EigenSolveError(RuntimeError):
    """Eigensolver failed to converge."""


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form storing the full pattern.

    Explicitly stored zeros are dropped, and what is left must be exactly
    symmetric: it must equal its transpose entry for entry (this is
    checked).
    """

    def __init__(self, mat):
        m = sp.csr_matrix(mat)
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        # summing duplicates or dropping zeros may leave views on the
        # longer arrays before it
        if m.indices.base is not None:
            m.indices = m.indices.copy()
        if m.data.base is not None:
            m.data = m.data.copy()
        t = m.T.tocsr()
        if not (np.array_equal(m.indices, t.indices)
                and np.array_equal(m.indptr, t.indptr)
                and np.array_equal(m.data, t.data)):
            raise ValueError("matrix must be symmetric")
        self._m = m

    @property
    def n(self) -> int:
        return self._m.shape[0]

    @property
    def indptr(self) -> np.ndarray:
        return self._m.indptr

    @property
    def indices(self) -> np.ndarray:
        return self._m.indices

    @property
    def data(self) -> np.ndarray:
        return self._m.data

    def to_scipy(self) -> sp.csr_matrix:
        return self._m

    def toarray(self) -> np.ndarray:
        return self._m.toarray()

    def __matmul__(self, other):
        return self._m @ other

    def __repr__(self) -> str:
        return f"SparseSymMatrix(n={self.n}, nnz={self._m.nnz})"


@dataclass
class EigenResult:
    """Ascending generalized eigenvalues with M-orthonormal eigenvectors."""

    values: np.ndarray       # (m,)
    vectors: np.ndarray      # (n, m)


class Factorization:
    """LDL^T factorization of ``K = A - sigma*M`` with inertia.

    ``inertia`` counts the negative, zero and positive pivots.  ``L`` is
    the unit lower triangular factor; SuperLU's U is D L^T with D diagonal.
    The factor keeps SuperLU's factor and the pencil (A, M) it was made
    from, for :func:`count_from_factor`'s recounts and :func:`solve`'s
    residuals, but not K.

    An exactly singular factor knows its inertia at construction.
    Otherwise the first read of ``inertia`` (or ``n_neg``, ``n_zero``) or
    ``L`` reads the pivots, and SuperLU keeps CSC copies of L and U for the
    factor's lifetime; the inertia is cached.  ``singular`` and solves
    need neither.
    """

    def __init__(self, sigma: float,
                 pencil: tuple[SparseSymMatrix, SparseSymMatrix],
                 inertia: tuple[int, int, int] | None,
                 payload, tol: float = 0.0):
        self.sigma = sigma
        self.n = pencil[0].n
        self._pencil = pencil
        self._inertia = inertia
        self._tol = tol
        self._payload = payload

    @property
    def singular(self) -> bool:
        """Whether the factor is known singular without reading its
        pivots: ``ldlt``'s exactly singular path, or an off-diagonal pivot
        SuperLU was forced into."""
        lu = self._payload
        return lu is None or not np.array_equal(lu.perm_r, lu.perm_c)

    @property
    def inertia(self) -> tuple[int, int, int]:
        if self._inertia is None:
            du = self._payload.U.diagonal()
            neg = int((du < -self._tol).sum())
            pos = int((du > self._tol).sum())
            zero = self.n - neg - pos
            if self.singular:
                # off-diagonal pivoting was forced by an exactly singular
                # pivot
                zero = max(zero, 1)
                pos = self.n - neg - zero
            self._inertia = (neg, zero, pos)
        return self._inertia

    @property
    def n_neg(self) -> int:
        return self.inertia[0]

    @property
    def n_zero(self) -> int:
        return self.inertia[1]

    @property
    def L(self):
        """Unit lower-triangular factor of K reordered by SuperLU's column
        order."""
        return self._payload.L

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        return self._payload.solve(b)


def ldlt(A: SparseSymMatrix, sigma: float,
         M: SparseSymMatrix) -> Factorization:
    """Factorize ``A - sigma*M`` by LDL^T and report inertia.

    When ``n_zero`` is zero, ``n_neg`` equals the number of generalized
    eigenvalues of (A, M) strictly below ``sigma``.  A zero pivot is
    reported through ``n_zero > 0`` (the shift is numerically an
    eigenvalue), not raised.  Sparse pivots are read on the first inertia
    query, not here (see :class:`Factorization`).  SuperLU factors the
    CSC view ``K.T`` of ``K = A - sigma*M`` in the pencil's own numbering,
    and K is freed on return.
    """
    if M.n != A.n:
        raise ValueError("A and M must have the same dimension")
    # exactly symmetric, so its transpose K.T is a CSC view of K itself
    K = A.to_scipy() - sigma * M.to_scipy()
    # zero detection is relative to the unshifted data, not to K,
    # which may be uniformly tiny near a resonance
    scale = max(abs(A.data).max() if len(A.data) else 0.0,
                abs(sigma) * (abs(M.data).max() if len(M.data) else 0.0))
    n = K.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    tol = n * np.finfo(float).eps * max(scale, np.finfo(float).tiny)

    # SuperLU may crash rather than raise on a structurally singular
    # matrix; only a zero on the diagonal makes one possible
    singular = (K.diagonal() == 0.0).any() and structural_rank(K) < n
    if not singular:
        try:
            lu = spla.splu(K.T, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True, Equil=False))
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            singular = True
    if singular:
        # an exactly singular factor leaves the pivot signs unknown
        return Factorization(sigma, (A, M), (0, n, 0), None)
    return Factorization(sigma, (A, M), None, lu, tol)


def solve(F: Factorization, b: np.ndarray) -> np.ndarray:
    """Solve ``(A - sigma*M) x = b`` by F's LDL^T, or by partial-pivoting LU
    when F has a zero pivot, then up to three steps of iterative refinement.
    A relative residual above 1e-10 after them, or a matrix that LU finds
    singular, raises :class:`ResonanceError`.  ``A - sigma*M`` is formed
    from F's pencil once per call, for the residuals and the LU."""
    b = np.asarray(b, dtype=np.float64)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros_like(b)
    A, M = F._pencil
    K = A.to_scipy() - F.sigma * M.to_scipy()
    base = F._raw_solve
    if F.n_zero > 0:
        try:
            base = spla.splu(K.T).solve
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            raise ResonanceError(f"shift {F.sigma!r} is an eigenvalue of "
                                 "the pencil (exactly singular)") from exc
    x = base(b)
    r = b - K @ x
    for _ in range(3):
        if np.linalg.norm(r) <= 1e-10 * nb:
            return x
        x = x + base(r)
        r = b - K @ x
    if np.linalg.norm(r) <= 1e-10 * nb:
        return x
    raise ResonanceError(
        f"shift {F.sigma!r} is numerically an eigenvalue of the pencil: "
        f"relative residual {np.linalg.norm(r) / nb:.1e} > 1e-10")


def count_below(A: SparseSymMatrix, M: SparseSymMatrix, sigma: float) -> int:
    """Exact number of generalized eigenvalues of (A, M) below ``sigma``,
    from Sylvester inertia (see :func:`count_from_factor`)."""
    return count_from_factor(ldlt(A, sigma, M))


def count_from_factor(F: Factorization) -> int:
    """Number of eigenvalues of (A, M) below ``F.sigma``, read from the
    factor ``F = ldlt(A, F.sigma, M)`` that the caller already holds.

    A factor with a zero pivot (including one SuperLU was forced to pivot
    off the diagonal, whose pivots say nothing) is not trusted: the count
    is redone on F's own A and M at ``sigma * (1 -+ RECOUNT_RTOL)``, and
    equal counts from two factors without a zero pivot prove that no
    eigenvalue lies between the two shifts, so that count is returned.
    Otherwise ``sigma`` is numerically an eigenvalue of the pencil and
    :class:`ResonanceError` is raised.
    """
    if F.n_zero == 0:
        return F.n_neg
    A, M = F._pencil
    counts = []
    for s in (F.sigma * (1.0 - RECOUNT_RTOL), F.sigma * (1.0 + RECOUNT_RTOL)):
        G = ldlt(A, s, M)
        if G.n_zero > 0:
            break
        counts.append(G.n_neg)
    if len(counts) == 2 and counts[0] == counts[1]:
        return counts[0]
    raise ResonanceError(
        f"shift {F.sigma!r} is numerically an eigenvalue of the pencil "
        "(resonant at this mesh)")


def _column_slices(X: np.ndarray) -> list[slice]:
    """Slices of X's columns with at most ``_SLICE_BYTES`` in each."""
    step = max(1, _SLICE_BYTES // (8 * X.shape[0]))
    return [slice(lo, lo + step) for lo in range(0, X.shape[1], step)]


def _m_orthonormalize(X: np.ndarray, Msp: sp.csr_matrix) -> np.ndarray:
    G = np.empty((X.shape[1], X.shape[1]))
    for sl in _column_slices(X):
        G[:, sl] = X.T @ (Msp @ X[:, sl])
    if abs(G - np.eye(G.shape[0])).max() <= 1e-13:
        return X
    R = sla.cholesky(G, lower=False)
    return sla.solve_triangular(R, X.T, lower=False, trans="T").T


def _residual_norms(Asp, Msp, vals, X) -> np.ndarray:
    res = np.empty(len(vals))
    for sl in _column_slices(X):
        R = Asp @ X[:, sl] - (Msp @ X[:, sl]) * vals[sl]
        res[sl] = np.linalg.norm(R, axis=0)
    return res


def _check_semidefinite(vals: np.ndarray) -> None:
    # a zero eigenvalue comes out within 1e-11 on pure-Neumann pencils of up
    # to 16,641 dofs
    if vals[0] < -1e3 * RESIDUAL_TOL:
        raise EigenSolveError(
            f"eigenvalue {vals[0]:.6g} is negative; "
            "is A positive semidefinite?")


def _append(Q: np.ndarray, j: int, w: np.ndarray, Msp: sp.csr_matrix,
            rng: np.random.Generator):
    """Store ``w``, M-orthogonalized against ``Q[:j]``, as the M-unit row
    ``Q[j]``; ``w`` is overwritten.  Returns the coefficients removed,
    the M-norm that was left (the Lanczos beta) and ``M Q[j]``.

    Two classical Gram-Schmidt passes in the M inner product.  When the
    second removes more than ``1 - 1/sqrt(2)`` of what the first left, ``w``
    lay in the span of ``Q[:j]`` to working precision (Kahan-Parlett): that
    span is invariant, the Lanczos recurrence has broken down, and a fresh
    vector from ``rng`` takes ``w``'s place with beta = 0.
    """
    h = np.zeros(j)
    Mw = Msp @ w
    norms = []
    for _ in range(2):
        c = Q[:j] @ Mw
        w -= c @ Q[:j]
        h += c
        Mw = Msp @ w
        norms.append(np.sqrt(max(w @ Mw, 0.0)))
    beta = norms[1]
    if not beta > 0.717 * norms[0]:
        _, _, Mq = _append(Q, j, rng.standard_normal(len(w)), Msp, rng)
        return h, 0.0, Mq
    np.divide(w, beta, out=Q[j])
    return h, beta, Mw / beta


def _rotate(Q: np.ndarray, Y: np.ndarray) -> None:
    """``Q[:k] = Y^T Q[:p]`` in place for Y of shape (p, k), one slice of
    Q's columns at a time."""
    p, k = Y.shape
    for sl in _column_slices(Q[:p]):
        Q[:k, sl] = Y.T @ Q[:p, sl]


def _lanczos(solve, Msp: sp.csr_matrix, m: int, ncv: int,
             seed: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Thick-restart Lanczos for ``OP = solve(M .)``, self-adjoint in the M
    inner product: the ``m`` Ritz values theta of largest modulus, as the
    eigenvalues ``1/theta - 1`` of the pencil in ascending order, and their
    M-orthonormal Ritz vectors as the rows of an (m, n) array.  None when
    ``LANCZOS_MAXITER`` restarts leave a wanted pair unconverged.

    The basis Q holds ``ncv + 1`` rows and is all the n-sized storage: the
    symmetric Krylov-Schur restart (Wu & Simon, SIAM J. Matrix Anal. Appl.
    2000; Stewart, ibid. 2001) keeps the ``(m + ncv) // 2`` Ritz vectors of
    largest |theta| in Q's leading rows, and the returned vectors are Q's
    first m rows, shrunk in place.  A pair has converged when its Ritz
    estimate ``|beta y_last|`` is at most ``LANCZOS_TOL * |theta|``.
    """
    n = Msp.shape[0]
    rng = np.random.default_rng(seed)
    Q = np.empty((ncv + 1, n))
    T = np.zeros((ncv, ncv))        # the projection Q^T M OP Q
    _, _, Mq = _append(Q, 0, rng.standard_normal(n), Msp, rng)
    k = 0
    for _ in range(LANCZOS_MAXITER):
        for j in range(k, ncv):
            h, beta, Mq = _append(Q, j + 1, solve(Mq), Msp, rng)
            T[j, j] = h[j]
            if j + 1 < ncv:
                T[j, j + 1] = T[j + 1, j] = beta
        theta, Y = np.linalg.eigh(T)
        order = np.argsort(-abs(theta), kind="stable")
        wanted = order[:m]
        if (abs(beta * Y[-1, wanted])
                <= LANCZOS_TOL * abs(theta[wanted])).all():
            vals = 1.0 / theta[wanted] - 1.0
            ascending = np.argsort(vals, kind="stable")
            _rotate(Q, Y[:, wanted[ascending]])
            Q.resize((m, n), refcheck=False)   # no view of Q is left
            return vals[ascending], Q
        k = (m + ncv) // 2
        keep = order[:k]
        _rotate(Q, Y[:, keep])
        Q[k] = Q[ncv]
        T[:] = 0.0
        T[:k, :k] = np.diag(theta[keep])
        T[k, :k] = T[:k, k] = beta * Y[-1, keep]
    return None


def _accept(Asp, Msp, vals, X) -> tuple[EigenResult, float]:
    """The pairs, X M-orthonormalized, and their largest residual
    ``|A x - l M x| / (1 + |l|)``; a negative eigenvalue raises."""
    _check_semidefinite(vals)
    X = _m_orthonormalize(X, Msp)
    worst = (_residual_norms(Asp, Msp, vals, X) / (1.0 + abs(vals))).max()
    return EigenResult(vals, X), worst


def eigs_smallest(A: SparseSymMatrix, M: SparseSymMatrix, m: int,
                  seed: int = 0) -> EigenResult:
    """The ``m`` algebraically smallest eigenpairs of ``A x = l M x``.

    A must be symmetric positive semidefinite, M symmetric positive
    definite.  Eigenvalues are ascending with multiplicities; eigenvectors
    are M-orthonormal.  Each returned pair satisfies
    ``|A x - l M x| <= RESIDUAL_TOL * (1 + |l|)``, on either path below;
    a result that misses it raises :class:`EigenSolveError`.

    Pencils of at most ``DENSE_EIG_LIMIT`` dofs, and requests with
    ``2m + 1 >= n - 1``, are solved densely.  Otherwise thick-restart
    Lanczos (:func:`_lanczos`) runs on ``(A + M)^-1 M``, the shift-invert
    operator at -1, strictly below the spectrum, from a start vector drawn
    from ``seed``, with a basis of ``ncv = 2m + 1`` vectors (at least
    20).  Its working set is the basis, n (ncv + 1) floats, and the factor
    of ``A + M``; the checks on its result run a few columns at a time.  A
    result that misses the residual bound, or ``LANCZOS_MAXITER`` restarts
    without convergence, is retried with ``ncv`` doubled, at most twice
    and only while ``ncv`` still grows (it is capped at ``n - 1``).

    The shift-invert factor's pivots are never read, so it holds no copy
    of its triangular factors.  Two checks guard the semidefinite
    contract and raise :class:`EigenSolveError`: an exactly singular
    ``A + M`` (``Factorization.singular``) before Lanczos starts, and a
    returned eigenvalue below ``-1e3 * RESIDUAL_TOL``, beyond the roundoff
    of a zero eigenvalue, on both the Lanczos and the dense path.  Lanczos
    takes the Ritz values of largest modulus, so a negative eigenvalue
    whose shift-invert image is large in modulus is found.
    """
    n = A.n
    if M.n != n:
        raise ValueError("A and M must have the same dimension")
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n:
        raise ValueError(f"requested {m} pairs from a dimension-{n} pencil")
    Asp, Msp = A.to_scipy(), M.to_scipy()

    if n <= DENSE_EIG_LIMIT or 2 * m + 1 >= n - 1:
        vals, X = sla.eigh(Asp.toarray(), Msp.toarray())
        res, worst = _accept(Asp, Msp, vals[:m], X[:, :m])
    else:
        F = ldlt(A, -1.0, M)
        if F.singular:
            raise EigenSolveError("shift-invert factorization broke down; "
                                  "is A positive semidefinite?")
        ncv = min(n - 1, max(2 * m + 1, 20))     # Lanczos basis size
        for _ in range(3):
            found = _lanczos(F._raw_solve, Msp, m, ncv, seed)
            if found is not None:
                vals, Q = found
                res, worst = _accept(Asp, Msp, vals, Q.T)
                if worst <= RESIDUAL_TOL:
                    return res
            if ncv == n - 1:
                break
            ncv = min(n - 1, 2 * ncv)
        if found is None:
            raise EigenSolveError(f"Lanczos iteration did not converge in "
                                  f"{LANCZOS_MAXITER} restarts")
    if not worst <= RESIDUAL_TOL:
        raise EigenSolveError(
            f"relative eigenpair residual {worst:.3e} exceeds "
            f"{RESIDUAL_TOL:.1e}")
    return res
