"""Sparse symmetric linear algebra.

CSR symmetric storage, LDL^T factorization of ``A - sigma*M`` with inertia
extraction (Sylvester eigenvalue counting), residual-checked solves with
iterative refinement, and a shift-invert Lanczos eigensolver for the smallest
generalized eigenpairs.  Every factorization is an RCM pre-order, then
symmetric-mode SuperLU: the reverse Cuthill-McKee order of A's pattern
(:attr:`SparseSymMatrix.ordering`, computed once per matrix) renumbers
``A - sigma*M`` before SuperLU's own ``MMD_AT_PLUS_A`` ordering, and the LU
is restricted to diagonal pivoting, which yields a unit-lower/diagonal
decomposition with a diagonal D.  SuperLU's minimum-degree ordering depends
on the incoming numbering: on the numbering that mesh refinement leaves it
took up to 9 times as long, with up to a third more fill, as after the
pre-order (P1 and CR pencils; P2 pencils of bisected meshes fill more after
it).  The pre-order is read from A alone, so it is the same at every shift
and ignores entries that cancel in ``A - sigma*M``; it suits the pencil as
long as M's pattern lies inside A's, as it does for every Laplace pencil of
:mod:`helmqo.spaces`.

Sparse pivots are read only where an inertia count is needed
(:func:`count_below`, :func:`solve`, or a read of a factorization's
``inertia``, ``L`` or ``D``).  SuperLU answers such a read with CSC copies of both triangular
factors, about 12 bytes per factor entry, kept for as long as the factor
lives; the shift-invert factor of :func:`eigs_smallest` never makes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee, structural_rank

DENSE_EIG_LIMIT = 200
RECOUNT_RTOL = 1e-8     # relative shift of count_from_factor's recounts
LANCZOS_MAXITER = 10000


class ResonanceError(RuntimeError):
    """The shift coincides numerically with a generalized eigenvalue."""


class EigenSolveError(RuntimeError):
    """Eigensolver failed to converge."""


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form storing the full pattern.

    The wrapped matrix must be exactly symmetric (this is checked).
    """

    def __init__(self, mat):
        m = sp.csr_matrix(mat)
        m.sum_duplicates()
        m.sort_indices()
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        d = m - m.T
        if d.nnz and abs(d).max() > 0:
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

    @cached_property
    def ordering(self) -> np.ndarray:
        """Reverse Cuthill-McKee order of the pattern, computed on first use
        and kept: row ``ordering[i]`` of the matrix is row ``i`` of the
        reordered one."""
        return reverse_cuthill_mckee(self._m, symmetric_mode=True).astype(
            np.intp)

    def to_scipy(self) -> sp.csr_matrix:
        return self._m

    def toarray(self) -> np.ndarray:
        return self._m.toarray()

    def __matmul__(self, other):
        return self._m @ other

    def __repr__(self) -> str:
        return f"SparseSymMatrix(n={self.n}, nnz={self._m.nnz})"


@dataclass
class EigenSolveOptions:
    """Options for :func:`eigs_smallest`."""

    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got "
                             f"{self.tol!r}")


@dataclass
class EigenResult:
    """Ascending generalized eigenvalues with M-orthonormal eigenvectors."""

    values: np.ndarray       # (m,)
    vectors: np.ndarray      # (n, m)
    residuals: np.ndarray    # (m,) norms of A x - lambda M x


class Factorization:
    """LDL^T factorization of ``K = A - sigma*M`` with inertia.

    ``perm`` is the fill-reducing permutation: the RCM pre-order composed
    with SuperLU's column order, so that ``K[perm][:, perm] == L @ U``.
    ``inertia`` counts the negative, zero and positive pivots.  ``L``
    is unit lower triangular and ``D`` diagonal: SuperLU's U is D L^T.

    An exactly singular factor knows its inertia at construction.
    Otherwise the first read of ``inertia`` (or ``n_neg``, ``n_zero``),
    ``L`` or ``D`` reads the pivots, and SuperLU keeps CSC copies of L and
    U for the factor's lifetime; the inertia is cached.
    ``singular`` and solves need neither.
    """

    def __init__(self, matrix: sp.csr_matrix, sigma: float,
                 perm: np.ndarray, inertia: tuple[int, int, int] | None,
                 payload, tol: float = 0.0,
                 order: np.ndarray | None = None):
        self.matrix = matrix
        self.sigma = sigma
        self.n = matrix.shape[0]
        self.perm = perm
        self._inertia = inertia
        self._tol = tol
        self._payload = payload
        # the pre-order SuperLU's matrix is in, and its inverse
        self._order = order
        self._unorder = None if order is None else np.argsort(order)

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
        """Unit lower-triangular factor (rows in ``perm`` order)."""
        return self._payload.L

    @property
    def D(self):
        """Diagonal factor: P K P^T = L D L^T."""
        return sp.diags(self._payload.U.diagonal())

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        y = self._payload.solve(b.take(self._order, axis=0))
        return y.take(self._unorder, axis=0)


def ldlt(A: SparseSymMatrix, sigma: float,
         M: SparseSymMatrix) -> Factorization:
    """Factorize ``A - sigma*M`` as P^T L D L^T P and report inertia.

    When ``n_zero`` is zero, ``n_neg`` equals the number of generalized
    eigenvalues of (A, M) strictly below ``sigma``.  A zero pivot is
    reported through ``n_zero > 0`` (the shift is numerically an
    eigenvalue), not raised.  Sparse pivots are read on the first inertia
    query, not here (see :class:`Factorization`).  SuperLU factors the
    matrix reordered by ``A.ordering``.
    """
    if M.n != A.n:
        raise ValueError("A and M must have the same dimension")
    K = (A.to_scipy() - sigma * M.to_scipy()).tocsr()
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
        order = A.ordering
        try:
            lu = spla.splu(K[order][:, order].tocsc(),
                           permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True, Equil=False))
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            singular = True
    if singular:
        # an exactly singular factor leaves the pivot signs unknown
        return Factorization(K, sigma, np.arange(n), (0, n, 0), None)
    # with perm = order[argsort(perm_c)]: K[perm][:, perm] == L @ U
    return Factorization(K, sigma, order[np.argsort(lu.perm_c)], None, lu,
                         tol, order)


def solve(F: Factorization, b: np.ndarray) -> np.ndarray:
    """Solve ``(A - sigma*M) x = b`` by F's LDL^T, or by partial-pivoting LU
    when F has a zero pivot, then up to three steps of iterative refinement.
    A relative residual above 1e-10 after them, or a matrix that LU finds
    singular, raises :class:`ResonanceError`."""
    b = np.asarray(b, dtype=np.float64)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros_like(b)
    base = F._raw_solve
    if F.n_zero > 0:
        try:
            base = spla.splu(F.matrix.tocsc()).solve
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            raise ResonanceError(f"shift {F.sigma!r} is an eigenvalue of "
                                 "the pencil (exactly singular)") from exc
    x = base(b)
    r = b - F.matrix @ x
    for _ in range(3):
        if np.linalg.norm(r) <= 1e-10 * nb:
            return x
        x = x + base(r)
        r = b - F.matrix @ x
    if np.linalg.norm(r) <= 1e-10 * nb:
        return x
    raise ResonanceError(
        f"shift {F.sigma!r} is numerically an eigenvalue of the pencil: "
        f"relative residual {np.linalg.norm(r) / nb:.1e} > 1e-10")


def count_below(A: SparseSymMatrix, M: SparseSymMatrix, sigma: float) -> int:
    """Exact number of generalized eigenvalues of (A, M) below ``sigma``,
    from Sylvester inertia (see :func:`count_from_factor`)."""
    return count_from_factor(ldlt(A, sigma, M), A, M)


def count_from_factor(F: Factorization, A: SparseSymMatrix,
                      M: SparseSymMatrix) -> int:
    """Number of eigenvalues of (A, M) below ``F.sigma``, read from the
    factor ``F = ldlt(A, F.sigma, M)`` that the caller already holds.

    A factor with a zero pivot (including one SuperLU was forced to pivot
    off the diagonal, whose pivots say nothing) is not trusted: the count
    is redone at ``sigma * (1 -+ RECOUNT_RTOL)``, and equal counts from two
    factors without a zero pivot prove that no eigenvalue lies between the
    two shifts, so that count is returned.  Otherwise ``sigma`` is
    numerically an eigenvalue of the pencil and :class:`ResonanceError` is
    raised.
    """
    if F.n_zero == 0:
        return F.n_neg
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


def _m_orthonormalize(X: np.ndarray, Msp: sp.csr_matrix) -> np.ndarray:
    G = X.T @ (Msp @ X)
    if abs(G - np.eye(G.shape[0])).max() <= 1e-13:
        return X
    R = sla.cholesky(G, lower=False)
    return sla.solve_triangular(R, X.T, lower=False, trans="T").T


def _residual_norms(Asp, Msp, vals, X) -> np.ndarray:
    R = Asp @ X - (Msp @ X) * vals
    return np.linalg.norm(R, axis=0)


def _check_semidefinite(vals: np.ndarray, tol: float) -> None:
    # a zero eigenvalue comes out within 1e-11 on pure-Neumann pencils of up
    # to 16,641 dofs; -1/2 is nearer the shift -1 than any semidefinite one
    if vals[0] < -min(0.5, 1e3 * tol):
        raise EigenSolveError(
            f"eigenvalue {vals[0]:.6g} is negative; "
            "is A positive semidefinite?")


def eigs_smallest(A: SparseSymMatrix, M: SparseSymMatrix, m: int,
                  opts: EigenSolveOptions | None = None) -> EigenResult:
    """The ``m`` algebraically smallest eigenpairs of ``A x = l M x``.

    A must be symmetric positive semidefinite, M symmetric positive
    definite.  Eigenvalues are ascending with multiplicities; eigenvectors
    are M-orthonormal.  Shift-invert Lanczos (shift -1, strictly below the
    spectrum) with a deterministic seeded start vector; dense fallback for
    small systems.  Each returned pair satisfies
    ``|A x - l M x| <= tol * (1 + |l|)``.

    The shift-invert factor's pivots are never read, so it holds no copy
    of its triangular factors.  Two checks guard the semidefinite
    contract and raise :class:`EigenSolveError`: an exactly singular
    ``A + M`` (``Factorization.singular``) before Lanczos starts, and a
    returned eigenvalue below ``-min(1/2, 1e3 * opts.tol)``, beyond the
    roundoff of a zero eigenvalue, on both the Lanczos and the dense path.
    """
    opts = opts or EigenSolveOptions()
    n = A.n
    if M.n != n:
        raise ValueError("A and M must have the same dimension")
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n:
        raise ValueError(f"requested {m} pairs from a dimension-{n} pencil")
    Asp, Msp = A.to_scipy(), M.to_scipy()

    if n <= DENSE_EIG_LIMIT or m >= n - 1:
        vals, X = sla.eigh(Asp.toarray(), Msp.toarray())
        vals, X = vals[:m], X[:, :m]
        _check_semidefinite(vals, opts.tol)
        X = _m_orthonormalize(X, Msp)
        res = _residual_norms(Asp, Msp, vals, X)
        return EigenResult(vals, X, res)

    F = ldlt(A, -1.0, M)
    if F.singular:
        raise EigenSolveError("shift-invert factorization broke down; "
                              "is A positive semidefinite?")
    opinv = spla.LinearOperator((n, n), matvec=F._raw_solve)
    v0 = np.random.default_rng(opts.seed).standard_normal(n)
    ncv = min(n, max(2 * m + 1, 20))     # Lanczos basis size

    for attempt in range(3):
        try:
            vals, X = spla.eigsh(Asp, k=m, M=Msp, sigma=-1.0, OPinv=opinv,
                                 v0=v0, which="LM", tol=1e-14,
                                 maxiter=LANCZOS_MAXITER, ncv=ncv)
        except spla.ArpackNoConvergence as exc:
            ncv = min(n, 2 * ncv)
            if attempt == 2:
                raise EigenSolveError(
                    f"Lanczos iteration did not converge: {exc}") from exc
            continue
        order = np.argsort(vals, kind="stable")
        vals, X = vals[order], X[:, order]
        _check_semidefinite(vals, opts.tol)
        X = _m_orthonormalize(X, Msp)
        res = _residual_norms(Asp, Msp, vals, X)
        if (res <= opts.tol * (1.0 + abs(vals))).all():
            return EigenResult(vals, X, res)
        ncv = min(n, 2 * ncv)
    raise EigenSolveError(
        "eigensolver residuals exceed tolerance "
        f"(max {res.max():.3e} vs tol {opts.tol:.1e})")
