"""Sparse symmetric linear algebra.

CSR symmetric storage, LDL^T factorization of ``A - sigma*M`` with inertia
extraction (Sylvester eigenvalue counting), residual-checked solves with
iterative refinement, and a shift-invert Lanczos eigensolver for the smallest
generalized eigenpairs.

The eigensolver is a block thick-restart (Krylov-Schur) Lanczos on
``(A + M)^-1 M``, written here rather than called through ARPACK.  Each
step solves with the factor of ``A + M`` for a block of
``LANCZOS_BLOCK = 4`` right-hand sides in one call, so a restart cycle can
hold four copies of an eigenvalue, and M-orthogonalizes the new block
against the whole basis twice, each time followed by orthonormalization
within the block; a direction that vanishes is replaced by a fresh vector.
Each restart, and the Ritz vectors at the end, overwrite the basis's
leading vectors in place.  A run stops when every wanted Ritz estimate is
at most ``LANCZOS_TOL`` relative to its Ritz value in a cycle that took no
fresh vector and did not start from one.  Its working set, and the one
rule that accepts or rejects its result, are stated in
:func:`eigs_smallest`.

Every factorization is symmetric-mode SuperLU with its own
``MMD_AT_PLUS_A`` ordering, restricted to diagonal pivoting, which yields a
unit-lower/diagonal decomposition with a diagonal D.  It factors
``A - sigma*M`` in the numbering the pencil comes in, so that numbering
decides the fill: the pencils of :mod:`helmqo.spaces` come numbered in the
reverse Cuthill-McKee order of their free dofs (see there).

``A - sigma*M`` is formed in two places only: by :func:`ldlt` for
SuperLU, which frees it as soon as SuperLU returns, before it trims the
heap, and by :func:`solve` for its partial-pivoting fallback when the
factor has a zero pivot.  Residuals are computed from the pencil, as
``A x - sigma (M x)``.

Sparse pivots are read only where an inertia count is needed
(:func:`count_below`, :func:`count_from_factor`, or a read of a
factorization's ``inertia`` or ``L``), and by :func:`solve` only when its
refined residual misses the bound.  SuperLU answers such a read with CSC
copies of both triangular factors, about 12 bytes per factor entry, kept
for as long as the factor lives; the shift-invert factor of
:func:`eigs_smallest`, and a factor that only solves, never makes them.

Besides the factor, SuperLU's ``dgstrf`` holds a workspace of about
16 bytes x panel width x n while it factors (its dense, ``repfnz`` and
``panel_lsub`` arrays); :func:`ldlt` factors one column per panel, so the
workspace stays small.  A freed factor or workspace leaves the C
library's heap resident, and this module returns it to the OS itself
(``malloc_trim(0)`` where the library has it, glibc): :func:`ldlt`
before it forms ``A - sigma*M`` for SuperLU and again once SuperLU has
returned and that matrix is freed, and :func:`eigs_smallest` and
:func:`count_below` once they have dropped their own factor.  A caller
that drops a factor it holds leaves that heap to the next factorization's
trim.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dgemm
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import structural_rank

DENSE_EIG_LIMIT = 200
RECOUNT_RTOL = 1e-8     # relative offset of a recount from its shift or value
LANCZOS_BLOCK = 4           # vectors per Lanczos step
LANCZOS_MAXITER = 10000     # restarts of one Lanczos run
_VANISH_RTOL = 1e-10        # share of a Lanczos direction's M-norm that is
#                             noise (5e-15 to 2e-14) when it vanished
LANCZOS_TOL = 1e-14         # Ritz estimate relative to |theta| at convergence
RESIDUAL_TOL = 1e-10        # |A x - l M x| / (1 + |l|) of an accepted pair
_SOLVE_RTOL = 1e-10         # |b - (A - sigma M) x| / |b| of an accepted solve
ZERO_EIGENVALUE_TOL = 1e3 * RESIDUAL_TOL    # roundoff of a zero eigenvalue
_SLICE_BYTES = 2 ** 20      # n-sized temporaries, per slice of columns
_LIBC = ctypes.CDLL(None)   # the C library the interpreter is linked with
# columns per SuperLU panel, which sizes dgstrf's workspace (see above) but
# not the fill: on the 76,480-dof CR pencil of A + M, lu.nnz is 2,753,062
# at width 1 and at SciPy's default 20, and the factorization's peak above
# the factor it leaves (K included) falls from 29.1-29.4 to 7.0-7.2 MiB
# (15.1-18.4 to 3.3-6.5 MiB on the 36,481-dof P1 pencil at k^2 = 100).
# Width 1 also factors faster (285-348 -> 146-163 ms there, 126 -> 94 ms
# on the P1 pencil; solves are unchanged), and the 224-dof flagship pencil
# counts 29 at 814.8608240817107 at widths 1 and 20 but 27 at 4.
_PANEL_SIZE = 1


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
    factor's lifetime; the inertia is cached.  ``singular`` needs neither,
    and :func:`solve` reads ``n_zero`` only when the factor's refined
    residual misses its bound.
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
    and K is freed as soon as SuperLU returns.

    SuperLU factors one column per panel (``_PANEL_SIZE``), so its
    workspace is a few n-sized arrays rather than a dense panel block.
    The C library's heap is trimmed before K is formed, returning what the
    caller freed, such as a factor it dropped, so that K and SuperLU do
    not settle among free pages that stay resident; and again after
    SuperLU returns, returning the workspace and K, so that neither stays
    resident under the factor.
    """
    if M.n != A.n:
        raise ValueError("A and M must have the same dimension")
    _trim_heap()
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
                           diag_pivot_thresh=0.0, panel_size=_PANEL_SIZE,
                           options=dict(SymmetricMode=True, Equil=False))
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            singular = True
        del K       # so that the trim returns its pages too
        _trim_heap()
    if singular:
        # an exactly singular factor leaves the pivot signs unknown
        return Factorization(sigma, (A, M), (0, n, 0), None)
    return Factorization(sigma, (A, M), None, lu, tol)


def solve(F: Factorization, b: np.ndarray) -> np.ndarray:
    """Solve ``(A - sigma*M) x = b`` by F's LDL^T, then up to three steps
    of iterative refinement; each residual is ``b - (A x - sigma (M x))``
    from F's pencil.  A factor known singular (``F.singular``), or one
    whose refined residual misses ``_SOLVE_RTOL`` = 1e-10 and which has a
    zero pivot, is replaced by partial-pivoting LU of ``A - sigma*M``,
    refined the same way.  A relative residual above ``_SOLVE_RTOL`` that
    no zero pivot explains, or after the LU, or a matrix that LU finds
    singular, raises :class:`ResonanceError`.

    The pivots are read only to explain a missed residual: a solve that
    meets the bound by F's own factor leaves them unread, so SuperLU makes
    no copies of L and U, and ``A - sigma*M`` is formed only for the LU,
    so such a solve holds no n x n matrix besides F."""
    b = np.asarray(b, dtype=np.float64)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros_like(b)
    Asp, Msp = (P.to_scipy() for P in F._pencil)

    def residual(x):
        return b - (Asp @ x - F.sigma * (Msp @ x))

    def refined(base):
        """x from ``base`` and up to three refinement steps, and its
        relative residual."""
        x = base(b)
        r = residual(x)
        for _ in range(3):
            if np.linalg.norm(r) <= _SOLVE_RTOL * nb:
                break
            x = x + base(r)
            r = residual(x)
        return x, np.linalg.norm(r) / nb

    if not F.singular:
        x, rel = refined(F._raw_solve)
        if rel <= _SOLVE_RTOL:
            return x
    if F.singular or F.n_zero > 0:
        try:
            lu = spla.splu((Asp - F.sigma * Msp).T)
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            raise ResonanceError(f"shift {F.sigma!r} is an eigenvalue of "
                                 "the pencil (exactly singular)") from exc
        x, rel = refined(lu.solve)
        if rel <= _SOLVE_RTOL:
            return x
    raise ResonanceError(
        f"shift {F.sigma!r} is numerically an eigenvalue of the pencil: "
        f"relative residual {rel:.1e} > {_SOLVE_RTOL:.0e}")


def _trim_heap() -> None:
    """Return the heap that the C library keeps after large frees, such as
    a dropped factor's, to the OS: ``malloc_trim(0)`` where the library
    has it (glibc), nothing elsewhere."""
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


def count_below(A: SparseSymMatrix, M: SparseSymMatrix, sigma: float) -> int:
    """Exact number of generalized eigenvalues of (A, M) below ``sigma``,
    from Sylvester inertia (see :func:`count_from_factor`).  The factor is
    dropped, and the heap it held trimmed, before returning."""
    count = count_from_factor(ldlt(A, sigma, M))
    _trim_heap()
    return count


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
    step = max(1, _SLICE_BYTES // (8 * max(1, X.shape[0])))
    return [slice(lo, lo + step) for lo in range(0, X.shape[1], step)]


def _residual_norms(Asp, Msp, vals, X) -> np.ndarray:
    res = np.empty(len(vals))
    for sl in _column_slices(X):
        R = Asp @ X[:, sl] - (Msp @ X[:, sl]) * vals[sl]
        res[sl] = np.linalg.norm(R, axis=0)
    return res


def _check_semidefinite(vals: np.ndarray) -> None:
    # a zero eigenvalue comes out within 1e-11 on pure-Neumann pencils of up
    # to 16,641 dofs
    if vals[0] < -ZERO_EIGENVALUE_TOL:
        raise EigenSolveError(
            f"eigenvalue {vals[0]:.6g} is negative; "
            "is A positive semidefinite?")


def _within(V: np.ndarray, MV: np.ndarray, Msp: sp.csr_matrix,
            R: np.ndarray, floor: np.ndarray) -> None:
    """M-orthonormalize the rows of V among themselves in place by modified
    Gram-Schmidt, so that ``V_in = R^T V``; ``MV[i]`` receives ``M V[i]``.
    A row whose M-norm ends at most ``floor[i]`` vanishes: it is left zero,
    with ``R[i, i] = 0``."""
    for i, v in enumerate(V):
        for k in range(i):
            R[k, i] = MV[k] @ v
            v -= R[k, i] * V[k]
        Mv = Msp @ v
        R[i, i] = np.sqrt(max(v @ Mv, 0.0))
        if R[i, i] > floor[i]:
            v /= R[i, i]
            np.divide(Mv, R[i, i], out=MV[i])
        else:
            R[i, i] = 0.0
            v[:] = MV[i] = 0.0


def _extend(Q: np.ndarray, j: int, W: np.ndarray, MW: np.ndarray,
            Msp: sp.csr_matrix, rng: np.random.Generator):
    """Store the rows of ``W``, M-orthonormalized against ``Q[:j]`` and
    each other, as ``Q[j:j + b]``, and ``M Q[j:j + b]`` in the rows of
    ``MW``; ``W`` is overwritten.  Returns H, R and whether a direction
    vanished, where ``W_in = H^T Q[:j] + R^T Q[j:j + b]``.

    Two passes, each block classical Gram-Schmidt against ``Q[:j]`` and
    then modified Gram-Schmidt within the block (BCGS2).  A row vanishes
    when the first pass leaves at most ``_VANISH_RTOL`` of its M-norm, which
    only rounding noise does, or when the second leaves less than
    ``1/sqrt(2)`` of the first's unit result (Kahan-Parlett): it lay in the
    span of ``Q[:j]`` and the other rows to working precision, so the
    Krylov space is invariant in that direction.  The rows that vanished
    go last, each replaced by a fresh vector from ``rng`` with coupling 0
    (a zero row of R), never by the noise that was left.
    """
    b, n = W.shape
    R1, R2 = np.zeros((b, b)), np.zeros((b, b))
    floor = np.empty(b)
    for i, w in enumerate(W):
        MW[i] = Msp @ w
        floor[i] = _VANISH_RTOL * np.sqrt(max(w @ MW[i], 0.0))
    H = _project(Q[:j], W, MW)
    _within(W, MW, Msp, R1, floor)
    C = _project(Q[:j], W, MW)
    _within(W, MW, Msp, R2, np.full(b, 0.717))
    kept = np.flatnonzero(R2.diagonal())
    for slot, i in enumerate(kept):
        Q[j + slot] = W[i]
        MW[slot] = MW[i]
    for slot in range(len(kept), b):
        _extend(Q, j + slot, rng.standard_normal((1, n)), MW[slot:slot + 1],
                Msp, rng)
    R = np.zeros((b, b))
    R[:len(kept)] = R2[kept] @ R1
    return H + C @ R1, R, len(kept) < b


def _project(Q: np.ndarray, W: np.ndarray, MW: np.ndarray) -> np.ndarray:
    """Remove from the rows of W their M-projections on the M-orthonormal
    rows of Q, given ``MW = M W``, in place; returns the coefficients, of
    shape (len(Q), len(W)).  W must be C-contiguous: BLAS writes the update
    through its transpose, and would update a copy of any other layout."""
    C = np.zeros((len(Q), len(W)))
    for sl in _column_slices(Q):    # BLAS is faster on slices that fit cache
        C += Q[:, sl] @ MW[:, sl].T
    dgemm(-1.0, Q.T, C, 1.0, W.T, overwrite_c=True)     # W -= C^T Q
    return C


def _rotate(Q: np.ndarray, Y: np.ndarray) -> None:
    """``Q[:k] = Y^T Q[:p]`` in place for Y of shape (p, k), one slice of
    Q's columns at a time."""
    p, k = Y.shape
    for sl in _column_slices(Q[:p]):
        Q[:k, sl] = Y.T @ Q[:p, sl]


def _lanczos(solve, Msp: sp.csr_matrix, m: int, ncv: int,
             seed: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Block thick-restart Lanczos for ``OP = solve(M .)``, self-adjoint in
    the M inner product: the ``m`` Ritz values theta of largest modulus, as
    the eigenvalues ``1/theta - 1`` of the pencil in ascending order, and
    their M-orthonormal Ritz vectors as the rows of an (m, n) array.  None
    when ``LANCZOS_MAXITER`` restarts leave a wanted pair unconverged.

    Each step applies OP to a block of ``b = LANCZOS_BLOCK`` vectors, one
    solve with b right-hand sides, so a cycle's Krylov space holds up to b
    copies of an eigenvalue.  The basis Q holds ``ncv + b`` rows, ncv a
    multiple of b: the block Krylov-Schur restart (Zhou & Saad, Numer.
    Algorithms 2008; Stewart, SIAM J. Matrix Anal. Appl. 2001) keeps the
    ``(m + ncv) / 2`` Ritz vectors of largest |theta|, rounded up to a
    multiple of b and at most ``ncv - b``, in Q's leading rows, and the
    returned vectors are Q's first m rows, shrunk in place.  A pair has
    converged when its Ritz estimate ``|R y_last|`` is at most
    ``LANCZOS_TOL * |theta|``, in a cycle that took no fresh vector and
    did not start from a residual block that took one: a fresh vector's
    coupling reads 0, and the copies it would find are missing from the
    Ritz values until a cycle has expanded it.
    """
    b = LANCZOS_BLOCK
    n = Msp.shape[0]
    rng = np.random.default_rng(seed)
    Q = np.empty((ncv + b, n))
    T = np.zeros((ncv, ncv))        # the projection Q^T M OP Q
    MQ = np.empty((b, n))
    _extend(Q, 0, rng.standard_normal((b, n)), MQ, Msp, rng)
    k = 0
    fresh = False
    for _ in range(LANCZOS_MAXITER):
        for j in range(k, ncv, b):
            H, R, vanished = _extend(Q, j + b, solve(MQ.T).T, MQ, Msp, rng)
            fresh |= vanished
            T[j:j + b, j:j + b] = 0.5 * (H[j:] + H[j:].T)
            if j + b < ncv:
                T[j + b:j + 2 * b, j:j + b] = R
                T[j:j + b, j + b:j + 2 * b] = R.T
        theta, Y = np.linalg.eigh(T)
        order = np.argsort(-abs(theta), kind="stable")
        wanted = order[:m]
        S = R @ Y[-b:]              # the residual block's Ritz coupling
        converged = (np.linalg.norm(S[:, wanted], axis=0)
                     <= LANCZOS_TOL * abs(theta[wanted])).all()
        if converged and not fresh:
            vals = 1.0 / theta[wanted] - 1.0
            ascending = np.argsort(vals, kind="stable")
            _rotate(Q, Y[:, wanted[ascending]])
            Q.resize((m, n), refcheck=False)   # no view of Q is left
            return vals[ascending], Q
        fresh = vanished
        k = min(ncv - b, b * -(-(m + ncv) // (2 * b)))
        keep = order[:k]
        _rotate(Q, Y[:, keep])
        Q[k:k + b] = Q[ncv:]
        T[:] = 0.0
        T[:k, :k] = np.diag(theta[keep])
        T[k:k + b, :k] = S[:, keep]
        T[:k, k:k + b] = S[:, keep].T
    return None


def _accept(Asp, Msp, vals, X) -> EigenResult:
    """The pairs, once they pass the acceptance rule of
    :func:`eigs_smallest`."""
    _check_semidefinite(vals)
    worst = (_residual_norms(Asp, Msp, vals, X) / (1.0 + abs(vals))).max()
    if not worst <= RESIDUAL_TOL:
        raise EigenSolveError(
            f"relative eigenpair residual {worst:.3e} exceeds "
            f"{RESIDUAL_TOL:.1e}")
    return EigenResult(vals, X)


def eigs_smallest(A: SparseSymMatrix, M: SparseSymMatrix, m: int,
                  seed: int = 0) -> EigenResult:
    """The ``m`` algebraically smallest eigenpairs of ``A x = l M x``.

    A must be symmetric positive semidefinite, M symmetric positive
    definite.  Eigenvalues are ascending with multiplicities; eigenvectors
    are M-orthonormal.

    Pencils of at most ``DENSE_EIG_LIMIT`` dofs, and requests whose
    Lanczos basis of ``ncv + LANCZOS_BLOCK`` vectors would fill the space,
    are solved densely.  Otherwise one run of block thick-restart Lanczos
    (:func:`_lanczos`) on ``(A + M)^-1 M``, the shift-invert operator at
    -1, strictly below the spectrum, starts from a block drawn from
    ``seed``, with ``ncv = 3m/2`` rounded up to a multiple of
    ``LANCZOS_BLOCK`` (at least 32).  Its working set is the factor of
    ``A + M``, the basis, ``n (ncv + LANCZOS_BLOCK)`` floats, and a few
    blocks of ``LANCZOS_BLOCK`` n-vectors: M times the newest block, and
    each step's solve, which allocates its own result and SuperLU's
    n x ``LANCZOS_BLOCK`` work array (about 16 n-vectors beyond the basis
    at the peak of a 50-pair run); the checks on its result run a few
    columns at a time.  Each cycle finds up to ``LANCZOS_BLOCK`` copies of
    an eigenvalue; more copies need restarts, and the callers' inertia
    counts guard the ladder.

    Both paths accept a result by one rule (:func:`_accept`): no returned
    eigenvalue lies below ``-ZERO_EIGENVALUE_TOL``, beyond the roundoff of
    a zero eigenvalue, and every pair satisfies
    ``|A x - l M x| <= RESIDUAL_TOL * (1 + |l|)``.  A result that breaks
    it raises :class:`EigenSolveError`, as do an exactly singular
    ``A + M`` (``Factorization.singular``), before Lanczos starts, and a
    run that leaves a wanted pair unconverged after ``LANCZOS_MAXITER``
    restarts.  Lanczos takes the Ritz values of largest modulus, so a
    negative eigenvalue whose shift-invert image is large in modulus is
    found.

    The shift-invert factor's pivots are never read, so it holds no copy
    of its triangular factors; it is dropped, and the heap it held
    trimmed, as soon as Lanczos returns, before its result is checked or
    its failure raised.
    """
    n = A.n
    if M.n != n:
        raise ValueError("A and M must have the same dimension")
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n:
        raise ValueError(f"requested {m} pairs from a dimension-{n} pencil")
    Asp, Msp = A.to_scipy(), M.to_scipy()

    b = LANCZOS_BLOCK
    # the Lanczos basis size: at least 8 block steps, since with 5 a ladder
    # of 8 took three times the right-hand sides
    ncv = max(32, b * -(-3 * m // (2 * b)))
    if n <= DENSE_EIG_LIMIT or ncv + b >= n:
        vals, X = sla.eigh(Asp.toarray(), Msp.toarray())
        # an owned copy, so the result does not keep all n columns alive
        return _accept(Asp, Msp, vals[:m], X[:, :m].copy(order="F"))
    F = ldlt(A, -1.0, M)
    if F.singular:
        raise EigenSolveError("shift-invert factorization broke down; "
                              "is A positive semidefinite?")
    found = _lanczos(F._raw_solve, Msp, m, ncv, seed)
    del F
    _trim_heap()
    if found is None:
        raise EigenSolveError(f"Lanczos iteration did not converge in "
                              f"{LANCZOS_MAXITER} restarts")
    vals, Q = found
    return _accept(Asp, Msp, vals, Q.T)
