import contextlib
import math
import os
import subprocess
import sys
import types
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

import helmqo.sparsela
from helmqo.mesh import (BoundaryTag, build_square_with_hole,
                         build_unit_square, refine_bisection)
from helmqo.certify import ProblemSpec, SineProduct, solve_helmholtz
from helmqo.spaces import CR, P1, P2, assemble_load, assemble_mass, \
    assemble_stiffness, build_space
from helmqo.sparsela import (RECOUNT_RTOL, RESIDUAL_TOL, EigenSolveError,
                             ResonanceError, SparseSymMatrix, count_below,
                             count_from_factor, eigs_smallest, ldlt, solve)

from conftest import (dense_spectrum, enumeration_index,
                      gaussian_elimination_solve,
                      jacobi_generalized_eigen, jittered_square,
                      traced_peak)


def sym(mat):
    return SparseSymMatrix(sp.csr_matrix(np.asarray(mat, dtype=float)))


def relative_residuals(res, A, M):
    """``|A x - l M x| / (1 + |l|)`` of each returned pair."""
    A, M = A.to_scipy(), M.to_scipy()
    R = A @ res.vectors - (M @ res.vectors) * res.values
    return np.linalg.norm(R, axis=0) / (1.0 + np.abs(res.values))


def square_pencil(n, family=P1):
    space = build_space(build_unit_square(n), family)
    return assemble_stiffness(space), assemble_mass(space)


def shifted(A, sigma, M):
    """``A - sigma M`` as a SciPy matrix, formed outside the factor."""
    return A.to_scipy() - sigma * M.to_scipy()


class TestSparseSymMatrix:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sym([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("upper, lower", [
        (2.0, 2.0 * (1 + 2 ** -52)), (2.0, -2.0), (1e-300, 0.0)])
    def test_rejects_values_that_differ_from_the_transpose(self, upper,
                                                           lower):
        # the patterns agree, or differ only by one tiny stored entry
        with pytest.raises(ValueError, match="symmetric"):
            sym([[1.0, upper], [lower, 1.0]])

    def test_stores_no_explicit_zeros(self):
        # a zero stored on one side only is no asymmetry: it is dropped
        mat = sp.csr_matrix((np.array([1.0, 0.0, 3.0]), np.array([0, 1, 1]),
                             np.array([0, 2, 3])))
        assert mat.nnz == 3
        S = SparseSymMatrix(mat)
        assert (S.indptr.tolist(), S.indices.tolist(), S.data.tolist()) \
            == ([0, 1, 2], [0, 1], [1.0, 3.0])
        asymmetric = sp.csr_matrix((np.array([1.0, 0.0, 5.0, 3.0]),
                                    np.array([0, 1, 0, 1]),
                                    np.array([0, 2, 4])))
        with pytest.raises(ValueError, match="symmetric"):
            SparseSymMatrix(asymmetric)


class TestLdlt:
    def test_diagonal_inertia(self):
        A = sym(np.diag([1.0, 3.0, 5.0]))
        M = sym(np.eye(3))
        assert ldlt(A, 4.0, M).inertia == (2, 0, 1)

    def test_shift_below_spectrum(self):
        A = sym(np.diag([1.0, 3.0, 5.0]))
        M = sym(np.eye(3))
        assert ldlt(A, 0.5, M).inertia == (0, 0, 3)

    def test_exact_zero_pivot_reported(self):
        A = sym(np.diag([1.0, 3.0, 5.0]))
        M = sym(np.eye(3))
        F = ldlt(A, 3.0, M)
        assert F.n_zero >= 1
        with pytest.raises(ResonanceError):
            solve(F, np.ones(3))

    @pytest.mark.parametrize("coupled", [False, True])
    def test_exactly_singular_sparse_factor_reported(self, coupled):
        # the zero pivot is an empty column at the shift 7 (structurally
        # singular), or the block [[8, 1], [1, 8]] - 7 I with a full
        # diagonal (singular by value); the eigenvalues below 7.5 are 1..7
        # either way
        A = sp.lil_matrix(sp.diags(np.arange(1.0, 501.0)))
        if coupled:
            A[6, 6], A[6, 7], A[7, 6] = 8.0, 1.0, 1.0
        A = SparseSymMatrix(A)
        M = SparseSymMatrix(sp.identity(A.n))
        F = ldlt(A, 7.0, M)
        assert F.n_zero >= 1
        assert sum(F.inertia) == A.n
        with pytest.raises(ResonanceError):
            solve(F, np.ones(A.n))
        with pytest.raises(ResonanceError):
            count_below(A, M, 7.0)
        assert count_below(A, M, 7.5) == 7

    @pytest.mark.parametrize("n", [32, 64])
    def test_unit_square_inertia_at_100(self, n):
        # enumeration oracle: six square eigenvalues lie below 100
        A, M = square_pencil(n)
        assert ldlt(A, 100.0, M).n_neg == enumeration_index(100.0) == 6

    @staticmethod
    def permutation(F):
        """SuperLU's column order: ``K[p][:, p] == L D L^T``."""
        return np.argsort(F._payload.perm_c)

    def assert_reconstructs(self, F, K, atol):
        L = F.L.toarray()
        D = np.diag(F._payload.U.diagonal())
        P = self.permutation(F)
        assert np.allclose(L @ D @ L.T, K[np.ix_(P, P)], atol=atol)
        w = np.linalg.eigvalsh(K)
        assert F.inertia == ((w < 0).sum(), 0, (w > 0).sum())

    def test_reconstruction_dense_path(self):
        # a random indefinite 40 x 40 K, fully populated
        B = np.random.default_rng(3).standard_normal((40, 40))
        F = ldlt(sym(B + B.T), 0.0, sym(np.eye(40)))
        self.assert_reconstructs(F, B + B.T, 1e-10)

    def test_reconstruction_superlu_path(self):
        # a CR pencil at an indefinite shift
        A, M = square_pencil(16, CR)
        K = (A.to_scipy() - 50.0 * M.to_scipy()).toarray()
        self.assert_reconstructs(ldlt(A, 50.0, M), K, 1e-8)

    def test_reconstruction_on_a_bisected_mesh(self):
        # the P2 pencil comes in its space's numbering, which bisection
        # leaves far from ascending; SuperLU's order alone permutes it
        mesh = build_square_with_hole(0.75, 0.3, 6)
        mesh = refine_bisection(mesh, range(0, mesh.n_triangles, 3))
        space = build_space(mesh, P2)
        assert not (np.diff(space.free_dofs) > 0).all()
        A, M = space.pencil
        K = shifted(A, 400.0, M).toarray()
        self.assert_reconstructs(ldlt(A, 400.0, M), K, 1e-8)

    def test_recount_refactors_the_factors_own_pencil(self, monkeypatch):
        # P1 n = 32 at sigma = 8192 is flagged: the recounts factor the A
        # and M the flagged factor was made from, nothing the caller passes
        A, M = square_pencil(32)
        F = ldlt(A, 8192.0, M)
        assert F.n_zero > 0
        factored = []
        factor = helmqo.sparsela.ldlt

        def recorded(A_, sigma, M_):
            factored.append((A_, sigma, M_))
            return factor(A_, sigma, M_)
        monkeypatch.setattr(helmqo.sparsela, "ldlt", recorded)
        w = dense_spectrum(A, M)
        assert count_from_factor(F) == (w < 8192.0).sum()
        assert [(a is A, sigma, m is M) for a, sigma, m in factored] == [
            (True, 8192.0 * (1 - RECOUNT_RTOL), True),
            (True, 8192.0 * (1 + RECOUNT_RTOL), True)]

    def test_fill_below_superlu_alone_on_a_bisected_mesh(self):
        # the CR pencil of the flagship geometry bisected thrice, 15,904
        # dofs: bisection leaves an ascending numbering on which SuperLU's
        # minimum degree order alone fills more than on the space's
        mesh = build_square_with_hole(0.75, 0.3, 10)
        for _ in range(3):
            mesh = refine_bisection(mesh, range(mesh.n_triangles))
        space = build_space(mesh, CR)
        A, M = space.pencil
        ascending = np.argsort(space.free_dofs)
        K = shifted(A, 1500.0, M)[ascending][:, ascending].tocsc()
        alone = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          options=dict(SymmetricMode=True, Equil=False))
        assert ldlt(A, 1500.0, M).L.nnz < alone.L.nnz


class TestSolve:
    def test_zero_rhs(self):
        A, M = square_pencil(8)
        F = ldlt(A, 10.0, M)
        assert np.all(solve(F, np.zeros(A.n)) == 0.0)

    def test_unit_vector(self):
        A, M = square_pencil(8)
        F = ldlt(A, 10.0, M)
        e1 = np.zeros(A.n)
        e1[0] = 1.0
        b = shifted(A, 10.0, M) @ e1
        assert np.allclose(solve(F, b), e1, atol=1e-10)

    def test_random_spd_vs_gaussian_elimination(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((50, 50))
        K = B @ B.T + 50 * np.eye(50)
        b = rng.standard_normal(50)
        F = ldlt(sym(K), 0.0, sym(np.eye(50)))
        assert np.abs(solve(F, b)
                      - gaussian_elimination_solve(K, b)).max() < 1e-8

    def test_residual_bound(self):
        A, M = square_pencil(24)
        F = ldlt(A, 100.0, M)   # indefinite shift
        rng = np.random.default_rng(1)
        b = rng.standard_normal(A.n)
        x = solve(F, b)
        K = shifted(A, 100.0, M)
        assert np.linalg.norm(K @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_factor_keeps_no_shifted_matrix(self):
        # the factor holds SuperLU's factor and the pencil, nothing n x n
        # besides; solve computes its residuals from the pencil
        A, M = square_pencil(24)
        F = ldlt(A, 100.0, M)
        assert not [v for v in vars(F).values() if sp.issparse(v)]
        assert F._pencil[0] is A and F._pencil[1] is M

    def test_solve_by_the_factor_forms_no_shifted_matrix(self):
        # residuals come from the pencil as A x - sigma (M x): a solve by
        # F's own factor traces n-sized vectors only, far below the
        # 12 bytes per entry of a CSR copy of A - sigma M
        A, M = square_pencil(120)    # 14,161 dofs
        F = ldlt(A, 100.0, M)
        nnz = max(len(A.data), len(M.data))
        b = np.random.default_rng(2).standard_normal(A.n)
        assert traced_peak(solve, F, b) < 12 * nnz
        assert F._inertia is None

    def test_accurate_solve_reads_no_pivots(self):
        # a fresh factor that meets the bound by itself: its pivots stay
        # unread, so SuperLU makes no CSC copies of L and U, 12 bytes per
        # factor entry (9.4 MiB here; the solve traces 0.4 MiB)
        A, M = square_pencil(120)
        F = ldlt(A, 100.0, M)
        b = np.random.default_rng(3).standard_normal(A.n)
        peak = traced_peak(solve, F, b)
        assert F._inertia is None
        assert peak < 12 * F._payload.nnz
        K = shifted(A, 100.0, M)
        assert np.linalg.norm(K @ solve(F, b) - b) <= 1e-10 * np.linalg.norm(b)

    def test_flagged_factor_solved_by_partial_pivoting(self):
        # P1 n = 32 at sigma = 8192: the LDL^T is forced off the diagonal,
        # so solve takes partial-pivoting LU, whose first solution already
        # meets the bound and is returned as it is
        A, M = square_pencil(32)
        F = ldlt(A, 8192.0, M)
        assert F.n_zero > 0
        b = np.random.default_rng(4).standard_normal(A.n)
        x = solve(F, b)
        K = shifted(A, 8192.0, M)
        assert np.linalg.norm(K @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert np.array_equal(x, spla.splu(K.tocsc()).solve(b))

    def test_singular_lu_fallback_raises(self):
        # the diagonal pencil at its eigenvalue 3: the factor has a zero
        # pivot and the partial-pivoting LU of A - 3 M, formed from the
        # pencil, finds it exactly singular
        A = SparseSymMatrix(sp.diags(np.arange(1.0, 301.0)))
        M = SparseSymMatrix(sp.identity(A.n))
        F = ldlt(A, 3.0, M)
        assert F.n_zero > 0
        with pytest.raises(ResonanceError, match="exactly singular"):
            solve(F, np.ones(A.n))

    def test_inaccurate_base_solve_raises(self, monkeypatch):
        # refinement cannot reach the bound from a base solve that returns
        # zeros, and the last residual is checked, not returned unread
        A, M = square_pencil(8)
        F = ldlt(A, 10.0, M)
        monkeypatch.setattr(F, "_raw_solve", lambda r: np.zeros_like(r))
        with pytest.raises(ResonanceError, match="relative residual"):
            solve(F, np.ones(A.n))


class TestEigsSmallest:
    def test_diagonal(self):
        res = eigs_smallest(sym(np.diag([2.0, 1.0, 3.0])), sym(np.eye(3)), 2)
        assert np.allclose(res.values, [1.0, 2.0], atol=1e-12)

    def test_p1_first_eigenvalue_from_above(self):
        # conforming approximation converges to 2 pi^2 from above
        exact = 2 * math.pi ** 2
        prev = None
        for n in (16, 32, 64):
            A, M = square_pencil(n)
            val = eigs_smallest(A, M, 1).values[0]
            assert exact < val < exact + 1.0
            if prev is not None:
                assert val < prev
            prev = val

    def test_cr_first_eigenvalue_below(self):
        A, M = square_pencil(64, CR)
        val = eigs_smallest(A, M, 1).values[0]
        assert val < 2 * math.pi ** 2

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(8)
        for n in (20, 50, 80):
            B = rng.standard_normal((n, n))
            A = B @ B.T + 0.1 * np.eye(n)
            C = rng.standard_normal((n, n))
            M = C @ C.T + n * np.eye(n)
            m = 6
            res = eigs_smallest(sym(A), sym(M), m)
            oracle = jacobi_generalized_eigen(A, M)[:m]
            assert np.abs(res.values - oracle).max() < 1e-8

    def test_m_orthonormality(self):
        A, M = square_pencil(32)
        res = eigs_smallest(A, M, 8)
        G = res.vectors.T @ (M.to_scipy() @ res.vectors)
        assert np.abs(G - np.eye(8)).max() <= 1e-8

    def test_residual_contract(self):
        A, M = square_pencil(32, CR)
        res = eigs_smallest(A, M, 6)
        assert np.all(relative_residuals(res, A, M) <= RESIDUAL_TOL)

    def test_deterministic(self):
        A, M = square_pencil(32)
        v1 = eigs_smallest(A, M, 5, seed=7).values
        v2 = eigs_smallest(A, M, 5, seed=7).values
        assert np.array_equal(v1, v2)

    def test_monotone_conforming_convergence(self, square_spectrum_20):
        prev = None
        for n in (8, 16, 32):
            A, M = square_pencil(n)
            vals = eigs_smallest(A, M, 5).values
            assert np.all(vals >= square_spectrum_20[:5])
            if prev is not None:
                assert np.all(vals <= prev + 1e-12)
            prev = vals

    def test_invalid_options(self):
        A, M = square_pencil(2)
        with pytest.raises(ValueError, match="m must be >= 1"):
            eigs_smallest(A, M, 0)
        with pytest.raises(ValueError):
            eigs_smallest(A, M, 5)


jittered_squares = st.builds(jittered_square, st.integers(3, 12),
                             seed=st.integers(0, 2 ** 16),
                             jitter=st.floats(0.0, 0.45))


@st.composite
def bisected_holes(draw):
    """Square-with-hole meshes after one or two bisections of drawn
    elements: the numbering that adaptive refinement leaves."""
    mesh = build_square_with_hole(0.75, 0.3, draw(st.integers(4, 8)))
    for _ in range(draw(st.integers(1, 2))):
        mesh = refine_bisection(mesh, draw(st.sets(
            st.integers(0, mesh.n_triangles - 1), min_size=1)))
    return mesh


class TestCountBelow:
    def test_below_minimum(self):
        A, M = square_pencil(16)
        assert count_below(A, M, 1.0) == 0

    def test_diagonal(self):
        assert count_below(sym(np.diag([1.0, 3.0, 5.0])), sym(np.eye(3)),
                           4.0) == 2

    def test_unit_square_400(self):
        # enumeration oracle gives 26 square eigenvalues below 400
        A, M = square_pencil(64)
        assert count_below(A, M, 400.0) == enumeration_index(400.0) == 26

    def test_resonant_shift_raises(self):
        with pytest.raises(ResonanceError):
            count_below(sym(np.diag([1.0, 3.0, 5.0])), sym(np.eye(3)), 3.0)

    def test_consistency_with_ladder(self):
        A, M = square_pencil(24)
        vals = eigs_smallest(A, M, 8).values
        for i in range(7):
            sigma = 0.5 * (vals[i] + vals[i + 1])
            if vals[i + 1] - vals[i] < 1e-8:
                continue
            assert count_below(A, M, sigma) == i + 1

    def test_forced_off_diagonal_factor_recounted(self):
        # P1 n = 32 at sigma = 8192: SuperLU is forced off the diagonal and
        # its pivots read (407, 224, 330), while the nearest eigenvalue is
        # 31.96 away; the recounts at sigma (1 -+ 1e-8) agree on 407
        A, M = square_pencil(32)
        sigma = 8192.0
        assert ldlt(A, sigma, M).singular
        w = dense_spectrum(A, M)
        assert np.abs(w - sigma).min() > 30.0
        assert count_below(A, M, sigma) == int((w < sigma).sum()) == 407

    def test_resonance_on_both_paths_against_dense(self):
        # a 1x1 block with eigenvalue sigma appended to a mesh pencil: the
        # two recounts straddle it, differ by one, and the shift is resonant
        A0, M0 = square_pencil(24)       # 529 free dofs
        for A1, M1 in ((A0, M0), square_pencil(4)):
            sigma = 250.0
            A = SparseSymMatrix(sp.block_diag((A1.to_scipy(), [[sigma]])))
            M = SparseSymMatrix(sp.block_diag((M1.to_scipy(), [[1.0]])))
            w = dense_spectrum(A, M)
            assert np.abs(w - sigma).min() == 0.0
            with pytest.raises(ResonanceError):
                count_below(A, M, sigma)
            assert count_below(A, M, sigma * (1 + 1e-6)) == int(
                (w <= sigma).sum())

    @settings(max_examples=40)
    @given(family=st.sampled_from([P1, P2, CR]),
           mesh=st.one_of(jittered_squares, bisected_holes()),
           data=st.data())
    def test_adversarial_shifts_sparse_path(self, family, mesh, data):
        # a shift equal to a_ii / m_ii puts an exact zero on the diagonal
        # of A - sigma M, which can force SuperLU off it; the count and the
        # Helmholtz solve at that shift are compared with dense eigh
        space = build_space(mesh, family)
        A, M = space.pencil
        i = data.draw(st.integers(0, A.n - 1))
        sigma = A.to_scipy()[i, i] / M.to_scipy()[i, i]
        w = dense_spectrum(A, M)
        try:
            count = count_below(A, M, sigma)
        except ResonanceError:
            assert np.abs(w - sigma).min() <= 2e-8 * sigma
        else:
            assert count == int((w < sigma).sum())
        spec = ProblemSpec(family, sigma, rhs=SineProduct(((1, 1, 1.0),)))
        b = assemble_load(space, spec.rhs)
        try:
            u = solve_helmholtz(spec, space.mesh)
        except ResonanceError:
            assert np.abs(w - sigma).min() <= 2e-8 * sigma
        else:
            x = u.coefficients
            K = A.to_scipy() - sigma * M.to_scipy()
            assert (np.linalg.norm(K @ x - b)
                    <= 1e-10 * np.linalg.norm(b))


def lanczos_pencil(family, n, rgap):
    """The unit-square pencil, its dense spectrum, and the 0-based indices
    i of its first two pairs with w[i + 1] - w[i] <= rgap * w[i + 1]."""
    A, M = square_pencil(n, family)
    w = dense_spectrum(A, M)
    double = np.flatnonzero(np.diff(w) <= rgap * w[1:])[:2]
    assert len(double) == 2 and A.n > helmqo.sparsela.DENSE_EIG_LIMIT
    return A, M, w, double


def basis(m):
    """The Lanczos basis size ``ncv`` for ``m`` pairs: 3m/2 rounded up to a
    multiple of the block, at least 32.  The basis holds ncv + block
    vectors."""
    b = helmqo.sparsela.LANCZOS_BLOCK
    return max(32, b * math.ceil(1.5 * m / b))


@contextlib.contextmanager
def basis_sizes():
    """The ``ncv`` of each Lanczos run inside the block, in call order."""
    sizes = []
    real = helmqo.sparsela._lanczos

    def counted(solve, Msp, m, ncv, seed):
        sizes.append(ncv)
        return real(solve, Msp, m, ncv, seed)
    with mock.patch.object(helmqo.sparsela, "_lanczos", counted):
        yield sizes


@pytest.fixture
def events(monkeypatch):
    """Log each SuperLU factorization ("splu") and each heap trim:
    "trim", then what is dead by then: "K" once the matrix last handed
    to SuperLU is (the array that owns its ``.data`` is freed), and
    "factor" once every factor ``ldlt`` made is."""
    events, factors, handed = [], [], []
    ldlt_, splu = helmqo.sparsela.ldlt, spla.splu

    def traced_ldlt(*args):
        F = ldlt_(*args)
        factors.append(weakref.ref(F))
        return F

    def traced_splu(K, *args, **kwargs):
        events.append("splu")
        data = K.data
        while isinstance(data.base, np.ndarray):
            data = data.base        # K.T's data is a view of K's
        handed[:] = [weakref.ref(data)]
        return splu(K, *args, **kwargs)

    def malloc_trim(pad):
        assert pad == 0
        dead = [name for name, refs in (("K", handed),
                                        ("factor", factors))
                if refs and all(r() is None for r in refs)]
        events.append("trim: " + ", ".join(dead) if dead else "trim")
    monkeypatch.setattr(helmqo.sparsela, "ldlt", traced_ldlt)
    monkeypatch.setattr(spla, "splu", traced_splu)
    monkeypatch.setattr(helmqo.sparsela, "_LIBC",
                        types.SimpleNamespace(malloc_trim=malloc_trim))
    return events


def assert_matches_dense(res, A, M, w, rtol=1e-10):
    m = len(res.values)
    assert np.all(np.abs(res.values - w[:m]) <= rtol * (1 + w[:m]))
    G = res.vectors.T @ (M.to_scipy() @ res.vectors)
    assert np.abs(G - np.eye(m)).max() <= 1e-13
    assert np.all(relative_residuals(res, A, M) <= RESIDUAL_TOL)


class TestThickRestartLanczos:
    """The shift-invert block Lanczos path against dense ``eigh``."""

    @pytest.mark.parametrize("past", [0, 1], ids=["inside", "past"])
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("family,n,rgap", [(P1, 16, 1e-2),
                                               (CR, 10, 1e-12)], ids=str)
    def test_every_copy_of_a_double_eigenvalue(self, family, n, rgap, which,
                                               past):
        # m ends on the first copy of a double eigenvalue, or on the second;
        # both copies must be there in the second case.  CR keeps the
        # square's double eigenvalues (to 1e-13); P1's diagonals split them
        # into pairs 1e-3 to 1e-2 apart
        A, M, w, double = lanczos_pencil(family, n, rgap)
        m = double[which] + 1 + past
        assert_matches_dense(eigs_smallest(A, M, m), A, M, w)

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from([P1, P2, CR]),
           mesh=st.one_of(jittered_squares, bisected_holes()),
           data=st.data())
    def test_matches_dense_on_drawn_meshes(self, family, mesh, data):
        # every pencil with room for the basis takes the Lanczos path
        A, M = build_space(mesh, family).pencil
        assume(A.n > basis(12) + helmqo.sparsela.LANCZOS_BLOCK)
        m = data.draw(st.integers(1, 12))
        w = dense_spectrum(A, M)
        with mock.patch.object(helmqo.sparsela, "DENSE_EIG_LIMIT", 0), \
                basis_sizes() as ncv:
            res = eigs_smallest(A, M, m)
        assert ncv
        assert_matches_dense(res, A, M, w, rtol=1e-9)

    @pytest.mark.parametrize("m,lanczos", [(110, True), (144, True),
                                           (145, False)])
    def test_dense_when_the_basis_fills_the_space(self, m, lanczos):
        # the flagship's first mesh, 224 dofs: at m = 144 (which the
        # flagship at k^2 = 1500 asks for) the basis of 216 + 4 vectors
        # still fits below n, at m = 145 one of 220 + 4 would fill the
        # space and the dense path answers
        space = build_space(build_square_with_hole(0.75, 0.3, 10), CR)
        A, M = space.pencil
        assert A.n == 224
        assert (basis(m) + helmqo.sparsela.LANCZOS_BLOCK < A.n) == lanczos
        w = dense_spectrum(A, M)
        with basis_sizes() as ncv:
            assert_matches_dense(eigs_smallest(A, M, m), A, M, w)
        assert ncv == ([basis(m)] if lanczos else [])

    @pytest.mark.parametrize("m", [2, 3])
    def test_breakdown_restarts_from_a_fresh_vector(self, m):
        # five distinct eigenvalues, 100 copies each: the Krylov space of
        # one start vector is invariant after five steps and holds one copy
        # of each, so every further copy of 1 needs a fresh vector
        A = sym(np.diag(np.repeat(np.arange(1.0, 6.0), 100)))
        res = eigs_smallest(A, sym(np.eye(500)), m)
        assert np.all(np.abs(res.values - 1.0) <= 1e-12)
        assert np.abs(res.vectors.T @ res.vectors - np.eye(m)).max() <= 1e-12
        assert np.abs(res.vectors[100:]).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_twelve_copies_past_the_block_size(self, seed):
        # the block Krylov space of four start vectors is invariant after
        # five steps and holds four copies of each eigenvalue; a cycle that
        # took fresh vectors is never accepted, nor one that starts from
        # them, so restarts bring in the other copies of 1
        A = sym(np.diag(np.repeat(np.arange(1.0, 6.0), 100)))
        res = eigs_smallest(A, sym(np.eye(500)), 12, seed=seed)
        assert np.all(np.abs(res.values - 1.0) <= 1e-12)
        assert np.abs(res.vectors.T @ res.vectors - np.eye(12)).max() <= 1e-12
        assert np.abs(res.vectors[100:]).max() <= 1e-12

    def test_rows_in_the_span_vanish_into_fresh_vectors(self):
        # three of four rows lie in the basis's span and leave only
        # rounding noise after the first pass; fresh vectors with coupling 0
        # take their places, after the one row that survives
        rng = np.random.default_rng(0)
        n, b = 300, helmqo.sparsela.LANCZOS_BLOCK
        Msp = sp.identity(n, format="csr")
        Q = np.zeros((2 * b, n))
        Q[:b] = np.linalg.qr(rng.standard_normal((n, b)))[0].T
        W = np.array([Q[0] + Q[1], Q[2], rng.standard_normal(n), Q[0] - Q[3]])
        W_in, MW = W.copy(), np.empty((b, n))
        H, R, vanished = helmqo.sparsela._extend(Q, b, W, MW, Msp, rng)
        assert vanished
        assert np.array_equal(np.flatnonzero(R.any(axis=1)), [0])
        assert np.abs(R[0, [0, 1, 3]]).max() <= 1e-13 < R[0, 2]
        assert np.abs(H.T @ Q[:b] + R.T @ Q[b:] - W_in).max() <= 1e-13
        assert np.abs(Q @ Q.T - np.eye(2 * b)).max() <= 1e-14
        assert np.array_equal(MW, Q[b:])

    def test_flagship_ladders_match_dense(self):
        # the flagship's first mesh, 224 dofs, has a 4-fold eigenvalue at
        # indices 27-30 and double ones below it; every ladder length up to
        # 60 at three seeds is the dense one
        A, M = build_space(build_square_with_hole(0.75, 0.3, 10), CR).pencil
        w = dense_spectrum(A, M)
        assert np.allclose(w[26:30], w[26], rtol=1e-9) and w[30] > w[26]
        wrong = [(m, seed) for m in range(2, 61, 2) for seed in range(3)
                 if not np.allclose(eigs_smallest(A, M, m, seed=seed).values,
                                    w[:m], rtol=1e-9)]
        assert wrong == []

    def test_an_unconverged_run_raises_after_one_run(self, events,
                                                     monkeypatch):
        # one run, whose factor is dropped, and its heap trimmed, before
        # the raise
        monkeypatch.setattr(helmqo.sparsela, "LANCZOS_MAXITER", 0)
        A, M = square_pencil(16)
        with basis_sizes() as ncv, pytest.raises(EigenSolveError,
                                                 match="did not converge"):
            eigs_smallest(A, M, 4)
        assert ncv == [basis(4)] == [32]
        assert events == ["trim", "splu", "trim: K", "trim: K, factor"]

    def test_working_set_is_the_basis(self):
        # CR pencil, 20,008 dofs, m = 20: the basis holds ncv + 4 = 36
        # vectors, a step keeps two blocks of 4 beside it (its right-hand
        # sides and their M-products), and 4 vectors' slack covers the rest;
        # a basis of 2m + 2 = 42 vectors would not fit
        A, M = square_pencil(82, CR)
        b = helmqo.sparsela.LANCZOS_BLOCK
        rows = (basis(20) + b) + 2 * b + 4
        assert rows == 48
        assert traced_peak(eigs_smallest, A, M, 20) < 8 * A.n * rows


def shifted_pencil(n, family, s):
    """``(A0 - (lambda_1 + s) M, M)``: lowest eigenvalue -s, not PSD."""
    A0, M = square_pencil(n, family)
    lam1 = eigs_smallest(A0, M, 1).values[0]
    return SparseSymMatrix(A0.to_scipy() - (lam1 + s) * M.to_scipy()), M


class TestEigsSmallestContract:
    """A must be positive semidefinite; the shift-invert factor's pivots
    are not read to check it."""

    # -1e-6 is far beyond the roundoff of a zero eigenvalue; at s = 3 the
    # shift-invert image 1/(1 - s) = -1/2 is the smallest Ritz value, so
    # only the order by modulus finds it
    @pytest.mark.parametrize("s", [1.0, 0.75, 3.0, 0.25, 1e-6])
    @pytest.mark.parametrize("family,n", [(P1, 40), (CR, 24)], ids=str)
    def test_negative_eigenvalue_raises(self, family, n, s):
        A, M = shifted_pencil(n, family, s)
        assert A.n > helmqo.sparsela.DENSE_EIG_LIMIT
        with pytest.raises(EigenSolveError, match="semidefinite"):
            eigs_smallest(A, M, 3)

    def test_dense_path_checks_residuals(self, monkeypatch):
        # eigenvalues 1e-6 off their vectors' Rayleigh quotients miss the
        # residual bound on the dense path as on the Lanczos one
        A, M = square_pencil(8)
        assert A.n <= helmqo.sparsela.DENSE_EIG_LIMIT
        real = scipy.linalg.eigh

        def corrupted(*args, **kwargs):
            vals, X = real(*args, **kwargs)
            return vals * (1.0 + 1e-6), X
        monkeypatch.setattr(helmqo.sparsela.sla, "eigh", corrupted)
        with pytest.raises(EigenSolveError, match="residual"):
            eigs_smallest(A, M, 3)

    def test_dense_path_returns_owned_vectors(self):
        # the flagship hole's 224-dof CR pencil: 145 pairs fill the Lanczos
        # basis, so eigh solves it and the result must not keep eigh's
        # 224 x 224 eigenvector array alive
        A, M = build_space(build_square_with_hole(0.75, 0.3, 10), CR).pencil
        res = eigs_smallest(A, M, 145)
        assert A.n == 224 and res.vectors.shape == (224, 145)
        assert res.vectors.base is None
        assert res.vectors.flags.f_contiguous

    def test_dense_path_applies_the_same_check(self):
        A, M = shifted_pencil(8, P1, 1.0)
        assert A.n <= helmqo.sparsela.DENSE_EIG_LIMIT
        with pytest.raises(EigenSolveError, match="semidefinite"):
            eigs_smallest(A, M, 3)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_exactly_singular_factor_raises_before_lanczos(self, coupled,
                                                           monkeypatch):
        # A + M has an empty column, or the block [[1, 1], [1, 1]]
        A = sp.lil_matrix(sp.diags(np.arange(1.0, 501.0)))
        if coupled:
            A[6, 6], A[6, 7], A[7, 6], A[7, 7] = 0.0, 1.0, 1.0, 0.0
        else:
            A[6, 6] = -1.0
        A = SparseSymMatrix(A)
        M = SparseSymMatrix(sp.identity(A.n))

        def lanczos(*args, **kwargs):
            raise AssertionError("Lanczos started")
        monkeypatch.setattr(helmqo.sparsela, "_lanczos", lanczos)
        assert ldlt(A, -1.0, M).singular
        with pytest.raises(EigenSolveError, match="broke down"):
            eigs_smallest(A, M, 3)

    def test_pure_neumann_pencil_accepted(self):
        space = build_space(build_unit_square(24, tags=BoundaryTag.NEUMANN),
                            P1)
        A, M = space.pencil
        assert A.n > helmqo.sparsela.DENSE_EIG_LIMIT
        res = eigs_smallest(A, M, 3)
        assert abs(res.values[0]) < 1e-9
        assert np.allclose(res.values[1:], math.pi ** 2, rtol=1e-2)

    def test_shift_invert_factor_pivots_not_read(self):
        # CR pencil, 20,008 dofs: SuperLU's CSC copies of L and U, 12
        # bytes per entry of each, come to 3.8 MiB on top of about 8 MiB
        A, M = square_pencil(82, CR)
        F = ldlt(A, -1.0, M)
        copies = 12 * (F.L.nnz + F._payload.U.nnz)
        assert copies > 3 * 2 ** 20
        peak = traced_peak(eigs_smallest, A, M, 1)
        assert peak < 10 * 2 ** 20

    def test_sparse_inertia_read_once_on_demand(self):
        A, M = square_pencil(32)
        F = ldlt(A, 100.0, M)
        assert F._inertia is None and not F.singular
        assert F.inertia == (6, 0, A.n - 6)
        assert F.inertia is F.inertia


class TestHeapPolicy:
    """Each factorization returns the heap it leaves inside sparsela."""

    # peak RSS a 36,481-dof P1 factorization may add above the factor it
    # leaves held: K = A - sigma M (3.0 MiB) and SuperLU's workspace,
    # measured 3.3-6.5 MiB over ten runs at one column per panel and
    # 15.1-18.4 MiB at SciPy's default of 20
    PEAK_MARGIN_MIB = 10.0

    @pytest.mark.parametrize("call,expect", [
        # trimmed around SuperLU, with K freed before the second trim; a
        # factor the caller holds is its own
        (lambda A, M: helmqo.sparsela.ldlt(A, 100.0, M),
         ["trim", "splu", "trim: K"]),
        # and once the call's own factor is dead
        (lambda A, M: count_below(A, M, 100.0),
         ["trim", "splu", "trim: K", "trim: K, factor"]),
        (lambda A, M: eigs_smallest(A, M, 6),
         ["trim", "splu", "trim: K", "trim: K, factor"]),
        # the solve's factor is left to the next factorization's trim
        (lambda A, M: solve_helmholtz(
            ProblemSpec(P1, 100.0, rhs=SineProduct(((1, 2, 1.0),))),
            build_unit_square(16)),
         ["trim", "splu", "trim: K"]),
    ], ids=["ldlt", "count_below", "eigs_smallest", "solve_helmholtz"])
    def test_each_factorization_returns_its_heap(self, events, call, expect):
        A, M = square_pencil(16)        # 225 dofs, so Lanczos factorizes
        call(A, M)
        assert events == expect

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/status")
    def test_factor_peak_is_the_held_factor_plus_margin(self):
        # in a fresh interpreter, so no earlier test's heap is in the way;
        # the study's finest pencil, 36,481 P1 dofs at k^2 = 100
        # (its peak is read as VmHWM: ru_maxrss would carry this process's
        # own peak across the exec)
        script = """if True:
            from helmqo.mesh import build_unit_square
            from helmqo.spaces import P1, build_space
            from helmqo.sparsela import _trim_heap, ldlt

            def status(key):
                with open("/proc/self/status") as f:
                    return next(int(line.split()[1]) for line in f
                                if line.startswith(key)) / 1024

            A, M = build_space(build_unit_square(192), P1).pencil
            _trim_heap()
            before = status("VmRSS:")
            F = ldlt(A, 100.0, M)
            print(A.n, status("VmRSS:") - before, status("VmHWM:") - before)
        """
        src = Path(helmqo.sparsela.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        n, held, grown = res.stdout.split()
        assert int(n) == 36481
        # grown counts from the RSS before the factorization, not from the
        # higher peak that building the space left, so it is not hidden
        assert float(grown) <= float(held) + self.PEAK_MARGIN_MIB
