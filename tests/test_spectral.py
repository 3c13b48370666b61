import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helmqo.spaces
import helmqo.spectral
from helmqo.mesh import (BoundaryTag, build_square_with_hole,
                         build_unit_square, build_unit_square_unstructured,
                         refine_bisection)
from helmqo.spaces import CR, P1, P2, assemble_mass, assemble_stiffness, \
    build_space
from helmqo.sparsela import (EigenResult, EigenSolveError, ResonanceError,
                             SparseSymMatrix, count_below, eigs_smallest)
from helmqo.spectral import (KAPPA, check_complete,
                             check_criterion, compute_bounds,
                             cr_bound_preimage, cr_lower_bound,
                             eigen_ladder)

from conftest import (MIN_KAPPA, counted_ladder, dense,
                      dense_ritz_upper_bounds, dense_spectrum,
                      drop_first_pair_above, drop_lowest_pair,
                      enumeration_index, enumeration_spectrum,
                      interpolate, jittered_square, liu_lower_bounds,
                      traced_peak)


def synthetic_ladder(values):
    """A ladder with prescribed eigenvalues and zero eigenvectors."""
    values = np.asarray(values, dtype=float)
    return EigenResult(values, np.zeros((1, len(values))))


def square_ladder(n, k2, family=P1, extra=3):
    """The space of the n x n square and its :func:`counted_ladder`."""
    space = build_space(build_unit_square(n), family)
    return space, counted_ladder(space, k2, extra)


class TestEigenLadder:
    def test_length_at_100(self):
        # six eigenvalues below 100 (once the mesh resolves them),
        # plus extra + 1
        _, E = square_ladder(32, 100.0)
        assert len(E.values) == 6 + 3 + 1

    def test_coercive_regime(self):
        _, E = square_ladder(8, 10.0)
        assert len(E.values) == 4
        crit = check_criterion(E, 10.0, 0)
        assert crit.satisfied and crit.lambda_lo == 0.0

    def test_resonant_exact_single_dof(self):
        # one free dof: its eigenvalue is exactly representable
        space = build_space(build_unit_square(2), P1)
        A, M = assemble_stiffness(space), assemble_mass(space)
        lam = dense(A)[0, 0] / dense(M)[0, 0]
        with pytest.raises(ResonanceError):
            counted_ladder(space, lam)

    def test_length_is_m_at_most_n_free(self):
        space = build_space(build_unit_square(3), P1)    # four free dofs
        assert len(eigen_ladder(space, 3, {}).values) == 3
        assert len(eigen_ladder(space, 9, {}).values) == space.n_free == 4

    def test_returns_the_solvers_result(self, monkeypatch):
        # the ladder is the eigensolver's own result, not a copy or wrapper
        space = build_space(build_unit_square(8), P1)
        solved = []
        real = helmqo.spectral.eigs_smallest

        def recorded(*args):
            solved.append(real(*args))
            return solved[-1]
        monkeypatch.setattr(helmqo.spectral, "eigs_smallest", recorded)
        E = eigen_ladder(space, 5, {100.0: count_below(*space.pencil,
                                                       100.0)})
        assert len(solved) == 1 and E is solved[0]


class TestLadderInertiaCheck:
    """eigen_ladder cross-checks its ladder against every inertia count
    its caller holds."""

    @pytest.mark.parametrize("family,n", [(P1, 8), (CR, 24)], ids=str)
    def test_dropped_pair_raises(self, family, n, monkeypatch):
        drop_lowest_pair(monkeypatch)
        with pytest.raises(EigenSolveError, match="inertia counts"):
            square_ladder(n, 100.0, family)

    def test_caller_held_count_is_checked(self):
        space = build_space(build_unit_square(8), P1)
        below = count_below(*space.pencil, 100.0)
        assert len(eigen_ladder(space, below + 4,
                                {100.0: below}).values) == below + 4
        with pytest.raises(EigenSolveError, match="inertia counts"):
            eigen_ladder(space, below + 4, {100.0: below + 1})

    def test_second_count_is_checked(self, monkeypatch):
        # one value short past 100: the ladder agrees with the count at
        # 100, not with the one at 200
        space = build_space(build_unit_square(8), P1)
        counts = {k2: count_below(*space.pencil, k2) for k2 in (100.0, 200.0)}
        assert counts[200.0] > counts[100.0]
        drop_first_pair_above(monkeypatch, 100.0)
        with pytest.raises(EigenSolveError, match=(
                f"{counts[200.0] - 1} ladder values lie below 200.0, but "
                f"the LDL\\^T inertia counts {counts[200.0]}")):
            eigen_ladder(space, counts[200.0] + 4, counts)


class TestCheckComplete:
    """check_complete proves a ladder misses no eigenvalue below its last
    value by one inertia count just below that value."""

    @staticmethod
    def dense_values(space):
        return dense_spectrum(*space.pencil)

    def test_complete_ladder_passes(self):
        # m = 2 and 5 end inside the double eigenvalues at indices 2-3 and
        # 5-6 of the CR square
        space = build_space(build_unit_square(8), CR)
        w = self.dense_values(space)
        assert w[2] == pytest.approx(w[1], rel=1e-12)
        assert w[5] == pytest.approx(w[4], rel=1e-12)
        for m in (1, 2, 3, 5, 7):
            check_complete(space, w[:m])

    @pytest.mark.parametrize("missing", [0, 1, 4])
    def test_missing_value_raises(self, missing):
        space = build_space(build_unit_square(8), CR)
        w = np.delete(self.dense_values(space)[:7], missing)
        with pytest.raises(EigenSolveError, match=(
                "5 ladder values lie below .*, but the LDL\\^T inertia "
                "counts 6")):
            check_complete(space, w)

    def test_zero_ladder_needs_no_count(self, monkeypatch):
        # a pure-Neumann zero mode: no shift just below it could be
        # counted, and none is
        def count(*args):
            raise AssertionError("counted")
        monkeypatch.setattr(helmqo.spectral, "count_below", count)
        space = build_space(build_unit_square(8, tags=BoundaryTag.NEUMANN),
                            P1)
        check_complete(space, np.array([-1e-13]))
        check_complete(space, np.array([-1e-13, 1e-12]))


class TestCheckCriterion:
    ladder = [19.7, 49.3, 49.3, 79.0, 98.7, 98.7, 128.3]

    def test_satisfied_at_100(self):
        crit = check_criterion(synthetic_ladder(self.ladder), 100.0, 6)
        assert crit.satisfied
        assert crit.lambda_lo == 98.7 and crit.lambda_hi == 128.3

    def test_conforming_overshoot(self):
        vals = [19.7, 49.3, 49.3, 79.0, 98.7, 101.0, 128.3]
        crit = check_criterion(synthetic_ladder(vals), 100.0, 6)
        assert not crit.satisfied

    def test_below_first(self):
        crit = check_criterion(synthetic_ladder([19.7, 49.3]), 10.0, 0)
        assert crit.satisfied
        assert np.isclose(crit.alpha_star, (19.7 - 10.0) / 20.7)

    def test_needs_enough_pairs(self):
        with pytest.raises(ValueError):
            check_criterion(synthetic_ladder([19.7]), 100.0, 6)


class TestBounds:
    def test_lower_bound_formula(self):
        # hand evaluation: 19.8 / (1 + 0.1932^2 * 19.8 * 0.01)
        assert np.isclose(cr_lower_bound(19.8, 0.1), 19.6547, atol=1e-3)

    def test_lower_bound_limits(self):
        assert cr_lower_bound(0.0, 0.5) == 0.0
        assert np.isclose(cr_lower_bound(50.0, 1e-9), 50.0)
        assert cr_lower_bound(50.0, 0.3) <= 50.0

    @given(st.floats(1e-3, 1e7), st.floats(1e-4, 10.0))
    def test_preimage_inverts_lower_bound(self, t, h):
        # the bound approaches 1/(KAPPA h)^2 and never reaches it
        lam = cr_bound_preimage(t, h)
        assert (lam == math.inf) == (t >= 1.0 / (KAPPA * h) ** 2)
        if lam < math.inf:
            assert lam >= t
            assert abs(cr_lower_bound(lam, h) - t) <= 8 * np.spacing(t)

    def test_lower_bound_takes_array_of_sizes(self):
        h = np.array([0.1, 0.3])
        assert list(cr_lower_bound(19.8, h)) == [cr_lower_bound(19.8, 0.1),
                                                 cr_lower_bound(19.8, 0.3)]
        with pytest.raises(ValueError):
            cr_lower_bound(19.8, np.array([0.1, 0.0]))

    def test_kappa_at_least_proven_constant(self):
        # Liu's CR interpolation constant; a larger kappa lowers the bound
        assert KAPPA >= MIN_KAPPA == 0.1893
        assert cr_lower_bound(19.8, 0.1) <= liu_lower_bounds([19.8], 0.1)[0]

    def test_lift_keeps_continuous_function(self):
        # a CR function that is already continuous and piecewise affine is
        # its own P2 lift: the lifted local coefficients are the P2
        # interpolant's, and the Ritz value on its span is its own CR
        # Rayleigh quotient
        m = build_unit_square_unstructured(4, seed=3, tags=BoundaryTag.NEUMANN)
        s_cr, s_p2 = build_space(m, CR), build_space(m, P2)
        f = lambda x, y: 1.0 + x - 2 * y
        c = interpolate(s_cr, f).coefficients
        lifts = helmqo.spectral._p2_lifts(s_cr, c[:, None])
        lifted = np.concatenate([Y[..., 0] for _, Y in lifts])
        assert np.allclose(lifted,
                           s_p2.cell_values(interpolate(s_p2, f).coefficients),
                           rtol=0.0, atol=1e-14)
        A, M = (B.to_scipy() for B in s_cr.pencil)
        quotient = (c @ (A @ c)) / (c @ (M @ c))
        E = EigenResult(np.array([quotient]), c[:, None])
        assert np.isclose(compute_bounds(s_cr, E)[0].upper, quotient,
                          rtol=1e-13)

    def test_first_upper_bound_above_exact(self):
        space, E = square_ladder(32, 100.0, CR)
        bounds = compute_bounds(space, E)
        assert bounds[0].upper >= 2 * math.pi ** 2

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_first_eigenvalue_enclosure(self, n):
        space, E = square_ladder(n, 30.0, CR)
        b = compute_bounds(space, E)[0]
        assert b.lower <= 2 * math.pi ** 2 <= b.upper

    @pytest.mark.parametrize("mesh", ["square", "neumann-hole"])
    def test_dense_rayleigh_ritz_in_any_slicing(self, monkeypatch, mesh):
        # the numbers of one dense Rayleigh-Ritz step on the assembled P2
        # pencil and the whole lifted block, in any slicing of the
        # triangles; the hole has a Neumann inner boundary and was bisected
        # part way
        if mesh == "square":
            space, E = square_ladder(8, 100.0, CR)
        else:
            m = build_square_with_hole(0.75, 0.3, 4,
                                       inner_tag=BoundaryTag.NEUMANN)
            m = refine_bisection(m, np.arange(0, m.n_triangles, 3))
            space = build_space(m, CR)
            E = eigs_smallest(*space.pencil, 20)
        ritz = dense_ritz_upper_bounds(space, E)
        default = [b.upper for b in compute_bounds(space, E)]
        assert np.allclose(default, ritz, rtol=1e-12, atol=0.0)
        for width in (1, 7, space.mesh.n_triangles):
            monkeypatch.setattr(helmqo.spectral, "_SLICE_TRIANGLES", width)
            uppers = [b.upper for b in compute_bounds(space, E)]
            assert np.allclose(uppers, ritz, rtol=1e-12, atol=0.0)
            assert np.allclose(uppers, default, rtol=1e-12, atol=0.0)

    def test_builds_no_space_or_sparse_matrix(self, monkeypatch):
        space, E = square_ladder(8, 100.0, CR)
        made = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                made.append(name)
                return fn(*args, **kwargs)
            return wrapped
        for cls in (SparseSymMatrix, helmqo.spaces.DofSpace):
            monkeypatch.setattr(cls, "__init__",
                                counting(cls.__name__, cls.__init__))
        for mod in (helmqo.spaces, helmqo.spectral):
            for name in dir(mod):
                if name.startswith(("assemble_", "build_space")):
                    monkeypatch.setattr(mod, name,
                                        counting(name, getattr(mod, name)))
        bounds = compute_bounds(space, E)
        assert made == []
        assert len(bounds) == len(E.values)

    def test_dependent_eigenvectors_raise(self):
        # a repeated column spans too little for a Ritz step at every index
        space, E = square_ladder(8, 100.0, CR)
        E.vectors[:, 3] = E.vectors[:, 2]
        with pytest.raises(EigenSolveError, match="dependent"):
            compute_bounds(space, E)

    def test_gram_slices_not_full_block(self):
        # the Gram sums hold one slice of triangles at a time, beside one
        # value per vertex and eigenvector; an assembled P2 pencil and
        # lift trace 25.6 MB here
        space = build_space(build_unit_square_unstructured(80, seed=0), CR)
        E = eigs_smallest(*space.pencil, 50)
        assert traced_peak(compute_bounds, space, E) < 12e6

    def test_guaranteed_lower_bounds_hold(self, square_spectrum_20):
        space, E = square_ladder(16, 100.0, CR)
        for j, b in enumerate(compute_bounds(space, E), start=1):
            assert b.lower <= square_spectrum_20[j - 1] + 1e-12


class TestLowerBoundSoundness:
    """Liu's bound needs no mesh-size condition: every CR eigenvalue of a
    coarse jittered square, at the proven constant, stays below the exact
    one of the same index (multiplicities included).  The Rayleigh-Ritz
    upper bound of the same index stays above it."""

    @settings(max_examples=30)
    @given(n=st.integers(2, 10), seed=st.integers(0, 2 ** 16),
           jitter=st.floats(0.0, 0.45))
    def test_lower_below_exact_at_every_index(self, n, seed, jitter):
        mesh = jittered_square(n, seed, jitter)
        space = build_space(mesh, CR)
        E = eigs_smallest(*space.pencil, space.n_free)
        h = mesh.h
        exact = enumeration_spectrum(len(E.values))
        lower = liu_lower_bounds(E.values, h)
        assert (lower <= exact).all()
        bounds = compute_bounds(space, E)
        assert (np.array([b.lower for b in bounds]) <= lower).all()
        assert (exact <= np.array([b.upper for b in bounds])).all()


class TestCoercivityConstant:
    """``Criterion.alpha_star``, min |lambda - k^2| / (1 + lambda)."""

    def test_hand_value(self):
        E = synthetic_ladder([19.7, 128.3])
        # min((100 - 19.7)/20.7, (128.3 - 100)/129.3)
        crit = check_criterion(E, 100.0, 1)
        assert crit.satisfied
        assert np.isclose(crit.alpha_star, 0.2189, atol=1e-3)

    def test_attained_on_larger_side_when_midway(self):
        lo, hi = 40.0, 60.0
        E = synthetic_ladder([lo, hi])
        k2 = 50.0
        expected = (hi - k2) / (1 + hi)   # larger denominator wins
        crit = check_criterion(E, k2, 1)
        assert crit.satisfied and np.isclose(crit.alpha_star, expected)

    def test_vanishes_near_eigenvalue(self):
        E = synthetic_ladder([19.7, 128.3])
        crit = check_criterion(E, 19.7 + 1e-9, 1)
        assert crit.satisfied and crit.alpha_star < 1e-9

    def test_requires_bracketing(self):
        # both values lie below k^2: no index brackets it on this ladder
        E = synthetic_ladder([19.7, 49.3])
        assert not check_criterion(E, 200.0, 1).satisfied
        with pytest.raises(ValueError):
            check_criterion(E, 200.0, 2)


class TestCrossValidation:
    @pytest.mark.parametrize("k2", [100.0, 144.0, 225.0])
    def test_criterion_iff_inertia(self, k2):
        # the two mechanisms agree: the ladder brackets k2 at the oracle
        # index exactly when the inertia count equals that index
        i_star = enumeration_index(k2)
        for n in (16, 32):
            space = build_space(build_unit_square(n), P1)
            A, M = assemble_stiffness(space), assemble_mass(space)
            E = counted_ladder(space, k2, extra=1, min_pairs=i_star + 1)
            crit = check_criterion(E, k2, i_star)
            assert crit.satisfied == (count_below(A, M, k2) == i_star)

    def test_conforming_one_sided(self, square_spectrum_20):
        _, E = square_ladder(16, 100.0)
        assert np.all(E.values >= square_spectrum_20[:len(E.values)])

    def test_pure_neumann_constant_mode(self):
        # all-Neumann square: the ladder starts at 0 (constants) and the
        # criterion machinery treats it as a regular eigenvalue
        from helmqo.mesh import BoundaryTag
        space = build_space(build_unit_square(16, tags=BoundaryTag.NEUMANN),
                            P1)
        k2 = 5.0   # between 0 and the first nonzero value pi^2
        E = counted_ladder(space, k2, extra=2)
        assert abs(E.values[0]) < 1e-8
        assert abs(E.values[1] - math.pi ** 2) < 0.1
        crit = check_criterion(E, k2, 1)
        assert crit.satisfied

    def test_sign_flip_quadratic_form(self):
        # evaluate the Helmholtz form against the sign-flipped argument in
        # the discrete eigenbasis; the coercivity constant bounds it below
        k2 = 100.0
        space, E = square_ladder(32, k2)
        i_star = int((E.values < k2).sum())
        crit = check_criterion(E, k2, i_star)
        assert crit.satisfied
        alpha = crit.alpha_star
        A, M = space.pencil
        Ah = A.to_scipy() - k2 * M.to_scipy()
        signs = np.where(np.arange(1, len(E.values) + 1) <= i_star, -1.0,
                         1.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = rng.standard_normal(len(E.values))
            u = E.vectors @ c
            tu = E.vectors @ (signs * c)
            lhs = u @ (Ah @ tu)
            rhs = (alpha - 1e-9) * np.sum(E.values * c ** 2)
            assert lhs >= rhs
