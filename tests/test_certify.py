import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helmqo.certify
import helmqo.sparsela
from helmqo.mesh import (BoundaryTag, Mesh, build_square_with_hole,
                         build_unit_square, build_unit_square_unstructured,
                         refine_bisection, refine_uniform)
from helmqo.spaces import CR, P1, P2, assemble_load, build_space, l2_error
from helmqo.spectral import (KAPPA, BoundedEigen, cr_bound_preimage,
                             cr_lower_bound)
from helmqo.sparsela import (RECOUNT_RTOL, EigenSolveError, ResonanceError,
                             count_below, eigs_smallest, ldlt)
from helmqo.certify import (GaussianBump, ProblemSpec,
                            SineProduct, convergence_study,
                            dirichlet_unit_square, run_gmr,
                            sine_series_reference, solve_helmholtz,
                            study_to_csv, unit_square_index,
                            unit_square_spectrum)

from conftest import (counted_ladder, dense, drop_first_pair_above,
                      drop_lowest_pair, enumeration_index,
                      enumeration_spectrum, traced_peak, unblocked_sine_sum)


def wrap_everywhere(monkeypatch, fn, record):
    """Replace ``fn`` in every helmqo namespace holding it by a wrapper that
    calls ``record(args, result)`` after each call."""
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(args, result)
        return result
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "helmqo":
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, wrapped)


def sine_series(f, k2, modes):
    """The sine series of the reference solution cut at ``modes`` per
    direction."""
    return helmqo.certify._sine_sum(
        helmqo.certify._sine_coefficients(f, k2, modes))


def matrix_digest(A) -> str:
    return hashlib.sha256(A.indptr.tobytes() + A.indices.tobytes()
                          + A.data.tobytes()).hexdigest()


D, N = BoundaryTag.DIRICHLET, BoundaryTag.NEUMANN


def moved(mesh, scale=1.0, shift=(0.0, 0.0)):
    """``mesh`` with its vertices scaled, then shifted; tags kept."""
    return Mesh(mesh.vertices * scale + shift, mesh.triangles,
                mesh.edges[mesh.dirichlet_edge_ids])


def slit_square(n):
    """The structured unit square (``n`` even) cut along x = 1/2 from the
    bottom side up to y = 1/2: the triangles right of the cut take copies
    of the vertices below its tip.  Area 1, boundary length 5."""
    m = build_unit_square(n)
    v = m.vertices
    on_cut = np.flatnonzero((v[:, 0] == 0.5) & (v[:, 1] < 0.5))
    copy_of = np.arange(len(v))
    copy_of[on_cut] = len(v) + np.arange(len(on_cut))
    tris = m.triangles.copy()
    right = v[tris].mean(axis=1)[:, 0] > 0.5
    tris[right] = copy_of[tris[right]]
    return Mesh(np.vstack([v, v[on_cut]]), tris, BoundaryTag.DIRICHLET)


@st.composite
def labelled_meshes(draw):
    """A mesh and whether it is an all-Dirichlet unit square."""
    kind = draw(st.sampled_from(["structured", "jittered", "hole", "neumann",
                                 "mixed", "shifted", "scaled", "slit"]))
    n = 2 * draw(st.integers(1, 2))
    if kind == "structured":
        return build_unit_square(n), True
    if kind == "jittered":
        return build_unit_square_unstructured(
            n, seed=draw(st.integers(0, 2 ** 16))), True
    if kind == "hole":     # spans [0, 1]^2, area 3/4
        return moved(build_square_with_hole(1.0, 0.5, n),
                     shift=(0.5, 0.5)), False
    if kind == "neumann":
        return build_unit_square(n, N), False
    if kind == "mixed":
        return build_unit_square(n, lambda x, y: N if x == 0 else D), False
    if kind == "shifted":
        return moved(build_unit_square(n),
                     shift=draw(st.sampled_from([(0.25, 0.0),
                                                 (0.0, -1.0)]))), False
    if kind == "scaled":
        return moved(build_unit_square(n),
                     scale=draw(st.sampled_from([0.5, 2.0]))), False
    return slit_square(n), False


class TestDirichletUnitSquare:
    """The sine-series reference is chosen from the mesh alone."""

    @settings(max_examples=40)
    @given(labelled=labelled_meshes(), data=st.data())
    def test_verdict_survives_refinement(self, labelled, data):
        mesh, expected = labelled
        assert dirichlet_unit_square(mesh) is expected
        for _ in range(data.draw(st.integers(0, 2), label="rounds")):
            if data.draw(st.booleans(), label="red"):
                mesh = refine_uniform(mesh)
            else:
                rng = np.random.default_rng(
                    data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
                mesh = refine_bisection(
                    mesh, np.flatnonzero(rng.random(mesh.n_triangles) < 0.3)
                    .tolist() + [int(rng.integers(mesh.n_triangles))])
            assert dirichlet_unit_square(mesh) is expected

    def test_slit_passes_every_check_but_the_boundary_length(self):
        m = slit_square(4)
        assert np.array_equal(m.dirichlet_edge_ids, m.boundary_edge_ids)
        assert m.vertices.min() == 0.0 and m.vertices.max() == 1.0
        assert m.areas.sum() == 1.0
        assert m.edge_lengths[m.boundary_edge_ids].sum() == 5.0
        assert not dirichlet_unit_square(m)


class TestSpectrumOracle:
    def test_matches_brute_force(self):
        assert np.allclose(unit_square_spectrum(30), enumeration_spectrum(30))

    @pytest.mark.parametrize("k2,expected",
                             [(100.0, 6), (144.0, 8), (225.0, 13),
                              (400.0, 26), (1.0, 0)])
    def test_index_counts(self, k2, expected):
        assert unit_square_index(k2) == enumeration_index(k2) == expected

    @staticmethod
    def grid_index(k2):
        top = int(math.sqrt(k2) / math.pi) + 1
        return int((helmqo.certify._square_eigenvalues(top) < k2).sum())

    @pytest.mark.parametrize("k2", [1.0, 100.0, 400.0, 1500.0, 6000.0, 1e6])
    def test_index_equals_grid_count(self, k2):
        assert unit_square_index(k2) == self.grid_index(k2)

    def test_index_strict_at_exact_eigenvalues(self):
        # k^2 on an eigenvalue: the strict < leaves it and its copies out
        for lam in unit_square_spectrum(40):
            assert unit_square_index(lam) == self.grid_index(lam)

    def test_index_memory_grows_like_sqrt_k2(self):
        # the (top, top) grid at k^2 = 1e8 peaks at 155 MiB
        assert traced_peak(unit_square_index, 1e8) < 4 * 2 ** 20


class TestSolveHelmholtz:
    def test_zero_rhs(self):
        spec = ProblemSpec(P1, 100.0, rhs=lambda x, y: 0.0 * x)
        u = solve_helmholtz(spec, build_unit_square(8))
        assert np.all(u.coefficients == 0.0)

    def test_manufactured_solution(self):
        k2 = 100.0
        spec = ProblemSpec(
            P1, k2, rhs=lambda x, y: (2 * math.pi ** 2 - k2)
            * np.sin(np.pi * x) * np.sin(np.pi * y))
        exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        errs = [l2_error(solve_helmholtz(spec, build_unit_square(n)), exact)
                for n in (48, 96)]
        assert errs[0] < 1e-3
        assert errs[1] < errs[0] / 3

    def test_eigen_expansion_coefficient(self):
        # f equal to a single mode is amplified by 1/(lambda - k^2)
        k2 = 100.0
        spec = ProblemSpec(P1, k2,
                           rhs=lambda x, y: np.sin(np.pi * x)
                           * np.sin(np.pi * y))
        u = solve_helmholtz(spec, build_unit_square(64))
        scale = 1.0 / (2 * math.pi ** 2 - k2)
        exact = lambda x, y: scale * np.sin(np.pi * x) * np.sin(np.pi * y)
        assert l2_error(u, exact) < 5e-3 * abs(scale) * 100

    def test_missing_rhs(self):
        with pytest.raises(ValueError):
            solve_helmholtz(ProblemSpec(P1, 10.0), build_unit_square(4))

    @pytest.mark.parametrize("n,k2", [(32, 8192.0), (8, 512.0)])
    def test_flagged_factor_solved(self, n, k2, monkeypatch):
        # k^2 = a_ii / m_ii for some i: SuperLU's LDL^T is flagged and
        # cannot solve, but k^2 is no discrete eigenvalue
        spec = ProblemSpec(P1, k2, rhs=GaussianBump(5e4, 40.0, (0.6, 0.7)))
        mesh = build_unit_square(n)
        space = build_space(mesh, P1)
        A, M = space.pencil
        assert ldlt(A, k2, M).n_zero > 0
        K = dense(A) - k2 * dense(M)
        b = assemble_load(space, spec.rhs)
        x = np.linalg.solve(K, b)
        shifts = []
        wrap_everywhere(monkeypatch, helmqo.sparsela.ldlt,
                        lambda a, F: shifts.append(a[1]))
        u = solve_helmholtz(spec, mesh)
        assert (np.linalg.norm(u.coefficients - x)
                <= 1e-9 * np.linalg.norm(x))
        # the flagged factor is made once; only the recounts factorize again
        assert shifts == [k2, k2 * (1 - RECOUNT_RTOL),
                          k2 * (1 + RECOUNT_RTOL)]

    def test_solve_where_the_c_library_has_no_malloc_trim(self,
                                                          monkeypatch):
        # and the sparsela calls that trim once their own factor is dead
        spec = ProblemSpec(P1, 100.0, rhs=SineProduct(((1, 2, 1.0),)))
        mesh = build_unit_square(16)
        A, M = build_space(mesh, P1).pencil
        u = solve_helmholtz(spec, mesh)
        pairs = eigs_smallest(A, M, 6)
        below = count_below(A, M, 100.0)
        monkeypatch.setattr(helmqo.sparsela, "_LIBC", object())
        assert np.array_equal(solve_helmholtz(spec, mesh).coefficients,
                              u.coefficients)
        again = eigs_smallest(A, M, 6)
        assert np.array_equal(again.values, pairs.values)
        assert np.array_equal(again.vectors, pairs.vectors)
        assert count_below(A, M, 100.0) == below


class TestSineSeriesReference:
    def test_single_mode(self):
        k2 = 50.0
        ref = sine_series_reference(SineProduct(((1, 1, 1.0),)), k2)
        x = np.linspace(0.1, 0.9, 7)
        expect = (2 * np.sin(np.pi * x) * np.sin(np.pi * x)
                  / (2 * math.pi ** 2 - k2))
        assert np.allclose(ref(x, x), expect, atol=1e-10)

    def test_orthogonal_data_gives_small_tail(self):
        ref = sine_series(SineProduct(((9, 9, 1.0),)), 50.0, 8)
        x = np.linspace(0.05, 0.95, 11)
        assert abs(ref(x[:, None], x[None, :])).max() < 1e-12

    def test_gaussian_bump_stability(self):
        # truncation self-consistency: N -> N + 16 changes the sampled
        # solution by less than 1e-8 relative once converged
        f = GaussianBump(5e4, 40.0, (0.6, 0.7))
        r1 = sine_series(f, 100.0, 144)
        r2 = sine_series(f, 100.0, 160)
        xs = np.linspace(0.0, 1.0, 33)
        X, Y = np.meshgrid(xs, xs)
        v1, v2 = r1(X, Y), r2(X, Y)
        assert abs(v1 - v2).max() <= 1e-8 * max(1.0, abs(v1).max())

    def test_resonant_wave_number(self):
        with pytest.raises(ResonanceError):
            sine_series_reference(SineProduct(((1, 1, 1.0),)),
                                  2 * math.pi ** 2)


class TestSineBlocks:
    """The sine series is evaluated in blocks that change no bit and keep
    the working set fixed."""

    def coefficients(self):
        return helmqo.certify._sine_coefficients(
            SineProduct(((3, 4, 1.0), (4, 3, 1.0))), 100.0, 48)

    @pytest.mark.parametrize("extra", [0, 1, 7])
    @pytest.mark.parametrize("blocks", [0, 1, 3])
    def test_bit_identical_to_one_block(self, blocks, extra):
        C = self.coefficients()
        step = helmqo.certify._SINE_BLOCK // len(C)
        n = blocks * step + extra
        rng = np.random.default_rng(n)
        x, y = rng.random(n), rng.random(n)
        u = helmqo.certify._sine_sum(C)
        assert np.array_equal(u(x, y), unblocked_sine_sum(C, x, y))

    def test_working_set_is_bounded(self):
        # the last study mesh's L2 error: 73,728 triangles x 6 points
        u = helmqo.certify._sine_sum(self.coefficients())
        rng = np.random.default_rng(0)
        x, y = rng.random(442_368), rng.random(442_368)
        assert traced_peak(u, x, y) < 32 * 2 ** 20


class TestRunGmr:
    def test_uniform_oracle_square(self):
        spec = ProblemSpec(P1, 100.0)
        rep = run_gmr(spec, build_unit_square(8), "uniform", 6, max_iters=12)
        assert rep.termination == "satisfied"
        last = rep.iterations[-1]
        assert last.lambda_lo < 100.0 < last.lambda_hi
        assert last.certified

    def test_coercive_regime_terminates_immediately(self):
        spec = ProblemSpec(P1, 10.0)
        rep = run_gmr(spec, build_unit_square(8), "uniform", 0)
        assert len(rep.iterations) == 1
        assert rep.iterations[-1].certified

    def test_one_sided_descent_and_exit(self):
        # conforming values decrease across uniform refinements; the loop
        # exits exactly at the first drop below k^2
        spec = ProblemSpec(P1, 100.0)
        rep = run_gmr(spec, build_unit_square(8), "uniform", 6, max_iters=12)
        los = [r.lambda_lo for r in rep.iterations]
        assert all(a >= b for a, b in zip(los, los[1:]))
        assert all(lo >= 100.0 for lo in los[:-1])
        assert los[-1] < 100.0

    def test_budget_termination(self):
        spec = ProblemSpec(P1, 100.0)
        rep = run_gmr(spec, build_unit_square(4), "uniform", 6, max_iters=2)
        assert rep.termination == "budget"
        assert len(rep.iterations) == 2
        assert not rep.certified

    @pytest.mark.parametrize("k2", [100.0, 250.0, 483.0])
    def test_terminates_within_twelve(self, k2):
        spec = ProblemSpec(P1, k2)
        i_star = unit_square_index(k2)
        rep = run_gmr(spec, build_unit_square(4), "uniform", i_star,
                      max_iters=12)
        assert rep.termination == "satisfied"
        assert len(rep.iterations) <= 12

    def test_space_too_small_to_bracket_gives_a_blank_row(self):
        # one free dof cannot hold the 7 pairs that bracket k^2 at i* = 6
        rep = run_gmr(ProblemSpec(P1, 100.0), build_unit_square(2),
                      "uniform", 6, max_iters=1)
        rec = rep.iterations[0]
        assert (rec.ndof, rec.index) == (1, 6)
        assert (rec.lambda_lo, rec.lambda_hi, rec.condition, rec.enclosure,
                rec.certified) == (None,) * 4 + (False,)

    def test_adaptive_oracle(self):
        spec = ProblemSpec(P1, 100.0)
        rep = run_gmr(spec, build_unit_square(8), "adaptive", 6,
                      max_iters=15)
        assert rep.termination == "satisfied"

    def test_report_consistency(self):
        spec = ProblemSpec(P1, 144.0)
        rep = run_gmr(spec, build_unit_square(8), "uniform", 8, max_iters=12)
        for rec in rep.iterations:
            if rec.lambda_lo is not None:
                assert rec.condition == spec.k2 - rec.lambda_lo
            if rec.certified:
                assert rec.lambda_lo < spec.k2 < rec.lambda_hi

    def test_cr_estimate_on_square(self):
        spec = ProblemSpec(CR, 30.0)
        rep = run_gmr(spec, build_unit_square(8), "uniform", None,
                      max_iters=8)
        assert rep.termination == "certified"
        last = rep.iterations[-1]
        assert last.index == unit_square_index(30.0)
        assert last.enclosure < last.condition

    def test_cr_certifies_flagship_at_k2_1500(self):
        # the README's square with a hole; a P2 count on a fine mesh is a
        # conforming (min-max) lower bound on the exact index, and the
        # certificate's lower bound on lambda^(i*+1) an upper one
        spec = ProblemSpec(CR, 1500.0)
        rep = run_gmr(spec, build_square_with_hole(0.75, 0.3, 10), "uniform",
                      None, max_iters=6)
        assert rep.termination == "certified"
        assert rep.iterations[-1].index == 41
        fine = build_square_with_hole(0.75, 0.3, 10)
        for _ in range(3):
            fine = refine_uniform(fine)
        assert count_below(*build_space(fine, P2).pencil, 1500.0) == 41

    @pytest.mark.parametrize("bounds,everything", [
        # i = 2, (B) binds: 95 - lower(60, h) < 100 - 60 for small h only
        ([(20.0, 21.0), (60.0, 95.0), (130.0, 140.0)], False),
        # i = 2, (A) binds: lower(130, h) >= 100 for small h only
        ([(20.0, 21.0), (60.0, 60.5), (130.0, 140.0)], False),
        # i = 0: (A) alone
        ([(130.0, 140.0)], False),
        # i = 2, upper above k^2: no h certifies
        ([(20.0, 21.0), (60.0, 101.0), (130.0, 140.0)], True),
    ])
    def test_blockers_are_elements_too_large_to_certify(self, bounds,
                                                         everything):
        mesh = build_unit_square_unstructured(6, seed=3)
        k2 = 100.0
        bounds = [BoundedEigen(lam, cr_lower_bound(lam, 0.2), up)
                  for lam, up in bounds]
        marked = helmqo.certify._certification_blockers(mesh, bounds, k2)
        i = sum(b.lam < k2 for b in bounds)

        # the oracle solves the rule for h: lower(lam, h) >= t holds for
        # h <= sqrt(1/t - 1/lam) / KAPPA, and for every h when t <= 0
        def h_max(lam, t):
            return (math.sqrt(max(1.0 / t - 1.0 / lam, 0.0)) / KAPPA
                    if t > 0 else math.inf)
        threshold = h_max(bounds[i].lam, k2)
        if i:
            b = bounds[i - 1]
            threshold = min(threshold, h_max(b.lam, b.upper - (k2 - b.lam)))
        assert marked.tolist() == [t for t, d in enumerate(mesh.diameters)
                                   if d > threshold]
        assert (len(marked) == mesh.n_triangles) == everything
        assert len(marked)

    def test_cr_ladder_checked_where_j_star_is_read(self, monkeypatch):
        # without the first pair above k^2 the flagship once certified
        # i* = 9 anyway, each j* read off a ladder one value short
        drop_first_pair_above(monkeypatch, 400.0)
        with pytest.raises(EigenSolveError, match="inertia counts 12"):
            run_gmr(ProblemSpec(CR, 400.0),
                    build_square_with_hole(0.75, 0.3, 10), "adaptive", None)

    def test_cr_estimate_requires_cr(self):
        spec = ProblemSpec(P1, 30.0)
        with pytest.raises(ValueError):
            run_gmr(spec, build_unit_square(4), "uniform", None)

    def test_resonance_detected_in_cr_mode(self):
        spec = ProblemSpec(CR, 2 * math.pi ** 2)
        with pytest.raises(ResonanceError):
            run_gmr(spec, build_unit_square(8), "uniform", None,
                    max_iters=8)

    def test_csv_schema(self):
        spec = ProblemSpec(P1, 100.0)
        rep = run_gmr(spec, build_unit_square(8), "uniform", 6, max_iters=12)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == ("iter,ndof,h,i_star,lambda_lo,lambda_hi,"
                            "condition,enclosure,certified,eta_total")
        assert len(lines) == 1 + len(rep.iterations)
        last = lines[-1].split(",")
        assert last[8] == "true"
        assert float(last[6]) > 0


class TestCrEstimate:
    """j* is the inertia count at the lambda where the lower bound reaches
    k^2; the bound after it must clear k^2 in floating point."""

    @pytest.fixture(scope="class")
    def flagship(self):
        """The README flagship's report and (record, bounds) per row."""
        rows = []
        real = helmqo.certify._estimate

        def recorded(*args):
            out = real(*args)
            rows.append((out[0], out[2]))
            return out
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(helmqo.certify, "_estimate", recorded)
            rep = run_gmr(ProblemSpec(CR, 400.0),
                          build_square_with_hole(0.75, 0.3, 10), "adaptive",
                          None, max_iters=6)
        return rep, rows

    def test_below_the_whole_spectrum(self):
        rep = run_gmr(ProblemSpec(CR, 15.0), build_unit_square(4),
                      "adaptive", None, max_iters=1)
        rec = rep.iterations[0]
        assert rec.index == 0 and rec.enclosure == 0.0 and rec.certified

    def test_mesh_too_coarse_for_the_bound_gives_a_blank_row(self,
                                                             monkeypatch):
        # at h = sqrt(2)/2 the lower bound stays below 1.01 * 60 however
        # large lambda grows: the 8-dof mesh is refined without a count or
        # a ladder (its preimage of 60 is inf too), and the 40-dof mesh
        # estimates j* = 6
        factored = []
        wrap_everywhere(monkeypatch, helmqo.sparsela.ldlt,
                        lambda a, F: factored.append(a[0].n))
        rep = run_gmr(ProblemSpec(CR, 60.0), build_unit_square(2),
                      "adaptive", None, max_iters=2)
        first, second = rep.iterations
        h = first.h
        assert cr_bound_preimage(60.0 * 1.01, h) == math.inf
        assert cr_bound_preimage(60.0, h) == math.inf
        assert first.ndof == 8 and 8 not in factored
        assert (first.index, first.lambda_lo, first.lambda_hi,
                first.condition, first.enclosure, first.certified) == \
            (None,) * 5 + (False,)
        assert second.ndof == 40 and second.index == 6

    def test_exhausted_ladder_gives_a_blank_row(self):
        # 8 free dofs; lam_need ~ 746 lies above all 8 CR eigenvalues
        rep = run_gmr(ProblemSpec(CR, 50.0), build_unit_square(2),
                      "adaptive", None, max_iters=1)
        rec = rep.iterations[0]
        assert rec.ndof == 8
        assert (rec.index, rec.lambda_lo, rec.lambda_hi, rec.condition,
                rec.enclosure, rec.certified) == (None,) * 5 + (False,)

    def test_wide_enclosure_is_not_certified(self, flagship):
        rep, rows = flagship
        rec = rep.iterations[0]
        assert rec.index > 0 and rec.enclosure >= rec.condition
        assert not rec.certified

    @pytest.mark.parametrize("excess,certified",
                             [(-0.01, True), (0.0, False), (0.01, False)])
    def test_certifies_iff_width_below_gap(self, excess, certified,
                                           monkeypatch):
        k2 = 30.0
        real = helmqo.certify.compute_bounds

        def widened(space, E):
            bounds = real(space, E)
            j = sum(b.lam < k2 for b in bounds)
            b = bounds[j - 1]
            # width (1 + excess) times the gap k^2 - lam over the lower
            # bound at h, exactly the gap at excess 0 (the first assert
            # below checks it)
            bounds[j - 1] = BoundedEigen(
                b.lam, b.lower, b.lower + (1.0 + excess) * (k2 - b.lam))
            return bounds
        monkeypatch.setattr(helmqo.certify, "compute_bounds", widened)
        rep = run_gmr(ProblemSpec(CR, k2), build_unit_square(4), "uniform",
                      None, max_iters=1)
        rec = rep.iterations[0]
        assert rec.index == 1 and rec.condition > 0
        assert (rec.enclosure < rec.condition) == certified
        assert rec.certified == certified

    def test_j_star_is_the_first_bound_to_clear_k2(self, flagship):
        rep, rows = flagship
        estimated = [(rec, bounds) for rec, bounds in rows
                     if rec.index is not None]
        assert len(estimated) == len(rep.iterations) >= 2
        for rec, bounds in estimated:
            j = rec.index
            assert bounds[j].lower >= 400.0
            assert j == 0 or bounds[j - 1].lower < 400.0


class TestProblemSpec:
    @pytest.mark.parametrize("k2", [0.0, -1.0, math.nan, math.inf,
                                    -math.inf])
    def test_rejects_k2_outside_positive_finite(self, k2):
        with pytest.raises(ValueError, match="positive and finite"):
            ProblemSpec(P1, k2)

    @pytest.mark.parametrize("family", ["cr", "p1", None])
    def test_rejects_a_family_that_is_not_an_element_family(self, family):
        # "cr" once reached run_gmr, which answered that an adaptive run
        # without --istar requires the Crouzeix-Raviart family
        with pytest.raises(ValueError, match="is not an ElementFamily"):
            ProblemSpec(family, 10.0)


class TestConvergenceStudy:
    @pytest.mark.parametrize("i_star", [-1, -2])
    def test_negative_istar_rejected(self, i_star):
        spec = ProblemSpec(P1, 100.0, rhs=SineProduct(((1, 1, 1.0),)))
        with pytest.raises(ValueError, match="i_star must be >= 0"):
            convergence_study(spec, build_unit_square(4), 2, i_star=i_star)

    @pytest.mark.parametrize("mesh", [build_unit_square(4),
                                      build_square_with_hole(1.0, 0.5, 4)],
                             ids=["square", "hole"])
    def test_missing_rhs(self, mesh):
        # on and off the unit square alike, before any reference is built
        with pytest.raises(ValueError, match="no right-hand side"):
            convergence_study(ProblemSpec(P1, 50.0), mesh, 1)

    def test_csv_schema_and_monotone_errors(self):
        spec = ProblemSpec(P1, 100.0, rhs=SineProduct(((3, 4, 1.0),)))
        recs = convergence_study(spec, build_unit_square(16), 3)
        csv = study_to_csv(recs)
        lines = csv.strip().splitlines()
        assert lines[0] == "h,ndof,error,EV_i,EV_ipo"
        assert len(lines) == 4
        errs = [r.error for r in recs]
        assert errs[-1] < errs[0]
        hs = [r.h for r in recs]
        assert hs[1] == pytest.approx(hs[0] / 2)

    def test_nested_reference_off_square(self):
        spec = ProblemSpec(P1, 50.0, rhs=GaussianBump(100.0, 10.0, (0.3, 0.3)))
        recs = convergence_study(spec, build_square_with_hole(2.0, 1.0, 8), 2)
        assert recs[1].error < recs[0].error
        assert recs[0].ndof < recs[1].ndof

    def test_reference_chosen_from_the_mesh(self, monkeypatch):
        # a spec names no geometry: on the hole the reference is the P1
        # solution two refinements past the finest mesh, never the
        # unit-square series, and i* is the inertia count, 0 at k^2 = 100
        refs, series = [], []
        wrap_everywhere(monkeypatch, helmqo.certify.solve_helmholtz,
                        lambda a, u: refs.append(a))
        wrap_everywhere(monkeypatch, helmqo.certify.sine_series_reference,
                        lambda a, u: series.append(a))
        mesh = build_square_with_hole(1.0, 0.5, 8)
        spec = ProblemSpec(P1, 100.0,
                           rhs=SineProduct(((3, 4, 1.0), (4, 3, 1.0))))
        recs = convergence_study(spec, mesh, 2)
        assert series == []
        [(ref_spec, ref_mesh)] = refs
        assert ref_spec.family == P1
        assert ref_mesh.n_triangles == 4 ** 3 * mesh.n_triangles
        assert [r.ev_i for r in recs] == [0.0, 0.0]
        assert count_below(*build_space(refine_uniform(mesh), P1).pencil,
                           100.0) == 0
        assert all(r.ev_ipo > 100.0 for r in recs)

    def test_reference_keeps_load_degree(self, monkeypatch):
        # off the square the reference is the study's spec with P1
        # elements: same data (the load has one quadrature rule)
        refs = []
        wrap_everywhere(monkeypatch, helmqo.certify.solve_helmholtz,
                        lambda a, u: refs.append(a[0]))
        spec = ProblemSpec(CR, 50.0, rhs=GaussianBump(100.0, 10.0, (0.3, 0.3)))
        convergence_study(spec, build_square_with_hole(2.0, 1.0, 4), 1)
        [ref] = refs
        assert ref.family == P1
        assert (ref.k2, ref.rhs) == (spec.k2, spec.rhs)

    def test_unit_square_takes_the_data_the_load_takes(self):
        # the series evaluates the data on a grid of points, one value
        # each, as the load does, so data of x alone need not broadcast
        # against y
        spec = ProblemSpec(P1, 50.0, rhs=lambda x, y: np.sin(np.pi * x))
        [rec] = convergence_study(spec, build_unit_square(4), 1)
        assert rec.ndof == 9 and rec.error > 0.0

    def test_unit_square_rejects_scalar_data(self):
        spec = ProblemSpec(P1, 50.0, rhs=lambda x, y: 1.0)
        with pytest.raises(ValueError, match="one value per point"):
            convergence_study(spec, build_unit_square(4), 1)

    def test_round_trip_floats(self):
        spec = ProblemSpec(P1, 100.0, rhs=SineProduct(((3, 4, 1.0),)))
        recs = convergence_study(spec, build_unit_square(8), 2)
        line = study_to_csv(recs).strip().splitlines()[1].split(",")
        assert float(line[0]) == recs[0].h
        assert float(line[2]) == recs[0].error


class TestNestedCountProof:
    """On the all-Dirichlet unit square, a conforming study takes the count
    below k^2 as proved on every mesh finer than one whose count is the
    exact index, and reads no pivots there."""

    PI2 = math.pi ** 2
    # well inside gaps, and 2e-6 (relative) above or below an eigenvalue
    K2 = (30.0, 60.0, 100.0, 150.0, 200.0, 260.0, 400.0,
          5 * PI2 * (1 + 2e-6), 8 * PI2 * (1 - 2e-6),
          10 * PI2 * (1 + 2e-6), 13 * PI2 * (1 - 2e-6))

    @pytest.mark.parametrize("family", [P1, P2])
    def test_exact_count_kept_on_finer_meshes(self, family):
        exact = unit_square_spectrum(100)
        mesh, levels = build_unit_square(4), []
        for _ in range(4):
            levels.append(build_space(mesh, family).pencil)
            mesh = refine_uniform(mesh)
        proved = 0
        for k2 in self.K2:
            assert abs(exact - k2).min() >= 1e-6 * k2
            i_star = unit_square_index(k2)
            counts = [count_below(A, M, k2) for A, M in levels]
            # conforming counts never exceed the exact one and never fall
            # under refinement ...
            assert all(c <= i_star for c in counts)
            assert counts == sorted(counts)
            # ... so once one level reaches it, every finer level keeps it
            if i_star in counts:
                first = counts.index(i_star)
                assert counts[first:] == [i_star] * (len(counts) - first)
                proved += len(counts) - 1 - first
        assert proved >= 10

    @staticmethod
    def study(family, k2, refinements):
        spec = ProblemSpec(family, k2,
                           rhs=SineProduct(((3, 4, 1.0), (4, 3, 1.0))))
        return convergence_study(spec, build_unit_square(4), refinements)

    @pytest.mark.parametrize("family, k2, read", [
        (P1, 60.0, [9, 49]), (P2, 100.0, [49, 225]), (P2, 150.0, [49])])
    def test_proved_meshes_read_no_pivots(self, monkeypatch, family, k2,
                                          read):
        # counts [1, 3, 3, 3], [4, 6, 6, 6] and [8, 8, 8, 8]: pivots are
        # read up to the first mesh whose count is the exact index
        import helmqo.spectral
        factorization = helmqo.sparsela.Factorization
        inertia = factorization.inertia
        reads, checks = [], []
        monkeypatch.setattr(factorization, "inertia", property(
            lambda F: reads.append((F.n, F.sigma)) or inertia.fget(F)))
        wrap_everywhere(monkeypatch, helmqo.spectral.eigen_ladder,
                        lambda a, E: checks.append(a[2]))
        recs = self.study(family, k2, 4)
        assert sorted(set(reads)) == [(n, k2) for n in read]
        assert [r.ndof for r in recs[:len(read)]] == read
        # a proved count is still the ladder's cross-check
        assert checks[len(read) - 1:] == \
            [{k2: unit_square_index(k2)}] * (5 - len(read))

    @pytest.mark.parametrize("family, k2", [(P1, 60.0), (P1, 100.0),
                                            (P2, 100.0)])
    def test_proof_leaves_the_csv_unchanged(self, monkeypatch, family, k2):
        proved = study_to_csv(self.study(family, k2, 4))
        monkeypatch.setattr(helmqo.certify, "_kept_count", lambda spec: None)
        assert study_to_csv(self.study(family, k2, 4)) == proved

    def test_cr_reads_every_count(self, monkeypatch):
        # CR eigenvalues lie on either side of the exact ones: no proof
        factorization = helmqo.sparsela.Factorization
        inertia = factorization.inertia
        reads = []
        monkeypatch.setattr(factorization, "inertia", property(
            lambda F: reads.append(F.n) or inertia.fget(F)))
        recs = self.study(CR, 100.0, 3)
        assert sorted(set(reads)) == [r.ndof for r in recs]


class TestPencilReuse:
    """Each space assembles, constrains and factorizes its pencil once."""

    def test_cr_run_factorizes_each_shift_once(self, monkeypatch):
        import helmqo.spaces
        import helmqo.sparsela
        factorized = []
        stiffness = []
        wrap_everywhere(monkeypatch, helmqo.sparsela.ldlt,
                        lambda a, F: factorized.append(
                            (matrix_digest(a[0]), matrix_digest(a[2]),
                             a[1])))
        wrap_everywhere(monkeypatch, helmqo.spaces.assemble_stiffness,
                        lambda a, K: stiffness.append(a[0]))
        rep = run_gmr(ProblemSpec(CR, 100.0), build_unit_square(4),
                      "uniform", None, max_iters=3)
        assert len(rep.iterations) == 3 and not rep.certified
        # at least count_below(lam_need) and count_below(k2) per step
        assert len(factorized) >= 2 * 3
        assert len(set(factorized)) == len(factorized)
        cr_spaces = [s for s in stiffness if s.family == CR]
        assert len(cr_spaces) == 3
        assert len({id(s) for s in cr_spaces}) == len(cr_spaces)

    @pytest.mark.parametrize("family, mesh, k2, i_star", [
        (CR, build_square_with_hole(0.75, 0.3, 10), 400.0, None),
        (P1, build_unit_square(4), 100.0, 6)], ids=["cr", "oracle"])
    def test_each_space_freed_before_the_next_is_counted(
            self, monkeypatch, family, mesh, k2, i_star):
        # no step on the next mesh reads a mesh's pencil, ladder or
        # indicator, so none of them is alive beside its factorizations
        import gc
        import weakref
        import helmqo.spaces
        import helmqo.sparsela
        spaces = []
        wrap_everywhere(monkeypatch, helmqo.spaces.build_space,
                        lambda a, s: spaces.append(weakref.ref(s)))

        def only_the_last_alive(a, count):
            gc.collect()
            assert [r() is None for r in spaces] == \
                [True] * (len(spaces) - 1) + [False]
        wrap_everywhere(monkeypatch, helmqo.sparsela.count_below,
                        only_the_last_alive)
        rep = run_gmr(ProblemSpec(family, k2), mesh, "adaptive", i_star)
        assert rep.certified and len(spaces) == len(rep.iterations) >= 2

    def test_study_factorizes_each_mesh_once(self, monkeypatch):
        import helmqo.sparsela
        factorized = []
        wrap_everywhere(monkeypatch, helmqo.sparsela.ldlt,
                        lambda a, F: factorized.append(
                            (matrix_digest(a[0]), a[1])))
        counted = []
        wrap_everywhere(monkeypatch, helmqo.sparsela.count_below,
                        lambda a, n: counted.append(n))
        spec = ProblemSpec(P1, 100.0, rhs=SineProduct(((1, 2, 1.0),)))
        recs = convergence_study(spec, build_unit_square(4), 3)
        # each k^2 solve, plus one shift-invert factorization on the
        # 225-dof mesh, the only one above the dense eigensolver limit
        assert len(factorized) == 4
        assert len(set(factorized)) == len(factorized)
        assert counted == []
        monkeypatch.undo()
        # the ladder is eigen_ladder's, counted at k^2 with one more pair
        mesh = build_unit_square(4)
        for rec in recs:
            E = counted_ladder(build_space(mesh, P1), 100.0, 1,
                               min_pairs=unit_square_index(100.0) + 1)
            assert (rec.ev_i, rec.ev_ipo) == (E.values[5], E.values[6])
            mesh = refine_uniform(mesh)

    def test_off_square_study_factorizes_each_pencil_once(self,
                                                          monkeypatch):
        # i* is the finest mesh's own count, read from its solve: no second
        # CR space of that mesh, and no second factor at k^2
        import helmqo.spaces
        import helmqo.sparsela
        factorized, spaces = [], []
        wrap_everywhere(monkeypatch, helmqo.sparsela.ldlt,
                        lambda a, F: factorized.append(
                            (matrix_digest(a[0]), matrix_digest(a[2]),
                             a[1])))
        wrap_everywhere(monkeypatch, helmqo.spaces.build_space,
                        lambda a, s: spaces.append(s))
        spec = ProblemSpec(CR, 400.0,
                           rhs=SineProduct(((3, 4, 1.0), (4, 3, 1.0))))
        recs = convergence_study(spec, build_square_with_hole(0.75, 0.3, 10),
                                 2)
        assert len(set(factorized)) == len(factorized)
        assert sorted(s.mesh.n_triangles for s in spaces
                      if s.family == CR) == [168, 672]
        assert [r.ndof for r in recs] == [224, 952]
        assert recs[-1].ev_i < 400.0 <= recs[-1].ev_ipo

    def test_study_checks_ladder_against_inertia(self, monkeypatch):
        import helmqo.sparsela
        drop_lowest_pair(monkeypatch)
        shifts = []
        wrap_everywhere(monkeypatch, helmqo.sparsela.ldlt,
                        lambda a, F: shifts.append(a[1]))
        spec = ProblemSpec(P1, 100.0, rhs=SineProduct(((1, 2, 1.0),)))
        with pytest.raises(EigenSolveError, match="inertia counts"):
            convergence_study(spec, build_unit_square(8), 1)
        # the count is the solve's; the 49-dof ladder needs no factor
        assert shifts == [100.0]

    def test_study_assembles_stiffness_once_per_mesh(self, monkeypatch):
        import helmqo.spaces
        stiffness = []
        wrap_everywhere(monkeypatch, helmqo.spaces.assemble_stiffness,
                        lambda a, K: stiffness.append(a[0].mesh))
        spec = ProblemSpec(P1, 30.0, rhs=SineProduct(((1, 2, 1.0),)))
        recs = convergence_study(spec, build_unit_square(4), 3)
        assert len(recs) == 3
        assert len(stiffness) == 3
        assert len({id(m) for m in stiffness}) == 3
