import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helmqo.estimator
from helmqo.estimator import IndicatorField, mark_half_max, residual_indicator
from helmqo.mesh import (BoundaryTag, Mesh, build_square_with_hole,
                         build_unit_square, refine_bisection, refine_uniform)
from helmqo.spaces import CR, P1, P2, build_space
from helmqo.sparsela import EigenResult, eigs_smallest

from conftest import counted_ladder, loop_residual_indicator, traced_peak


def ladder_with_vectors(n, k2, family=P1, extra=3, min_pairs=10):
    """The space of the n x n square and its :func:`counted_ladder`."""
    space = build_space(build_unit_square(n), family)
    return space, counted_ladder(space, k2, extra, min_pairs)


def synthetic(values, vectors):
    return EigenResult(np.asarray(values, dtype=float), vectors)


def indicator(space, E: EigenResult, i_star: int, extra: int):
    """``residual_indicator`` summed over ``i_star + extra`` pairs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helmqo.estimator, "INDICATOR_EXTRA_PAIRS", extra)
        return residual_indicator(space, E, i_star)


class TestResidualIndicator:
    def test_zero_eigenvectors(self):
        space = build_space(build_unit_square(4), P1)
        E = synthetic([1.0, 2.0], np.zeros((space.n_free, 2)))
        eta = indicator(space, E, 1, 1)
        assert np.all(eta.values == 0.0)

    def test_single_edge_jump_formula(self):
        # one hat-function eigenvector with lambda = 0: the volume term
        # vanishes (piecewise linear) and each element adjacent to an
        # interior edge receives (h_K / 2) * jump^2 * edge_length
        mesh = build_unit_square(1, tags=BoundaryTag.NEUMANN)
        space = build_space(mesh, P1)
        vec = np.zeros((space.n_free, 1))
        free_index = {d: i for i, d in enumerate(space.free_dofs)}
        vec[free_index[0]] = 1.0     # hat at vertex (0, 0)
        E = synthetic([0.0], vec)
        eta = indicator(space, E, 1, 0)
        # hat at (0,0): gradient (-1,-1) on T0, ... jump across the
        # diagonal; compute the expected value directly
        interior = np.flatnonzero(mesh.edge2tri[:, 1] >= 0)
        assert len(interior) == 1
        a, b = mesh.edges[interior[0]]
        length = np.linalg.norm(mesh.vertices[a] - mesh.vertices[b])
        ev = mesh.vertices[b] - mesh.vertices[a]
        normal = np.array([ev[1], -ev[0]]) / length
        grads = []
        for t in range(2):
            tri = mesh.triangles[t]
            p = mesh.vertices[tri]
            loc = list(tri).index(0)
            d1 = p[(loc + 1) % 3] - p[loc]
            d2 = p[(loc + 2) % 3] - p[loc]
            # gradient of the hat on this triangle
            import numpy.linalg as la
            B = np.array([p[1] - p[0], p[2] - p[0]]).T
            coef = np.zeros(3)
            coef[loc] = 1.0
            g = la.solve(B.T, coef[1:] - coef[0])
            grads.append(g)
        jump = (grads[0] - grads[1]) @ normal
        h = mesh.diameters
        expected = 0.5 * h * jump ** 2 * length
        assert np.allclose(eta.values, expected, rtol=1e-12)

    def test_requires_positive_index(self):
        space, E = ladder_with_vectors(8, 100.0)
        with pytest.raises(ValueError):
            residual_indicator(space, E, 0)

    def test_requires_enough_pairs(self):
        space, E = ladder_with_vectors(8, 100.0, extra=1, min_pairs=6)
        with pytest.raises(ValueError):
            indicator(space, E, 6, 5)

    def test_scale_covariance(self):
        space, E = ladder_with_vectors(8, 100.0)
        eta1 = residual_indicator(space, E, 6)
        E2 = EigenResult(E.values, 3.0 * E.vectors)
        eta2 = residual_indicator(space, E2, 6)
        assert np.allclose(eta2.values, 9.0 * eta1.values, rtol=1e-10)
        assert np.array_equal(mark_half_max(eta1), mark_half_max(eta2))

    def test_permutation_equivariance(self):
        m = build_unit_square(3)
        perm = np.random.default_rng(1).permutation(m.n_triangles)
        m2 = Mesh(m.vertices, m.triangles[perm], m.edges[m.dirichlet_edge_ids],
                  m.refinement_edge[perm])
        s1 = build_space(m, P1)
        s2 = build_space(m2, P1)
        E1 = counted_ladder(s1, 60.0, 1, min_pairs=4)
        E2 = counted_ladder(s2, 60.0, 1, min_pairs=4)
        eta1 = indicator(s1, E1, 3, 1)
        eta2 = indicator(s2, E2, 3, 1)
        assert np.allclose(eta2.values, eta1.values[perm], rtol=1e-6)

    def test_total_decreases_under_refinement(self):
        totals = []
        for n in (8, 16, 32):
            space, E = ladder_with_vectors(n, 100.0)
            totals.append(residual_indicator(space, E, 6).values.sum())
        assert totals[0] > totals[1] > totals[2]

    def test_cr_supported(self):
        space, E = ladder_with_vectors(8, 100.0, CR)
        eta = residual_indicator(space, E, 6)
        assert (eta.values >= 0).all() and eta.values.sum() > 0

    def test_singularity_detection_at_reentrant_corners(self):
        mesh = build_square_with_hole(2.0, 1.0, 8)
        mesh = refine_uniform(refine_uniform(mesh))
        space = build_space(mesh, P1)
        E = counted_ladder(space, 15.0, 3, min_pairs=5)
        eta = residual_indicator(space, E, 2)
        top = int(np.argmax(eta.values))
        corners = {(0.5, 0.5), (-0.5, 0.5), (0.5, -0.5), (-0.5, -0.5)}
        pts = mesh.vertices[mesh.triangles[top]]
        touches = any(tuple(np.round(p, 12)) in corners for p in pts)
        assert touches, f"max indicator at {pts}"


class TestMarking:
    def test_half_max_definition(self):
        eta = IndicatorField(np.array([1.0, 0.4, 0.6]))
        assert mark_half_max(eta).tolist() == [0, 2]

    def test_constant_marks_all(self):
        eta = IndicatorField(np.full(5, 3.0))
        assert mark_half_max(eta).tolist() == list(range(5))

    def test_zeros_mark_nothing(self):
        eta = IndicatorField(np.zeros(4))
        assert mark_half_max(eta).tolist() == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IndicatorField(np.array([-1.0]))


class TestQuadraticElements:
    def test_p2_volume_term_nonzero(self):
        # quadratic eigenfunctions have a nonvanishing broken Laplacian,
        # so the volume residual contributes even without edge jumps
        space, E = ladder_with_vectors(8, 100.0, P2)
        eta = residual_indicator(space, E, 6)
        assert (eta.values >= 0).all()
        assert eta.values.sum() > 0

    def test_p2_marking_runs(self):
        space, E = ladder_with_vectors(8, 100.0, P2)
        marked = mark_half_max(residual_indicator(space, E, 6))
        assert 0 < len(marked) <= space.mesh.n_triangles


def rotate_vertices(m: Mesh, shifts: np.ndarray) -> Mesh:
    """``m`` with triangle t's vertex list rotated by ``shifts[t]``."""
    idx = (np.arange(3) + shifts[:, None]) % 3
    return Mesh(m.vertices, np.take_along_axis(m.triangles, idx, axis=1),
                m.edges[m.dirichlet_edge_ids],
                ((m.refinement_edge - shifts) % 3).astype(np.int8))


def assert_matches_loop(space, i_star: int, extra: int):
    """``residual_indicator`` on the ``i_star + extra`` smallest pairs of
    ``space`` against :func:`loop_residual_indicator`."""
    E = eigs_smallest(*space.pencil, i_star + extra)
    got = indicator(space, E, i_star, extra)
    want = loop_residual_indicator(space, E, i_star, extra)
    # the jump is a difference of two fluxes, so where it nearly cancels a
    # reordered sum moves the small entries by more than 1e-12 relative;
    # those are held to 1e-12 of the largest entry
    np.testing.assert_allclose(got.values, want.values, rtol=1e-12,
                               atol=1e-12 * want.values.max())
    assert np.array_equal(mark_half_max(got), mark_half_max(want))


class TestLoopOracle:
    @settings(max_examples=20)
    @given(family=st.sampled_from([P1, P2, CR]), data=st.data())
    def test_matches_loop_indicator(self, family, data):
        D, N = BoundaryTag.DIRICHLET, BoundaryTag.NEUMANN
        outer = data.draw(st.sampled_from([D, N]), label="outer")
        inner = data.draw(st.sampled_from([0.5, 1.0]), label="inner")
        m = build_square_with_hole(2.0, inner,
                                   data.draw(st.integers(4, 6), label="n"),
                                   outer_tag=outer,
                                   inner_tag=N if outer == D else D)
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        if data.draw(st.booleans(), label="uniform"):
            m = refine_uniform(m)
        for _ in range(data.draw(st.integers(0, 3), label="rounds")):
            frac = data.draw(st.floats(0.0, 0.5), label="fraction")
            m = refine_bisection(m, np.flatnonzero(
                rng.random(m.n_triangles) < frac).tolist()
                + [int(rng.integers(m.n_triangles))])
        if data.draw(st.booleans(), label="rotate"):
            m = rotate_vertices(m, rng.integers(0, 3, m.n_triangles))
        i_star = data.draw(st.integers(1, 4), label="i_star")
        extra = data.draw(st.integers(0, 3), label="extra")
        assert_matches_loop(build_space(m, family), i_star, extra)

    @pytest.mark.parametrize("family", [P1, P2, CR])
    def test_rotated_vertex_order(self, family):
        # neighbours rotated by different shifts hold a shared edge's
        # vertices at different local positions
        m = refine_uniform(build_square_with_hole(2.0, 1.0, 4))
        m = rotate_vertices(m, np.arange(m.n_triangles) % 3)
        assert_matches_loop(build_space(m, family), 3, 2)

    def test_traced_peak_at_10k_triangles(self):
        # mesh-only data is built once: the peak is the edge geometry, not
        # a multiple of the number of eigenfunctions (about 15.6 MiB when
        # the geometry was rebuilt per eigenfunction)
        m = build_square_with_hole(0.75, 0.3, 10)
        for _ in range(3):
            m = refine_uniform(m)
        assert m.n_triangles == 10752
        space = build_space(m, P1)
        rng = np.random.default_rng(0)
        nfun = 24
        E = EigenResult(np.arange(1.0, nfun + 1),
                        rng.standard_normal((space.n_free, nfun)))
        assert traced_peak(indicator, space, E, 20, 4) < 12 * 2 ** 20
