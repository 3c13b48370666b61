import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

import helmqo.spaces

from helmqo.mesh import (BoundaryTag, Mesh, build_square_with_hole,
                         build_unit_square, build_unit_square_unstructured,
                         refine_bisection, refine_uniform)
from helmqo.spaces import (CR, LOAD_DEGREE, P1, P2, ElementFamily,
                           FeFunction, assemble_load, assemble_mass,
                           assemble_stiffness, build_space, element_matrices,
                           l2_error, shape_gradients, shape_values)
from helmqo.quadrature import triangle_rule
from helmqo.sparsela import eigs_smallest, ldlt, solve
from helmqo.spectral import _p2_lifts, compute_bounds
from helmqo.certify import GaussianBump, SineProduct, sine_series_reference

from conftest import (dense, dof_locations, full_coefficients, interpolate,
                      jittered_square, loop_cr_vertex_mean,
                      loop_p2_stiffness, oneshot_assemble_load,
                      oneshot_l2_error, traced_peak)

N = BoundaryTag.NEUMANN


def reference_mesh():
    """The reference triangle, Neumann on its sides: every dof is free."""
    return Mesh.from_triangulation(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]), N)


def on_all_dofs(space, A) -> np.ndarray:
    """The free-dof matrix ``A`` as a dense matrix on all dofs, zero in
    the rows and columns of constrained dofs."""
    full = np.zeros((space.ndof, space.ndof))
    full[np.ix_(space.free_dofs, space.free_dofs)] = dense(A)
    return full


def laplace_solution(space, f):
    A, M = assemble_stiffness(space), assemble_mass(space)
    b = assemble_load(space, f)
    return FeFunction(space, solve(ldlt(A, 0.0, M), b))


class TestFamilies:
    def test_names(self):
        assert [ElementFamily(name) for name in ("p1", "p2", "cr")] \
            == [P1, P2, CR]
        assert [str(f) for f in ElementFamily] == ["p1", "p2", "cr"]
        with pytest.raises(ValueError):
            ElementFamily("p3")

    def test_dof_counts(self):
        assert build_space(build_unit_square(1), P1).ndof == 4
        assert build_space(build_unit_square(1), P1).n_free == 0
        s = build_space(build_unit_square(2), P1)
        assert (s.ndof, s.n_free) == (9, 1)
        s = build_space(build_unit_square(1), CR)
        assert (s.ndof, s.n_free) == (5, 1)
        m = build_unit_square(2)
        s = build_space(m, P2)
        assert s.ndof == m.n_vertices + m.n_edges
        # the free dofs, in some order, are those off the Dirichlet boundary
        at = dof_locations(s)
        inside = ((at > 0) & (at < 1)).all(axis=1)
        assert np.array_equal(np.sort(s.free_dofs), np.flatnonzero(inside))

    @pytest.mark.parametrize("family, table", [(P1, "triangles"),
                                               (CR, "tri2edge"), (P2, None)])
    def test_dof_tables_are_int32_and_p1_cr_views_of_the_mesh(self, family,
                                                              table):
        m = build_square_with_hole(0.75, 0.3, 4, inner_tag=N)
        s = build_space(m, family)
        assert s.cell_dofs.dtype == s.free_dofs.dtype == np.int32
        assert not s.cell_dofs.flags.writeable
        if table is not None:
            assert s.cell_dofs is getattr(m, table)
            assert np.shares_memory(s.cell_dofs, getattr(m, table))


def bisected_hole():
    mesh = build_square_with_hole(0.75, 0.3, 4)
    return refine_bisection(mesh, range(0, mesh.n_triangles, 3))


NUMBERED_MESHES = {
    "square": lambda: build_unit_square(6),
    "hole": lambda: build_square_with_hole(0.75, 0.3, 4, inner_tag=N),
    "unstructured": lambda: build_unit_square_unstructured(6, seed=1),
    "bisected-hole": bisected_hole,
    "neumann": lambda: build_unit_square(4, tags=N),
}


@pytest.mark.parametrize("family", [P1, P2, CR])
@pytest.mark.parametrize("geometry", list(NUMBERED_MESHES))
class TestFreeDofNumbering:
    def test_reverse_cuthill_mckee_of_the_cell_graph(self, geometry,
                                                     family):
        # oracle: the dense graph joining free dofs that share a triangle,
        # in ascending dof order, then SciPy's RCM of it
        s = build_space(NUMBERED_MESHES[geometry](), family)
        ascending = np.sort(s.free_dofs)
        assert len(np.unique(s.free_dofs)) == s.n_free
        position = {int(d): i for i, d in enumerate(ascending)}
        graph = np.zeros((s.n_free, s.n_free), dtype=bool)
        for cell in s.cell_dofs:
            local = [position[int(d)] for d in cell if int(d) in position]
            graph[np.ix_(local, local)] = True
        rcm = reverse_cuthill_mckee(sp.csr_matrix(graph), symmetric_mode=True)
        assert np.array_equal(s.free_dofs, ascending[rcm])

    def test_pencil_is_the_ascending_pencil_renumbered(self, geometry,
                                                      family):
        # entry for entry, once the ascending pencil's zeros are dropped;
        # the ascending pencil is the free block of the local matrices
        # scattered to all dofs
        s = build_space(NUMBERED_MESHES[geometry](), family)
        ascending = np.sort(s.free_dofs)
        order = np.searchsorted(ascending, s.free_dofs)
        for mine, mass in zip(s.pencil, (False, True)):
            full = reference_scatter(s, element_matrices(s.mesh, s.family,
                                                         mass=mass))
            ref = full[ascending][:, ascending]
            ref = ref[order][:, order].tocsr()
            ref.eliminate_zeros()
            ref.sort_indices()
            got = mine.to_scipy()
            assert (got.data != 0.0).all()
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))

    def test_cell_free_is_the_free_number_of_each_local_dof(self, geometry,
                                                            family):
        s = build_space(NUMBERED_MESHES[geometry](), family)
        # built on first read: assembly does not build it
        assert s.pencil and assemble_load(s, lambda x, y: x + y) is not None
        assert "cell_free" not in vars(s)
        number = {int(d): i for i, d in enumerate(s.free_dofs)}
        expected = [[number.get(int(d), -1) for d in cell]
                    for cell in s.cell_dofs]
        assert s.cell_free.dtype == np.int32
        assert np.array_equal(s.cell_free,
                              np.reshape(expected, s.cell_dofs.shape))

    def test_cell_values_against_a_per_triangle_loop(self, geometry,
                                                     family):
        # oracle: each local dof of each triangle looked up by its global
        # number, 0 where the dof is constrained
        s = build_space(NUMBERED_MESHES[geometry](), family)
        number = {int(d): i for i, d in enumerate(s.free_dofs)}
        X = np.random.default_rng(7).standard_normal((s.n_free, 3))

        def loop(x, triangles):
            out = np.zeros((len(triangles),) + s.cell_dofs.shape[1:]
                           + x.shape[1:])
            for k, t in enumerate(triangles):
                for a, d in enumerate(s.cell_dofs[t]):
                    if int(d) in number:
                        out[k, a] = x[number[int(d)]]
            return out

        every = np.arange(s.mesh.n_triangles)
        # a strided column, a C-ordered block and a Fortran-ordered one,
        # as eigenvectors come
        for x in (X[:, 1], X, np.asfortranarray(X)):
            assert np.array_equal(s.cell_values(x), loop(x, every))
            for triangles in (slice(2, None, 3), np.array([5, 0, 5])):
                assert np.array_equal(s.cell_values(x, triangles),
                                      loop(x, every[triangles]))


class TestStiffness:
    def test_p1_local_reference(self):
        s = build_space(reference_mesh(), P1)
        K = on_all_dofs(s, assemble_stiffness(s))
        expected = np.array([[1.0, -0.5, -0.5],
                             [-0.5, 0.5, 0.0],
                             [-0.5, 0.0, 0.5]])
        assert np.allclose(K, expected, atol=1e-14)

    def test_cr_is_four_times_p1_with_edge_map(self):
        m = reference_mesh()
        s_p1, s_cr = build_space(m, P1), build_space(m, CR)
        Kp = on_all_dofs(s_p1, assemble_stiffness(s_p1))
        Kc = on_all_dofs(s_cr, assemble_stiffness(s_cr))
        idx = m.tri2edge[0]   # edge dof opposite each vertex
        assert np.allclose(Kc[np.ix_(idx, idx)], 4.0 * Kp, atol=1e-14)

    def test_row_sums_vanish(self):
        # constants lie in the kernel when no dof is constrained
        for fam in (P1, P2):
            s = build_space(build_unit_square(3, N), fam)
            A = assemble_stiffness(s)
            assert A.n == s.ndof
            assert np.allclose(A.to_scipy().sum(axis=1), 0.0, atol=1e-12)

    def test_exact_symmetry(self):
        for fam in (P1, P2, CR):
            A = assemble_stiffness(build_space(build_unit_square(4), fam))
            d = (A.to_scipy() - A.to_scipy().T)
            assert d.nnz == 0 or abs(d).max() == 0.0

    def test_p2_reference_tensor_against_loop(self):
        # the reference-tensor product sums in another order than the loop;
        # 16 ulp of the largest entry covers it
        s = build_space(jittered_square(8, 3, 0.4), P2)
        K = dense(assemble_stiffness(s))
        expected = loop_p2_stiffness(s)[np.ix_(s.free_dofs, s.free_dofs)]
        scale = abs(expected).max()
        assert np.abs(K - expected).max() <= 16 * np.finfo(float).eps * scale


class TestMass:
    def test_p1_local_reference(self):
        s = build_space(reference_mesh(), P1)
        M = on_all_dofs(s, assemble_mass(s))
        assert np.allclose(M, (0.5 / 12) * (np.ones((3, 3)) + np.eye(3)),
                           atol=1e-15)

    def test_cr_local_diagonal(self):
        s = build_space(reference_mesh(), CR)
        M = on_all_dofs(s, assemble_mass(s))
        assert np.allclose(M, (0.5 / 3) * np.eye(3), atol=1e-15)

    def test_cr_global_diagonal(self):
        import scipy.sparse
        M = assemble_mass(build_space(build_unit_square(4), CR)).to_scipy()
        off = M - scipy.sparse.diags(M.diagonal())
        assert (abs(off).max() if off.nnz else 0.0) == 0.0

    @pytest.mark.parametrize("tag", [BoundaryTag.DIRICHLET, N])
    def test_cr_pencil_mass_stores_its_diagonal(self, tag):
        s = build_space(build_square_with_hole(0.75, 0.3, 6, inner_tag=tag),
                        CR)
        M = s.pencil[1].to_scipy()
        assert M.nnz == s.n_free
        assert (M.diagonal() > 0.0).all()

    def test_partition_of_unity(self):
        s = build_space(build_unit_square(5, N), P1)
        M = assemble_mass(s)
        assert M.n == s.ndof
        ones = np.ones(M.n)
        assert np.isclose(ones @ (M.to_scipy() @ ones), 1.0, atol=1e-12)

    def test_positive_definite(self):
        for fam in (P1, P2, CR):
            s = build_space(build_unit_square(4), fam)
            M = dense(assemble_mass(s))
            np.linalg.cholesky(M)   # raises if not SPD


class TestLoad:
    def test_constant_sums_to_area(self):
        for fam in (P1, CR):
            s = build_space(build_unit_square(4, N), fam)
            assert s.n_free == s.ndof
            b = assemble_load(s, lambda x, y: np.ones_like(x))
            assert np.isclose(b.sum(), 1.0, atol=1e-12)

    def test_zero(self):
        s = build_space(build_unit_square(2), P1)
        assert np.all(assemble_load(s, lambda x, y: 0.0 * x) == 0.0)

    def test_gaussian_bump_total_integral(self):
        # closed-form oracle: integral over the plane is amp * pi / width^2
        bump = GaussianBump(5e4, 40.0, (0.75, -0.75))
        m = build_square_with_hole(2.0, 0.5, 128, outer_tag=N, inner_tag=N)
        assert (2.0 * math.sqrt(2) / 128) < 1.0 / 40  # h below bump scale
        s = build_space(m, P1)
        b = assemble_load(s, bump)
        exact = 5e4 * math.pi / 40.0 ** 2
        assert abs(b.sum() - exact) < 0.01 * exact

    def test_scalar_callable_vectorized(self):
        # data that also take scalars are called on arrays, never per point
        s = build_space(build_unit_square(2), P1)
        seen = []

        def either(x, y):
            seen.append(np.isscalar(x))
            return float(x) + float(y) if np.isscalar(x) else x + y

        b1 = assemble_load(s, lambda x, y: x + y)
        b2 = assemble_load(s, either)
        assert np.allclose(b1, b2, atol=1e-15)
        assert seen and not any(seen)


def scalar_only(x, y):
    """Written for one point: given arrays it returns a single number."""
    return math.exp(np.max(x)) * math.sin(3.0 * np.max(y))


class TestLoadSlices:
    """``assemble_load`` in slices equals one evaluation of the whole mesh
    bit for bit, and its working set does not grow with the mesh."""

    @pytest.mark.parametrize("fam", [P1, P2, CR], ids=str)
    @pytest.mark.parametrize("slices", [4, 10])
    def test_bit_identical_to_one_shot(self, fam, slices, monkeypatch):
        # 3200 triangles: two slices at the default size, then 4 or 10
        # slices; the last one partial each time
        s = build_space(build_unit_square(40), fam)
        bump = GaussianBump(5e4, 40.0, (0.6, 0.7))
        want = oneshot_assemble_load(s, bump)[s.free_dofs]
        assert np.array_equal(assemble_load(s, bump), want)
        points = len(triangle_rule(LOAD_DEGREE).weights)
        monkeypatch.setattr(helmqo.spaces, "_SLICE_POINTS",
                            (3200 // slices + 1) * points)
        assert np.array_equal(assemble_load(s, bump), want)

    @pytest.mark.parametrize("fam", [P1, P2, CR], ids=str)
    def test_many_slices_and_a_one_triangle_tail(self, fam, monkeypatch):
        # 7 triangles per slice: 3200 = 457 * 7 + 1
        points = len(triangle_rule(LOAD_DEGREE).weights)
        monkeypatch.setattr(helmqo.spaces, "_SLICE_POINTS", 7 * points)
        s = build_space(build_unit_square(40), fam)
        f = SineProduct(((3, 4, 1.0), (4, 3, 1.0)))
        assert np.array_equal(assemble_load(s, f),
                              oneshot_assemble_load(s, f)[s.free_dofs])

    def test_scalar_only_callable(self):
        # data give one value per point: the np.vectorize fallback that
        # once called such data point by point is deleted
        s = build_space(build_square_with_hole(2.0, 0.5, 6), P2)
        u = FeFunction(s, np.zeros(s.n_free))
        with pytest.raises(ValueError, match="one value per point"):
            assemble_load(s, scalar_only)
        with pytest.raises(ValueError, match="one value per point"):
            l2_error(u, scalar_only)

    def test_working_set_is_bounded(self):
        # 73,728 triangles x 36 points: 2.7M points in one shot
        s = build_space(build_unit_square(192), P1)
        f = SineProduct(((3, 4, 1.0), (4, 3, 1.0)))
        assert traced_peak(assemble_load, s, f) < 32 * 2 ** 20


class TestConstrain:
    """Assembly keeps the free x free block of the matrix on all dofs."""

    def test_identity_when_no_dirichlet(self):
        m = build_unit_square(2, tags=N)
        s = build_space(m, P1)
        A = assemble_stiffness(s)
        assert A.n == s.ndof == m.n_vertices
        full = reference_scatter(s, element_matrices(m, P1)).toarray()
        assert np.array_equal(dense(A), full[np.ix_(s.free_dofs,
                                                    s.free_dofs)])

    def test_all_dirichlet_single_dof(self):
        s = build_space(build_unit_square(2), P1)
        full = reference_scatter(s, element_matrices(s.mesh, P1)).toarray()
        A = assemble_stiffness(s)
        assert A.n == 1
        (i,) = s.free_dofs
        assert dense(A)[0, 0] == full[i, i]

    def test_constrained_stiffness_positive_definite(self):
        s = build_space(build_unit_square(4), P1)
        A = dense(assemble_stiffness(s))
        assert np.linalg.eigvalsh(A).min() > 0


def lift_to_p2(u):
    """P2 coefficients of the lift of the CR function ``u``, on all dofs:
    the local coefficients that ``compute_bounds`` sums over, placed at
    their P2 dofs, where every triangle at a dof must agree."""
    s_cr = u.space
    s_p2 = build_space(s_cr.mesh, P2)
    X = u.coefficients[:, None]
    local = np.concatenate([Y[..., 0] for _, Y in _p2_lifts(s_cr, X)])
    lifted = np.zeros(s_p2.ndof)
    lifted[s_p2.cell_dofs] = local
    assert np.array_equal(lifted[s_p2.cell_dofs], local)
    return lifted


class TestAveraging:
    """The vertex values of the CR-to-P2 lift: per vertex, the mean of the
    CR function's elementwise limits there."""

    def test_continuous_linear_unchanged(self):
        m = build_unit_square(3, tags=N)
        u = interpolate(build_space(m, CR), lambda x, y: 1.0 + 2.0 * x - y)
        assert np.allclose(lift_to_p2(u)[:m.n_vertices],
                           1.0 + 2.0 * m.vertices[:, 0] - m.vertices[:, 1],
                           atol=1e-13)

    def test_vertex_mean_of_element_limits(self):
        m = build_unit_square_unstructured(3, seed=2, tags=N)
        s = build_space(m, CR)
        rng = np.random.default_rng(4)
        u = FeFunction(s, rng.standard_normal(s.n_free))
        assert np.allclose(lift_to_p2(u)[:m.n_vertices],
                           loop_cr_vertex_mean(
                               s, full_coefficients(s, u.coefficients)),
                           rtol=0.0, atol=1e-13)

    def test_two_element_mean_on_shared_edge(self):
        # dofs of triangle 0 set to one: the function is 1 on triangle 0
        # and equals the shared-edge basis function on triangle 1, so both
        # limits at the shared vertices are 1 and the opposite vertex of
        # triangle 1 sees -1
        m = build_unit_square(1, tags=N)
        s = build_space(m, CR)
        coeffs = np.zeros(s.n_free)
        coeffs[s.cell_free[0]] = 1.0
        lifted = lift_to_p2(FeFunction(s, coeffs))
        shared = set(m.triangles[0]) & set(m.triangles[1])
        only_t1 = set(m.triangles[1]) - set(m.triangles[0])
        for v in shared:
            assert np.isclose(lifted[v], 1.0)
        for v in only_t1:
            assert np.isclose(lifted[v], -1.0)

    def test_dirichlet_constraint_exact(self):
        # the limits at a Dirichlet vertex from its triangles need not
        # vanish; the lift sets the vertex to 0
        m = build_unit_square(3)
        s = build_space(m, CR)
        u = FeFunction(s, np.random.default_rng(6).standard_normal(s.n_free))
        assert np.all(lift_to_p2(u)[m.dirichlet_vertices()] == 0.0)


class TestCrToP2Lift:
    def test_edge_rows_identity_vertex_rows_average(self):
        # Dirichlet outer boundary: the edge values are the CR values, which
        # makes the lift injective
        m = build_unit_square(4)
        s_cr = build_space(m, CR)
        rng = np.random.default_rng(5)
        u = FeFunction(s_cr, rng.standard_normal(s_cr.n_free))
        full = full_coefficients(s_cr, u.coefficients)
        lifted = lift_to_p2(u)
        nv = m.n_vertices
        assert np.array_equal(lifted[nv:], full)
        interior = np.setdiff1d(np.arange(nv), m.dirichlet_vertices())
        assert np.allclose(lifted[interior],
                           loop_cr_vertex_mean(s_cr, full)[interior],
                           rtol=0.0, atol=1e-14)
        assert np.all(lifted[m.dirichlet_vertices()] == 0.0)

    def test_rejects_other_spaces(self):
        # the lift starts from Crouzeix-Raviart coefficients
        m = build_unit_square(2)
        for fam in (P1, P2):
            space = build_space(m, fam)
            E = eigs_smallest(*space.pencil, 1)
            with pytest.raises(ValueError, match="Crouzeix-Raviart"):
                compute_bounds(space, E)


def reference_local_matrices(mesh, family):
    """Local stiffness and mass matrices (nt, nloc, nloc), each family's
    formula written out in one piece; ``element_matrices`` must reproduce
    them bit for bit."""
    G = mesh.barycentric_gradients()
    gg = np.einsum("tjd,tkd,t->tjk", G, G, mesh.areas)
    if family == P1:
        K = gg
        ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    elif family == CR:
        K = 4.0 * gg
        ref = np.eye(3) / 3.0
    else:
        rule = triangle_rule(2)
        dN = shape_gradients(family, rule.points)
        tensor = np.einsum("qmj,qnk,q->jkmn", dN, dN, rule.weights)
        K = (gg.reshape(-1, 9) @ tensor.reshape(9, 36)).reshape(-1, 6, 6)
        K = 0.5 * (K + K.transpose(0, 2, 1))
        rule = triangle_rule(4)
        N = shape_values(family, rule.points)
        ref = np.einsum("qm,qn,q->mn", N, N, rule.weights)
    return K, ref[None, :, :] * mesh.areas[:, None, None]


def reference_scatter(space, local) -> sp.csr_matrix:
    nloc = space.cell_dofs.shape[1]
    dofs = space.cell_dofs.astype(np.int32)
    rows = np.repeat(dofs, nloc, axis=1).ravel()
    cols = np.tile(dofs, (1, nloc)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(space.ndof, space.ndof)).tocsr()
    mat.eliminate_zeros()    # assembly stores no zeros, cancelled or not
    return mat


class TestElementMatrices:
    @pytest.mark.parametrize("fam", [P1, P2, CR])
    def test_assembly_bit_identical_to_local_formulas(self, fam):
        m = build_unit_square_unstructured(6, seed=1)
        m = refine_uniform(m)
        s = build_space(m, fam)
        K, M = reference_local_matrices(m, fam)
        assert np.array_equal(element_matrices(m, fam), K)
        assert np.array_equal(element_matrices(m, fam, mass=True), M)
        free = s.free_dofs
        for assembled, local in ((assemble_stiffness(s), K),
                                 (assemble_mass(s), M)):
            want = reference_scatter(s, local)[free][:, free].tocsr()
            want.sort_indices()
            got = assembled.to_scipy()
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))


class TestRayleighQuotient:
    def test_sine_interpolant_monotone_upper_bound(self):
        vals = []
        for n in (16, 32):
            s = build_space(build_unit_square(n), P1)
            # the sine vanishes on the boundary: its free coefficients
            u = interpolate(s, lambda x, y: np.sin(np.pi * x)
                            * np.sin(np.pi * y)).coefficients
            A, M = (B.to_scipy() for B in s.pencil)
            vals.append((u @ (A @ u)) / (u @ (M @ u)))
        exact = 2 * math.pi ** 2
        assert vals[0] >= exact and vals[1] >= exact
        assert vals[1] < vals[0]
        assert vals[1] - exact < 0.01 * exact


class TestL2Error:
    def test_self_distance_zero(self):
        s = build_space(build_unit_square(3, N), P1)
        u = interpolate(s, lambda x, y: x * y)
        assert l2_error(u, FeFunction(s, u.coefficients.copy())) == 0.0

    def test_space_without_free_dofs(self):
        # the zero function is the only one there
        s = build_space(build_unit_square(1), P1)
        assert s.n_free == 0
        u = FeFunction(s, np.zeros(0))
        assert np.isclose(l2_error(u, lambda x, y: x * y), 1 / 3,
                          rtol=1e-14)

    def test_zero_vs_sine_product(self):
        s = build_space(build_unit_square(16), P1)
        u = FeFunction(s, np.zeros(s.n_free))
        err = l2_error(u, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        assert np.isclose(err, 0.5, atol=2e-4)   # sqrt(1/4 * 1/4 * 4) = 1/2

    def test_interpolation_rate(self):
        errs, hs = [], []
        fn = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        for n in (4, 8, 16, 32):
            s = build_space(build_unit_square(n), P1)
            errs.append(l2_error(interpolate(s, fn), fn))
            hs.append(math.sqrt(2) / n)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    def test_nested_reference_matches_callable(self):
        fn = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        coarse = build_unit_square(4)
        fine = refine_uniform(refine_uniform(coarse))
        u = interpolate(build_space(coarse, P1), fn)
        ref = interpolate(build_space(fine, P1), fn)
        e_nested = l2_error(u, ref)
        e_callable = l2_error(u, fn)
        assert abs(e_nested - e_callable) < 0.15 * e_callable

    def test_nested_cr_broken_evaluation(self):
        fn = lambda x, y: x * (1 - x) * y
        coarse = build_unit_square(4, N)
        fine = refine_uniform(coarse)
        u = interpolate(build_space(coarse, CR), fn)
        ref = interpolate(build_space(fine, P1), fn)
        assert l2_error(u, ref) < 0.05

    def test_non_nested_rejected(self):
        u = interpolate(build_space(build_unit_square(4, N), P1),
                        lambda x, y: x)
        ref = interpolate(build_space(build_unit_square(6, N), P1),
                          lambda x, y: x)
        with pytest.raises(ValueError):
            l2_error(u, ref)


class TestL2ErrorSlices:
    """The error against every kind of reference is streamed in slices of
    triangles that change no bit and keep the working set fixed."""

    fn = staticmethod(lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y))

    @pytest.mark.parametrize("levels", [0, 1, 2])
    @pytest.mark.parametrize("fam", [P1, P2, CR], ids=str)
    def test_bit_identical_to_one_shot(self, fam, levels, monkeypatch):
        # 7 triangles of 7 points per slice: 3200 = 7 q + 1 at levels 0
        # and 2; at level 0 the reference shares u's mesh and family, so
        # it interpolates another function
        monkeypatch.setattr(helmqo.spaces, "_SLICE_POINTS", 7 * 7)
        coarse = build_unit_square(40 if levels == 0 else 10)
        fine = coarse
        for _ in range(levels):
            fine = refine_uniform(fine)
        u = interpolate(build_space(coarse, fam), self.fn)
        if levels:
            ref = interpolate(build_space(fine, P1), self.fn)
        else:
            ref = interpolate(build_space(fine, fam),
                              lambda x, y: x * (1 - x) * y * (1 - y))
        err = l2_error(u, ref)
        assert err > 0.0
        assert err == oneshot_l2_error(u, ref)

    def test_non_nested_rejected_in_a_later_slice(self, monkeypatch):
        # the children of coarse triangles 3 and 5 swapped: the first
        # 7-triangle slice is nested, the second is not
        monkeypatch.setattr(helmqo.spaces, "_SLICE_POINTS", 7 * 7)
        coarse = build_unit_square(4)
        fine = refine_uniform(coarse)
        order = np.arange(fine.n_triangles)
        order[12:16], order[20:24] = order[20:24], order[12:16].copy()
        shuffled = Mesh(fine.vertices, fine.triangles[order],
                        fine.boundary_edges)
        u = interpolate(build_space(coarse, P1), self.fn)
        ref = interpolate(build_space(shuffled, P1), self.fn)
        with pytest.raises(ValueError, match="not nested"):
            l2_error(u, ref)

    @pytest.mark.parametrize("reference", ["function", "sine-series"])
    @pytest.mark.parametrize("fam", [P1, P2, CR], ids=str)
    def test_callable_bit_identical_to_one_shot(self, fam, reference,
                                                monkeypatch):
        # 7 triangles of 7 points per slice: 3200 = 7 * 457 + 1; the sine
        # series is the study's reference, evaluated in its own blocks
        monkeypatch.setattr(helmqo.spaces, "_SLICE_POINTS", 7 * 7)
        u = interpolate(build_space(build_unit_square(40), fam),
                        lambda x, y: x * (1 - x) * y * (1 - y))
        ref = self.fn if reference == "function" else sine_series_reference(
            SineProduct(((3, 4, 1.0), (4, 3, 1.0))), 100.0)
        err = l2_error(u, ref)
        assert err > 0.0
        assert err == oneshot_l2_error(u, ref)

    @pytest.mark.parametrize("reference", ["callable", "same-level"])
    def test_working_set_is_bounded_on_one_mesh(self, reference):
        # 263,538 triangles x 7 points: 1.8M points in one shot
        s = build_space(build_unit_square(363), P1)
        u = interpolate(s, lambda x, y: x * (1 - x) * y * (1 - y))
        ref = self.fn if reference == "callable" else interpolate(s, self.fn)
        assert traced_peak(l2_error, u, ref) < 32 * 2 ** 20

    def test_working_set_is_bounded(self):
        # 73,728 fine triangles x 7 points; 50.1 MiB in one shot
        coarse = build_unit_square(24)
        fine = refine_uniform(refine_uniform(refine_uniform(coarse)))
        u = interpolate(build_space(coarse, P1), self.fn)
        ref = interpolate(build_space(fine, P1), self.fn)
        assert traced_peak(l2_error, u, ref) < 20 * 2 ** 20


class TestGalerkinEnergy:
    exact = staticmethod(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    rhs = staticmethod(lambda x, y: 2 * math.pi ** 2 * np.sin(np.pi * x)
                       * np.sin(np.pi * y))

    def test_conforming_energy_below_interpolant(self):
        # Galerkin orthogonality: the discrete Laplace solution minimizes
        # the energy of the error, hence its own energy stays below the
        # interpolant's (conforming family)
        for n in (4, 8, 16):
            s = build_space(build_unit_square(n), P1)
            uh = laplace_solution(s, self.rhs).coefficients
            Iu = interpolate(s, self.exact).coefficients
            A = assemble_stiffness(s).to_scipy()
            assert uh @ (A @ uh) <= Iu @ (A @ Iu) + 1e-12

    def test_variational_minimality_both_families(self):
        # u_h minimizes J(v) = a(v,v)/2 - (f,v) over the discrete space,
        # which is the orthogonality surrogate valid for CR as well
        for fam in (P1, CR):
            for n in (4, 8):
                s = build_space(build_unit_square(n), fam)
                uh = laplace_solution(s, self.rhs).coefficients
                Iu = interpolate(s, self.exact).coefficients
                A = assemble_stiffness(s).to_scipy()
                b = assemble_load(s, self.rhs)
                J = lambda c: 0.5 * c @ (A @ c) - b @ c
                assert J(uh) <= J(Iu) + 1e-12


class TestElementEvaluation:
    def test_gradients_of_linear_interpolant(self):
        # sum of the coefficients times the barycentric gradients
        s = build_space(build_unit_square(3, tags=N), P1)
        u = interpolate(s, lambda x, y: 2.0 * x - 3.0 * y)
        g = np.einsum("tj,tjd->td", s.cell_values(u.coefficients),
                      s.mesh.barycentric_gradients())
        assert np.allclose(g[:, 0], 2.0, atol=1e-13)
        assert np.allclose(g[:, 1], -3.0, atol=1e-13)

    def test_p2_values_reproduce_quadratic(self):
        s = build_space(build_unit_square(2, tags=N), P2)
        fn = lambda x, y: x * y + x ** 2
        u = interpolate(s, fn)
        bary = np.array([[0.2, 0.5, 0.3], [1 / 3, 1 / 3, 1 / 3]])
        pts = np.einsum("qk,tkd->tqd", bary,
                        s.mesh.vertices[s.mesh.triangles])
        vals = u.values_on_elements(bary)
        assert np.allclose(vals, fn(pts[..., 0], pts[..., 1]), atol=1e-13)
