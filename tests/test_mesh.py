import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helmqo.mesh
from helmqo.mesh import (BoundaryTag, Mesh, MeshError, MeshFormatError,
                         build_square_with_hole, build_unit_square,
                         build_unit_square_unstructured, minimum_angle,
                         read_mesh, refine_bisection, refine_uniform,
                         write_mesh)

from conftest import (corner_geometry, jittered_square, loop_edge_table,
                      loop_edge_tags, loop_refine_bisection)

D, N = BoundaryTag.DIRICHLET, BoundaryTag.NEUMANN


def assert_valid(m: Mesh):
    """Re-derive the edge table and check the conformity invariants."""
    rebuilt = Mesh(m.vertices, m.triangles, m.boundary_edges,
                   m.refinement_edge)
    assert np.array_equal(rebuilt.edges, m.edges)
    assert np.array_equal(rebuilt.tri2edge, m.tri2edge)
    counts = np.zeros(m.n_edges, dtype=int)
    for row in m.tri2edge:
        counts[row] += 1
    assert set(np.unique(counts)) <= {1, 2}
    assert np.array_equal(np.flatnonzero(counts == 1), m.boundary_edge_ids)
    assert (m.areas > 0).all()


class TestBuilders:
    def test_minimal_split(self):
        m = build_unit_square(1)
        assert m.n_triangles == 2
        assert m.n_vertices == 4
        assert len(m.boundary_edges) == 4

    def test_counting(self):
        m = build_unit_square(4)
        assert m.n_triangles == 32
        assert m.n_vertices == 25

    def test_constructor_contract(self):
        assert_valid(build_unit_square(2))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build_unit_square(0)

    def test_default_all_dirichlet(self):
        m = build_unit_square(3)
        assert all(tag == D for _, tag in m.boundary_edges)

    def test_hole_euler_characteristic(self):
        m = build_square_with_hole(2.0, 1.0, 4)
        # annulus: V - E + F = 0
        assert m.n_vertices - m.n_edges + m.n_triangles == 0

    def test_hole_invariants(self):
        assert_valid(build_square_with_hole(2.0, 0.5, 8))

    def test_hole_tag_split_inherited(self):
        m = build_square_with_hole(2.0, 1.0, 8, outer_tag=N, inner_tag=D)
        r = refine_uniform(m)
        for (a, b), tag in r.boundary_edges:
            on_outer = np.abs(r.vertices[[a, b]]).max() >= 1.0 - 1e-12
            assert tag == (N if on_outer else D)

    def test_hole_bad_sizes(self):
        with pytest.raises(ValueError):
            build_square_with_hole(1.0, 1.0, 8)
        with pytest.raises(ValueError):
            build_square_with_hole(1.0, 2.0, 8)

    @pytest.mark.parametrize("outer,inner", [(math.inf, 0.5), (math.nan, 0.5),
                                             (1.0, math.nan),
                                             (math.inf, math.inf)])
    def test_hole_nonfinite_sizes(self, outer, inner):
        with pytest.raises(ValueError, match="both finite"):
            build_square_with_hole(outer, inner, 8)

    @pytest.mark.parametrize("n", [0, -3])
    def test_hole_invalid_n(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            build_square_with_hole(1.0, 0.5, n)

    def test_unstructured_valid_and_deterministic(self):
        m1 = build_unit_square_unstructured(6, seed=1)
        m2 = build_unit_square_unstructured(6, seed=1)
        assert_valid(m1)
        assert m1 == m2

    @pytest.mark.parametrize("tags", [D, N])
    def test_unstructured_is_the_quarter_cell_jitter(self, tags):
        # Qhull's Delaunay triangulation of the same points, through the
        # tests' own builder at a quarter cell width: the same triangles,
        # in another order, and the same boundary tags
        for n, seed in itertools.product((2, 3, 5, 12, 40), range(10)):
            m = build_unit_square_unstructured(n, seed, tags)
            qhull = jittered_square(n, seed, 0.25, tags)
            assert np.array_equal(m.vertices, qhull.vertices)
            assert ({tuple(sorted(t)) for t in m.triangles.tolist()}
                    == {tuple(sorted(t)) for t in qhull.triangles.tolist()})
            assert m.boundary_edges == qhull.boundary_edges


class TestConstructorErrors:
    def square(self):
        return build_unit_square(2)

    def test_duplicate_boundary_edge(self):
        m = self.square()
        (a, b), _ = m.boundary_edges[0]
        with pytest.raises(MeshError, match="duplicate boundary edge"):
            Mesh(m.vertices, m.triangles, m.boundary_edges + [((b, a), N)])

    def test_no_triangles(self):
        with pytest.raises(MeshError, match="at least one triangle"):
            Mesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=int), [])

    def test_missing_boundary_edge(self):
        m = self.square()
        with pytest.raises(MeshError, match="do not match"):
            Mesh(m.vertices, m.triangles, m.boundary_edges[1:])

    def test_interior_edge_listed(self):
        m = self.square()
        interior = tuple(int(v) for v in m.edges[m.edge2tri[:, 1] >= 0][0])
        with pytest.raises(MeshError, match="do not match"):
            Mesh(m.vertices, m.triangles, m.boundary_edges + [(interior, D)])

    def test_edge_shared_by_three_triangles(self):
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                    [0.5, -1.0]]
        with pytest.raises(MeshError, match="more than two triangles"):
            Mesh(vertices, [[0, 1, 2], [1, 3, 2], [4, 1, 2]], [])

    @pytest.mark.parametrize("vertices,triangles,boundary", [
        # a fold: both triangles lie above their shared edge 0-1
        ([(0, 0), (1, 0), (0.5, 1), (0.5, 0.5)], [(0, 1, 2), (0, 1, 3)],
         [(0, 2), (0, 3), (1, 2), (1, 3)]),
        # one triangle listed twice, so that every edge is interior
        ([(0, 0), (1, 0), (0.5, 1)], [(0, 1, 2), (0, 1, 2)], [])],
        ids=["fold", "twice"])
    def test_overlapping_triangles_across_a_shared_edge(self, vertices,
                                                        triangles, boundary):
        # both are counter-clockwise and no edge lies in more than two
        # triangles, but the two triangles of edge 0-1 run it the same way
        with pytest.raises(MeshError, match=r"triangles 0 and 1 overlap "
                                            r"across their shared edge"
                                            r" \(0, 1\)"):
            Mesh(vertices, triangles, [(pair, D) for pair in boundary])
        sections = {"Vertices": vertices, "Triangles": triangles,
                    "BoundaryEdges": [(*pair, "D") for pair in boundary]}
        text = "".join(f"${name} {len(rows)}\n"
                       + "".join(" ".join(map(str, row)) + "\n"
                                 for row in rows)
                       for name, rows in sections.items())
        with pytest.raises(MeshError, match="overlap"):
            read_mesh(text)

    def test_repeated_vertex(self):
        with pytest.raises(MeshError, match="repeated vertex"):
            Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 1]], [])

    def test_vertex_index_out_of_range_from_triangulation(self):
        with pytest.raises(MeshError, match="index out of range"):
            Mesh.from_triangulation([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                    [[0, 1, 9]])

    def test_vertex_in_no_triangle(self):
        # an unused vertex once gave the P1 and P2 pencils an empty row
        m = build_unit_square(6)
        with pytest.raises(MeshError, match="vertex 49 is in no triangle"):
            Mesh(np.vstack([m.vertices, [0.5, 0.5]]), m.triangles,
                 m.boundary_edges)
        head, rest = write_mesh(m).split("$Triangles")
        text = (head.replace("$Vertices 49", "$Vertices 50")
                + "0.5 0.5\n$Triangles" + rest)
        with pytest.raises(MeshError, match="in no triangle"):
            read_mesh(text)

    @pytest.mark.parametrize("vertices,triangles,message", [
        # a scaled square: every area overflows, and h read inf
        (build_unit_square(4).vertices * 1e160,
         build_unit_square(4).triangles, "areas overflow"),
        # a sliver of finite area whose long edges overflow
        ([[0.0, 0.0], [2e154, 0.0], [0.0, 1e-160]], [[0, 1, 2]],
         "lengths overflow")], ids=["areas", "edge-lengths"])
    def test_overflowing_geometry(self, vertices, triangles, message):
        with pytest.raises(MeshError, match=message):
            Mesh.from_triangulation(vertices, triangles)

    def test_unknown_boundary_tag(self):
        m = self.square()
        (pair, _), *rest = m.boundary_edges
        with pytest.raises(MeshError, match="'D' is not a BoundaryTag"):
            Mesh(m.vertices, m.triangles, [(pair, "D"), *rest])
        with pytest.raises(MeshError, match="is not a BoundaryTag"):
            Mesh.from_triangulation(m.vertices, m.triangles,
                                    lambda x, y: None)

    def test_too_large_for_int32_index_tables(self, monkeypatch):
        # 9 vertices and 8 triangles: 9 + 3 * 8 = 33 > 32
        m = self.square()
        monkeypatch.setattr(helmqo.mesh, "_INDEX_MAX", 32)
        with pytest.raises(MeshError, match="too large for int32"):
            Mesh(m.vertices, m.triangles, m.boundary_edges)
        monkeypatch.setattr(helmqo.mesh, "_INDEX_MAX", 33)
        assert Mesh(m.vertices, m.triangles, m.boundary_edges) == m

    def test_boundary_edges_from_a_generator(self):
        m = self.square()
        g = Mesh(m.vertices, m.triangles, (x for x in m.boundary_edges))
        assert np.array_equal(g.boundary_edge_ids, m.boundary_edge_ids)
        assert np.array_equal(g.dirichlet_edge_ids, m.dirichlet_edge_ids)
        assert np.array_equal(g.dirichlet_vertices(), m.dirichlet_vertices())
        assert len(g.dirichlet_vertices()) == 8


@st.composite
def base_meshes(draw):
    kind = draw(st.sampled_from(["structured", "jittered", "hole"]))
    if kind == "structured":
        return build_unit_square(draw(st.integers(1, 4)),
                                 draw(st.sampled_from([D, N])))
    if kind == "jittered":
        return build_unit_square_unstructured(
            draw(st.integers(2, 5)), seed=draw(st.integers(0, 2 ** 16)))
    outer = draw(st.sampled_from([D, N]))
    return build_square_with_hole(2.0, draw(st.sampled_from([0.5, 1.0])),
                                  draw(st.integers(4, 8)), outer_tag=outer,
                                  inner_tag=N if outer == D else D)


def assert_tables_match_loops(m: Mesh):
    edges, tri2edge, edge2tri = loop_edge_table(m.triangles)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.tri2edge, tri2edge)
    assert np.array_equal(m.edge2tri, edge2tri)
    assert_tags_match(m, loop_edge_tags(edges, m.boundary_edges))


def assert_tags_match(m: Mesh, tags: np.ndarray):
    """``m``'s boundary and Dirichlet edges are those of the tag codes
    ``tags`` (:func:`loop_edge_tags`)."""
    assert np.array_equal(m.boundary_edge_ids, np.flatnonzero(tags >= 0))
    assert np.array_equal(m.dirichlet_edge_ids, np.flatnonzero(tags == 0))


class TestLoopOracle:
    def test_edge_keys_past_the_int32_range(self):
        # 47,089 vertices: the edge key a*base + b passes 2**31 - 1
        m = build_unit_square(216)
        assert (m.n_vertices - 1) * m.n_vertices > np.iinfo(np.int32).max
        assert_tables_match_loops(m)

    @settings(max_examples=25)
    @given(base=base_meshes(), data=st.data())
    def test_bisection_bit_identical(self, base, data):
        m = base
        assert_tables_match_loops(m)
        assert_tables_match_loops(refine_uniform(m))
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            frac = data.draw(st.floats(0.0, 1.0), label="fraction")
            rng = np.random.default_rng(
                data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
            marked = set(np.flatnonzero(rng.random(m.n_triangles) < frac)
                         .tolist()) | {int(rng.integers(m.n_triangles))}
            vertices, tris, ref, boundary = loop_refine_bisection(m, marked)
            m = refine_bisection(m, marked)
            assert m.vertices.tobytes() == vertices.tobytes()
            assert np.array_equal(m.triangles, tris)
            assert np.array_equal(m.refinement_edge, ref)
            assert_tags_match(m, loop_edge_tags(m.edges, boundary))
            assert_tables_match_loops(m)


class TestUniformRefinement:
    def test_red_counting(self):
        r = refine_uniform(build_unit_square(1))
        assert r.n_triangles == 8
        assert r.n_vertices == 9

    def test_twice(self):
        r = refine_uniform(refine_uniform(build_unit_square(1)))
        assert r.n_triangles == 32

    def test_mesh_size_halves(self):
        m = build_unit_square(2)
        r = refine_uniform(m)
        assert np.isclose(m.h, math.sqrt(2) / 2)
        assert np.isclose(r.diameters.max(), m.diameters.max() / 2)

    def test_nestedness(self):
        m = build_unit_square(3)
        r = refine_uniform(m)
        assert np.array_equal(m.vertices, r.vertices[:m.n_vertices])

    def test_conformity_and_tags(self):
        m = build_square_with_hole(2.0, 1.0, 4, outer_tag=N, inner_tag=D)
        r = refine_uniform(m)
        assert_valid(r)
        # Dirichlet point coverage is preserved: parent endpoints still lie
        # on Dirichlet-tagged child edges
        d_before = {tuple(m.vertices[v]) for (a, b), t in m.boundary_edges
                    if t == D for v in (a, b)}
        d_after = {tuple(r.vertices[v]) for (a, b), t in r.boundary_edges
                   if t == D for v in (a, b)}
        assert d_before <= d_after


class TestBisection:
    def test_empty_marking(self):
        m = build_unit_square(2)
        assert refine_bisection(m, set()) is m

    def test_mark_all(self):
        m = build_unit_square(2)
        r = refine_bisection(m, set(range(m.n_triangles)))
        assert r.n_triangles == 4 * m.n_triangles
        assert_valid(r)

    def test_mark_one(self):
        m = build_unit_square(2)
        r = refine_bisection(m, {0})
        assert r.n_triangles > m.n_triangles
        assert_valid(r)
        # newest-vertex bisection keeps angles in finitely many classes
        assert minimum_angle(r) >= minimum_angle(m) / 2 - 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            refine_bisection(build_unit_square(2), {99})

    def test_shape_regularity_random_rounds(self):
        rng = np.random.default_rng(5)
        m = build_unit_square(2)
        floor = minimum_angle(m) / 2 - 1e-12
        for _ in range(10):
            k = rng.integers(1, max(2, m.n_triangles // 3))
            marked = set(rng.choice(m.n_triangles, size=k, replace=False)
                         .tolist())
            m = refine_bisection(m, marked)
            assert minimum_angle(m) >= floor
        assert_valid(m)

    def test_boundary_tags_preserved(self):
        m = build_square_with_hole(2.0, 1.0, 4, outer_tag=N, inner_tag=D)
        r = refine_bisection(m, {0, 5, 7})
        d_before = {tuple(m.vertices[v]) for (a, b), t in m.boundary_edges
                    if t == D for v in (a, b)}
        d_after = {tuple(r.vertices[v]) for (a, b), t in r.boundary_edges
                   if t == D for v in (a, b)}
        assert d_before <= d_after


class TestMeasures:
    def test_reference_triangle_diameter(self):
        m = Mesh.from_triangulation(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]))
        assert np.isclose(m.diameters[0], math.sqrt(2))

    def test_structured_global_size(self):
        for n in (1, 3, 5):
            assert np.isclose(build_unit_square(n).h, math.sqrt(2) / n)

    @settings(max_examples=30)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 16),
           jitter=st.floats(0.0, 0.45),
           child=st.sampled_from(["none", "red", "bisected"]),
           data=st.data())
    def test_geometry_matches_corner_oracle(self, n, seed, jitter, child,
                                            data):
        m = jittered_square(n, seed, jitter)
        if child == "red":
            m = refine_uniform(m)
        elif child == "bisected":
            rng = np.random.default_rng(
                data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
            marked = set(np.flatnonzero(rng.random(m.n_triangles) < 0.3)
                         .tolist()) | {int(rng.integers(m.n_triangles))}
            bisected_ref = loop_refine_bisection(m, marked)[2]
            m = refine_bisection(m, marked)
        areas, lengths, diameters, h, longest = corner_geometry(m)
        assert m.areas.tobytes() == areas.tobytes()
        assert m.edge_lengths[m.tri2edge].tobytes() == lengths.tobytes()
        assert m.diameters.tobytes() == diameters.tobytes()
        assert m.h == h
        # bisection hands its children their refinement edges; every other
        # mesh defaults to the longest edge
        assert np.array_equal(m.refinement_edge, bisected_ref
                              if child == "bisected" else longest)
        for arr in (m.areas, m.edge_lengths, m.diameters):
            with pytest.raises(ValueError):
                arr[0] = 1.0

        p = m.vertices[m.triangles]                     # (nt, 3, 2)
        G = m.barycentric_gradients()
        np.testing.assert_allclose(G.sum(axis=1), 0.0,
                                   atol=1e-12 * abs(G).max())
        # a selection of triangles gets their rows, bit for bit
        picks = np.array([m.n_triangles - 1, 0, 0])
        assert np.array_equal(m.barycentric_gradients(picks), G[picks])
        assert np.array_equal(m.barycentric_gradients(slice(1, 3)), G[1:3])
        eye = np.eye(3)
        for j, k in ((0, 1), (1, 2), (2, 0)):
            # grad lambda_i . (p_j - p_k) = delta_ij - delta_ik
            got = np.einsum("tid,td->ti", G, p[:, j] - p[:, k])
            np.testing.assert_allclose(
                got, np.broadcast_to(eye[j] - eye[k], got.shape), atol=1e-12)
        # the determinant is 2 * areas, the same product as the numerators
        # at the corners, so the corners map to the identity exactly
        lam = m.barycentric(np.arange(m.n_triangles), p)
        assert np.array_equal(lam, np.broadcast_to(eye, lam.shape))
        assert np.array_equal(m.physical_points(slice(None), eye), p)


class TestSerialization:
    def test_round_trip_builders(self):
        # the last: D and N alternate along the same sides
        for m in (build_unit_square(1), build_unit_square(3),
                  build_square_with_hole(2.0, 1.0, 4, outer_tag=N),
                  build_unit_square_unstructured(
                      5, seed=2, tags=lambda x, y: N if x + y < 1 else D)):
            assert read_mesh(write_mesh(m)) == m

    def test_round_trip_refined(self):
        m = refine_bisection(build_unit_square(2), {0, 3})
        assert read_mesh(write_mesh(m)) == m

    def test_round_trip_bit_exact_coordinates(self):
        m = build_unit_square_unstructured(5, seed=2)
        m2 = read_mesh(write_mesh(m))
        assert np.array_equal(m.vertices, m2.vertices)

    def test_comments_allowed(self):
        text = "# a comment\n" + write_mesh(build_unit_square(1))
        assert read_mesh(text) == build_unit_square(1)

    def test_index_out_of_range(self):
        text = ("$Vertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                "$Triangles 1\n0 1 999\n$BoundaryEdges 0\n")
        with pytest.raises(MeshFormatError) as exc:
            read_mesh(text)
        assert exc.value.line == 6
        assert "line 6" in str(exc.value)

    def test_index_past_int64_out_of_range(self):
        # once an OverflowError from numpy, which the CLI did not catch
        text = ("$Vertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                "$Triangles 1\n0 1 99999999999999999999999\n"
                "$BoundaryEdges 0\n")
        with pytest.raises(MeshFormatError,
                           match="triangle vertex index out of range") as exc:
            read_mesh(text)
        assert exc.value.line == 6

    def test_negative_area_rejected(self):
        text = ("$Vertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                "$Triangles 1\n0 2 1\n"
                "$BoundaryEdges 3\n0 1 D\n1 2 D\n0 2 D\n")
        with pytest.raises(MeshError):
            read_mesh(text)

    def test_unknown_tag(self):
        text = ("$Vertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                "$Triangles 1\n0 1 2\n$BoundaryEdges 3\n0 1 X\n1 2 D\n0 2 D\n")
        with pytest.raises(MeshFormatError) as exc:
            read_mesh(text)
        assert exc.value.line == 8

    def test_malformed_header(self):
        with pytest.raises(MeshFormatError):
            read_mesh("$Points 3\n")

    @pytest.mark.parametrize("section,line", [("Vertices", 1),
                                              ("Triangles", 5),
                                              ("BoundaryEdges", 7)])
    def test_count_past_the_end_rejected_at_header(self, section, line):
        # checked before allocating: such a count once ran numpy out of
        # memory instead
        n = {"Vertices": 3, "Triangles": 1, "BoundaryEdges": 3}
        n[section] = 10 ** 14
        text = (f"$Vertices {n['Vertices']}\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                f"$Triangles {n['Triangles']}\n0 1 2\n"
                f"$BoundaryEdges {n['BoundaryEdges']}\n0 1 D\n1 2 D\n0 2 D\n")
        with pytest.raises(MeshFormatError, match="only") as exc:
            read_mesh(text)
        assert exc.value.line == line

    def test_index_tables_are_int32(self):
        m = refine_bisection(build_square_with_hole(0.75, 0.3, 4,
                                                    inner_tag=N), [0, 5])
        for name in ("triangles", "edges", "tri2edge", "edge2tri",
                     "boundary_edge_ids", "dirichlet_edge_ids"):
            assert getattr(m, name).dtype == np.int32, name
        assert read_mesh(write_mesh(m)).triangles.dtype == np.int32

    def test_immutability(self):
        m = build_unit_square(2)
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 5.0
