"""Conforming triangular meshes: builders, refinement and text serialization.

A :class:`Mesh` is immutable after construction.  Triangles are stored
counter-clockwise, every interior edge is shared by exactly two triangles,
and every boundary edge carries a Dirichlet or Neumann tag.  Refinement
operations are pure: they return new meshes and never touch their input.

The mesh is the one place per-element geometry is computed: areas, edge
lengths, diameters and the barycentric maps.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable

import numpy as np


class BoundaryTag(enum.Enum):
    """Boundary condition marker attached to each boundary edge."""

    DIRICHLET = "D"
    NEUMANN = "N"


# A boundary tag assignment: either one tag for the whole boundary or a
# callable evaluated at the edge midpoint.
TagAssignment = BoundaryTag | Callable[[float, float], BoundaryTag]

# the largest index a mesh's int32 tables hold
_INDEX_MAX = np.iinfo(np.int32).max


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Malformed mesh file; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _as_tag_fn(tags: TagAssignment) -> Callable[[float, float], BoundaryTag]:
    if isinstance(tags, BoundaryTag):
        return lambda x, y: tags
    return tags


class Mesh:
    """Conforming triangulation of a polygonal 2D domain.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counter-clockwise vertex indices
    boundary_edges : iterable of ((v0, v1), BoundaryTag)
        Must list exactly the edges adjacent to one triangle.
    refinement_edge : (nt,) int array, optional
        Local index (edge ``k`` is opposite vertex ``k``) of the edge used
        by newest-vertex bisection.  Defaults to the longest edge.

    Besides the topology (``edges``, ``tri2edge``, ``edge2tri``, the
    ascending ``boundary_edge_ids`` and, among them, ``dirichlet_edge_ids``)
    the mesh keeps, read-only: ``areas`` (nt,),
    ``edge_lengths`` (n_edges,), ``diameters`` (nt,), the longest edge of
    each triangle, and ``h``, the largest diameter.  Every vertex lies in
    a triangle, and the areas and edge lengths are finite: a vertex that no
    triangle uses, or coordinates whose areas or edge lengths overflow,
    are rejected, as are two triangles on the same side of their shared
    edge.  ``dirichlet_edge_ids`` is the mesh's one record of the boundary
    tags: every other boundary edge is Neumann.

    The index tables, ``triangles`` and the five of the topology, are
    int32.  They are stored after the range checks: a mesh whose vertex
    count plus three times its triangle count exceeds int32's range (which
    also bounds the P2 dofs of :mod:`helmqo.spaces`) is rejected, so no
    index wraps.
    """

    def __init__(self, vertices, triangles, boundary_edges,
                 refinement_edge=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        t = np.asarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if not len(t):
            raise MeshError("a mesh needs at least one triangle")
        if not np.isfinite(self.vertices).all():
            raise MeshError("vertex coordinates must be finite")

        _check_vertex_range(t, len(self.vertices))
        # bounds every vertex, edge and triangle index, and every P2 dof
        if len(self.vertices) + 3 * len(t) > _INDEX_MAX:
            raise MeshError("mesh too large for int32 index tables")
        self.triangles = t = t.astype(np.int32)
        if ((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2])
                | (t[:, 0] == t[:, 2])).any():
            raise MeshError("triangle with repeated vertex")
        unused = np.flatnonzero(np.bincount(t.ravel(),
                                            minlength=len(self.vertices)) == 0)
        if len(unused):
            raise MeshError(f"vertex {unused[0]} is in no triangle")
        # an overflow is raised below as a MeshError, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            self.areas = 0.5 * _doubled_signed_areas(self.vertices[t])
        if not np.isfinite(self.areas).all():
            raise MeshError("triangle areas overflow")
        if (self.areas <= 0).any():
            bad = int(np.argmin(self.areas))
            raise MeshError(f"triangle {bad} is not counter-clockwise "
                            "(non-positive signed area)")

        self._build_edge_table()
        with np.errstate(over="ignore"):
            self.edge_lengths = np.linalg.norm(
                self.vertices[self.edges[:, 1]]
                - self.vertices[self.edges[:, 0]], axis=1)
        if not np.isfinite(self.edge_lengths).all():
            raise MeshError("edge lengths overflow")
        local_lengths = self.edge_lengths[self.tri2edge]
        self.diameters = local_lengths.max(axis=1)
        self.h = float(self.diameters.max(initial=0.0))

        # read once: boundary_edges may be a one-shot iterable
        given = list(boundary_edges)
        for _, tag in given:
            if not isinstance(tag, BoundaryTag):
                raise MeshError(f"boundary tag {tag!r} is not a BoundaryTag")
        pairs = np.array([pair for pair, _ in given],
                         dtype=np.int64).reshape(-1, 2)
        dirichlet = np.array([tag is BoundaryTag.DIRICHLET
                              for _, tag in given], dtype=bool)
        pairs.sort(axis=1)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs, dirichlet = pairs[order], dirichlet[order]
        if (pairs[1:] == pairs[:-1]).all(axis=1).any():
            raise MeshError("duplicate boundary edge (conflicting tags?)")
        if not np.array_equal(pairs, self.edges[self.boundary_edge_ids]):
            raise MeshError("boundary_edges do not match the edges adjacent "
                            "to exactly one triangle")
        self.dirichlet_edge_ids = self.boundary_edge_ids[dirichlet]

        if refinement_edge is None:
            self.refinement_edge = np.argmax(local_lengths,
                                             axis=1).astype(np.int8)
        else:
            self.refinement_edge = np.ascontiguousarray(refinement_edge,
                                                        dtype=np.int8)
            if self.refinement_edge.shape != (len(t),):
                raise MeshError("refinement_edge has wrong length")

        for arr in (self.vertices, self.triangles, self.edges, self.tri2edge,
                    self.edge2tri, self.boundary_edge_ids,
                    self.dirichlet_edge_ids, self.refinement_edge,
                    self.areas, self.edge_lengths, self.diameters):
            arr.flags.writeable = False

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_triangulation(cls, vertices, triangles,
                           tags: TagAssignment = BoundaryTag.DIRICHLET
                           ) -> "Mesh":
        """Build a mesh deriving boundary edges and tagging them via `tags`."""
        vertices = np.asarray(vertices, dtype=np.float64)
        triangles = np.asarray(triangles, dtype=np.int64)
        tag_fn = _as_tag_fn(tags)
        _check_vertex_range(triangles, len(vertices))
        edges, _, counts = _edge_table(triangles,
                                       int(triangles.max(initial=0)) + 1)
        pairs = edges[counts == 1]
        mids = vertices[pairs].mean(axis=1)
        boundary = [((int(a), int(b)), tag_fn(mx, my))
                    for (a, b), (mx, my) in zip(pairs, mids)]
        return cls(vertices, triangles, boundary)

    def _build_edge_table(self):
        t = self.triangles
        nt = len(t)
        self.edges, inv, counts = _edge_table(t, len(self.vertices))
        if (counts > 2).any():
            raise MeshError("non-conforming mesh: edge shared by more than "
                            "two triangles")
        self.tri2edge = inv.reshape(3, nt).T.astype(np.int32, order="C")
        # the triangles of each edge in ascending order: the first goes to
        # slot 0, the second (if any) to slot 1
        tri_of = np.tile(np.arange(nt), 3)[np.argsort(inv, kind="stable")]
        first = np.cumsum(counts) - counts
        two = counts == 2
        self.edge2tri = np.full((len(self.edges), 2), -1, dtype=np.int32)
        self.edge2tri[:, 0] = tri_of[first]
        self.edge2tri[two, 1] = tri_of[first[two] + 1]
        # local edge k runs from vertex k + 1 to k + 2: the two triangles of
        # an interior edge run it in opposite senses unless they overlap
        up = np.concatenate([t[:, 1] < t[:, 2], t[:, 2] < t[:, 0],
                             t[:, 0] < t[:, 1]])
        folded = np.flatnonzero(two & (np.bincount(inv, up) != 1))
        if len(folded):
            a, b = self.edge2tri[folded[0]]
            u, v = self.edges[folded[0]]
            raise MeshError(f"triangles {a} and {b} overlap across their "
                            f"shared edge ({u}, {v})")
        self.boundary_edge_ids = np.flatnonzero(counts == 1).astype(np.int32)

    # -- basic queries ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_edges(self) -> list[tuple[tuple[int, int], BoundaryTag]]:
        """Boundary edges as ((v0, v1), tag), sorted by vertex pair."""
        ids = self.boundary_edge_ids
        dirichlet = np.isin(ids, self.dirichlet_edge_ids)
        return [((int(a), int(b)),
                 BoundaryTag.DIRICHLET if d else BoundaryTag.NEUMANN)
                for (a, b), d in zip(self.edges[ids], dirichlet)]

    # -- per-element maps ------------------------------------------------

    def barycentric_gradients(self, tri_ids=slice(None)) -> np.ndarray:
        """(nt, 3, 2) gradients of the barycentric coordinates in the
        triangles ``tri_ids`` (all by default), made on each call so that
        no such array outlives its user."""
        p = self.vertices[self.triangles[tri_ids]]
        G = np.empty((len(p), 3, 2))
        for i in range(3):
            e = p[:, (i + 1) % 3] - p[:, (i + 2) % 3]
            G[:, i, 0] = e[:, 1]
            G[:, i, 1] = -e[:, 0]
        G /= 2.0 * self.areas[tri_ids, None, None]   # exactly the doubled area
        return G

    def barycentric(self, tri_ids, pts: np.ndarray) -> np.ndarray:
        """Barycentric coordinates (nt, q, 3) of ``pts`` (nt, q, 2) in the
        triangles ``tri_ids``."""
        p = self.vertices[self.triangles[tri_ids]]     # (nt, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        det = 2.0 * self.areas[tri_ids][:, None]
        r = pts - p[:, None, 0, :]
        l1 = (r[..., 0] * d2[:, None, 1] - r[..., 1] * d2[:, None, 0]) / det
        l2 = (d1[:, None, 0] * r[..., 1] - d1[:, None, 1] * r[..., 0]) / det
        return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)

    def physical_points(self, tri_ids, bary: np.ndarray) -> np.ndarray:
        """Physical points (nt, q, 2) of the barycentric points ``bary``
        (q, 3) in each of the triangles ``tri_ids``."""
        return np.einsum("qk,tkd->tqd", bary,
                         self.vertices[self.triangles[tri_ids]])

    def dirichlet_vertices(self) -> np.ndarray:
        """Indices of vertices lying on Dirichlet-tagged boundary edges."""
        return np.unique(self.edges[self.dirichlet_edge_ids])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mesh):
            return NotImplemented
        return (self.vertices.shape == other.vertices.shape
                and np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self.triangles, other.triangles)
                and np.array_equal(self.dirichlet_edge_ids,
                                   other.dirichlet_edge_ids))

    def __repr__(self) -> str:
        return (f"Mesh(nv={self.n_vertices}, nt={self.n_triangles}, "
                f"ne={self.n_edges})")


def _edge_table(triangles: np.ndarray, base: int):
    """Sorted unique edges of ``triangles`` with inverse and counts.

    Edge ``k`` of a triangle is opposite local vertex ``k``; the inverse
    lists all edges 0, then all edges 1, then all edges 2.  Each edge
    (a, b), a < b, is keyed as ``a*base + b`` in int64, so ``base`` must
    exceed every vertex index; the keys sort like the rows (a, b).  The
    edges come in the dtype of ``triangles``.
    """
    t = triangles
    raw = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
    raw.sort(axis=1)
    keys, inv, counts = np.unique(raw[:, 0].astype(np.int64) * base
                                  + raw[:, 1],
                                  return_inverse=True, return_counts=True)
    edges = np.empty((len(keys), 2), dtype=raw.dtype)
    edges[inv] = raw
    return edges, inv, counts


def _check_vertex_range(triangles: np.ndarray, nv: int) -> None:
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        raise MeshError("triangle vertex index out of range")


# -- measures -------------------------------------------------------------

def _doubled_signed_areas(p: np.ndarray) -> np.ndarray:
    """Twice the signed area of triangles with corners ``p`` (nt, 3, 2)."""
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def minimum_angle(m: Mesh) -> float:
    """Smallest interior angle over all triangles, in radians."""
    p = m.vertices[m.triangles]
    angles = []
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        cosang = (u * v).sum(axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.min(angles))


# -- builders -------------------------------------------------------------

def _grid(n: int, lo: float, hi: float, keep: np.ndarray | None = None):
    """The uniform grid on [lo, hi]^2 with ``n`` cells per side.

    Returns the (n+1)^2 vertices, x running fastest, and two
    counter-clockwise triangles per cell, split along its lower-left to
    upper-right diagonal, for the cells the (n, n) mask ``keep[iy, ix]``
    selects (all by default), in row-major cell order.
    """
    xs = np.linspace(lo, hi, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    corner = iy * (n + 1) + ix           # lower-left vertex of each cell
    v00 = corner.ravel() if keep is None else corner[keep]
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    tris = np.empty((2 * len(v00), 3), dtype=np.int64)
    tris[0::2] = np.column_stack([v00, v10, v11])
    tris[1::2] = np.column_stack([v00, v11, v01])
    return vertices, tris


def build_unit_square(n: int,
                      tags: TagAssignment = BoundaryTag.DIRICHLET) -> Mesh:
    """Structured mesh of [0,1]^2 with ``n`` cells per side.

    Each square cell is split along its lower-left to upper-right diagonal,
    giving 2*n^2 triangles and (n+1)^2 vertices.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Mesh.from_triangulation(*_grid(n, 0.0, 1.0), tags)


_JITTER = 0.25    # largest shift of an unstructured grid point, in cells


def build_unit_square_unstructured(n: int, seed: int = 0,
                                   tags: TagAssignment = BoundaryTag.DIRICHLET,
                                   ) -> Mesh:
    """Irregular Delaunay mesh of [0,1]^2 from a jittered n-by-n grid.

    Interior grid points are displaced by a deterministic pseudo-random
    amount (at most a quarter cell width per coordinate), which breaks the
    directional alignment of the structured pattern.  Useful when
    mesh-direction cancellation effects (superconvergence) must be avoided.

    The cells stay convex, and each is cut into two triangles along the
    diagonal that passes Lawson's in-circle test: along v00-v11, as in
    ``build_unit_square``, unless v01 lies strictly inside the
    circumcircle of (v00, v10, v11), and then along v10-v01.  A shift of
    at most a quarter cell leaves the grid edges locally Delaunay as well,
    so by Lawson's theorem the mesh is a Delaunay triangulation of the
    points; the tests check it against Qhull's.  The triangles come in
    row-major cell order, two per cell.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    pts, tris = _grid(n, 0.0, 1.0)
    interior = ((pts[:, 0] > 0) & (pts[:, 0] < 1)
                & (pts[:, 1] > 0) & (pts[:, 1] < 1))
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-_JITTER / n, _JITTER / n,
                        size=(interior.sum(), 2))
    pts[interior] += shift
    first, second = tris[0::2], tris[1::2]  # (v00, v10, v11), (v00, v11, v01)
    # the in-circle determinant of the counter-clockwise (v00, v10, v11)
    # about v01
    a, b, c = (pts[first[:, k]] - pts[second[:, 2]] for k in range(3))

    def cross(p, q):
        return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]

    in_circle = ((a * a).sum(axis=1) * cross(b, c)
                 + (b * b).sum(axis=1) * cross(c, a)
                 + (c * c).sum(axis=1) * cross(a, b)) > 0
    first[in_circle, 2] = second[in_circle, 2]    # (v00, v10, v01)
    second[in_circle, 0] = first[in_circle, 1]    # (v10, v11, v01)
    return Mesh.from_triangulation(pts, tris, tags)


def build_square_with_hole(outer: float, inner: float, n: int = 16,
                           outer_tag: BoundaryTag = BoundaryTag.DIRICHLET,
                           inner_tag: BoundaryTag = BoundaryTag.DIRICHLET,
                           ) -> Mesh:
    """Mesh of a square with a concentric square hole, centered at origin.

    ``outer`` and ``inner`` are the side lengths.  ``n`` is the number of
    cells across the outer side; it is rounded up to an even value >= 4 and
    the hole boundary is snapped to the closest grid line.
    """
    if not 0 < inner < outer < np.inf:
        raise ValueError(f"need 0 < inner < outer, both finite, got inner "
                         f"{inner!r} and outer {outer!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    n = max(4, n + (n % 2))
    cell = outer / n
    half = n // 2
    j = int(round((inner / 2) / cell))
    j = min(max(j, 1), half - 1)

    keep = np.ones((n, n), dtype=bool)
    keep[half - j:half + j, half - j:half + j] = False
    grid, tris = _grid(n, -outer / 2, outer / 2, keep)
    used = np.unique(tris)
    renum = np.full(len(grid), -1, dtype=np.int64)
    renum[used] = np.arange(len(used))
    vertices = grid[used]
    tris = renum[tris]

    a = j * cell  # snapped hole half-width
    eps = 1e-12 * max(outer, 1.0)

    def tag_fn(x, y):
        if max(abs(x), abs(y)) <= a + eps:
            return inner_tag
        return outer_tag

    return Mesh.from_triangulation(vertices, tris, tag_fn)


# -- refinement -----------------------------------------------------------

def _split_edges(m: Mesh, marked_edge: np.ndarray):
    """Midpoints of the marked edges appended to the vertices.

    Returns ``(vertices, new_of_edge, boundary)``: ``new_of_edge`` maps an
    edge to its midpoint vertex (-1 if unsplit), and ``boundary`` lists the
    boundary edges of the refined mesh, halves inheriting the parent's tag.
    """
    nv = m.n_vertices
    split_ids = np.flatnonzero(marked_edge)
    new_of_edge = np.full(m.n_edges, -1, dtype=np.int64)
    new_of_edge[split_ids] = nv + np.arange(len(split_ids))
    mids = 0.5 * (m.vertices[m.edges[split_ids, 0]]
                  + m.vertices[m.edges[split_ids, 1]])
    boundary = []
    for e, ((va, vb), tag) in zip(m.boundary_edge_ids, m.boundary_edges):
        if marked_edge[e]:
            vm = int(new_of_edge[e])
            boundary += [((va, vm), tag), ((vm, vb), tag)]
        else:
            boundary.append(((va, vb), tag))
    return np.vstack([m.vertices, mids]), new_of_edge, boundary


def refine_uniform(m: Mesh) -> Mesh:
    """Red refinement: every triangle is split into four similar children.

    The children of parent ``t`` occupy slots ``4*t .. 4*t+3`` of the new
    mesh and the parent's vertices keep their indices, so uniform families
    are nested with a trivial ancestry map.
    """
    vertices, new_of_edge, boundary = _split_edges(
        m, np.ones(m.n_edges, dtype=bool))
    a, b, c = m.triangles.T
    m0, m1, m2 = new_of_edge[m.tri2edge].T
    tris = np.empty((4 * m.n_triangles, 3), dtype=np.int64)
    tris[0::4] = np.column_stack([a, m2, m1])
    tris[1::4] = np.column_stack([b, m0, m2])
    tris[2::4] = np.column_stack([c, m1, m0])
    tris[3::4] = np.column_stack([m0, m1, m2])
    return Mesh(vertices, tris, boundary)


def refine_bisection(m: Mesh, marked: Iterable[int] | np.ndarray) -> Mesh:
    """Newest-vertex bisection of the marked triangles with closure.

    All three edges of a marked triangle are scheduled for splitting, then
    the marking is closed so that a triangle with any split edge also splits
    its refinement edge.  The result is conforming and the generated
    triangles fall into finitely many similarity classes.
    """
    marked = np.unique(np.fromiter(marked, dtype=np.int64))
    if marked.size == 0:
        return m
    if marked.min() < 0 or marked.max() >= m.n_triangles:
        raise ValueError("marked triangle id out of range")

    marked_edge = np.zeros(m.n_edges, dtype=bool)
    marked_edge[m.tri2edge[marked].ravel()] = True

    ref_glob = m.tri2edge[np.arange(m.n_triangles), m.refinement_edge]
    while True:
        has_marked = marked_edge[m.tri2edge].any(axis=1)
        need = has_marked & ~marked_edge[ref_glob]
        if not need.any():
            break
        marked_edge[ref_glob[need]] = True

    vertices, new_of_edge, boundary = _split_edges(m, marked_edge)

    # rotate each triangle so its refinement edge is opposite local vertex 0
    rot = (m.refinement_edge[:, None] + np.arange(3)) % 3
    p, va, vb = np.take_along_axis(m.triangles, rot, axis=1).T
    m0, m1, m2 = new_of_edge[np.take_along_axis(m.tri2edge, rot, axis=1)].T
    # closure: a split edge 1 or 2 implies a split refinement edge 0
    split0, split1, split2 = m0 >= 0, m1 >= 0, m2 >= 0
    n_child = np.where(split0, 2 + split1 + split2, 1)
    first = np.cumsum(n_child) - n_child
    tris = np.empty((n_child.sum(), 3), dtype=np.int64)
    refinement_edge = np.empty(len(tris), dtype=np.int8)
    tris[first[~split0]] = m.triangles[~split0]
    refinement_edge[first[~split0]] = m.refinement_edge[~split0]
    # children of the bisection at m0, in order; ref edges are parent edges
    second = first + 1 + split2
    for mask, slot, child, ref in (
            (split2, first, (m0, p, m2), 2),
            (split2, first + 1, (m0, m2, va), 1),
            (split0 & ~split2, first, (p, va, m0), 2),
            (split1, second, (m0, vb, m1), 2),
            (split1, second + 1, (m0, m1, p), 1),
            (split0 & ~split1, second, (p, m0, vb), 1)):
        tris[slot[mask]] = np.column_stack([c[mask] for c in child])
        refinement_edge[slot[mask]] = ref
    return Mesh(vertices, tris, boundary, refinement_edge)


# -- serialization --------------------------------------------------------

def write_mesh(m: Mesh) -> str:
    """Serialize a mesh to the line-oriented text format.

    Floats are written with ``repr`` (shortest round-trip decimal), so
    ``read_mesh(write_mesh(m)) == m`` bit-exactly.
    """
    lines = [f"$Vertices {m.n_vertices}"]
    for x, y in m.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"$Triangles {m.n_triangles}")
    for a, b, c in m.triangles:
        lines.append(f"{a} {b} {c}")
    bedges = m.boundary_edges
    lines.append(f"$BoundaryEdges {len(bedges)}")
    for (a, b), tag in bedges:
        lines.append(f"{a} {b} {tag.value}")
    return "\n".join(lines) + "\n"


def read_mesh(text: str) -> Mesh:
    """Parse the text format produced by :func:`write_mesh`.

    Raises :class:`MeshFormatError` (with the offending line number) on
    malformed input and :class:`MeshError` if the parsed mesh is invalid.
    """
    stripped: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            stripped.append((lineno, line))
    pos = 0

    def expect_header(name: str) -> int:
        nonlocal pos
        if pos >= len(stripped):
            last = stripped[-1][0] if stripped else 1
            raise MeshFormatError(f"missing section ${name}", last)
        lineno, line = stripped[pos]
        parts = line.split()
        if len(parts) != 2 or parts[0] != f"${name}":
            raise MeshFormatError(f"expected '${name} <count>'", lineno)
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad count in ${name} header", lineno)
        if count < 0:
            raise MeshFormatError(f"negative count in ${name} header", lineno)
        pos += 1
        # checked before the section's arrays are allocated
        if count > len(stripped) - pos:
            raise MeshFormatError(f"${name} header counts {count} lines but "
                                  f"only {len(stripped) - pos} remain", lineno)
        return count

    def take(count: int, nfields: int, kind: str):
        nonlocal pos
        rows = []
        for _ in range(count):
            lineno, line = stripped[pos]
            parts = line.split()
            if len(parts) != nfields:
                raise MeshFormatError(
                    f"expected {nfields} fields in {kind} line", lineno)
            rows.append((lineno, parts))
            pos += 1
        return rows

    nv = expect_header("Vertices")
    vertices = np.empty((nv, 2))
    for i, (lineno, parts) in enumerate(take(nv, 2, "vertex")):
        try:
            vertices[i] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshFormatError("bad vertex coordinate", lineno)

    nt = expect_header("Triangles")
    triangles = np.empty((nt, 3), dtype=np.int64)
    for i, (lineno, parts) in enumerate(take(nt, 3, "triangle")):
        try:
            row = [int(p) for p in parts]
        except ValueError:
            raise MeshFormatError("bad triangle vertex index", lineno)
        # checked on Python's ints, before int64 could overflow
        if not all(0 <= v < nv for v in row):
            raise MeshFormatError(
                f"triangle vertex index out of range (0..{nv - 1})", lineno)
        triangles[i] = row

    nb = expect_header("BoundaryEdges")
    boundary = []
    for lineno, parts in take(nb, 3, "boundary edge"):
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise MeshFormatError("bad boundary edge vertex index", lineno)
        if not (0 <= a < nv and 0 <= b < nv):
            raise MeshFormatError(
                f"boundary edge vertex index out of range (0..{nv - 1})",
                lineno)
        try:
            tag = BoundaryTag(parts[2])
        except ValueError:
            raise MeshFormatError(f"unknown boundary tag {parts[2]!r} "
                                  "(expected D or N)", lineno)
        boundary.append(((a, b), tag))
    if pos != len(stripped):
        raise MeshFormatError("trailing content after $BoundaryEdges section",
                              stripped[pos][0])
    return Mesh(vertices, triangles, boundary)
