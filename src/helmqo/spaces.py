"""Finite element spaces and assembly on triangular meshes.

Supported families: H1-conforming Lagrange elements of order 1 and 2, and
the nonconforming Crouzeix-Raviart element (piecewise linear, continuous at
edge midpoints).  Dirichlet conditions are imposed by restricting to the
free degrees of freedom, which keeps stiffness/mass pencils symmetric
definite for the eigensolver.

All stiffness and mass entries are integrated exactly (the integrands are
polynomial); ``element_matrices`` gives the local matrices of any selection
of triangles, and assembly scatters those of the whole mesh.  Load vectors
use the rule of degree ``LOAD_DEGREE``, and L2 errors that of degree 4.
``assemble_load`` and ``l2_error`` (against data ``f(x, y)`` that give one
value per point, a function on the same mesh or one on a nested finer
mesh) work through the mesh in fixed slices of quadrature points, so their
working set beyond one value per point does not grow with the mesh.

A space numbers its free dofs once, when it is built, in the reverse
Cuthill-McKee order of the graph that joins two free dofs when they share
a triangle: ``free_dofs[i]`` is the dof numbered ``i``, and the pencil,
the load, every free-dof vector and every eigenvector come in that order.
The full-dof numbering is internal: a finite element function is its
free coefficients, and other modules read them per triangle through
``cell_values`` (0 at constrained dofs).  The graph is the pattern that
assembly stores before it drops zeros, and it holds the mass matrix's, so
the order suits ``A - sigma*M`` at every shift and ignores entries that
cancel there.  SuperLU's minimum-degree ordering (:mod:`helmqo.sparsela`)
depends on the numbering it is given: on the numbering that mesh
refinement leaves it took up to 9 times as long, with up to a third more
fill, as on this one (P1 and CR pencils; P2 pencils of bisected meshes
fill more on it).

``DofSpace.pencil`` is the Dirichlet-constrained Laplace pencil (A, M) on
the free dofs.  It is assembled on first use and cached on the space, so
the inertia counts, eigenpairs and Helmholtz solve on one space share the
same two matrices; they live as long as the space does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .mesh import Mesh
from .quadrature import triangle_rule
from .sparsela import SparseSymMatrix


class ElementFamily(enum.Enum):
    """Element family: Lagrange of order 1 or 2, or Crouzeix-Raviart.  The
    value is the family's command-line name."""

    P1 = "p1"
    P2 = "p2"
    CR = "cr"

    def __str__(self) -> str:
        return self.value


P1, P2, CR = ElementFamily


def shape_values(family: ElementFamily, lam: np.ndarray) -> np.ndarray:
    """Basis values at barycentric points; output shape lam.shape[:-1]+(nloc,).

    Local ordering: Lagrange(1) vertex dofs; Lagrange(2) vertex dofs then
    edge-midpoint dofs (edge k opposite vertex k); CR edge-midpoint dofs.
    """
    lam = np.asarray(lam, dtype=np.float64)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    if family == P1:
        return np.stack([l0, l1, l2], axis=-1)
    if family == CR:
        return np.stack([1 - 2 * l0, 1 - 2 * l1, 1 - 2 * l2], axis=-1)
    return np.stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
    ], axis=-1)


def shape_gradients(family: ElementFamily, lam: np.ndarray) -> np.ndarray:
    """d(basis)/d(lambda_j) at barycentric points; shape (..., nloc, 3)."""
    lam = np.asarray(lam, dtype=np.float64)
    q = lam.shape[:-1]
    if family == P1:
        return np.broadcast_to(np.eye(3), q + (3, 3)).copy()
    if family == CR:
        return np.broadcast_to(-2.0 * np.eye(3), q + (3, 3)).copy()
    out = np.zeros(q + (6, 3))
    for i in range(3):
        out[..., i, i] = 4 * lam[..., i] - 1
        j, k = (i + 1) % 3, (i + 2) % 3
        out[..., 3 + i, j] = 4 * lam[..., k]
        out[..., 3 + i, k] = 4 * lam[..., j]
    return out


class DofSpace:
    """Degrees of freedom of one element family on a mesh.

    Attributes
    ----------
    ndof : total number of degrees of freedom
    cell_dofs : (nt, nloc) int32 global dof indices per triangle, read-only:
        the mesh's own ``triangles`` (P1) or ``tri2edge`` (CR), not a copy
    free_dofs : int32, the dofs not constrained by Dirichlet tags, in the
        reverse Cuthill-McKee order of the free dofs' graph
    cell_free : (nt, nloc) int32 free number of each local dof, -1 if
        constrained, built on first read; outside this module, free-dof
        vectors are read per triangle through ``cell_values`` alone
    """

    def __init__(self, mesh: Mesh, family: ElementFamily):
        self.mesh = mesh
        self.family = family
        nv, ne = mesh.n_vertices, mesh.n_edges
        if family == P1:
            self.ndof = nv
            self.cell_dofs = mesh.triangles
            constrained = mesh.dirichlet_vertices()
        elif family == CR:
            self.ndof = ne
            self.cell_dofs = mesh.tri2edge
            constrained = mesh.dirichlet_edge_ids
        else:  # P2
            self.ndof = nv + ne
            self.cell_dofs = np.hstack([mesh.triangles,
                                        nv + mesh.tri2edge])
            self.cell_dofs.flags.writeable = False
            constrained = np.concatenate([mesh.dirichlet_vertices(),
                                          nv + mesh.dirichlet_edge_ids])
        free = np.setdiff1d(np.arange(self.ndof, dtype=np.int32),
                            constrained)
        self.free_dofs = free[_rcm_order(self.cell_dofs, free, self.ndof)]

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    @cached_property
    def cell_free(self) -> np.ndarray:
        return _local_numbers(self.cell_dofs, self.free_dofs, self.ndof)

    def cell_values(self, x: np.ndarray, triangles=slice(None)) -> np.ndarray:
        """Values (nt, nloc) + x.shape[1:] of the free-dof vector or block
        ``x`` at the local dofs of the triangles ``triangles`` (all by
        default), 0 where a dof is constrained."""
        rows = self.cell_free[triangles]
        if not len(x):    # no free dofs: the zero function
            return np.zeros(rows.shape + x.shape[1:])
        # take is fastest on a vector but copies a non-C-ordered block whole
        values = x.take(rows) if x.ndim == 1 else x[rows]
        values[rows < 0] = 0.0
        return values

    @cached_property
    def pencil(self) -> tuple[SparseSymMatrix, SparseSymMatrix]:
        """Constrained stiffness and mass (A, M), assembled once."""
        return assemble_stiffness(self), assemble_mass(self)

    def __repr__(self) -> str:
        return (f"DofSpace({self.family}, ndof={self.ndof}, "
                f"free={self.n_free})")


def _rcm_order(cell_dofs: np.ndarray, free: np.ndarray,
               ndof: int) -> np.ndarray:
    """Reverse Cuthill-McKee order of the graph on the dofs ``free`` that
    joins two of them when they share a triangle, as indices into
    ``free``."""
    if len(free) == 0:
        return free
    dofs = _local_numbers(cell_dofs, free, ndof)
    nloc = dofs.shape[1]
    rows = np.repeat(dofs, nloc, axis=1).ravel()
    cols = np.tile(dofs, (1, nloc)).ravel()
    both = (rows >= 0) & (cols >= 0)
    graph = sp.csr_matrix((np.ones(both.sum(), dtype=bool),
                           (rows[both], cols[both])),
                          shape=(len(free), len(free)))
    return reverse_cuthill_mckee(graph, symmetric_mode=True)


def _local_numbers(cell_dofs: np.ndarray, dofs: np.ndarray,
                   ndof: int) -> np.ndarray:
    """Position (int32) in ``dofs`` of each of ``cell_dofs``, or -1."""
    index = np.full(ndof, -1, dtype=np.int32)
    index[dofs] = np.arange(len(dofs), dtype=np.int32)
    return index[cell_dofs]


def build_space(mesh: Mesh, family: ElementFamily) -> DofSpace:
    """DOF space for ``family`` on ``mesh``, constrained on Dirichlet tags."""
    return DofSpace(mesh, family)


@dataclass
class FeFunction:
    """Finite element function: a space plus its ``n_free`` free
    coefficients, in the order of the pencil; it is 0 at constrained
    dofs."""

    space: DofSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.shape != (self.space.n_free,):
            raise ValueError("coefficient length does not match the space")

    def values_on_elements(self, bary: np.ndarray,
                           triangles=slice(None)) -> np.ndarray:
        """Values at barycentric points of the elements ``triangles`` (all
        by default); shape (nt, q)."""
        N = shape_values(self.space.family, bary)
        c = self.space.cell_values(self.coefficients, triangles)
        return np.einsum("qm,tm->tq", N, c)


def _scatter(space: DofSpace, local: np.ndarray) -> sp.csr_matrix:
    dofs = space.cell_dofs
    nloc = dofs.shape[1]
    rows = np.repeat(dofs, nloc, axis=1).ravel()
    cols = np.tile(dofs, (1, nloc)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(space.ndof, space.ndof))
    return mat.tocsr()


def _free_block(space: DofSpace, full: sp.csr_matrix) -> SparseSymMatrix:
    """The free x free block of ``full``, in the order of ``free_dofs``."""
    free = space.free_dofs
    return SparseSymMatrix(full[free][:, free])


def element_matrices(mesh: Mesh, family: ElementFamily,
                     triangles=slice(None), mass: bool = False) -> np.ndarray:
    """Exact local stiffness (broken gradients for CR) or, with ``mass``,
    mass matrices (nt, nloc, nloc) of the triangles ``triangles`` (all by
    default), in the local dof order of :func:`shape_values`."""
    areas = mesh.areas[triangles]
    if mass:
        if family == P1:
            ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
        elif family == CR:
            ref = np.eye(3) / 3.0
        else:
            rule = triangle_rule(4)   # products of P2 basis are quartic
            N = shape_values(family, rule.points)
            ref = np.einsum("qm,qn,q->mn", N, N, rule.weights)
        return ref[None, :, :] * areas[:, None, None]
    G = mesh.barycentric_gradients(triangles)
    # |T| grad(lambda_j) . grad(lambda_k): the P1 local matrices
    gg = np.einsum("tjd,tkd,t->tjk", G, G, areas)
    if family == P1:
        return gg
    if family == CR:
        return 4.0 * gg
    rule = triangle_rule(2)   # gradients of P2 are linear
    dN = shape_gradients(family, rule.points)           # (q, 6, 3)
    # reference tensor: local[t, m, n] = sum_jk gg[t, j, k] ref[j, k, m, n]
    ref = np.einsum("qmj,qnk,q->jkmn", dN, dN, rule.weights)
    local = (gg.reshape(-1, 9) @ ref.reshape(9, 36)).reshape(-1, 6, 6)
    # the product sums (m, n) and (n, m) in different orders
    return 0.5 * (local + local.transpose(0, 2, 1))


def assemble_stiffness(space: DofSpace) -> SparseSymMatrix:
    """Free-dof stiffness matrix (broken gradients for CR); exact entries."""
    # the block is taken once the scatter has freed its index arrays
    return _free_block(space, _scatter(space, element_matrices(
        space.mesh, space.family)))


def assemble_mass(space: DofSpace) -> SparseSymMatrix:
    """Free-dof mass matrix; exact entries (diagonal for CR)."""
    return _free_block(space, _scatter(space, element_matrices(
        space.mesh, space.family, mass=True)))


# quadrature points per slice of assemble_load and l2_error
_SLICE_POINTS = 65_536
LOAD_DEGREE = 10   # of the load's quadrature rule


def assemble_load(space: DofSpace, f) -> np.ndarray:
    """Free-dof load vector with entries ``int f * phi_i`` by quadrature.

    ``f`` is called as ``f(x, y)`` on coordinate arrays, one slice of
    triangles at a time, and returns one value per point.  Slices are
    summed in triangle order, so the result does not depend on the slice
    size.
    """
    rule = triangle_rule(LOAD_DEGREE)
    mesh = space.mesh
    N = shape_values(space.family, rule.points)
    step = max(1, _SLICE_POINTS // len(rule.weights))
    b = np.zeros(space.ndof)
    for lo in range(0, mesh.n_triangles, step):
        sl = slice(lo, lo + step)
        pts = mesh.physical_points(sl, rule.points)
        fvals = point_values(f, pts[..., 0], pts[..., 1])
        local = np.einsum("tq,qm,q,t->tm", fvals, N, rule.weights,
                          mesh.areas[sl])
        np.add.at(b, space.cell_dofs[sl].ravel(), local.ravel())
    return b[space.free_dofs]


def point_values(f, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``f(x, y)`` as floats; data must give one value per point, else
    ``ValueError``."""
    vals = np.asarray(f(x, y), dtype=np.float64)
    if vals.shape != x.shape:
        raise ValueError("data must give one value per point")
    return vals


def _nesting_level(coarse: Mesh, fine: Mesh) -> int:
    ratio = fine.n_triangles / coarse.n_triangles
    k = round(np.log(ratio) / np.log(4.0)) if ratio > 1 else 0
    if coarse.n_triangles * 4 ** k != fine.n_triangles:
        raise ValueError("meshes are not a uniform refinement pair")
    if not np.array_equal(coarse.vertices,
                          fine.vertices[:coarse.n_vertices]):
        raise ValueError("meshes are not nested")
    return k


def l2_error(u: FeFunction, ref) -> float:
    """L2 distance between ``u`` and a reference.

    ``ref`` is either a callable ``ref(x, y)`` or an FeFunction living on a
    uniform refinement descendant of ``u``'s mesh; integration is always
    elementwise on the finer mesh (broken evaluation, valid for CR).  The
    finer mesh is worked through in fixed slices of quadrature points; only
    the squared differences, one per point, are kept whole, and they are
    summed once, so the result does not depend on the slice size.
    """
    rule = triangle_rule(4)
    if isinstance(ref, FeFunction):
        mesh = ref.space.mesh
        level = _nesting_level(u.space.mesh, mesh)
        # on u's own mesh and in u's family both share the rule's points
        nested = level > 0 or u.space.family != ref.space.family
    else:
        mesh, nested = u.space.mesh, False
    sq = np.empty((mesh.n_triangles, len(rule.weights)))
    step = max(1, _SLICE_POINTS // len(rule.weights))
    for lo in range(0, mesh.n_triangles, step):
        sl = slice(lo, lo + step)
        if isinstance(ref, FeFunction):
            ref_vals = ref.values_on_elements(rule.points, sl)
        else:
            pts = mesh.physical_points(sl, rule.points)
            ref_vals = point_values(ref, pts[..., 0], pts[..., 1])
        if nested:
            u_vals = _values_in_ancestors(u, mesh, sl, level, rule.points)
        else:
            u_vals = u.values_on_elements(rule.points, sl)
        sq[sl] = (u_vals - ref_vals) ** 2
    return float(np.sqrt(np.einsum("tq,q,t->", sq, rule.weights,
                                   mesh.areas)))


def _values_in_ancestors(u: FeFunction, fine: Mesh, sl: slice, level: int,
                         bary: np.ndarray) -> np.ndarray:
    """Values (t, q) of ``u`` at the barycentric points ``bary`` of the
    triangles ``sl`` of ``fine``, each evaluated in its ancestor on
    ``u``'s mesh, ``level`` uniform refinements coarser."""
    pts = fine.physical_points(sl, bary)
    ancestors = np.arange(sl.start, sl.start + len(pts)) // 4 ** level
    lam = u.space.mesh.barycentric(ancestors, pts)
    l1, l2 = lam[..., 1], lam[..., 2]
    if (l1 < -1e-9).any() or (l2 < -1e-9).any() \
            or (l1 + l2 > 1 + 1e-9).any():
        raise ValueError("point outside its claimed ancestor triangle; "
                         "meshes are not nested")
    N = shape_values(u.space.family, lam)                 # (t, q, nloc)
    cu = u.space.cell_values(u.coefficients, ancestors)   # (t, nloc)
    return np.einsum("tqm,tm->tq", N, cu)
