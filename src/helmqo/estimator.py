"""Residual-based error indicator for eigenfunctions, and half-max marking.

The per-element indicator combines the elementwise eigen-residual
``h_K^2 |laplace(e) + lambda e|^2`` with the squared normal-derivative jump
across interior edges, weighted by ``h_K / 2`` on each adjacent element.
It is summed over the first ``i* + INDICATOR_EXTRA_PAIRS`` eigenfunctions
and divided by ``i*`` alone; marking is scale-free, so the divisor only
scales ``eta_total``.  Boundary edges (Dirichlet and Neumann alike) do not
contribute.

The edge geometry depends on the mesh alone, so it is built once per call,
before the loop over eigenfunctions: for each side of each interior edge, a
normal-flux operator mapping the element's coefficients to the normal
derivative at the edge quadrature points.  The points' barycentric
coordinates come straight from the edge table, since an edge's two vertices
are vertices of both neighbours.  Each eigenfunction then costs one volume
residual and one jump per edge; the squared jumps are summed per edge and
scattered to the elements once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import edge_rule, triangle_rule
from .spaces import P2, DofSpace, ElementFamily, shape_gradients, shape_values
from .sparsela import EigenResult

INDICATOR_EXTRA_PAIRS = 3    # pairs past i* in the averaged indicator


@dataclass
class IndicatorField:
    """Nonnegative per-element indicator values."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if (self.values < 0).any():
            raise ValueError("indicator values must be nonnegative")


def residual_indicator(space: DofSpace, E: EigenResult,
                       i_star: int) -> IndicatorField:
    """Eigenpair residual indicator of the ladder ``E`` of ``space``,
    summed over the first i* + ``INDICATOR_EXTRA_PAIRS`` pairs, divided
    by i*.

    Requires ``i_star >= 1`` and a ladder with at least that many pairs.
    For piecewise-linear families the volume term reduces to
    ``h_K^2 lambda^2 |e|_K^2`` since the broken Laplacian vanishes.
    """
    if i_star < 1:
        raise ValueError("i_star must be >= 1")
    nfun = i_star + INDICATOR_EXTRA_PAIRS
    if len(E.values) < nfun:
        raise ValueError(f"ladder has {len(E.values)} pairs, need {nfun}")
    mesh = space.mesh
    hK = mesh.diameters
    G = mesh.barycentric_gradients()

    rule = triangle_rule(4)
    N = shape_values(space.family, rule.points)        # (q, nloc)
    lap_coeff = _laplacian_coefficients(space.family, G)   # (nt, nloc)

    interior = np.flatnonzero(mesh.edge2tri[:, 1] >= 0)
    ends = mesh.edges[interior]                        # (ne, 2) vertex ids
    sides = mesh.edge2tri[interior].T                  # (2, ne) triangles
    epts, ewts = edge_rule(4)
    edge_vec = mesh.vertices[ends[:, 1]] - mesh.vertices[ends[:, 0]]
    edge_len = mesh.edge_lengths[interior]
    normal = np.column_stack([edge_vec[:, 1], -edge_vec[:, 0]]) / \
        edge_len[:, None]
    flux_ops = [_normal_flux(space.family, mesh.triangles[tri], G[tri], ends,
                             normal, epts) for tri in sides]
    jump2 = np.zeros(len(interior))

    eta = np.zeros(mesh.n_triangles)
    for i in range(1, nfun + 1):
        lam = float(E.values[i - 1])
        c = space.cell_values(E.vectors[:, i - 1])
        # volume term: |laplace(e) + lambda e|^2 on each element
        vals = np.einsum("qm,tm->tq", N, c)
        lap = (lap_coeff * c).sum(axis=1)                      # constant
        resid = lap[:, None] + lam * vals
        vol = np.einsum("tq,q,t->t", resid ** 2, rule.weights, mesh.areas)
        eta += hK ** 2 * vol
        # edge term: squared normal-gradient jump, integrated along the edge
        jump = (np.einsum("eqm,em->eq", flux_ops[0], c[sides[0]])
                - np.einsum("eqm,em->eq", flux_ops[1], c[sides[1]]))
        jump2 += np.einsum("eq,q->e", jump ** 2, ewts) * edge_len
    # ... weighted by h_K / 2 on each adjacent element
    for tri in sides:
        np.add.at(eta, tri, 0.5 * hK[tri] * jump2)
    eta /= i_star
    return IndicatorField(eta)


def _normal_flux(family: ElementFamily, verts: np.ndarray, G: np.ndarray,
                 ends: np.ndarray, normal: np.ndarray,
                 epts: np.ndarray) -> np.ndarray:
    """(ne, q, nloc) map from one neighbour's coefficients to the normal
    derivative at the points ``epts`` of each edge ``ends = (a, b)``.

    The point at parameter t has lambda = 1 - t at the local vertex equal
    to a, t at the one equal to b, and 0 at the third, however the
    neighbour orders its vertices.
    """
    verts = verts[:, None, :]                                    # (ne, 1, 3)
    bary = ((1.0 - epts)[:, None] * (verts == ends[:, None, :1])
            + epts[:, None] * (verts == ends[:, None, 1:]))      # (ne, q, 3)
    dN = shape_gradients(family, bary)                   # (ne, q, nloc, 3)
    return np.einsum("eqmj,ejd,ed->eqm", dN, G, normal)


def _laplacian_coefficients(family: ElementFamily,
                            G: np.ndarray) -> np.ndarray:
    """Per-element coefficients mapping dofs to the (constant) Laplacian."""
    nt = len(G)
    if family != P2:
        return np.zeros((nt, 3))
    out = np.empty((nt, 6))
    gg = np.einsum("tjd,tkd->tjk", G, G)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out[:, i] = 4.0 * gg[:, i, i]
        out[:, 3 + i] = 8.0 * gg[:, j, k]
    return out


def mark_half_max(eta: IndicatorField) -> np.ndarray:
    """Ascending ids of the elements whose indicator exceeds half the
    maximum value; none when every value is 0."""
    v = eta.values
    if len(v) == 0:
        raise ValueError("empty indicator field")
    return np.flatnonzero(v > 0.5 * v.max())
