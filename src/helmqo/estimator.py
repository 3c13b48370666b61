"""Residual-based error indicator for eigenfunctions and marking strategies.

The per-element indicator combines the elementwise eigen-residual
``h_K^2 |laplace(e) + lambda e|^2`` with the squared normal-derivative jump
across interior edges, weighted by ``h_K / 2`` on each adjacent element,
and is averaged over the first ``i* + extra`` eigenfunctions.  Boundary
edges (Dirichlet and Neumann alike) do not contribute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import element_diameters
from .quadrature import edge_rule, triangle_rule
from .spaces import (ElementFamily, shape_gradients, shape_values,
                     _barycentric_in, _geometry)
from .spectral import EigenSet


@dataclass
class IndicatorField:
    """Nonnegative per-element indicator values with their provenance."""

    values: np.ndarray
    i_star: int
    extra: int
    family: ElementFamily

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if (self.values < 0).any():
            raise ValueError("indicator values must be nonnegative")

    def to_csv(self) -> str:
        lines = ["element_id,eta"]
        lines += [f"{i},{float(v)!r}" for i, v in enumerate(self.values)]
        return "\n".join(lines) + "\n"


def residual_indicator(E: EigenSet, i_star: int,
                       extra: int = 3) -> IndicatorField:
    """Averaged eigenpair residual indicator over the first i*+extra pairs.

    Requires ``i_star >= 1`` and a ladder with at least ``i_star + extra``
    pairs.  For piecewise-linear families the volume term reduces to
    ``h_K^2 lambda^2 |e|_K^2`` since the broken Laplacian vanishes.
    """
    if i_star < 1:
        raise ValueError("i_star must be >= 1")
    nfun = i_star + extra
    if len(E) < nfun:
        raise ValueError(f"ladder has {len(E)} pairs, need {nfun}")
    mesh = E.space.mesh
    space = E.space
    hK = element_diameters(mesh)
    G, areas = _geometry(mesh)

    rule = triangle_rule(4)
    dN = shape_gradients(space.family, rule.points)    # (q, nloc, 3)
    N = shape_values(space.family, rule.points)        # (q, nloc)
    lap_coeff = _laplacian_coefficients(space.family, G)   # (nt, nloc)

    interior = np.flatnonzero(mesh.edge_tag == -1)
    epts, ewts = edge_rule(4)
    edge_vec = (mesh.vertices[mesh.edges[interior, 1]]
                - mesh.vertices[mesh.edges[interior, 0]])
    edge_len = np.linalg.norm(edge_vec, axis=1)
    # physical quadrature points along each interior edge
    p0 = mesh.vertices[mesh.edges[interior, 0]]
    exq = p0[:, None, :] + edge_vec[:, None, :] * epts[None, :, None]

    eta = np.zeros(mesh.n_triangles)
    for i in range(1, nfun + 1):
        lam = float(E.values[i - 1])
        c = E.eigenfunction(i).coefficients[space.cell_dofs]   # (nt, nloc)
        # volume term: |laplace(e) + lambda e|^2 on each element
        vals = np.einsum("qm,tm->tq", N, c)
        lap = (lap_coeff * c).sum(axis=1)                      # constant
        resid = lap[:, None] + lam * vals
        vol = np.einsum("tq,q,t->t", resid ** 2, rule.weights, areas)
        eta += hK ** 2 * vol

        # edge term: squared normal-gradient jump, h_K/2 per neighbor
        jump2 = _normal_jump_sq(mesh, space, G, c, interior, exq,
                                edge_vec, edge_len, ewts)
        for side in (0, 1):
            tri = mesh.edge2tri[interior, side]
            valid = tri >= 0
            np.add.at(eta, tri[valid],
                      0.5 * hK[tri[valid]] * jump2[valid])
    eta /= i_star
    return IndicatorField(eta, i_star, extra, space.family)


def _laplacian_coefficients(family: ElementFamily,
                            G: np.ndarray) -> np.ndarray:
    """Per-element coefficients mapping dofs to the (constant) Laplacian."""
    nt = len(G)
    if family.degree == 1:
        return np.zeros((nt, 3))
    out = np.empty((nt, 6))
    gg = np.einsum("tjd,tkd->tjk", G, G)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out[:, i] = 4.0 * gg[:, i, i]
        out[:, 3 + i] = 8.0 * gg[:, j, k]
    return out


def _normal_jump_sq(mesh, space, G, c, interior, exq, edge_vec, edge_len,
                    ewts) -> np.ndarray:
    """Integral over each interior edge of the squared normal-grad jump."""
    normal = np.column_stack([edge_vec[:, 1], -edge_vec[:, 0]]) / \
        edge_len[:, None]
    qn = len(ewts)
    flux = np.zeros((len(interior), qn, 2))
    for side in (0, 1):
        tri = mesh.edge2tri[interior, side]
        valid = tri >= 0
        lam = _barycentric_in(mesh, tri[valid], exq[valid])
        dN = shape_gradients(space.family, lam)          # (ne, q, nloc, 3)
        grad = np.einsum("eqmj,ejd,em->eqd", dN, G[tri[valid]],
                         c[tri[valid]])
        flux[valid, :, side] = np.einsum("eqd,ed->eq", grad, normal[valid])
    jump = flux[:, :, 0] - flux[:, :, 1]
    return np.einsum("eq,q->e", jump ** 2, ewts) * edge_len


def mark_half_max(eta: IndicatorField) -> set[int]:
    """Elements whose indicator exceeds half the maximum value."""
    v = eta.values
    if len(v) == 0:
        raise ValueError("empty indicator field")
    vmax = v.max()
    if vmax == 0.0:
        return set()
    return set(np.flatnonzero(v > 0.5 * vmax).tolist())


def mark_dorfler(eta: IndicatorField, theta: float = 0.5) -> set[int]:
    """Smallest set of elements carrying a ``theta`` fraction of the total
    indicator (bulk chasing); available as an alternative to half-max."""
    if not 0 < theta <= 1:
        raise ValueError("theta must be in (0, 1]")
    v = eta.values
    total = v.sum()
    if total == 0.0:
        return set()
    order = np.argsort(v, kind="stable")[::-1]
    csum = np.cumsum(v[order])
    count = int(np.searchsorted(csum, theta * total) + 1)
    return set(order[:count].tolist())
