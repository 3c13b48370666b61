"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately written from scratch (brute force
enumeration, cyclic Jacobi, Gaussian elimination, per-triangle corner
geometry) so that they share no code path with the implementations they
verify.
"""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from helmqo.mesh import BoundaryTag, build_unit_square, write_mesh

# property tests are reproducible and untimed; each sets its max_examples
settings.register_profile("helmqo", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("helmqo")


def enumeration_spectrum(count: int) -> np.ndarray:
    """Brute-force Dirichlet spectrum of the unit square, pi^2 (i^2+j^2)."""
    vals = []
    top = 40
    for i in range(1, top):
        for j in range(1, top):
            vals.append(math.pi ** 2 * (i * i + j * j))
    vals.sort()
    assert count <= len(vals)
    return np.array(vals[:count])


def enumeration_index(k2: float) -> int:
    """Brute-force count of unit-square eigenvalues strictly below k2."""
    cnt = 0
    top = int(math.sqrt(max(k2, 0.0)) / math.pi) + 2
    for i in range(1, top):
        for j in range(1, top):
            if math.pi ** 2 * (i * i + j * j) < k2:
                cnt += 1
    return cnt


# Liu's proved CR interpolation constant C_h / h (Appl. Math. Comput. 2015);
# helmqo's fixed ``spectral.KAPPA`` may not lie below it
MIN_KAPPA = 0.1893


def liu_lower_bounds(values, h: float) -> np.ndarray:
    """Liu's lower bounds lambda / (1 + MIN_KAPPA^2 lambda h^2) of a CR
    ladder, at the proved constant; the bound helmqo reports, at its
    larger KAPPA, lies below these."""
    lam = np.maximum(np.asarray(values, dtype=float), 0.0)
    return lam / (1.0 + MIN_KAPPA ** 2 * lam * h ** 2)


def gaussian_elimination_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense Gaussian elimination with partial pivoting, written plainly."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if p != k:
            A[[k, p]] = A[[p, k]]
            b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            m = A[i, k] / A[k, k]
            A[i, k + 1:] -= m * A[k, k + 1:]
            b[i] -= m * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - A[i, i + 1:] @ x[i + 1:]) / A[i, i]
    return x


def jacobi_generalized_eigen(A: np.ndarray, M: np.ndarray,
                             sweeps: int = 60) -> np.ndarray:
    """Cyclic Jacobi eigenvalues of the pencil (A, M), ascending.

    Reduces to a standard problem with a hand-rolled Cholesky factor and
    runs classical Jacobi rotations until off-diagonal exhaustion.
    """
    A = np.array(A, dtype=float)
    M = np.array(M, dtype=float)
    n = len(A)
    # Cholesky M = L L^T, forward/back substitutions by hand
    L = np.zeros_like(M)
    for i in range(n):
        for j in range(i + 1):
            s = M[i, j] - L[i, :j] @ L[j, :j]
            L[i, j] = math.sqrt(s) if i == j else s / L[j, j]
    # C = L^-1 A L^-T
    X = np.zeros_like(A)
    for col in range(n):
        y = A[:, col].copy()
        for i in range(n):
            y[i] = (y[i] - L[i, :i] @ y[:i]) / L[i, i]
        X[:, col] = y
    C = np.zeros_like(A)
    for row in range(n):
        y = X[row].copy()
        for i in range(n):
            y[i] = (y[i] - L[i, :i] @ y[:i]) / L[i, i]
        C[row] = y
    C = 0.5 * (C + C.T)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(C[p, q]))
                if abs(C[p, q]) < 1e-15:
                    continue
                theta = 0.5 * math.atan2(2 * C[p, q], C[q, q] - C[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rows_p, rows_q = C[p].copy(), C[q].copy()
                C[p], C[q] = c * rows_p - s * rows_q, s * rows_p + c * rows_q
                cols_p, cols_q = C[:, p].copy(), C[:, q].copy()
                C[:, p] = c * cols_p - s * cols_q
                C[:, q] = s * cols_p + c * cols_q
        if off < 1e-14:
            break
    return np.sort(np.diag(C))


@pytest.fixture(scope="session")
def square_spectrum_20():
    return enumeration_spectrum(20)


def jittered_square(n: int, seed: int, jitter: float,
                    tags=BoundaryTag.DIRICHLET):
    """Delaunay mesh of [0,1]^2 from the n-by-n grid whose interior points
    are moved by up to ``jitter`` cell widths in each coordinate, drawn
    from ``seed``, triangulated by Qhull.  At ``jitter = 0.25`` it is the
    oracle of ``build_unit_square_unstructured(n, seed, tags)``, which
    cuts each grid cell by an in-circle test: the same vertices and
    triangulation, in another order."""
    from scipy.spatial import Delaunay
    from helmqo.mesh import Mesh
    xs = np.linspace(0.0, 1.0, n + 1)
    pts = np.array([(x, y) for y in xs for x in xs])
    interior = ((pts > 0.0) & (pts < 1.0)).all(axis=1)
    rng = np.random.default_rng(seed)
    pts[interior] += rng.uniform(-jitter / n, jitter / n,
                                 size=(interior.sum(), 2))
    tri = Delaunay(pts).simplices.astype(np.int64)
    (x0, y0), (x1, y1), (x2, y2) = pts[tri].transpose(1, 2, 0)
    clockwise = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) < 0
    tri[clockwise] = tri[clockwise][:, [0, 2, 1]]
    return Mesh(pts, tri, tags)


def loop_edge_table(triangles: np.ndarray):
    """Edge table by row-wise ``np.unique`` and a per-edge ``edge2tri`` fill.

    Returns ``(edges, tri2edge, edge2tri)``; triangle ids ascend within the
    two slots of each edge.
    """
    t = np.asarray(triangles)
    nt = len(t)
    raw = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
    raw.sort(axis=1)
    edges, inv = np.unique(raw, axis=0, return_inverse=True)
    inv = inv.ravel()
    tri2edge = np.column_stack([inv[:nt], inv[nt:2 * nt], inv[2 * nt:]])
    edge2tri = np.full((len(edges), 2), -1, dtype=np.int64)
    fill = np.zeros(len(edges), dtype=np.int64)
    order = np.argsort(inv, kind="stable")
    for e, tri in zip(inv[order], np.tile(np.arange(nt), 3)[order]):
        edge2tri[e, fill[e]] = tri
        fill[e] += 1
    return edges, tri2edge, edge2tri


def loop_edge_tags(edges: np.ndarray, edge2tri: np.ndarray,
                   dirichlet) -> np.ndarray:
    """Tag code per edge (0 Dirichlet, 1 Neumann, -1 interior): an edge of
    one triangle is Neumann unless the vertex pairs ``dirichlet`` name it."""
    key = {tuple(e): i for i, e in enumerate(edges.tolist())}
    tags = np.where(edge2tri[:, 1] < 0, 1, -1).astype(np.int8)
    for a, b in dirichlet:
        tags[key[(min(a, b), max(a, b))]] = 0
    return tags


def boundary_section_case(case: str, tag: str) -> str:
    """The file of ``build_unit_square(1)`` with its four boundary edges
    tagged ``tag`` and its $BoundaryEdges section broken by ``case``: the
    first edge again, the last one left out, the diagonal (0, 3) added, or
    the first edge again with the other tag."""
    head, section = write_mesh(build_unit_square(1)).split("$BoundaryEdges")
    rows = [line[:-1] + tag for line in section.splitlines()[1:]]
    other = "N" if tag == "D" else "D"
    rows = {"duplicate": rows + rows[:1], "missing": rows[:-1],
            "interior": rows + [f"3 0 {tag}"],
            "conflicting": rows + [rows[0][:-1] + other]}[case]
    return f"{head}$BoundaryEdges {len(rows)}\n" + "\n".join(rows) + "\n"


def loop_refine_bisection(m, marked):
    """Newest-vertex bisection one triangle at a time.

    Returns ``(vertices, triangles, refinement_edge, dirichlet)`` of the
    refined mesh, children in parent order, using only the parent's edge
    table; ``dirichlet`` lists the Dirichlet edges as vertex pairs.
    """
    marked = np.asarray(sorted(set(int(t) for t in marked)), dtype=np.int64)
    marked_edge = np.zeros(m.n_edges, dtype=bool)
    marked_edge[m.tri2edge[marked].ravel()] = True
    ref_glob = m.tri2edge[np.arange(m.n_triangles), m.refinement_edge]
    while True:
        need = (marked_edge[m.tri2edge].any(axis=1)
                & ~marked_edge[ref_glob])
        if not need.any():
            break
        marked_edge[ref_glob[need]] = True

    nv = m.n_vertices
    new_of_edge = np.full(m.n_edges, -1, dtype=np.int64)
    split_ids = np.flatnonzero(marked_edge)
    new_of_edge[split_ids] = nv + np.arange(len(split_ids))
    mids = 0.5 * (m.vertices[m.edges[split_ids, 0]]
                  + m.vertices[m.edges[split_ids, 1]])
    vertices = np.vstack([m.vertices, mids])

    out_tris, out_ref = [], []
    for t in range(m.n_triangles):
        edges_t = m.tri2edge[t]
        if not marked_edge[edges_t].any():
            out_tris.append(m.triangles[t])
            out_ref.append(int(m.refinement_edge[t]))
            continue
        r = int(m.refinement_edge[t])
        order = [r, (r + 1) % 3, (r + 2) % 3]
        p, va, vb = (int(v) for v in m.triangles[t][order])
        e0, e1, e2 = (int(e) for e in edges_t[order])
        m0 = int(new_of_edge[e0])
        if marked_edge[e2]:
            m2 = int(new_of_edge[e2])
            out_tris += [[m0, p, m2], [m0, m2, va]]
            out_ref += [2, 1]
        else:
            out_tris.append([p, va, m0])
            out_ref.append(2)
        if marked_edge[e1]:
            m1 = int(new_of_edge[e1])
            out_tris += [[m0, vb, m1], [m0, m1, p]]
            out_ref += [2, 1]
        else:
            out_tris.append([p, m0, vb])
            out_ref.append(1)

    dirichlet = []
    for e in m.dirichlet_edge_ids:
        va, vb = (int(v) for v in m.edges[e])
        if marked_edge[e]:
            vm = int(new_of_edge[e])
            dirichlet += [(va, vm), (vm, vb)]
        else:
            dirichlet.append((va, vb))
    return (vertices, np.array(out_tris, dtype=np.int64),
            np.array(out_ref, dtype=np.int8), dirichlet)


def corner_geometry(mesh):
    """Per-triangle geometry, one triangle at a time from its corners.

    Returns ``(areas, lengths, diameters, h, longest)``: signed areas (nt,),
    edge lengths (nt, 3) with edge k opposite corner k, the longest length
    of each triangle, the largest of those, and the local index of the
    first longest edge.
    """
    corners = mesh.vertices[mesh.triangles].tolist()
    areas, lengths, longest = [], [], []
    for (x0, y0), (x1, y1), (x2, y2) in corners:
        areas.append(0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)))
        row = [math.sqrt((x2 - x1) * (x2 - x1) + (y2 - y1) * (y2 - y1)),
               math.sqrt((x0 - x2) * (x0 - x2) + (y0 - y2) * (y0 - y2)),
               math.sqrt((x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0))]
        lengths.append(row)
        longest.append(row.index(max(row)))
    diameters = [max(row) for row in lengths]
    return (np.array(areas), np.array(lengths).reshape(-1, 3),
            np.array(diameters), max(diameters, default=0.0),
            np.array(longest, dtype=np.int8))


def corner_barycentric(mesh, tri_ids, pts: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (nt, q, 3) of ``pts`` (nt, q, 2) in the
    triangles ``tri_ids``, by Cramer's rule on the corner coordinates."""
    p = mesh.vertices[mesh.triangles[tri_ids]]
    x0, y0 = p[:, 0, 0, None], p[:, 0, 1, None]
    x1, y1 = p[:, 1, 0, None], p[:, 1, 1, None]
    x2, y2 = p[:, 2, 0, None], p[:, 2, 1, None]
    det = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    rx, ry = pts[..., 0] - x0, pts[..., 1] - y0
    l1 = (rx * (y2 - y0) - ry * (x2 - x0)) / det
    l2 = ((x1 - x0) * ry - (y1 - y0) * rx) / det
    return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)


def inverse_jacobian_gradients(mesh) -> np.ndarray:
    """Barycentric gradients (nt, 3, 2): rows of the inverse Jacobian of
    each element map for corners 1 and 2, minus their sum for corner 0."""
    p = mesh.vertices[mesh.triangles]
    B = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    inv = np.linalg.inv(B)                  # rows: grad lambda_1, lambda_2
    return np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)


def dof_locations(space) -> np.ndarray:
    """(ndof, 2) position of every dof, constrained ones included:
    vertices (P1), edge midpoints (CR), or vertices then edge midpoints
    (P2), in the space's full-dof numbering."""
    from helmqo.spaces import CR, P1
    mesh = space.mesh
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                       + mesh.vertices[mesh.edges[:, 1]])
    if space.family == P1:
        return mesh.vertices
    if space.family == CR:
        return midpoints
    return np.vstack([mesh.vertices, midpoints])


def full_coefficients(space, x: np.ndarray) -> np.ndarray:
    """The free-dof vector ``x`` on all dofs, 0 at constrained ones."""
    full = np.zeros(space.ndof)
    full[space.free_dofs] = x
    return full


def interpolate(space, fn):
    """Nodal interpolant of ``fn`` as an FeFunction of free coefficients.
    ``fn`` must vanish at the constrained dofs, so that the interpolant
    is the function of the space with those nodal values."""
    from helmqo.spaces import FeFunction, point_values
    at = dof_locations(space)
    values = point_values(fn, at[:, 0], at[:, 1])
    constrained = np.setdiff1d(np.arange(space.ndof), space.free_dofs)
    assert np.allclose(values[constrained], 0.0, rtol=0.0, atol=1e-12)
    return FeFunction(space, values[space.free_dofs])


def loop_p2_stiffness(space) -> np.ndarray:
    """Dense P2 stiffness matrix, one triangle and one quadrature point at a
    time: the dot products of the physical basis gradients, written
    plainly."""
    from helmqo.quadrature import triangle_rule
    from helmqo.spaces import shape_gradients
    rule = triangle_rule(2)
    G = inverse_jacobian_gradients(space.mesh)
    areas = corner_geometry(space.mesh)[0]
    K = np.zeros((space.ndof, space.ndof))
    for t, dofs in enumerate(space.cell_dofs):
        for lam, w in zip(rule.points, rule.weights):
            grads = shape_gradients(space.family, lam) @ G[t]   # (6, 2)
            for a in range(6):
                for b in range(6):
                    K[dofs[a], dofs[b]] += (w * areas[t]
                                            * (grads[a] @ grads[b]))
    return K


def loop_cr_vertex_mean(space, coefficients: np.ndarray) -> np.ndarray:
    """Per vertex, the mean over its triangles of a CR function's limits
    there, one triangle at a time: on a triangle with edge dofs c (edge i
    opposite local vertex i) the limit at local vertex i is sum(c) - 2 c_i."""
    mesh = space.mesh
    acc = np.zeros(mesh.n_vertices)
    cnt = np.zeros(mesh.n_vertices)
    for t in range(mesh.n_triangles):
        c = coefficients[space.cell_dofs[t]]
        for i, v in enumerate(mesh.triangles[t]):
            acc[v] += c.sum() - 2.0 * c[i]
            cnt[v] += 1
    return acc / cnt


def loop_p2_lift(space, X: np.ndarray) -> np.ndarray:
    """P2 coefficients on all dofs (n_vertices + n_edges, m) of the lifts of
    the CR functions with free coefficient columns ``X``, written plainly:
    vertex means of the elementwise limits (:func:`loop_cr_vertex_mean`),
    the CR values at the edges, and 0 at every Dirichlet vertex and
    edge."""
    mesh = space.mesh
    Y = np.zeros((mesh.n_vertices + mesh.n_edges, X.shape[1]))
    for j in range(X.shape[1]):
        c = full_coefficients(space, X[:, j])
        Y[:mesh.n_vertices, j] = loop_cr_vertex_mean(space, c)
        Y[mesh.n_vertices:, j] = c
    Y[mesh.dirichlet_vertices()] = 0.0
    return Y


def dense(S) -> np.ndarray:
    """The ``SparseSymMatrix`` ``S`` as a dense array."""
    return S.to_scipy().toarray()


def dense_spectrum(A, M) -> np.ndarray:
    """Every eigenvalue of the pencil (A, M), ascending, by one dense
    generalized eigensolve."""
    import scipy.linalg
    return scipy.linalg.eigh(dense(A), dense(M), eigvals_only=True)


def dense_ritz_upper_bounds(space, E) -> np.ndarray:
    """Ritz values of the assembled P2 pencil on the span of the lifted
    eigenvectors (:func:`loop_p2_lift`) of the CR ladder ``E`` of
    ``space``, in one dense step."""
    import scipy.linalg
    from helmqo.spaces import P2, build_space
    s_p2 = build_space(space.mesh, P2)
    A2, M2 = (dense(B) for B in s_p2.pencil)
    Z = loop_p2_lift(space, E.vectors)[s_p2.free_dofs]
    return scipy.linalg.eigh(Z.T @ A2 @ Z, Z.T @ M2 @ Z, eigvals_only=True)


def oneshot_assemble_load(space, f) -> np.ndarray:
    """Load vector from one evaluation of ``f`` at every quadrature point
    of the mesh, the arithmetic of ``assemble_load`` without slices."""
    from helmqo.quadrature import triangle_rule
    from helmqo.spaces import LOAD_DEGREE, point_values, shape_values
    rule = triangle_rule(LOAD_DEGREE)
    mesh = space.mesh
    pts = np.einsum("qk,tkd->tqd", rule.points, mesh.vertices[mesh.triangles])
    fvals = point_values(f, pts[..., 0], pts[..., 1])
    N = shape_values(space.family, rule.points)
    local = np.einsum("tq,qm,q,t->tm", fvals, N, rule.weights,
                      corner_geometry(mesh)[0])
    b = np.zeros(space.ndof)
    np.add.at(b, space.cell_dofs.ravel(), local.ravel())
    return b


def unblocked_sine_sum(C: np.ndarray, x: np.ndarray,
                       y: np.ndarray) -> np.ndarray:
    """sum C_ij 2 sin(i pi x) sin(j pi y) at 1-D points, all in one block."""
    idx = np.arange(1, C.shape[0] + 1)
    Sx = np.sin(np.pi * np.outer(x, idx))
    Sy = np.sin(np.pi * np.outer(y, idx))
    return 2.0 * ((Sx @ C) * Sy).sum(axis=1)


def oneshot_l2_error(u, ref) -> float:
    """``l2_error`` from one evaluation at every quadrature point of the
    finer mesh, no slices: against a callable, an FeFunction on ``u``'s
    mesh in ``u``'s family (values at the rule's points), or any other
    FeFunction on a nested finer mesh (``u`` evaluated in the ancestors)."""
    from helmqo.quadrature import triangle_rule
    from helmqo.spaces import FeFunction, point_values, shape_values
    rule = triangle_rule(4)

    def local(v, triangles=slice(None)):   # v's coefficients per element
        return full_coefficients(v.space, v.coefficients)[
            v.space.cell_dofs[triangles]]

    def values(v):   # v at the rule's points of each of its elements
        return np.einsum("qm,tm->tq", shape_values(v.space.family,
                                                   rule.points), local(v))

    coarse = u.space.mesh
    fine = ref.space.mesh if isinstance(ref, FeFunction) else coarse
    pts = np.einsum("qk,tkd->tqd", rule.points, fine.vertices[fine.triangles])
    if isinstance(ref, FeFunction):
        ref_vals = values(ref)
    else:
        ref_vals = point_values(ref, pts[..., 0], pts[..., 1])
    per_ancestor = fine.n_triangles // coarse.n_triangles   # 4 ** level
    if per_ancestor == 1 and (not isinstance(ref, FeFunction)
                              or ref.space.family == u.space.family):
        u_vals = values(u)
    else:
        ancestors = np.arange(fine.n_triangles) // per_ancestor
        N = shape_values(u.space.family,
                         corner_barycentric(coarse, ancestors, pts))
        u_vals = np.einsum("tqm,tm->tq", N, local(u, ancestors))
    diff = u_vals - ref_vals
    return float(np.sqrt(np.einsum("tq,q,t->", diff ** 2,
                                   rule.weights,
                                   corner_geometry(fine)[0])))


def loop_residual_indicator(space, E, i_star: int, extra: int):
    """``residual_indicator`` with the edge geometry rebuilt for every
    eigenfunction: edge points located by inverting each neighbour's element
    map, and the normal-gradient jump scattered twice per function."""
    from helmqo.estimator import IndicatorField, _laplacian_coefficients
    from helmqo.quadrature import edge_rule, triangle_rule
    from helmqo.spaces import shape_values
    nfun = i_star + extra
    mesh = space.mesh
    areas, _, hK, _, _ = corner_geometry(mesh)
    G = inverse_jacobian_gradients(mesh)

    rule = triangle_rule(4)
    N = shape_values(space.family, rule.points)        # (q, nloc)
    lap_coeff = _laplacian_coefficients(space.family, G)   # (nt, nloc)

    interior = np.flatnonzero(mesh.edge2tri[:, 1] >= 0)
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
        c = full_coefficients(space, E.vectors[:, i - 1])[space.cell_dofs]
        # volume term: |laplace(e) + lambda e|^2 on each element
        vals = np.einsum("qm,tm->tq", N, c)
        lap = (lap_coeff * c).sum(axis=1)                      # constant
        resid = lap[:, None] + lam * vals
        vol = np.einsum("tq,q,t->t", resid ** 2, rule.weights, areas)
        eta += hK ** 2 * vol

        # edge term: squared normal-gradient jump, h_K/2 per neighbor
        jump2 = _loop_normal_jump_sq(mesh, space, G, c, interior, exq,
                                     edge_vec, edge_len, ewts)
        for side in (0, 1):
            tri = mesh.edge2tri[interior, side]
            valid = tri >= 0
            np.add.at(eta, tri[valid],
                      0.5 * hK[tri[valid]] * jump2[valid])
    eta /= i_star
    return IndicatorField(eta)


def _loop_normal_jump_sq(mesh, space, G, c, interior, exq, edge_vec,
                         edge_len, ewts) -> np.ndarray:
    """Integral over each interior edge of the squared normal-grad jump."""
    from helmqo.spaces import shape_gradients
    normal = np.column_stack([edge_vec[:, 1], -edge_vec[:, 0]]) / \
        edge_len[:, None]
    qn = len(ewts)
    flux = np.zeros((len(interior), qn, 2))
    for side in (0, 1):
        tri = mesh.edge2tri[interior, side]
        valid = tri >= 0
        lam = corner_barycentric(mesh, tri[valid], exq[valid])
        dN = shape_gradients(space.family, lam)          # (ne, q, nloc, 3)
        grad = np.einsum("eqmj,ejd,em->eqd", dN, G[tri[valid]],
                         c[tri[valid]])
        flux[valid, :, side] = np.einsum("eqd,ed->eq", grad, normal[valid])
    jump = flux[:, :, 0] - flux[:, :, 1]
    return np.einsum("eq,q->e", jump ** 2, ewts) * edge_len


def _drop_pair(monkeypatch, real, pick):
    """Make ``real``, in every helmqo namespace holding it, return its
    ladder without the pair at index ``pick(values)``."""
    def short(*args, **kwargs):
        E = real(*args, **kwargs)
        keep = np.arange(len(E.values)) != pick(E.values)
        return dataclasses.replace(E, values=E.values[keep],
                                   vectors=E.vectors[:, keep])
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "helmqo":
            for attr, obj in list(vars(mod).items()):
                if obj is real:
                    monkeypatch.setattr(mod, attr, short)


def drop_lowest_pair(monkeypatch):
    """Make ``sparsela.eigs_smallest`` return its ladder without the
    lowest pair."""
    import helmqo.sparsela
    _drop_pair(monkeypatch, helmqo.sparsela.eigs_smallest, lambda values: 0)


def drop_first_pair_above(monkeypatch, k2: float):
    """Make ``sparsela.eigs_smallest`` return its ladder without the first
    pair at or above ``k2``: the count at ``k2`` stays right, and a count
    at a larger shift past that pair does not."""
    import helmqo.sparsela
    _drop_pair(monkeypatch, helmqo.sparsela.eigs_smallest,
               lambda values: np.searchsorted(values, k2))


def counted_ladder(space, k2: float, extra: int = 3, min_pairs: int = 0):
    """``eigen_ladder`` through one past ``k2`` plus ``extra`` more pairs,
    at least ``min_pairs``, checked against the LDL^T inertia count at
    ``k2``."""
    from helmqo.sparsela import count_below
    from helmqo.spectral import eigen_ladder
    below = count_below(*space.pencil, k2)
    return eigen_ladder(space, max(below + extra + 1, min_pairs),
                        {k2: below})


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes tracemalloc sees while ``fn(*args, **kwargs)`` runs.

    Only allocations through Python's allocators count (NumPy arrays
    among them); storage a C library keeps for itself does not.
    """
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cli_choices(flag: str) -> list[str]:
    """The values the helmqo parser offers for ``flag``, in its order,
    gathered over every subcommand that takes it."""
    import argparse
    from helmqo.cli import _build_parser
    parsers, names = [_build_parser()], []
    while parsers:
        for action in parsers.pop(0)._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif action.option_strings[-1:] == [flag]:
                names += [c for c in action.choices if c not in names]
    return names
