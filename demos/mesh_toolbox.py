"""Tour of the mesh toolbox: builders, refinement, and the text format.

Run with:  python demos/mesh_toolbox.py
"""

import numpy as np

from helmqo import (BoundaryTag, build_square_with_hole, build_unit_square,
                    build_unit_square_unstructured, minimum_angle,
                    read_mesh, refine_bisection, refine_uniform, write_mesh)

print("=" * 64)
print("Built-in geometries")
print("=" * 64)

square = build_unit_square(4)
print(f"unit square, n=4: {square}")
print(f"  global mesh size h = {square.h:.4f} "
      f"(expected sqrt(2)/4 = {np.sqrt(2)/4:.4f})")

hole = build_square_with_hole(2.0, 1.0, 8,
                              outer_tag=BoundaryTag.NEUMANN,
                              inner_tag=BoundaryTag.DIRICHLET)
V, E, F = hole.n_vertices, hole.n_edges, hole.n_triangles
print(f"square with hole: {hole}")
print(f"  Euler characteristic V - E + F = {V - E + F} (annulus: 0)")
n_dirichlet = len(hole.dirichlet_edge_ids)
print(f"  boundary tags: {len(hole.boundary_edge_ids) - n_dirichlet} Neumann "
      f"(outer), {n_dirichlet} Dirichlet (hole)")

jittered = build_unit_square_unstructured(6, seed=0)
print(f"unstructured square: {jittered}, min angle "
      f"{np.degrees(minimum_angle(jittered)):.1f} deg")

print()
print("=" * 64)
print("Refinement: red (uniform) and newest-vertex bisection")
print("=" * 64)

m = square
for level in range(3):
    m = refine_uniform(m)
    print(f"  red level {level + 1}: {m.n_triangles} triangles, "
          f"h = {m.h:.4f}")

# adaptive-style bisection: mark the triangles nearest the origin
m = build_unit_square(4)
print(f"start: {m.n_triangles} triangles, "
      f"min angle {np.degrees(minimum_angle(m)):.1f} deg")
for level in range(4):
    centers = m.vertices[m.triangles].mean(axis=1)
    dist = np.linalg.norm(centers, axis=1)
    marked = set(np.flatnonzero(dist < 0.4).tolist())
    m = refine_bisection(m, marked)
    print(f"  bisection round {level + 1}: {m.n_triangles} triangles, "
          f"min angle {np.degrees(minimum_angle(m)):.1f} deg "
          f"(bounded: finitely many similarity classes)")

smallest = m.diameters.min()
print(f"local refinement: smallest element {smallest:.4f} vs supremum "
      f"{m.h:.4f}")

print()
print("=" * 64)
print("Text serialization round trip")
print("=" * 64)

text = write_mesh(square)
print("first lines of the format:")
for line in text.splitlines()[:4]:
    print(f"  {line}")
back = read_mesh(text)
print(f"read(write(mesh)) == mesh: {back == square}")
