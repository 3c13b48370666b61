"""Guaranteed two-sided eigenvalue bounds with Crouzeix-Raviart elements.

The nonconforming ladder is post-processed into a guaranteed lower bound
lambda / (1 + kappa^2 lambda h^2) (Liu 2015: valid at every index, on every
mesh, for kappa >= 0.1893) and an upper reference value (Rayleigh quotient
of the averaged conforming companion).  On the unit square the exact
spectrum pi^2 (i^2 + j^2) lets us watch the enclosures at work.

Run with:  python demos/eigenvalue_bounds.py
"""

import numpy as np

from helmqo import (CR, MIN_KAPPA, build_space, build_unit_square,
                    build_unit_square_unstructured, compute_bounds,
                    cr_lower_bound, eigen_ladder, eigenpairs,
                    global_mesh_size, unit_square_spectrum)

exact = unit_square_spectrum(8)

for n in (4, 16, 64):
    mesh = build_unit_square(n)
    space = build_space(mesh, CR)
    ladder = eigen_ladder(space, 1.0, extra=7)   # eight pairs
    bounds = compute_bounds(ladder)
    h = np.sqrt(2) / n
    print(f"\nCR ladder on the n={n} square (h = {h:.4f}, "
          f"{space.n_free} unknowns)")
    print(f"{'j':>2} {'lambda_h':>10} {'lower':>10} {'exact':>10} "
          f"{'upper':>10} {'enclosed':>9}")
    for j, b in enumerate(bounds, start=1):
        enclosed = "yes" if b.lower <= exact[j - 1] <= b.upper else "NO"
        print(f"{j:>2} {b.lam:>10.4f} {b.lower:>10.4f} "
              f"{exact[j - 1]:>10.4f} {b.upper:>10.4f} {enclosed:>9}")

print("""
Notes
-----
* lambda_h approaches each exact eigenvalue from below here, while the
  conforming families approach from above.
* the lower bound holds at every index with no mesh-size condition, so
  even the n=4 ladder is enclosed from below; it tightens like h^2.
* the upper value is a min-max upper bound for j = 1 only; at higher
  indices it is a reference value, which can fall below the exact
  eigenvalue on coarse meshes (not in the rows above).
""")

# every eigenvalue of a coarse jittered mesh, at the proven constant
mesh = build_unit_square_unstructured(6, seed=1)
space = build_space(mesh, CR)
values = eigenpairs(space, space.n_free).values
h = global_mesh_size(mesh)
lower = np.array([cr_lower_bound(lam, h, MIN_KAPPA) for lam in values])
ratio = unit_square_spectrum(len(values)) / lower
print(f"jittered n=6 square (h = {h:.4f}), all {len(values)} CR eigenvalues "
      f"at kappa = {MIN_KAPPA}:\n  every lower bound below the exact value: "
      f"{bool((ratio >= 1).all())}; smallest exact/lower = {ratio.min():.4f}")
