"""Guaranteed two-sided eigenvalue bounds with Crouzeix-Raviart elements.

The nonconforming ladder is post-processed into a guaranteed lower bound
lambda / (1 + kappa^2 lambda h^2) (Liu 2015: valid at every index, on every
mesh, for kappa >= 0.1893; helmqo fixes kappa = KAPPA = 0.1932) and a
guaranteed upper bound (the Ritz values of the P2 pencil on the ladder's
eigenvectors lifted into P2, whose Gram matrices are summed element by
element, so the P2 pencil itself is never assembled).  On the unit square
the exact spectrum pi^2 (i^2 + j^2) lets us watch the enclosures at work.

Run with:  python demos/eigenvalue_bounds.py
"""

import numpy as np

from helmqo import (CR, KAPPA, build_space, build_unit_square,
                    build_unit_square_unstructured, compute_bounds,
                    count_below, eigen_ladder, eigs_smallest,
                    unit_square_spectrum)

exact = unit_square_spectrum(8)

for n in (4, 16, 64):
    mesh = build_unit_square(n)
    space = build_space(mesh, CR)
    # eight pairs, checked against the LDL^T count below 1 (none)
    ladder = eigen_ladder(space, 8, {1.0: count_below(*space.pencil, 1.0)})
    bounds = compute_bounds(space, ladder)
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
* the upper bound holds at every index too: each CR eigenvector is lifted
  into P2 (edge values kept, vertex means of the elementwise limits), and
  by the min-max principle the j-th Ritz value of the P2 pencil on the
  span of the lifted ladder lies above the j-th exact eigenvalue.
""")

# every eigenvalue of a coarse jittered mesh
mesh = build_unit_square_unstructured(6, seed=1)
space = build_space(mesh, CR)
bounds = compute_bounds(space, eigs_smallest(*space.pencil, space.n_free))
h = mesh.h
exact = unit_square_spectrum(len(bounds))
lower = np.array([b.lower for b in bounds])
upper = np.array([b.upper for b in bounds])
print(f"jittered n=6 square (h = {h:.4f}), all {len(bounds)} CR eigenvalues "
      f"at kappa = {KAPPA}:\n  every exact value enclosed: "
      f"{bool(((lower <= exact) & (exact <= upper)).all())}; smallest "
      f"exact/lower = {(exact / lower).min():.4f}, smallest upper/exact = "
      f"{(upper / exact).min():.4f}")
