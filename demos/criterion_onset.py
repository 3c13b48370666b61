"""The stability criterion and the onset of quasi-optimality.

The Helmholtz bilinear form (grad u, grad v) - k^2 (u, v) is indefinite for
k^2 above the first Laplace eigenvalue.  It is nonetheless stable once the
discrete eigenvalue ladder brackets the wave number,
lambda_h^(i*) < k^2 < lambda_h^(i*+1), where i* counts the continuous
eigenvalues below k^2.  On too-coarse meshes the bracketing fails and the
L2 error is polluted; from the first bracketing mesh on, the error drops at
the quasi-optimal rate.

Run with:  python demos/criterion_onset.py
"""

import numpy as np

from helmqo import (P1, ProblemSpec, SineProduct, build_space,
                    build_unit_square, check_criterion, convergence_study,
                    count_below, eigen_ladder, study_to_csv,
                    unit_square_index)

K2 = 100.0
I_STAR = unit_square_index(K2)
print(f"wave number k^2 = {K2}; {I_STAR} exact square eigenvalues below "
      f"(the pivotal index)")

print("\nEigenvalue ladder around k^2 across uniform refinements:")
print(f"{'n':>4} {'lambda_h^(6)':>13} {'lambda_h^(7)':>13} "
      f"{'bracketed':>10} {'alpha*':>10}")
for n in (8, 16, 32, 64):
    space = build_space(build_unit_square(n), P1)
    below = count_below(*space.pencil, K2)
    ladder = eigen_ladder(space, max(below + 2, I_STAR + 1), {K2: below})
    crit = check_criterion(ladder, K2, I_STAR)
    alpha = f"{crit.alpha_star:.4f}" if crit.satisfied else "-"
    print(f"{n:>4} {crit.lambda_lo:>13.4f} {crit.lambda_hi:>13.4f} "
          f"{str(crit.satisfied):>10} {alpha:>10}")

print("""
The sixth discrete eigenvalue converges to 98.696 from above and crosses
k^2 = 100 between n = 16 and n = 32: that crossing is the onset of
stability.
""")

data = SineProduct(((3, 4, 1.0), (4, 3, 1.0)))
spec = ProblemSpec(P1, K2, rhs=data)
records = convergence_study(spec, build_unit_square(12), 5)

print("Convergence study against the spectral reference "
      "(CSV schema: h,ndof,error,EV_i,EV_ipo):")
print(study_to_csv(records))

sat = np.array([r.ev_i < K2 < r.ev_ipo for r in records])
hs = np.array([r.h for r in records])
errs = np.array([r.error for r in records])
post = np.flatnonzero(sat)
slope = np.polyfit(np.log(hs[post]), np.log(errs[post]), 1)[0]
print(f"pre-onset errors are polluted; restricted to the {len(post)} "
      f"bracketing meshes the fitted L2 rate is h^{slope:.2f} "
      f"(quasi-optimal: h^2)")
