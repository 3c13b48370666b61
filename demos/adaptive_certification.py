"""Certified mesh generation on a domain with a hole.

When the pivotal index is not known a priori, the Crouzeix-Raviart
guaranteed bounds estimate it: j* is the LDL^T inertia count at the
lambda where the lower bound lambda / (1 + kappa^2 lambda h^2) reaches
k^2, and the estimate is certified once the j*-th enclosure is tighter
than its distance to k^2.  The lower bound holds on every mesh (Liu 2015)
but tightens only with the global mesh size, so the driver refines the
elements marked by the averaged eigenpair residual indicator plus every
element larger than the largest global mesh size at which the current
ladder could certify.

Run with:  python demos/adaptive_certification.py   (takes ~1 s)
"""

from helmqo import CR, ProblemSpec, build_square_with_hole, run_gmr

spec = ProblemSpec(CR, 400.0)
initial = build_square_with_hole(0.75, 0.3, 10)
print(f"k^2 = {spec.k2} on a {0.75} x {0.75} square with a {0.3}-hole; "
      f"initial mesh: {initial}")

for mode in ("adaptive", "uniform"):
    report = run_gmr(spec, initial, refine_mode=mode, max_iters=20)
    print(f"\n{mode.upper()} refinement -> {report.termination} after "
          f"{len(report.iterations)} estimates")
    print(f"{'iter':>4} {'ndof':>7} {'h':>8} {'j*':>4} {'k2-lambda':>11} "
          f"{'enclosure':>10} {'certified':>9}")
    for i, rec in enumerate(report.iterations):
        j = "-" if rec.index is None else rec.index
        cond = "-" if rec.condition is None else f"{rec.condition:.3f}"
        enc = "-" if rec.enclosure is None else f"{rec.enclosure:.3f}"
        print(f"{i:>4} {rec.ndof:>7} {rec.h:>8.4f} {j:>4} {cond:>11} "
              f"{enc:>10} {str(rec.certified):>9}")
    for w in report.warnings:
        print(f"  warning: {w}")

print("""
Reading the trace: the index guess j* settles early (the criterion
k^2 - lambda_h^(j*) > 0 holds on coarse meshes already), but certification
waits until the enclosure width drops below that distance.  The width is
governed by the global mesh size, so the guaranteed runs converge alike.
The final line of the CSV written by `helmqo certify` records the
certified iteration.
""")
