"""Guaranteed quasi-optimal mesh refinement for self-adjoint Helmholtz
finite element problems on triangular meshes.

The toolkit assembles P1/P2 conforming and Crouzeix-Raviart discretizations,
computes the smallest Laplace eigenvalues with guaranteed bounds, and
refines meshes (uniformly or adaptively) until the wave number is bracketed
by consecutive discrete eigenvalues, which certifies stability of the
Helmholtz discretization.
"""

from .mesh import (BoundaryTag, Mesh, MeshError, MeshFormatError,
                   build_square_with_hole, build_unit_square,
                   build_unit_square_unstructured, minimum_angle, read_mesh,
                   refine_bisection, refine_uniform, write_mesh)
from .quadrature import QuadratureRule, triangle_rule
from .spaces import (CR, P1, P2, DofSpace, ElementFamily, FeFunction,
                     assemble_load, assemble_mass, assemble_stiffness,
                     build_space, l2_error)
from .sparsela import (EigenResult, EigenSolveError, Factorization,
                       ResonanceError, SparseSymMatrix, count_below,
                       count_from_factor, eigs_smallest, ldlt, solve)
from .spectral import (KAPPA, BoundedEigen, Criterion, check_complete,
                       check_criterion, compute_bounds, cr_lower_bound,
                       eigen_ladder)
from .estimator import IndicatorField, mark_half_max, residual_indicator
from .certify import (CertificationReport, GaussianBump, IterationRecord,
                      ProblemSpec, SineProduct, StudyRecord,
                      convergence_study, run_gmr, sine_series_reference,
                      solve_helmholtz, study_to_csv, unit_square_index,
                      unit_square_spectrum)

__version__ = "0.1.0"
