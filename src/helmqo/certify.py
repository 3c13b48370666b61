"""Guaranteed mesh refinement driver, Helmholtz solves and studies.

``run_gmr`` refines a mesh (uniformly or adaptively) until the eigenvalue
ladder brackets the wave number: then the Helmholtz discretization is
stable and quasi-optimal.  The pivotal index is either supplied externally
(``i_star=<int>``, e.g. from a modal analysis) or, with ``i_star=None``,
estimated and certified from guaranteed Crouzeix-Raviart eigenvalue
bounds: the estimate j* is the LDL^T inertia count at the lambda where
Liu's lower bound reaches k^2.  One step, the same for both, runs on every
mesh: counts, ladder, criterion, record.

The module also provides the indefinite Helmholtz solve, a spectral
reference solution on the unit square, and uniform-refinement convergence
studies with CSV export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .mesh import Mesh, refine_bisection, refine_uniform
from .spaces import (CR, P1, DofSpace, ElementFamily, FeFunction,
                     assemble_load, build_space, l2_error, point_values)
from .quadrature import edge_rule
from .sparsela import (ResonanceError, count_below, count_from_factor, ldlt,
                       solve)
from .spectral import (BoundedEigen, check_criterion, compute_bounds,
                       cr_bound_preimage, cr_certifies, eigen_ladder)
from .estimator import (INDICATOR_EXTRA_PAIRS, mark_half_max,
                        residual_indicator)

ALPHA_WARN_THRESHOLD = 1e-6
RESONANCE_ENCLOSURE_RTOL = 1e-3
SINE_STABILITY_RTOL = 1e-8   # sampled change that ends the series' growth
SINE_RESONANCE_RTOL = 1e-9   # least distance of k^2 from the exact spectrum
STUDY_EXTRA_PAIRS = 1        # study ladder pairs past the first above k^2


# -- right-hand sides -------------------------------------------------------

@dataclass(frozen=True)
class GaussianBump:
    """f(x, y) = amplitude * exp(-width^2 * |x - center|^2)."""

    amplitude: float
    width: float
    center: tuple[float, float]

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude != 0
                and 0 < self.width < math.inf
                and all(map(math.isfinite, self.center))):
            raise ValueError("a gaussian bump needs a finite nonzero "
                             "amplitude, a finite center and a positive "
                             f"finite width: {self}")

    def __call__(self, x, y):
        r2 = (x - self.center[0]) ** 2 + (y - self.center[1]) ** 2
        return self.amplitude * np.exp(-self.width ** 2 * r2)


@dataclass(frozen=True)
class SineProduct:
    """Combination of normalized sine modes 2 sin(i pi x) sin(j pi y)."""

    modes: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if not self.modes or not all(i >= 1 and j >= 1 and math.isfinite(c)
                                     for i, j, c in self.modes):
            raise ValueError("a sine product needs modes with indices >= 1 "
                             f"and finite coefficients: {self}")
        total: dict[tuple[int, int], float] = {}
        for i, j, c in self.modes:
            total[i, j] = total.get((i, j), 0.0) + c
        if not any(total.values()):
            raise ValueError("a sine product needs a nonzero coefficient sum "
                             f"on some mode; it is identically zero: {self}")

    def __call__(self, x, y):
        out = np.zeros(np.broadcast(x, y).shape)
        for i, j, coef in self.modes:
            out += coef * 2.0 * np.sin(i * np.pi * x) * np.sin(j * np.pi * y)
        return out


Rhs = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class ProblemSpec:
    """A Helmholtz problem's physics: element family, wave number, data.
    Its domain is the mesh passed to ``run_gmr``, ``convergence_study`` or
    ``solve_helmholtz``."""

    family: ElementFamily
    k2: float
    rhs: Rhs | None = None

    def __post_init__(self):
        if not 0 < self.k2 < math.inf:
            raise ValueError(f"k2 must be positive and finite, got "
                             f"{self.k2!r}")


def dirichlet_unit_square(mesh: Mesh) -> bool:
    """Whether ``mesh`` is the unit square with an all-Dirichlet boundary,
    where the sine series is the exact reference: its vertices span exactly
    [0, 1]^2, and to rounding its areas sum to 1 (a hole lowers it) and its
    boundary edges' lengths to 4 (a slit raises it)."""
    b, v = mesh.boundary_edge_ids, mesh.vertices
    return bool(len(mesh.dirichlet_edge_ids) == len(b)
                and (v.min(axis=0) == 0).all() and (v.max(axis=0) == 1).all()
                and math.isclose(mesh.areas.sum(), 1.0)
                and math.isclose(mesh.edge_lengths[b].sum(), 4.0))


# -- Helmholtz solve --------------------------------------------------------

def solve_helmholtz(spec: ProblemSpec, mesh: Mesh) -> FeFunction:
    """Solve the indefinite Helmholtz system on the given mesh.

    The constrained system (stiffness - k^2 mass) is factorized by LDL^T
    and solved by :func:`helmqo.sparsela.solve` to a relative residual
    <= 1e-10, else :class:`ResonanceError`.  A factor with a zero pivot,
    or one SuperLU had to pivot off the diagonal, is first recounted:
    :func:`count_from_factor` either proves that no discrete eigenvalue
    lies within 1e-8 of k^2 (relative), and ``solve`` then uses
    partial-pivoting LU where the factor cannot meet the bound, or raises
    :class:`ResonanceError`.
    """
    if spec.rhs is None:
        raise ValueError("problem has no right-hand side")
    return _solve(spec, build_space(mesh, spec.family))[0]


def _solve(spec: ProblemSpec, space: DofSpace,
           below: int | None = None) -> tuple[FeFunction, int]:
    """The solution and the number of discrete eigenvalues below k^2:
    ``below`` when the caller has proved it, else read from the solve's
    factor by Sylvester's law of inertia.  A count that is read comes
    first, so a resonant k^2 fails with the recount's message.  Its
    callers have checked that ``spec`` has a right-hand side."""
    if space.n_free == 0:
        raise ValueError("space has no free degrees of freedom")
    A, M = space.pencil
    b = assemble_load(space, spec.rhs)
    F = ldlt(A, spec.k2, M)
    if below is None:
        below = count_from_factor(F)
    return FeFunction(space, solve(F, b)), below


# -- unit-square spectrum oracle -------------------------------------------

def _square_eigenvalues(top: int) -> np.ndarray:
    """The (top, top) grid pi^2 (i^2 + j^2), i, j = 1..top, of unit-square
    Dirichlet Laplace eigenvalues."""
    idx = np.arange(1, top + 1)
    return np.pi ** 2 * (idx[:, None] ** 2 + idx[None, :] ** 2)


def unit_square_spectrum(count: int) -> np.ndarray:
    """First ``count`` Dirichlet Laplace eigenvalues pi^2 (i^2 + j^2) of the
    unit square, sorted ascending with multiplicities."""
    # no pair with i or j past sqrt(2 count) + 2 is among the count smallest
    top = math.isqrt(2 * count) + 2
    return np.sort(_square_eigenvalues(top), axis=None)[:count]


def unit_square_index(k2: float) -> int:
    """Number of unit-square Dirichlet eigenvalues strictly below k^2,
    counted one grid row at a time, so memory grows like sqrt(k^2)."""
    if k2 <= 0:
        return 0
    top = int(math.sqrt(k2) / math.pi) + 1
    j2 = np.arange(1, top + 1) ** 2
    return sum(int((np.pi ** 2 * (i * i + j2) < k2).sum())
               for i in range(1, top + 1))


# -- spectral reference on the unit square ----------------------------------

def sine_series_reference(f: Rhs, k2: float):
    """Reference Helmholtz solution on the all-Dirichlet unit square.

    Expands f in the normalized sine basis and divides each coefficient by
    (lambda_ij - k^2); a k^2 within ``SINE_RESONANCE_RTOL`` (relative, or
    absolute below 1) of some lambda_ij raises :class:`ResonanceError`.
    The truncation is grown from 32 modes in steps of 16 until the sampled
    solution is stable to ``SINE_STABILITY_RTOL``.
    """
    N = 32
    xs = np.linspace(0.0, 1.0, 33)
    X, Y = np.meshgrid(xs, xs)
    probe = None
    while True:
        C = _sine_coefficients(f, k2, N)
        u = _sine_sum(C)
        vals = u(X, Y)
        if probe is not None:
            scale = max(1.0, abs(vals).max())
            if abs(vals - probe).max() <= SINE_STABILITY_RTOL * scale:
                break
        if N >= 512:
            raise ValueError("sine series did not stabilize; data too "
                             "rough for a spectral reference")
        probe = vals
        N += 16
    return u


def _sine_coefficients(f: Rhs, k2: float, N: int) -> np.ndarray:
    lam = _square_eigenvalues(N)
    if abs(lam - k2).min() <= SINE_RESONANCE_RTOL * max(k2, 1.0):
        raise ResonanceError(f"k^2 = {k2!r} coincides with a unit-square "
                             "eigenvalue")
    x, w = edge_rule(2 * max(2 * N, 128) - 1)
    F = point_values(f, *np.meshgrid(x, x, indexing="ij"))
    S = np.sin(np.pi * np.outer(np.arange(1, N + 1), x)) * w  # (N, q)
    fij = 2.0 * (S @ F @ S.T)
    return fij / (lam - k2)


# doubles per (points x modes) block of a sine-series evaluation
_SINE_BLOCK = 250_000


def _sine_sum(C: np.ndarray):
    """Callable evaluating sum C_ij 2 sin(i pi x) sin(j pi y) pointwise.

    Points are evaluated in blocks of at most ``_SINE_BLOCK // N`` so the
    working set does not grow with the number of points.
    """
    N = C.shape[0]
    idx = np.arange(1, N + 1)

    def u(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        shape = np.broadcast(x, y).shape
        xf = np.broadcast_to(x, shape).ravel()
        yf = np.broadcast_to(y, shape).ravel()
        vals = np.empty(xf.size)
        # blocks of equal size within one point: a one-point block would
        # take a matrix-vector product, which sums in another order
        nblocks = -(-xf.size // max(1, _SINE_BLOCK // max(N, 1)))
        for k in range(nblocks):
            sl = slice(k * xf.size // nblocks, (k + 1) * xf.size // nblocks)
            Sx = np.sin(np.pi * np.outer(xf[sl], idx))
            Sy = np.sin(np.pi * np.outer(yf[sl], idx))
            vals[sl] = 2.0 * ((Sx @ C) * Sy).sum(axis=1)
        return vals.reshape(shape)

    return u


# -- certification report ----------------------------------------------------

@dataclass
class IterationRecord:
    """One ESTIMATE evaluation of the refinement loop.

    ``index`` is i* (externally supplied) or the estimated j*.  ``condition``
    is k^2 - lambda_h at that index (positive once the lower comparison
    holds).  ``certified`` means the criterion held, plus index
    certification in guaranteed-bounds mode.
    """

    ndof: int
    h: float
    index: int | None
    lambda_lo: float | None
    lambda_hi: float | None
    condition: float | None
    enclosure: float | None
    certified: bool
    eta_total: float | None = None


@dataclass
class CertificationReport:
    iterations: list[IterationRecord] = field(default_factory=list)
    final_mesh: Mesh | None = None
    termination: str = "budget"
    warnings: list[str] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return bool(self.iterations) and self.iterations[-1].certified

    def to_csv(self) -> str:
        return csv_text(
            "iter,ndof,h,i_star,lambda_lo,lambda_hi,condition,enclosure,"
            "certified,eta_total",
            ((it, rec.ndof, rec.h, rec.index, rec.lambda_lo, rec.lambda_hi,
              rec.condition, rec.enclosure,
              "true" if rec.certified else "false", rec.eta_total)
             for it, rec in enumerate(self.iterations)))


def csv_text(header: str, rows: Iterable[Sequence]) -> str:
    """``header`` and one line per row, each cell written by :func:`_fmt`
    or, if a string, as given."""
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    """A CSV cell: shortest round-trip decimals, None and NaN empty."""
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if math.isnan(v):
        return ""
    return repr(v)


# -- the refinement loop ------------------------------------------------------

def run_gmr(spec: ProblemSpec, initial_mesh: Mesh,
            refine_mode: str = "uniform", i_star: int | None = None,
            max_iters: int = 20, seed: int = 0) -> CertificationReport:
    """Refine until the eigenvalue ladder brackets the wave number.

    Parameters
    ----------
    refine_mode : "uniform" (red refinement) or "adaptive" (bisection of
        the elements that half-max marking picks on the residual
        indicator, averaged over i* + ``estimator.INDICATOR_EXTRA_PAIRS``
        pairs).
    i_star : the pivotal index, known from a modal analysis, or ``None``
        to estimate and certify it from guaranteed Crouzeix-Raviart
        bounds (requires a CR family).
    seed : the eigensolver's start vector seed.

    Each mesh takes one :func:`_estimate` step.  The loop estimates first
    (so an adequate initial mesh terminates immediately) and stops when
    the criterion holds -- with ``i_star=None``, additionally when the
    index estimate is certified.  Exhausting ``max_iters`` leaves a report
    with ``termination == "budget"``.
    """
    if refine_mode not in ("uniform", "adaptive"):
        raise ValueError(f"unknown refine mode {refine_mode!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if i_star is None and spec.family != CR:
        raise ValueError("guaranteed index estimation requires the "
                         "Crouzeix-Raviart family")
    if i_star is not None and i_star < 0:
        raise ValueError(f"i_star must be >= 0, got {i_star}")

    report = CertificationReport()
    mesh = initial_mesh
    while len(report.iterations) < max_iters:
        space = build_space(mesh, spec.family)
        rec, E, bounds = _estimate(space, spec.k2, i_star, seed, report)
        report.iterations.append(rec)
        if rec.certified:
            report.termination = ("certified" if i_star is None
                                  else "satisfied")
            break
        if len(report.iterations) >= max_iters:
            break
        index = rec.index
        if (refine_mode == "uniform" or E is None or not index
                or len(E.values) < index + INDICATOR_EXTRA_PAIRS):
            # adaptive marking needs an indicator, which needs at least one
            # eigenvalue below k^2 and a long enough ladder
            mesh = refine_uniform(mesh)
        else:
            eta = residual_indicator(space, E, index)
            rec.eta_total = float(eta.values.sum())
            marked = mark_half_max(eta)
            if bounds is not None:
                marked = np.union1d(marked, _certification_blockers(
                    mesh, bounds, spec.k2))
            mesh = (refine_bisection(mesh, marked) if len(marked)
                    else refine_uniform(mesh))
        # no step on the next mesh reads this mesh's pencil, ladder or
        # indicator: free them before its factorizations and eigensolve
        space = E = bounds = eta = None
    report.final_mesh = mesh
    return report


def _certification_blockers(mesh: Mesh, bounds: list[BoundedEigen],
                            k2: float) -> np.ndarray:
    """Ascending ids of the elements at whose diameter, as the mesh size,
    the ladder would not certify i = #{lambda_h < k^2}
    (:func:`cr_certifies`)."""
    i = sum(b.lam < k2 for b in bounds)
    return np.flatnonzero(~cr_certifies(bounds, k2, i, mesh.diameters))


def _estimate(space: DofSpace, k2: float, i_star: int | None, seed: int,
              report: CertificationReport):
    """One ESTIMATE on ``space``; returns (record, ladder, bounds).

    The index is ``i_star`` or, when it is ``None``, the estimate j*: Liu's
    lower bound is increasing in lambda and reaches k^2 at lam_need, so j*
    is the inertia count there.  The ladder holds
    max(#{lambda_h < k^2}, index) + INDICATOR_EXTRA_PAIRS + 1 pairs and
    must agree with every inertia count taken, else
    :class:`EigenSolveError`.  A given index is certified when the
    criterion holds; j* when, besides, the CR ladder certifies it at h
    (:func:`cr_certifies`).  A space that cannot bracket k^2 gives a
    record with no ladder, and (record, None, None)."""
    h = space.mesh.h
    no_ladder = (IterationRecord(space.n_free, h, i_star, None, None, None,
                                 None, False), None, None)
    counts = {}
    if i_star is None:
        # unless the lower bound can reach 1.01 k^2 at this h, no ladder
        # length clears k^2 and the mesh must be refined first
        if cr_bound_preimage(k2 * 1.01, h) == np.inf:
            return no_ladder
        lam_need = cr_bound_preimage(k2, h)
        index = counts[lam_need] = count_below(*space.pencil, lam_need)
    elif space.n_free < i_star + 1:
        # the space cannot hold enough eigenpairs to bracket k^2
        return no_ladder
    else:
        index = i_star
    below = counts[k2] = count_below(*space.pencil, k2)
    # INDICATOR_EXTRA_PAIRS more pairs for the averaged indicator, plus one
    # for the criterion check
    E = eigen_ladder(space, max(below, index) + INDICATOR_EXTRA_PAIRS + 1,
                     counts, seed)
    bounds = width = None
    if i_star is None:
        bounds = compute_bounds(space, E)
        for j, b in enumerate(bounds, start=1):
            if (b.lower <= k2 <= b.upper
                    and b.upper - b.lower <= RESONANCE_ENCLOSURE_RTOL * k2):
                raise ResonanceError(
                    f"k^2 = {k2!r} lies in the certified enclosure "
                    f"[{b.lower!r}, {b.upper!r}] of eigenvalue {j}; the "
                    "problem is resonant")
        # a space with no eigenvalue past lam_need gives no estimate; the
        # floating-point lower bound at j* + 1 must clear k^2 too
        if len(bounds) <= index or bounds[index].lower < k2:
            return no_ladder
        width = (bounds[index - 1].upper - bounds[index - 1].lower
                 if index else 0.0)
    crit = check_criterion(E, k2, index)
    certified = crit.satisfied and (bounds is None
                                    or cr_certifies(bounds, k2, index, h))
    if crit.satisfied and crit.alpha_star < ALPHA_WARN_THRESHOLD:
        report.warnings.append(
            f"iteration {len(report.iterations)}: coercivity constant "
            f"{crit.alpha_star:.2e} is tiny; k^2 is nearly resonant")
    return (IterationRecord(space.n_free, h, index, crit.lambda_lo,
                            crit.lambda_hi, k2 - crit.lambda_lo, width,
                            certified), E, bounds)


# -- convergence studies ------------------------------------------------------

@dataclass
class StudyRecord:
    h: float
    ndof: int
    error: float
    ev_i: float      # lambda_h at i* (0 when i* = 0), NaN past n_free
    ev_ipo: float    # lambda_h one past i*, NaN past n_free


def study_to_csv(records: Sequence[StudyRecord]) -> str:
    return csv_text("h,ndof,error,EV_i,EV_ipo",
                    ((r.h, r.ndof, r.error, r.ev_i, r.ev_ipo)
                     for r in records))


def convergence_study(spec: ProblemSpec, initial_mesh: Mesh,
                      refinements: int, i_star: int | None = None,
                      seed: int = 0) -> list[StudyRecord]:
    """Solve on a family of uniform refinements and record errors/ladders.

    Produces one record per mesh (``refinements`` meshes, ``initial_mesh``
    included).  On any all-Dirichlet unit-square mesh, however it was made
    (:func:`dirichlet_unit_square`), the error reference is the spectral
    sine series and the pivotal index comes from the exact spectrum; on
    other meshes the reference is a P1 solution two uniform refinements
    past the finest mesh (``spec`` with ``family=P1``), and the index is
    the inertia count of the finest mesh's solve.

    Each mesh's count below k^2, which its ladder is checked against, is
    read from the pivots of its solve's factor until one mesh's count
    equals the one :func:`_kept_count` says every finer mesh keeps; the
    finer meshes take that count as proved and factor A - k^2 M only to
    solve.  The meshes are refined one at a time, so a coarser mesh and
    its pencil are freed before the next one is solved on; off the unit
    square the finest mesh is built (keeping none between) and solved on
    first, and its record put last.
    """
    if refinements < 1:
        raise ValueError("refinements must be >= 1")
    if i_star is not None and i_star < 0:
        raise ValueError(f"i_star must be >= 0, got {i_star}")
    if spec.rhs is None:
        raise ValueError("problem has no right-hand side")
    last = []
    kept = None
    if dirichlet_unit_square(initial_mesh):
        if i_star is None:
            i_star = unit_square_index(spec.k2)
        reference = sine_series_reference(spec.rhs, spec.k2)
        kept = _kept_count(spec)
    else:
        finest = initial_mesh
        for _ in range(refinements - 1):
            finest = refine_uniform(finest)
        reference = solve_helmholtz(
            replace(spec, family=P1), refine_uniform(refine_uniform(finest)))
        record, below = _study_record(spec, finest, reference, i_star, seed)
        if i_star is None:
            i_star = below
        last = [record]

    records = []
    mesh = initial_mesh
    proved = None   # the count below k^2 of this mesh and every finer one
    for level in range(refinements - len(last)):
        if level:
            mesh = refine_uniform(mesh)
        record, below = _study_record(spec, mesh, reference, i_star, seed,
                                      proved)
        records.append(record)
        if below == kept:
            proved = below
    return records + last


def _kept_count(spec: ProblemSpec) -> int | None:
    """The count below k^2 that a uniform-refinement study on the
    all-Dirichlet unit square keeps on every finer mesh once one mesh
    reaches it: ``unit_square_index(k^2)`` for the conforming families
    (P1, P2), None for CR, whose eigenvalues are no upper bounds.

    A conforming space's eigenvalues bound the exact ones from above,
    lambda_h^(j) >= lambda^(j), and by Courant-Fischer fall under uniform
    refinement, whose spaces are nested.  So a mesh's count #{lambda_h^(j)
    < k^2} is at most i* = #{lambda^(j) < k^2} and never falls from a mesh
    to its refinement: once it equals i*, every finer mesh's count is i*.
    The sine-series reference, built first, has checked that k^2 lies at
    least ``SINE_RESONANCE_RTOL`` from the exact spectrum; that margin
    keeps lambda_h^(i*+1) >= lambda^(i*+1) off k^2 on those meshes, so
    their A - k^2 M is not near singular and solves by its LDL^T."""
    return None if spec.family == CR else unit_square_index(spec.k2)


def _study_record(spec: ProblemSpec, mesh: Mesh, reference,
                  i_star: int | None, seed: int,
                  below: int | None = None) -> tuple[StudyRecord, int]:
    """One mesh's row of :func:`convergence_study` and its count below
    k^2: ``below`` where the study has proved it, else read from the
    solve's factor.  i* defaults to the count; the mesh's space, solution
    and ladder are freed."""
    space = build_space(mesh, spec.family)
    # an unproved count is read from the solve's factorization, so the
    # ladder needs no second LDL^T; a proved one reads no pivots
    u, below = _solve(spec, space, below)
    if i_star is None:
        i_star = below
    # the ladder factors A + M before l2_error runs: glibc may keep the
    # heap that l2_error frees, and the factor would stack on it
    E = eigen_ladder(space, max(below + STUDY_EXTRA_PAIRS + 1, i_star + 1),
                     {spec.k2: below}, seed)
    err = l2_error(u, reference)

    def value(j):   # the ladder stops at n_free: no value past it
        return float(E.values[j - 1]) if j <= len(E.values) else math.nan
    return StudyRecord(mesh.h, space.n_free, err,
                       value(i_star) if i_star else 0.0,
                       value(i_star + 1)), below
