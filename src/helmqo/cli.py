"""Command-line interface: mesh generation, eigen analysis, certification
runs and convergence studies.

Exit codes: 0 success, 2 argument errors, 3 file errors, 4 eigensolver
failure (also an ``eig`` ladder that an inertia count proves incomplete),
5 refinement budget exhausted (partial CSV is still written), 6 resonant
wave number.  ``--seed`` (default 0) is the only source of
randomness: it seeds the eigensolver's start vector and jitters
``unit-square-unstructured`` meshes.  All numeric output uses shortest
round-trip decimals, so identical invocations produce byte-identical
files at a fixed BLAS thread count: BLAS sums in an order that depends on
its threads, so the last digits can move with the count.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from .mesh import (BoundaryTag, Mesh, MeshError, build_square_with_hole,
                   build_unit_square, build_unit_square_unstructured,
                   read_mesh, write_mesh)
from .spaces import CR, ElementFamily, build_space
from .sparsela import EigenSolveError, ResonanceError, eigs_smallest
from .spectral import check_complete, compute_bounds
from .certify import (GaussianBump, ProblemSpec, SineProduct,
                      convergence_study, csv_text, dirichlet_unit_square,
                      run_gmr, study_to_csv)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_EIGEN = 4
EXIT_BUDGET = 5
EXIT_RESONANCE = 6


class UsageError(ValueError):
    pass


def _resolve_family(args) -> ElementFamily:
    fam = ElementFamily(args.family)
    if args.p is not None:
        if fam == CR:
            raise UsageError("--p applies to the conforming family only")
        fam = ElementFamily(f"p{args.p}")
    return fam


def _square_hole(a) -> Mesh:
    return build_square_with_hole(
        a.outer, a.inner, a.n, BoundaryTag[(a.outer_tag or a.tag).upper()],
        BoundaryTag[(a.inner_tag or a.tag).upper()])


# each --geometry name and its builder, called on the parsed flags
_GEOMETRIES = {
    "unit-square": lambda a: build_unit_square(a.n,
                                               BoundaryTag[a.tag.upper()]),
    "unit-square-unstructured": lambda a: build_unit_square_unstructured(
        a.n, a.seed, tags=BoundaryTag[a.tag.upper()]),
    "square-hole": _square_hole,
}
# the built-in geometries' flags and their values when omitted
_GEOMETRY_FLAGS = {"n": 8, "tag": "dirichlet", "outer": 1.0, "inner": 0.5,
                   "outer_tag": None, "inner_tag": None}


def _sine_modes(text: str) -> tuple[tuple[int, int, float], ...]:
    modes = []
    for part in text.split(";"):
        bits = part.split(",")
        if len(bits) != 3:
            raise UsageError("--rhs-modes expects 'i,j,coef;i,j,coef;…'")
        modes.append((int(bits[0]), int(bits[1]), float(bits[2])))
    return tuple(modes)


# each --rhs name and its constructor, called on the parsed flags; the
# first is the default
_RHS = {
    "sine-product": lambda a: SineProduct(_sine_modes(a.rhs_modes)),
    "gaussian-bump": lambda a: GaussianBump(a.rhs_amplitude, a.rhs_width,
                                            tuple(a.rhs_center)),
}
# the --rhs-* flags: the --rhs that reads each, and its value when omitted
_RHS_FLAGS = {"rhs_modes": ("sine-product", "3,4,1;4,3,1"),
              "rhs_amplitude": ("gaussian-bump", 5e4),
              "rhs_width": ("gaussian-bump", 40.0),
              "rhs_center": ("gaussian-bump", (0.6, 0.7))}


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _mesh(args, path: str | None, path_flag: str = "--mesh") -> Mesh:
    """The one mesh the flags give: read from ``path``, the file that
    ``path_flag`` names, or built by ``--geometry``.  A geometry flag that
    the mesh's source would not read is a usage error."""
    if path and args.geometry:
        raise UsageError(f"give {path_flag} or --geometry, not both")
    given = {name for name in _GEOMETRY_FLAGS
             if getattr(args, name) is not None}
    if (given - {"n", "tag"}
            and _GEOMETRIES.get(args.geometry) is not _square_hole):
        raise UsageError("--outer, --inner, --outer-tag and --inner-tag "
                         "apply to --geometry square-hole only")
    if {"tag", "outer_tag", "inner_tag"} <= given:
        raise UsageError("--tag applies to no boundary when --outer-tag and "
                         "--inner-tag are both given")
    if path:
        if given:
            raise UsageError(f"--n and --tag apply to --geometry, not to "
                             f"{path_flag}")
        with open(path, encoding="utf-8") as fh:
            return read_mesh(fh.read())
    if args.geometry is None:
        raise UsageError(f"either {path_flag} or --geometry is required")
    vars(args).update({name: value for name, value in _GEOMETRY_FLAGS.items()
                       if name not in given})
    return _GEOMETRIES[args.geometry](args)


def _rhs(args):
    """The right-hand side the flags give.  A --rhs-* flag that the chosen
    --rhs would not read is a usage error."""
    for name, (kind, value) in _RHS_FLAGS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
        elif kind != args.rhs:
            raise UsageError(f"--{name.replace('_', '-')} applies to --rhs "
                             f"{kind} only")
    return _RHS[args.rhs](args)


def _check_bump_center(rhs, mesh) -> None:
    """Reject a gaussian bump centred off the mesh (outside it or in a
    hole): far from its centre the load underflows to numerically zero
    data."""
    if not isinstance(rhs, GaussianBump):
        return
    center = np.array(rhs.center, dtype=np.float64)
    lam = mesh.barycentric(slice(None), center[None, None, :])
    if not (lam >= -1e-12).all(axis=-1).any():
        x, y = rhs.center
        raise UsageError(f"--rhs-center {x!r} {y!r} lies in no triangle of "
                         "the mesh")


def _add_geometry_args(p: argparse.ArgumentParser, with_mesh: bool = True):
    tags = [t.name.lower() for t in BoundaryTag]
    if with_mesh:
        p.add_argument("--mesh", metavar="FILE",
                       help="read the mesh from FILE instead of building one")
    p.add_argument("--geometry", choices=list(_GEOMETRIES),
                   help="built-in geometry to mesh")
    p.add_argument("--n", type=int,
                   help="resolution (cells per side) of built-in geometries")
    p.add_argument("--outer", type=float,
                   help="outer side length (square-hole)")
    p.add_argument("--inner", type=float,
                   help="inner hole side length (square-hole)")
    p.add_argument("--tag", choices=tags,
                   help="boundary tag for all boundary edges")
    p.add_argument("--outer-tag", choices=tags,
                   help="tag for the outer boundary (square-hole)")
    p.add_argument("--inner-tag", choices=tags,
                   help="tag for the hole boundary (square-hole)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="helmqo", allow_abbrev=False,
        description="Finite element toolkit that refines meshes until the "
                    "Helmholtz discretization is certifiably stable "
                    "(wave number bracketed by consecutive discrete "
                    "Laplace eigenvalues).")
    top.add_argument("--seed", type=int, default=0,
                     help="random seed (default: 0)")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=partial(argparse.ArgumentParser,
                                                  allow_abbrev=False))
    families = [str(f) for f in ElementFamily]

    pm = sub.add_parser("mesh", help="generate or validate a mesh file")
    _add_geometry_args(pm, with_mesh=False)
    pm.add_argument("--validate", metavar="FILE",
                    help="parse and validate FILE instead of generating")
    pm.add_argument("-o", "--output", metavar="FILE",
                    help="write the generated mesh to FILE")

    pe = sub.add_parser("eig", help="compute the smallest Laplace "
                                    "eigenvalues (with CR bounds)")
    _add_geometry_args(pe)
    pe.add_argument("--family", required=True, choices=families,
                    help="element family")
    pe.add_argument("--m", type=int, required=True,
                    help="number of eigenpairs (>= 1)")
    pe.add_argument("-o", "--output", metavar="FILE",
                    help="write CSV (index,lambda,lower,upper) to FILE")

    pc = sub.add_parser("certify", help="refine until the stability "
                                        "criterion holds (certified mesh)")
    _add_geometry_args(pc)
    pc.add_argument("--k2", type=float, required=True, help="wave number "
                    "squared")
    pc.add_argument("--family", required=True, choices=families)
    pc.add_argument("--p", type=int, choices=[1, 2],
                    help="conforming polynomial order override")
    pc.add_argument("--refine", choices=["uniform", "adaptive"],
                    default="uniform", help="refinement strategy")
    pc.add_argument("--estimate", choices=["oracle", "cr"], default="oracle",
                    help="pivotal index source: externally known (oracle) "
                         "or guaranteed CR bounds")
    pc.add_argument("--istar", type=int,
                    help="pivotal index for --estimate oracle")
    pc.add_argument("--max-iters", type=int, default=20)
    pc.add_argument("-o", "--output", metavar="FILE",
                    help="write the certification CSV to FILE")
    pc.add_argument("--mesh-out", metavar="FILE",
                    help="write the final mesh to FILE")

    ps = sub.add_parser("study", help="uniform-refinement convergence study")
    _add_geometry_args(ps)
    ps.add_argument("--k2", type=float, required=True)
    ps.add_argument("--family", required=True, choices=families)
    ps.add_argument("--p", type=int, choices=[1, 2],
                    help="conforming polynomial order override")
    ps.add_argument("--refinements", type=int, required=True,
                    help="number of meshes in the uniform family")
    ps.add_argument("--istar", type=int,
                    help="pivotal index (default: exact enumeration on the "
                         "square, inertia count elsewhere)")
    ps.add_argument("--rhs", choices=list(_RHS), default=next(iter(_RHS)),
                    help="right-hand side data")
    ps.add_argument("--rhs-modes", help="sine-product modes as 'i,j,coef;…'")
    ps.add_argument("--rhs-amplitude", type=float,
                    help="gaussian-bump amplitude")
    ps.add_argument("--rhs-width", type=float,
                    help="gaussian-bump inverse width")
    ps.add_argument("--rhs-center", type=float, nargs=2, metavar=("X", "Y"),
                    help="gaussian-bump center")
    ps.add_argument("-o", "--output", metavar="FILE",
                    help="write the study CSV to FILE")
    return top


def cmd_mesh(args) -> int:
    if args.validate and args.output:
        raise UsageError("give -o or --validate, not both")
    mesh = _mesh(args, args.validate, "--validate")
    if args.validate:
        print(f"{args.validate}: valid mesh with {mesh.n_vertices} vertices, "
              f"{mesh.n_triangles} triangles, "
              f"{len(mesh.boundary_edge_ids)} boundary edges")
        return EXIT_OK
    text = write_mesh(mesh)
    if args.output:
        _write(args.output, text)
        print(f"wrote {args.output}: {mesh.n_vertices} vertices, "
              f"{mesh.n_triangles} triangles, h = {mesh.h!r}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_eig(args) -> int:
    if args.m < 1:
        raise UsageError("--m must be >= 1")
    family = ElementFamily(args.family)
    space = build_space(_mesh(args, args.mesh), family)
    E = eigs_smallest(*space.pencil, args.m, args.seed)
    lower = upper = [None] * args.m
    if family == CR:
        bounds = compute_bounds(space, E)
        lower = [b.lower for b in bounds]
        upper = [b.upper for b in bounds]
    values = E.values
    del E   # the eigenvectors are freed before the count's factor is made
    check_complete(space, values)
    csv = csv_text("index,lambda,lower,upper",
                   zip(range(1, args.m + 1), values, lower, upper))
    if args.output:
        _write(args.output, csv)
        print(f"wrote {args.output} ({args.m} eigenpairs, "
              f"ndof = {space.n_free})")
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def cmd_certify(args) -> int:
    family = _resolve_family(args)
    if args.estimate == "oracle":
        if args.istar is None:
            raise UsageError("--estimate oracle requires --istar")
    else:
        if args.istar is not None:
            raise UsageError("--istar applies to --estimate oracle only")
        if family != CR:
            raise UsageError("--estimate cr requires --family cr")
    spec = ProblemSpec(family, args.k2)
    report = run_gmr(spec, _mesh(args, args.mesh), refine_mode=args.refine,
                     i_star=args.istar, max_iters=args.max_iters,
                     seed=args.seed)
    if args.output:
        _write(args.output, report.to_csv())
    if args.mesh_out and report.final_mesh is not None:
        _write(args.mesh_out, write_mesh(report.final_mesh))
    last = report.iterations[-1]
    print(f"{report.termination}: {len(report.iterations)} iterations, "
          f"final ndof = {last.ndof}, h = {last.h!r}")
    for w in report.warnings:
        print(f"warning: {w}")
    return EXIT_OK if report.certified else EXIT_BUDGET


def cmd_study(args) -> int:
    if args.refinements < 1:
        raise UsageError("--refinements must be >= 1")
    spec = ProblemSpec(_resolve_family(args), args.k2, rhs=_rhs(args))
    mesh = _mesh(args, args.mesh)
    _check_bump_center(spec.rhs, mesh)
    records = convergence_study(spec, mesh, args.refinements,
                                i_star=args.istar, seed=args.seed)
    csv = study_to_csv(records)
    if args.output:
        _write(args.output, csv)
        ref_note = ("spectral sine series" if dirichlet_unit_square(mesh)
                    else "conforming solution on two extra refinements")
        print(f"wrote {args.output} ({len(records)} meshes, "
              f"error reference: {ref_note})")
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        handler = {"mesh": cmd_mesh, "eig": cmd_eig,
                   "certify": cmd_certify, "study": cmd_study}[args.command]
        return handler(args)
    except (MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except ValueError as exc:
        # UsageError and validation errors from the library layers
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResonanceError as exc:
        print(f"error: resonance: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except EigenSolveError as exc:
        print(f"error: eigensolver: {exc}", file=sys.stderr)
        return EXIT_EIGEN


if __name__ == "__main__":
    sys.exit(main())
