"""The public surface stays in use: every public function and class of every
helmqo module, and every public method, property, field and instance
attribute of its classes, is referenced by code outside the tests, and
every module-level constant is loaded there, so nothing lives on for its
tests alone; every exception ``helmqo`` re-exports is raised in the
package.  What two helmqo modules share is public: none imports
another's underscore name.  One function, ``spectral._check_counts``,
checks a ladder against LDL^T inertia counts.
The full-dof numbering (``free_dofs``, ``cell_dofs``, ``cell_free``) is
``spaces.py``'s own, Liu's ``KAPPA`` is ``spectral.py``'s, and the
``--geometry`` and ``--rhs`` names are ``cli.py``'s own.  Every parameter
with a default is passed by some call outside the tests.  Importing the
command line does not load ``scipy.special``, building its meshes loads
neither it nor ``scipy.spatial``, and ``helmqo`` imports no SciPy module
but its linear algebra and sparse ones."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import cli_choices

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "helmqo"

# public class members that need no reader there
UNREAD_ALLOWED = {
    "MeshFormatError.line",    # the line number for callers that catch it
}


def reexported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names(path: Path) -> set[str]:
    """Names read in ``path``: loads, attribute reads and imports, but not
    the names its own definitions bind."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def modules() -> list[Path]:
    """The package's modules, ``__init__`` left out."""
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def callers() -> list[Path]:
    files = modules()
    for folder in ("demos", "perfbench"):
        files += (ROOT / folder).glob("*.py")
    return files


def test_every_reexport_has_a_caller_outside_tests():
    exported = reexported_names()
    used = set().union(*(referenced_names(p) for p in callers()))
    unused = exported - used
    assert not unused, (f"re-exported but referenced only by tests: "
                        f"{sorted(unused)}")


def test_every_module_function_and_class_has_a_caller_outside_tests():
    used = set().union(*(referenced_names(p) for p in callers()))
    defined = {f"{path.stem}.{node.name}": node.name for path in modules()
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    unused = sorted(qual for qual, name in defined.items()
                    if name not in used)
    assert not unused, f"defined but referenced only by tests: {unused}"


def loaded_names(path: Path) -> set[str]:
    """Names ``path`` loads, bare or as an attribute; an import or an
    assignment alone loads nothing."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_constant_is_loaded_outside_tests():
    # a module-level UPPER_CASE name, with or without a leading underscore,
    # that only tests read is a setting the program no longer has
    loaded = set().union(*(loaded_names(p) for p in callers()))
    defined = {f"{path.stem}.{target.id}": target.id for path in modules()
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in ast.walk(node)
               if isinstance(target, ast.Name)
               and isinstance(target.ctx, ast.Store)
               and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)}
    assert len(defined) > 30
    unloaded = sorted(qual for qual, name in defined.items()
                      if name not in loaded)
    assert not unloaded, f"constants loaded only by tests: {unloaded}"


def class_members(cls: ast.ClassDef) -> set[str]:
    """Public methods, properties, annotated fields and ``self.`` attributes
    of ``cls``."""
    members = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            members.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            members.add(node.target.id)
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            members.add(node.attr)
    return {name for name in members if not name.startswith("_")}


def attributes_read(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_class_member_is_read_outside_tests():
    read = set().union(*(attributes_read(p) for p in callers()))
    unread = {f"{node.name}.{member}" for path in modules()
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef)
              for member in class_members(node) if member not in read}
    assert UNREAD_ALLOWED <= unread
    unread = sorted(unread - UNREAD_ALLOWED)
    assert not unread, f"class members read only by tests: {unread}"


def raised_names() -> set[str]:
    """Names of the exceptions the package raises, as ``raise E(...)`` or
    ``raise E``."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_reexported_exception_is_raised():
    helmqo = importlib.import_module("helmqo")
    exceptions = {name for name in reexported_names()
                  if isinstance(getattr(helmqo, name), type)
                  and issubclass(getattr(helmqo, name), BaseException)}
    assert exceptions, "helmqo re-exports no exception class"
    never = exceptions - raised_names()
    assert not never, f"re-exported but never raised: {sorted(never)}"


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("helmqo")):
                private += [f"{path.name}: {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert not private, f"underscore names imported across modules: {private}"


def raises_text(fn: ast.AST, text: str) -> bool:
    """Whether ``fn`` raises an exception whose message spells ``text``."""
    return any(isinstance(node, ast.Raise) and text in "".join(
        c.value for c in ast.walk(node)
        if isinstance(c, ast.Constant) and isinstance(c.value, str))
        for node in ast.walk(fn))


def test_one_function_checks_a_ladder_against_inertia():
    # the ladder-versus-inertia rule lives in one function: eigen_ladder
    # hands it the counts its caller reads the ladder at, check_complete
    # its count at the ladder's last value
    checkers = sorted(f"{path.stem}.{node.name}" for path in modules()
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.FunctionDef)
                      and raises_text(node, "inertia counts"))
    assert checkers == ["spectral._check_counts"]


def test_only_spaces_reads_the_full_dof_numbering():
    # other modules read free coefficients per triangle through
    # DofSpace.cell_values, so the numbering of all dofs and the Dirichlet
    # constraint can change in spaces.py alone
    readers = sorted(f"{path.relative_to(ROOT)}: {node.attr}"
                     for path in callers() if path.name != "spaces.py"
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute)
                     and node.attr in {"free_dofs", "cell_dofs",
                                       "cell_free"})
    assert not readers, f"full-dof numbering read outside spaces.py: " \
        f"{readers}"


def test_only_spectral_spells_kappa():
    # the CR bound's algebra (the bound, its preimage and the certification
    # rule) lives in spectral.py, so replacing the bound changes one module
    spellers = sorted(path.name for path in modules()
                      if path.name != "spectral.py"
                      and "KAPPA" in path.read_text())
    assert not spellers, f"KAPPA spelled outside spectral.py: {spellers}"


def public_functions(path: Path):
    """``(qualified name, called as, definition, bound)`` for every public
    function of ``path`` and every public method and constructor of its
    public classes; ``bound`` counts the leading ``self`` or ``cls``."""
    for node in ast.parse(path.read_text()).body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (
                        fn.name == "__init__" or not fn.name.startswith("_")):
                    yield (f"{node.name}.{fn.name}",
                           node.name if fn.name == "__init__" else fn.name,
                           fn, 1)


def defaulted_parameters(path: Path):
    """``(qualified name, called as, parameter, position)`` for every
    parameter with a default of :func:`public_functions`; the position
    leaves out ``self`` and ``cls`` and is None for a keyword-only
    parameter."""
    for qual, called, fn, bound in public_functions(path):
        args = fn.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults),
                       len(positional)):
            yield (f"{path.stem}.{qual}", called, positional[i].arg,
                   i - bound)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{path.stem}.{qual}", called, arg.arg, None


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether ``call`` may pass ``parameter``, by keyword or, at
    ``position``, by position; ``*args`` and ``**kwargs`` may pass any."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or position < len(call.args))


def test_every_defaulted_parameter_is_passed_outside_tests():
    # a keyword that only tests set is a setting the program never uses
    calls = {}
    for path in callers():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) \
                    or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = sorted(f"{qual}({parameter})" for path in modules()
                      for qual, called, parameter, position
                      in defaulted_parameters(path)
                      if not any(passes(call, parameter, position)
                                 for call in calls.get(called, [])))
    assert not unpassed, f"parameters passed only by tests: {unpassed}"


def string_literals(path: Path) -> set[str]:
    """The string constants in ``path``, docstrings left out."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and isinstance(node.body[0], ast.Expr)}
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings}


def test_only_cli_spells_geometry_and_rhs_names():
    # the CLI maps each name to its builder in one table; a second
    # dispatcher on the names would have to be kept in step with it
    names = set(cli_choices("--geometry") + cli_choices("--rhs"))
    assert names <= string_literals(PACKAGE / "cli.py")
    spelled = sorted(f"{path.name}: {name}"
                     for path in PACKAGE.glob("*.py") if path.name != "cli.py"
                     for name in names & string_literals(path))
    assert not spelled, f"CLI names spelled outside cli.py: {spelled}"


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special costs every CLI process memory and import time; the
    # quadrature rules are built with NumPy alone, and the built-in meshes
    # need no scipy.spatial (which loads scipy.special)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    script = """
import contextlib, io, sys
import helmqo.cli as cli
print('scipy.special' in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["mesh", "--geometry", name, "--n", "4"])
             for name in cli._GEOMETRIES]
print(codes, sorted(name for name in ("scipy.special", "scipy.spatial")
                    if name in sys.modules))
"""
    loaded = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.splitlines()
    assert loaded == ["False", "[0, 0, 0] []"]


# the SciPy modules helmqo may import: linear algebra and sparse matrices
SCIPY_ALLOWED = {"scipy.linalg", "scipy.linalg.blas", "scipy.sparse",
                 "scipy.sparse.linalg", "scipy.sparse.csgraph"}


def test_helmqo_imports_scipy_linear_algebra_and_sparse_only():
    # a static check, so it also sees imports inside functions on paths
    # that the subprocess above does not run
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                found = {f"scipy.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                found = {node.module}
            else:
                continue
            imported |= {f"{path.name}: {name}" for name in found
                         if name.split(".")[0] == "scipy"
                         and name not in SCIPY_ALLOWED}
    assert not imported, f"SciPy modules past linalg and sparse: {imported}"
