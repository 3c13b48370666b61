"""The public surface stays in use: every name that ``helmqo`` re-exports is
referenced by code outside the tests, so no helper lives on for its tests
alone.  What two helmqo modules share is public: none imports another's
underscore name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "helmqo"

# public names that need no caller in the package, demos or benchmark
UNUSED_ALLOWED = {
    "interpolate",    # the nodal interpolant, for users' own data
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


def callers() -> list[Path]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        files += (ROOT / folder).glob("*.py")
    return files


def test_every_reexport_has_a_caller_outside_tests():
    exported = reexported_names()
    used = set().union(*(referenced_names(p) for p in callers()))
    # an exception that gains a caller or leaves the package is dropped
    assert UNUSED_ALLOWED <= exported - used
    unused = exported - used - UNUSED_ALLOWED
    assert not unused, (f"re-exported but referenced only by tests: "
                        f"{sorted(unused)}")


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
