"""Nothing in the package goes unused: every import is read, every
top-level function and class is called from the package or exported, every
method and property of a class is read in the package, and every export is
read in the package, the demos or the benchmark.

The checks read the source with ``ast`` only.  A name counts as used
wherever it appears as a bare name, as an attribute (``serialize.dumps``)
or in a ``from ... import`` of another module.
"""

import ast
from pathlib import Path

import pytest

import minsep

PACKAGE = Path(minsep.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
REPO = Path(__file__).resolve().parents[1]
# The scripts that use the package as a library: the demos and the benchmark.
CLIENTS = [ast.parse(path.read_text(encoding="utf-8")) for folder in ("demos", "perfbench")
           for path in sorted((REPO / folder).glob("*.py"))]

# The encoders of the wire format, kept beside their decoders for writers of input files.
UNREFERENCED_API = {("serialize", "encode_state"), ("serialize", "encode_povm")}
# Methods kept on purpose although nothing in the package reads them, as
# (module, class, method); a method that only tests call does not belong here.
# SeparableDecomposition.reconstruct multiplies a decomposition back out for
# the demos; the package reads the residual its constructions gated instead.
UNREFERENCED_METHODS = {("decompositions", "SeparableDecomposition", "reconstruct")}


def imported_names(tree):
    """Each name a module binds by import, with the import's line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def read_names(tree):
    """Every bare name and attribute name the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def top_level_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def method_definitions(tree):
    """(class, name) of every non-dunder method and property of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield node.name, item.name


EXPORTED = {name for name, _ in imported_names(MODULES["__init__"])}
REFERENCED = {name for tree in MODULES.values() for name in read_names(tree)} | {
    name for module, tree in MODULES.items() if module != "__init__" for name, _ in imported_names(tree)
}


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_every_import_is_used(module):
    used = set(read_names(MODULES[module]))
    unused = [f"{name} (line {line})" for name, line in imported_names(MODULES[module]) if name not in used]
    assert unused == [], f"minsep.{module} imports names it never uses"


def test_every_definition_is_referenced_or_exported():
    dead = [
        f"{module}.{name}"
        for module, tree in MODULES.items()
        for name in top_level_definitions(tree)
        if name not in REFERENCED | EXPORTED and (module, name) not in UNREFERENCED_API
    ]
    assert dead == [], "top-level definitions that nothing in minsep uses or exports"


def test_every_method_is_read():
    dead = [
        f"{module}.{cls}.{name}"
        for module, tree in MODULES.items()
        for cls, name in method_definitions(tree)
        if name not in REFERENCED and (module, cls, name) not in UNREFERENCED_METHODS
    ]
    assert dead == [], "methods and properties that nothing in minsep reads"


def test_every_export_is_read_outside_tests():
    trees = [tree for module, tree in MODULES.items() if module != "__init__"] + CLIENTS
    read = {name for tree in trees for name in read_names(tree)}
    assert len(CLIENTS) >= 6
    assert sorted(EXPORTED - read) == [], "exports that only tests read"


def test_readme_names_every_export():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library API", 1)[1].split("\n## ", 1)[0]
    assert sorted(name for name in EXPORTED if f"`{name}`" not in section) == []


def test_the_allowlist_is_still_needed():
    for module, name in UNREFERENCED_API:
        assert name in set(top_level_definitions(MODULES[module]))
        assert name not in REFERENCED | EXPORTED
    for module, cls, name in UNREFERENCED_METHODS:
        assert (cls, name) in set(method_definitions(MODULES[module]))
        assert name not in REFERENCED
