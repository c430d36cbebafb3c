"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kdeform"


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\ne()\n") \
        == ["os", "d"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


# Module-level definitions that nothing names yet, each kept for an open
# ROADMAP item; the scan fails if one of them gets used or a new one appears.
UNUSED_ON_PURPOSE = [
    "ClassificationError",  # item 6: classification of 4D Lie algebras
    "universal_r",          # item 3: R = F_21 F^-1 for the twist rows
]


def named(source):
    """Identifiers a module names: loads, attributes, imports, and strings
    that are identifiers (the benchmark's tracer names its targets so)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def orphans(modules, others):
    """Module-level functions and classes of the ``modules`` sources that
    neither they nor the ``others`` sources name."""
    used = set().union(*map(named, list(modules) + list(others)))
    return sorted(
        node.name
        for source in modules
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
    )


def test_the_scan_sees_an_orphaned_definition():
    module = (
        "def used():\n    pass\n\n"
        "def orphan():\n    used()\n\n"
        "class Lost:\n    pass\n"
    )
    assert orphans([module], []) == ["Lost", "orphan"]
    assert orphans([module], ["from m import orphan\nLost()\n"]) == []
    assert orphans([module], ["targets = ('orphan', 'Lost')\n"]) == []


def test_no_orphaned_module_level_definition():
    # this file names the allow-list, so it does not count as a user
    root = SRC.parents[1]
    others = [p.read_text() for d in ("tests", "perfbench")
              for p in sorted((root / d).rglob("*.py"))
              if p != Path(__file__).resolve()]
    modules = [p.read_text() for p in sorted(SRC.parent.rglob("*.py"))]
    assert orphans(modules, others) == UNUSED_ON_PURPOSE
