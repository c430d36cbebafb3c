"""Static checks on the package source, and on the names in it that the
benchmark's tracer patches.

The rule tables of a presentation have one reader each outside ``ncalg``:
``hopf.verify_axioms`` checks every rule, ``model._grading_offsets`` walks
the rules and Hopf tables of a model, and everything else reads the brackets
through ``Presentation.structure_constants``.  A scan fails on any other
read of ``comm_rules`` or ``product_rules``.  The degree test that decides
truncation, ``scalar._keep``, is bound in ``scalar`` alone: a scan fails on
any other module that defines it, imports it by name or reads it at import,
since each degree test must read it from ``scalar`` at call time.  The three
display checks, ``twist.build_twist`` and ``twist.factor_order_check`` build
no tensor by hand: a scan fails on a call to ``otimes`` or ``from_legs``
inside them, since their displays and twist cells are printed lines that one
reader reads.  The rewriting
kernels and the Hopf leg maps work on graded rows, so a scan fails on any
name ``Scalar`` or ``ONE`` inside them.  The graded format has one owner,
``scalar``: a scan fails on any other module that defines ``accumulate`` or
``scalar_view`` or reads ``Scalar._make``.
"""

import ast
import importlib.util
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


def definitions(source):
    """Names of the module-level functions and classes of a source, and of
    the methods of those classes other than dunders."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name


def orphans(modules, others):
    """Definitions of the ``modules`` sources that neither they nor the
    ``others`` sources name."""
    used = set().union(*map(named, list(modules) + list(others)))
    return sorted(
        name
        for source in modules
        for name in definitions(source)
        if name not in used
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


def test_the_scan_sees_an_orphaned_method():
    module = (
        "class Kept:\n"
        "    def __init__(self):\n        self.used()\n\n"
        "    def used(self):\n        pass\n\n"
        "    def orphan(self):\n        pass\n\n"
        "    @classmethod\n    def lost(cls):\n        pass\n\n"
        "Kept()\n"
    )
    assert orphans([module], []) == ["lost", "orphan"]
    assert orphans([module], ["Kept.lost()\nk.orphan()\n"]) == []


def test_no_orphaned_module_level_definition():
    # this file names the allow-list, so it does not count as a user
    root = SRC.parents[1]
    others = [p.read_text() for d in ("tests", "perfbench")
              for p in sorted((root / d).rglob("*.py"))
              if p != Path(__file__).resolve()]
    modules = [p.read_text() for p in sorted(SRC.parent.rglob("*.py"))]
    assert orphans(modules, others) == UNUSED_ON_PURPOSE


RULE_TABLES = {"comm_rules", "product_rules"}
RULE_READERS = [("hopf", "verify_axioms"), ("model", "_grading_offsets")]


def stray_rule_table_reads(module, source):
    """(module, top-level definition) of every attribute access to a rule
    table in a source, outside ``RULE_READERS``; a method counts as its
    class."""
    reads = [
        (module, getattr(node, "name", None))
        for node in ast.parse(source).body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr in RULE_TABLES
    ]
    return [read for read in reads if read not in RULE_READERS]


def test_the_scan_sees_a_stray_rule_table_read():
    source = (
        "def _grading_offsets(model):\n    return model.pres.comm_rules\n\n"
        "class Stray:\n    def walk(self, pres):\n"
        "        return pres.product_rules\n\n"
        "TABLE = pres.comm_rules\n"
    )
    assert stray_rule_table_reads("model", source) == [
        ("model", "Stray"), ("model", None),
    ]
    assert stray_rule_table_reads("rmatrix", source)[0] == (
        "rmatrix", "_grading_offsets"
    )


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "ncalg.py"],
                         ids=lambda p: p.name)
def test_only_the_named_readers_read_the_rule_tables(path):
    assert stray_rule_table_reads(path.stem, path.read_text()) == []


def keep_bindings(source):
    """Line numbers where a module binds the degree test ``_keep`` itself:
    a definition or assignment of the name, an import of it by name, or a
    module-level statement that reads it, which binds it at import.  A read
    inside a function, as ``scalar._keep``, happens at call time."""
    tree = ast.parse(source)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == "_keep":
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "_keep" \
                and isinstance(node.ctx, ast.Store):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) \
                and any(a.name == "_keep" for a in node.names):
            lines.append(node.lineno)
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.ImportFrom)) \
                and "_keep" in named(ast.unparse(stmt)):
            lines.append(stmt.lineno)
    return sorted(set(lines))


def test_the_scan_sees_a_bound_degree_test():
    source = (
        "from .scalar import _keep\n"
        "from kdeform.scalar import _keep as keep\n"
        "def _keep(key, trunc):\n    return True\n"
        "_keep = None\n"
        "keep = scalar._keep\n"
        "def product(key, trunc):\n    return scalar._keep(key, trunc)\n"
    )
    assert keep_bindings(source) == [1, 2, 3, 5, 6]
    assert keep_bindings(
        "from . import scalar\n"
        "def product(key, trunc):\n"
        "    keep = scalar._keep\n    return keep(key, trunc)\n"
    ) == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "scalar.py"],
                         ids=lambda p: p.name)
def test_only_scalar_binds_the_degree_test(path):
    # a test of the benchmark swaps ``scalar._keep`` to lower the
    # truncation, and every degree test must see the swap
    assert keep_bindings(path.read_text()) == []


DISPLAY_CHECKS = ("decomposition_display_check", "nullplane_display_check",
                  "q_display_check")
# module: the functions whose tensors are printed cells read by the reader
PRINTED_TABLES = {
    "model": DISPLAY_CHECKS,
    "twist": ("build_twist", "factor_order_check"),
}
HAND_BUILT = {"otimes", "from_legs"}


def hand_built_tensors(source, functions):
    """(function, callee) of every call to ``otimes`` or ``from_legs``
    inside the top-level ``functions`` of a source."""
    return [
        (node.name, name)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in functions
        for sub in ast.walk(node) if isinstance(sub, ast.Call)
        for name in [getattr(sub.func, "id", getattr(sub.func, "attr", None))]
        if name in HAND_BUILT
    ]


def test_the_scan_sees_a_hand_built_tensor():
    source = (
        "def q_display_check(m):\n"
        "    return otimes(m.p(1), one) + TensorElement.from_legs(one, one)\n\n"
        "def _hopf_tables(m):\n    return otimes(one, one)\n\n"
        "def build_twist(label, m):\n    return [otimes(m.p(1), one)]\n\n"
        "def primitive_hopf(pres, trunc):\n    return otimes(one, one)\n"
    )
    assert hand_built_tensors(
        source, DISPLAY_CHECKS + PRINTED_TABLES["twist"]
    ) == [
        ("q_display_check", "otimes"), ("q_display_check", "from_legs"),
        ("build_twist", "otimes"),
    ]


@pytest.mark.parametrize("module", sorted(PRINTED_TABLES))
def test_the_printed_tables_build_no_tensor_by_hand(module):
    # each display line and each twist cell is printed text that the one
    # reader reads (items 13 and 16)
    source = (SRC / ("%s.py" % module)).read_text()
    assert hand_built_tensors(source, PRINTED_TABLES[module]) == []


RING_OWNED = {"accumulate", "scalar_view"}


def ring_breaches(source):
    """(line, name) of every definition or assignment of ``accumulate`` or
    ``scalar_view`` in a source, and of every read of ``Scalar._make``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name in RING_OWNED:
            out.append((node.lineno, node.name))
        elif isinstance(node, ast.Name) and node.id in RING_OWNED \
                and isinstance(node.ctx, ast.Store):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr == "_make" \
                and ast.unparse(node.value).rpartition(".")[2] == "Scalar":
            out.append((node.lineno, "Scalar._make"))
    return sorted(out)


def test_the_scan_sees_a_ring_breach():
    source = (
        "from .scalar import accumulate, scalar_view\n"
        "def accumulate(out, rows, trunc):\n    return out\n"
        "scalar_view = None\n"
        "def view(terms):\n"
        "    return scalar.Scalar._make(terms, None), Scalar._make({}, None)\n"
        "def unit(pres):\n    return TensorElement._make(pres, 0, {}, None)\n"
    )
    assert ring_breaches(source) == [
        (2, "accumulate"), (4, "scalar_view"),
        (6, "Scalar._make"), (6, "Scalar._make"),
    ]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "scalar.py"],
                         ids=lambda p: p.name)
def test_only_scalar_owns_the_graded_sum_and_its_view(path):
    # the graded format's accumulator and its Scalar view live in
    # ``scalar``, and only ``scalar`` builds Scalars past the checks
    assert ring_breaches(path.read_text()) == []


ROW_KERNELS = {
    "ncalg": ("_spread", "Presentation.step_at", "Presentation.normalize_word",
              "Presentation.normalize_terms"),
    "hopf": ("HopfData._leg_map", "HopfData.counit_word"),
}
SCALAR_NAMES = {"Scalar", "ONE"}


def scalar_names(source, functions):
    """(function, name) of every ``Scalar`` or ``ONE`` that the named
    ``functions`` of a source name; a method is named ``Class.method``."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defs["%s.%s" % (node.name, item.name)] = item
    return sorted(
        (function, name)
        for function in functions
        for name in named(ast.unparse(defs[function])) & SCALAR_NAMES
    )


def test_the_scan_sees_a_scalar_in_a_row_kernel():
    source = (
        "from .scalar import ONE, Scalar\n"
        "def _spread(kept, forms):\n    return [f for f in forms if f is ONE]\n"
        "class Presentation:\n"
        "    def step_at(self, word, k):\n        return {word: Scalar.one()}\n"
        "    def normalize_word(self, word):\n        return scalar.ONE\n"
        "    def label(self, i):\n        return Scalar\n"
    )
    assert scalar_names(source, ("_spread", "Presentation.step_at",
                                 "Presentation.normalize_word")) == [
        ("Presentation.normalize_word", "ONE"),
        ("Presentation.step_at", "Scalar"), ("_spread", "ONE"),
    ]


@pytest.mark.parametrize("module", sorted(ROW_KERNELS))
def test_the_row_kernels_name_no_scalar(module):
    # rules, normal forms and counit images are graded rows (item 14)
    source = (SRC / ("%s.py" % module)).read_text()
    assert scalar_names(source, ROW_KERNELS[module]) == []


def load_tracer():
    """The benchmark's tracer module, loaded by path without importing the
    benchmark package."""
    path = SRC.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_tracer_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def misplaced(targets):
    """The (stat name, attribute) pairs of tracer ``targets`` that
    ``Tracer.__enter__`` would not find: a method must sit in its class's
    own ``__dict__``, a function in its module's."""
    out = []
    for module, cls, attrs, name, _hook, _span in targets:
        owner = module.__dict__.get(cls) if cls else module
        for attr in attrs:
            if owner is None or not callable(vars(owner).get(attr)):
                out.append((name, attr))
    return out


def test_the_guard_sees_a_misplaced_tracer_target():
    from kdeform import ncalg, series

    targets = [
        (ncalg, "TensorElement", ("__mul__", "__reduce__"), "inherited",
         None, False),
        (ncalg, "Renamed", ("__mul__",), "no class", None, False),
        (series, None, ("exp_nilpotent", "gone"), "no function", None, True),
    ]
    assert misplaced(targets) == [
        ("inherited", "__reduce__"), ("no class", "__mul__"),
        ("no function", "gone"),
    ]


def test_every_tracer_target_is_where_the_tracer_looks():
    assert misplaced(load_tracer().TARGETS) == []
