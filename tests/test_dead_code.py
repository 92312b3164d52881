"""No dead code in src/germnf: every function and method defined there is
referenced somewhere in src/germnf outside its own definition.

References are matched by name, so this is a coarse guard: a function whose
name is also used for something else that is referenced passes.  A method
counts as referenced only through an attribute (`obj.name`), since a bare
name cannot call it; a function through a plain name or an attribute.
Exempt are the names germnf/__init__.py exports (the public API), the
functions the benchmark's tracer wraps by name (perfbench/tracer.py
FUNCTIONS), and dunder methods, which Python calls by protocol.
"""

import ast
import importlib.util
from pathlib import Path

import germnf

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "germnf"


def _traced_names() -> set[str]:
    """The last component of each attribute path the tracer wraps, read from
    perfbench/tracer.py loaded by path (nothing is installed)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {path.split(".")[-1] for _, _, path in module.FUNCTIONS}


def unreferenced(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """module.function for each function or method in `sources` (module name
    -> source text) that nothing outside its own body refers to: an
    attribute for a method, a name or an attribute for a function."""
    definitions, methods, names, attributes = [], set(), {}, {}
    trees = {module: ast.parse(text) for module, text in sources.items()}  # alive, so ids stay unique
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((module, node))
            elif isinstance(node, ast.ClassDef):
                methods.update(id(item) for item in node.body)
            elif isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append(node)
    dead = []
    for module, node in definitions:
        name = node.name
        if name in exempt or (name.startswith("__") and name.endswith("__")):
            continue
        references = attributes.get(name, []) + ([] if id(node) in methods else names.get(name, []))
        inside = {id(child) for child in ast.walk(node)}
        if all(id(ref) in inside for ref in references):
            dead.append(f"{module}.{name}")
    return dead


def test_every_function_is_referenced_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources, set(germnf.__all__) | _traced_names()) == []


def test_guard_flags_unused_and_self_recursive_functions():
    source = (
        "def used():\n    return 1\n"
        "def unused():\n    return used()\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n"
        "class C:\n    def method(self):\n        return 0\n    def __len__(self):\n        return 0\n"
        "def public():\n    return 0\n"
    )
    assert unreferenced({"m": source}, {"public"}) == ["m.unused", "m.recursive", "m.method"]


def test_guard_flags_a_method_whose_name_is_a_local_variable_elsewhere():
    source = (
        "class Lattice:\n    def contains(self, k):\n        return k\n"
        "    def rank(self):\n        return 0\n"
        "def public(lat):\n    contains = lat.rank()\n    return contains\n"
    )
    assert unreferenced({"m": source}, {"public"}) == ["m.contains"]
