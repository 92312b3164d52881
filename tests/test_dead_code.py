"""No dead code in src/germnf: every function and method defined there is
referenced somewhere in src/germnf outside its own definition, and every
name assigned at module level is read somewhere in src/germnf.

References are matched by name, so this is a coarse guard: a function whose
name is also used for something else that is referenced passes.  A method
counts as referenced only through an attribute (`obj.name`), since a bare
name cannot call it; a function through a plain name or an attribute.
Exempt are the names germnf/__init__.py exports (the public API), the
functions the benchmark's tracer wraps by name (perfbench/tracer.py
FUNCTIONS), and dunder methods, which Python calls by protocol.  A
module-level name is read through a plain name or an attribute
(`module.NAME`); the exports and dunder names (`__version__`) are exempt.
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


def unread_names(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """module.name for each name that a module-level assignment in
    `sources` binds and that nothing in `sources` reads, as a plain name or
    an attribute."""
    assigned, read = [], set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for statement in tree.body:
            if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                for target in targets:
                    assigned += [(module, node.id) for node in ast.walk(target) if isinstance(node, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}.{name}"
        for module, name in assigned
        if name not in read and name not in exempt and not (name.startswith("__") and name.endswith("__"))
    ]


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


def test_every_module_level_name_is_read_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_names(sources, set(germnf.__all__)) == []


def test_guard_flags_unread_module_level_names():
    source = (
        "LIMIT = 3\nALIAS = int\n_a, _b = 1, 2\nTABLE: dict = {}\nEXPORTED = 0\n__version__ = '1'\n"
        "class C:\n    ATTR = 0\n"
        "def f(x):\n    local = x\n    return LIMIT + _a + local\n"
    )
    other = "import m\nTOTAL = m.TABLE\n"
    assert unread_names({"m": source, "o": other}, {"EXPORTED"}) == ["m.ALIAS", "m._b", "o.TOTAL"]
