"""Every top-level function and class under ``src``, ``scripts`` and
``tests``, and every module-level constant under ``src`` and ``scripts``,
has a reader.

A name counts as read when some file under ``src``, ``scripts`` or ``tests``
loads it (as a bare name or as an attribute) outside its own definition,
or when the benchmark's tracer binds it (``SPAN_TARGETS`` in
``perfbench/tracing.py``). In ``tests``, pytest itself reads ``test_*``
functions, ``Test*`` classes and ``@pytest.fixture`` functions, so those
need no other reader. Dunder names (``__all__``, ``__version__``) are
read by tools and need none either. A helper or constant whose last reader
was deleted fails here.
Names are matched by spelling, not by module, so a dead helper can hide
behind a live one of the same name elsewhere."""

import ast
from pathlib import Path

from test_perfbench_bindings import tracing

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
READER_DIRS = [ROOT / "src", ROOT / "scripts", TESTS]


def _definitions(tree: ast.Module) -> list[ast.AST]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _constants(tree: ast.Module) -> list[ast.Name]:
    """The names a module's top-level assignments bind, dunders left out."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    names = [name for target in targets for name in ast.walk(target)
             if isinstance(name, ast.Name)]
    return [name for name in names
            if not (name.id.startswith("__") and name.id.endswith("__"))]


def _collected_by_pytest(node: ast.AST) -> bool:
    """A ``test_*`` function, a ``Test*`` class or a ``@pytest.fixture``."""
    if isinstance(node, ast.ClassDef):
        return node.name.startswith("Test")
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr == "fixture":
            return True
    return node.name.startswith("test_")


def _loads(node: ast.AST, skip: set[int]) -> set[str]:
    """Names loaded under ``node``, leaving out the subtrees in ``skip``."""
    names: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if id(current) in skip:
            continue
        if isinstance(current, ast.Name) and isinstance(current.ctx, ast.Load):
            names.add(current.id)
        elif isinstance(current, ast.Attribute):
            names.add(current.attr)
        stack.extend(ast.iter_child_nodes(current))
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module loads. A definition's loads of its own name
    (recursion) do not count."""
    definitions = _definitions(tree)
    loaded = _loads(tree, {id(node) for node in definitions})
    for node in definitions:
        loaded |= _loads(node, set()) - {node.name}
    return loaded


def test_every_top_level_definition_is_read():
    trees = {path: ast.parse(path.read_text(), str(path))
             for directory in READER_DIRS for path in sorted(directory.rglob("*.py"))}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    known = read | {attr for _, attr, _ in tracing.SPAN_TARGETS}
    orphans = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
               for path, tree in trees.items() for node in _definitions(tree)
               if node.name not in known
               and not (path.is_relative_to(TESTS) and _collected_by_pytest(node))]
    orphans += [f"{path.relative_to(ROOT)}:{name.lineno} {name.id}"
                for path, tree in trees.items() if not path.is_relative_to(TESTS)
                for name in _constants(tree) if name.id not in known]
    assert not orphans, "defined but never read: " + ", ".join(orphans)
