"""Tooling gate: every public top-level function and class in `src/planlearn`
is used by the program itself, from `src/` or `perfbench/`.

A definition counts as used when its name appears in some other top-level
statement of a module under `src/` or `perfbench/`: as a name, an attribute
or a dotted part of a string (perfbench's span table names the functions it
wraps by string). Its own body does not count, imports are not uses, and
neither is a package's `__all__`, so re-exports in `__init__.py` do not
count either. Public API that only the tests use belongs in the tests, next
to the code that needs it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "planlearn"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name, attribute and dotted string part under node, imports aside."""
    names = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return names


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)


def test_every_public_definition_is_used_outside_the_tests():
    definitions = []      # (path, node): public top-level functions and classes
    statements = []       # (node, names it mentions): every top-level statement that can use one
    for root in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in tree.body:
                if isinstance(node, DEFINITIONS) and path.is_relative_to(PACKAGE) \
                        and not node.name.startswith("_"):
                    definitions.append((path, node))
                if not isinstance(node, (ast.Import, ast.ImportFrom)) and not _is_all(node):
                    statements.append((node, _names(node)))

    unused = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
              for path, node in definitions
              if not any(node.name in names for other, names in statements if other is not node)]
    assert definitions
    assert not unused, ("public definitions used only by the tests, or by nothing: "
                        + ", ".join(unused))
